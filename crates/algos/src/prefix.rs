//! Prefix sums as a sequence of two BP tree computations (Section 6.1).
//!
//! The paper uses prefix sums as the canonical BP computation: "Prefix-sums can be
//! implemented as a sequence of two BP computations with a regular pattern". The first pass
//! is a sum tree (leaves reduce chunks of the input, internal up-pass nodes add their
//! children's sums); the second distributes offsets down the tree and has the leaves write
//! the output chunks. Every tree-node variable is written O(1) times and the writes follow
//! the regular inorder pattern, so the algorithm is limited-access BP.

use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, SpDagBuilder, WorkUnit};

/// Configuration for the prefix-sums computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixConfig {
    /// Number of input elements (must be a multiple of `chunk` and `n / chunk` a power of 2).
    pub n: usize,
    /// Elements handled by each leaf.
    pub chunk: usize,
}

impl PrefixConfig {
    /// `n` elements with a default chunk of 8 (or `n` if smaller).
    pub fn new(n: usize) -> Self {
        PrefixConfig { n, chunk: 8.min(n) }
    }

    /// Builder-style: set the leaf chunk size.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    fn leaves(&self) -> usize {
        assert!(
            self.chunk >= 1 && self.n.is_multiple_of(self.chunk),
            "n must be a multiple of chunk"
        );
        let leaves = self.n / self.chunk;
        assert!(leaves.is_power_of_two(), "n / chunk must be a power of two");
        leaves
    }
}

/// Global layout of the prefix-sums arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixLayout {
    /// Input `X[0..n]`.
    pub x_base: u64,
    /// Output `Y[0..n]`.
    pub y_base: u64,
    /// Per-tree-node partial sums `S` (indexed by `lo + hi` of the node's range).
    pub s_base: u64,
    /// Per-tree-node prefix offsets `O` (same indexing).
    pub o_base: u64,
}

impl PrefixLayout {
    /// Consecutive packing starting at address 0.
    pub fn packed(n: usize) -> Self {
        let n = n as u64;
        PrefixLayout { x_base: 0, y_base: n, s_base: 2 * n, o_base: 4 * n + 1 }
    }
}

/// Unique index of the tree node covering leaf range `[lo, hi)`: `lo + hi`. Leaves are
/// `[i, i+1)`, so their index is `2i + 1`; internal aligned ranges get even indices with the
/// range size recoverable from the lowest set bit.
fn node_index(lo: usize, hi: usize) -> u64 {
    (lo + hi) as u64
}

/// Build the prefix-sums computation for `cfg`.
pub fn prefix_sums_computation(cfg: &PrefixConfig) -> Computation {
    let leaves = cfg.leaves();
    let layout = PrefixLayout::packed(cfg.n);
    let chunk = cfg.chunk as u64;
    let mut b = SpDagBuilder::new();

    // Pass 1: the sum tree. Leaf i reads X[i*chunk .. (i+1)*chunk] and writes S[2i+1]; the
    // up-pass node covering [lo, hi) reads its children's sums and writes S[lo+hi].
    let sum_leaves: Vec<NodeId> = (0..leaves)
        .map(|i| {
            let lo = i as u64 * chunk;
            let unit = WorkUnit::compute(chunk)
                .reads((layout.x_base + lo..layout.x_base + lo + chunk).map(Addr))
                .write(Addr(layout.s_base + node_index(i, i + 1)));
            b.leaf(unit)
        })
        .collect();
    let pass1 = BalancedTreeBuilder::new(&mut b, 2).combine(
        &sum_leaves,
        |_, _| WorkUnit::compute(1),
        |lo, hi| {
            let mid = lo + (hi - lo) / 2;
            WorkUnit::compute(1)
                .read(Addr(layout.s_base + node_index(lo, mid)))
                .read(Addr(layout.s_base + node_index(mid, hi)))
                .write(Addr(layout.s_base + node_index(lo, hi)))
        },
    );

    // Pass 2: the distribution tree. The down-pass node covering [lo, hi) reads its own
    // offset O[lo+hi] and its left child's sum S[lo+mid], then writes its children's offsets.
    // Leaf i reads O[2i+1] and its X chunk and writes the Y chunk.
    let dist_leaves: Vec<NodeId> = (0..leaves)
        .map(|i| {
            let lo = i as u64 * chunk;
            let unit = WorkUnit::compute(chunk)
                .read(Addr(layout.o_base + node_index(i, i + 1)))
                .reads((layout.x_base + lo..layout.x_base + lo + chunk).map(Addr))
                .writes((layout.y_base + lo..layout.y_base + lo + chunk).map(Addr));
            b.leaf(unit)
        })
        .collect();
    let pass2 = BalancedTreeBuilder::new(&mut b, 2).combine(
        &dist_leaves,
        |lo, hi| {
            let mid = lo + (hi - lo) / 2;
            WorkUnit::compute(1)
                .read(Addr(layout.o_base + node_index(lo, hi)))
                .read(Addr(layout.s_base + node_index(lo, mid)))
                .write(Addr(layout.o_base + node_index(lo, mid)))
                .write(Addr(layout.o_base + node_index(mid, hi)))
        },
        |_, _| WorkUnit::compute(1),
    );

    let root = b.seq(vec![pass1, pass2]);
    let dag = b.build(root).expect("prefix-sums dag must validate");
    let meta = AlgoMeta::bp("prefix-sums", cfg.n as u64).with_base_case(cfg.chunk as u64);
    Computation::new(dag, meta)
}

/// Chunk size of the native runner's leaves (the counterpart of [`PrefixConfig::chunk`],
/// sized for real hardware rather than the simulator).
pub const NATIVE_CHUNK: usize = 1024;

/// Native fork-join prefix sums on the `rws-runtime` work-stealing pool.
///
/// The same two-pass BP structure as [`prefix_sums_computation`], written on the
/// parallel-iterator layer: pass 1 reduces each chunk to its sum (a parallel indexed sweep
/// writing into the chunk-sums array), a cheap sequential scan turns the chunk sums into
/// chunk offsets, and pass 2 fills each output chunk in place given its offset
/// (`par_chunks_mut` over the output — disjoint borrows, no cloning, no concatenation).
/// Call from inside [`rws_runtime::ThreadPool::install`] for parallel execution; outside a
/// pool worker the sweeps degrade gracefully to sequential leaves.
pub fn prefix_sums_native(x: &[i64]) -> Vec<i64> {
    use rws_runtime::ParSliceExt;

    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let chunks = n.div_ceil(NATIVE_CHUNK);

    // Pass 1: per-chunk sums. Sum cell `i` pairs with input chunk `i`; the single-element
    // chunking of `sums` gives each parallel leaf a disjoint run of cells to fill.
    let mut sums = vec![0i64; chunks];
    sums.par_chunks_mut(1).for_each_indexed(|i, cell| {
        let start = i * NATIVE_CHUNK;
        let end = ((i + 1) * NATIVE_CHUNK).min(n);
        cell[0] = x[start..end].iter().sum();
    });

    // Exclusive scan of the chunk sums: offset of each chunk (O(n / chunk), sequential).
    let mut offsets = Vec::with_capacity(chunks);
    let mut acc = 0i64;
    for &s in &sums {
        offsets.push(acc);
        acc += s;
    }

    // Pass 2: each output chunk is written in place from its offset, reading the matching
    // input chunk in order — the same accumulation order as the sequential reference.
    let mut out = vec![0i64; n];
    out.par_chunks_mut(NATIVE_CHUNK).for_each_indexed(|i, part| {
        let start = i * NATIVE_CHUNK;
        let mut acc = offsets[i];
        for (o, &v) in part.iter_mut().zip(&x[start..]) {
            acc += v;
            *o = acc;
        }
    });
    out
}

/// Sequential reference: inclusive prefix sums.
pub fn prefix_sums_reference(x: &[i64]) -> Vec<i64> {
    let mut out = Vec::with_capacity(x.len());
    let mut acc = 0i64;
    for &v in x {
        acc += v;
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_runner_matches_reference_outside_a_pool() {
        // Outside a pool worker the joins run sequentially; correctness is identical.
        let x: Vec<i64> = (0..5000).map(|i| (i % 23) - 11).collect();
        assert_eq!(prefix_sums_native(&x), prefix_sums_reference(&x));
        assert_eq!(prefix_sums_native(&[]), Vec::<i64>::new());
        assert_eq!(prefix_sums_native(&[7]), vec![7]);
    }

    #[test]
    fn reference_prefix_sums() {
        assert_eq!(prefix_sums_reference(&[1, 2, 3, 4]), vec![1, 3, 6, 10]);
        assert_eq!(prefix_sums_reference(&[]), Vec::<i64>::new());
        assert_eq!(prefix_sums_reference(&[-1, 1, -1]), vec![-1, 0, -1]);
    }

    #[test]
    fn dag_structure_is_bp() {
        let comp = prefix_sums_computation(&PrefixConfig::new(256));
        assert!(comp.meta.class.is_hbp());
        assert!(comp.check_properties().is_empty());
        // Limited access: every global word is written O(1) times (here at most twice: the
        // offset array cells are written once, outputs once, sums once).
        assert!(comp.dag.max_writes_per_global_word() <= 2);
        // Two passes over 32 leaves each.
        assert_eq!(comp.dag.leaf_count(), 2 * (256 / 8) as u64);
    }

    #[test]
    fn work_is_linear_and_span_logarithmic() {
        let small = prefix_sums_computation(&PrefixConfig::new(128));
        let large = prefix_sums_computation(&PrefixConfig::new(1024));
        let work_ratio = large.dag.work() as f64 / small.dag.work() as f64;
        assert!(work_ratio > 6.0 && work_ratio < 10.0, "8x input => ~8x work, got {work_ratio}");
        let span_diff = large.dag.span_nodes() as i64 - small.dag.span_nodes() as i64;
        // 8x the input adds 3 levels to each pass: span grows by a small constant, not 8x.
        assert!(span_diff > 0 && span_diff <= 16, "span grows additively, got +{span_diff}");
    }

    #[test]
    fn node_index_is_unique_per_aligned_range() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        let leaves = 16usize;
        let mut ranges = vec![];
        let mut size = 1;
        while size <= leaves {
            for lo in (0..leaves).step_by(size) {
                ranges.push((lo, lo + size));
            }
            size *= 2;
        }
        for (lo, hi) in ranges {
            assert!(seen.insert(node_index(lo, hi)), "duplicate index for [{lo},{hi})");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_leaf_count() {
        prefix_sums_computation(&PrefixConfig { n: 24, chunk: 8 });
    }
}
