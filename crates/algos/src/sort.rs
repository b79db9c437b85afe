//! An HBP sorting computation (Theorem 7.1(iii) workload).
//!
//! The paper's sort is the resource-oblivious sample sort of \[7\] (√n-way decomposition,
//! `T∞ = O(log n log log n)`). Reproducing that algorithm in full is out of scope for this
//! repository (it is the subject of its own paper), so this module substitutes
//! an **HBP merge sort**: two recursive calls into a local array followed by a BP merge pass
//! whose leaves write disjoint chunks of the destination. The substitution preserves the
//! properties the analysis needs — limited access, top dominance, exactly linear space, c = 1
//! collection of recursive calls — while its `T∞` is `O(log² n)` instead of
//! `O(log n log log n)`; the lab's steal-bound check therefore compares against the bound of
//! Theorem 6.3(i) instantiated for this recursion, which is the honest prediction for the
//! algorithm actually built.

use crate::common::{balanced_levels, Dest};
use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, Shrink, SpDagBuilder, WorkUnit};

/// Configuration of the sorting computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortConfig {
    /// Number of keys (power of two).
    pub n: usize,
    /// Base-case size (power of two).
    pub base: usize,
}

impl SortConfig {
    /// `n` keys with a base case of 16 (or `n` if smaller).
    pub fn new(n: usize) -> Self {
        SortConfig { n, base: 16.min(n) }
    }

    /// Builder-style: set the base case.
    pub fn with_base(mut self, base: usize) -> Self {
        self.base = base;
        self
    }
}

/// Build the HBP merge-sort computation: input at address 0, output at address `n`.
pub fn sort_computation(cfg: &SortConfig) -> Computation {
    assert!(cfg.n.is_power_of_two() && cfg.base.is_power_of_two() && cfg.base <= cfg.n);
    let mut b = SpDagBuilder::new();
    let root = build_sort(
        &mut b,
        0,
        Dest::Global { base: cfg.n as u64 },
        cfg.n as u64,
        cfg.base as u64,
        0,
    );
    let dag = b.build(root).expect("sort dag must validate");
    let meta = AlgoMeta::hbp2("hbp-mergesort", cfg.n as u64, 1, Shrink::Half)
        .with_base_case(cfg.base as u64);
    Computation::new(dag, meta)
}

/// Sort the `m` keys at global address `src` into `dest`.
fn build_sort(
    b: &mut SpDagBuilder,
    src: u64,
    dest: Dest,
    m: u64,
    base: u64,
    ctx_depth: u32,
) -> NodeId {
    if m <= base {
        let at_depth = ctx_depth + 1;
        // Base case: read the chunk, sort it internally (m log m comparisons, charged as ops),
        // write the destination chunk.
        let mut unit = WorkUnit::compute(m * (64 - m.leading_zeros() as u64).max(1))
            .reads((src..src + m).map(Addr));
        unit = dest.write_range(unit, 0..m, at_depth);
        return b.leaf(unit);
    }
    let h = m / 2;
    // The call's Seq declares a local array holding the two sorted halves.
    let seq_depth = ctx_depth + 1;
    let local = |k: u64| Dest::Local {
        depth: seq_depth,
        offset: u32::try_from(k * h).expect("local offset"),
    };
    let child_depth = seq_depth + balanced_levels(2);
    let left = build_sort(b, src, local(0), h, base, child_depth);
    let right = build_sort(b, src + h, local(1), h, base, child_depth);
    let halves = BalancedTreeBuilder::new(b, 2).combine(
        &[left, right],
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    );

    // Merge pass: a BP tree whose leaves each produce one destination chunk. The access
    // pattern of a real merge depends on the data; for the cost model each leaf reads one
    // chunk's worth of keys from each half (2·chunk reads) and writes its chunk — the same
    // totals as a real merge, distributed evenly.
    let chunk = base.min(m);
    let chunks = (m / chunk) as usize;
    let levels = balanced_levels(chunks.next_power_of_two());
    let leaf_depth = seq_depth + levels + 1;
    let mut leaves = Vec::with_capacity(chunks);
    for c in 0..chunks as u64 {
        let lo = c * chunk;
        let hi = lo + chunk;
        let half_lo = lo / 2;
        let half_hi = (hi / 2).min(h);
        let mut unit = WorkUnit::compute(chunk);
        unit = local(0).read_range(unit, half_lo..half_hi, leaf_depth);
        unit = local(1).read_range(unit, half_lo..half_hi, leaf_depth);
        unit = dest.write_range(unit, lo..hi, leaf_depth);
        leaves.push(b.leaf(unit));
    }
    let merge = BalancedTreeBuilder::new(b, 2).combine(
        &leaves,
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    );
    b.seq_with_segment(vec![halves, merge], u32::try_from(m).expect("segment size"))
}

/// Native fork-join merge sort on the `rws-runtime` work-stealing pool.
///
/// The same HBP structure as [`sort_computation`]: the two half sorts are one parallel
/// collection of recursive calls into fresh local arrays, followed by a merge writing each
/// destination slot exactly once. Call from inside [`rws_runtime::ThreadPool::install`] for
/// parallel execution; outside a pool worker the `join`s degrade to sequential calls.
pub fn merge_sort_native(keys: &[u64], base: usize) -> Vec<u64> {
    fn msort(mut keys: Vec<u64>, base: usize) -> Vec<u64> {
        if keys.len() <= base {
            keys.sort();
            return keys;
        }
        let right = keys.split_off(keys.len() / 2);
        let (left, right) =
            rws_runtime::join(move || msort(keys, base), move || msort(right, base));
        let mut out = Vec::with_capacity(left.len() + right.len());
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            if left[i] <= right[j] {
                out.push(left[i]);
                i += 1;
            } else {
                out.push(right[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&left[i..]);
        out.extend_from_slice(&right[j..]);
        out
    }
    msort(keys.to_vec(), base.max(1))
}

/// Sequential reference sort (stable).
pub fn sort_reference(keys: &[u64]) -> Vec<u64> {
    let mut v = keys.to_vec();
    v.sort();
    v
}

/// Sequential merge sort mirroring the recursive decomposition (validated against
/// [`sort_reference`]).
pub fn merge_sort_reference(keys: &[u64], base: usize) -> Vec<u64> {
    if keys.len() <= base {
        let mut v = keys.to_vec();
        v.sort();
        return v;
    }
    let h = keys.len() / 2;
    let left = merge_sort_reference(&keys[..h], base);
    let right = merge_sort_reference(&keys[h..], base);
    let mut out = Vec::with_capacity(keys.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            out.push(left[i]);
            i += 1;
        } else {
            out.push(right[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn merge_sort_matches_std_sort() {
        let mut rng = SmallRng::seed_from_u64(99);
        for len in [0usize, 1, 2, 17, 64, 255] {
            let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1000)).collect();
            assert_eq!(merge_sort_reference(&keys, 4), sort_reference(&keys));
        }
    }

    #[test]
    fn native_runner_sorts_outside_a_pool() {
        let mut rng = SmallRng::seed_from_u64(17);
        for len in [0usize, 1, 2, 33, 256, 1000] {
            let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..500)).collect();
            assert_eq!(merge_sort_native(&keys, 16), sort_reference(&keys));
        }
    }

    #[test]
    fn dag_structure() {
        let comp = sort_computation(&SortConfig::new(256).with_base(16));
        assert!(comp.check_properties().is_empty());
        assert!(comp.meta.class.is_hbp());
        // Output written exactly once per word; input only read.
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        assert_eq!(comp.dag.global_footprint_words(), 2 * 256);
    }

    #[test]
    fn work_is_n_log_n_like() {
        let w256 = sort_computation(&SortConfig::new(256).with_base(16)).dag.work();
        let w1024 = sort_computation(&SortConfig::new(1024).with_base(16)).dag.work();
        let ratio = w1024 as f64 / w256 as f64;
        // 4x the keys => slightly more than 4x the work (n log n), well under 8x.
        assert!(ratio > 3.5 && ratio < 7.0, "ratio {ratio}");
    }

    #[test]
    fn span_grows_polylogarithmically() {
        let s256 = sort_computation(&SortConfig::new(256).with_base(16)).dag.span_nodes();
        let s4096 = sort_computation(&SortConfig::new(4096).with_base(16)).dag.span_nodes();
        assert!(s4096 > s256);
        assert!(
            (s4096 as f64) < (s256 as f64) * 16.0 / 2.0,
            "span must grow far slower than the 16x input growth: {s256} -> {s4096}"
        );
    }
}
