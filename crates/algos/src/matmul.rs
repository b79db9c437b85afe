//! Matrix multiplication — the paper's running example (Section 3).
//!
//! Three variants are provided, all operating on matrices in the bit-interleaved (BI) layout:
//!
//! * **depth-`n`, in-place** — recursively multiplies four pairs of half-size matrices writing
//!   directly into `C`, then four more pairs *adding* into `C`. Each output word is written
//!   `n / base` times, so this variant is **not** limited-access (the paper points this out
//!   and uses it as the motivating bad example for block-miss control).
//! * **depth-`n`, limited-access** — the paper's fix: every recursive call allocates a local
//!   array for its eight sub-products and a final addition pass writes each destination word
//!   exactly once. Space grows to `O(n² log p)` in the paper's accounting; here the local
//!   arrays live on execution-stack segments.
//! * **depth-`log² n`** — all eight sub-products are recursively computed in one parallel
//!   collection (into the local array), followed by the addition pass; `T∞ = O(log² n)`.
//!
//! The builders produce classified [`Computation`]s whose leaves are `base × base` block
//! multiplications carrying their exact read/write sets; the sequential references operate on
//! real `f64` data and validate the decomposition.

use crate::common::{balanced_levels, Dest};
use crate::layout::{bi_quadrant_offset, bit_interleave};
use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{AlgoMeta, Computation, NodeId, Shrink, SpDagBuilder, WorkUnit};

/// Which matrix-multiply algorithm to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmVariant {
    /// Depth-`n` recursion, accumulating in place (not limited-access).
    DepthNInPlace,
    /// Depth-`n` recursion with local result arrays (limited-access).
    DepthNLimitedAccess,
    /// Depth-`log² n` recursion (eight parallel sub-products, limited-access).
    DepthLog2N,
}

/// Configuration of a matrix-multiply computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatMulConfig {
    /// Matrix dimension (must be a power of two).
    pub n: usize,
    /// Base-case tile dimension (power of two, `<= n`).
    pub base: usize,
    /// Algorithm variant.
    pub variant: MmVariant,
}

impl MatMulConfig {
    /// A configuration with the given size and variant and a base case of 8 (or `n` if
    /// smaller).
    pub fn new(n: usize, variant: MmVariant) -> Self {
        MatMulConfig { n, base: 8.min(n), variant }
    }

    /// Builder-style: set the base-case size.
    pub fn with_base(mut self, base: usize) -> Self {
        self.base = base;
        self
    }

    fn validate(&self) {
        assert!(self.n.is_power_of_two(), "matrix dimension must be a power of two");
        assert!(self.base.is_power_of_two(), "base case must be a power of two");
        assert!(self.base >= 1 && self.base <= self.n);
    }
}

/// Global addresses of the three matrices (all BI-ordered, `n²` words each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatMulLayout {
    /// Base address of `A`.
    pub a_base: u64,
    /// Base address of `B`.
    pub b_base: u64,
    /// Base address of `C`.
    pub c_base: u64,
}

impl MatMulLayout {
    /// The standard packing: `A`, `B`, `C` consecutively from address 0.
    pub fn packed(n: usize) -> Self {
        let n2 = (n * n) as u64;
        MatMulLayout { a_base: 0, b_base: n2, c_base: 2 * n2 }
    }
}

/// Build the matrix-multiply computation dag for `cfg`.
pub fn matmul_computation(cfg: &MatMulConfig) -> Computation {
    cfg.validate();
    let layout = MatMulLayout::packed(cfg.n);
    let mut b = SpDagBuilder::new();
    let mut mm = MmBuilder { b: &mut b, base: cfg.base, variant: cfg.variant };
    let root = mm.build_call(
        Dest::Global { base: layout.c_base },
        false,
        layout.a_base,
        layout.b_base,
        cfg.n,
        0,
    );
    let dag = b.build(root).expect("matmul dag must validate");
    let (name, limited, collections) = match cfg.variant {
        MmVariant::DepthNInPlace => ("matmul-depth-n-inplace", false, 2),
        MmVariant::DepthNLimitedAccess => ("matmul-depth-n-limited", true, 2),
        MmVariant::DepthLog2N => ("matmul-depth-log2n", true, 1),
    };
    let mut meta = AlgoMeta::hbp2(name, (cfg.n * cfg.n) as u64, collections, Shrink::Quarter)
        .with_base_case((cfg.base * cfg.base) as u64);
    meta.limited_access = limited;
    Computation::new(dag, meta)
}

struct MmBuilder<'a> {
    b: &'a mut SpDagBuilder,
    base: usize,
    variant: MmVariant,
}

impl<'a> MmBuilder<'a> {
    /// Build the call multiplying the `m × m` submatrices starting at BI offsets `a_start`
    /// and `b_start`, writing (or accumulating into) `dest`. `ctx_depth` is the absolute
    /// segment depth of the call site.
    fn build_call(
        &mut self,
        dest: Dest,
        accumulate: bool,
        a_start: u64,
        b_start: u64,
        m: usize,
        ctx_depth: u32,
    ) -> NodeId {
        if m <= self.base {
            return self.leaf(dest, accumulate, a_start, b_start, m, ctx_depth);
        }
        let h = m / 2;
        let s = (h * h) as u64;
        let aq = |q: u64| a_start + bi_quadrant_offset(q, m as u64);
        let bq = |q: u64| b_start + bi_quadrant_offset(q, m as u64);
        let dq = |q: u64| dest.offset(bi_quadrant_offset(q, m as u64));

        // The eight half-size products: C_q = P_q + P'_q with
        //   P_0 = A0·B0, P_1 = A0·B1, P_2 = A2·B0, P_3 = A2·B1   (first collection)
        //   P'_0 = A1·B2, P'_1 = A1·B3, P'_2 = A3·B2, P'_3 = A3·B3 (second collection)
        let first: [(u64, u64); 4] = [(0, 0), (0, 1), (2, 0), (2, 1)];
        let second: [(u64, u64); 4] = [(1, 2), (1, 3), (3, 2), (3, 3)];

        match self.variant {
            MmVariant::DepthNInPlace => {
                // Children sit under the (non-declaring) Seq plus two fork levels.
                let child_depth = ctx_depth + balanced_levels(4);
                let col1: Vec<NodeId> = first
                    .iter()
                    .enumerate()
                    .map(|(q, &(ai, bi))| {
                        self.build_call(dq(q as u64), accumulate, aq(ai), bq(bi), h, child_depth)
                    })
                    .collect();
                let col1 = self.combine(&col1);
                let col2: Vec<NodeId> = second
                    .iter()
                    .enumerate()
                    .map(|(q, &(ai, bi))| {
                        self.build_call(dq(q as u64), true, aq(ai), bq(bi), h, child_depth)
                    })
                    .collect();
                let col2 = self.combine(&col2);
                self.b.seq(vec![col1, col2])
            }
            MmVariant::DepthNLimitedAccess | MmVariant::DepthLog2N => {
                // The call's Seq node declares a local array of 8 half-size product matrices.
                let seq_depth = ctx_depth + 1;
                let local = |k: u64| Dest::Local {
                    depth: seq_depth,
                    offset: u32::try_from(k * s).expect("local array too large"),
                };
                let children_per_collection =
                    if self.variant == MmVariant::DepthLog2N { 8 } else { 4 };
                let child_depth = seq_depth + balanced_levels(children_per_collection);

                let mut parts: Vec<NodeId> = Vec::new();
                if self.variant == MmVariant::DepthLog2N {
                    let all: Vec<NodeId> = first
                        .iter()
                        .chain(second.iter())
                        .enumerate()
                        .map(|(k, &(ai, bi))| {
                            self.build_call(local(k as u64), false, aq(ai), bq(bi), h, child_depth)
                        })
                        .collect();
                    parts.push(self.combine(&all));
                } else {
                    let col1: Vec<NodeId> = first
                        .iter()
                        .enumerate()
                        .map(|(k, &(ai, bi))| {
                            self.build_call(local(k as u64), false, aq(ai), bq(bi), h, child_depth)
                        })
                        .collect();
                    parts.push(self.combine(&col1));
                    let col2: Vec<NodeId> = second
                        .iter()
                        .enumerate()
                        .map(|(k, &(ai, bi))| {
                            self.build_call(
                                local(4 + k as u64),
                                false,
                                aq(ai),
                                bq(bi),
                                h,
                                child_depth,
                            )
                        })
                        .collect();
                    parts.push(self.combine(&col2));
                }
                parts.push(self.addition_tree(dest, accumulate, seq_depth, s, m));
                self.b.seq_with_segment(parts, u32::try_from(8 * s).expect("segment too large"))
            }
        }
    }

    /// A `base × base` (or smaller) block multiply leaf.
    fn leaf(
        &mut self,
        dest: Dest,
        accumulate: bool,
        a_start: u64,
        b_start: u64,
        m: usize,
        ctx_depth: u32,
    ) -> NodeId {
        let m2 = (m * m) as u64;
        let at_depth = ctx_depth + 1; // the leaf's own (empty) segment
        let mut unit = WorkUnit::compute(2 * (m as u64) * (m as u64) * (m as u64))
            .reads((a_start..a_start + m2).map(rws_dag::Addr))
            .reads((b_start..b_start + m2).map(rws_dag::Addr));
        if accumulate {
            unit = dest.read_range(unit, 0..m2, at_depth);
        }
        unit = dest.write_range(unit, 0..m2, at_depth);
        self.b.leaf(unit)
    }

    /// The addition pass of the limited-access variants: `dest[q][e] = L[q·s + e] + L[(4+q)·s + e]`.
    fn addition_tree(
        &mut self,
        dest: Dest,
        accumulate: bool,
        seq_depth: u32,
        s: u64,
        m: usize,
    ) -> NodeId {
        let chunk = (s as usize).min(self.base * self.base) as u64;
        let chunks_per_quadrant = (s / chunk).max(1);
        let total_chunks = (4 * chunks_per_quadrant) as usize;
        let levels = balanced_levels(total_chunks);
        let leaf_depth = seq_depth + levels + 1;

        let mut leaves = Vec::with_capacity(total_chunks);
        for q in 0..4u64 {
            for c in 0..chunks_per_quadrant {
                let lo = c * chunk;
                let hi = lo + chunk;
                let l1 = Dest::Local {
                    depth: seq_depth,
                    offset: u32::try_from(q * s).expect("local offset"),
                };
                let l2 = Dest::Local {
                    depth: seq_depth,
                    offset: u32::try_from((4 + q) * s).expect("local offset"),
                };
                let dq = dest.offset(bi_quadrant_offset(q, m as u64));
                let mut unit = WorkUnit::compute(chunk);
                unit = l1.read_range(unit, lo..hi, leaf_depth);
                unit = l2.read_range(unit, lo..hi, leaf_depth);
                if accumulate {
                    unit = dq.read_range(unit, lo..hi, leaf_depth);
                }
                unit = dq.write_range(unit, lo..hi, leaf_depth);
                leaves.push(self.b.leaf(unit));
            }
        }
        self.combine(&leaves)
    }

    fn combine(&mut self, children: &[NodeId]) -> NodeId {
        BalancedTreeBuilder::new(self.b, 2).combine(
            children,
            |_, _| WorkUnit::compute(1),
            |_, _| WorkUnit::compute(1),
        )
    }
}

// ------------------------------------------------------------------------------------------
// Sequential references on real data
// ------------------------------------------------------------------------------------------

/// Naive `O(n³)` row-major matrix multiply (the correctness oracle).
pub fn matmul_reference(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Convert a row-major matrix to the bit-interleaved layout.
pub fn to_bi(rm: &[f64], n: usize) -> Vec<f64> {
    let mut bi = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            bi[bit_interleave(i as u64, j as u64) as usize] = rm[i * n + j];
        }
    }
    bi
}

/// Convert a bit-interleaved matrix to row-major.
pub fn from_bi(bi: &[f64], n: usize) -> Vec<f64> {
    let mut rm = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            rm[i * n + j] = bi[bit_interleave(i as u64, j as u64) as usize];
        }
    }
    rm
}

/// Recursive eight-way matrix multiply on BI-ordered data — the same decomposition the dag
/// builders use, validated against [`matmul_reference`].
pub fn matmul_bi_reference(a_bi: &[f64], b_bi: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    mm_bi_rec(&mut c, a_bi, b_bi, n, false);
    c
}

/// Largest block the gathered micro-kernel handles: an 8×8 block is three levels of the
/// recursion, so stopping here removes the 8 quadrant `Vec` allocations per call over the
/// three hottest (most numerous) levels, and its 64-word operands fit comfortably in L1.
const MICRO: usize = 8;

/// The base-case block multiply: gather the bit-interleaved `m × m` operands (`m <=
/// MICRO`) into row-major stack buffers, run a classic i-k-j triple loop, scatter back.
///
/// The gather costs `2m²` extra moves but buys contiguous, constant-stride (`MICRO`-wide)
/// rows for the hot loop — the inner `j` loop reads `B`'s row and writes `C`'s row
/// sequentially, which the compiler unrolls and vectorizes, where the interleaved layout
/// forces a strided gather per multiply. Summation order within a block changes from the
/// recursive quadrant order to plain dot products; both are exact-sum reorderings well
/// inside the 1e-9 test tolerance.
fn mm_bi_micro(c: &mut [f64], a: &[f64], b: &[f64], m: usize, accumulate: bool) {
    debug_assert!(m <= MICRO && m.is_power_of_two());
    let mut ra = [0.0f64; MICRO * MICRO];
    let mut rb = [0.0f64; MICRO * MICRO];
    let mut rc = [0.0f64; MICRO * MICRO];
    for i in 0..m {
        for j in 0..m {
            let bi = bit_interleave(i as u64, j as u64) as usize;
            ra[i * MICRO + j] = a[bi];
            rb[i * MICRO + j] = b[bi];
        }
    }
    for i in 0..m {
        for k in 0..m {
            let aik = ra[i * MICRO + k];
            for j in 0..m {
                rc[i * MICRO + j] += aik * rb[k * MICRO + j];
            }
        }
    }
    for i in 0..m {
        for j in 0..m {
            let bi = bit_interleave(i as u64, j as u64) as usize;
            if accumulate {
                c[bi] += rc[i * MICRO + j];
            } else {
                c[bi] = rc[i * MICRO + j];
            }
        }
    }
}

fn mm_bi_rec(c: &mut [f64], a: &[f64], b: &[f64], m: usize, accumulate: bool) {
    if m <= MICRO {
        mm_bi_micro(c, a, b, m, accumulate);
        return;
    }
    let s = (m / 2) * (m / 2);
    // Quadrants are contiguous in BI order: [TL, TR, BL, BR].
    let quads = |x: &[f64], q: usize| -> Vec<f64> { x[q * s..(q + 1) * s].to_vec() };
    let a0 = quads(a, 0);
    let a1 = quads(a, 1);
    let a2 = quads(a, 2);
    let a3 = quads(a, 3);
    let b0 = quads(b, 0);
    let b1 = quads(b, 1);
    let b2 = quads(b, 2);
    let b3 = quads(b, 3);
    let pairs: [(usize, &[f64], &[f64], bool); 8] = [
        (0, &a0, &b0, accumulate),
        (1, &a0, &b1, accumulate),
        (2, &a2, &b0, accumulate),
        (3, &a2, &b1, accumulate),
        (0, &a1, &b2, true),
        (1, &a1, &b3, true),
        (2, &a3, &b2, true),
        (3, &a3, &b3, true),
    ];
    for (q, ax, bx, acc) in pairs {
        let (lo, hi) = (q * s, (q + 1) * s);
        mm_bi_rec(&mut c[lo..hi], ax, bx, m / 2, acc);
    }
}

/// Native fork-join matrix multiply on the `rws-runtime` work-stealing pool.
///
/// The same eight-way limited-access decomposition as the simulated
/// [`MmVariant::DepthLog2N`] variant: all eight half-size products are computed in one
/// parallel collection (each into its own freshly allocated result — no two parallel tasks
/// write the same destination), then paired sums produce the four output quadrants. Inputs
/// and output are in the bit-interleaved layout, where quadrants are contiguous, so the
/// recursion works on owned quadrant vectors. Call from inside
/// [`rws_runtime::ThreadPool::install`] for parallel execution; outside a pool worker the
/// `join`s degrade to sequential calls.
pub fn matmul_native_bi(a_bi: &[f64], b_bi: &[f64], n: usize, base: usize) -> Vec<f64> {
    assert!(n.is_power_of_two(), "matrix dimension must be a power of two");
    assert!(base.is_power_of_two() && base >= 1 && base <= n);
    assert_eq!(a_bi.len(), n * n);
    assert_eq!(b_bi.len(), n * n);
    mm_native(a_bi.to_vec(), b_bi.to_vec(), n, base)
}

type QuadPair = ((Vec<f64>, Vec<f64>), (Vec<f64>, Vec<f64>));

fn mm_native(a: Vec<f64>, b: Vec<f64>, m: usize, base: usize) -> Vec<f64> {
    use rws_runtime::join;

    if m <= base {
        return matmul_bi_reference(&a, &b, m);
    }
    let h = m / 2;
    let s = h * h;
    let quad = |x: &[f64], q: usize| x[q * s..(q + 1) * s].to_vec();
    // Output quadrant q needs two products: C_0 = A0·B0 + A1·B2, C_1 = A0·B1 + A1·B3,
    // C_2 = A2·B0 + A3·B2, C_3 = A2·B1 + A3·B3. Each product writes its own fresh vector
    // (limited access); the addition pass pairs them up afterwards.
    let mk = |ai: usize, bi: usize| (quad(&a, ai), quad(&b, bi));
    let [q0, q1, q2, q3]: [QuadPair; 4] =
        [(mk(0, 0), mk(1, 2)), (mk(0, 1), mk(1, 3)), (mk(2, 0), mk(3, 2)), (mk(2, 1), mk(3, 3))];

    // One output quadrant: its two half-size products in parallel, then the element sum.
    fn quadrant(pair: QuadPair, h: usize, base: usize) -> Vec<f64> {
        let ((a1, b1), (a2, b2)) = pair;
        let (x, y) = rws_runtime::join(
            move || mm_native(a1, b1, h, base),
            move || mm_native(a2, b2, h, base),
        );
        x.iter().zip(&y).map(|(u, v)| u + v).collect()
    }

    // All eight products run as one parallel collection via a three-level join tree.
    let ((c0, c1), (c2, c3)) = join(
        move || join(move || quadrant(q0, h, base), move || quadrant(q1, h, base)),
        move || join(move || quadrant(q2, h, base), move || quadrant(q3, h, base)),
    );
    // Quadrants are contiguous in the bit-interleaved layout.
    [c0, c1, c2, c3].concat()
}

/// Number of base-case leaves of the recursive decomposition: `(n / base)³`.
pub fn expected_leaf_count(n: usize, base: usize) -> u64 {
    let k = (n / base) as u64;
    k * k * k
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn random_matrix(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{x} != {y}");
        }
    }

    #[test]
    fn native_runner_matches_naive_outside_a_pool() {
        // Outside a pool worker the joins run sequentially; correctness is identical.
        for (n, base) in [(4usize, 1usize), (8, 2), (16, 4)] {
            let a = random_matrix(n, 21 + n as u64);
            let b = random_matrix(n, 23 + n as u64);
            let expected = matmul_reference(&a, &b, n);
            let got_bi = matmul_native_bi(&to_bi(&a, n), &to_bi(&b, n), n, base);
            assert_close(&from_bi(&got_bi, n), &expected);
        }
    }

    #[test]
    fn bi_layout_roundtrip() {
        let n = 8;
        let m = random_matrix(n, 1);
        assert_close(&from_bi(&to_bi(&m, n), n), &m);
    }

    #[test]
    fn recursive_bi_multiply_matches_naive() {
        for n in [2usize, 4, 8, 16] {
            let a = random_matrix(n, 7 + n as u64);
            let b = random_matrix(n, 11 + n as u64);
            let expected = matmul_reference(&a, &b, n);
            let got = from_bi(&matmul_bi_reference(&to_bi(&a, n), &to_bi(&b, n), n), n);
            assert_close(&got, &expected);
        }
    }

    #[test]
    fn naive_multiply_identity() {
        let n = 4;
        let a = random_matrix(n, 3);
        let mut id = vec![0.0; n * n];
        for i in 0..n {
            id[i * n + i] = 1.0;
        }
        assert_close(&matmul_reference(&a, &id, n), &a);
        assert_close(&matmul_reference(&id, &a, n), &a);
    }

    fn check_structure(variant: MmVariant, n: usize, base: usize) -> Computation {
        let comp = matmul_computation(&MatMulConfig { n, base, variant });
        assert!(comp.check_properties().is_empty(), "{:?}", comp.check_properties());
        comp
    }

    #[test]
    fn limited_access_variant_writes_each_output_word_once() {
        let comp = check_structure(MmVariant::DepthNLimitedAccess, 16, 4);
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        assert!(comp.meta.limited_access);
    }

    #[test]
    fn log2_variant_writes_each_output_word_once() {
        let comp = check_structure(MmVariant::DepthLog2N, 16, 4);
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
    }

    #[test]
    fn in_place_variant_is_not_limited_access() {
        let comp =
            matmul_computation(&MatMulConfig { n: 16, base: 4, variant: MmVariant::DepthNInPlace });
        assert!(comp.dag.max_writes_per_global_word() > 1);
        assert!(!comp.meta.limited_access);
    }

    #[test]
    fn work_scales_cubically() {
        let w8 = check_structure(MmVariant::DepthNLimitedAccess, 8, 2).dag.work();
        let w16 = check_structure(MmVariant::DepthNLimitedAccess, 16, 2).dag.work();
        let ratio = w16 as f64 / w8 as f64;
        assert!(ratio > 6.0 && ratio < 10.5, "doubling n should ~8x the work, got {ratio}");
    }

    #[test]
    fn leaf_count_matches_formula() {
        for (n, base) in [(8, 2), (16, 4), (16, 2)] {
            let comp = check_structure(MmVariant::DepthLog2N, n, base);
            // The dag also has addition leaves; multiply leaves alone are (n/base)^3. Addition
            // leaves are at most as numerous per level, so total leaves are between 1x and 3x.
            let mm_leaves = expected_leaf_count(n, base);
            let total = comp.dag.leaf_count();
            assert!(total >= mm_leaves, "at least the multiply leaves: {total} >= {mm_leaves}");
            assert!(total <= 3 * mm_leaves, "not too many extra leaves: {total} <= 3*{mm_leaves}");
        }
    }

    #[test]
    fn depth_n_has_much_larger_span_than_log2n() {
        let n = 32;
        let base = 2;
        let depth_n = check_structure(MmVariant::DepthNLimitedAccess, n, base).dag.span_nodes();
        let log2n = check_structure(MmVariant::DepthLog2N, n, base).dag.span_nodes();
        assert!(
            depth_n > 2 * log2n,
            "depth-n span ({depth_n}) must exceed depth-log²n span ({log2n}) substantially"
        );
    }

    #[test]
    fn global_footprint_is_three_matrices() {
        let n = 16;
        let comp = check_structure(MmVariant::DepthNLimitedAccess, n, 4);
        assert_eq!(comp.dag.global_footprint_words(), (3 * n * n) as u64);
    }

    #[test]
    fn base_case_equal_to_n_gives_single_leaf() {
        let comp = matmul_computation(&MatMulConfig {
            n: 8,
            base: 8,
            variant: MmVariant::DepthNLimitedAccess,
        });
        assert_eq!(comp.dag.leaf_count(), 1);
        assert_eq!(comp.dag.work(), 2 * 8 * 8 * 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        matmul_computation(&MatMulConfig { n: 12, base: 4, variant: MmVariant::DepthLog2N });
    }
}
