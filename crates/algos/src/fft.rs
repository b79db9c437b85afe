//! FFT via the √n decomposition (Theorem 7.1(iv)).
//!
//! The cache-oblivious FFT treats the length-`n` input as an `r × c` matrix (`r·c = n`,
//! `r ≈ c ≈ √n`), performs `c` column FFTs of size `r` recursively, multiplies by twiddle
//! factors, then performs `r` row FFTs of size `c` — two collections of recursive calls whose
//! sizes shrink as `s(n) = √n`, which is exactly case (ii) of Theorem 6.3. Intermediate
//! results live in a local array so every variable is written O(1) times.
//!
//! [`fft_native`] is the same decomposition run for real on the `rws-runtime` work-stealing
//! pool: each recursion level fork-joins its column-FFT, twiddle, and row-FFT collections
//! over disjoint borrowed chunks of a per-call scratch array, with the dag's base-case
//! cutoff ending the recursion in an iterative radix-2 leaf.

use crate::common::{balanced_levels, par_chunks_mut, Dest};
use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, Shrink, SpDagBuilder, WorkUnit};

/// Configuration of the FFT computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FftConfig {
    /// Transform length (power of two).
    pub n: usize,
    /// Base-case size (power of two).
    pub base: usize,
}

impl FftConfig {
    /// Length-`n` FFT with base case 16 (or `n` if smaller).
    pub fn new(n: usize) -> Self {
        FftConfig { n, base: 16.min(n) }
    }
}

/// Build the FFT computation: input at address 0, output at address `n` (one simulated word
/// per complex element).
pub fn fft_computation(cfg: &FftConfig) -> Computation {
    assert!(cfg.n.is_power_of_two() && cfg.base.is_power_of_two() && cfg.base <= cfg.n);
    let mut b = SpDagBuilder::new();
    let src = SourceRange::Global { base: 0 };
    let root = build_fft(
        &mut b,
        src,
        Dest::Global { base: cfg.n as u64 },
        cfg.n as u64,
        cfg.base as u64,
        0,
    );
    let dag = b.build(root).expect("fft dag must validate");
    let meta = AlgoMeta::hbp2("fft-sqrt-decomposition", cfg.n as u64, 2, Shrink::Sqrt)
        .with_base_case(cfg.base as u64);
    Computation::new(dag, meta)
}

/// Where a sub-FFT reads its input from (mirror of [`Dest`] for reads).
#[derive(Clone, Copy, Debug)]
enum SourceRange {
    Global { base: u64 },
    Local { depth: u32, offset: u32 },
}

impl SourceRange {
    fn offset(self, delta: u64) -> SourceRange {
        match self {
            SourceRange::Global { base } => SourceRange::Global { base: base + delta },
            SourceRange::Local { depth, offset } => SourceRange::Local {
                depth,
                offset: offset + u32::try_from(delta).expect("source offset"),
            },
        }
    }

    fn read_range(
        self,
        mut unit: WorkUnit,
        range: std::ops::Range<u64>,
        at_depth: u32,
    ) -> WorkUnit {
        match self {
            SourceRange::Global { base } => {
                unit = unit.reads((base + range.start..base + range.end).map(Addr));
                unit
            }
            SourceRange::Local { depth, offset } => {
                let dest = Dest::Local { depth, offset };
                dest.read_range(unit, range, at_depth)
            }
        }
    }
}

/// Build the FFT of `m` elements read from `src`, written to `dest`.
fn build_fft(
    b: &mut SpDagBuilder,
    src: SourceRange,
    dest: Dest,
    m: u64,
    base: u64,
    ctx_depth: u32,
) -> NodeId {
    if m <= base {
        let at_depth = ctx_depth + 1;
        let log_m = (64 - m.leading_zeros() as u64).max(1);
        let mut unit = WorkUnit::compute(m * log_m);
        unit = src.read_range(unit, 0..m, at_depth);
        unit = dest.write_range(unit, 0..m, at_depth);
        return b.leaf(unit);
    }
    // Split m = r * c with r >= c, both powers of two, r <= c * 2.
    let log_m = m.trailing_zeros();
    let r = 1u64 << log_m.div_ceil(2);
    let c = m / r;

    // The call's Seq declares a local array of m words for the column-FFT results.
    let seq_depth = ctx_depth + 1;
    let local = Dest::Local { depth: seq_depth, offset: 0 };
    let local_src = SourceRange::Local { depth: seq_depth, offset: 0 };

    // Collection 1: c column FFTs of size r (input columns are modelled as contiguous ranges;
    // the data is assumed pre-laid-out column-blocked, see the module documentation).
    let col_levels = balanced_levels(c.next_power_of_two() as usize);
    let col_depth = seq_depth + col_levels;
    let cols: Vec<NodeId> = (0..c)
        .map(|j| build_fft(b, src.offset(j * r), local.offset(j * r), r, base, col_depth))
        .collect();
    let cols = combine(b, &cols);

    // Twiddle pass: a BP tree over chunks multiplying each intermediate element by a twiddle
    // factor (read + write of the local array, one op each).
    let chunk = base.min(m);
    let chunks = (m / chunk) as usize;
    let tw_levels = balanced_levels(chunks.next_power_of_two());
    let tw_depth = seq_depth + tw_levels + 1;
    let mut tw_leaves = Vec::with_capacity(chunks);
    for k in 0..chunks as u64 {
        let lo = k * chunk;
        let hi = lo + chunk;
        let mut unit = WorkUnit::compute(chunk);
        unit = local.read_range(unit, lo..hi, tw_depth);
        unit = local.write_range(unit, lo..hi, tw_depth);
        tw_leaves.push(b.leaf(unit));
    }
    let twiddle = combine(b, &tw_leaves);

    // Collection 2: r row FFTs of size c reading the local array and writing the destination.
    let row_levels = balanced_levels(r.next_power_of_two() as usize);
    let row_depth = seq_depth + row_levels;
    let rows: Vec<NodeId> = (0..r)
        .map(|i| build_fft(b, local_src.offset(i * c), dest.offset(i * c), c, base, row_depth))
        .collect();
    let rows = combine(b, &rows);

    b.seq_with_segment(vec![cols, twiddle, rows], u32::try_from(m).expect("segment size"))
}

fn combine(b: &mut SpDagBuilder, children: &[NodeId]) -> NodeId {
    BalancedTreeBuilder::new(b, 2).combine(
        children,
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    )
}

// ------------------------------------------------------------------------------------------
// Sequential reference on complex data
// ------------------------------------------------------------------------------------------

/// A complex number (re, im).
pub type Complex = (f64, f64);

fn c_add(a: Complex, b: Complex) -> Complex {
    (a.0 + b.0, a.1 + b.1)
}
fn c_sub(a: Complex, b: Complex) -> Complex {
    (a.0 - b.0, a.1 - b.1)
}
fn c_mul(a: Complex, b: Complex) -> Complex {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Iterative radix-2 Cooley–Tukey FFT of a power-of-two-length buffer, in place (the
/// reference path; the native kernel's base case is the table-driven [`fft_base_tw`], kept
/// separate so the reference stays an independent oracle).
fn fft_in_place(a: &mut [Complex]) {
    let n = a.len();
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation (nothing to do for n = 1).
    let bits = n.trailing_zeros();
    if bits > 0 {
        for i in 0..n {
            let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
            if i < j {
                a.swap(i, j);
            }
        }
    }
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = (angle.cos(), angle.sin());
        for chunk in a.chunks_mut(len) {
            let mut w = (1.0, 0.0);
            for k in 0..len / 2 {
                let u = chunk[k];
                let v = c_mul(chunk[k + len / 2], w);
                chunk[k] = c_add(u, v);
                chunk[k + len / 2] = c_sub(u, v);
                w = c_mul(w, wlen);
            }
        }
        len *= 2;
    }
}

/// Iterative radix-2 Cooley–Tukey FFT (the correctness oracle).
pub fn fft_reference(input: &[Complex]) -> Vec<Complex> {
    assert!(input.len().is_power_of_two());
    let mut a = input.to_vec();
    fft_in_place(&mut a);
    a
}

/// Precomputed full-circle twiddle table for a length-`n` transform: `tw[x] = ω_n^x`
/// (with `ω_n = e^{-2πi/n}`), one direct trig evaluation per entry.
///
/// One table serves the *whole* recursion: every sub-problem size divides `n` (all sizes
/// are powers of two obtained by factoring), so a size-`m` stage reads `ω_m^x` as
/// `tw[x · n/m]` exactly. This replaces a trig evaluation per twiddle-pass element and the
/// base case's repeated `w ·= wlen` recurrence (whose rounding error grows along the
/// butterfly) with a table lookup that is exact per entry.
fn twiddle_table(n: usize) -> Vec<Complex> {
    debug_assert!(n.is_power_of_two());
    (0..n)
        .map(|x| {
            let angle = -2.0 * std::f64::consts::PI * x as f64 / n as f64;
            (angle.cos(), angle.sin())
        })
        .collect()
}

/// The native kernel's base case: iterative radix-2 FFT of `a` in place, butterfly factors
/// looked up in the full-circle table `tw` (stage `len` uses `ω_len^k = tw[k · tw.len()/len]`;
/// `a.len()` must divide `tw.len()`).
fn fft_base_tw(a: &mut [Complex], tw: &[Complex]) {
    let n = a.len();
    debug_assert!(n.is_power_of_two() && tw.len().is_multiple_of(n));
    let bits = n.trailing_zeros();
    if bits > 0 {
        for i in 0..n {
            let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
            if i < j {
                a.swap(i, j);
            }
        }
    }
    let mut len = 2;
    while len <= n {
        let step = tw.len() / len;
        for chunk in a.chunks_mut(len) {
            for k in 0..len / 2 {
                let u = chunk[k];
                let v = c_mul(chunk[k + len / 2], tw[k * step]);
                chunk[k] = c_add(u, v);
                chunk[k + len / 2] = c_sub(u, v);
            }
        }
        len *= 2;
    }
}

// ------------------------------------------------------------------------------------------
// Native fork-join kernel
// ------------------------------------------------------------------------------------------

/// A read-only strided view of a shared complex buffer: element `t` is
/// `data[offset + t * stride]`. Sub-FFT inputs at every level (residue classes of the
/// source, rows of the column-FFT scratch) are exactly such views, so the recursion can
/// borrow instead of gathering eagerly.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [Complex],
    offset: usize,
    stride: usize,
}

impl Strided<'_> {
    fn get(&self, t: usize) -> Complex {
        self.data[self.offset + t * self.stride]
    }

    /// The sub-view selecting every `c`-th element starting at element `j` of this view.
    fn class(self, j: usize, c: usize) -> Self {
        Strided { data: self.data, offset: self.offset + j * self.stride, stride: self.stride * c }
    }
}

/// Native fork-join FFT on the `rws-runtime` work-stealing pool — the same √n decomposition
/// as [`fft_computation`]'s dag, executed for real.
///
/// With `m = r·c` (`r ≥ c`, both powers of two, as in the dag builder), one recursion level
/// runs three sequenced parallel collections over a per-call scratch array:
///
/// 1. **`c` column FFTs of size `r`** — residue class `j₁` of the input (elements
///    `x[j₁ + c·j₂]`) transforms into scratch row `j₁`;
/// 2. **the twiddle pass** — scratch entry `(j₁, k₂)` is scaled by `ω_m^{j₁·k₂}`;
/// 3. **`r` row FFTs of size `c`** — strided row `k₂` of the scratch transforms into a
///    second scratch, and a final parallel pass writes `X[k₂ + r·k₁]` into the destination
///    in natural order.
///
/// Every parallel branch borrows a disjoint `&mut` chunk of the scratch (via
/// [`par_chunks_mut`]); the recursion bottoms out at `base` with an iterative radix-2 leaf,
/// mirroring the dag's base case. All twiddle factors — the per-level scaling pass and the
/// leaves' butterfly factors alike — come from one precomputed full-circle table
/// (`twiddle_table`) built once per top-level call, replacing per-element trig in the hot
/// passes. Call from inside [`rws_runtime::ThreadPool::install`] for parallel execution;
/// outside a pool worker the joins degrade to sequential calls.
pub fn fft_native(input: &[Complex], base: usize) -> Vec<Complex> {
    assert!(input.len().is_power_of_two(), "fft length must be a power of two");
    assert!(base.is_power_of_two() && base >= 1, "fft base case must be a power of two");
    let tw = twiddle_table(input.len());
    let mut out = vec![(0.0, 0.0); input.len()];
    fft_rec(Strided { data: input, offset: 0, stride: 1 }, input.len(), &mut out, base, &tw);
    out
}

/// Transform the `m`-element sequence viewed by `src` into `dst` (natural DFT order). `tw`
/// is the top-level call's full-circle twiddle table ([`twiddle_table`]); `m` always
/// divides `tw.len()`.
fn fft_rec(src: Strided<'_>, m: usize, dst: &mut [Complex], base: usize, tw: &[Complex]) {
    debug_assert_eq!(dst.len(), m);
    debug_assert!(tw.len().is_multiple_of(m));
    // m = 2 must be a leaf regardless of `base`: its split is r = 2, c = 1, whose "column
    // FFT" would be this very problem again.
    if m <= base.max(2) {
        for (t, d) in dst.iter_mut().enumerate() {
            *d = src.get(t);
        }
        fft_base_tw(dst, tw);
        return;
    }
    // Split m = r * c with r >= c, both powers of two (the dag builder's split).
    let log_m = m.trailing_zeros();
    let r = 1usize << log_m.div_ceil(2);
    let c = m / r;

    // Collection 1: c column FFTs of size r, one per residue class mod c, each writing a
    // contiguous scratch row.
    let mut scratch = vec![(0.0, 0.0); m];
    par_chunks_mut(&mut scratch, r, &|j1, row: &mut [Complex]| {
        fft_rec(src.class(j1, c), r, row, base, tw);
    });

    // Twiddle pass: scratch[j1 * r + k2] *= ω_m^{j1·k2}, read from the table as
    // tw[j1·k2 · tw.len()/m]. The index never wraps: j1 < c and k2 < r, so
    // j1·k2 ≤ (c-1)(r-1) < m and the scaled index stays below tw.len().
    let step = tw.len() / m;
    par_chunks_mut(&mut scratch, r, &|j1, row: &mut [Complex]| {
        for (k2, v) in row.iter_mut().enumerate() {
            *v = c_mul(*v, tw[j1 * k2 * step]);
        }
    });

    // Collection 2: r row FFTs of size c reading strided scratch rows; row k2 produces
    // X[k2 + r·k1] for k1 in 0..c, written contiguously into a second scratch.
    let scratch = scratch; // froze: stage 3 only reads it
    let mut rows = vec![(0.0, 0.0); m];
    par_chunks_mut(&mut rows, c, &|k2, row: &mut [Complex]| {
        fft_rec(Strided { data: &scratch, offset: k2, stride: r }, c, row, base, tw);
    });

    // Final pass: transpose the (r × c) result back into natural order, parallel over
    // disjoint destination chunks.
    let rows = rows;
    par_chunks_mut(dst, r, &|chunk_idx, part: &mut [Complex]| {
        for (off, d) in part.iter_mut().enumerate() {
            let k = chunk_idx * r + off;
            *d = rows[(k % r) * c + k / r];
        }
    });
}

/// Naive O(n²) DFT used to validate the FFT reference.
pub fn dft_reference(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = (0.0, 0.0);
            for (j, &x) in input.iter().enumerate() {
                let angle = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = c_add(acc, c_mul(x, (angle.cos(), angle.sin())));
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn fft_matches_dft() {
        let mut rng = SmallRng::seed_from_u64(5);
        for n in [1usize, 2, 4, 8, 32] {
            let input: Vec<Complex> =
                (0..n).map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
            let fast = fft_reference(&input);
            let slow = dft_reference(&input);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a.0 - b.0).abs() < 1e-6 && (a.1 - b.1).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn native_kernel_matches_the_references_outside_a_pool() {
        // Outside a pool worker the joins run sequentially; correctness is identical.
        let mut rng = SmallRng::seed_from_u64(17);
        for n in [1usize, 2, 4, 8, 16, 64, 256, 1024] {
            let input: Vec<Complex> =
                (0..n).map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
            for base in [1usize, 4, 16] {
                let fast = fft_native(&input, base);
                let oracle = fft_reference(&input);
                for (a, b) in fast.iter().zip(&oracle) {
                    assert!(
                        (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9,
                        "n = {n}, base = {base}: {a:?} != {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn native_kernel_of_impulse_is_constant() {
        let mut input = vec![(0.0, 0.0); 64];
        input[0] = (1.0, 0.0);
        for v in fft_native(&input, 4) {
            assert!((v.0 - 1.0).abs() < 1e-9 && v.1.abs() < 1e-9);
        }
    }

    #[test]
    fn table_driven_base_case_matches_the_trig_recurrence() {
        let mut rng = SmallRng::seed_from_u64(29);
        for n in [1usize, 2, 8, 32] {
            let input: Vec<Complex> =
                (0..n).map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
            // A table four times larger than the transform exercises the stride scaling.
            for table_n in [n, 4 * n] {
                let tw = twiddle_table(table_n);
                let mut a = input.clone();
                fft_base_tw(&mut a, &tw);
                let mut b = input.clone();
                fft_in_place(&mut b);
                for (x, y) in a.iter().zip(&b) {
                    assert!(
                        (x.0 - y.0).abs() < 1e-9 && (x.1 - y.1).abs() < 1e-9,
                        "n = {n}, table {table_n}: {x:?} != {y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fft_of_impulse_is_constant() {
        let mut input = vec![(0.0, 0.0); 16];
        input[0] = (1.0, 0.0);
        for v in fft_reference(&input) {
            assert!((v.0 - 1.0).abs() < 1e-9 && v.1.abs() < 1e-9);
        }
    }

    #[test]
    fn dag_structure() {
        let comp = fft_computation(&FftConfig { n: 256, base: 16 });
        assert!(comp.check_properties().is_empty());
        assert!(comp.meta.class.is_hbp());
        // Each output word written once; the intermediate lives on stack segments.
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        assert_eq!(comp.dag.global_footprint_words(), 2 * 256);
    }

    #[test]
    fn work_is_n_log_n_like_and_span_small() {
        let w256 = fft_computation(&FftConfig { n: 256, base: 16 }).dag.work();
        let w4096 = fft_computation(&FftConfig { n: 4096, base: 16 }).dag.work();
        let ratio = w4096 as f64 / w256 as f64;
        assert!(ratio > 12.0 && ratio < 40.0, "16x input => 16-32x work for n log n, got {ratio}");
        let s256 = fft_computation(&FftConfig { n: 256, base: 16 }).dag.span_nodes();
        let s4096 = fft_computation(&FftConfig { n: 4096, base: 16 }).dag.span_nodes();
        assert!(s4096 < 8 * s256, "span grows polylogarithmically: {s256} -> {s4096}");
    }
}
