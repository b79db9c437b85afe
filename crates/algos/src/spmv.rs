//! Sparse matrix–vector multiply over a CSR matrix.
//!
//! Irregular data (seeded random sparsity pattern), regular *structure*: one balanced
//! parallel pass over the output rows, every `y` word written exactly once — a textbook BP
//! computation, so unlike its `bfs`/`sample-sort` siblings this workload keeps the paper's
//! steal / block-miss / runtime bound checks in the lab (`bp_steals` applies to the
//! balanced fork tree the builder emits).
//!
//! [`spmv_native`] fork-joins over disjoint row chunks with each row's dot product
//! accumulated sequentially in index order — bit-identical floating-point results to
//! [`spmv_reference`] on every schedule, which is what lets the f64 parity assertions stay
//! exact rather than tolerance-based.

use crate::common::par_chunks_mut;
use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, SpDagBuilder, WorkUnit};

/// A sparse matrix in compressed-sparse-row form.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    /// Number of columns (the length `x` must have).
    pub ncols: usize,
    /// `row_starts[r]..row_starts[r + 1]` indexes `cols`/`vals` with row `r`'s entries.
    pub row_starts: Vec<usize>,
    /// Column index of each stored entry.
    pub cols: Vec<usize>,
    /// Value of each stored entry.
    pub vals: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.row_starts.len().saturating_sub(1)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// A seeded random square `n × n` matrix with one guaranteed diagonal entry per row
    /// plus up to `extra_per_row` random off-diagonal entries, values in `(-1, 1)`.
    /// Deterministic in `seed`.
    pub fn random(seed: u64, n: usize, extra_per_row: usize) -> CsrMatrix {
        assert!(n > 0, "a matrix needs at least one row");
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut row_starts = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_starts.push(0);
        for r in 0..n {
            let mut row_cols = vec![r];
            for _ in 0..(next() as usize) % (extra_per_row + 1) {
                row_cols.push(next() as usize % n);
            }
            row_cols.sort_unstable();
            row_cols.dedup();
            for c in row_cols {
                cols.push(c);
                // Map a 53-bit draw into (-1, 1).
                vals.push((next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0);
            }
            row_starts.push(cols.len());
        }
        CsrMatrix { ncols: n, row_starts, cols, vals }
    }
}

/// Sequential CSR SpMV: `y[r] = Σ vals[k] · x[cols[k]]` over row `r`'s entries, accumulated
/// in storage order.
pub fn spmv_reference(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), m.ncols, "x must have one entry per matrix column");
    (0..m.nrows())
        .map(|r| {
            let mut acc = 0.0;
            for k in m.row_starts[r]..m.row_starts[r + 1] {
                acc += m.vals[k] * x[m.cols[k]];
            }
            acc
        })
        .collect()
}

/// Output rows per fork-join leaf of the native kernel.
const NATIVE_CHUNK: usize = 64;

/// Native CSR SpMV on the `rws-runtime` pool: fork-join over disjoint chunks of `y`, each
/// row's dot product accumulated sequentially in storage order — bit-identical to
/// [`spmv_reference`] on every schedule.
pub fn spmv_native(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), m.ncols, "x must have one entry per matrix column");
    let mut y = vec![0.0f64; m.nrows()];
    par_chunks_mut(&mut y, NATIVE_CHUNK, &|chunk_idx, part: &mut [f64]| {
        let lo = chunk_idx * NATIVE_CHUNK;
        for (off, out) in part.iter_mut().enumerate() {
            let r = lo + off;
            let mut acc = 0.0;
            for k in m.row_starts[r]..m.row_starts[r + 1] {
                acc += m.vals[k] * x[m.cols[k]];
            }
            *out = acc;
        }
    });
    y
}

/// Configuration for the SpMV computation builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpmvConfig {
    /// Output rows per dag leaf.
    pub chunk: usize,
}

impl SpmvConfig {
    /// Default leaf granularity.
    pub fn new() -> Self {
        SpmvConfig { chunk: 8 }
    }
}

impl Default for SpmvConfig {
    fn default() -> Self {
        SpmvConfig::new()
    }
}

/// Build the SpMV computation: one balanced parallel pass over row chunks.
///
/// Memory layout: the entry arrays (`cols`/`vals`, modeled as one word per entry) occupy
/// words `0..nnz`, `x` the next `ncols` words, `y` the `nrows` words after that. Each leaf
/// reads its rows' entry words and the `x` words those entries touch, and writes its `y`
/// words once — a limited-access BP computation.
pub fn spmv_computation(m: &CsrMatrix, cfg: &SpmvConfig) -> Computation {
    let n = m.nrows();
    let nnz = m.nnz() as u64;
    let x_base = nnz;
    let y_base = nnz + m.ncols as u64;
    let mut b = SpDagBuilder::new();
    let rows: Vec<usize> = (0..n).collect();
    let leaves: Vec<NodeId> = rows
        .chunks(cfg.chunk.max(1))
        .map(|chunk| {
            let mut unit = WorkUnit::empty();
            let mut ops = 0u64;
            for &r in chunk {
                let lo = m.row_starts[r] as u64;
                let hi = m.row_starts[r + 1] as u64;
                ops += 1 + 2 * (hi - lo);
                unit = unit.reads((lo..hi).map(Addr));
                unit = unit.reads(
                    (m.row_starts[r]..m.row_starts[r + 1]).map(|k| Addr(x_base + m.cols[k] as u64)),
                );
                unit = unit.write(Addr(y_base + r as u64));
            }
            b.leaf(unit.with_ops(ops))
        })
        .collect();
    let root = BalancedTreeBuilder::new(&mut b, 2).combine(
        &leaves,
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    );
    let dag = b.build(root).expect("spmv dag must validate");
    let meta = AlgoMeta::bp("spmv", n as u64).with_base_case(cfg.chunk as u64);
    Computation::new(dag, meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_on_an_identity_matrix() {
        // Diagonal-only rows: seed draws no extras when extra_per_row = 0, so the matrix is
        // diagonal and y is the diagonal scaling of x.
        let m = CsrMatrix::random(3, 4, 0);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = spmv_reference(&m, &x);
        for (r, &yr) in y.iter().enumerate() {
            assert_eq!(yr, m.vals[r] * x[r]);
        }
    }

    #[test]
    fn random_matrix_is_deterministic() {
        assert_eq!(CsrMatrix::random(11, 64, 6), CsrMatrix::random(11, 64, 6));
        let a = CsrMatrix::random(11, 64, 6);
        let b = CsrMatrix::random(12, 64, 6);
        assert!(a != b, "different seeds draw different matrices");
    }

    #[test]
    fn native_is_bit_identical_to_the_reference_outside_a_pool() {
        for (seed, n) in [(5u64, 1usize), (5, 63), (9, 500)] {
            let m = CsrMatrix::random(seed, n, 7);
            let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            assert_eq!(spmv_native(&m, &x), spmv_reference(&m, &x), "seed {seed}, n {n}");
        }
    }

    #[test]
    fn spmv_dag_is_a_single_limited_access_bp_pass() {
        let m = CsrMatrix::random(7, 64, 5);
        let comp = spmv_computation(&m, &SpmvConfig::new());
        assert!(comp.check_properties().is_empty(), "{:?}", comp.check_properties());
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        assert_eq!(comp.dag.leaf_count(), 8, "64 rows / 8 per leaf");
        assert!(comp.meta.class.is_hbp(), "a balanced single pass is BP");
    }
}
