//! Bench: the grain sweep behind `par_iter`'s `MIN_SEQ_ELEMENTS = 64` floor.
//!
//! A cheap per-element `map_reduce` (one multiply-add per element) is the worst case for
//! scheduling overhead: at grain 1 every element is its own fork, so the runtime's
//! per-job cost dominates the arithmetic outright. The sweep runs the same reduction at
//! explicit grains bracketing the floor, plus the adaptive default, so the floor's value
//! is pinned to the measured knee of the curve — below ~64 elements a leaf costs less
//! than the fork that schedules it.
//!
//! Run with `cargo bench -p rws-bench --bench grain_calibration`; each grain prints the
//! median and min of 10 timed reductions after one warm-up.

mod support;

use rws_runtime::{ParSliceExt, ThreadPool};

const LEN: usize = 1 << 16;

fn main() {
    // `install` requires a 'static closure; leak the input once for the process lifetime.
    let data: &'static [u64] = Vec::leak((0..LEN as u64).collect());
    let expected: u64 = data.iter().map(|&x| x * 3 + 1).sum();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 8));
    let pool = ThreadPool::new(threads);

    for grain in [1usize, 4, 16, 64, 256, 1024] {
        support::measure(&format!("grain_calibration/{grain}"), || {
            let got = pool.install(move || {
                data.par_iter().with_grain(grain).map_reduce(|&x| x * 3 + 1, |a, b| a + b, 0)
            });
            assert_eq!(got, expected);
        });
    }
    // The adaptive default (no explicit grain): `adaptive_grain` with the floor applied.
    support::measure("grain_calibration/adaptive-floor-64", || {
        let got = pool.install(|| data.par_iter().map_reduce(|&x| x * 3 + 1, |a, b| a + b, 0));
        assert_eq!(got, expected);
    });
}
