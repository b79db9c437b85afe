//! The timing loop shared by the `harness = false` benches.

use std::time::{Duration, Instant};

/// Timed samples per configuration, taken after one untimed warm-up call.
const SAMPLES: usize = 10;

/// Call `f` once to warm up, then [`SAMPLES`] times under a wall clock, and print the
/// median and min sample for `label`.
pub fn measure(label: &str, mut f: impl FnMut()) {
    f();
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort();
    println!("{label:<36} median {:>10.3?}  min {:>10.3?}", times[SAMPLES / 2], times[0]);
}
