//! # rws-bench
//!
//! The native hot-path benchmark behind the `native_bench` binary and its committed
//! baseline `BENCH_native.json` ([`native_bench`]). The crate also hosts the workspace's
//! cross-crate targets: the repo-level `tests/` (simulator end-to-end, sim-vs-native
//! parity, property and stress suites), `examples/`, and the two `cargo bench` sweeps
//! (`sleep_backoff`, `grain_calibration`) that pin the runtime's backoff and grain
//! constants. The paper's bounds are checked as verdicts by the `rws-lab` scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod native_bench;
