//! The native hot-path benchmark behind the `native_bench` binary and `BENCH_native.json`.
//!
//! [`suite`] defines the workloads, measures them (fork-join and DAG kernels on the
//! Chase–Lev pool across a thread sweep, the job-server rows, the flight-recorder overhead
//! row, the multi-process sharded rows) and renders the `rws-bench-native/v3` document.
//!
//! [`gate`] enforces the committed baseline. [`gate::gate_against`] checks a run's structure
//! and its deterministic counters exactly — the t=1 `jobs`, `allocs`, `steals`,
//! `batch_steals` and `steal_retries` the paper's model charges for — and reads no wall.
//! [`gate::ab_against`] gates the walls instead: it runs a base build and this one
//! alternately on the same host and fails a wall only when this build is consistently and
//! clearly slower.

pub mod gate;
pub mod suite;

#[cfg(test)]
mod tests;
