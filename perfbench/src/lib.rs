//! # perfbench
//!
//! The repository's benchmark: one command that runs a named workload against the
//! public API of the workspace crates, checks every output, and prints every metric by
//! name with its unit. See `perfbench/README.md` for the workloads, the metrics and how
//! to run it.

#![forbid(unsafe_code)]

pub mod common;
pub mod host;
pub mod native;
pub mod service;
pub mod sharded;
pub mod sim;
pub mod spans;

pub use common::{Measured, RunCtx};

/// The workloads, by the names `--workload` accepts.
pub const WORKLOADS: [&str; 4] =
    ["sim-sweep", "native-forkjoin", "service-openloop", "sharded-batch"];

/// Run workload `name` under `ctx`; `None` for an unknown name.
pub fn run_workload(name: &str, ctx: &RunCtx) -> Option<Measured> {
    let mut m = match name {
        "sim-sweep" => sim::run(ctx, sim::SimSizes::STANDARD),
        "native-forkjoin" => native::run(ctx, native::NativeSizes::STANDARD),
        "service-openloop" => service::run(ctx, service::JobMix::STANDARD),
        "sharded-batch" => sharded::run(ctx, sharded::ShardSizes::STANDARD),
        _ => return None,
    };
    m.finish_common();
    m.set("peak_rss_mb", common::peak_rss_mb());
    Some(m)
}
