//! The benchmark's self-test: a wrong output must count as a failure, never as a fast
//! run, and a delay in one layer call must land in that layer's self time, not in the
//! ledger's residual. Runs each workload on tiny inputs for a single closed-loop round.

use perfbench::native::{self, NativeSizes};
use perfbench::sharded::{self, ShardSizes};
use perfbench::sim::{self, SimSizes};
use perfbench::spans::Tracer;
use perfbench::{Measured, RunCtx};
use std::time::Duration;

const SIM: SimSizes = SimSizes { seeds: 1, ..SimSizes::STANDARD };
const NATIVE: NativeSizes = NativeSizes {
    matmul_n: 16,
    transpose_n: 16,
    dag_nodes: 64,
    sort_n: 1024,
    samplesort_n: 1024,
    spmv_n: 256,
};
const SHARDS: ShardSizes = ShardSizes { matmul_n: 8, spmv_n: 64 };

fn ctx(corrupt: bool, tracer: Tracer) -> RunCtx {
    let mut ctx = RunCtx::new(7, Duration::ZERO, false);
    ctx.tracer = tracer;
    ctx.corrupt = corrupt;
    ctx.setups = 1;
    ctx
}

fn fail_frac(mut m: Measured) -> f64 {
    m.finish_common();
    assert!(m.attempted > 0, "every run attempts at least one operation");
    m.metrics["fail_frac"]
}

#[test]
fn correct_outputs_count_no_failures() {
    assert_eq!(fail_frac(sim::run(&ctx(false, Tracer::off()), SIM)), 0.0);
    assert_eq!(fail_frac(native::run(&ctx(false, Tracer::off()), NATIVE)), 0.0);
}

#[test]
fn a_corrupted_output_raises_fail_frac() {
    assert!(fail_frac(sim::run(&ctx(true, Tracer::off()), SIM)) > 0.0);
    assert!(fail_frac(native::run(&ctx(true, Tracer::off()), NATIVE)) > 0.0);
}

#[test]
fn sharded_outputs_are_checked() {
    assert_eq!(fail_frac(sharded::run(&ctx(false, Tracer::off()), SHARDS)), 0.0);
    assert!(fail_frac(sharded::run(&ctx(true, Tracer::off()), SHARDS)) > 0.0);
}

#[test]
fn an_injected_delay_shows_in_its_layer_and_not_in_the_residual() {
    let delay = Duration::from_millis(20);
    let plain = sim::run(&ctx(false, Tracer::on()), SIM);
    let slowed = sim::run(&ctx(false, Tracer::on().with_delay("analysis.checks", delay)), SIM);
    // Each pass evaluates the checks of every scenario in the set.
    let scenarios = sim::scenario_texts(7, SIM).len() as f64;
    let added = slowed.metrics["lab.checks_ms"] - plain.metrics["lab.checks_ms"];
    assert!(
        added >= 0.9 * scenarios * 20.0,
        "the delay must land in the layer's self time (added {added:.3} ms per op)"
    );
    let residual = slowed.metrics["sim-sweep.residual_frac"];
    assert!(residual < 0.05, "the delay must not land in the residual ({residual:.4})");
}
