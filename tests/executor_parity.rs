//! Sim-vs-native parity through the `Executor` trait: the same workload run on the
//! discrete-event simulator and on the real work-stealing pool must produce identical
//! outputs, on native pools of even and odd width. This is the acceptance check for the
//! executor unification — the native fork-join decompositions implement exactly the
//! function the simulated dags model.
//!
//! Since every workload now ships a real fork-join kernel (no `SequentialFallback`
//! remains in the committed suite), the centerpiece is a **seeded matrix**: all ten
//! workloads — the six original kernels plus the DAG-structured family (task-graph
//! workflow, BFS, SpMV, sample sort) — × {1, 2, 4} worker threads
//! × three input seeds × two instance sizes, with every native report required to have
//! its `sequential_fallback` honesty flag clear.
//!
//! Since the multi-process sharded executor landed, the shardable workloads (matmul,
//! SpMV) carry a **third backend column**: the same demo instance partitioned across
//! worker subprocesses at two shard counts must reproduce the reference output
//! bit-exactly as well.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use rws_algos::bfs::CsrGraph;
use rws_algos::matmul::{MatMulConfig, MmVariant};
use rws_algos::spmv::CsrMatrix;
use rws_algos::taskgraph::layered_random;
use rws_exec::workloads::{
    BfsWorkload, DagWorkflowWorkload, FftWorkload, ListRankWorkload, MatMulWorkload,
    PrefixWorkload, SampleSortWorkload, SortWorkload, SpmvWorkload, TransposeWorkload,
};
use rws_exec::{Backend, Executor, NativeExecutor, SharedWorkload, SimExecutor};
use rws_shard::ShardedExecutor;
use std::sync::Arc;

mod support;
use support::random_permutation_list;

fn executors() -> Vec<Box<dyn Executor>> {
    vec![
        Box::new(SimExecutor::with_procs(4)),
        Box::new(NativeExecutor::new(4)),
        Box::new(NativeExecutor::new(3)),
    ]
}

/// The executor column for one workload: sim + native pools of 4 and 3 workers always, and —
/// for the workloads that declare a shard partition — the multi-process sharded executor
/// at two shard counts, so parity covers all three backends wherever all three apply.
/// (Sharded runs need the `shard-worker` binary; a workspace-level `cargo test` builds it,
/// a bare `cargo test -p rws-bench` needs `cargo build --bins -p rws-shard` first.)
fn executors_for(workload: &SharedWorkload) -> Vec<Box<dyn Executor>> {
    let mut execs = executors();
    if workload.shard_spec().is_some() {
        execs.push(Box::new(ShardedExecutor::new(2)));
        execs.push(Box::new(ShardedExecutor::new(3).threads_per_shard(2)));
    }
    execs
}

fn assert_parity(workload: SharedWorkload) {
    let reference = workload.run_reference();
    for exec in executors_for(&workload) {
        let outcome = exec.execute(Arc::clone(&workload));
        // The real output check is on the native legs: the simulated backend reports the
        // reference output by design (the simulator executes addresses, not values), so its
        // output comparison is an API invariant, not evidence.
        assert_eq!(
            outcome.output,
            reference,
            "{} must match the reference on {}",
            exec.name(),
            workload.name()
        );
        assert_eq!(outcome.report.workload, workload.name());
        assert_eq!(outcome.report.backend, exec.backend());
        // Backend honesty: no committed workload is a sequential stub, so no run — on any
        // backend — may carry the fallback stamp.
        assert!(
            !outcome.report.sequential_fallback,
            "{} stamped {} as a sequential fallback (native_support = {})",
            exec.name(),
            workload.name(),
            workload.native_support().label()
        );
        // The substantive sim-leg check: the scheduler really executed the workload's dag,
        // conserving its work.
        if let Some(sim) = &outcome.report.sim {
            assert_eq!(
                sim.work_executed,
                workload.computation().dag.work(),
                "{} must conserve the dag's work on {}",
                exec.name(),
                workload.name()
            );
        }
    }
}

// ------------------------------------------------------------------------------------------
// The seeded matrix
// ------------------------------------------------------------------------------------------

/// One seeded instance of all ten workloads at one of two sizes (`large = false / true`).
fn seeded_workloads(seed: u64, large: bool) -> Vec<SharedWorkload> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (prefix_n, mm_n, sort_n, fft_n, tr_n, lr_n) = if large {
        (2048usize, 16usize, 1024usize, 256usize, 16usize, 512usize)
    } else {
        (256, 8, 128, 64, 8, 64)
    };
    // The DAG-structured family: a layered random task graph, a random sparse graph
    // (BFS), a random sparse matrix (SpMV), and a skewed key set (sample sort).
    let (dag_layers, dag_width, graph_n, ss_n) =
        if large { (6usize, 24usize, 512usize, 1024usize) } else { (4, 8, 64, 128) };
    let prefix: Vec<i64> = (0..prefix_n).map(|_| rng.gen_range(-1000i64..1001)).collect();
    let mm_a: Vec<f64> = (0..mm_n * mm_n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mm_b: Vec<f64> = (0..mm_n * mm_n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let keys: Vec<u64> = (0..sort_n).map(|_| rng.gen_range(0u64..1_000_000)).collect();
    let fft_in: Vec<(f64, f64)> =
        (0..fft_n).map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
    let tr: Vec<f64> = (0..tr_n * tr_n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let succ = random_permutation_list(lr_n, &mut rng);
    let x: Vec<f64> = (0..graph_n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let ss_keys: Vec<u64> = (0..ss_n).map(|_| rng.gen_range(0u64..1_000_000)).collect();
    vec![
        Arc::new(PrefixWorkload::new(prefix, 8)),
        Arc::new(MatMulWorkload::new(
            mm_a,
            mm_b,
            MatMulConfig::new(mm_n, MmVariant::DepthLog2N).with_base(mm_n / 4),
        )),
        Arc::new(SortWorkload::new(keys, 16)),
        Arc::new(FftWorkload::new(fft_in)),
        Arc::new(TransposeWorkload::new(tr, tr_n, tr_n / 4)),
        Arc::new(ListRankWorkload::new(succ)),
        Arc::new(DagWorkflowWorkload::new(layered_random(seed, dag_layers, dag_width), 4)),
        Arc::new(BfsWorkload::new(CsrGraph::random(seed ^ 0xBF5, graph_n, 4), 0)),
        Arc::new(SpmvWorkload::new(CsrMatrix::random(seed ^ 0x59A2, graph_n, 7), x)),
        Arc::new(SampleSortWorkload::new(ss_keys, (ss_n as f64).sqrt() as usize)),
    ]
}

/// Every workload × {1, 2, 4} threads × 3 input seeds × 2 sizes:
/// output parity against the sequential reference on every native run, and no
/// `sequential_fallback` stamp anywhere in the live suite.
#[test]
fn seeded_matrix_every_workload_on_every_pool_shape() {
    let pools: Vec<NativeExecutor> = [1usize, 2, 4].into_iter().map(NativeExecutor::new).collect();
    assert_eq!(pools.len(), 3);
    for seed in [101u64, 202, 303] {
        for large in [false, true] {
            for workload in seeded_workloads(seed, large) {
                assert!(
                    !workload.native_support().is_fallback(),
                    "{} must not be a sequential stub",
                    workload.name()
                );
                let reference = workload.run_reference();
                for exec in &pools {
                    let outcome = exec.execute(Arc::clone(&workload));
                    assert_eq!(
                        outcome.output,
                        reference,
                        "{} / seed {seed} / large {large}: {} diverged from the reference",
                        exec.name(),
                        workload.name()
                    );
                    assert!(
                        !outcome.report.sequential_fallback,
                        "{} stamped {} as a sequential fallback",
                        exec.name(),
                        workload.name()
                    );
                    assert_eq!(outcome.report.backend, Backend::Native);
                    assert!(outcome.report.work_items > 0, "the run executed on the pool");
                }
            }
        }
    }
}

// ------------------------------------------------------------------------------------------
// Targeted per-workload parity (sim + native, with sim work conservation)
// ------------------------------------------------------------------------------------------

#[test]
fn prefix_sums_agree_across_all_executors() {
    assert_parity(Arc::new(PrefixWorkload::demo(8192)));
}

#[test]
fn matmul_agrees_across_all_executors() {
    assert_parity(Arc::new(MatMulWorkload::demo(16, 4)));
}

#[test]
fn sort_agrees_across_all_executors() {
    assert_parity(Arc::new(SortWorkload::demo(4096)));
}

#[test]
fn fft_agrees_across_all_executors() {
    assert_parity(Arc::new(FftWorkload::demo(256)));
}

#[test]
fn transpose_agrees_across_all_executors() {
    assert_parity(Arc::new(TransposeWorkload::demo(16, 4)));
}

#[test]
fn list_ranking_agrees_across_all_executors() {
    assert_parity(Arc::new(ListRankWorkload::demo(256)));
}

#[test]
fn dag_workflow_agrees_across_all_executors() {
    assert_parity(Arc::new(DagWorkflowWorkload::demo(128)));
}

#[test]
fn bfs_agrees_across_all_executors() {
    assert_parity(Arc::new(BfsWorkload::demo(256)));
}

#[test]
fn spmv_agrees_across_all_executors() {
    assert_parity(Arc::new(SpmvWorkload::demo(256)));
}

#[test]
fn sample_sort_agrees_across_all_executors() {
    assert_parity(Arc::new(SampleSortWorkload::demo(512)));
}

// ------------------------------------------------------------------------------------------
// The sharded third column
// ------------------------------------------------------------------------------------------

/// Both shardable workloads × {2, 3} shard counts × repeated runs: the multi-process
/// executor must reproduce the in-process reference output bit-exactly every time, with a
/// clean fault ledger (nothing redistributed, nothing dead) and one accepted result per
/// part. Repetition stands in for seeds here — sharded inputs are rebuilt by spec, so the
/// input is fixed and what varies across runs is subprocess/pipe scheduling.
#[test]
fn sharded_column_matches_the_reference_on_every_shardable_workload() {
    let workloads: Vec<SharedWorkload> =
        vec![Arc::new(MatMulWorkload::demo(16, 4)), Arc::new(SpmvWorkload::demo(256))];
    for workload in workloads {
        assert!(workload.shard_spec().is_some(), "{} must be shardable", workload.name());
        let reference = workload.run_reference();
        for shards in [2usize, 3] {
            for rep in 0..2 {
                let exec = ShardedExecutor::new(shards);
                let outcome = exec.execute(Arc::clone(&workload));
                assert_eq!(
                    outcome.output,
                    reference,
                    "{} / {} shards / rep {rep}: sharded output diverged from the reference",
                    workload.name(),
                    shards
                );
                assert_eq!(outcome.report.backend, Backend::Sharded);
                assert!(!outcome.report.sequential_fallback);
                let detail = outcome.report.shard.expect("sharded runs carry shard detail");
                assert_eq!(detail.shards, shards);
                assert_eq!(detail.jobs_accepted, detail.parts as u64);
                assert_eq!(detail.redistributed, 0);
                assert_eq!(detail.shard_deaths, 0);
                assert_eq!(
                    detail.jobs_per_shard.iter().sum::<u64>(),
                    detail.jobs_accepted,
                    "the per-shard fingerprint must sum to the accepted total"
                );
            }
        }
    }
}

#[test]
fn native_execution_actually_parallelizes_and_steals() {
    // A large-enough matmul forces real fork-join distribution: the pool must run many jobs
    // and record steals. On a starved single-vCPU host one run can occasionally complete on
    // the installed worker alone before any other thread is scheduled, so allow a few
    // attempts before declaring the deques were never shared.
    let exec = NativeExecutor::new(4);
    let mut last = None;
    for _ in 0..5 {
        let outcome = exec.execute(Arc::new(MatMulWorkload::demo(64, 8)));
        assert!(
            outcome.report.work_items > 50,
            "expected many pool jobs, got {}",
            outcome.report.work_items
        );
        assert_eq!(outcome.report.backend, Backend::Native);
        let steals = outcome.report.steals;
        last = Some(outcome);
        if steals > 0 {
            break;
        }
    }
    let outcome = last.expect("at least one run");
    assert!(outcome.report.steals > 0, "expected steals on a 4-worker pool within 5 runs");
}

#[test]
fn retired_stub_workloads_fork_real_jobs_natively() {
    // The three workloads that used to run their sequential reference natively now push
    // real fork-join work through the pool: many executed branches per run, no fallback
    // stamp. (Steal counts are probabilistic on a starved 1-CPU host; job counts are not.)
    let exec = NativeExecutor::new(4);
    for (workload, min_jobs) in [
        (Arc::new(FftWorkload::demo(1024)) as SharedWorkload, 30u64),
        (Arc::new(TransposeWorkload::demo(32, 4)), 30),
        (Arc::new(ListRankWorkload::demo(4096)), 30),
    ] {
        let outcome = exec.execute(Arc::clone(&workload));
        assert!(
            outcome.report.work_items > min_jobs,
            "{} executed only {} pool jobs",
            workload.name(),
            outcome.report.work_items
        );
        assert!(!outcome.report.sequential_fallback, "{}", workload.name());
        assert_eq!(outcome.output, workload.run_reference(), "{}", workload.name());
    }
}

#[test]
fn sim_and_native_reports_share_one_schema() {
    let workload: SharedWorkload = Arc::new(PrefixWorkload::demo(4096));
    let sim = SimExecutor::with_procs(8).execute(Arc::clone(&workload));
    let native = NativeExecutor::new(2).execute(workload);
    // The normalized fields are populated on both sides…
    assert!(sim.report.steals > 0);
    assert!(sim.report.work_items > 0);
    assert!(sim.report.time_units > 0);
    assert!(native.report.work_items > 0);
    assert!(native.report.time_units > 0);
    assert_eq!(sim.report.procs, 8);
    assert_eq!(native.report.procs, 2);
    // …including the flat memory-system counters, populated where the backend measures them
    // (the simulator) and zero where it cannot (no native cache instrumentation)…
    assert!(sim.report.cache_misses > 0);
    let sim_detail = sim.report.sim.as_ref().expect("sim detail preserved");
    assert_eq!(sim.report.cache_misses, sim_detail.cache_misses());
    assert_eq!(sim.report.block_misses, sim_detail.block_misses());
    assert_eq!(sim.report.false_sharing_misses, sim_detail.false_sharing_misses());
    assert_eq!(native.report.cache_misses, 0);
    assert_eq!(native.report.block_misses, 0);
    // …and backend-specific detail only where it exists.
    assert!(sim.report.sim.is_some());
    assert!(native.report.sim.is_none());
    assert_eq!(sim.report.backend.time_unit(), "ticks");
    assert_eq!(native.report.backend.time_unit(), "ns");
}
