//! Scheduler stress through DAG-structured workloads: the shapes that exercise the idle
//! path hardest. A deep chain keeps at most one node runnable, so every other worker
//! cycles through spin → park; a skewed fan-out (one node releasing a wide burst) then
//! demands a prompt wake of the whole parked pool. These tests pin the behaviours the
//! fork-join kernels (balanced trees, mostly-full frontiers) never stress:
//!
//! * correctness of the atomic-indegree task-graph runner on chain/burst shapes across
//!   pool widths;
//! * panic containment: a failing node unwinds out of `TaskGraph::run` without wedging
//!   or poisoning the pool;
//! * the satellite idle-path claim — steady-state DAG runs are driven by notifications,
//!   not by the 1ms park-backstop timer (`PoolStats::total_backstop_wakes` stays flat).

use rws_algos::taskgraph::{layered_random, workflow_native, workflow_reference, TaskGraph};
use rws_runtime::{InstallError, ThreadPoolBuilder};
use std::sync::Arc;

/// A spine of `spine` sequential nodes where every `every`-th spine node releases a burst
/// of `width` parallel nodes that all converge into the next spine node — a deep critical
/// path punctuated by skewed fan-outs (the "one heavy frontier" shape).
fn spine_with_bursts(spine: usize, every: usize, width: usize) -> TaskGraph {
    assert!(spine >= 2);
    let bursts = (0..spine - 1).filter(|i| i % every == 0).count();
    let mut g = TaskGraph::new(spine + bursts * width);
    let mut next_burst = spine;
    for i in 0..spine - 1 {
        if i % every == 0 {
            for _ in 0..width {
                g.add_edge(i, next_burst);
                g.add_edge(next_burst, i + 1);
                next_burst += 1;
            }
        } else {
            g.add_edge(i, i + 1);
        }
    }
    g
}

/// Pool widths every DAG shape runs on.
const POOL_WIDTHS: [usize; 3] = [1, 2, 4];

#[test]
fn chain_and_burst_workflows_match_the_reference_on_every_pool_shape() {
    // A nearly pure chain (one burst at the head) and a heavily burst-punctuated spine:
    // the value semantics must come out schedule-independent on every width.
    let graphs =
        [Arc::new(spine_with_bursts(800, 1000, 8)), Arc::new(spine_with_bursts(240, 20, 64))];
    for g in &graphs {
        let expected = workflow_reference(g);
        for threads in POOL_WIDTHS {
            let pool = ThreadPoolBuilder::new().threads(threads).build();
            let g = Arc::clone(g);
            let got = pool.install(move || workflow_native(&g));
            assert_eq!(
                got,
                expected,
                "{threads} threads diverged on a {}-node graph",
                graphs[0].len()
            );
        }
    }
}

#[test]
fn a_panicking_node_unwinds_cleanly_and_the_pool_survives() {
    // Panic injection at a mid-spine node: the unwind must surface through `install` as
    // a structured error (with the original payload, not a pool-internal one), and the
    // same pool must then run a clean pass correctly — panics are quarantined per job,
    // never wedging a worker or leaking a poisoned deque.
    for threads in POOL_WIDTHS {
        let pool = ThreadPoolBuilder::new().threads(threads).build();
        let g = Arc::new(spine_with_bursts(120, 10, 16));
        for round in 0..3 {
            let target = 55 + round; // vary the failing node across rounds
            let gp = Arc::clone(&g);
            let result = pool.try_install(move || {
                gp.run(&|v| {
                    if v == target {
                        panic!("injected node failure");
                    }
                    std::hint::black_box(v);
                })
            });
            match result {
                Err(InstallError::Panicked(payload)) => {
                    let msg = payload.downcast::<&'static str>().expect("the original payload");
                    assert_eq!(*msg, "injected node failure");
                }
                other => panic!("{threads} threads: expected Panicked, got {other:?}"),
            }
            // The pool is immediately reusable for a full, correct workflow pass.
            let gc = Arc::clone(&g);
            assert_eq!(
                pool.install(move || workflow_native(&gc)),
                workflow_reference(&g),
                "{threads} threads: clean run after an injected panic diverged"
            );
        }
    }
}

#[test]
fn steady_state_dag_runs_do_not_lean_on_the_park_backstop() {
    // The counter the submit-path fix made observable: with back-to-back DAG runs keeping
    // the pool saturated in work-arrival notifications, essentially no wake should come
    // from the 1ms backstop timer. Before the fix, every `install` against the
    // between-runs idle pool risked the full backstop tail; now submission broadcasts.
    // The bound is loose (a preempted worker on a loaded 1-CPU CI host can legitimately
    // ride out a timer tick) but far below the one-backstop-per-run a missed-wake
    // submission path produces.
    const RUNS: usize = 200;
    let pool = ThreadPoolBuilder::new().threads(2).build();
    let g = Arc::new(layered_random(7, 6, 16));
    let expected = workflow_reference(&g);
    // Warmup outside the measured window (thread startup, first parks).
    let gw = Arc::clone(&g);
    assert_eq!(pool.install(move || workflow_native(&gw)), expected);

    let before = pool.stats().total_backstop_wakes();
    for _ in 0..RUNS {
        let gr = Arc::clone(&g);
        assert_eq!(pool.install(move || workflow_native(&gr)), expected);
    }
    let backstops = pool.stats().total_backstop_wakes() - before;
    assert!(
        backstops <= (RUNS / 4) as u64,
        "{backstops} backstop wakes across {RUNS} steady-state DAG runs: \
         the pool is leaning on the 1ms timer instead of notifications"
    );
}
