//! `native-forkjoin`: the real work-stealing pool running the fork-join kernels.
//!
//! One operation is one round: `NativeExecutor::execute` of every kernel, twice over, on
//! the `p`-thread pool. Rounds alternate with the same round on a 1-thread pool, which gives
//! `scaling_eff`. Inputs come from the workload seed through the workloads' `new`
//! constructors; each output is compared with the sequential reference computed during
//! set-up. Three kernels are fine-grained (many small forks), three coarse and
//! memory-bound (working sets well beyond a private L2).

use crate::common::{median, ms, ratio, repeated_setup, time_ms, Measured, Rng, RunCtx, Walls};
use crate::spans::Tracer;
use rws_algos::matmul::{MatMulConfig, MmVariant};
use rws_algos::spmv::CsrMatrix;
use rws_algos::taskgraph::layered_random;
use rws_exec::workloads::{
    DagWorkflowWorkload, MatMulWorkload, SampleSortWorkload, SortWorkload, SpmvWorkload,
    TransposeWorkload,
};
use rws_exec::{AlgoOutput, Executor, NativeExecutor, SharedWorkload};
use rws_runtime::trace::{TraceRecorder, TraceSnapshot};
use rws_runtime::{DequeBackend, PoolStatsSnapshot, ThreadPool};
use std::sync::Arc;
use std::time::Instant;

/// Instance sizes of the kernel set.
#[derive(Clone, Copy, Debug)]
pub struct NativeSizes {
    /// Matrix dimension of matmul (recursion base 4).
    pub matmul_n: usize,
    /// Matrix dimension of transpose (recursion base 4).
    pub transpose_n: usize,
    /// Nodes of the dag-workflow task graph.
    pub dag_nodes: usize,
    /// Keys of merge-sort.
    pub sort_n: usize,
    /// Keys of sample-sort.
    pub samplesort_n: usize,
    /// Rows of spmv.
    pub spmv_n: usize,
}

impl NativeSizes {
    /// The sizes the benchmark measures.
    pub const STANDARD: NativeSizes = NativeSizes {
        matmul_n: 64,
        transpose_n: 128,
        dag_nodes: 1 << 13,
        sort_n: 1 << 19,
        samplesort_n: 1 << 17,
        spmv_n: 1 << 18,
    };
}

/// The kernels, in round order. Span names are the kernel names prefixed with `exec.`.
pub const KERNELS: [(&str, &str); 6] = [
    ("matmul", "exec.matmul"),
    ("transpose", "exec.transpose"),
    ("dag-workflow", "exec.dag-workflow"),
    ("merge-sort", "exec.merge-sort"),
    ("sample-sort", "exec.sample-sort"),
    ("spmv", "exec.spmv"),
];

/// One kernel instance with its reference output.
pub struct Kernel {
    /// The workload.
    pub workload: SharedWorkload,
    /// Its sequential reference output.
    pub reference: AlgoOutput,
    /// Bytes the kernel must read and write at least, computed from its array sizes.
    pub bytes: f64,
}

/// Build the kernel set from `seed`, references included.
pub fn kernels(seed: u64, z: NativeSizes) -> Vec<Kernel> {
    let mut rng = Rng::new(seed, 0x4E41);
    let mut f64s = |n: usize| (0..n).map(|_| rng.unit()).collect::<Vec<f64>>();
    let (mn, tn) = (z.matmul_n, z.transpose_n);
    let matmul = MatMulWorkload::new(
        f64s(mn * mn),
        f64s(mn * mn),
        MatMulConfig::new(mn, MmVariant::DepthLog2N).with_base(4),
    );
    let transpose = TransposeWorkload::new(f64s(tn * tn), tn, 4);
    let spmv_matrix = CsrMatrix::random(seed | 1, z.spmv_n, 7);
    let nnz = spmv_matrix.vals.len() as f64;
    let spmv = SpmvWorkload::new(spmv_matrix, f64s(z.spmv_n));
    let mut rng = Rng::new(seed, 0x4B45);
    let mut keys = |n: usize| (0..n).map(|_| rng.below(1 << 40)).collect::<Vec<u64>>();
    let sort = SortWorkload::new(keys(z.sort_n), 512);
    let ssort_n = z.samplesort_n;
    let samplesort = SampleSortWorkload::new(keys(ssort_n), (ssort_n as f64).sqrt() as usize);
    let layers = (z.dag_nodes.ilog2() as usize).max(2);
    let dag = DagWorkflowWorkload::new(layered_random(seed | 1, layers, z.dag_nodes / layers), 4);

    let levels = |n: usize, base: usize| (n / base).max(2).ilog2() as f64;
    let set: Vec<(SharedWorkload, f64)> = vec![
        (Arc::new(matmul), 3.0 * 8.0 * (mn * mn) as f64),
        (Arc::new(transpose), 2.0 * 8.0 * (tn * tn) as f64),
        (Arc::new(dag), 16.0 * z.dag_nodes as f64),
        (Arc::new(sort), 2.0 * 8.0 * z.sort_n as f64 * levels(z.sort_n, 512)),
        (Arc::new(samplesort), 4.0 * 8.0 * ssort_n as f64),
        (Arc::new(spmv), 24.0 * nnz + 16.0 * z.spmv_n as f64),
    ];
    set.into_iter()
        .map(|(workload, bytes)| Kernel { reference: workload.run_reference(), workload, bytes })
        .collect()
}

struct State {
    kernels: Vec<Kernel>,
    pool_p: NativeExecutor,
    pool_1: NativeExecutor,
}

/// Passes over the kernel set per operation: two keep an operation well above 100 ms, long
/// next to the host's scheduling noise.
const PASSES: usize = 2;

/// Execute every kernel [`PASSES`] times on `exec`; the walls (ms) in kernel order, pass
/// after pass, and whether every output matched its reference and ran as a real parallel
/// kernel.
fn round(t: &Tracer, exec: &NativeExecutor, kernels: &[Kernel], corrupt: bool) -> (Vec<f64>, bool) {
    let mut walls = Vec::with_capacity(PASSES * kernels.len());
    let mut ok = true;
    for (k, (_, span)) in (0..PASSES).flat_map(|_| kernels.iter().zip(KERNELS)) {
        let start = Instant::now();
        let mut out = t.span(span, || exec.execute(Arc::clone(&k.workload)));
        walls.push(ms(start.elapsed()));
        if corrupt {
            out.output = AlgoOutput::I64(vec![-1]);
        }
        ok &= t.span("check", || !out.report.sequential_fallback && out.output == k.reference);
    }
    (walls, ok)
}

/// Run the workload for `ctx.budget`.
pub fn run(ctx: &RunCtx, z: NativeSizes) -> Measured {
    let mut m = Measured::default();
    let traced = ctx.tracer.is_on();
    let capacity = traced.then_some(TRACE_CAPACITY);
    let state = repeated_setup(ctx, &mut m, || {
        let kernels = kernels(ctx.seed, z);
        let pool_p = NativeExecutor::with_options(ctx.p, DequeBackend::Crossbeam, capacity);
        let pool_1 = NativeExecutor::new(1);
        let off = Tracer::off();
        round(&off, &pool_p, &kernels, false);
        round(&off, &pool_1, &kernels, false);
        State { kernels, pool_p, pool_1 }
    });

    let (t, off) = (&ctx.tracer, Tracer::off());
    let (mut kern_p, mut kern_1) =
        (vec![Vec::new(); KERNELS.len()], vec![Vec::new(); KERNELS.len()]);
    let before = state.pool_p.pool().stats().snapshot();
    let walls = Walls::alternate(
        &mut m,
        ctx.budget,
        || {
            let (walls, ok) = t.op(|| round(t, &state.pool_p, &state.kernels, ctx.corrupt));
            walls.into_iter().enumerate().for_each(|(i, w)| kern_p[i % KERNELS.len()].push(w));
            ok
        },
        || {
            let (walls, ok) = round(&off, &state.pool_1, &state.kernels, ctx.corrupt);
            walls.into_iter().enumerate().for_each(|(i, w)| kern_1[i % KERNELS.len()].push(w));
            ok
        },
    );
    let delta = state.pool_p.pool().stats().snapshot_delta(&before);
    walls.report(&mut m, "rounds", ctx.p);

    for (k, (name, _)) in KERNELS.iter().enumerate() {
        let (t1, tp) = (median(&kern_1[k]), median(&kern_p[k]));
        m.set(format!("algos.{name}.ms_t1"), t1);
        m.set(format!("algos.{name}.ms_tp"), tp);
        m.set(format!("algos.{name}.bytes_computed"), state.kernels[k].bytes);
        m.set(format!("algos.{name}.gbps_computed"), state.kernels[k].bytes / (tp * 1e6));
    }
    if traced {
        pool_counters(&mut m, &delta, walls.p.len() as f64);
        let recorder = state.pool_p.pool().trace_recorder().expect("traced pool");
        let profile = TraceTotals::measure(&recorder, 2, || {
            round(&off, &state.pool_p, &state.kernels, false);
        });
        profile.report(&mut m);
        unit_costs(&mut m, &ThreadPool::new(ctx.p));
        crate::service::layer_probe(ctx, &mut m, std::time::Duration::from_secs(2));
        let ledger = ctx.tracer.ledger();
        m.set("native-forkjoin.residual_frac", ledger.residual_frac());
        m.lines.extend(ledger.lines("native-forkjoin", m.metrics["run_ms_p50"]));
        m.lines.push(format!("{:<14} {:>10} {:>10} {:>10}", "kernel", "seq_ms", "t1_ms", "tp_ms"));
        for (k, (name, _)) in KERNELS.iter().enumerate() {
            // The plain single-threaded reference of the same problem.
            let seq = time_ms(3, || state.kernels[k].workload.run_reference());
            m.set(format!("algos.{name}.seq_ms"), seq);
            m.lines.push(format!(
                "{name:<14} {seq:>10.3} {:>10.3} {:>10.3}",
                median(&kern_1[k]),
                median(&kern_p[k])
            ));
        }
    }
    m
}

/// `PoolStats` deltas over the measured rounds, per round.
pub fn pool_counters(m: &mut Measured, d: &PoolStatsSnapshot, ops: f64) {
    let sum = |f: fn(&rws_runtime::WorkerSnapshot) -> u64| d.workers.iter().map(f).sum::<u64>();
    let (steals, failed) = (sum(|w| w.steals), sum(|w| w.failed_steals));
    m.set("pool.jobs", sum(|w| w.jobs) as f64 / ops);
    m.set("pool.steals", steals as f64 / ops);
    m.set("pool.steal_success", ratio(steals, steals + failed));
    m.set("pool.steal_retries", sum(|w| w.steal_retries) as f64 / ops);
    m.set("pool.batch_steals", sum(|w| w.batch_steals) as f64 / ops);
    m.set("pool.parks", sum(|w| w.parks) as f64 / ops);
    m.set("pool.backstop_wakes", sum(|w| w.backstop_wakes) as f64 / ops);
}

/// Flight-recorder events per lane in traced runs: enough to hold one whole round.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Flight-recorder totals over a few operations run for the purpose.
#[derive(Default)]
pub struct TraceTotals {
    busy: u64,
    steal: u64,
    park: u64,
    span: u64,
    events: u64,
    dropped: u64,
}

impl TraceTotals {
    /// Run `op` `times` times outside any timed operation, and profile the events each
    /// run recorded. The recorder keeps the latest events of every lane and its
    /// snapshots do not consume them, so each run's events are picked by timestamp and
    /// counted against the lanes' `recorded` totals before and after.
    pub fn measure(rec: &TraceRecorder, times: usize, mut op: impl FnMut()) -> Self {
        let mut totals = TraceTotals::default();
        let recorded = |s: &TraceSnapshot| s.lanes.iter().map(|l| l.recorded).sum::<u64>();
        for _ in 0..times {
            let before = recorded(&rec.snapshot());
            let t0 = rec.now_ns();
            op();
            let t1 = rec.now_ns();
            let mut snap = rec.snapshot();
            let new = recorded(&snap) - before;
            snap.events.retain(|e| (t0..=t1).contains(&e.ts_ns));
            totals.events += new;
            totals.dropped += new.saturating_sub(snap.events.len() as u64);
            for w in snap.profile().workers {
                totals.busy += w.busy_ns;
                totals.steal += w.steal_ns;
                totals.park += w.park_ns;
                totals.span += w.span_ns;
            }
        }
        totals
    }

    /// Report the busy/steal/park shares of worker time and the event counts.
    pub fn report(&self, m: &mut Measured) {
        let frac = |x: u64| ratio(x, self.span);
        m.set("pool.busy_frac", frac(self.busy));
        m.set("pool.steal_frac", frac(self.steal));
        m.set("pool.park_frac", frac(self.park));
        m.set("trace.events", self.events as f64);
        m.set("trace.dropped", self.dropped as f64);
    }
}

/// Unit costs of the pool: an empty `install` round trip on `pool`, and an empty `join`
/// on a one-thread pool, where nothing can steal it.
pub fn unit_costs(m: &mut Measured, pool: &ThreadPool) {
    m.set("pool.install_us", 1e3 * time_ms(500, || pool.install(|| std::hint::black_box(()))));
    const FORKS: u32 = 20_000;
    let single = ThreadPool::new(1);
    let fork: Vec<f64> = (0..5)
        .map(|_| {
            single.install(|| {
                let start = Instant::now();
                for i in 0..FORKS {
                    std::hint::black_box(rws_runtime::join(
                        || std::hint::black_box(i),
                        || std::hint::black_box(i + 1),
                    ));
                }
                start.elapsed().as_secs_f64() * 1e9 / f64::from(FORKS)
            })
        })
        .collect();
    m.set("pool.fork_ns", median(&fork));
}
