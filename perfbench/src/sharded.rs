//! `sharded-batch`: the multi-process backend, `ShardedExecutor::execute` by spec.
//!
//! One operation is one round: a fresh `ShardedExecutor::new(p).execute()` of each
//! shardable kernel (matmul, spmv). Rounds alternate with the same round on one shard,
//! which gives `scaling_eff`. The shard workers rebuild each instance from its spec, so
//! the inputs are the kernels' fixed demo instances whatever the workload seed. Each
//! output must equal the in-process output computed during set-up, and no shard may die
//! or have its jobs redistributed.

use crate::common::{repeated_setup, time_ms, Measured, RunCtx, Walls};
use crate::spans::Tracer;
use rws_exec::workloads::{by_name, MatMulWorkload, SpmvWorkload};
use rws_exec::{AlgoOutput, Executor, NativeExecutor, SharedWorkload};
use rws_runtime::ThreadPool;
use rws_shard::frame::{read_frame, write_frame};
use rws_shard::{Message, PartStats, ShardedExecutor};
use std::sync::Arc;

/// Kernel sizes.
#[derive(Clone, Copy, Debug)]
pub struct ShardSizes {
    /// Matmul dimension.
    pub matmul_n: usize,
    /// Spmv row count.
    pub spmv_n: usize,
}

impl ShardSizes {
    /// The sizes the benchmark measures.
    pub const STANDARD: ShardSizes = ShardSizes { matmul_n: 64, spmv_n: 1 << 14 };
}

struct Kernel {
    workload: SharedWorkload,
    inproc: AlgoOutput,
    inproc_ms: f64,
}

struct State {
    kernels: Vec<Kernel>,
    exec_p: ShardedExecutor,
    exec_1: ShardedExecutor,
}

/// Totals of the shard details over the measured rounds.
#[derive(Default)]
struct Detail {
    dispatched: u64,
    redistributed: u64,
    deaths: u64,
}

/// Execute every kernel once on `exec`; whether every output matched and no shard died.
fn round(
    t: &Tracer,
    exec: &ShardedExecutor,
    kernels: &[Kernel],
    corrupt: bool,
    d: &mut Detail,
) -> bool {
    let mut ok = true;
    for k in kernels {
        let mut out = t.span("shard.execute", || exec.execute(Arc::clone(&k.workload)));
        if corrupt {
            out.output = AlgoOutput::I64(vec![-1]);
        }
        let Some(shard) = out.report.shard else {
            ok = false;
            continue;
        };
        d.dispatched += shard.jobs_dispatched;
        d.redistributed += shard.redistributed;
        d.deaths += shard.shard_deaths;
        ok &= t.span("check", || {
            out.output == k.inproc && shard.redistributed == 0 && shard.shard_deaths == 0
        });
    }
    ok
}

/// Run the workload for `ctx.budget`.
pub fn run(ctx: &RunCtx, z: ShardSizes) -> Measured {
    let mut m = Measured::default();
    let (mm_n, spmv_n) = (z.matmul_n, z.spmv_n);
    let state = repeated_setup(ctx, &mut m, || {
        let inproc = NativeExecutor::new(ctx.p);
        let set: Vec<SharedWorkload> =
            vec![Arc::new(MatMulWorkload::demo(mm_n, 4)), Arc::new(SpmvWorkload::demo(spmv_n))];
        let kernels = set
            .into_iter()
            .map(|workload| {
                let output = inproc.execute(Arc::clone(&workload)).output;
                let inproc_ms = time_ms(3, || inproc.execute(Arc::clone(&workload)));
                Kernel { workload, inproc: output, inproc_ms }
            })
            .collect();
        let state =
            State { kernels, exec_p: ShardedExecutor::new(ctx.p), exec_1: ShardedExecutor::new(1) };
        // Warm-up: spawn, handshake and run each kernel once on both shapes.
        let mut d = Detail::default();
        round(&Tracer::off(), &state.exec_p, &state.kernels, false, &mut d);
        round(&Tracer::off(), &state.exec_1, &state.kernels, false, &mut d);
        state
    });

    let (t, off) = (&ctx.tracer, Tracer::off());
    let (mut detail, mut ignored) = (Detail::default(), Detail::default());
    let walls = Walls::alternate(
        &mut m,
        ctx.budget,
        || t.op(|| round(t, &state.exec_p, &state.kernels, ctx.corrupt, &mut detail)),
        || round(&off, &state.exec_1, &state.kernels, ctx.corrupt, &mut ignored),
    );
    walls.report(&mut m, "rounds (1-way: one shard)", ctx.p);
    let inproc_ms: f64 = state.kernels.iter().map(|k| k.inproc_ms).sum();
    m.lines
        .push(format!("matmul n = {mm_n}, spmv n = {spmv_n}: in-process round {inproc_ms:.3} ms"));
    if t.is_on() {
        let rounds = walls.p.len() as f64;
        m.set("shard.dispatched", detail.dispatched as f64 / rounds);
        m.set("shard.redistributed", detail.redistributed as f64);
        m.set("shard.deaths", detail.deaths as f64);
        m.set("shard.inproc_ms", inproc_ms);
        m.set("shard.overhead_x", m.metrics["run_ms_p50"] / inproc_ms);
        unit_costs(&mut m, ctx.p, mm_n);
        let ledger = t.ledger();
        m.set("sharded-batch.residual_frac", ledger.residual_frac());
        m.lines.extend(ledger.lines("sharded-batch", m.metrics["run_ms_p50"]));
    }
    m
}

/// The pieces one sharded `execute()` is made of, each timed in isolation on the spec of
/// the `matmul_n` matmul kernel: spawn-to-result floor, frame codec, message codec,
/// instance rebuild, one part's compute, and the reassembly.
fn unit_costs(m: &mut Measured, p: usize, matmul_n: usize) {
    let floor = ShardedExecutor::new(p);
    let tiny: SharedWorkload = Arc::new(SpmvWorkload::demo(8));
    m.set("shard.execute_floor_ms", time_ms(5, || floor.execute(Arc::clone(&tiny))));

    let payload = vec![0xA5u8; 1 << 20];
    let frame_ms = time_ms(20, || {
        let mut buf = Vec::with_capacity(payload.len() + 4);
        write_frame(&mut buf, &payload).expect("in-memory write");
        read_frame(&mut buf.as_slice()).expect("in-memory read")
    });
    m.set("shard.frame_mb_per_s", payload.len() as f64 / 1e6 / (frame_ms / 1e3));

    let (kind, n, base) = ("matmul", matmul_n, 4);
    let parts = 4 * p;
    m.set("shard.rebuild_ms", time_ms(5, || by_name(kind, n, base)));
    let w = by_name(kind, n, base).expect("matmul is a shardable kind");
    let single = ThreadPool::new(1);
    m.set(
        "shard.part_ms",
        time_ms(5, || {
            let w = Arc::clone(&w);
            single.install(move || w.run_native_part(0, parts))
        }),
    );
    let outputs: Vec<AlgoOutput> = (0..parts).map(|i| w.run_native_part(i, parts)).collect();
    let msg =
        Message::JobResult { job_id: 1, output: outputs[0].clone(), stats: PartStats::default() };
    m.set("shard.encode_ms", time_ms(20, || msg.encode()));
    let bytes = msg.encode();
    m.set(
        "shard.decode_ms",
        time_ms(20, || Message::decode(&bytes).expect("own encoding decodes")),
    );
    m.set("shard.concat_ms", time_ms(20, || AlgoOutput::concat(outputs.iter().cloned())));
}
