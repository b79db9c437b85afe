//! `sim-sweep`: repeated lab sweeps of the simulated machine over a fixed scenario set.
//!
//! One operation is one pass over the set: for each scenario, parse it, sweep it on the
//! simulated backend with `jobs` lab workers, evaluate the paper-bound checks, render and
//! validate the `rws-lab-report/v1` document. Scheduler seeds come from the workload seed.
//! The document of every pass must equal the one the set-up rendered for the same seeds
//! (the lab's byte-identical determinism contract), so every simulated counter is checked
//! against its first run.

use crate::common::{ratio, repeated_setup, time_ms, Measured, Rng, RunCtx, Walls};
use crate::spans::Tracer;
use rws_lab::report::{validate_report, LabReport};
use rws_lab::{checks, sweep, Scenario};

/// Instance sizes of the scenario set.
#[derive(Clone, Copy, Debug)]
pub struct SimSizes {
    /// Matrix dimension of the matmul scenario.
    pub matmul_n: usize,
    /// Input length of the prefix-sums scenario.
    pub prefix_n: usize,
    /// Points of the fft scenarios.
    pub fft_n: usize,
    /// Keys of the merge-sort scenarios.
    pub sort_n: usize,
    /// Scheduler seeds per scenario.
    pub seeds: usize,
}

impl SimSizes {
    /// The sizes the benchmark measures.
    pub const STANDARD: SimSizes =
        SimSizes { matmul_n: 16, prefix_n: 2048, fft_n: 256, sort_n: 1024, seeds: 4 };
}

/// The scenario set, with scheduler seeds drawn from `seed`. Simulated caches are both
/// smaller and larger than the fft and merge-sort working sets.
pub fn scenario_texts(seed: u64, z: SimSizes) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x5153);
    let mut seeds = || {
        (0..z.seeds).map(|_| (rng.below(1 << 31) + 1).to_string()).collect::<Vec<_>>().join(", ")
    };
    let mut texts = vec![
        // Lemma 3.1: matmul cache misses against its steal count, across p.
        format!(
            "name = mm\nworkload = matmul\nn = {}\nbase = 4\nbackends = sim\nseeds = {}\n\
             sweep = procs: 2, 8, 32\nchecks = steals, cache-misses, block-misses, runtime",
            z.matmul_n,
            seeds()
        ),
        // Theorems 5.1/6.2: prefix sums as the block grows, so false sharing grows with B.
        format!(
            "name = prefix-fs\nworkload = prefix-sums\nn = {}\nbackends = sim\nseeds = {}\n\
             procs = 8\nsweep = block_words: 4, 8, 16, 32",
            z.prefix_n,
            seeds()
        ),
    ];
    for (kind, n) in [("fft", z.fft_n), ("merge-sort", z.sort_n)] {
        for (label, cache_words) in [("small-cache", 64), ("large-cache", 16 * n)] {
            texts.push(format!(
                "name = {kind}-{label}\nworkload = {kind}\nn = {n}\nbackends = sim\n\
                 seeds = {}\ncache_words = {cache_words}\nsweep = procs: 2, 8",
                seeds()
            ));
        }
    }
    texts
}

/// What one pass over the scenario set produced.
struct Pass {
    docs: Vec<String>,
    failed_checks: usize,
    sim_ops: u64,
    sched_ns: u64,
    steals: u64,
    failed_steals: u64,
    cache_misses: u64,
    block_misses: u64,
    fs_misses: u64,
}

/// One operation: parse, sweep, check and render every scenario.
fn pass(t: &Tracer, texts: &[String], jobs: usize) -> Pass {
    let mut p = Pass {
        docs: Vec::new(),
        failed_checks: 0,
        sim_ops: 0,
        sched_ns: 0,
        steals: 0,
        failed_steals: 0,
        cache_misses: 0,
        block_misses: 0,
        fs_misses: 0,
    };
    for text in texts {
        let sc = t.span("lab.parse", || Scenario::parse(text).expect("generated scenario parses"));
        let lab = t.span("lab.sweep", || sweep::run_scenario_jobs(&sc, jobs));
        let checks = t.span("analysis.checks", || checks::evaluate(&sc, &lab));
        let report = LabReport { lab, checks };
        let doc = t.span("lab.json", || {
            let doc = report.to_json();
            validate_report(&doc).map(|()| doc)
        });
        p.failed_checks += report.failed_checks();
        for r in &report.lab.records {
            p.sim_ops += r.report.work_items;
            p.sched_ns += u64::try_from(r.report.wall.as_nanos()).unwrap_or(u64::MAX);
            p.steals += r.report.steals;
            p.failed_steals += r.report.failed_steals;
            p.cache_misses += r.report.cache_misses;
            p.block_misses += r.report.block_misses;
            p.fs_misses += r.report.false_sharing_misses;
        }
        p.docs.push(doc.unwrap_or_else(|e| format!("invalid report: {e}")));
    }
    p
}

struct State {
    texts: Vec<String>,
    reference: Vec<String>,
}

/// Run the workload for `ctx.budget`.
pub fn run(ctx: &RunCtx, z: SimSizes) -> Measured {
    let mut m = Measured::default();
    let texts = scenario_texts(ctx.seed, z);
    let state = repeated_setup(ctx, &mut m, || {
        // Warm-up pass; its documents are the reference every later pass must reproduce.
        let first = pass(&Tracer::off(), &texts, ctx.p);
        State { texts: texts.clone(), reference: first.docs }
    });

    let checked = |t: &Tracer, p: &mut Pass| -> bool {
        if ctx.corrupt {
            p.docs[0].push(' ');
        }
        t.span("check", || p.failed_checks == 0 && p.docs == state.reference)
    };

    // Only the jobs = p passes are traced.
    let (t, untraced) = (&ctx.tracer, Tracer::off());
    let mut last = None;
    let walls = Walls::alternate(
        &mut m,
        ctx.budget,
        || {
            t.op(|| {
                let mut p = pass(t, &state.texts, ctx.p);
                let ok = checked(t, &mut p);
                last = Some(p);
                ok
            })
        },
        || checked(&untraced, &mut pass(&untraced, &state.texts, 1)),
    );
    let last = last.expect("at least one pass ran");
    walls.report(&mut m, "lab passes", ctx.p);
    let mops = last.sim_ops as f64 / m.metrics["run_ms_p50"] / 1e3;
    m.set("core.sim_mops_per_s", mops);
    m.lines.push(format!("sim_mops_per_s = {mops:.4} Mops/s (lab jobs = {})", ctx.p));

    // Per-pass counters of the last pass: exact per seed.
    m.set("core.ops", last.sim_ops as f64);
    m.set("core.sched_ms", last.sched_ns as f64 / 1e6);
    m.set("core.steals", last.steals as f64);
    m.set("core.failed_steals", last.failed_steals as f64);
    m.set("core.steal_success", ratio(last.steals, last.steals + last.failed_steals));
    m.set("machine.cache_misses", last.cache_misses as f64);
    m.set("machine.block_misses", last.block_misses as f64);
    m.set("machine.false_sharing_misses", last.fs_misses as f64);
    m.set("machine.fs_share", ratio(last.fs_misses, last.block_misses));
    m.set("analysis.checks_failed", last.failed_checks as f64);

    if ctx.tracer.is_on() {
        let (build_ms, nodes) = dag_build(&state.texts);
        m.set("dag.build_ms", build_ms);
        m.set("dag.nodes", nodes as f64);
        let ledger = ctx.tracer.ledger();
        for (metric, span) in [
            ("lab.parse_ms", "lab.parse"),
            ("lab.sweep_ms", "lab.sweep"),
            ("lab.checks_ms", "analysis.checks"),
            ("lab.json_ms", "lab.json"),
        ] {
            m.set(metric, ledger.self_ms_per_op(span));
        }
        m.set("sim-sweep.residual_frac", ledger.residual_frac());
        m.lines.extend(ledger.lines("sim-sweep", m.metrics["run_ms_p50"]));
    }
    m
}

/// Time to build every scenario's dag once (median of three builds each), and the nodes
/// built: the `rws-dag`/`rws-algos` builder share of a pass.
fn dag_build(texts: &[String]) -> (f64, u64) {
    let (mut total_ms, mut nodes) = (0.0, 0u64);
    for text in texts {
        let w = Scenario::parse(text).expect("generated scenario parses").instantiate();
        total_ms += time_ms(3, || w.computation());
        nodes += w.computation().dag.len() as u64;
    }
    (total_ms, nodes)
}
