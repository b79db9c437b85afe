//! `service-openloop`: a `JobServer` fed on a fixed schedule by one generator thread.
//!
//! Jobs are due at fixed intervals whatever the server does (an open loop). Each job's
//! latency runs from when it was *due* to when its closure finished, so a stalled
//! generator or a full admission queue counts against the server, and the generator's
//! own lateness is reported beside it. Jobs are a seeded mix of small fork-join sums and
//! a few large ones that fork inside the pool; each returns a checksum compared with one
//! computed during set-up.
//!
//! The offered rates are constants ([`NOMINAL_RATE`], [`HIGH_RATE`], [`LADDER`]); nothing
//! about the load is derived from the run, so every build is offered the same load.

use crate::common::{median, ms, quantile, repeated_setup, tail, Measured, Rng, RunCtx};
use crate::native::{pool_counters, TraceTotals, TRACE_CAPACITY};
use crate::spans::Tracer;
use rws_runtime::{
    AdmissionPolicy, JobHandle, JobOutcome, JobServer, ServiceConfig, ServiceSnapshot,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs per second at which the latency metrics are taken.
pub const NOMINAL_RATE: f64 = 16_000.0;
/// Jobs per second near the knee of `p` = 2 workers, for `lat_ms_p99_high`.
pub const HIGH_RATE: f64 = 20_000.0;
/// A rung meets the limit when its p99 latency stays under this and its backlog does
/// not grow.
pub const P99_LIMIT_MS: f64 = 50.0;
/// The rate ladder `max_rate_per_s` is found on: 48 rungs from 4000/s, each 5% above
/// the last.
pub const LADDER: (f64, f64, usize) = (4_000.0, 1.05, 48);
/// Nominal-rate windows; the tail metric is the median of their tails.
pub const WINDOWS: usize = 10;

/// Job sizes: elements summed by a small job and by a large one, and the share of large
/// jobs in the mix.
#[derive(Clone, Copy, Debug)]
pub struct JobMix {
    /// Elements of a small job (about 50 µs of work).
    pub small: usize,
    /// Elements of a large job (about 2 ms of work).
    pub large: usize,
    /// One job in `large_every` is large (on average).
    pub large_every: u64,
}

impl JobMix {
    /// The mix the benchmark measures.
    pub const STANDARD: JobMix = JobMix { small: 16 << 10, large: 640 << 10, large_every: 50 };
}

/// Elements below which a job sums sequentially instead of forking.
const GRAIN: usize = 4096;

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 32)
}

/// Fork-join checksum of `xs`: the wrapping sum of `mix` over the slice.
fn checksum(xs: &[u64]) -> u64 {
    if xs.len() <= GRAIN {
        return xs.iter().fold(0u64, |acc, &x| acc.wrapping_add(mix(x)));
    }
    let (lo, hi) = xs.split_at(xs.len() / 2);
    let (a, b) = rws_runtime::join(|| checksum(lo), || checksum(hi));
    a.wrapping_add(b)
}

/// The data every job sums a window of, with prefix checksums for the expected values.
struct Data {
    xs: Arc<Vec<u64>>,
    prefix: Vec<u64>,
}

impl Data {
    fn new(seed: u64, len: usize) -> Self {
        let mut rng = Rng::new(seed, 0x5E4F);
        let xs: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let mut prefix = Vec::with_capacity(len + 1);
        prefix.push(0u64);
        for &x in &xs {
            prefix.push(prefix.last().expect("seeded with 0").wrapping_add(mix(x)));
        }
        Data { xs: Arc::new(xs), prefix }
    }

    fn expected(&self, (off, len): (usize, usize)) -> u64 {
        self.prefix[off + len].wrapping_sub(self.prefix[off])
    }
}

/// The seeded job windows `(offset, len)`, cycled through by every phase.
fn windows(seed: u64, mix: JobMix, data_len: usize, count: usize) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, 0x4A0B);
    (0..count)
        .map(|_| {
            let len = if rng.below(mix.large_every) == 0 { mix.large } else { mix.small };
            (rng.below((data_len - len) as u64) as usize, len)
        })
        .collect()
}

/// What one fixed-rate phase measured.
#[derive(Debug, Default)]
struct Phase {
    /// Due → finish latency of every job, ms (`f64::INFINITY` for a failed job).
    lat_ms: Vec<f64>,
    /// How late the generator submitted each job, ms.
    late_ms: Vec<f64>,
    /// Time inside `submit()`, µs.
    submit_us: Vec<f64>,
    /// Whether the backlog grew across the phase.
    backlog_grew: bool,
}

impl Phase {
    fn p99(&self) -> f64 {
        quantile(&self.lat_ms, 0.99)
    }

    /// Whether the phase met the latency limit with no growing backlog.
    fn meets_limit(&self) -> bool {
        self.p99() <= P99_LIMIT_MS && !self.backlog_grew
    }
}

struct Env<'a> {
    data: &'a Data,
    windows: &'a [(usize, usize)],
    corrupt: bool,
}

/// Offer `rate` jobs/s to `server` for `dur`, then wait for every job and check it.
fn phase(t: &Tracer, env: &Env, server: &JobServer, rate: f64, dur: Duration) -> Phase {
    let count = ((rate * dur.as_secs_f64()).ceil() as usize).max(1);
    let epoch = Instant::now();
    let ended: Arc<Vec<AtomicU64>> = Arc::new((0..count).map(|_| AtomicU64::new(0)).collect());
    let sums: Arc<Vec<AtomicU64>> = Arc::new((0..count).map(|_| AtomicU64::new(0)).collect());
    let mut handles: Vec<JobHandle> = Vec::with_capacity(count);
    let mut ph = Phase::default();
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut i = 0;
    while i < count {
        let now = epoch.elapsed();
        if due(i) > now {
            t.span("gen.sleep", || std::thread::sleep(due(i) - now));
            continue;
        }
        while i < count && due(i) <= epoch.elapsed() {
            let (off, len) = env.windows[i % env.windows.len()];
            let (xs, ended, sums) =
                (Arc::clone(&env.data.xs), Arc::clone(&ended), Arc::clone(&sums));
            let job = move || {
                sums[i].store(checksum(&xs[off..off + len]), Ordering::Relaxed);
                let end = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
                ended[i].store(end, Ordering::Release);
            };
            let start = Instant::now();
            ph.late_ms.push(ms(epoch.elapsed().saturating_sub(due(i))));
            handles.push(t.span("service.submit", || server.submit(job)));
            ph.submit_us.push(start.elapsed().as_secs_f64() * 1e6);
            i += 1;
        }
    }
    let outcomes: Vec<JobOutcome> =
        t.span("service.drain", || handles.iter().map(JobHandle::wait).collect());
    t.span("check", || {
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let mut sum = sums[i].load(Ordering::Relaxed);
            if env.corrupt {
                sum ^= 1;
            }
            let window = env.windows[i % env.windows.len()];
            if outcome == JobOutcome::Completed && sum == env.data.expected(window) {
                let end = Duration::from_nanos(ended[i].load(Ordering::Acquire));
                ph.lat_ms.push(ms(end.saturating_sub(due(i))));
            } else {
                ph.lat_ms.push(f64::INFINITY);
            }
        }
    });
    ph.backlog_grew = backlog_grew(&ph.lat_ms, rate);
    ph
}

/// Whether the backlog (jobs due but not yet finished) grew across a phase, from each
/// job's latency and the phase's rate: sampled at tenths of the phase, the last three
/// samples must not average more than twice the early ones plus a small allowance.
fn backlog_grew(lat_ms: &[f64], rate: f64) -> bool {
    let n = lat_ms.len();
    let ends: Vec<f64> =
        lat_ms.iter().enumerate().map(|(i, l)| i as f64 / rate * 1e3 + l).collect();
    let samples: Vec<f64> = (1..=10)
        .map(|k| {
            let at = n as f64 / rate * 1e3 * k as f64 / 10.0;
            let due = ((at * rate / 1e3).floor() as usize + 1).min(n);
            (due - ends[..due].iter().filter(|&&e| e <= at).count()) as f64
        })
        .collect();
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(&samples[7..]) > 2.0 * mean(&samples[1..4]) + 16.0
}

/// The highest ladder rung `server` sustains, found by bisection with one phase of
/// `probe` per step; `(rate, phases)`.
fn max_rate(env: &Env, server: &JobServer, probe: Duration) -> (f64, Vec<Phase>) {
    let (base, step, rungs) = LADDER;
    let rate = |k: usize| base * step.powi(k as i32);
    let off = Tracer::off();
    let (mut lo, mut hi) = (0usize, rungs); // rung `lo` assumed to pass, `hi` to fail
    let mut phases = Vec::new();
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let ph = phase(&off, env, server, rate(mid), probe);
        if ph.meets_limit() {
            lo = mid;
        } else {
            hi = mid;
        }
        phases.push(ph);
    }
    (rate(lo), phases)
}

fn server(threads: usize, trace: Option<usize>) -> JobServer {
    JobServer::new(ServiceConfig {
        threads,
        admission: AdmissionPolicy::Block,
        trace,
        ..ServiceConfig::default()
    })
}

/// The fixed-rate phases: the nominal windows and one phase at the high rate.
struct Latency {
    nominal: Vec<Phase>,
    high: Phase,
    /// The server's accounting right after the nominal windows.
    snap: ServiceSnapshot,
}

impl Latency {
    fn run(t: &Tracer, env: &Env, server: &JobServer, window: Duration, high: Duration) -> Self {
        let nominal: Vec<Phase> =
            (0..WINDOWS).map(|_| t.op(|| phase(t, env, server, NOMINAL_RATE, window))).collect();
        let snap = server.snapshot();
        let high = phase(&Tracer::off(), env, server, HIGH_RATE, high);
        Latency { nominal, high, snap }
    }

    fn joined(&self, f: fn(&Phase) -> &Vec<f64>) -> Vec<f64> {
        self.nominal.iter().flat_map(f).copied().collect()
    }

    /// Every job's latency at the nominal rate, ms.
    fn lat(&self) -> Vec<f64> {
        self.joined(|p| &p.lat_ms)
    }

    /// The median over the windows of each window's tail percentile: `(q, ms)`.
    fn tail(&self) -> (f64, f64) {
        let tails: Vec<(f64, f64)> = self.nominal.iter().map(|p| tail(&p.lat_ms)).collect();
        (tails[0].0, median(&tails.iter().map(|t| t.1).collect::<Vec<f64>>()))
    }

    /// Count every job in `m`; set the service layer's metrics and the latency lines.
    fn report(&self, m: &mut Measured) {
        for ph in self.nominal.iter().chain([&self.high]) {
            for &l in &ph.lat_ms {
                m.check(l.is_finite());
            }
        }
        let (lat, late, submit) =
            (self.lat(), self.joined(|p| &p.late_ms), self.joined(|p| &p.submit_us));
        let (q, tail_ms) = self.tail();
        m.set("service.lat_ms_p50", median(&lat));
        m.set("service.lat_ms_p99", quantile(&lat, 0.99));
        m.set("service.lat_ms_p99_high", self.high.p99());
        m.set("service.gen_late_ms_p99", quantile(&late, 0.99));
        m.set("service.submit_us", median(&submit));
        m.set("service.queue_ms_p99", self.snap.queue.p99_ns as f64 / 1e6);
        m.set("service.exec_ms_p99", self.snap.service.p99_ns as f64 / 1e6);
        m.set("service.shed", self.snap.shed as f64);
        m.lines.push(format!(
            "service load: open loop from one generator thread; nominal {NOMINAL_RATE}/s in \
             {WINDOWS} windows of {} jobs, high {HIGH_RATE}/s, ladder from {}/s x{} ({} \
             rungs), p99 limit {P99_LIMIT_MS} ms",
            self.nominal[0].lat_ms.len(),
            LADDER.0,
            LADDER.1,
            LADDER.2
        ));
        m.lines.push(format!("lat_ms_p50 = {:.4} ms ({} jobs)", median(&lat), lat.len()));
        m.lines.push(format!("lat_ms_p99 = {:.4} ms (all windows)", quantile(&lat, 0.99)));
        m.lines.push(format!("lat tail = {tail_ms:.4} ms (median over windows of p{})", q * 100.0));
        m.lines.push(format!(
            "lat_ms_p99_high = {:.4} ms ({} jobs)",
            self.high.p99(),
            self.high.lat_ms.len()
        ));
        m.lines.push(format!(
            "gen_late_ms_p99 = {:.4} ms, submit_us p50 = {:.3}",
            quantile(&late, 0.99),
            median(&submit)
        ));
    }
}

fn setup(seed: u64, mix: JobMix) -> (Data, Vec<(usize, usize)>) {
    let data_len = 4 * mix.large;
    (Data::new(seed, data_len), windows(seed, mix, data_len, 1 << 14))
}

/// The service layer's metrics from `dur` of open-loop load on a fresh `p`-worker server.
/// Other workloads call this so the layer is measured where the service workload is not
/// run.
pub fn layer_probe(ctx: &RunCtx, m: &mut Measured, dur: Duration) {
    let (data, windows) = setup(ctx.seed, JobMix::STANDARD);
    let env = Env { data: &data, windows: &windows, corrupt: ctx.corrupt };
    let server = server(ctx.p, None);
    let window = dur.mul_f64(0.75 / WINDOWS as f64);
    Latency::run(&Tracer::off(), &env, &server, window, dur.mul_f64(0.25)).report(m);
}

struct State {
    data: Data,
    windows: Vec<(usize, usize)>,
    server_p: JobServer,
    server_1: JobServer,
}

/// Run the workload for `ctx.budget`.
pub fn run(ctx: &RunCtx, mix: JobMix) -> Measured {
    let mut m = Measured::default();
    let traced = ctx.tracer.is_on();
    let state = repeated_setup(ctx, &mut m, || {
        let (data, windows) = setup(ctx.seed, mix);
        let server_p = server(ctx.p, traced.then_some(TRACE_CAPACITY));
        let server_1 = server(1, None);
        // Warm-up: a short phase on each server.
        let env = Env { data: &data, windows: &windows, corrupt: false };
        let warm = Duration::from_millis(50);
        phase(&Tracer::off(), &env, &server_p, NOMINAL_RATE, warm);
        phase(&Tracer::off(), &env, &server_1, NOMINAL_RATE, warm);
        State { data, windows, server_p, server_1 }
    });
    let env = Env { data: &state.data, windows: &state.windows, corrupt: ctx.corrupt };
    // Budget: nominal windows 20%, the high rate 10%, each ladder bisection 35%.
    let b = ctx.budget;
    let probe = b.mul_f64(0.35 / LADDER.2.ilog2() as f64);
    let before = state.server_p.pool().stats().snapshot();
    let t = &ctx.tracer;
    let lat =
        Latency::run(t, &env, &state.server_p, b.mul_f64(0.2 / WINDOWS as f64), b.mul_f64(0.1));
    let delta = state.server_p.pool().stats().snapshot_delta(&before);
    let (rate_p, ladder_p) = max_rate(&env, &state.server_p, probe);
    let (rate_1, ladder_1) = max_rate(&env, &state.server_1, probe);

    lat.report(&mut m);
    for ph in ladder_p.iter().chain(&ladder_1) {
        for &l in &ph.lat_ms {
            m.check(l.is_finite());
        }
    }
    let eff = rate_p / (ctx.p as f64 * rate_1);
    m.set("run_ms_p50", median(&lat.lat()));
    m.set("run_ms_tail", lat.tail().1);
    m.set("scaling_eff", eff);
    m.lines.push(format!(
        "max_rate_per_s = {rate_p:.1} jobs/s with {} workers, {rate_1:.1} with 1 (scaling_eff {eff:.4})",
        ctx.p
    ));
    if traced {
        pool_counters(&mut m, &delta, lat.lat().len() as f64);
        let recorder = state.server_p.pool().trace_recorder().expect("traced server");
        let window = b.mul_f64(0.2 / WINDOWS as f64);
        TraceTotals::measure(&recorder, 1, || {
            phase(&Tracer::off(), &env, &state.server_p, NOMINAL_RATE, window);
        })
        .report(&mut m);
        let ledger = t.ledger();
        m.set("service-openloop.residual_frac", ledger.residual_frac());
        m.lines.extend(ledger.lines("service-openloop", median(&lat.lat())));
    }
    m
}
