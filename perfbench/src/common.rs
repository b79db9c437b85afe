//! Pieces every workload shares: run options, the measurement record, sample statistics,
//! the seeded input generator and the repeated set-up.

use crate::host::cpu_ticks;
use crate::spans::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How one benchmark invocation runs a workload.
#[derive(Debug)]
pub struct RunCtx {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement time.
    pub budget: Duration,
    /// Span recorder (off for the untraced end-to-end runs).
    pub tracer: Tracer,
    /// Self-test hook: corrupt every output before it is checked.
    pub corrupt: bool,
    /// Worker threads, lab jobs and shard count: the host's parallelism.
    pub p: usize,
    /// Times the set-up is repeated; its median is `setup_s`.
    pub setups: usize,
}

impl RunCtx {
    /// A context for the command line's options.
    pub fn new(seed: u64, budget: Duration, traced: bool) -> Self {
        RunCtx {
            seed,
            budget,
            tracer: if traced { Tracer::on() } else { Tracer::off() },
            corrupt: false,
            p: std::thread::available_parallelism().map_or(1, |n| n.get()),
            setups: 5,
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, depending on the run).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines (ledger, issue-named metrics, notes).
    pub lines: Vec<String>,
}

impl Measured {
    /// Record metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Count one operation and whether its output checked out.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed share of attempted operations.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Set the metrics every workload reports: `ok_frac`, and (as a human line) the
    /// issue-named `fail_frac`.
    pub fn finish_common(&mut self) {
        let fail = self.fail_frac();
        self.set("ok_frac", 1.0 - fail);
        self.set("fail_frac", fail);
        self.lines
            .push(format!("fail_frac = {fail} ratio ({} of {})", self.failed, self.attempted));
    }
}

/// Linear-interpolated quantile `q` of `samples` (any order); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Percentiles the tail metric may report, highest last.
const TAIL_LADDER: [f64; 5] = [0.5, 0.75, 0.9, 0.99, 0.999];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples beyond it, and its
/// value: `(q, value)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let q = TAIL_LADDER.iter().copied().rfind(|q| n * (1.0 - q) + 1e-9 >= 10.0).unwrap_or(0.5);
    (q, quantile(samples, q))
}

/// Milliseconds of CPU time per `/proc/stat` clock tick (`USER_HZ` is 100 on Linux).
const MS_PER_TICK: f64 = 10.0;

/// Closed-loop walls of one workload, ms: operations at `p`-way parallelism, and the same
/// operations at 1-way parallelism for `scaling_eff`, each with the CPU time the host's
/// hypervisor stole from this machine while it ran.
#[derive(Debug, Default)]
pub struct Walls {
    /// Operations at `p`-way parallelism: `(wall, stolen)`.
    pub p: Vec<(f64, f64)>,
    /// The same operations at 1-way parallelism: `(wall, stolen)`.
    pub one: Vec<(f64, f64)>,
}

/// Wall time of `op` and the CPU time stolen meanwhile, both ms; counts the outcome.
fn timed(m: &mut Measured, op: &mut impl FnMut() -> bool) -> (f64, f64) {
    let before = cpu_ticks().0;
    let start = Instant::now();
    m.check(op());
    let wall = ms(start.elapsed());
    (wall, cpu_ticks().0.saturating_sub(before) as f64 * MS_PER_TICK)
}

/// Theil-Sen slope of `y` against `x`: the median slope over all pairs with distinct `x`;
/// 0 when `x` never varies.
pub fn theil_sen(x: &[f64], y: &[f64]) -> f64 {
    let mut slopes = Vec::new();
    for i in 0..x.len() {
        for j in i + 1..x.len() {
            if x[j] != x[i] {
                slopes.push((y[j] - y[i]) / (x[j] - x[i]));
            }
        }
    }
    median(&slopes)
}

/// Walls net of host CPU steal: each wall minus `b` times the CPU time stolen during it,
/// where `b` is the run's Theil-Sen slope of wall on stolen time, clamped to [0, 1] (a
/// stolen millisecond delays an operation by at most a millisecond). On a quiet host
/// nothing is stolen and the walls come back unchanged. Returns `(b, walls)`.
pub fn net_of_steal(samples: &[(f64, f64)]) -> (f64, Vec<f64>) {
    let (walls, stolen): (Vec<f64>, Vec<f64>) = samples.iter().copied().unzip();
    let b = theil_sen(&stolen, &walls).clamp(0.0, 1.0);
    (b, walls.iter().zip(&stolen).map(|(w, s)| w - b * s).collect())
}

impl Walls {
    /// Run `op_p` twice, then `op_1` once, and repeat until `budget` elapses (each at
    /// least once), counting each outcome in `m`. Interleaving makes drift on the host
    /// hit both alike.
    pub fn alternate(
        m: &mut Measured,
        budget: Duration,
        mut op_p: impl FnMut() -> bool,
        mut op_1: impl FnMut() -> bool,
    ) -> Walls {
        let mut w = Walls::default();
        let begin = Instant::now();
        while begin.elapsed() < budget || w.one.is_empty() {
            for _ in 0..2 {
                w.p.push(timed(m, &mut op_p));
            }
            w.one.push(timed(m, &mut op_1));
        }
        w
    }

    /// Report `run_ms_p50`, `run_ms_tail` and `scaling_eff` for `p`-way parallelism, from
    /// walls net of host CPU steal ([`net_of_steal`]); the raw figures are printed beside.
    pub fn report(&self, m: &mut Measured, what: &str, p: usize) {
        let ((b, wp), (b1, w1)) = (net_of_steal(&self.p), net_of_steal(&self.one));
        let (q, tail_ms) = tail(&wp);
        let (p50, p50_1) = (median(&wp), median(&w1));
        let eff = p50_1 / (p as f64 * p50);
        m.set("run_ms_p50", p50);
        m.set("run_ms_tail", tail_ms);
        m.set("scaling_eff", eff);
        let raw: Vec<f64> = self.p.iter().map(|s| s.0).collect();
        let raw_1: Vec<f64> = self.one.iter().map(|s| s.0).collect();
        let stolen: Vec<f64> = self.p.iter().map(|s| s.1).collect();
        m.lines.push(format!(
            "run_ms_p50 = {p50:.4} ms, run_ms_tail = {tail_ms:.4} ms (p{}, {} {what}), net of \
             host cpu steal (slope {b:.3}; raw {:.4} / {:.4} ms; median stolen {:.1} ms/op)",
            q * 100.0,
            self.p.len(),
            median(&raw),
            tail(&raw).1,
            median(&stolen)
        ));
        m.lines.push(format!(
            "scaling_eff = {eff:.4} ratio ({p50_1:.4} ms 1-way, slope {b1:.3}; {p50:.4} ms \
             {p}-way; raw {:.4})",
            median(&raw_1) / (p as f64 * median(&raw))
        ));
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall of `f` over `n` calls, ms.
pub fn time_ms<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            ms(start.elapsed())
        })
        .collect();
    median(&times)
}

/// SplitMix64: the seeded generator behind every benchmark input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Build the workload state `ctx.setups` times, timing each build, and keep the last.
/// Reports the median build time as `setup_s`. Earlier states are dropped before the next
/// build starts, so no two are alive at once.
pub fn repeated_setup<S>(ctx: &RunCtx, m: &mut Measured, mut build: impl FnMut() -> S) -> S {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..ctx.setups.max(1) {
        drop(state.take());
        let start = Instant::now();
        state = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    m.set("setup_s", median(&times));
    state.expect("at least one set-up ran")
}

/// The process's peak resident set (`VmHWM`), in MB; 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert_eq!(tail(&xs).0, 0.9);
        assert_eq!(tail(&xs[..39]).0, 0.5);
        assert_eq!(tail(&xs[..40]).0, 0.75);
    }

    #[test]
    fn steal_is_taken_out_at_the_fitted_slope() {
        // 50 ms operations, each delayed by half of the 0..=40 ms stolen during it.
        let samples: Vec<(f64, f64)> =
            (0..50).map(|i| f64::from(i % 5) * 10.0).map(|s| (50.0 + 0.5 * s, s)).collect();
        let (b, walls) = net_of_steal(&samples);
        assert!((b - 0.5).abs() < 1e-9);
        assert!(walls.iter().all(|w| (w - 50.0).abs() < 1e-9));
        // Nothing stolen: the walls are the raw walls.
        let quiet = [(3.0, 0.0), (4.0, 0.0)];
        assert_eq!(net_of_steal(&quiet), (0.0, vec![3.0, 4.0]));
    }

    #[test]
    fn the_generator_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
