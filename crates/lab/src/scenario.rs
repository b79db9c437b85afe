//! Declarative experiment specs: the [`Scenario`] struct and its file format.
//!
//! A scenario file is a plain `key = value` text (comments with `#`, lists
//! comma-separated) describing one experiment: which workload at which size, which
//! backends, which machine, which seeds, what to sweep, and which paper bounds to check at
//! what slack. Example:
//!
//! ```text
//! # prefix sums on both backends, sweeping the processor count
//! name = quick
//! workload = prefix-sums
//! n = 1024
//! backends = sim, native
//! seeds = 11, 23
//! sweep = procs: 1, 2
//! checks = steals, block-misses, runtime
//! slack.steals = 4
//! ```
//!
//! Everything but `name`, `workload` and `n` has defaults; [`Scenario::parse`] validates
//! eagerly (unknown keys, malformed lists, sizes the dag builders would reject, checks that
//! do not apply to the workload) so a scenario that parses is runnable end to end.

use rws_exec::workloads::by_name;
use rws_exec::SharedWorkload;
use rws_machine::MachineConfig;
use std::fmt;

/// Which algorithm a scenario runs. Instances come from the deterministic `demo`
/// constructors of `rws_exec::workloads`, so a scenario names a reproducible input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Prefix sums — the paper's canonical BP computation.
    PrefixSums,
    /// Depth-`log² n` limited-access matrix multiplication.
    MatMul,
    /// HBP merge sort.
    MergeSort,
    /// FFT via the √n decomposition.
    Fft,
    /// Bit-interleaved matrix transpose (quadrant-recursive).
    Transpose,
    /// List ranking by round-synchronized pointer jumping.
    ListRank,
    /// Arbitrary-dependency task graph by atomic indegree counting (measured-only).
    DagWorkflow,
    /// Level-synchronized BFS on a seeded random graph (measured-only).
    Bfs,
    /// CSR sparse matrix–vector multiply (a balanced BP pass; paper checks apply).
    Spmv,
    /// Three-phase sample sort with data-dependent buckets (measured-only).
    SampleSort,
}

impl WorkloadKind {
    /// Parse a scenario-file workload name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        match s {
            "prefix-sums" | "prefix" => Some(WorkloadKind::PrefixSums),
            "matmul" => Some(WorkloadKind::MatMul),
            "merge-sort" | "hbp-mergesort" | "sort" => Some(WorkloadKind::MergeSort),
            "fft" => Some(WorkloadKind::Fft),
            "transpose" => Some(WorkloadKind::Transpose),
            "list-ranking" | "listrank" => Some(WorkloadKind::ListRank),
            "dag-workflow" | "dag_workflow" | "taskgraph" => Some(WorkloadKind::DagWorkflow),
            "bfs" => Some(WorkloadKind::Bfs),
            "spmv" => Some(WorkloadKind::Spmv),
            "sample-sort" | "samplesort" => Some(WorkloadKind::SampleSort),
            _ => None,
        }
    }

    /// Canonical scenario-file name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PrefixSums => "prefix-sums",
            WorkloadKind::MatMul => "matmul",
            WorkloadKind::MergeSort => "merge-sort",
            WorkloadKind::Fft => "fft",
            WorkloadKind::Transpose => "transpose",
            WorkloadKind::ListRank => "list-ranking",
            WorkloadKind::DagWorkflow => "dag-workflow",
            WorkloadKind::Bfs => "bfs",
            WorkloadKind::Spmv => "spmv",
            WorkloadKind::SampleSort => "sample-sort",
        }
    }

    /// Whether this workload's structure escapes the paper's fork-join analysis (data-
    /// dependent task graphs, frontiers, or bucket sizes). Measured-only workloads take no
    /// bound checks — requesting one is a parse error, and reports carry an explicit
    /// `[measured only]` label instead of silently skipping the comparison.
    pub fn measured_only(self) -> bool {
        matches!(self, WorkloadKind::DagWorkflow | WorkloadKind::Bfs | WorkloadKind::SampleSort)
    }

    /// The default recursion-base parameter where the workload takes one.
    pub fn default_base(self) -> usize {
        match self {
            WorkloadKind::MatMul | WorkloadKind::Transpose => 4,
            _ => 0, // the demo constructors pick their own
        }
    }

    /// Whether this workload can run on the multi-process sharded backend. A shardable
    /// workload's demo instance declares a `ShardSpec` (rebuildable by spec in a worker
    /// process) and a per-part native kernel; `tests/shardable_agreement.rs` pins this
    /// list against what the instances actually declare.
    pub fn shardable(self) -> bool {
        matches!(self, WorkloadKind::MatMul | WorkloadKind::Spmv)
    }

    /// Build the deterministic workload instance for size `n` (and `base` where used),
    /// through the `rws_exec::workloads::by_name` registry.
    pub fn instantiate(self, n: usize, base: usize) -> SharedWorkload {
        by_name(self.name(), n, base).expect("every canonical workload name is registered")
    }
}

/// Which execution backend(s) a scenario runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    /// The `rws-core` discrete-event simulator (exact paper-model counters).
    Sim,
    /// The `rws-runtime` native thread pool (wall-clock time, pool counters).
    Native,
    /// The `rws-shard` multi-process executor (worker subprocesses over pipes); only
    /// shardable workloads ([`WorkloadKind::shardable`]) accept it.
    Sharded,
}

impl BackendChoice {
    /// Parse a scenario-file backend name.
    pub fn parse(s: &str) -> Option<BackendChoice> {
        match s {
            "sim" | "simulated" => Some(BackendChoice::Sim),
            "native" => Some(BackendChoice::Native),
            "sharded" => Some(BackendChoice::Sharded),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Sim => "sim",
            BackendChoice::Native => "native",
            BackendChoice::Sharded => "sharded",
        }
    }
}

/// The sweep axis: the one parameter a scenario varies across runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepAxis {
    /// Vary the processor count (simulated processors / native worker threads).
    Procs(Vec<usize>),
    /// Vary the simulated block (cache-line) size `B` in words. Native runs have no block
    /// parameter, so under this axis they execute once per seed at the scenario's `procs`.
    BlockWords(Vec<u64>),
    /// Vary the sharded backend's shard (subprocess) count. Sim and native runs have no
    /// shard parameter, so under this axis they execute once per seed at the scenario's
    /// `procs` (the same off-axis rule as native under `block_words`).
    Shards(Vec<usize>),
}

impl SweepAxis {
    /// The axis name as recorded in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SweepAxis::Procs(_) => "procs",
            SweepAxis::BlockWords(_) => "block_words",
            SweepAxis::Shards(_) => "shards",
        }
    }
}

/// Which paper bound a check compares a run against (formulas from `rws-analysis`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// Measured successful steals vs the per-algorithm steal bound
    /// (Theorems 5.1/6.2/6.3, Lemma 7.1, Theorem 7.1).
    Steals,
    /// Measured coherence block misses vs the `O(S·B)` block-delay envelope (Lemma 4.5).
    BlockMisses,
    /// Measured makespan vs the end-to-end runtime bound (Theorem 6.4).
    Runtime,
    /// Measured cache misses vs the matrix-multiply miss bound (Lemma 3.1); only
    /// meaningful for the `matmul` workload, rejected elsewhere at parse time.
    CacheMisses,
}

impl CheckKind {
    /// Parse a scenario-file check name.
    pub fn parse(s: &str) -> Option<CheckKind> {
        match s {
            "steals" => Some(CheckKind::Steals),
            "block-misses" => Some(CheckKind::BlockMisses),
            "runtime" => Some(CheckKind::Runtime),
            "cache-misses" => Some(CheckKind::CacheMisses),
            _ => None,
        }
    }

    /// Canonical name (also the `slack.<name>` key).
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::Steals => "steals",
            CheckKind::BlockMisses => "block-misses",
            CheckKind::Runtime => "runtime",
            CheckKind::CacheMisses => "cache-misses",
        }
    }

    /// Default slack: the constant factor the asymptotic bound elides. Generous enough
    /// that the committed scenarios pass on the simulator with headroom, tight enough that
    /// a formula or scheduler regression of one asymptotic factor fails.
    pub fn default_slack(self) -> f64 {
        match self {
            CheckKind::Steals => 4.0,
            CheckKind::BlockMisses => 8.0,
            CheckKind::Runtime => 4.0,
            CheckKind::CacheMisses => 8.0,
        }
    }

    fn all() -> [CheckKind; 4] {
        [CheckKind::Steals, CheckKind::BlockMisses, CheckKind::Runtime, CheckKind::CacheMisses]
    }
}

/// A parse/validation error: the offending line (0 for whole-file problems) and a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number, 0 when the problem is not tied to one line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: {}", self.msg)
        } else {
            write!(f, "scenario line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ScenarioError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError { line, msg: msg.into() })
}

/// One declarative experiment: everything the sweep engine needs to expand and run it.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (appears in reports and output file names).
    pub name: String,
    /// The algorithm.
    pub workload: WorkloadKind,
    /// Instance size (elements, keys, points, or matrix dimension — per workload).
    pub n: usize,
    /// Recursion base for the workloads that take one.
    pub base: usize,
    /// Backends to run on (deduplicated, in declaration order).
    pub backends: Vec<BackendChoice>,
    /// Scheduler seeds; on the native backend (no scheduling RNG) each seed is one timed
    /// repetition.
    pub seeds: Vec<u64>,
    /// Processor/thread count used when the sweep axis is not `procs`.
    pub procs: usize,
    /// Shard (subprocess) count for the sharded backend when the sweep axis is not
    /// `shards`.
    pub shards: usize,
    /// Native-pool threads inside each shard worker.
    pub shard_threads: usize,
    /// The simulated machine (its `procs`/`block_words` are overridden by the sweep).
    pub machine: MachineConfig,
    /// The sweep axis, if any.
    pub sweep: Option<SweepAxis>,
    /// Bound checks to evaluate on every simulated run, with their slack factors.
    pub checks: Vec<(CheckKind, f64)>,
}

impl Scenario {
    /// Parse and validate a scenario file.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let mut name: Option<String> = None;
        let mut workload: Option<WorkloadKind> = None;
        let mut n: Option<usize> = None;
        let mut base: Option<usize> = None;
        let mut backends: Option<Vec<BackendChoice>> = None;
        let mut seeds: Option<Vec<u64>> = None;
        let mut procs: Option<usize> = None;
        let mut shards: Option<usize> = None;
        let mut shard_threads: Option<usize> = None;
        let mut machine = MachineConfig::small();
        let mut sweep: Option<SweepAxis> = None;
        let mut checks: Option<Vec<CheckKind>> = None;
        let mut slacks: Vec<(CheckKind, f64, usize)> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let ln = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return err(ln, format!("expected `key = value`, got `{line}`"));
            };
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return err(ln, format!("`{key}` has no value"));
            }
            match key {
                "name" => name = Some(value.to_string()),
                "workload" => match WorkloadKind::parse(value) {
                    Some(w) => workload = Some(w),
                    None => {
                        return err(
                            ln,
                            format!(
                                "unknown workload `{value}` (expected prefix-sums, matmul, \
                                 merge-sort, fft, transpose, list-ranking, dag-workflow, \
                                 bfs, spmv, or sample-sort)"
                            ),
                        )
                    }
                },
                "n" => n = Some(parse_num(ln, "n", value)?),
                "base" => {
                    let b: usize = parse_num(ln, "base", value)?;
                    if !b.is_power_of_two() {
                        return err(ln, format!("base = {b} must be a power of two ≥ 1"));
                    }
                    base = Some(b);
                }
                "backends" => {
                    let mut list = Vec::new();
                    for item in split_list(value) {
                        match BackendChoice::parse(item) {
                            Some(b) if !list.contains(&b) => list.push(b),
                            Some(_) => {}
                            None => {
                                return err(
                                    ln,
                                    format!(
                                        "unknown backend `{item}` (expected sim, native, or \
                                         sharded)"
                                    ),
                                )
                            }
                        }
                    }
                    backends = Some(list);
                }
                "seeds" => {
                    let mut list = Vec::new();
                    for item in split_list(value) {
                        list.push(parse_num(ln, "seeds", item)?);
                    }
                    seeds = Some(list);
                }
                "procs" => procs = Some(parse_num(ln, "procs", value)?),
                "shards" => shards = Some(parse_num(ln, "shards", value)?),
                "shard_threads" => shard_threads = Some(parse_num(ln, "shard_threads", value)?),
                "cache_words" => machine.cache_words = parse_num(ln, "cache_words", value)?,
                "block_words" => machine.block_words = parse_num(ln, "block_words", value)?,
                "miss_cost" => machine.miss_cost = parse_num(ln, "miss_cost", value)?,
                "steal_cost" => {
                    machine.steal_cost = parse_num(ln, "steal_cost", value)?;
                    machine.failed_steal_cost = machine.steal_cost;
                }
                "sweep" => {
                    let Some((axis, values)) = value.split_once(':') else {
                        return err(ln, "sweep must be `axis: v1, v2, …`");
                    };
                    let axis = axis.trim();
                    let items = split_list(values);
                    if items.is_empty() {
                        return err(ln, "sweep needs at least one value");
                    }
                    sweep = Some(match axis {
                        "procs" | "threads" => {
                            let mut vs = Vec::new();
                            for item in items {
                                vs.push(parse_num(ln, "sweep procs", item)?);
                            }
                            SweepAxis::Procs(vs)
                        }
                        "block_words" => {
                            let mut vs = Vec::new();
                            for item in items {
                                vs.push(parse_num(ln, "sweep block_words", item)?);
                            }
                            SweepAxis::BlockWords(vs)
                        }
                        "shards" => {
                            let mut vs = Vec::new();
                            for item in items {
                                vs.push(parse_num(ln, "sweep shards", item)?);
                            }
                            SweepAxis::Shards(vs)
                        }
                        other => {
                            return err(
                                ln,
                                format!(
                                    "unknown sweep axis `{other}` (expected procs, \
                                     block_words, or shards)"
                                ),
                            )
                        }
                    });
                }
                "checks" => {
                    let mut list = Vec::new();
                    for item in split_list(value) {
                        if item == "none" {
                            continue;
                        }
                        match CheckKind::parse(item) {
                            Some(c) if !list.contains(&c) => list.push(c),
                            Some(_) => {}
                            None => {
                                return err(
                                    ln,
                                    format!(
                                        "unknown check `{item}` (expected steals, \
                                         block-misses, runtime, or cache-misses)"
                                    ),
                                )
                            }
                        }
                    }
                    checks = Some(list);
                }
                other => {
                    if let Some(check_name) = other.strip_prefix("slack.") {
                        let Some(kind) = CheckKind::parse(check_name) else {
                            return err(ln, format!("unknown check in `{other}`"));
                        };
                        let v: f64 =
                            value.parse().ok().filter(|v: &f64| v.is_finite() && *v > 0.0).ok_or(
                                ScenarioError {
                                    line: ln,
                                    msg: format!("`{other}` must be a positive number"),
                                },
                            )?;
                        slacks.push((kind, v, ln));
                    } else {
                        return err(ln, format!("unknown key `{other}`"));
                    }
                }
            }
        }

        let Some(name) = name else { return err(0, "missing required key `name`") };
        let Some(workload) = workload else { return err(0, "missing required key `workload`") };
        let Some(n) = n else { return err(0, "missing required key `n`") };
        if n < 2 || !n.is_power_of_two() {
            return err(
                0,
                format!("n = {n} must be a power of two ≥ 2 (the dag builders require it)"),
            );
        }
        if base.is_some() && !matches!(workload, WorkloadKind::MatMul | WorkloadKind::Transpose) {
            return err(
                0,
                format!(
                    "`base` is only consumed by the matmul and transpose workloads; `{}` \
                     picks its own recursion base (drop the key rather than letting the run \
                     silently ignore it)",
                    workload.name()
                ),
            );
        }
        let base = base.unwrap_or_else(|| workload.default_base());
        let backends = backends.unwrap_or_else(|| vec![BackendChoice::Sim]);
        if backends.is_empty() {
            return err(0, "backends must name at least one of sim, native, sharded");
        }
        let seeds = seeds.unwrap_or_else(|| vec![11]);
        if seeds.is_empty() {
            return err(0, "seeds must contain at least one seed");
        }
        let procs = procs.unwrap_or(machine.procs);
        if procs == 0 {
            return err(0, "procs must be at least 1");
        }
        if let Some(SweepAxis::Procs(vs)) = &sweep {
            if vs.contains(&0) {
                return err(0, "sweep procs values must be at least 1");
            }
        }
        if let Some(SweepAxis::BlockWords(vs)) = &sweep {
            if vs.contains(&0) {
                return err(0, "sweep block_words values must be at least 1");
            }
        }
        if let Some(SweepAxis::Shards(vs)) = &sweep {
            if vs.contains(&0) {
                return err(0, "sweep shards values must be at least 1");
            }
        }
        let shards = shards.unwrap_or(2);
        let shard_threads = shard_threads.unwrap_or(1);
        let uses_sharded = backends.contains(&BackendChoice::Sharded);
        if shards == 0 || shard_threads == 0 {
            return err(0, "shards and shard_threads must be at least 1");
        }
        if matches!(sweep, Some(SweepAxis::Shards(_))) && !uses_sharded {
            return err(
                0,
                "sweep = shards varies the sharded backend's subprocess count, but `sharded` \
                 is not in backends",
            );
        }
        if uses_sharded && !workload.shardable() {
            return err(
                0,
                format!(
                    "workload `{}` cannot run on the sharded backend: it declares no shard \
                     partition (only spec-rebuildable workloads — matmul, spmv — cross the \
                     process boundary)",
                    workload.name()
                ),
            );
        }
        // Default: the three paper checks for workloads the fork-join analysis covers;
        // measured-only workloads default to no checks (and reject any, below) — an honest
        // "no paper bound applies" rather than a vacuous pass.
        let checks = checks.unwrap_or_else(|| {
            if workload.measured_only() {
                Vec::new()
            } else {
                vec![CheckKind::Steals, CheckKind::BlockMisses, CheckKind::Runtime]
            }
        });
        if workload.measured_only() && !checks.is_empty() {
            return err(
                0,
                format!(
                    "workload `{}` is measured-only: its task structure is data-dependent, so \
                     the paper's fork-join bounds do not apply — use `checks = none`",
                    workload.name()
                ),
            );
        }
        if checks.contains(&CheckKind::CacheMisses) && workload != WorkloadKind::MatMul {
            return err(
                0,
                "the cache-misses check evaluates the matrix-multiply bound (Lemma 3.1) and \
                 only applies to workload = matmul",
            );
        }
        let mut checks_with_slack: Vec<(CheckKind, f64)> =
            checks.iter().map(|&c| (c, c.default_slack())).collect();
        for (kind, slack, ln) in slacks {
            match checks_with_slack.iter_mut().find(|(c, _)| *c == kind) {
                Some(entry) => entry.1 = slack,
                None => {
                    return err(
                        ln,
                        format!(
                            "slack.{} given but `{}` is not in checks",
                            kind.name(),
                            kind.name()
                        ),
                    )
                }
            }
        }
        debug_assert!(CheckKind::all().len() >= checks_with_slack.len());

        machine.procs = procs;
        if let Err(e) = machine.validate() {
            return err(0, format!("invalid machine: {e}"));
        }
        // The sweep engine mutates the machine per run; validate every swept configuration
        // now so "a scenario that parses is runnable end to end" holds (a block size larger
        // than the cache, say, must be a parse error here, not a scheduler panic later).
        match &sweep {
            Some(SweepAxis::BlockWords(vs)) => {
                for &b in vs {
                    let swept = MachineConfig { block_words: b, ..machine.clone() };
                    if let Err(e) = swept.validate() {
                        return err(0, format!("invalid machine at sweep block_words = {b}: {e}"));
                    }
                }
            }
            Some(SweepAxis::Procs(vs)) => {
                for &p in vs {
                    let swept = MachineConfig { procs: p, ..machine.clone() };
                    if let Err(e) = swept.validate() {
                        return err(0, format!("invalid machine at sweep procs = {p}: {e}"));
                    }
                }
            }
            // The shard count is not a simulated-machine parameter; nothing to validate.
            Some(SweepAxis::Shards(_)) | None => {}
        }

        Ok(Scenario {
            name,
            workload,
            n,
            base,
            backends,
            seeds,
            procs,
            shards,
            shard_threads,
            machine,
            sweep,
            checks: checks_with_slack,
        })
    }

    /// The deterministic workload instance this scenario runs.
    pub fn instantiate(&self) -> SharedWorkload {
        self.workload.instantiate(self.n, self.base)
    }
}

fn split_list(value: &str) -> Vec<&str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty()).collect()
}

fn parse_num<T: std::str::FromStr>(
    line: usize,
    key: &str,
    value: &str,
) -> Result<T, ScenarioError> {
    value.parse().map_err(|_| ScenarioError {
        line,
        msg: format!("`{key}` expects a number, got `{value}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "
        # a comment
        name = demo
        workload = prefix-sums
        n = 1024            # inline comment
        backends = sim, native
        seeds = 11, 23
        sweep = procs: 1, 2, 4
        checks = steals, block-misses, runtime
        slack.steals = 6
    ";

    #[test]
    fn parses_a_full_scenario() {
        let sc = Scenario::parse(GOOD).expect("must parse");
        assert_eq!(sc.name, "demo");
        assert_eq!(sc.workload, WorkloadKind::PrefixSums);
        assert_eq!(sc.n, 1024);
        assert_eq!(sc.backends, vec![BackendChoice::Sim, BackendChoice::Native]);
        assert_eq!(sc.seeds, vec![11, 23]);
        assert_eq!(sc.sweep, Some(SweepAxis::Procs(vec![1, 2, 4])));
        assert_eq!(sc.checks.len(), 3);
        let steals = sc.checks.iter().find(|(c, _)| *c == CheckKind::Steals).unwrap();
        assert_eq!(steals.1, 6.0, "slack override applies");
        let runtime = sc.checks.iter().find(|(c, _)| *c == CheckKind::Runtime).unwrap();
        assert_eq!(runtime.1, CheckKind::Runtime.default_slack());
        assert!(sc.instantiate().name().contains("prefix-sums"));
    }

    #[test]
    fn defaults_fill_in() {
        let sc = Scenario::parse("name = d\nworkload = matmul\nn = 16").expect("must parse");
        assert_eq!(sc.backends, vec![BackendChoice::Sim]);
        assert_eq!(sc.seeds, vec![11]);
        assert_eq!(sc.base, 4);
        assert_eq!(sc.procs, sc.machine.procs);
        assert!(sc.sweep.is_none());
        assert_eq!(sc.checks.len(), 3, "default checks are the three paper checks");
    }

    #[test]
    fn rejects_malformed_inputs() {
        for (text, needle) in [
            ("workload = fft\nn = 64", "missing required key `name`"),
            ("name = x\nn = 64", "missing required key `workload`"),
            ("name = x\nworkload = fft", "missing required key `n`"),
            ("name = x\nworkload = fft\nn = 100", "power of two"),
            ("name = x\nworkload = fft\nn = 64\nbogus = 1", "unknown key"),
            ("name = x\nworkload = fft\nn = 64\nsweep = misses: 1", "unknown sweep axis"),
            ("name = x\nworkload = fft\nn = 64\nchecks = cache-misses", "matmul"),
            (
                "name = x\nworkload = fft\nn = 64\nslack.runtime = 2\nchecks = steals",
                "not in checks",
            ),
            ("name = x\nworkload = fft\nn = 64\nno_equals_here", "key = value"),
            ("name = x\nworkload = fft\nn = 64\nseeds = 1, nope", "expects a number"),
            ("name = x\nworkload = fft\nn = 64\nsteal_cost = 1", "invalid machine"),
            ("name = x\nworkload = merge-sort\nn = 64\nbase = 2", "picks its own"),
            ("name = b0\nworkload = matmul\nn = 16\nbase = 0", "line 4: base = 0"),
            ("name = x\nworkload = transpose\nn = 16\nbase = 3", "line 4: base = 3"),
            ("name = x\nworkload = bfs\nn = 64\nchecks = steals", "measured-only"),
            ("name = x\nworkload = dag-workflow\nn = 64\nchecks = runtime", "measured-only"),
            ("name = x\nworkload = sample-sort\nn = 64\nchecks = block-misses", "measured-only"),
            (
                "name = x\nworkload = fft\nn = 64\nsweep = block_words: 8, 8192",
                "sweep block_words = 8192",
            ),
        ] {
            let e = Scenario::parse(text).expect_err(text);
            assert!(e.to_string().contains(needle), "`{text}` -> `{e}` missing `{needle}`");
        }
    }

    #[test]
    fn swept_machines_are_validated_at_parse_time() {
        // Every value a sweep will instantiate must already be a valid machine, so the
        // "parses => runnable" contract holds (no scheduler panic mid-run).
        let ok = Scenario::parse("name = x\nworkload = fft\nn = 64\nsweep = block_words: 4, 8, 16");
        assert!(ok.is_ok());
        for (text, needle) in [
            (
                "name = x\nworkload = fft\nn = 64\ncache_words = 64\nsweep = block_words: 8, 128",
                "block_words = 128",
            ),
            ("name = x\nworkload = fft\nn = 64\nsweep = procs: 1, 0", "at least 1"),
        ] {
            let e = Scenario::parse(text).expect_err(text);
            assert!(e.to_string().contains(needle), "`{text}` -> `{e}` missing `{needle}`");
        }
    }

    #[test]
    fn measured_only_workloads_default_to_no_checks() {
        for w in ["dag-workflow", "bfs", "sample-sort"] {
            let sc =
                Scenario::parse(&format!("name = x\nworkload = {w}\nn = 64")).expect("must parse");
            assert!(sc.workload.measured_only());
            assert!(sc.checks.is_empty(), "{w} takes no paper-bound checks");
        }
        // SpMV is irregular *data* but regular structure: the paper checks stay on.
        let sc = Scenario::parse("name = x\nworkload = spmv\nn = 64").expect("must parse");
        assert!(!sc.workload.measured_only());
        assert_eq!(sc.checks.len(), 3, "spmv keeps the three default paper checks");
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            WorkloadKind::PrefixSums,
            WorkloadKind::MatMul,
            WorkloadKind::MergeSort,
            WorkloadKind::Fft,
            WorkloadKind::Transpose,
            WorkloadKind::ListRank,
            WorkloadKind::DagWorkflow,
            WorkloadKind::Bfs,
            WorkloadKind::Spmv,
            WorkloadKind::SampleSort,
        ] {
            assert_eq!(WorkloadKind::parse(k.name()), Some(k));
        }
        for c in CheckKind::all() {
            assert_eq!(CheckKind::parse(c.name()), Some(c));
            assert!(c.default_slack() > 0.0);
        }
        for b in [BackendChoice::Sim, BackendChoice::Native, BackendChoice::Sharded] {
            assert_eq!(BackendChoice::parse(b.name()), Some(b));
        }
    }

    #[test]
    fn sharded_scenarios_parse_with_shape_keys_and_sweep() {
        let sc = Scenario::parse(
            "name = s\nworkload = matmul\nn = 16\nbackends = sim, native, sharded\n\
             shards = 3\nshard_threads = 2\nsweep = shards: 1, 2",
        )
        .expect("must parse");
        assert_eq!(sc.shards, 3);
        assert_eq!(sc.shard_threads, 2);
        assert_eq!(sc.sweep, Some(SweepAxis::Shards(vec![1, 2])));
        assert!(sc.backends.contains(&BackendChoice::Sharded));

        let defaults =
            Scenario::parse("name = s\nworkload = spmv\nn = 64\nbackends = sharded").unwrap();
        assert_eq!((defaults.shards, defaults.shard_threads), (2, 1));
    }

    #[test]
    fn sharded_misuse_is_rejected_at_parse_time() {
        for (text, needle) in [
            (
                "name = x\nworkload = fft\nn = 64\nbackends = sharded",
                "cannot run on the sharded backend",
            ),
            (
                "name = x\nworkload = matmul\nn = 16\nbackends = sim\nsweep = shards: 1, 2",
                "`sharded` is not in backends",
            ),
            (
                "name = x\nworkload = matmul\nn = 16\nbackends = sharded\nsweep = shards: 0, 2",
                "at least 1",
            ),
            ("name = x\nworkload = matmul\nn = 16\nbackends = sharded\nshards = 0", "at least 1"),
        ] {
            let e = Scenario::parse(text).expect_err(text);
            assert!(e.to_string().contains(needle), "`{text}` -> `{e}` missing `{needle}`");
        }
    }
}
