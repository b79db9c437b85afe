//! The coordinator: [`ShardedExecutor`], the multi-process backend behind
//! [`rws_exec::Executor`].
//!
//! `execute()` splits the workload's index space into `shards × jobs_per_shard`
//! contiguous parts (see [`rws_exec::part_range`]), spawns one `shard-worker` subprocess
//! per shard, and streams [`crate::proto::Message::Job`] frames to them under the chosen
//! [`DispatchPolicy`]. Results are reassembled in part order with
//! [`rws_exec::AlgoOutput::concat`], so the output is byte-identical to an in-process
//! native run of the same kernels.
//!
//! # Failure model
//!
//! A shard is declared dead on any of: EOF on its stdout pipe (process exit), a failed
//! write to its stdin (broken pipe), an [`crate::proto::Message::Error`] frame, or a
//! heartbeat gap longer than the configured timeout (a wedged-but-alive process, which
//! the coordinator then kills). Death triggers **redistribution**: every job dispatched
//! to that shard and not yet acknowledged goes back to the front of the pending queue
//! and is re-dispatched to the survivors. Because a slow-but-not-dead shard may still
//! deliver a result for a job that was redistributed, the coordinator accepts only the
//! *first* result per job id and drops later duplicates — jobs are at-least-once,
//! acceptance is at-most-once, and the assembled output is exactly one result per part.
//! If every shard dies before the output is complete, `execute` panics with a diagnostic
//! rather than returning a partial result.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{JobSpec, Message, PartStats, VERSION};
use rws_exec::{
    AlgoOutput, Backend, ExecOutcome, ExecReport, Executor, ShardDetail, SharedWorkload,
};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How the coordinator chooses a shard for the next pending job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through live shards in order, keeping at most [`DISPATCH_WINDOW`] jobs in
    /// flight per shard.
    RoundRobin,
    /// Send each job to the live shard with the smallest load estimate
    /// (last heartbeat's queue depth plus unacknowledged in-flight jobs), same window.
    LeastLoaded,
    /// Assign every part up front: shard `⌊part·shards/parts⌋` owns part `part`, so each
    /// shard receives one contiguous band of the index space. Redistribution after a
    /// death falls back to round-robin over the survivors.
    Static,
}

impl DispatchPolicy {
    /// The policy's canonical name (scenario files and executor names use these).
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::Static => "static",
        }
    }

    /// Parse a canonical name (the inverse of [`DispatchPolicy::name`]).
    pub fn parse(s: &str) -> Option<DispatchPolicy> {
        Some(match s {
            "round-robin" => DispatchPolicy::RoundRobin,
            "least-loaded" => DispatchPolicy::LeastLoaded,
            "static" => DispatchPolicy::Static,
            _ => return None,
        })
    }
}

/// Max unacknowledged jobs per shard under the adaptive policies. Two keeps every shard's
/// pipe primed (one computing, one queued) without committing work that a death would
/// force to be redistributed.
pub const DISPATCH_WINDOW: usize = 2;

/// Default heartbeat-silence span after which a shard is declared dead.
pub const DEFAULT_HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(1000);

/// Per-shard fault-injection script, forwarded to the worker via its environment
/// ([`crate::worker::ENV_FAIL_AFTER_JOBS`] / [`crate::worker::ENV_STALL_AFTER_JOBS`]).
#[derive(Clone, Copy, Debug, Default)]
struct ShardFault {
    exit_after: Option<u64>,
    stall_after: Option<u64>,
}

/// The multi-process sharded executor. Pure configuration — all per-run state lives
/// inside `execute()`, so one instance can run many workloads.
#[derive(Clone, Debug)]
pub struct ShardedExecutor {
    shards: usize,
    threads_per_shard: usize,
    policy: DispatchPolicy,
    jobs_per_shard: usize,
    heartbeat_timeout: Duration,
    worker_path: Option<PathBuf>,
    faults: Vec<ShardFault>,
}

impl ShardedExecutor {
    /// An executor over `shards` worker subprocesses with one pool thread each,
    /// round-robin dispatch, and defaults for everything else.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a sharded executor needs at least one shard");
        ShardedExecutor {
            shards,
            threads_per_shard: 1,
            policy: DispatchPolicy::RoundRobin,
            jobs_per_shard: 4,
            heartbeat_timeout: DEFAULT_HEARTBEAT_TIMEOUT,
            worker_path: None,
            faults: vec![ShardFault::default(); shards],
        }
    }

    /// Set the native-pool thread count inside each worker.
    pub fn threads_per_shard(mut self, threads: usize) -> Self {
        self.threads_per_shard = threads.max(1);
        self
    }

    /// Set the dispatch policy.
    pub fn policy(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set how many parts each shard nominally owns; total parts are
    /// `shards × jobs_per_shard`.
    pub fn jobs_per_shard(mut self, jobs: usize) -> Self {
        self.jobs_per_shard = jobs.max(1);
        self
    }

    /// Set the heartbeat-silence timeout after which a shard is declared dead.
    pub fn heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.heartbeat_timeout = timeout;
        self
    }

    /// Override the worker binary path (otherwise discovered next to the current
    /// executable, or via the `RWS_SHARD_WORKER` environment variable).
    pub fn worker_path(mut self, path: PathBuf) -> Self {
        self.worker_path = Some(path);
        self
    }

    /// Chaos knob: script shard `shard` to crash on taking its next job once it has
    /// produced `jobs` results, so it always dies holding unacknowledged work.
    pub fn fault_exit_after(mut self, shard: usize, jobs: u64) -> Self {
        self.faults[shard].exit_after = Some(jobs);
        self
    }

    /// Chaos knob: script shard `shard` to wedge (stop answering and heartbeating)
    /// after producing `jobs` results.
    pub fn fault_stall_after(mut self, shard: usize, jobs: u64) -> Self {
        self.faults[shard].stall_after = Some(jobs);
        self
    }

    fn resolve_worker(&self) -> PathBuf {
        if let Some(path) = &self.worker_path {
            return path.clone();
        }
        if let Ok(path) = std::env::var("RWS_SHARD_WORKER") {
            return PathBuf::from(path);
        }
        let mut path = std::env::current_exe().expect("cannot locate current executable");
        path.pop();
        // Test binaries live in target/<profile>/deps/; the worker bin sits one up.
        if path.file_name().and_then(|n| n.to_str()) == Some("deps") {
            path.pop();
        }
        path.push("shard-worker");
        assert!(
            path.exists(),
            "shard worker binary not found at {}: build it with `cargo build -p rws-shard` \
             or point RWS_SHARD_WORKER at it",
            path.display()
        );
        path
    }
}

// ------------------------------------------------------------------------------------------
// Per-run state
// ------------------------------------------------------------------------------------------

enum Event {
    Msg(Message),
    Eof,
}

struct ShardState {
    child: Child,
    stdin: Option<ChildStdin>,
    alive: bool,
    last_seen: Instant,
    queue_depth: u32,
    in_flight: usize,
    accepted: u64,
    _reader: thread::JoinHandle<()>,
}

struct Run {
    shards: Vec<ShardState>,
    pending: VecDeque<JobSpec>,
    in_flight: HashMap<u64, (usize, JobSpec)>,
    outputs: Vec<Option<AlgoOutput>>,
    done: usize,
    rr_cursor: usize,
    jobs_dispatched: u64,
    jobs_accepted: u64,
    redistributed: u64,
    shard_deaths: u64,
    heartbeats: u64,
    stats: PartStats,
}

impl Run {
    fn live_count(&self) -> usize {
        self.shards.iter().filter(|s| s.alive).count()
    }

    fn send_job(&mut self, shard: usize, job: &JobSpec) -> bool {
        let state = &mut self.shards[shard];
        let Some(stdin) = state.stdin.as_mut() else { return false };
        write_frame(stdin, &Message::Job(job.clone()).encode()).is_ok()
    }

    /// Declare `shard` dead: kill the process, and requeue its unacknowledged jobs at
    /// the front of the pending queue.
    fn mark_dead(&mut self, shard: usize, why: &str) {
        if !self.shards[shard].alive {
            return;
        }
        self.shards[shard].alive = false;
        self.shards[shard].stdin = None; // close its pipe
        let _ = self.shards[shard].child.kill();
        self.shard_deaths += 1;
        let orphans: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, (owner, _))| *owner == shard)
            .map(|(id, _)| *id)
            .collect();
        eprintln!(
            "sharded: shard {shard} died ({why}); redistributing {} unacknowledged job(s)",
            orphans.len()
        );
        for id in orphans {
            let (_, job) = self.in_flight.remove(&id).expect("orphan id just listed");
            self.pending.push_front(job);
            self.redistributed += 1;
        }
        self.shards[shard].in_flight = 0;
    }

    /// Pick the next shard for an adaptive dispatch (round-robin or least-loaded);
    /// `None` when every live shard's window is full.
    fn pick(&mut self, policy: DispatchPolicy) -> Option<usize> {
        let candidate =
            |s: &ShardState| s.alive && s.stdin.is_some() && s.in_flight < DISPATCH_WINDOW;
        match policy {
            DispatchPolicy::LeastLoaded => self
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| candidate(s))
                .min_by_key(|(i, s)| (s.queue_depth as usize + s.in_flight, *i))
                .map(|(i, _)| i),
            // Static only reaches here when redistributing after a death; fall back to
            // round-robin over the survivors.
            DispatchPolicy::RoundRobin | DispatchPolicy::Static => {
                let n = self.shards.len();
                for step in 0..n {
                    let i = (self.rr_cursor + step) % n;
                    if candidate(&self.shards[i]) {
                        self.rr_cursor = i + 1;
                        return Some(i);
                    }
                }
                None
            }
        }
    }

    /// Dispatch pending jobs until the queue drains or every live window is full.
    fn fill(&mut self, policy: DispatchPolicy) {
        while !self.pending.is_empty() {
            let Some(target) = self.pick(policy) else { break };
            let job = self.pending.pop_front().expect("pending non-empty");
            if self.send_job(target, &job) {
                self.shards[target].in_flight += 1;
                self.jobs_dispatched += 1;
                self.in_flight.insert(job.job_id, (target, job));
            } else {
                self.pending.push_front(job);
                self.mark_dead(target, "stdin write failed");
            }
        }
    }
}

impl Executor for ShardedExecutor {
    fn name(&self) -> String {
        format!("sharded(s={},t={},{})", self.shards, self.threads_per_shard, self.policy.name())
    }

    fn backend(&self) -> Backend {
        Backend::Sharded
    }

    fn procs(&self) -> usize {
        self.shards * self.threads_per_shard
    }

    fn execute(&self, workload: SharedWorkload) -> ExecOutcome {
        let spec = workload.shard_spec().unwrap_or_else(|| {
            panic!(
                "workload {} is not shardable: shard_spec() returned None \
                 (only spec-rebuildable demo workloads can cross the process boundary)",
                workload.name()
            )
        });
        let worker = self.resolve_worker();
        let start = Instant::now();
        let parts = self.shards * self.jobs_per_shard;

        // Part `i` is job id `i + 1` (0 is reserved for pre-job errors), so a result's
        // slot in the output table follows from its id alone — no lookup needed to
        // detect duplicates after redistribution.
        let pending: VecDeque<JobSpec> = (0..parts)
            .map(|i| JobSpec {
                job_id: i as u64 + 1,
                part: i as u32,
                parts: parts as u32,
                n: spec.n as u64,
                base: spec.base as u64,
                kind: spec.kind.clone(),
            })
            .collect();

        // -- Spawn the shards --------------------------------------------------------
        let (tx, rx) = mpsc::channel::<(usize, Event)>();
        let mut shards = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let mut cmd = Command::new(&worker);
            cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::inherit());
            if let Some(n) = self.faults[shard].exit_after {
                cmd.env(crate::worker::ENV_FAIL_AFTER_JOBS, n.to_string());
            }
            if let Some(n) = self.faults[shard].stall_after {
                cmd.env(crate::worker::ENV_STALL_AFTER_JOBS, n.to_string());
            }
            let mut child = cmd
                .spawn()
                .unwrap_or_else(|e| panic!("cannot spawn shard worker {}: {e}", worker.display()));
            let mut stdin = child.stdin.take().expect("piped stdin");
            let mut stdout = child.stdout.take().expect("piped stdout");
            let tx = tx.clone();
            let reader = thread::spawn(move || loop {
                match read_frame(&mut stdout) {
                    Ok(payload) => match Message::decode(&payload) {
                        Ok(msg) => {
                            if tx.send((shard, Event::Msg(msg))).is_err() {
                                break;
                            }
                        }
                        Err(e) => {
                            eprintln!("sharded: shard {shard} spoke garbage ({e})");
                            let _ = tx.send((shard, Event::Eof));
                            break;
                        }
                    },
                    Err(e) => {
                        if !matches!(e, FrameError::CleanEof) {
                            eprintln!("sharded: shard {shard} pipe failed ({e})");
                        }
                        let _ = tx.send((shard, Event::Eof));
                        break;
                    }
                }
            });
            let hello = Message::Hello {
                version: VERSION,
                shard: shard as u16,
                threads: self.threads_per_shard as u32,
            };
            let alive = write_frame(&mut stdin, &hello.encode()).is_ok();
            shards.push(ShardState {
                child,
                stdin: alive.then_some(stdin),
                alive,
                last_seen: Instant::now(),
                queue_depth: 0,
                in_flight: 0,
                accepted: 0,
                _reader: reader,
            });
        }
        drop(tx);

        let mut run = Run {
            shards,
            pending,
            in_flight: HashMap::new(),
            outputs: vec![None; parts],
            done: 0,
            rr_cursor: 0,
            jobs_dispatched: 0,
            jobs_accepted: 0,
            redistributed: 0,
            shard_deaths: 0,
            heartbeats: 0,
            stats: PartStats::default(),
        };

        // -- Static pre-assignment ---------------------------------------------------
        if self.policy == DispatchPolicy::Static {
            let jobs: Vec<JobSpec> = run.pending.drain(..).collect();
            for job in jobs {
                let target = (job.part as usize * self.shards) / parts;
                if run.shards[target].alive && run.send_job(target, &job) {
                    run.shards[target].in_flight += 1;
                    run.jobs_dispatched += 1;
                    run.in_flight.insert(job.job_id, (target, job));
                } else {
                    run.pending.push_back(job);
                    run.mark_dead(target, "stdin write failed");
                }
            }
        }
        run.fill(self.policy);

        // -- Event loop --------------------------------------------------------------
        let tick = Duration::from_millis(20).min(self.heartbeat_timeout / 4);
        while run.done < parts {
            match rx.recv_timeout(tick) {
                Ok((shard, Event::Msg(msg))) => {
                    run.shards[shard].last_seen = Instant::now();
                    match msg {
                        Message::HelloAck { .. } => {}
                        Message::Heartbeat { queue_depth, .. } => {
                            run.shards[shard].queue_depth = queue_depth;
                            run.heartbeats += 1;
                        }
                        Message::JobResult { job_id, output, stats } => {
                            let idx = job_id.wrapping_sub(1) as usize;
                            if job_id == 0 || idx >= parts || run.outputs[idx].is_some() {
                                // Duplicate (job was redistributed, both copies ran) or
                                // bogus id: first ack already won, drop this one.
                            } else {
                                if let Some((owner, _)) = run.in_flight.remove(&job_id) {
                                    run.shards[owner].in_flight =
                                        run.shards[owner].in_flight.saturating_sub(1);
                                }
                                run.outputs[idx] = Some(output);
                                run.done += 1;
                                run.jobs_accepted += 1;
                                run.shards[shard].accepted += 1;
                                run.stats.steals += stats.steals;
                                run.stats.failed_steals += stats.failed_steals;
                                run.stats.work_items += stats.work_items;
                                run.stats.wall_ns += stats.wall_ns;
                            }
                        }
                        Message::Error { job_id, message } => {
                            eprintln!(
                                "sharded: shard {shard} reported error on job {job_id}: {message}"
                            );
                            run.mark_dead(shard, "error frame");
                        }
                        Message::Bye => {}
                        other => {
                            eprintln!(
                                "sharded: shard {shard} sent unexpected {:?}",
                                other.msg_type()
                            );
                        }
                    }
                }
                Ok((shard, Event::Eof)) => run.mark_dead(shard, "pipe closed"),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    for shard in 0..self.shards {
                        run.mark_dead(shard, "reader gone");
                    }
                }
            }
            // Heartbeat-silence sweep: catches wedged-but-alive workers.
            let now = Instant::now();
            for shard in 0..self.shards {
                if run.shards[shard].alive
                    && now.duration_since(run.shards[shard].last_seen) > self.heartbeat_timeout
                {
                    run.mark_dead(shard, "heartbeat timeout");
                }
            }
            if run.live_count() == 0 && run.done < parts {
                panic!(
                    "sharded: all {} shard(s) died with {}/{} parts complete \
                     (deaths={}, redistributed={}); see worker diagnostics above",
                    self.shards, run.done, parts, run.shard_deaths, run.redistributed
                );
            }
            run.fill(self.policy);
        }

        // -- Shutdown ----------------------------------------------------------------
        for state in run.shards.iter_mut().filter(|s| s.alive) {
            if let Some(stdin) = state.stdin.as_mut() {
                let _ = write_frame(stdin, &Message::Shutdown.encode());
            }
            state.stdin = None; // EOF backs up the Shutdown frame
        }
        for state in run.shards.iter_mut() {
            let _ = state.child.wait();
        }
        drop(rx);

        let wall = start.elapsed();
        let output =
            AlgoOutput::concat(run.outputs.into_iter().map(|o| o.expect("all parts complete")))
                .expect("parts share one output variant");

        let detail = ShardDetail {
            shards: self.shards,
            threads_per_shard: self.threads_per_shard,
            parts,
            jobs_dispatched: run.jobs_dispatched,
            jobs_accepted: run.jobs_accepted,
            redistributed: run.redistributed,
            shard_deaths: run.shard_deaths,
            heartbeats: run.heartbeats,
            jobs_per_shard: run.shards.iter().map(|s| s.accepted).collect(),
        };
        let report = ExecReport {
            backend: Backend::Sharded,
            executor: self.name(),
            workload: workload.name(),
            procs: self.procs(),
            steals: run.stats.steals,
            failed_steals: run.stats.failed_steals,
            work_items: run.stats.work_items,
            cache_misses: 0,
            block_misses: 0,
            false_sharing_misses: 0,
            sequential_fallback: false,
            time_units: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            wall,
            sim: None,
            shard: Some(detail),
        };
        ExecOutcome { report, output }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_parse_their_own_names() {
        for policy in
            [DispatchPolicy::RoundRobin, DispatchPolicy::LeastLoaded, DispatchPolicy::Static]
        {
            assert_eq!(DispatchPolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(DispatchPolicy::parse("fifo"), None);
    }

    #[test]
    fn executor_identity_reflects_the_topology() {
        let exec = ShardedExecutor::new(3)
            .threads_per_shard(2)
            .policy(DispatchPolicy::LeastLoaded)
            .jobs_per_shard(5);
        assert_eq!(exec.backend(), Backend::Sharded);
        assert_eq!(exec.procs(), 6);
        assert_eq!(exec.name(), "sharded(s=3,t=2,least-loaded)");
    }
}
