//! The [`Executor`] trait and its two implementations.

use crate::report::{Backend, ExecReport};
use crate::workload::{ExecOutcome, SharedWorkload};
use rws_core::{RunReport, RwsScheduler, SimConfig};
use rws_dag::Computation;
use rws_machine::MachineConfig;
use rws_runtime::{DequeBackend, ThreadPool, ThreadPoolBuilder};
use std::sync::Arc;
use std::time::Instant;

/// An execution backend: anything that can run a [`crate::Workload`] and produce a
/// normalized [`ExecReport`].
///
/// Implementations must run the workload to completion and report the backend's scheduling
/// statistics; the output must equal the workload's reference output (asserted by the
/// sim-vs-native parity tests).
pub trait Executor {
    /// Name identifying this executor instance (appears in reports).
    fn name(&self) -> String;

    /// The kind of backend.
    fn backend(&self) -> Backend;

    /// Simulated processors or native worker threads.
    fn procs(&self) -> usize;

    /// Run the workload and return its report and output.
    fn execute(&self, workload: SharedWorkload) -> ExecOutcome;
}

// ------------------------------------------------------------------------------------------
// Simulated backend
// ------------------------------------------------------------------------------------------

/// The simulated backend: runs a workload's dag under the randomized work-stealing
/// scheduler of `rws-core` on the paper's machine model.
#[derive(Clone, Debug)]
pub struct SimExecutor {
    scheduler: RwsScheduler,
}

impl SimExecutor {
    /// An executor for the given machine and simulation options.
    pub fn new(machine: MachineConfig, sim: SimConfig) -> Self {
        SimExecutor { scheduler: RwsScheduler::new(machine, sim) }
    }

    /// An executor for the given machine with default simulation options.
    pub fn with_machine(machine: MachineConfig) -> Self {
        SimExecutor { scheduler: RwsScheduler::with_machine(machine) }
    }

    /// An executor on the default small machine with `procs` processors.
    pub fn with_procs(procs: usize) -> Self {
        Self::with_machine(MachineConfig::small().with_procs(procs))
    }

    /// The underlying scheduler.
    pub fn scheduler(&self) -> &RwsScheduler {
        &self.scheduler
    }

    /// Run a bare computation (no output semantics), returning the normalized report.
    ///
    /// This is the entry point for callers that have a dag but no [`crate::Workload`] —
    /// the experiment harness's sweeps go through here.
    pub fn run_computation(&self, comp: &Computation) -> ExecReport {
        let start = Instant::now();
        let report = self.scheduler.run(comp);
        self.normalize(comp.meta.name.clone(), report, start)
    }

    fn normalize(&self, workload: String, report: RunReport, start: Instant) -> ExecReport {
        ExecReport {
            backend: Backend::Simulated,
            executor: self.name(),
            workload,
            procs: self.procs(),
            steals: report.successful_steals,
            failed_steals: report.failed_steals,
            work_items: report.work_executed,
            cache_misses: report.cache_misses(),
            block_misses: report.block_misses(),
            false_sharing_misses: report.false_sharing_misses(),
            sequential_fallback: false,
            time_units: report.makespan,
            wall: start.elapsed(),
            sim: Some(report),
            shard: None,
        }
    }
}

impl Executor for SimExecutor {
    fn name(&self) -> String {
        format!("sim(p={})", self.procs())
    }

    fn backend(&self) -> Backend {
        Backend::Simulated
    }

    fn procs(&self) -> usize {
        self.scheduler.machine().procs
    }

    fn execute(&self, workload: SharedWorkload) -> ExecOutcome {
        let comp = workload.computation();
        let start = Instant::now();
        let run = self.scheduler.run(&comp);
        let report = self.normalize(workload.name(), run, start);
        // The simulated machine executes addresses, not values: the reference supplies the
        // output semantics the dag models (see the `Workload` docs).
        ExecOutcome { report, output: workload.run_reference() }
    }
}

// ------------------------------------------------------------------------------------------
// Native backend
// ------------------------------------------------------------------------------------------

/// The native backend: runs a workload's fork-join implementation on the `rws-runtime`
/// work-stealing thread pool and reports wall time plus the pool's steal counters.
///
/// Steal and job counts in the report are **per-worker snapshot deltas** bracketing the
/// run ([`rws_runtime::PoolStats::snapshot_delta`]), so counter attribution is race-free
/// even when other work shares the pool. Wall time is the one column that still needs
/// exclusive use of the pool — `rws-lab`'s parallel sweep (`lab --jobs N`) serializes its
/// native runs for timing only.
pub struct NativeExecutor {
    pool: Arc<ThreadPool>,
}

impl NativeExecutor {
    /// A pool with `threads` workers on the Chase–Lev deque.
    pub fn new(threads: usize) -> Self {
        Self::with_options(threads, DequeBackend::Crossbeam, None)
    }

    /// A pool with `threads` workers and (optionally) the flight recorder enabled with
    /// `trace` event slots per lane (see [`rws_runtime::pool::ThreadPoolBuilder::trace`]).
    ///
    /// `DequeBackend` has a single variant; the parameter is kept only because the
    /// benchmark (`perfbench`) calls this signature.
    pub fn with_options(threads: usize, _backend: DequeBackend, trace: Option<usize>) -> Self {
        let mut builder = ThreadPoolBuilder::new().threads(threads);
        if let Some(capacity) = trace {
            builder = builder.trace(capacity);
        }
        NativeExecutor { pool: Arc::new(builder.build()) }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Drain the pool's flight recorder into a time-ordered snapshot (`None` when the
    /// executor was built without tracing).
    pub fn trace_snapshot(&self) -> Option<rws_runtime::trace::TraceSnapshot> {
        self.pool.trace_snapshot()
    }
}

impl Executor for NativeExecutor {
    fn name(&self) -> String {
        format!("native(crossbeam,t={})", self.procs())
    }

    fn backend(&self) -> Backend {
        Backend::Native
    }

    fn procs(&self) -> usize {
        self.pool.threads()
    }

    fn execute(&self, workload: SharedWorkload) -> ExecOutcome {
        let before = self.pool.stats().snapshot();
        let start = Instant::now();
        let on_pool = Arc::clone(&workload);
        let output = self.pool.install(move || on_pool.run_native());
        let wall = start.elapsed();
        let delta = self.pool.stats().snapshot_delta(&before);
        let report = ExecReport {
            backend: Backend::Native,
            executor: self.name(),
            workload: workload.name(),
            procs: self.procs(),
            steals: delta.total_steals(),
            failed_steals: delta.total_failed_steals(),
            work_items: delta.total_jobs(),
            cache_misses: 0,
            block_misses: 0,
            false_sharing_misses: 0,
            sequential_fallback: workload.native_support().is_fallback(),
            time_units: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            wall,
            sim: None,
            shard: None,
        };
        ExecOutcome { report, output }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use crate::workloads::PrefixWorkload;

    #[test]
    fn sim_executor_reports_simulator_detail() {
        let w = Arc::new(PrefixWorkload::demo(512));
        let exec = SimExecutor::with_procs(4);
        assert_eq!(exec.backend(), Backend::Simulated);
        assert_eq!(exec.procs(), 4);
        let outcome = exec.execute(w.clone());
        let sim = outcome.report.sim.as_ref().expect("sim detail preserved");
        assert_eq!(outcome.report.work_items, sim.work_executed);
        assert_eq!(outcome.report.time_units, sim.makespan);
        assert_eq!(outcome.report.cache_misses, sim.cache_misses());
        assert_eq!(outcome.report.block_misses, sim.block_misses());
        assert_eq!(outcome.report.false_sharing_misses, sim.false_sharing_misses());
        assert!(!outcome.report.sequential_fallback);
        assert_eq!(outcome.output, w.run_reference());
    }

    #[test]
    fn run_computation_matches_the_trait_path() {
        let w = PrefixWorkload::demo(512);
        let exec = SimExecutor::new(MachineConfig::small().with_procs(2), SimConfig::with_seed(9));
        let direct = exec.run_computation(&w.computation());
        let via_trait = exec.execute(Arc::new(w));
        assert_eq!(direct.steals, via_trait.report.steals);
        assert_eq!(direct.time_units, via_trait.report.time_units);
    }

    /// A deliberately stubbed workload: the honesty mechanism's positive path. No committed
    /// workload declares the fallback anymore, so this mock is what keeps the stamping line
    /// below covered until (unless) a future stub ships.
    struct StubbedWorkload;

    impl Workload for StubbedWorkload {
        fn name(&self) -> String {
            "stubbed".into()
        }

        fn computation(&self) -> rws_dag::Computation {
            PrefixWorkload::demo(64).computation()
        }

        fn run_native(&self) -> crate::AlgoOutput {
            self.run_reference()
        }

        fn native_support(&self) -> crate::NativeSupport {
            crate::NativeSupport::SequentialFallback
        }

        fn run_reference(&self) -> crate::AlgoOutput {
            crate::AlgoOutput::I64(vec![1, 2, 3])
        }
    }

    #[test]
    fn a_fallback_workload_is_stamped_on_native_and_not_on_sim() {
        let native = NativeExecutor::new(2).execute(Arc::new(StubbedWorkload));
        assert!(
            native.report.sequential_fallback,
            "a native run of a stubbed workload must wear the fallback stamp"
        );
        let sim = SimExecutor::with_procs(2).execute(Arc::new(StubbedWorkload));
        assert!(!sim.report.sequential_fallback, "the simulator genuinely schedules the dag");
    }

    #[test]
    fn native_executor_runs_and_counts_jobs() {
        let w = Arc::new(PrefixWorkload::demo(32_768));
        let exec = NativeExecutor::new(2);
        assert_eq!(exec.backend(), Backend::Native);
        let outcome = exec.execute(w.clone());
        assert_eq!(outcome.output, w.run_reference());
        assert!(outcome.report.sim.is_none());
        assert!(outcome.report.work_items > 0, "installed closure counts as at least one job");
    }
}
