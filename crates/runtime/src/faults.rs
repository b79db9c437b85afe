//! Deterministic fault injection for the chaos harness.
//!
//! A [`FaultPlan`] is a compiled-in, **default-off** schedule of failures the runtime
//! volunteers to suffer: job panics, worker stalls, worker deaths, and injector contention
//! storms. Everything is derived from a seed and from monotone counters the runtime already
//! maintains (scheduling sweeps, accepted submissions), so a chaos run is reproducible:
//! same seed + same scenario → the same faults at the same logical points, regardless of
//! thread timing. Production builds pay one `Option` test per worker sweep (branch
//! predicted never-taken when no plan is installed) and nothing on the fork hot path.
//!
//! The plan decides *what* goes wrong; the supervisor and the chaos harness in `rws-lab`
//! verify that the service-mode invariants survive it: no accepted job lost or run twice,
//! every submission reaching a terminal outcome, the server staying live after every
//! injected death.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// What the fault plan asks of a worker at one scheduling sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFault {
    /// Carry on.
    None,
    /// Sleep for the given duration mid-sweep (a GC pause / noisy-neighbor stand-in).
    Stall(Duration),
    /// Exit the worker loop as if the thread died. The supervisor must notice the down
    /// alive flag, drain the orphaned deque, and respawn.
    Die,
}

/// A one-shot injector contention storm: after `after_accepts` accepted submissions,
/// `threads` OS threads each fire `pushes_per_thread` no-op jobs at the pool's injector
/// simultaneously, stress-testing the injector lock and the submit-side wakeups under real
/// contention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StormSpec {
    /// Accepted-submission count that arms the storm.
    pub after_accepts: u64,
    /// Concurrent pushing threads.
    pub threads: usize,
    /// No-op jobs each thread pushes.
    pub pushes_per_thread: usize,
}

/// Declarative description of the faults to inject — the plain-data half of a plan,
/// parsed from a chaos scenario. All zero/empty/`None` fields mean "don't".
#[derive(Clone, Debug, Default)]
pub struct FaultSpec {
    /// Seed for the per-job panic hash (and recorded in reports for reproducibility).
    pub seed: u64,
    /// Global scheduling-sweep counts at which one worker (whichever FAAs past the
    /// threshold first) dies. Need not be sorted; the plan sorts them.
    pub death_sweeps: Vec<u64>,
    /// Stall one worker every `stall_every` global sweeps (0 = never).
    pub stall_every: u64,
    /// How long a stalled worker sleeps.
    pub stall: Duration,
    /// Cap on injected stalls (so a long run isn't dominated by sleep).
    pub max_stalls: u64,
    /// Panic roughly one in `panic_every` submitted jobs, chosen by seeded hash of the
    /// job's sequence number (0 = never).
    pub panic_every: u64,
    /// Optional one-shot injector contention storm.
    pub storm: Option<StormSpec>,
}

/// A live, concurrently-pollable fault schedule built from a [`FaultSpec`].
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Sorted global-sweep thresholds; `deaths_done` indexes the next one to fire.
    death_sweeps: Vec<u64>,
    deaths_done: AtomicUsize,
    stall_every: u64,
    stall: Duration,
    max_stalls: u64,
    stalls_done: AtomicU64,
    panic_every: u64,
    /// Global scheduling-sweep counter, FAA'd by every worker's poll.
    sweeps: AtomicU64,
    storm: Option<StormSpec>,
    storm_fired: AtomicBool,
    /// Once raised, polls inject nothing more. A draining server disarms its plan so a
    /// death threshold crossed mid-shutdown can't fire after the pool was healed.
    disarmed: AtomicBool,
}

/// splitmix64: a tiny, high-quality mixing function — the standard way to turn a counter
/// into uncorrelated bits without carrying RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Compile a spec into a pollable plan.
    pub fn new(spec: FaultSpec) -> Self {
        let mut death_sweeps = spec.death_sweeps;
        death_sweeps.sort_unstable();
        FaultPlan {
            seed: spec.seed,
            death_sweeps,
            deaths_done: AtomicUsize::new(0),
            stall_every: spec.stall_every,
            stall: spec.stall,
            max_stalls: spec.max_stalls,
            stalls_done: AtomicU64::new(0),
            panic_every: spec.panic_every,
            sweeps: AtomicU64::new(0),
            storm: spec.storm,
            storm_fired: AtomicBool::new(false),
            disarmed: AtomicBool::new(false),
        }
    }

    /// Permanently stop injecting faults. Already-claimed deaths still play out (the
    /// claiming worker is mid-exit); counters keep reporting what actually fired.
    pub fn disarm(&self) {
        self.disarmed.store(true, Ordering::Release);
    }

    /// The plan's seed (echoed into chaos reports).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Poll from a worker's scheduling sweep: advance the global sweep counter and claim
    /// any fault due at this sweep. At most one worker claims each death (CAS on the
    /// death cursor), so `death_sweeps.len()` deaths total are injected no matter how many
    /// workers race past the thresholds.
    pub fn poll_worker_sweep(&self) -> WorkerFault {
        if self.disarmed.load(Ordering::Acquire) {
            return WorkerFault::None;
        }
        let sweep = self.sweeps.fetch_add(1, Ordering::Relaxed);
        let done = self.deaths_done.load(Ordering::Relaxed);
        if done < self.death_sweeps.len()
            && sweep >= self.death_sweeps[done]
            && self
                .deaths_done
                .compare_exchange(done, done + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            return WorkerFault::Die;
        }
        if self.stall_every > 0
            && sweep % self.stall_every == self.stall_every - 1
            && self.stalls_done.fetch_add(1, Ordering::Relaxed) < self.max_stalls
        {
            return WorkerFault::Stall(self.stall);
        }
        WorkerFault::None
    }

    /// Whether the job with submission sequence `seq` should be made to panic. Pure
    /// (seeded hash, no state), so a given scenario panics exactly the same sequence
    /// numbers every run.
    pub fn should_panic_job(&self, seq: u64) -> bool {
        self.panic_every > 0
            && splitmix64(self.seed ^ seq.wrapping_mul(0xA24B_AED4_963E_E407))
                .is_multiple_of(self.panic_every)
    }

    /// If a contention storm is armed and `accepted` submissions have now been accepted,
    /// claim it (one-shot) and return its spec for the supervisor to launch.
    pub fn storm_due(&self, accepted: u64) -> Option<StormSpec> {
        let storm = self.storm?;
        if accepted >= storm.after_accepts
            && self
                .storm_fired
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            return Some(storm);
        }
        None
    }

    /// Worker deaths injected so far.
    pub fn deaths_injected(&self) -> usize {
        self.deaths_done.load(Ordering::Relaxed)
    }

    /// Total worker deaths this plan will inject over its lifetime.
    pub fn deaths_planned(&self) -> usize {
        self.death_sweeps.len()
    }

    /// Job panics this plan would inject over `submissions` sequence numbers (exact count,
    /// by evaluating the same pure hash the injection uses — lets the harness know the
    /// expected panic count up front).
    pub fn panics_planned(&self, submissions: u64) -> u64 {
        (0..submissions).filter(|&s| self.should_panic_job(s)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn no_spec_means_no_faults() {
        let plan = FaultPlan::new(FaultSpec::default());
        for _ in 0..10_000 {
            assert_eq!(plan.poll_worker_sweep(), WorkerFault::None);
        }
        assert!(!plan.should_panic_job(0));
        assert_eq!(plan.storm_due(u64::MAX), None);
    }

    #[test]
    fn each_death_fires_exactly_once_across_racing_workers() {
        let plan = Arc::new(FaultPlan::new(FaultSpec {
            death_sweeps: vec![100, 200, 300],
            ..FaultSpec::default()
        }));
        let deaths: usize = thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let plan = Arc::clone(&plan);
                    s.spawn(move || {
                        let mut mine = 0;
                        for _ in 0..1_000 {
                            if plan.poll_worker_sweep() == WorkerFault::Die {
                                mine += 1;
                            }
                        }
                        mine
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(deaths, 3, "every planned death fires exactly once");
        assert_eq!(plan.deaths_injected(), 3);
    }

    #[test]
    fn job_panics_are_seed_deterministic_and_roughly_one_in_n() {
        let a = FaultPlan::new(FaultSpec { seed: 7, panic_every: 10, ..FaultSpec::default() });
        let b = FaultPlan::new(FaultSpec { seed: 7, panic_every: 10, ..FaultSpec::default() });
        let hits_a: Vec<u64> = (0..10_000).filter(|&s| a.should_panic_job(s)).collect();
        let hits_b: Vec<u64> = (0..10_000).filter(|&s| b.should_panic_job(s)).collect();
        assert_eq!(hits_a, hits_b, "same seed, same panic schedule");
        assert_eq!(hits_a.len() as u64, a.panics_planned(10_000));
        // ~1000 expected; splitmix64 is good enough that 3x bounds are safe.
        assert!((300..3000).contains(&hits_a.len()), "got {} panics", hits_a.len());
        let c = FaultPlan::new(FaultSpec { seed: 8, panic_every: 10, ..FaultSpec::default() });
        let hits_c: Vec<u64> = (0..10_000).filter(|&s| c.should_panic_job(s)).collect();
        assert_ne!(hits_a, hits_c, "different seed, different schedule");
    }

    #[test]
    fn stalls_respect_cadence_and_cap() {
        let plan = FaultPlan::new(FaultSpec {
            stall_every: 10,
            stall: Duration::from_millis(1),
            max_stalls: 3,
            ..FaultSpec::default()
        });
        let stalls = (0..1_000)
            .filter(|_| matches!(plan.poll_worker_sweep(), WorkerFault::Stall(_)))
            .count();
        assert_eq!(stalls, 3, "the cap bounds injected stalls");
    }

    #[test]
    fn storm_is_one_shot_and_waits_for_its_trigger() {
        let storm = StormSpec { after_accepts: 50, threads: 2, pushes_per_thread: 10 };
        let plan = FaultPlan::new(FaultSpec { storm: Some(storm), ..FaultSpec::default() });
        assert_eq!(plan.storm_due(49), None, "not armed yet");
        assert_eq!(plan.storm_due(50), Some(storm));
        assert_eq!(plan.storm_due(51), None, "one-shot");
    }
}
