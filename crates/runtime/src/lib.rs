//! # rws-runtime
//!
//! A small native randomized work-stealing thread pool, used to demonstrate on real hardware
//! the phenomena the paper models. It follows the paper's scheduling discipline — per-worker
//! deques with bottom push/pop, steals from the top of a uniformly random victim — and
//! exposes per-worker steal counters so experiments can relate measured slowdowns to steal
//! counts.
//!
//! The fork/steal hot path is engineered to cost what the model charges it and nothing more:
//!
//! * **Lock-free deques with steal-half batching** — every worker owns a real
//!   Chase–Lev deque (the vendored `crossbeam-deque`): atomic top/bottom indices,
//!   CAS-arbitrated steals with `Steal::Retry` on lost races, a growable ring buffer, and
//!   no locks anywhere. A thief takes up to *half* the victim's queue per visit
//!   (`steal_batch_and_pop`), running the oldest job and requeueing the rest locally — the
//!   stats separate the paper's per-task steal events from per-visit
//!   [`batch_steals`](PoolStats::total_batch_steals).
//! * **Allocation-free `join`** — the right branch of a [`join`] is a *stack job* in the
//!   caller's frame, queued by reference; the unstolen fast path performs zero heap
//!   allocations and takes no lock (asserted by a counting-allocator test), touching only
//!   the deque's indices and this worker's own padded counters.
//! * **Parked idle workers** — a worker that finds no work spins briefly and then parks on
//!   the pool's sleep protocol; an idle pool burns no CPU, and a fork wakes sleepers with a
//!   single relaxed load on the producer side.
//! * **Scoped tasks and parallel iterators** — [`scope()`] generalizes `join` to arbitrary
//!   borrow-friendly fan-out behind one shared atomic completion latch (inline job slots
//!   keep small fan-outs, including the kernels' 4-way quadrant splits, allocation-free),
//!   and [`par_iter`] builds rayon-style slice iterators (`par_iter`, `par_iter_mut`,
//!   `par_chunks`, `par_chunks_mut`) with pool-width-adaptive splitting on top of the same
//!   fork-join machinery.
//!
//! On top of the pool sits a supervised **persistent job-server mode** ([`service`]): a
//! long-lived [`JobServer`] accepting streamed root jobs through the pool's injector (a
//! locked FIFO queue whose empty probe is one atomic load), with panic quarantine and dead-worker respawn ([`pool`]'s supervision
//! hooks), per-job deadlines via cooperative [`cancel`] tokens observed at fork points,
//! bounded-queue admission control with load-shedding, and latency histograms
//! ([`hist`]). A compiled-in, default-off fault-injection layer ([`faults`]) drives the
//! chaos harness in `rws-lab` that verifies the recovery invariants.
//!
//! The [`padding`] module provides the cache-line padding wrappers used by the false-sharing
//! experiments (E19): identical workloads run once with per-worker accumulators packed into a
//! single cache line (false sharing) and once with each accumulator padded to its own line.

// Unsafe is confined to the stack-job handoff in `job` (and its use in `pool`): the
// invariants are documented at each site and covered by the stress, correctness, and
// counting-allocator tests.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod deque;
pub mod faults;
mod health;
pub mod hist;
mod job;
pub mod padding;
pub mod par_iter;
pub mod pool;
pub mod scope;
pub mod service;
mod sleep;
pub mod stats;

pub use cancel::{check_cancel, CancelReason, CancelToken};
pub use deque::DequeBackend;
pub use faults::{FaultPlan, FaultSpec, StormSpec, WorkerFault};
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use padding::{CachePadded, PaddedCounters, UnpaddedCounters};
pub use par_iter::{ParChunks, ParChunksMut, ParIter, ParIterMut, ParSliceExt};
pub use pool::{
    current_num_threads, join, InstallError, RespawnReport, ThreadPool, ThreadPoolBuilder,
};
pub use scope::{scope, Scope};
pub use service::{
    AdmissionPolicy, JobHandle, JobOutcome, JobServer, ServiceConfig, ServiceSnapshot,
};
pub use sleep::SleepBackoff;
pub use stats::{PoolStats, PoolStatsSnapshot, WorkerSnapshot};

/// The flight-recorder crate, re-exported so downstream users can consume
/// [`trace::TraceSnapshot`]s from [`pool::ThreadPool::trace_snapshot`] without naming
/// `rws-trace` as a direct dependency.
pub use rws_trace as trace;
