//! The benchmark suite: workload definitions, the `run_*` measurements, and the
//! `BENCH_native.json` emitter.
//!
//! [`run_suite`] runs a set of fork-join workloads — plus the DAG-structured family
//! (task-graph workflow, BFS, SpMV, sample sort), whose sparse frontiers and
//! dependency-released bursts stress the idle path the balanced trees never touch — on
//! `rws-runtime`'s lock-free Chase–Lev deque (`chaselev`) across a thread sweep, and records
//! per configuration the median wall time, the pool's steal/retry/park counter deltas, and
//! (when the caller supplies an allocation-counter hook, as the binary's counting global
//! allocator does) allocations-per-fork.
//!
//! [`run_service_suite`] measures the persistent job-server mode ([`rws_runtime::service`]):
//! jobs/sec through the streamed submission pipeline under `Block` admission, and the shed
//! rate plus p99 queue latency under a 4x-capacity `Shed` burst.
//!
//! [`run_trace_overhead`] runs one workload with the flight recorder off and on.
//!
//! [`run_sharded_suite`] adds the multi-process rows: the shardable workloads partitioned
//! across `rws-shard` worker subprocesses vs the same kernels on an in-process pool with
//! the same total thread count.
//!
//! [`to_json_full`] renders every row through the workspace's one JSON writer,
//! [`rws_lab::json`], and [`validate_json`] checks the emitted document's structure.

use rws_algos::bfs::{bfs_native, CsrGraph};
use rws_algos::fft::fft_native;
use rws_algos::listrank::list_ranking_native;
use rws_algos::prefix::prefix_sums_native;
use rws_algos::samplesort::sample_sort_native;
use rws_algos::sort::merge_sort_native;
use rws_algos::spmv::{spmv_native, CsrMatrix};
use rws_algos::taskgraph::{layered_random, workflow_native};
use rws_algos::transpose::{bi_to_rm_native, rm_to_bi_native, transpose_native_bi};
use rws_lab::json::{self, obj, Json};
use rws_runtime::{
    join, AdmissionPolicy, JobServer, ServiceConfig, ServiceSnapshot, ThreadPool, ThreadPoolBuilder,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How big the suite's inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// Tiny inputs for CI smoke runs: seconds, not minutes.
    Smoke,
    /// The committed-baseline sizes.
    Full,
}

impl SizeClass {
    /// Parse a `--size` argument.
    pub fn parse(s: &str) -> Option<SizeClass> {
        match s {
            "smoke" => Some(SizeClass::Smoke),
            "full" => Some(SizeClass::Full),
            _ => None,
        }
    }

    /// The size's name as it appears in the JSON.
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Smoke => "smoke",
            SizeClass::Full => "full",
        }
    }
}

/// Suite configuration.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Input sizes.
    pub size: SizeClass,
    /// Worker-thread counts to sweep.
    pub threads: Vec<usize>,
    /// Timed repetitions per configuration (the median is reported).
    pub repeats: usize,
    /// Untimed warm-up passes per configuration before the timed repeats (at least one
    /// always runs — it also produces the reference checksum): first-touch page faults,
    /// allocator pool growth, and branch-predictor training all land here instead of in
    /// the first timed repeat.
    pub warmup: usize,
}

impl BenchConfig {
    /// The default sweep for a size class (these defaults are recorded in the JSON header,
    /// so a baseline is self-describing).
    pub fn for_size(size: SizeClass) -> Self {
        match size {
            SizeClass::Smoke => BenchConfig { size, threads: vec![1, 4], repeats: 1, warmup: 1 },
            SizeClass::Full => {
                BenchConfig { size, threads: vec![1, 2, 4, 8], repeats: 7, warmup: 2 }
            }
        }
    }
}

/// One (workload, backend, threads) measurement.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Workload name (`recursive-sum`, `matmul`, …).
    pub workload: String,
    /// Deque backend name: always `chaselev` (the gate matches rows on it).
    pub backend: String,
    /// Worker threads in the pool.
    pub threads: usize,
    /// Median wall time over the repeats, nanoseconds.
    pub wall_ns_median: u64,
    /// Fastest repeat, nanoseconds.
    pub wall_ns_min: u64,
    /// Successful steals (pool counter delta, median run) — one event per migrated task,
    /// the paper's view.
    pub steals: u64,
    /// Successful steal *operations* (victim visits; a batch of `k` tasks counts once) —
    /// the CAS-traffic view. `steals / batch_steals` is the average batch size.
    pub batch_steals: u64,
    /// Fork branches executed (pool counter delta, median run).
    pub jobs: u64,
    /// Steal attempts that lost a CAS race (`Steal::Retry`).
    pub steal_retries: u64,
    /// Times a worker parked during the run.
    pub parks: u64,
    /// Heap allocations observed during the median run (0 when no hook was supplied).
    pub allocs: u64,
    /// Allocations per executed fork branch — the "is `join` really allocation-free"
    /// trajectory number (includes the workload's own result buffers).
    pub allocs_per_fork: f64,
}

fn recursive_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= 1024 {
        return (lo..hi).sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(move || recursive_sum(lo, mid), move || recursive_sum(mid, hi));
    a + b
}

/// In-place fork-join matmul: recurse over output row bands, then over column segments of a
/// single row, down to `grain`-column leaves. Unlike `rws_algos::matmul_native_bi` (whose
/// per-node temporaries make it allocator-bound — thousands of allocations per fork), this
/// decomposition allocates nothing, so its wall time actually measures the fork/steal hot
/// path this benchmark exists to track. The fine grain is deliberate: thousands of
/// sub-microsecond tasks are exactly the regime where deque overhead shows.
fn mm_rows(a: &[f64], bt: &[f64], c: &mut [f64], n: usize, row0: usize, grain: usize) {
    let rows = c.len() / n;
    if rows == 1 {
        mm_cols(a, bt, c, n, row0, 0, grain);
        return;
    }
    let mid = rows / 2;
    let (lo, hi) = c.split_at_mut(mid * n);
    join(|| mm_rows(a, bt, lo, n, row0, grain), || mm_rows(a, bt, hi, n, row0 + mid, grain));
}

/// `bt` is B transposed, so a leaf reads contiguous rows of both operands: the leaf stays
/// compute-bound and small, keeping scheduler overhead — the thing under test — visible
/// instead of being buried under strided-access memory stalls.
fn mm_cols(a: &[f64], bt: &[f64], row: &mut [f64], n: usize, i: usize, col0: usize, grain: usize) {
    if row.len() <= grain {
        let arow = &a[i * n..(i + 1) * n];
        for (jj, out) in row.iter_mut().enumerate() {
            let j = col0 + jj;
            let brow = &bt[j * n..(j + 1) * n];
            // Four independent accumulators break the single-sum dependence chain (a
            // serial chain of fused multiply-adds runs at FMA latency, not throughput)
            // and vectorize cleanly; n is a multiple of 4 at both size classes, the
            // remainder loop covers everything else.
            let mut acc = [0.0f64; 4];
            let mut ka = arow.chunks_exact(4);
            let mut kb = brow.chunks_exact(4);
            for (ca, cb) in (&mut ka).zip(&mut kb) {
                acc[0] += ca[0] * cb[0];
                acc[1] += ca[1] * cb[1];
                acc[2] += ca[2] * cb[2];
                acc[3] += ca[3] * cb[3];
            }
            let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            for (x, y) in ka.remainder().iter().zip(kb.remainder()) {
                total += x * y;
            }
            *out = total;
        }
        return;
    }
    let mid = row.len() / 2;
    let (l, r) = row.split_at_mut(mid);
    join(|| mm_cols(a, bt, l, n, i, col0, grain), || mm_cols(a, bt, r, n, i, col0 + mid, grain));
}

struct WorkloadSpec {
    name: &'static str,
    /// Runs the workload once on the given pool and returns a checksum (forcing the result
    /// to actually be computed). Inputs are generated once, outside every timed window.
    run: Box<dyn Fn(&ThreadPool) -> u64>,
}

fn suite(size: SizeClass) -> Vec<WorkloadSpec> {
    let (sum_n, mm_n, mm_iters, prefix_n, sort_n) = match size {
        SizeClass::Smoke => (1u64 << 18, 32usize, 2usize, 1usize << 14, 1usize << 14),
        SizeClass::Full => (1u64 << 23, 128usize, 10usize, 1usize << 20, 1usize << 20),
    };
    let (fft_n, tr_n, lr_n) = match size {
        SizeClass::Smoke => (1usize << 12, 64usize, 1usize << 14),
        SizeClass::Full => (1usize << 16, 512usize, 1usize << 19),
    };
    // The DAG-structured family: a layered task graph (the idle-path stressor — sparse
    // frontiers, dependency-released bursts), level-synchronized BFS, CSR SpMV, and sample
    // sort. These rows track the scheduler's cost on irregular dependence structure, the
    // regime the fork-join rows above never enter.
    let (dag_layers, dag_width, graph_n, ss_n) = match size {
        SizeClass::Smoke => (5usize, 16usize, 1usize << 12, 1usize << 14),
        SizeClass::Full => (12usize, 96usize, 1usize << 17, 1usize << 20),
    };
    let mm_a: Arc<Vec<f64>> = Arc::new((0..mm_n * mm_n).map(|i| (i % 7) as f64).collect());
    // Stored transposed (see `mm_cols`); as bench input it is simply an arbitrary matrix.
    let mm_bt: Arc<Vec<f64>> = Arc::new((0..mm_n * mm_n).map(|i| (i % 5) as f64).collect());
    let prefix_x: Arc<Vec<i64>> = Arc::new((0..prefix_n as i64).collect());
    let sort_keys: Arc<Vec<u64>> =
        Arc::new((0..sort_n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect());
    let fft_input: Arc<Vec<(f64, f64)>> = Arc::new(
        (0..fft_n)
            .map(|i| (((i % 17) as f64 - 8.0) / 8.0, ((i % 23) as f64 - 11.0) / 11.0))
            .collect(),
    );
    let tr_rm: Arc<Vec<f64>> = Arc::new((0..tr_n * tr_n).map(|i| (i % 11) as f64).collect());
    let dag_graph = Arc::new(layered_random(0xDA6, dag_layers, dag_width));
    let bfs_graph = Arc::new(CsrGraph::random(0xBF5, graph_n, 4));
    let spmv_m = Arc::new(CsrMatrix::random(0x59A2, graph_n, 7));
    let spmv_x: Arc<Vec<f64>> =
        Arc::new((0..graph_n).map(|i| ((i % 13) as f64 - 6.0) / 6.0).collect());
    let ss_keys: Arc<Vec<u64>> =
        Arc::new((0..ss_n as u64).map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D)).collect());
    let ss_buckets = (ss_n as f64).sqrt() as usize;
    // A deterministic permutation chain: visit nodes in a bit-mixed order, self-loop tail.
    let lr_succ: Arc<Vec<usize>> = Arc::new({
        let mut order: Vec<usize> = (0..lr_n).collect();
        order.sort_by_key(|&i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut succ = vec![0usize; lr_n];
        for w in order.windows(2) {
            succ[w[0]] = w[1];
        }
        succ[order[lr_n - 1]] = order[lr_n - 1];
        succ
    });
    vec![
        WorkloadSpec {
            name: "recursive-sum",
            run: Box::new(move |pool| pool.install(move || recursive_sum(0, sum_n))),
        },
        WorkloadSpec {
            name: "matmul",
            run: Box::new(move |pool| {
                let a = Arc::clone(&mm_a);
                let bt = Arc::clone(&mm_bt);
                pool.install(move || {
                    let mut c = vec![0.0f64; mm_n * mm_n];
                    for _ in 0..mm_iters {
                        mm_rows(&a, &bt, &mut c, mm_n, 0, 1);
                    }
                    c.iter().map(|v| v.to_bits()).fold(0u64, u64::wrapping_add)
                })
            }),
        },
        WorkloadSpec {
            name: "prefix-sums",
            run: Box::new(move |pool| {
                let x = Arc::clone(&prefix_x);
                let out = pool.install(move || prefix_sums_native(&x));
                out.last().copied().unwrap_or(0) as u64
            }),
        },
        WorkloadSpec {
            name: "merge-sort",
            run: Box::new(move |pool| {
                let keys = Arc::clone(&sort_keys);
                let sorted = pool.install(move || merge_sort_native(&keys, 512));
                sorted[sorted.len() / 2]
            }),
        },
        WorkloadSpec {
            name: "fft",
            run: Box::new(move |pool| {
                let input = Arc::clone(&fft_input);
                let out = pool.install(move || fft_native(&input, 16));
                // Fold the exact bit patterns: the kernel's evaluation order is fixed
                // regardless of which worker runs each branch, so the checksum is stable.
                out.iter().map(|c| c.0.to_bits() ^ c.1.to_bits()).fold(0u64, u64::wrapping_add)
            }),
        },
        WorkloadSpec {
            name: "transpose-bi",
            run: Box::new(move |pool| {
                let a = Arc::clone(&tr_rm);
                let out = pool.install(move || {
                    let mut bi = rm_to_bi_native(&a, tr_n, 16);
                    transpose_native_bi(&mut bi, tr_n, 16);
                    bi_to_rm_native(&bi, tr_n, 16)
                });
                out.iter().map(|v| v.to_bits()).fold(0u64, u64::wrapping_add)
            }),
        },
        WorkloadSpec {
            name: "list-ranking",
            run: Box::new(move |pool| {
                let succ = Arc::clone(&lr_succ);
                let ranks = pool.install(move || list_ranking_native(&succ));
                ranks.iter().fold(0u64, |acc, &r| acc.wrapping_add(r))
            }),
        },
        WorkloadSpec {
            name: "dag-workflow",
            run: Box::new(move |pool| {
                let g = Arc::clone(&dag_graph);
                let vals = pool.install(move || workflow_native(&g));
                // Node values are schedule-independent (each predecessor contributes its
                // wrapping sum exactly once), so the fold is a stable checksum.
                vals.iter().fold(0u64, |acc, &v| acc.wrapping_add(v))
            }),
        },
        WorkloadSpec {
            name: "bfs",
            run: Box::new(move |pool| {
                let g = Arc::clone(&bfs_graph);
                let dist = pool.install(move || bfs_native(&g, 0));
                dist.iter().fold(0u64, |acc, &d| acc.wrapping_add(d as u64))
            }),
        },
        WorkloadSpec {
            name: "spmv",
            run: Box::new(move |pool| {
                let m = Arc::clone(&spmv_m);
                let x = Arc::clone(&spmv_x);
                let y = pool.install(move || spmv_native(&m, &x));
                // Per-row accumulation is sequential in storage order: bit-identical on
                // every schedule, so exact bit patterns are a safe checksum.
                y.iter().map(|v| v.to_bits()).fold(0u64, u64::wrapping_add)
            }),
        },
        WorkloadSpec {
            name: "sample-sort",
            run: Box::new(move |pool| {
                let keys = Arc::clone(&ss_keys);
                let sorted = pool.install(move || sample_sort_native(&keys, ss_buckets));
                sorted[sorted.len() / 2] ^ sorted.iter().fold(0u64, |a, &k| a.wrapping_add(k))
            }),
        },
    ]
}

struct OneRun {
    wall_ns: u64,
    steals: u64,
    batch_steals: u64,
    jobs: u64,
    retries: u64,
    parks: u64,
    allocs: u64,
}

/// Run the full suite. `alloc_count` reads the process-wide allocation counter (the binary
/// installs a counting global allocator; library callers can pass `|| 0`).
pub fn run_suite(cfg: &BenchConfig, alloc_count: impl Fn() -> u64) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for spec in suite(cfg.size) {
        for &threads in &cfg.threads {
            // One pool per configuration: counters attribute through deltas, and pool
            // construction stays outside every timed window (the hot path is what is
            // being measured, not thread spawning). The untimed warm-up passes absorb
            // first-touch costs; the first also produces the reference checksum.
            let pool = ThreadPoolBuilder::new().threads(threads).build();
            let warm = (spec.run)(&pool);
            for _ in 1..cfg.warmup {
                let again = (spec.run)(&pool);
                assert_eq!(again, warm, "{}: nondeterministic checksum", spec.name);
            }
            let mut runs: Vec<OneRun> = Vec::with_capacity(cfg.repeats);
            for _ in 0..cfg.repeats {
                let steals0 = pool.stats().total_steals();
                let batch0 = pool.stats().total_batch_steals();
                let jobs0 = pool.stats().total_jobs();
                let retries0 = pool.stats().total_retries();
                let parks0 = pool.stats().total_parks();
                let allocs0 = alloc_count();
                let start = Instant::now();
                let check = (spec.run)(&pool);
                let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                assert_eq!(check, warm, "{}: nondeterministic checksum", spec.name);
                runs.push(OneRun {
                    wall_ns,
                    steals: pool.stats().total_steals() - steals0,
                    batch_steals: pool.stats().total_batch_steals() - batch0,
                    jobs: pool.stats().total_jobs() - jobs0,
                    retries: pool.stats().total_retries() - retries0,
                    parks: pool.stats().total_parks() - parks0,
                    allocs: alloc_count() - allocs0,
                });
            }
            runs.sort_by_key(|r| r.wall_ns);
            let median = &runs[runs.len() / 2];
            records.push(BenchRecord {
                workload: spec.name.to_string(),
                backend: "chaselev".to_string(),
                threads,
                wall_ns_median: median.wall_ns,
                wall_ns_min: runs[0].wall_ns,
                steals: median.steals,
                batch_steals: median.batch_steals,
                jobs: median.jobs,
                steal_retries: median.retries,
                parks: median.parks,
                allocs: median.allocs,
                allocs_per_fork: if median.jobs == 0 {
                    0.0
                } else {
                    median.allocs as f64 / median.jobs as f64
                },
            });
        }
    }
    records
}

// ------------------------------------------------------------------------------------------
// Service-mode throughput rows
// ------------------------------------------------------------------------------------------

/// One service-mode measurement: streamed root jobs through a supervised [`JobServer`]
/// instead of one `install`ed fork-join tree. These rows track the per-job pipeline cost
/// (submission → injector → worker → settle) and the admission layer's behaviour
/// under overload — the numbers the job-server subsystem exists to keep honest.
#[derive(Clone, Debug)]
pub struct ServiceBenchRecord {
    /// Scenario name (`service-steady` or `service-overload`).
    pub scenario: String,
    /// Admission policy name (`block`, `shed`, `shed-oldest`).
    pub admission: String,
    /// Worker threads in the server's pool.
    pub threads: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Submissions per run — fixed by the scenario, so gated exactly.
    pub submitted: u64,
    /// Jobs that ran to completion (median run).
    pub completed: u64,
    /// Submissions refused by admission (median run).
    pub shed: u64,
    /// Median wall time from first submission to last settle, nanoseconds.
    pub wall_ns_median: u64,
    /// Fastest repeat, nanoseconds.
    pub wall_ns_min: u64,
    /// Completed jobs per second on the median run (derived from the gated wall).
    pub jobs_per_sec: f64,
    /// `shed / submitted` on the median run.
    pub shed_rate: f64,
    /// p99 submission → execution-start latency, nanoseconds (reported, not gated).
    pub p99_queue_ns: u64,
    /// p99 execution-start → settle latency, nanoseconds (reported, not gated).
    pub p99_service_ns: u64,
}

fn admission_name(p: AdmissionPolicy) -> &'static str {
    match p {
        AdmissionPolicy::Block => "block",
        AdmissionPolicy::Shed => "shed",
        AdmissionPolicy::ShedOldest => "shed-oldest",
    }
}

struct ServiceScenario {
    name: &'static str,
    admission: AdmissionPolicy,
    queue_capacity: usize,
    jobs: u64,
    /// Per-job busy-spin. Zero on the steady scenario: with no work in the closure, the
    /// wall time is purely the per-job pipeline overhead under test.
    job_spin: Duration,
}

fn service_scenarios(size: SizeClass) -> Vec<ServiceScenario> {
    let (steady_jobs, burst_capacity) = match size {
        SizeClass::Smoke => (1_500u64, 64usize),
        SizeClass::Full => (30_000u64, 256usize),
    };
    vec![
        // Throughput of the bare pipeline: Block admission means every submission is
        // eventually admitted and runs, so submitted/completed/shed are all deterministic.
        ServiceScenario {
            name: "service-steady",
            admission: AdmissionPolicy::Block,
            queue_capacity: 256,
            jobs: steady_jobs,
            job_spin: Duration::ZERO,
        },
        // Admission under a 4x-capacity back-to-back burst of real (spinning) jobs: the
        // queue fills almost immediately and Shed refuses most of the tail. The shed count
        // depends on producer/consumer interleaving, so the gate bounds the shed *rate*
        // instead of demanding exactness.
        ServiceScenario {
            name: "service-overload",
            admission: AdmissionPolicy::Shed,
            queue_capacity: burst_capacity,
            jobs: (burst_capacity * 4) as u64,
            job_spin: Duration::from_micros(20),
        },
    ]
}

/// One timed run: a fresh server, `jobs` submissions, every handle awaited. Returns the
/// wall time (first submission → last settle) and the drained server's final snapshot.
fn service_one_run(sc: &ServiceScenario, threads: usize) -> (u64, ServiceSnapshot) {
    let server = JobServer::new(ServiceConfig {
        threads,
        queue_capacity: sc.queue_capacity,
        admission: sc.admission,
        ..ServiceConfig::default()
    });
    let ran = Arc::new(AtomicU64::new(0));
    let spin = sc.job_spin;
    let start = Instant::now();
    let mut handles = Vec::with_capacity(sc.jobs as usize);
    for _ in 0..sc.jobs {
        let ran = Arc::clone(&ran);
        handles.push(server.submit(move || {
            ran.fetch_add(1, Ordering::Relaxed);
            if !spin.is_zero() {
                let end = Instant::now() + spin;
                while Instant::now() < end {
                    std::hint::spin_loop();
                }
            }
        }));
    }
    for h in &handles {
        h.wait();
    }
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let snap = server.shutdown();
    // Free invariant checks on every bench run: no faults are injected here, so the
    // outcome partition is exactly {completed, shed}, and the counted executions (the
    // closure increments `ran`) must equal the completed count — a shed closure never ran.
    assert_eq!(
        snap.completed + snap.shed,
        snap.submitted,
        "{}: outcomes must partition submissions",
        sc.name
    );
    assert_eq!(
        ran.load(Ordering::Relaxed),
        snap.completed,
        "{}: counted executions must equal completions",
        sc.name
    );
    (wall_ns, snap)
}

/// Run the service-mode scenarios across the configured thread sweep. Each repetition uses
/// a fresh server (counters are per-server lifetime, so a fresh one gives clean per-run
/// numbers); the reported record is the median repetition by wall time.
pub fn run_service_suite(cfg: &BenchConfig) -> Vec<ServiceBenchRecord> {
    let mut records = Vec::new();
    for sc in service_scenarios(cfg.size) {
        for &threads in &cfg.threads {
            for _ in 0..cfg.warmup.max(1) {
                service_one_run(&sc, threads);
            }
            let mut runs: Vec<(u64, ServiceSnapshot)> =
                (0..cfg.repeats.max(1)).map(|_| service_one_run(&sc, threads)).collect();
            runs.sort_by_key(|r| r.0);
            let wall_min = runs[0].0;
            let (wall_med, snap) = runs[runs.len() / 2];
            let shed_rate =
                if snap.submitted == 0 { 0.0 } else { snap.shed as f64 / snap.submitted as f64 };
            let jobs_per_sec =
                if wall_med == 0 { 0.0 } else { snap.completed as f64 * 1e9 / wall_med as f64 };
            records.push(ServiceBenchRecord {
                scenario: sc.name.to_string(),
                admission: admission_name(sc.admission).to_string(),
                threads,
                queue_capacity: sc.queue_capacity,
                submitted: snap.submitted,
                completed: snap.completed,
                shed: snap.shed,
                wall_ns_median: wall_med,
                wall_ns_min: wall_min,
                jobs_per_sec,
                shed_rate,
                p99_queue_ns: snap.queue.p99_ns,
                p99_service_ns: snap.service.p99_ns,
            });
        }
    }
    records
}

// ------------------------------------------------------------------------------------------
// Flight-recorder overhead row
// ------------------------------------------------------------------------------------------

/// Ring capacity (events per lane) used by the trace-overhead measurement — the same
/// default `lab --trace` uses, so the measured cost matches what observability users pay.
pub const TRACE_BENCH_CAPACITY: usize = 1 << 16;

/// The flight-recorder overhead measurement: one deterministic workload run twice — on a
/// plain pool and on a pool built with [`ThreadPoolBuilder::trace`] — so the document
/// records what turning tracing on actually costs, and the gate can prove the *off*
/// configuration (the default every other row measures) never pays for the subsystem.
#[derive(Clone, Debug)]
pub struct TraceBenchRecord {
    /// Workload name (`recursive-sum`: the purest fork/join hot path in the suite, where
    /// per-event cost is least diluted by leaf compute).
    pub workload: String,
    /// Worker threads (1: deterministic jobs, wall gateable like the other t=1 rows).
    pub threads: usize,
    /// Ring capacity per recorder lane during the traced runs.
    pub capacity: usize,
    /// Median wall time with tracing off (the gated number), nanoseconds.
    pub wall_ns_off_median: u64,
    /// Median wall time with tracing on (reported, not gated — the cost of opting in).
    pub wall_ns_on_median: u64,
    /// `(on - off) / off`: the relative cost of the flight recorder on this workload.
    pub overhead_rel: f64,
    /// Fork branches per repeat — identical off and on (asserted), gated exactly.
    pub jobs: u64,
    /// Events the recorder accepted across the traced warm-up + repeats.
    pub events_recorded: u64,
    /// Events overwritten before the final snapshot (bounded-ring semantics).
    pub events_dropped: u64,
    /// Fraction of the traced span attributed to running jobs.
    pub busy_frac: f64,
    /// Fraction attributed to steal attempts.
    pub steal_frac: f64,
    /// Fraction attributed to parked waiting.
    pub park_frac: f64,
    /// Residual fraction (scheduler bookkeeping between attributed intervals).
    pub overhead_frac: f64,
}

/// One timed pass of the overhead workload: wall time and the pool's fork-count delta.
fn trace_one_run(pool: &ThreadPool, sum_n: u64, expect: u64) -> (u64, u64) {
    let jobs0 = pool.stats().total_jobs();
    let start = Instant::now();
    let check = pool.install(move || recursive_sum(0, sum_n));
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert_eq!(check, expect, "trace-overhead: nondeterministic checksum");
    (wall_ns, pool.stats().total_jobs() - jobs0)
}

/// Measure the flight recorder's cost: `recursive-sum` on a 1-thread chaselev pool with
/// tracing off, then on a pool built with `.trace(TRACE_BENCH_CAPACITY)`, medians over
/// `cfg.repeats`. The fork count must be identical in both modes — tracing observes the
/// schedule, it must not change it.
pub fn run_trace_overhead(cfg: &BenchConfig) -> TraceBenchRecord {
    let sum_n: u64 = match cfg.size {
        SizeClass::Smoke => 1 << 18,
        SizeClass::Full => 1 << 23,
    };
    let expect: u64 = (0..sum_n).sum();
    let threads = 1usize;

    let measure = |pool: &ThreadPool| -> (u64, u64) {
        for _ in 0..cfg.warmup.max(1) {
            trace_one_run(pool, sum_n, expect);
        }
        let mut runs: Vec<(u64, u64)> =
            (0..cfg.repeats.max(1)).map(|_| trace_one_run(pool, sum_n, expect)).collect();
        let jobs = runs[0].1;
        assert!(
            runs.iter().all(|&(_, j)| j == jobs),
            "trace-overhead: fork count must be deterministic at t=1"
        );
        runs.sort_by_key(|r| r.0);
        (runs[runs.len() / 2].0, jobs)
    };

    let off_pool = ThreadPoolBuilder::new().threads(threads).build();
    let (off_median, off_jobs) = measure(&off_pool);

    let on_pool = ThreadPoolBuilder::new().threads(threads).trace(TRACE_BENCH_CAPACITY).build();
    let (on_median, on_jobs) = measure(&on_pool);
    assert_eq!(off_jobs, on_jobs, "tracing must not change the fork count");

    let snap = on_pool.trace_snapshot().expect("traced pool must yield a snapshot");
    let profile = snap.profile();
    let span: u64 = profile.workers.iter().map(|w| w.span_ns).sum();
    let attributed = |f: fn(&rws_runtime::trace::WorkerProfile) -> u64| -> f64 {
        if span == 0 {
            0.0
        } else {
            profile.workers.iter().map(f).sum::<u64>() as f64 / span as f64
        }
    };
    TraceBenchRecord {
        workload: "recursive-sum".into(),
        threads,
        capacity: TRACE_BENCH_CAPACITY,
        wall_ns_off_median: off_median,
        wall_ns_on_median: on_median,
        overhead_rel: if off_median == 0 {
            0.0
        } else {
            (on_median as f64 - off_median as f64) / off_median as f64
        },
        jobs: off_jobs,
        events_recorded: snap.total_recorded(),
        events_dropped: snap.total_dropped(),
        busy_frac: attributed(|w| w.busy_ns),
        steal_frac: attributed(|w| w.steal_ns),
        park_frac: attributed(|w| w.park_ns),
        overhead_frac: attributed(|w| w.overhead_ns),
    }
}

// ------------------------------------------------------------------------------------------
// Sharded fork-join rows
// ------------------------------------------------------------------------------------------

/// One multi-process measurement: a shardable fork-join workload partitioned across
/// `shards` worker subprocesses by [`rws_shard::ShardedExecutor`], against the same
/// workload on an in-process pool with the same total thread count. The interesting number
/// is `overhead_rel`: what process spawning, pipe framing, and by-spec input rebuilding
/// cost relative to staying in-process. Walls are reported, not gated (subprocess spawn
/// latency is host-noise-bound); the *structure* — parts, fork counts, a clean fault
/// ledger — is deterministic and gated exactly.
#[derive(Clone, Debug)]
pub struct ShardedBenchRecord {
    /// Workload name (`matmul` or `spmv` — the by-spec-rebuildable demo instances).
    pub workload: String,
    /// Worker subprocesses.
    pub shards: usize,
    /// Native pool threads inside each worker.
    pub threads_per_shard: usize,
    /// Output parts the workload was partitioned into.
    pub parts: usize,
    /// Median sharded wall time over the repeats, nanoseconds.
    pub wall_ns_median: u64,
    /// Fastest sharded repeat, nanoseconds.
    pub wall_ns_min: u64,
    /// Median wall of the same workload on an in-process pool with
    /// `shards × threads_per_shard` threads, nanoseconds.
    pub inproc_wall_ns_median: u64,
    /// `(sharded − in-process) / in-process` on the median walls: the multi-process tax.
    pub overhead_rel: f64,
    /// Fork branches executed across all workers on the median sharded run — deterministic
    /// (a property of the per-part kernels), gated exactly.
    pub work_items: u64,
    /// Jobs redistributed after a shard death on the median run — 0 in this suite (no
    /// faults are injected), gated exactly.
    pub redistributed: u64,
}

/// Run the sharded suite: both shardable workloads × 2 worker subprocesses (1 pool thread
/// each) vs a 2-thread in-process pool. Every sharded run's output is checked against the
/// sequential reference, so a row doubles as a cross-process correctness pass.
///
/// Needs the `shard-worker` binary next to the running one — `cargo build --release -p
/// rws-shard` first (the binary's CI step does), or point `RWS_SHARD_WORKER` at it.
pub fn run_sharded_suite(cfg: &BenchConfig) -> Vec<ShardedBenchRecord> {
    use rws_exec::workloads::{MatMulWorkload, SpmvWorkload};
    use rws_exec::{Executor, NativeExecutor, SharedWorkload};
    use rws_shard::ShardedExecutor;

    let (mm_n, spmv_n) = match cfg.size {
        SizeClass::Smoke => (16usize, 512usize),
        SizeClass::Full => (32, 4096),
    };
    let workloads: Vec<(&str, SharedWorkload)> = vec![
        ("matmul", Arc::new(MatMulWorkload::demo(mm_n, 4))),
        ("spmv", Arc::new(SpmvWorkload::demo(spmv_n))),
    ];
    let (shards, threads_per_shard) = (2usize, 1usize);

    let mut records = Vec::new();
    for (name, workload) in workloads {
        let reference = workload.run_reference();

        // The in-process column: same kernel, same total thread count, one address space.
        let inproc = NativeExecutor::new(shards * threads_per_shard);
        for _ in 0..cfg.warmup.max(1) {
            inproc.execute(Arc::clone(&workload));
        }
        let mut inproc_walls: Vec<u64> = (0..cfg.repeats.max(1))
            .map(|_| {
                let outcome = inproc.execute(Arc::clone(&workload));
                assert_eq!(outcome.output, reference, "{name}: in-process run diverged");
                u64::try_from(outcome.report.wall.as_nanos()).unwrap_or(u64::MAX)
            })
            .collect();
        inproc_walls.sort_unstable();
        let inproc_median = inproc_walls[inproc_walls.len() / 2];

        // The sharded column: a fresh coordinator per repeat (each run spawns and reaps
        // its own worker processes; the executor value is pure configuration).
        let exec = ShardedExecutor::new(shards).threads_per_shard(threads_per_shard);
        for _ in 0..cfg.warmup.max(1) {
            exec.execute(Arc::clone(&workload));
        }
        let mut runs: Vec<(u64, u64, u64, usize)> = (0..cfg.repeats.max(1))
            .map(|_| {
                let outcome = exec.execute(Arc::clone(&workload));
                assert_eq!(outcome.output, reference, "{name}: sharded run diverged");
                let detail = outcome.report.shard.expect("sharded runs carry shard detail");
                assert_eq!(detail.shard_deaths, 0, "{name}: no faults are injected here");
                let wall = u64::try_from(outcome.report.wall.as_nanos()).unwrap_or(u64::MAX);
                (wall, outcome.report.work_items, detail.redistributed, detail.parts)
            })
            .collect();
        runs.sort_unstable_by_key(|r| r.0);
        let wall_min = runs[0].0;
        let (wall_median, work_items, redistributed, parts) = runs[runs.len() / 2];

        records.push(ShardedBenchRecord {
            workload: name.to_string(),
            shards,
            threads_per_shard,
            parts,
            wall_ns_median: wall_median,
            wall_ns_min: wall_min,
            inproc_wall_ns_median: inproc_median,
            overhead_rel: if inproc_median == 0 {
                0.0
            } else {
                (wall_median as f64 - inproc_median as f64) / inproc_median as f64
            },
            work_items,
            redistributed,
        });
    }
    records
}

/// Render the trace-overhead measurement as the document's `trace` object.
fn trace_json(t: &TraceBenchRecord) -> Json {
    obj([
        ("workload", t.workload.as_str().into()),
        ("threads", t.threads.into()),
        ("capacity", t.capacity.into()),
        ("wall_ns_off_median", t.wall_ns_off_median.into()),
        ("wall_ns_on_median", t.wall_ns_on_median.into()),
        ("overhead_rel", t.overhead_rel.into()),
        ("jobs", t.jobs.into()),
        ("events_recorded", t.events_recorded.into()),
        ("events_dropped", t.events_dropped.into()),
        ("busy_frac", t.busy_frac.into()),
        ("steal_frac", t.steal_frac.into()),
        ("park_frac", t.park_frac.into()),
        ("overhead_frac", t.overhead_frac.into()),
    ])
}

/// Serialize the suite results as the `BENCH_native.json` document, rendered through the
/// shared [`rws_lab::json`] writer (one escaping and number-formatting path workspace-wide).
/// `trace` is an object when measured and `null` when not, and `sharded` is always an
/// array (empty when that suite did not run): the keys are always present, so consumers
/// need no probing.
pub fn to_json_full(
    cfg: &BenchConfig,
    records: &[BenchRecord],
    service: &[ServiceBenchRecord],
    trace: Option<&TraceBenchRecord>,
    sharded: &[ShardedBenchRecord],
) -> String {
    let recs: Vec<Json> = records
        .iter()
        .map(|r| {
            obj([
                ("workload", r.workload.as_str().into()),
                ("backend", r.backend.as_str().into()),
                ("threads", r.threads.into()),
                ("wall_ns_median", r.wall_ns_median.into()),
                ("wall_ns_min", r.wall_ns_min.into()),
                ("steals", r.steals.into()),
                ("batch_steals", r.batch_steals.into()),
                ("jobs", r.jobs.into()),
                ("steal_retries", r.steal_retries.into()),
                ("parks", r.parks.into()),
                ("allocs", r.allocs.into()),
                ("allocs_per_fork", r.allocs_per_fork.into()),
            ])
        })
        .collect();
    let svc: Vec<Json> = service
        .iter()
        .map(|r| {
            obj([
                ("scenario", r.scenario.as_str().into()),
                ("admission", r.admission.as_str().into()),
                ("threads", r.threads.into()),
                ("queue_capacity", r.queue_capacity.into()),
                ("submitted", r.submitted.into()),
                ("completed", r.completed.into()),
                ("shed", r.shed.into()),
                ("wall_ns_median", r.wall_ns_median.into()),
                ("wall_ns_min", r.wall_ns_min.into()),
                ("jobs_per_sec", r.jobs_per_sec.into()),
                ("shed_rate", r.shed_rate.into()),
                ("p99_queue_ns", r.p99_queue_ns.into()),
                ("p99_service_ns", r.p99_service_ns.into()),
            ])
        })
        .collect();
    let shd: Vec<Json> = sharded
        .iter()
        .map(|r| {
            obj([
                ("workload", r.workload.as_str().into()),
                ("shards", r.shards.into()),
                ("threads_per_shard", r.threads_per_shard.into()),
                ("parts", r.parts.into()),
                ("wall_ns_median", r.wall_ns_median.into()),
                ("wall_ns_min", r.wall_ns_min.into()),
                ("inproc_wall_ns_median", r.inproc_wall_ns_median.into()),
                ("overhead_rel", r.overhead_rel.into()),
                ("work_items", r.work_items.into()),
                ("redistributed", r.redistributed.into()),
            ])
        })
        .collect();
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let caveat = if host == 0 {
        "host parallelism unknown (available_parallelism failed): interpret multi-thread \
         rows against the actual core count of the measuring host"
    } else if host == 1 {
        "1-CPU host: rows with threads > 1 measure oversubscription (OS time-slicing), \
         not parallel speedup; steal/park counters reflect starved scheduling"
    } else {
        "thread counts above host_parallelism measure oversubscription"
    };
    obj([
        // v2: the `service` array (job-server throughput/shedding rows) joined the
        // document. v3: the `chaselev_vs_simple` section left with the mutex deque, so
        // every record is a `chaselev` row. A baseline of another version must be
        // regenerated.
        ("schema", "rws-bench-native/v3".into()),
        ("size", cfg.size.name().into()),
        ("repeats", cfg.repeats.into()),
        ("warmup", cfg.warmup.into()),
        ("host_parallelism", host.into()),
        ("caveat", caveat.into()),
        ("records", recs.into()),
        ("service", svc.into()),
        ("trace", trace.map(trace_json).unwrap_or(Json::Null)),
        ("sharded", shd.into()),
    ])
    .render()
}

/// Structural validation of a `BENCH_native.json` document: well-formed JSON (via the
/// shared [`rws_lab::json`] validator) plus this emitter's required keys.
/// Returns a description of the first problem found.
pub fn validate_json(doc: &str) -> Result<(), String> {
    json::validate_with_keys(
        doc,
        &["schema", "records", "service", "trace", "sharded", "wall_ns_median", "caveat"],
    )
}
