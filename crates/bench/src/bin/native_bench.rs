//! Emit `BENCH_native.json`: the native hot-path benchmark of the lock-free Chase–Lev
//! deque pool across workloads and thread counts, plus the service-mode rows (job-server
//! throughput, shed rate, and p99 queue latency — see `run_service_suite`), the
//! flight-recorder overhead row (`run_trace_overhead`: the same workload with tracing off
//! and on), and the multi-process `sharded` rows (`run_sharded_suite`: shardable workloads
//! across worker subprocesses vs in-process — needs the `shard-worker` binary, so build
//! `rws-shard` first).
//!
//! ```text
//! native_bench [--size smoke|full] [--out PATH] [--threads 1,2,4] [--repeats N]
//!              [--warmup N] [--gate BASELINE.json] [--delta-out PATH] [--ab BASE_BIN]
//! ```
//!
//! The process installs a counting global allocator so the suite can report
//! allocations-per-fork (the "is `join` really allocation-free" number). After
//! writing, the document is re-read and structurally validated; any problem — malformed
//! JSON, a panicking backend — exits nonzero, which is what the CI smoke step checks.
//!
//! `--gate BASELINE.json` checks the run against a committed baseline: its structure (no
//! dropped section, workload or row; every run row has a baseline twin) and its
//! deterministic counters, exactly. It reads no wall. The `rws-bench-delta/v2` document is
//! written to `--delta-out` (default `BENCH_delta.json`), and any regression exits
//! nonzero.
//!
//! `--ab BASE_BIN` (with `--gate`) gates the walls on this host instead: it runs `BASE_BIN`
//! and this binary alternately as subprocesses with the same `--size/--threads/--repeats/
//! --warmup`, `AB_PAIRS` whole-suite pairs in ABBA order, and fails a `threads = 1` wall
//! only when this build is slower in nearly every pair by a clear margin. The first of this
//! binary's documents is the one written to `--out` and checked by `--gate`.

use rws_bench::native_bench::gate::{ab_against, gate_against, AbRow, AB_PAIRS};
use rws_bench::native_bench::suite::{
    run_service_suite, run_sharded_suite, run_suite, run_trace_overhead, to_json_full,
    validate_json, BenchConfig, SizeClass,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};

// NOTE: crates/runtime/tests/alloc_free_join.rs has a per-thread variant — a
// #[global_allocator] must be declared in each binary crate root. This one stays
// process-global because the t>1 `allocs` counts deliberately span the pool's threads.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage: native_bench [--size smoke|full] [--out PATH] [--threads 1,2,4] [--repeats N] \
         [--warmup N] [--gate BASELINE.json] [--delta-out PATH] [--ab BASE_BIN]"
    );
    std::process::exit(2);
}

/// Run the whole suite in this process and return the rendered document.
fn measure(cfg: &BenchConfig) -> String {
    let records = run_suite(cfg, || ALLOCATIONS.load(Ordering::Relaxed));
    for r in &records {
        eprintln!(
            "  {:>13} {:>8} t={}  median {:>12} ns  steals {:>6} ({:>5} batches)  \
             jobs {:>8}  retries {:>5}  parks {:>4}  allocs/fork {:.4}",
            r.workload,
            r.backend,
            r.threads,
            r.wall_ns_median,
            r.steals,
            r.batch_steals,
            r.jobs,
            r.steal_retries,
            r.parks,
            r.allocs_per_fork
        );
    }
    let service = run_service_suite(cfg);
    for r in &service {
        eprintln!(
            "  {:>16} {:>6} t={}  median {:>12} ns  {:>9.0} jobs/s  shed {:>4} \
             (rate {:.3})  p99 queue {:>9} ns",
            r.scenario,
            r.admission,
            r.threads,
            r.wall_ns_median,
            r.jobs_per_sec,
            r.shed,
            r.shed_rate,
            r.p99_queue_ns
        );
    }
    let trace = run_trace_overhead(cfg);
    eprintln!(
        "  trace-overhead {} t={}  off {:>12} ns  on {:>12} ns  ({:+.1}%)  \
         {} events recorded",
        trace.workload,
        trace.threads,
        trace.wall_ns_off_median,
        trace.wall_ns_on_median,
        100.0 * trace.overhead_rel,
        trace.events_recorded
    );
    // The multi-process rows: shardable workloads across worker subprocesses vs the same
    // kernels in-process. Needs the shard-worker binary next to this one (CI builds
    // rws-shard first); when it is absent, say how to fix it rather than emitting a
    // document missing a section the baseline promises.
    let sharded = run_sharded_suite(cfg);
    for r in &sharded {
        eprintln!(
            "  sharded {:>8} s={} t={}  median {:>12} ns  in-process {:>12} ns  \
             ({:+.1}%)  {} parts  jobs {:>8}",
            r.workload,
            r.shards,
            r.threads_per_shard,
            r.wall_ns_median,
            r.inproc_wall_ns_median,
            100.0 * r.overhead_rel,
            r.parts,
            r.work_items
        );
    }
    to_json_full(cfg, &records, &service, Some(&trace), &sharded)
}

/// Run `bin` as a subprocess with `cfg`'s sweep and return the document it wrote.
fn run_subprocess(bin: &Path, cfg: &BenchConfig, tag: &str) -> Result<String, String> {
    let out =
        std::env::temp_dir().join(format!("native_bench-ab-{}-{tag}.json", std::process::id()));
    let threads: Vec<String> = cfg.threads.iter().map(usize::to_string).collect();
    let output = Command::new(bin)
        .args(["--size", cfg.size.name(), "--threads", &threads.join(",")])
        .args(["--repeats", &cfg.repeats.to_string(), "--warmup", &cfg.warmup.to_string()])
        .arg("--out")
        .arg(&out)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!("{} exited with {}:\n{stderr}", bin.display(), output.status));
    }
    let doc =
        std::fs::read_to_string(&out).map_err(|e| format!("cannot read {}: {e}", out.display()));
    let _ = std::fs::remove_file(&out);
    doc
}

fn main() -> ExitCode {
    let mut size = SizeClass::Full;
    let mut out = String::from("BENCH_native.json");
    let mut threads: Option<Vec<usize>> = None;
    let mut repeats: Option<usize> = None;
    let mut warmup: Option<usize> = None;
    let mut gate_baseline: Option<String> = None;
    let mut delta_out = String::from("BENCH_delta.json");
    let mut ab_base: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" => {
                size = it.next().and_then(|s| SizeClass::parse(s)).unwrap_or_else(|| usage())
            }
            "--out" => out = it.next().cloned().unwrap_or_else(|| usage()),
            "--threads" => {
                let list = it.next().unwrap_or_else(|| usage());
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|t| t.trim().parse::<usize>()).collect();
                threads = Some(parsed.unwrap_or_else(|_| usage()));
            }
            "--repeats" => {
                repeats = Some(
                    it.next()
                        .and_then(|r| r.parse().ok())
                        .filter(|&r| r > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--warmup" => {
                warmup = Some(it.next().and_then(|r| r.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--gate" => gate_baseline = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--delta-out" => delta_out = it.next().cloned().unwrap_or_else(|| usage()),
            "--ab" => ab_base = Some(it.next().map(PathBuf::from).unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if ab_base.is_some() && gate_baseline.is_none() {
        eprintln!("native_bench: --ab needs --gate (its verdicts go into the gate's delta)");
        usage();
    }

    let mut cfg = BenchConfig::for_size(size);
    if let Some(t) = threads {
        cfg.threads = t;
    }
    if let Some(r) = repeats {
        cfg.repeats = r;
    }
    if let Some(w) = warmup {
        cfg.warmup = w;
    }
    eprintln!(
        "native_bench: size={} threads={:?} repeats={} warmup={} -> {}",
        cfg.size.name(),
        cfg.threads,
        cfg.repeats,
        cfg.warmup,
        out
    );

    // The document under inspection: measured here, or the first B run of an A/B check.
    let (doc, ab): (String, Option<Vec<AbRow>>) = match &ab_base {
        None => (measure(&cfg), None),
        Some(base_bin) => {
            let this_bin = match std::env::current_exe() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("native_bench: cannot locate this binary: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (mut a_runs, mut b_runs) = (0, 0);
            let run_a = || {
                a_runs += 1;
                eprintln!(
                    "native_bench: A/B run {a_runs}/{AB_PAIRS} of A ({})",
                    base_bin.display()
                );
                run_subprocess(base_bin, &cfg, "a")
            };
            let run_b = || {
                b_runs += 1;
                eprintln!("native_bench: A/B run {b_runs}/{AB_PAIRS} of B (this build)");
                run_subprocess(&this_bin, &cfg, "b")
            };
            match ab_against(run_a, run_b) {
                Ok((doc, rows)) => {
                    for r in &rows {
                        eprintln!(
                            "  {:>22}  B slower in {:>2}/{AB_PAIRS} pairs  median B/A {:.3}  {}",
                            r.id,
                            r.b_slower,
                            r.median_ratio,
                            if r.ok { "ok" } else { "SLOWER" }
                        );
                    }
                    (doc, Some(rows))
                }
                Err(e) => {
                    eprintln!("native_bench: A/B check failed to run: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("native_bench: failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    // Validate what actually landed on disk, not the in-memory string.
    let written = match std::fs::read_to_string(&out) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("native_bench: failed to re-read {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_json(&written) {
        eprintln!("native_bench: run document is malformed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("native_bench: wrote {out}");

    if let Some(gate_path) = &gate_baseline {
        let baseline_doc = match std::fs::read_to_string(gate_path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("native_bench: cannot read gate baseline {gate_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match gate_against(&written, &baseline_doc, ab.as_deref()) {
            Ok((delta, pass)) => {
                if let Err(e) = std::fs::write(&delta_out, &delta) {
                    eprintln!("native_bench: failed to write {delta_out}: {e}");
                    return ExitCode::FAILURE;
                }
                if pass {
                    eprintln!("native_bench: gate PASS vs {gate_path} (delta: {delta_out})");
                } else {
                    eprintln!("native_bench: gate FAIL vs {gate_path} (delta: {delta_out}):");
                    if let Ok(parsed) = rws_lab::json::parse(&delta) {
                        for r in parsed.get("regressions").and_then(|r| r.as_array()).unwrap_or(&[])
                        {
                            if let Some(s) = r.as_str() {
                                eprintln!("  {s}");
                            }
                        }
                    }
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("native_bench: gate could not compare the documents: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
