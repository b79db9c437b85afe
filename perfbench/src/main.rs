//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the metric names and units are read from
//! `BENCHMARK.json` there. Human-readable lines (host fingerprint, every metric the
//! workload measures, the layer ledger) come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the per-layer ones, and
//! the run is split into an untraced half and a traced half so the tracing overhead shows.

use perfbench::host::{cpu_ticks, Fingerprint};
use perfbench::{run_workload, Measured, RunCtx, WORKLOADS};
use rws_lab::json::{self, Json};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == key).ok_or(format!("missing {key}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{key} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s list `key`.
fn metric_list(doc: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    let list = doc.get(key).and_then(Json::as_array).ok_or(format!("no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            field("name").zip(field("unit")).ok_or(format!("malformed `{key}` entry"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))
        .and_then(|s| json::parse(&s))
        .and_then(|doc| {
            let key = if args.trace { "per_layer" } else { "end_to_end" };
            metric_list(&doc, key)
        });
    let names = match spec {
        Ok(n) => n,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload `{}` (expected {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    }

    println!("{}", Fingerprint::take(Path::new("."), args.seed).line());
    let budget = Duration::from_secs_f64(args.seconds);
    let ticks = cpu_ticks();
    let mut m = if args.trace {
        traced(&args, budget)
    } else {
        run_workload(&args.workload, &RunCtx::new(args.seed, budget, false))
            .expect("workload name checked above")
    };
    let after = cpu_ticks();
    let (steal, total) = (after.0.saturating_sub(ticks.0), after.1.saturating_sub(ticks.1));
    m.lines.push(format!(
        "host: cpu steal during the run {:.2}% of cpu time (from /proc/stat)",
        100.0 * steal as f64 / total.max(1) as f64
    ));
    for line in &m.lines {
        println!("{line}");
    }

    let mut fields = Vec::new();
    for (name, unit) in &names {
        let value = match m.metrics.get(name) {
            Some(v) => *v,
            // A per-layer metric of a layer this workload does not exercise.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: workload {} did not measure {name}", args.workload);
                return ExitCode::from(1);
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not a finite number ({value})");
            return ExitCode::from(1);
        }
        println!("metric {name} = {value} {unit}");
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// The per-layer run: an untraced half, then a traced half; the spans of the traced half
/// are written next to the benchmark executable.
fn traced(args: &Args, budget: Duration) -> Measured {
    let mut plain = RunCtx::new(args.seed, budget / 2, false);
    plain.setups = 1;
    let base = run_workload(&args.workload, &plain).expect("workload name checked above");
    let ctx = RunCtx::new(args.seed, budget / 2, true);
    let mut m = run_workload(&args.workload, &ctx).expect("workload name checked above");
    let p50 = |m: &Measured| m.metrics.get("run_ms_p50").copied().unwrap_or(0.0);
    let overhead = if p50(&base) > 0.0 { p50(&m) / p50(&base) - 1.0 } else { 0.0 };
    m.set("trace.overhead_frac", overhead);
    m.lines.push(format!(
        "trace.overhead_frac = {overhead:.4} (run_ms_p50 traced {:.4} ms vs untraced {:.4} ms)",
        p50(&m),
        p50(&base)
    ));
    m.attempted += base.attempted;
    m.failed += base.failed;
    m.set("fail_frac", m.failed as f64 / m.attempted.max(1) as f64);
    if let Some(dir) = std::env::current_exe().ok().and_then(|p| p.parent().map(Path::to_path_buf))
    {
        let path = dir.join(format!("perfbench-spans-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&path, ctx.tracer.to_json()) {
            Ok(()) => m.lines.push(format!("spans written to {}", path.display())),
            Err(e) => m.lines.push(format!("spans not written ({e})")),
        }
    }
    m
}
