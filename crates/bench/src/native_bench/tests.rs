use super::gate::*;
use super::suite::*;
use rws_lab::json::{self, Json};

fn record(workload: &str, threads: usize, wall: u64) -> BenchRecord {
    BenchRecord {
        workload: workload.into(),
        backend: "chaselev".into(),
        threads,
        wall_ns_median: wall,
        wall_ns_min: wall - 10,
        steals: if threads == 1 { 0 } else { 5 },
        batch_steals: if threads == 1 { 0 } else { 2 },
        jobs: 50,
        steal_retries: if threads == 1 { 0 } else { 1 },
        parks: 2,
        allocs: 3,
        allocs_per_fork: 0.06,
    }
}

fn service_record(scenario: &str, threads: usize, wall: u64, shed: u64) -> ServiceBenchRecord {
    let submitted = 1000;
    ServiceBenchRecord {
        scenario: scenario.into(),
        admission: if shed == 0 { "block" } else { "shed" }.into(),
        threads,
        queue_capacity: 64,
        submitted,
        completed: submitted - shed,
        shed,
        wall_ns_median: wall,
        wall_ns_min: wall - 5,
        jobs_per_sec: (submitted - shed) as f64 * 1e9 / wall as f64,
        shed_rate: shed as f64 / submitted as f64,
        p99_queue_ns: 500,
        p99_service_ns: 700,
    }
}

fn trace_record(off: u64, on: u64) -> TraceBenchRecord {
    TraceBenchRecord {
        workload: "recursive-sum".into(),
        threads: 1,
        capacity: TRACE_BENCH_CAPACITY,
        wall_ns_off_median: off,
        wall_ns_on_median: on,
        overhead_rel: (on as f64 - off as f64) / off as f64,
        jobs: 511,
        events_recorded: 1022,
        events_dropped: 0,
        busy_frac: 0.95,
        steal_frac: 0.0,
        park_frac: 0.0,
        overhead_frac: 0.05,
    }
}

fn sharded_bench_record(workload: &str, wall: u64) -> ShardedBenchRecord {
    ShardedBenchRecord {
        workload: workload.into(),
        shards: 2,
        threads_per_shard: 1,
        parts: 8,
        wall_ns_median: wall,
        wall_ns_min: wall.saturating_sub(10),
        inproc_wall_ns_median: wall / 2,
        overhead_rel: 1.0,
        work_items: 120,
        redistributed: 0,
    }
}

/// A document with compute records and service rows only (`trace: null`, no sharded rows).
fn doc(cfg: &BenchConfig, records: &[BenchRecord], service: &[ServiceBenchRecord]) -> String {
    to_json_full(cfg, records, service, None, &[])
}

fn tiny_records() -> Vec<BenchRecord> {
    vec![record("recursive-sum", 4, 100), record("matmul", 4, 150)]
}

/// Two workloads at t=1 and t=4: uniform, as every run the gate accepts must be.
fn gate_records() -> Vec<BenchRecord> {
    vec![
        record("recursive-sum", 1, 1000),
        record("recursive-sum", 4, 800),
        record("matmul", 1, 1500),
        record("matmul", 4, 1200),
    ]
}

fn gate_service() -> Vec<ServiceBenchRecord> {
    vec![
        service_record("service-steady", 1, 10_000, 0),
        service_record("service-overload", 1, 20_000, 500),
    ]
}

/// The full gate fixture with every wall scaled by `scale(wall id)`; ids are the ones
/// [`ab_against`] reports (`matmul t=1`, `service-steady t=1`, `trace-overhead off`), plus
/// `… t=4` for the multi-thread records the A/B check must ignore.
fn scaled_doc(scale: impl Fn(&str) -> f64) -> String {
    let ns = |id: String, wall: u64| (wall as f64 * scale(&id)) as u64;
    let records: Vec<BenchRecord> = gate_records()
        .into_iter()
        .map(|r| {
            let wall = ns(format!("{} t={}", r.workload, r.threads), r.wall_ns_median);
            BenchRecord { wall_ns_median: wall, wall_ns_min: wall - 10, ..r }
        })
        .collect();
    let service: Vec<ServiceBenchRecord> = gate_service()
        .into_iter()
        .map(|r| {
            let wall = ns(format!("{} t={}", r.scenario, r.threads), r.wall_ns_median);
            ServiceBenchRecord { wall_ns_median: wall, wall_ns_min: wall - 5, ..r }
        })
        .collect();
    let trace = trace_record(ns("trace-overhead off".into(), 1000), ns("trace-on".into(), 1100));
    let cfg = BenchConfig::for_size(SizeClass::Full);
    to_json_full(&cfg, &records, &service, Some(&trace), &[])
}

/// The t=1 walls of the fixture, in the order [`ab_against`] reports them.
const AB_IDS: [&str; 5] = [
    "recursive-sum t=1",
    "matmul t=1",
    "service-steady t=1",
    "service-overload t=1",
    "trace-overhead off",
];

/// A fake runner: its `k`-th call returns the fixture with every wall scaled by
/// `factor(k, id)` and a seeded ±5% jitter, standing in for one whole-suite subprocess run.
fn fake(seed: u64, factor: impl Fn(usize, &str) -> f64) -> impl FnMut() -> Result<String, String> {
    let mut k = 0usize;
    move || {
        let call = k;
        k += 1;
        Ok(scaled_doc(|id| {
            let key = id.bytes().fold(seed ^ ((call as u64) << 32), |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            });
            let h = key >> 40;
            factor(call, id) * (0.95 + 0.1 * (h % 1000) as f64 / 1000.0)
        }))
    }
}

fn failing(rows: &[AbRow]) -> Vec<&str> {
    rows.iter().filter(|r| !r.ok).map(|r| r.id.as_str()).collect()
}

#[test]
fn json_emission_is_structurally_valid() {
    let cfg = BenchConfig::for_size(SizeClass::Smoke);
    let doc = doc(&cfg, &tiny_records(), &[]);
    validate_json(&doc).expect("emitted JSON must validate");
    assert!(doc.contains("\"schema\": \"rws-bench-native/v3\""), "{doc}");
}

#[test]
fn validator_rejects_malformed_documents() {
    assert!(validate_json("{").is_err());
    assert!(validate_json("{}").is_err(), "required keys missing");
    assert!(validate_json("{\"schema\": \"x\", \"records\": [}]").is_err());
    let cfg = BenchConfig::for_size(SizeClass::Smoke);
    let good = doc(&cfg, &tiny_records(), &[]);
    let truncated = &good[..good.len() - 4];
    assert!(validate_json(truncated).is_err());
}

#[test]
fn gate_accepts_matching_structure_and_catches_drops() {
    let cfg = BenchConfig::for_size(SizeClass::Smoke);
    let records = tiny_records();
    let baseline = doc(&cfg, &records, &[]);

    // A structurally identical run (different walls are fine) passes.
    let mut faster = records.clone();
    for r in &mut faster {
        r.wall_ns_median /= 2;
    }
    let (delta, pass) = gate_against(&doc(&cfg, &faster, &[]), &baseline, None).unwrap();
    assert!(pass, "matching structure:\n{delta}");

    // Dropping a whole workload fails.
    let dropped: Vec<BenchRecord> =
        records.iter().filter(|r| r.workload != "matmul").cloned().collect();
    let err = gate_against(&doc(&cfg, &dropped, &[]), &baseline, None).unwrap_err();
    assert!(err.contains("silently dropped"), "{err}");

    // Dropping one thread-count row of one workload breaks count uniformity.
    let mut uneven = records.clone();
    uneven.extend(records.iter().map(|r| BenchRecord { threads: 8, ..r.clone() }));
    uneven.remove(1); // "matmul" now has 1 row where "recursive-sum" has 2
    let err = gate_against(&doc(&cfg, &uneven, &[]), &baseline, None).unwrap_err();
    assert!(err.contains("thread-count row"), "{err}");

    // A drifted record schema (missing field) fails even though the JSON validates.
    let missing_field = doc(&cfg, &records, &[]).replacen("      \"parks\": 2,\n", "", 1);
    json::validate(&missing_field).expect("still well-formed JSON");
    let err = gate_against(&missing_field, &baseline, None).unwrap_err();
    assert!(err.contains("field set"), "{err}");

    // A different schema tag fails.
    let other_tag = baseline.replacen("rws-bench-native/v3", "rws-bench-native/v4", 1);
    assert!(gate_against(&other_tag, &baseline, None).unwrap_err().contains("schema"));
}

#[test]
fn gate_catches_dropped_service_rows() {
    let cfg = BenchConfig::for_size(SizeClass::Smoke);
    let records = tiny_records();
    let service = gate_service();
    let baseline = doc(&cfg, &records, &service);

    // Same structure, different walls: passes.
    let slower: Vec<ServiceBenchRecord> = service
        .iter()
        .map(|r| ServiceBenchRecord { wall_ns_median: 3 * r.wall_ns_median, ..r.clone() })
        .collect();
    let (_, pass) = gate_against(&doc(&cfg, &records, &slower), &baseline, None).unwrap();
    assert!(pass, "service walls are not read by the baseline check");

    // Dropping a scenario fails.
    let dropped = vec![service[0].clone()];
    let err = gate_against(&doc(&cfg, &records, &dropped), &baseline, None).unwrap_err();
    assert!(err.contains("service-overload") && err.contains("silently dropped"), "{err}");

    // A drifted service-record field set fails.
    let missing = doc(&cfg, &records, &service).replacen("      \"p99_queue_ns\": 500,\n", "", 1);
    json::validate(&missing).expect("still well-formed JSON");
    let err = gate_against(&missing, &baseline, None).unwrap_err();
    assert!(err.contains("service record") && err.contains("field set"), "{err}");
}

#[test]
fn gate_is_forward_compatible_with_extended_runs() {
    let cfg = BenchConfig::for_size(SizeClass::Smoke);
    let records = tiny_records();
    let service = vec![service_record("service-steady", 1, 10_000, 0)];
    let baseline = doc(&cfg, &records, &service);

    // A run emitted by a newer binary: an extra top-level section, an extra field on
    // every record and service row, and a measured trace object where the baseline has
    // null. All of it must be ignored — the baseline's structure is still fully there.
    let extended = to_json_full(&cfg, &records, &service, Some(&trace_record(1000, 1100)), &[])
        .replacen(
            "\"schema\": \"rws-bench-native/v3\",",
            "\"schema\": \"rws-bench-native/v3\",\n  \"future_section\": 1,",
            1,
        )
        .replace("\"parks\": 2,", "\"parks\": 2,\n      \"future_counter\": 7,")
        .replace("\"p99_queue_ns\": 500,", "\"p99_queue_ns\": 500,\n      \"p99_spare\": 1,");
    json::validate(&extended).expect("still well-formed JSON");
    let (delta, pass) = gate_against(&extended, &baseline, None).expect("comparable");
    assert!(pass, "run-side extras are forward-compatible:\n{delta}");

    // The reverse direction is NOT tolerated: a baseline promising more than the run
    // delivers means the run dropped something.
    let err = gate_against(&baseline, &extended, None).unwrap_err();
    assert!(err.contains("future_section") && err.contains("missing from the run"), "{err}");
}

#[test]
fn trace_overhead_row_measures_both_modes() {
    let cfg = BenchConfig { size: SizeClass::Smoke, threads: vec![1], repeats: 1, warmup: 1 };
    let t = run_trace_overhead(&cfg);
    assert_eq!(t.threads, 1);
    assert!(t.jobs > 0, "the workload must fork");
    assert!(t.wall_ns_off_median > 0 && t.wall_ns_on_median > 0);
    assert!(t.events_recorded > 0, "the traced pool must record events");
    for frac in [t.busy_frac, t.steal_frac, t.park_frac, t.overhead_frac] {
        assert!((0.0..=1.0).contains(&frac), "attribution fraction out of range: {frac}");
    }
    let doc = to_json_full(&cfg, &tiny_records(), &[], Some(&t), &[]);
    validate_json(&doc).expect("document with a trace row must validate");
    assert!(doc.contains("\"wall_ns_off_median\""), "{doc}");
}

#[test]
fn gate_covers_the_trace_row() {
    let cfg = BenchConfig::for_size(SizeClass::Full);
    let with_trace = |t: TraceBenchRecord| to_json_full(&cfg, &gate_records(), &[], Some(&t), &[]);
    let baseline = with_trace(trace_record(1000, 1100));

    // Identical documents pass and the delta carries the populated trace row.
    let (delta, pass) = gate_against(&baseline, &baseline, None).unwrap();
    assert!(pass, "identical trace rows must pass:\n{delta}");
    assert!(delta.contains("\"trace_row\"") && delta.contains("overhead_rel_run"), "{delta}");

    // A fork-count drift under tracing trips the gate exactly.
    let mut drifted = trace_record(1000, 1100);
    drifted.jobs += 1;
    let (delta, pass) = gate_against(&with_trace(drifted), &baseline, None).unwrap();
    assert!(!pass, "a traced jobs drift must trip the gate");
    assert!(delta.contains("trace-overhead: jobs 512"), "{delta}");

    // A tracing-off slowdown in B trips the A/B check on that wall alone: the flight
    // recorder leaked cost into the default path.
    let (_, rows) = ab_against(
        fake(1, |_, _| 1.0),
        fake(2, |_, id| if id == "trace-overhead off" { 1.5 } else { 1.0 }),
    )
    .unwrap();
    assert_eq!(failing(&rows), ["trace-overhead off"]);
    let (delta, pass) =
        gate_against(&scaled_doc(|_| 1.0), &scaled_doc(|_| 1.0), Some(&rows)).unwrap();
    assert!(!pass, "a failed A/B row fails the gate");
    assert!(delta.contains("trace-overhead off: B slower in 10/10 pairs"), "{delta}");

    // A slower tracing-ON wall alone is not compared: opting in may cost.
    let (_, rows) =
        ab_against(fake(1, |_, _| 1.0), fake(2, |_, id| if id == "trace-on" { 3.0 } else { 1.0 }))
            .unwrap();
    assert!(failing(&rows).is_empty(), "the tracing-on wall is not gated: {rows:?}");

    // A baseline that never measured the trace row (trace: null) skips it.
    let old_baseline = doc(&cfg, &gate_records(), &[]);
    let (delta, pass) = gate_against(&baseline, &old_baseline, None).unwrap();
    assert!(pass, "a null baseline trace skips the row");
    assert!(delta.contains("\"trace_row\": null"), "{delta}");
}

#[test]
fn smoke_suite_runs_end_to_end() {
    // The CI smoke path in miniature: tiny sizes, one thread count, validated output.
    let cfg = BenchConfig { size: SizeClass::Smoke, threads: vec![2], repeats: 1, warmup: 1 };
    let records = run_suite(&cfg, || 0);
    assert_eq!(records.len(), 11, "11 workloads, one chaselev row each");
    assert!(records.iter().all(|r| r.jobs > 0), "every run must execute forks");
    let doc = doc(&cfg, &records, &[]);
    validate_json(&doc).expect("smoke suite JSON must validate");
}

#[test]
fn gate_passes_on_an_identical_run() {
    let cfg = BenchConfig::for_size(SizeClass::Full);
    let doc = doc(&cfg, &gate_records(), &[]);
    let (delta, pass) = gate_against(&doc, &doc, None).expect("comparable");
    assert!(pass, "identical documents must pass:\n{delta}");
    validate_delta(&delta).expect("delta document must validate");
    assert!(delta.contains("\"pass\": true") && delta.contains("\"ab\": null"), "{delta}");
}

#[test]
fn gate_trips_on_a_single_thread_slowdown_but_ignores_multithread_walls() {
    // The baseline check reads no wall at all: 10x everywhere passes it.
    let (_, pass) = gate_against(&scaled_doc(|_| 10.0), &scaled_doc(|_| 1.0), None).unwrap();
    assert!(pass, "walls are A/B-gated, never against the baseline's nanoseconds");

    // +50% on every t=1 wall in B: every compared row trips, and only t=1 rows are compared.
    let (first_b, rows) = ab_against(
        fake(1, |_, _| 1.0),
        fake(2, |_, id| if id.ends_with("t=4") { 1.0 } else { 1.5 }),
    )
    .unwrap();
    assert_eq!(rows.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(), AB_IDS);
    assert_eq!(failing(&rows), AB_IDS, "{rows:?}");
    assert!(rows.iter().all(|r| r.b_slower == AB_PAIRS && r.median_ratio > 1.3), "{rows:?}");
    let (delta, pass) = gate_against(&first_b, &scaled_doc(|_| 1.0), Some(&rows)).unwrap();
    assert!(!pass);
    validate_delta(&delta).expect("delta with A/B rows must validate");
    assert!(delta.contains("matmul t=1: B slower in 10/10 pairs"), "{delta}");

    // A far bigger slowdown on the t=4 rows alone: multi-thread walls are not compared.
    let (_, rows) = ab_against(
        fake(1, |_, _| 1.0),
        fake(2, |_, id| if id.ends_with("t=4") { 100.0 } else { 1.0 }),
    )
    .unwrap();
    assert!(failing(&rows).is_empty(), "threads > 1 walls are not gated: {rows:?}");
}

#[test]
fn ab_passes_a_jittered_a_a_run_and_ignores_one_outlier_pair() {
    // A/A: the same build on both sides, only jitter between them.
    let (_, rows) = ab_against(fake(1, |_, _| 1.0), fake(2, |_, _| 1.0)).unwrap();
    assert_eq!(rows.len(), AB_IDS.len());
    assert!(failing(&rows).is_empty(), "A/A must pass: {rows:?}");
    assert!(rows.iter().all(|r| (0.9..1.1).contains(&r.median_ratio)), "{rows:?}");

    // One pair where B is 10x slower everywhere (a descheduled run): nothing trips.
    let (_, rows) =
        ab_against(fake(1, |_, _| 1.0), fake(2, |k, _| if k == 3 { 10.0 } else { 1.0 })).unwrap();
    assert!(failing(&rows).is_empty(), "a single outlier pair must not trip: {rows:?}");
}

#[test]
fn ab_runs_abba_pairs_and_returns_the_first_b_document() {
    let order = std::cell::RefCell::new(String::new());
    let runner = |side: char| {
        let order = &order;
        let mut inner = fake(side as u64, |_, _| 1.0);
        move || {
            order.borrow_mut().push(side);
            let doc = inner()?;
            Ok(if side == 'B' && order.borrow().matches('B').count() == 1 {
                doc.replacen("\"size\": \"full\"", "\"size\": \"full\",\n  \"first_b\": 1", 1)
            } else {
                doc
            })
        }
    };
    let (first_b, _) = ab_against(runner('A'), runner('B')).unwrap();
    assert_eq!(*order.borrow(), "ABBAABBAABBAABBAABBA");
    assert!(first_b.contains("first_b"), "{first_b}");

    // A runner failure (a crashed subprocess) is an error, not a verdict.
    let err = ab_against(runner('A'), || Err("exit status 101".to_string())).unwrap_err();
    assert!(err.contains("exit status 101"), "{err}");
    // And so is a sweep without t=1 walls.
    let no_t1 = || Ok(doc(&BenchConfig::for_size(SizeClass::Full), &tiny_records(), &[]));
    assert!(ab_against(no_t1, no_t1).unwrap_err().contains("must include 1"));
}

#[test]
fn gate_trips_on_deterministic_counter_drift() {
    let cfg = BenchConfig::for_size(SizeClass::Full);
    let baseline = doc(&cfg, &gate_records(), &[]);

    // jobs is deterministic at every thread count.
    let mut more_jobs = gate_records();
    more_jobs[1].jobs += 1;
    let (delta, pass) = gate_against(&doc(&cfg, &more_jobs, &[]), &baseline, None).unwrap();
    assert!(!pass, "a jobs drift must trip the gate even at threads > 1");
    assert!(delta.contains("jobs 51"), "{delta}");

    // allocs is gated exactly at t=1 only.
    let mut more_allocs = gate_records();
    more_allocs[0].allocs += 2;
    let (_, pass) = gate_against(&doc(&cfg, &more_allocs, &[]), &baseline, None).unwrap();
    assert!(!pass, "a t=1 allocation regression must trip the gate");
}

#[test]
fn gate_bounds_multithread_retries_and_tolerates_noise_below_the_bound() {
    let cfg = BenchConfig::for_size(SizeClass::Full);
    let baseline = doc(&cfg, &gate_records(), &[]);
    // Baseline t=4 retries is 1; bound is 1*16 + 256 = 272.
    let mut noisy = gate_records();
    noisy[1].steal_retries = 200;
    let (_, pass) = gate_against(&doc(&cfg, &noisy, &[]), &baseline, None).unwrap();
    assert!(pass, "scheduling noise below the bound passes");
    let mut storm = gate_records();
    storm[1].steal_retries = 100_000;
    let (delta, pass) = gate_against(&doc(&cfg, &storm, &[]), &baseline, None).unwrap();
    assert!(!pass, "a retry explosion must trip the gate");
    assert!(delta.contains("steal_retries 100000"), "{delta}");
}

#[test]
fn gate_covers_service_rows() {
    let cfg = BenchConfig::for_size(SizeClass::Full);
    let service = gate_service();
    let baseline = doc(&cfg, &gate_records(), &service);

    // Identical documents pass, and the delta carries the service rows.
    let (delta, pass) = gate_against(&baseline, &baseline, None).unwrap();
    assert!(pass, "identical service rows must pass:\n{delta}");
    assert!(delta.contains("service_rows") && delta.contains("service-overload"), "{delta}");

    // One wall 2x slower in B trips the A/B check on that row only.
    let (_, rows) = ab_against(
        fake(1, |_, _| 1.0),
        fake(2, |_, id| if id == "service-steady t=1" { 2.0 } else { 1.0 }),
    )
    .unwrap();
    assert_eq!(failing(&rows), ["service-steady t=1"]);

    // `submitted` is exact: the scenario fixes it, so any drift is a harness bug.
    let mut drift = service.clone();
    drift[0].submitted += 1;
    let (delta, pass) = gate_against(&doc(&cfg, &gate_records(), &drift), &baseline, None).unwrap();
    assert!(!pass, "a submitted drift must trip the gate");
    assert!(delta.contains("submitted 1001"), "{delta}");

    // A broken outcome partition (completed + shed != submitted) trips the gate.
    let mut torn = service.clone();
    torn[1].completed -= 1;
    let (delta, pass) = gate_against(&doc(&cfg, &gate_records(), &torn), &baseline, None).unwrap();
    assert!(!pass, "a torn outcome partition must trip the gate");
    assert!(delta.contains("outcome partition broken"), "{delta}");

    // Shed-rate noise inside the slack passes; an explosion past it fails.
    let shed_variant = |shed: u64| {
        let mut v = service.clone();
        v[1].shed = shed;
        v[1].completed = v[1].submitted - shed;
        v[1].shed_rate = shed as f64 / v[1].submitted as f64;
        doc(&cfg, &gate_records(), &v)
    };
    let (_, pass) = gate_against(&shed_variant(650), &baseline, None).unwrap();
    assert!(pass, "shed rate 0.65 is inside base 0.50 + slack 0.20");
    let (delta, pass) = gate_against(&shed_variant(900), &baseline, None).unwrap();
    assert!(!pass, "shed rate 0.90 must trip the bound");
    assert!(delta.contains("shed_rate 0.900"), "{delta}");
    // Shedding *less* than the baseline is never a regression.
    let (_, pass) = gate_against(&shed_variant(0), &baseline, None).unwrap();
    assert!(pass, "a lower shed rate passes");

    // A run service row with no baseline counterpart means the suite changed.
    let mut grown = service.clone();
    grown.push(service_record("service-new", 1, 5_000, 0));
    let err = gate_against(&doc(&cfg, &gate_records(), &grown), &baseline, None).unwrap_err();
    assert!(err.contains("service-new") && err.contains("regenerate"), "{err}");
}

#[test]
fn service_suite_runs_end_to_end() {
    let cfg = BenchConfig { size: SizeClass::Smoke, threads: vec![1], repeats: 1, warmup: 1 };
    let service = run_service_suite(&cfg);
    assert_eq!(service.len(), 2, "2 scenarios x 1 thread count");
    let steady = service.iter().find(|r| r.scenario == "service-steady").unwrap();
    assert_eq!(steady.shed, 0, "Block admission never sheds");
    assert_eq!(steady.completed, steady.submitted);
    assert!(steady.jobs_per_sec > 0.0);
    let overload = service.iter().find(|r| r.scenario == "service-overload").unwrap();
    assert_eq!(overload.submitted, 4 * overload.queue_capacity as u64);
    assert_eq!(overload.completed + overload.shed, overload.submitted);
    let doc = doc(&cfg, &[], &service);
    validate_json(&doc).expect("service suite JSON must validate");
}

#[test]
fn gate_requires_comparable_documents() {
    let full = BenchConfig::for_size(SizeClass::Full);
    let smoke = BenchConfig::for_size(SizeClass::Smoke);
    let records = gate_records();
    let baseline = doc(&full, &records, &[]);

    // Size classes must match.
    let err = gate_against(&doc(&smoke, &records, &[]), &baseline, None).unwrap_err();
    assert!(err.contains("size differs"), "{err}");

    // A run workload with no baseline counterpart means the suite grew.
    let mut extra = records.clone();
    extra.extend(
        records
            .iter()
            .take(2)
            .map(|r| BenchRecord { workload: "new-workload".into(), ..r.clone() }),
    );
    let err = gate_against(&doc(&full, &extra, &[]), &baseline, None).unwrap_err();
    assert!(err.contains("new-workload") && err.contains("regenerate"), "{err}");

    // The reverse — gating a t=1 subset sweep against the full baseline — is fine.
    let subset: Vec<BenchRecord> = records.iter().filter(|r| r.threads == 1).cloned().collect();
    let (_, pass) = gate_against(&doc(&full, &subset, &[]), &baseline, None).unwrap();
    assert!(pass);
}

fn doc_with_sharded(cfg: &BenchConfig, sharded: &[ShardedBenchRecord]) -> String {
    to_json_full(cfg, &gate_records(), &[], None, sharded)
}

#[test]
fn gate_covers_sharded_rows_structure_exact_walls_ungated() {
    let cfg = BenchConfig::for_size(SizeClass::Full);
    let sharded = vec![sharded_bench_record("matmul", 1000), sharded_bench_record("spmv", 900)];
    let baseline = doc_with_sharded(&cfg, &sharded);

    // Identical documents pass; the delta carries the sharded rows.
    let (delta, pass) = gate_against(&baseline, &baseline, None).unwrap();
    assert!(pass, "identical sharded rows must pass:\n{delta}");
    validate_delta(&delta).expect("delta must validate");
    assert!(delta.contains("\"sharded_rows\"") && delta.contains("overhead_rel_run"), "{delta}");

    // Walls are never gated, however bad: subprocess spawn latency is host noise.
    let mut slow = sharded.clone();
    slow[0].wall_ns_median = 1_000_000;
    slow[0].overhead_rel = 999.0;
    let (_, pass) = gate_against(&doc_with_sharded(&cfg, &slow), &baseline, None).unwrap();
    assert!(pass, "sharded walls are reported, not gated");

    // The deterministic structure is exact: a fork-count drift trips the gate.
    let mut drift = sharded.clone();
    drift[1].work_items += 1;
    let (delta, pass) = gate_against(&doc_with_sharded(&cfg, &drift), &baseline, None).unwrap();
    assert!(!pass, "a sharded work_items drift must trip the gate");
    assert!(delta.contains("sharded spmv s=2 t=1: work_items 121"), "{delta}");

    // A nonzero redistributed count means workers died in a fault-free run.
    let mut died = sharded.clone();
    died[0].redistributed = 3;
    let (delta, pass) = gate_against(&doc_with_sharded(&cfg, &died), &baseline, None).unwrap();
    assert!(!pass, "redistribution during a bench run must trip the gate");
    assert!(delta.contains("redistributed 3 != 0"), "{delta}");

    // A run row with no baseline counterpart means the suite changed.
    let grown = vec![sharded[0].clone(), sharded[1].clone(), sharded_bench_record("prefix", 500)];
    let err = gate_against(&doc_with_sharded(&cfg, &grown), &baseline, None).unwrap_err();
    assert!(err.contains("sharded prefix") && err.contains("regenerate"), "{err}");

    // A baseline predating the sharded suite (no `sharded` key at all) skips the rows.
    let Json::Obj(fields) = json::parse(&baseline).unwrap() else { panic!("object") };
    let old_baseline = Json::Obj(fields.into_iter().filter(|(k, _)| k != "sharded").collect());
    let (delta, pass) =
        gate_against(&doc_with_sharded(&cfg, &sharded), &old_baseline.render(), None).unwrap();
    assert!(pass, "a pre-sharded baseline skips the rows");
    assert!(delta.contains("\"sharded_rows\": []"), "{delta}");
}

#[test]
fn gate_catches_dropped_sharded_rows() {
    let cfg = BenchConfig::for_size(SizeClass::Smoke);
    let sharded = vec![sharded_bench_record("matmul", 1000), sharded_bench_record("spmv", 900)];
    // tiny_records() sweeps uniformly, so the compute-row checks stay out of the way.
    let mk = |shd: &[ShardedBenchRecord]| to_json_full(&cfg, &tiny_records(), &[], None, shd);
    let baseline = mk(&sharded);

    // Same structure, different values: passes.
    let mut faster = sharded.clone();
    faster[0].wall_ns_median = 500;
    let (_, pass) = gate_against(&mk(&faster), &baseline, None).unwrap();
    assert!(pass, "matching structure");

    // Dropping a sharded workload fails.
    let dropped = vec![sharded[0].clone()];
    let err = gate_against(&mk(&dropped), &baseline, None).unwrap_err();
    assert!(err.contains("spmv") && err.contains("silently dropped"), "{err}");

    // A drifted sharded-record field set fails.
    let missing = mk(&sharded).replacen("      \"parts\": 8,\n", "", 1);
    json::validate(&missing).expect("still well-formed JSON");
    let err = gate_against(&missing, &baseline, None).unwrap_err();
    assert!(err.contains("sharded record") && err.contains("field set"), "{err}");
}

#[test]
fn sharded_suite_runs_end_to_end() {
    // Subprocess-spawning smoke run. Needs the shard-worker binary: a workspace-level
    // `cargo test` builds it; a bare `cargo test -p rws-bench` needs
    // `cargo build --bins -p rws-shard` first.
    let cfg = BenchConfig { size: SizeClass::Smoke, threads: vec![2], repeats: 1, warmup: 1 };
    let sharded = run_sharded_suite(&cfg);
    assert_eq!(sharded.len(), 2, "matmul + spmv");
    for r in &sharded {
        assert_eq!((r.shards, r.threads_per_shard), (2, 1));
        assert!(r.parts > 0 && r.work_items > 0);
        assert_eq!(r.redistributed, 0);
        assert!(r.wall_ns_median > 0 && r.inproc_wall_ns_median > 0);
    }
    let doc = to_json_full(&cfg, &tiny_records(), &[], None, &sharded);
    validate_json(&doc).expect("document with sharded rows must validate");
    assert!(doc.contains("\"inproc_wall_ns_median\""), "{doc}");
}
