//! The gate: a run document against the committed baseline, and its walls A/B against a
//! base build on the same host.
//!
//! [`gate_against`] never reads a wall. It checks the run's *structure* against the
//! baseline and its deterministic counters exactly, so it means the same on any host.
//! Walls are only comparable on one host, so [`ab_against`] runs a base binary and this
//! one alternately and compares each `threads = 1` wall pairwise. Both sets of verdicts
//! land in one `rws-bench-delta/v2` document.

use rws_lab::json::{self, obj, Json};

/// `threads > 1` `steal_retries` may reach `baseline × RETRY_FACTOR + RETRY_SLACK`: they
/// are scheduling-dependent, but an explosion in lost CAS races is the regression that
/// batching exists to prevent.
const RETRY_FACTOR: u64 = 16;
/// Absolute slack on the `threads > 1` retry bound (covers near-zero baselines).
const RETRY_SLACK: u64 = 256;
/// A service row's shed rate may exceed the baseline's by this much (0.20 = +20 points).
/// Shedding *less* is the good direction, so there is no lower bound.
const SHED_SLACK: f64 = 0.20;
/// Whole-suite A/B pairs per [`ab_against`] run (even: the median is the mean of the middle
/// two ratios).
pub const AB_PAIRS: usize = 10;
/// A wall fails the A/B check only when B is slower in at least this many pairs…
const AB_MIN_SLOWER: usize = 9;
/// …and the median over pairs of B/A exceeds this ratio.
const AB_MAX_RATIO: f64 = 1.25;

/// One wall compared A/B over [`AB_PAIRS`] pairs.
#[derive(Clone, Debug)]
pub struct AbRow {
    /// Which wall: `matmul t=1`, `service-steady t=1`, `trace-overhead off`, ….
    pub id: String,
    /// Pairs in which B's wall was longer than A's.
    pub b_slower: usize,
    /// Median over the pairs of B's wall divided by A's.
    pub median_ratio: f64,
    /// `false` when B was slower in at least 9 of the pairs and the median ratio exceeds
    /// 1.25.
    pub ok: bool,
}

fn array_of(doc: &Json, key: &str) -> Vec<Json> {
    doc.get(key).and_then(Json::as_array).map(<[Json]>::to_vec).unwrap_or_default()
}

fn text(rec: &Json, k: &str) -> Result<String, String> {
    rec.get(k).and_then(Json::as_str).map(str::to_string).ok_or(format!("record lacks `{k}`"))
}

fn num(rec: &Json, k: &str) -> Result<u64, String> {
    rec.get(k).and_then(Json::as_u64).ok_or(format!(
        "record lacks a numeric `{k}` — regenerate BENCH_native.json with this binary"
    ))
}

/// Every record of `run` and `base` must carry the field set of the baseline's first
/// record (run-side extra fields pass).
fn check_fields(what: &str, run: &[Json], base: &[Json]) -> Result<(), String> {
    let Some(reference) = base.first() else { return Ok(()) };
    let fields = reference.keys();
    for (which, recs) in [("run", run), ("baseline", base)] {
        for (i, rec) in recs.iter().enumerate() {
            if let Some(lost) = fields.iter().find(|f| !rec.keys().contains(f)) {
                return Err(format!(
                    "{which} {what} {i} field set {:?} lacks `{lost}` from the baseline \
                     schema {fields:?}",
                    rec.keys()
                ));
            }
        }
    }
    Ok(())
}

/// Every baseline row's `key` value must appear in some run row.
fn check_present(what: &str, key: &str, run: &[Json], base: &[Json]) -> Result<(), String> {
    for rec in base {
        let name = rec.get(key).ok_or(format!("baseline {what} record lacks `{key}`"))?;
        if !run.iter().any(|r| r.get(key) == Some(name)) {
            return Err(format!(
                "{what} {name:?} present in the baseline is missing from the run — a row was \
                 silently dropped"
            ));
        }
    }
    Ok(())
}

/// Gate a run document against the committed baseline. Returns the machine-readable delta
/// document (schema `rws-bench-delta/v2`) and whether the gate passed; `Err` means the
/// documents could not be compared at all (which the binary also treats as failure).
///
/// **Structure**, any mismatch an `Err`. The comparison is forward-compatible: a run from
/// a newer binary may carry extra sections and fields, but anything the baseline promises
/// must be there.
/// 1. Every baseline top-level key appears in the run; `schema` and `size` are identical.
/// 2. Every record, service row and sharded row in both documents carries at least the
///    field set of the baseline's first row of its kind.
/// 3. Every baseline workload, service scenario and sharded workload appears in the run.
/// 4. The run's record count per `(workload, backend)` is uniform (each measured at every
///    swept thread count — a single dropped row breaks the uniformity).
/// 5. Every run row has a baseline twin: records by `(workload, backend, threads)`,
///    service rows by `(scenario, threads)`, sharded rows by
///    `(workload, shards, threads_per_shard)`. A missing one means the suite changed —
///    regenerate `BENCH_native.json`. Baseline-only thread counts are ignored, so a
///    `threads = 1` sweep gates cheaply.
///
/// **Values**, each failure a regression in the delta.
/// * Records: `jobs`, `allocs`, `steals`, `batch_steals` and `steal_retries` are exact at
///   `threads = 1`, where a lone worker never steals, and `jobs` is exact at every thread
///   count. `threads > 1` `steal_retries` are bounded by baseline × 16 + 256.
/// * Service rows: `submitted` is exact, `completed + shed == submitted`, and the shed
///   rate is at most the baseline's plus 0.20.
/// * The trace-overhead row (when both documents carry one): `jobs` is exact.
/// * Sharded rows (when both documents carry the array): `parts` and `work_items` are
///   exact, and `redistributed` is 0 (no faults are injected, so no worker may die).
///
/// `ab` holds the verdicts of an [`ab_against`] run, if one was made: they go into the
/// delta's `ab` object, and each failed row is a regression.
pub fn gate_against(
    run_doc: &str,
    baseline_doc: &str,
    ab: Option<&[AbRow]>,
) -> Result<(String, bool), String> {
    let run = json::parse(run_doc).map_err(|e| format!("run document: {e}"))?;
    let base = json::parse(baseline_doc).map_err(|e| format!("baseline document: {e}"))?;

    for key in base.keys() {
        if !run.keys().contains(&key) {
            return Err(format!(
                "baseline top-level key `{key}` is missing from the run (run has {:?}) — \
                 a section was silently dropped",
                run.keys()
            ));
        }
    }
    for key in ["schema", "size"] {
        if run.get(key) != base.get(key) {
            return Err(format!(
                "{key} differs: run {:?}, baseline {:?} — gate runs must use the baseline's",
                run.get(key),
                base.get(key)
            ));
        }
    }

    let run_records = run.get("records").and_then(Json::as_array).ok_or("run has no `records`")?;
    let base_records =
        base.get("records").and_then(Json::as_array).ok_or("baseline has no `records`")?;
    if base_records.is_empty() {
        return Err("baseline has no records to gate against".into());
    }
    check_fields("record", run_records, base_records)?;
    check_present("workload", "workload", run_records, base_records)?;
    let mut run_counts: Vec<((String, String), usize)> = Vec::new();
    for rec in run_records {
        let key = (text(rec, "workload")?, text(rec, "backend")?);
        match run_counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => run_counts.push((key, 1)),
        }
    }
    let expected = run_counts.iter().map(|(_, n)| *n).max().unwrap_or(0);
    if let Some((key, n)) = run_counts.iter().find(|(_, n)| *n != expected) {
        return Err(format!(
            "combination {key:?} has {n} record(s) but others have {expected} — a thread-count \
             row was silently dropped"
        ));
    }
    let (run_service, base_service) = (array_of(&run, "service"), array_of(&base, "service"));
    check_fields("service record", &run_service, &base_service)?;
    check_present("service scenario", "scenario", &run_service, &base_service)?;
    let (run_sharded, base_sharded) = (array_of(&run, "sharded"), array_of(&base, "sharded"));
    check_fields("sharded record", &run_sharded, &base_sharded)?;
    check_present("sharded workload", "workload", &run_sharded, &base_sharded)?;

    let mut regressions: Vec<String> = Vec::new();
    let mut rows: Vec<Json> = Vec::new();
    for rec in run_records {
        let (w, b) = (text(rec, "workload")?, text(rec, "backend")?);
        let t = num(rec, "threads")?;
        let id = format!("{w}/{b} t={t}");
        let Some(base_rec) = base_records.iter().find(|r| {
            r.get("workload") == rec.get("workload")
                && r.get("backend") == rec.get("backend")
                && r.get("threads") == rec.get("threads")
        }) else {
            return Err(format!(
                "run row {id} has no baseline counterpart — the suite changed; regenerate \
                 BENCH_native.json"
            ));
        };

        let mut ok = true;
        let exact: &[&str] = if t == 1 {
            &["jobs", "allocs", "steals", "batch_steals", "steal_retries"]
        } else {
            &["jobs"]
        };
        let mut fields: Vec<(String, Json)> = vec![
            ("workload".into(), w.as_str().into()),
            ("backend".into(), b.as_str().into()),
            ("threads".into(), Json::U64(t)),
        ];
        for key in ["steals", "batch_steals", "jobs", "steal_retries", "allocs"] {
            let (r, bse) = (num(rec, key)?, num(base_rec, key)?);
            fields.push((format!("{key}_run"), r.into()));
            fields.push((format!("{key}_base"), bse.into()));
            if exact.contains(&key) && r != bse {
                ok = false;
                regressions.push(format!("{id}: {key} {r} vs baseline {bse} (gated exact)"));
            }
        }
        if t > 1 {
            let (r, bse) = (num(rec, "steal_retries")?, num(base_rec, "steal_retries")?);
            let bound = bse.saturating_mul(RETRY_FACTOR).saturating_add(RETRY_SLACK);
            if r > bound {
                ok = false;
                regressions.push(format!(
                    "{id}: steal_retries {r} vs baseline {bse} (bound {bound} = base \
                     x{RETRY_FACTOR} + {RETRY_SLACK})"
                ));
            }
        }
        fields.push(("ok".into(), ok.into()));
        rows.push(Json::Obj(fields));
    }

    let fnum = |rec: &Json, k: &str| -> Result<f64, String> {
        rec.get(k).and_then(Json::as_f64).ok_or(format!(
            "service record lacks a numeric `{k}` — regenerate BENCH_native.json with this \
             binary"
        ))
    };
    let mut service_rows: Vec<Json> = Vec::new();
    for rec in &run_service {
        let scenario = text(rec, "scenario")?;
        let t = num(rec, "threads")?;
        let id = format!("{scenario} t={t}");
        let Some(base_rec) = base_service.iter().find(|r| {
            r.get("scenario") == rec.get("scenario") && r.get("threads") == rec.get("threads")
        }) else {
            return Err(format!(
                "service row {id} has no baseline counterpart — the suite changed; \
                 regenerate BENCH_native.json"
            ));
        };

        let mut ok = true;
        let (sub_run, sub_base) = (num(rec, "submitted")?, num(base_rec, "submitted")?);
        if sub_run != sub_base {
            ok = false;
            regressions
                .push(format!("{id}: submitted {sub_run} vs baseline {sub_base} (gated exact)"));
        }
        let (completed, shed) = (num(rec, "completed")?, num(rec, "shed")?);
        if completed + shed != sub_run {
            ok = false;
            regressions.push(format!(
                "{id}: completed {completed} + shed {shed} != submitted {sub_run} \
                 (outcome partition broken)"
            ));
        }
        let shed_run = fnum(rec, "shed_rate")?;
        let shed_base = fnum(base_rec, "shed_rate")?;
        let bound = shed_base + SHED_SLACK;
        if shed_run > bound {
            ok = false;
            regressions.push(format!(
                "{id}: shed_rate {shed_run:.3} vs baseline {shed_base:.3} \
                 (bound {bound:.3} = base + {SHED_SLACK:.2})"
            ));
        }
        service_rows.push(obj([
            ("scenario", scenario.as_str().into()),
            ("threads", Json::U64(t)),
            ("submitted_run", sub_run.into()),
            ("submitted_base", sub_base.into()),
            ("shed_rate_run", shed_run.into()),
            ("shed_rate_base", shed_base.into()),
            ("shed_rate_bound", bound.into()),
            ("ok", ok.into()),
        ]));
    }

    // A `null` trace on either side (never measured) skips the row.
    let trace_row = match (run.get("trace"), base.get("trace")) {
        (Some(run_tr @ Json::Obj(_)), Some(base_tr @ Json::Obj(_))) => {
            let (jobs_run, jobs_base) = (num(run_tr, "jobs")?, num(base_tr, "jobs")?);
            let ok = jobs_run == jobs_base;
            if !ok {
                regressions.push(format!(
                    "trace-overhead: jobs {jobs_run} vs baseline {jobs_base} (gated exact)"
                ));
            }
            obj([
                ("workload", run_tr.get("workload").cloned().unwrap_or(Json::Null)),
                ("overhead_rel_run", run_tr.get("overhead_rel").cloned().unwrap_or(Json::Null)),
                ("overhead_rel_base", base_tr.get("overhead_rel").cloned().unwrap_or(Json::Null)),
                ("jobs_run", jobs_run.into()),
                ("jobs_base", jobs_base.into()),
                ("ok", ok.into()),
            ])
        }
        _ => Json::Null,
    };

    // A document without a `sharded` key (predating that suite) skips these rows.
    let mut sharded_rows: Vec<Json> = Vec::new();
    if run.get("sharded").is_some() && base.get("sharded").is_some() {
        for rec in &run_sharded {
            let w = text(rec, "workload")?;
            let (s, t) = (num(rec, "shards")?, num(rec, "threads_per_shard")?);
            let id = format!("sharded {w} s={s} t={t}");
            let Some(base_rec) = base_sharded.iter().find(|r| {
                r.get("workload") == rec.get("workload")
                    && r.get("shards") == rec.get("shards")
                    && r.get("threads_per_shard") == rec.get("threads_per_shard")
            }) else {
                return Err(format!(
                    "sharded row {id} has no baseline counterpart — the suite changed; \
                     regenerate BENCH_native.json"
                ));
            };

            let mut ok = true;
            for key in ["parts", "work_items"] {
                let (r, bse) = (num(rec, key)?, num(base_rec, key)?);
                if r != bse {
                    ok = false;
                    regressions.push(format!("{id}: {key} {r} vs baseline {bse} (gated exact)"));
                }
            }
            let redistributed = num(rec, "redistributed")?;
            if redistributed != 0 {
                ok = false;
                regressions.push(format!(
                    "{id}: redistributed {redistributed} != 0 — workers died during a \
                     fault-free bench run"
                ));
            }
            sharded_rows.push(obj([
                ("workload", w.as_str().into()),
                ("shards", Json::U64(s)),
                ("threads_per_shard", Json::U64(t)),
                ("overhead_rel_run", rec.get("overhead_rel").cloned().unwrap_or(Json::Null)),
                ("overhead_rel_base", base_rec.get("overhead_rel").cloned().unwrap_or(Json::Null)),
                ("parts_run", num(rec, "parts")?.into()),
                ("work_items_run", num(rec, "work_items")?.into()),
                ("redistributed_run", redistributed.into()),
                ("ok", ok.into()),
            ]));
        }
    }

    let ab_json = match ab {
        None => Json::Null,
        Some(ab_rows) => {
            for r in ab_rows.iter().filter(|r| !r.ok) {
                regressions.push(format!(
                    "{}: B slower in {}/{AB_PAIRS} pairs, median B/A {:.3} > {AB_MAX_RATIO}",
                    r.id, r.b_slower, r.median_ratio
                ));
            }
            obj([
                ("pairs", AB_PAIRS.into()),
                ("min_slower", AB_MIN_SLOWER.into()),
                ("max_ratio", AB_MAX_RATIO.into()),
                (
                    "rows",
                    Json::Arr(
                        ab_rows
                            .iter()
                            .map(|r| {
                                obj([
                                    ("id", r.id.as_str().into()),
                                    ("b_slower", r.b_slower.into()),
                                    ("median_ratio", r.median_ratio.into()),
                                    ("ok", r.ok.into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }
    };

    let pass = regressions.is_empty();
    let delta = obj([
        ("schema", "rws-bench-delta/v2".into()),
        ("size", run.get("size").cloned().unwrap_or(Json::Null)),
        ("pass", pass.into()),
        ("regressions", Json::Arr(regressions.iter().map(|r| r.as_str().into()).collect())),
        ("rows", rows.into()),
        ("service_rows", service_rows.into()),
        ("trace_row", trace_row),
        ("sharded_rows", sharded_rows.into()),
        ("ab", ab_json),
    ])
    .render();
    Ok((delta, pass))
}

/// Structural validation of a delta document emitted by [`gate_against`].
pub fn validate_delta(doc: &str) -> Result<(), String> {
    json::validate_with_keys(
        doc,
        &[
            "schema",
            "pass",
            "regressions",
            "rows",
            "service_rows",
            "trace_row",
            "sharded_rows",
            "ab",
        ],
    )
}

/// The walls the A/B check compares, by id: every `threads = 1` record and service row,
/// and the trace row's tracing-off wall.
fn ab_walls(doc: &str) -> Result<Vec<(String, u64)>, String> {
    let doc = json::parse(doc)?;
    let mut walls = Vec::new();
    for (section, name) in [("records", "workload"), ("service", "scenario")] {
        for rec in array_of(&doc, section) {
            if num(&rec, "threads")? == 1 {
                walls.push((format!("{} t=1", text(&rec, name)?), num(&rec, "wall_ns_median")?));
            }
        }
    }
    if let Some(tr @ Json::Obj(_)) = doc.get("trace") {
        walls.push(("trace-overhead off".into(), num(tr, "wall_ns_off_median")?));
    }
    Ok(walls)
}

/// The same-host wall check. Runs `run_a` (the base build) and `run_b` (this build) for
/// [`AB_PAIRS`] whole-suite pairs in ABBA order — A B, B A, A B, … — so a drift in host
/// speed over the run lands on both sides alike. Each runner returns one run document.
///
/// It compares, pair by pair, the `threads = 1` record and service walls and the trace
/// row's tracing-off wall. A wall fails when B is slower in at least 9 of the 10 pairs
/// *and* the median B/A ratio exceeds 1.25; one outlier pair cannot trip it, and neither
/// can host speed.
///
/// Returns the first B document (the run the baseline check gates) and one verdict per
/// wall, in document order.
pub fn ab_against(
    mut run_a: impl FnMut() -> Result<String, String>,
    mut run_b: impl FnMut() -> Result<String, String>,
) -> Result<(String, Vec<AbRow>), String> {
    let mut first_b: Option<String> = None;
    // Per wall, in the first A run's order: B/A in every pair.
    let mut ratios: Vec<(String, Vec<f64>)> = Vec::new();
    for i in 0..AB_PAIRS {
        let (a, b) = if i % 2 == 0 {
            let a = run_a()?;
            (a, run_b()?)
        } else {
            let b = run_b()?;
            (run_a()?, b)
        };
        let a = ab_walls(&a).map_err(|e| format!("A run: {e}"))?;
        let b_walls = ab_walls(&b).map_err(|e| format!("B run: {e}"))?;
        first_b.get_or_insert(b);
        if i == 0 {
            if a.is_empty() {
                return Err("no threads = 1 walls to compare: the A/B sweep must include 1".into());
            }
            ratios = a.iter().map(|(id, _)| (id.clone(), Vec::new())).collect();
        }
        for (id, r) in &mut ratios {
            let wall = |side: &[(String, u64)], which: &str| {
                side.iter()
                    .find(|(k, _)| k == id)
                    .map(|&(_, ns)| ns.max(1) as f64)
                    .ok_or(format!("{which} run lacks the wall `{id}`"))
            };
            r.push(wall(&b_walls, "B")? / wall(&a, "A")?);
        }
    }
    let rows = ratios
        .into_iter()
        .map(|(id, mut r)| {
            let b_slower = r.iter().filter(|&&x| x > 1.0).count();
            r.sort_by(f64::total_cmp);
            let median_ratio = (r[AB_PAIRS / 2 - 1] + r[AB_PAIRS / 2]) / 2.0;
            let ok = b_slower < AB_MIN_SLOWER || median_ratio <= AB_MAX_RATIO;
            AbRow { id, b_slower, median_ratio, ok }
        })
        .collect();
    Ok((first_b.expect("AB_PAIRS > 0"), rows))
}
