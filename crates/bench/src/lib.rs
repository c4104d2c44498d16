//! Benchmark support crate.
//!
//! The actual Criterion benchmarks live in `benches/`: engine, event-path,
//! stream-tier, fault, server, metrics and decision benches, each recording
//! into `BENCH_engine.json`. The paper's tables and figures are regenerated
//! by the `reproduce` binary, not timed here. This library hosts what the
//! benches share: the stream-tier driver, the report merge into
//! `BENCH_engine.json`, and the outside-the-engine [`timed`] delegates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mapreduce_experiments::{Scenario, SchedulerKind};
use mapreduce_metrics::QuantileSketch;
use mapreduce_sim::{Scheduler, SimConfig, SimOutcome, Simulation};
use mapreduce_support::criterion::{BenchResult, BenchmarkId, Criterion};
use mapreduce_support::fs::write_atomically;
use mapreduce_support::json::{JsonValue, ToJson};
use mapreduce_workload::Trace;
use std::collections::HashMap;
use std::path::Path;

pub mod timed;

/// Runs one scheduler over a trace under exactly the configuration the
/// experiment harness uses (`mapreduce_experiments::run_scheduler`), so
/// reference and optimized bench entries always compare identical
/// simulations. Shared by `engine_smoke` and `engine_fullscale` for their
/// frozen pre-optimization baselines.
///
/// # Panics
/// Panics if the simulation fails — a bench baseline that cannot complete is
/// a bug, not a recoverable condition.
pub fn run_reference(
    scheduler: &mut dyn Scheduler,
    trace: &Trace,
    machines: usize,
    seed: u64,
) -> SimOutcome {
    let config = SimConfig::new(machines).with_seed(seed);
    Simulation::new(config, trace)
        .run(scheduler)
        .unwrap_or_else(|e| panic!("reference run with {} failed: {e}", scheduler.name()))
}

/// Benches one streaming tier (`stream1m`, `stream10m`): FIFO, the engine
/// and feed floor, then SRPTMS+C, each over `scenario`'s first seed wrapped
/// in the [`timed`] delegates, and merges one report entry named `tier`.
///
/// Per scheduler the entry records the alive-window peaks, copies, decision
/// and event-queue counters and flowtime sketch p50/p95/p99 (under
/// `<tier>_…` for FIFO and `<tier>_srptmsc_…` for SRPTMS+C, the names the
/// tiers always used), the mean flowtime and the last sample's layer split
/// under
/// `<tier>_<sched>_{mean_flowtime,source_ns,schedule_ns,hook_ns,engine_self_ns}`,
/// and once the process's peak RSS as `<tier>_peak_rss_kb`.
///
/// # Panics
/// Panics if a run fails or completes fewer jobs than the scenario holds.
pub fn bench_stream_tier(c: &mut Criterion, tier: &str, scenario: &Scenario) {
    let seed = scenario.seeds[0];
    let total_jobs = scenario.profile.num_jobs;
    let schedulers = [
        ("fifo", SchedulerKind::Fifo),
        ("srptmsc", SchedulerKind::paper_default()),
    ];
    let mut extras = vec![(format!("{tier}_total_jobs"), total_jobs.to_json())];
    let mut group = c.benchmark_group(tier);
    for (name, kind) in schedulers {
        // FIFO's counters predate the per-scheduler names.
        let counters_prefix = match name {
            "fifo" => tier.to_string(),
            _ => format!("{tier}_{name}"),
        };
        let mut last = Vec::new();
        group.bench_with_input(BenchmarkId::from_parameter(name), &seed, |b, &seed| {
            b.iter(|| {
                let config = SimConfig::new(scenario.machines).with_seed(seed);
                let (outcome, split) =
                    timed::run_timed(config, scenario.job_source(seed), kind.build().as_mut())
                        .unwrap_or_else(|e| panic!("{tier}/{name} failed: {e}"));
                let done = outcome.records().len();
                assert_eq!(done, total_jobs, "{tier}/{name} completed {done} jobs");
                println!("{tier}/{name}: {split}");
                // The sketch reports tail percentiles without sorting the
                // records: fixed buckets, ≤1/64 relative error.
                let mut sketch = QuantileSketch::new();
                outcome
                    .records()
                    .iter()
                    .for_each(|r| sketch.record(r.flowtime()));
                let quantile = |q| sketch.quantile(q).expect("the tier completed jobs");
                let t = outcome.telemetry;
                let counters = [
                    ("peak_resident_jobs", outcome.peak_resident_jobs as u64),
                    ("peak_copy_slots", outcome.peak_copy_slots as u64),
                    ("total_copies", outcome.total_copies as u64),
                    ("decision_instants", t.decision_instants),
                    ("ranked_prefix_len_max", t.ranked_prefix_len_max as u64),
                    ("events_queued", t.events_queued),
                    ("stale_events", t.stale_events),
                    ("overflow_events", t.overflow_events),
                    ("peak_queued_events", t.peak_queued_events),
                    ("sketch_p50", quantile(0.50)),
                    ("sketch_p95", quantile(0.95)),
                    ("sketch_p99", quantile(0.99)),
                ];
                let layers = [
                    ("mean_flowtime", outcome.mean_flowtime().to_json()),
                    ("source_ns", split.source_ns.to_json()),
                    ("schedule_ns", split.schedule_ns.to_json()),
                    ("hook_ns", split.hook_ns.to_json()),
                    ("engine_self_ns", split.engine_self_ns().to_json()),
                ];
                last = counters
                    .map(|(key, n)| (format!("{counters_prefix}_{key}"), n.to_json()))
                    .into_iter()
                    .chain(layers.map(|(key, v)| (format!("{tier}_{name}_{key}"), v)))
                    .collect();
                std::hint::black_box(outcome.mean_flowtime())
            })
        });
        extras.append(&mut last);
    }
    group.finish();
    extras.push((
        format!("{tier}_peak_rss_kb"),
        peak_rss_kb().unwrap_or(0).to_json(),
    ));
    let extras: Vec<(&str, JsonValue)> = extras
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    merge_bench_report(tier, total_jobs, scenario.machines, c.results(), &extras);
}

/// The process's peak resident set size in KiB (`VmHWM` in
/// `/proc/self/status`): the high-water mark of the whole process so far,
/// not of one run. `None` where procfs is unavailable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Path of the tracked engine-performance report at the workspace root.
pub const BENCH_REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");

/// Path of the **untracked** smoke-mode report (`MAPREDUCE_BENCH_SAMPLES`
/// runs). Lives under `target/` so it never pollutes the curated report but
/// survives across CI runs through the cargo cache, giving the bench-guard a
/// same-machine-class `prev_mean_ns` to compare against.
pub const SMOKE_REPORT_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_smoke.json");

/// Merges one benchmark's results into the engine-performance report,
/// **append-or-update by benchmark name** rather than overwriting the file,
/// so the perf trajectory accumulates across benches and PRs.
///
/// The report is a single JSON object `{"benchmarks": [entry, ...]}` with one
/// entry per benchmark name. When an entry is updated, each result id that
/// already existed keeps the previous run's mean as `prev_mean_ns`, so the
/// before/after of the latest change is recorded in the file itself.
/// `extras` are entry-level fields recorded next to the timings (e.g. the
/// peak resident job counts of the stream tiers, so memory behaviour is
/// visible in the report alongside speed).
///
/// Smoke-mode runs (`MAPREDUCE_BENCH_SAMPLES` set — CI and local
/// reproductions of it) leave the tracked report untouched: a one-sample
/// timing would overwrite the curated means and their `prev_mean_ns`
/// trajectory with noise. They merge into [`SMOKE_REPORT_PATH`] instead,
/// whose `prev_mean_ns` trail feeds the CI bench-regression guard
/// (`bench-guard`).
pub fn merge_bench_report(
    benchmark: &str,
    jobs: usize,
    machines: usize,
    results: &[BenchResult],
    extras: &[(&str, JsonValue)],
) {
    let path = if mapreduce_support::criterion::env_sample_override().is_some() {
        println!(
            "MAPREDUCE_BENCH_SAMPLES set: smoke run, leaving {BENCH_REPORT_PATH} untouched \
             (merging into {SMOKE_REPORT_PATH})"
        );
        SMOKE_REPORT_PATH
    } else {
        BENCH_REPORT_PATH
    };
    merge_bench_report_at(Path::new(path), benchmark, jobs, machines, results, extras);
}

/// Scans a bench report for regressions: any result whose **best** sample
/// (`min_ns`, falling back to `mean_ns`), after host-speed normalization,
/// exceeds `factor × prev_mean_ns` is returned as
/// `(id, prev_mean_ns, normalized_observed_ns)`.
///
/// Two defenses against noisy shared runners:
/// * Comparing the current minimum against the previous mean — a single
///   slow sample cannot trip the guard as long as one sample ran at normal
///   speed.
/// * **Reference normalization**: a benchmark entry that carries frozen
///   `*_reference` ids (pre-optimization scheduler implementations whose
///   code never changes) uses them as a same-run host speedometer. The
///   candidate ids' observations are divided by the reference slowdown
///   `Σ reference mean_ns / Σ reference prev_mean_ns` before the comparison,
///   so a uniformly slow runner — which drags the frozen code down by the
///   same factor as the candidate — cancels out, while a genuine candidate
///   regression (reference steady, candidate slow) survives normalization
///   intact. The `*_reference` ids themselves are never candidates: their
///   timing moves only with the host. Entries without a usable reference
///   ratio fall back to the raw gate.
///
/// Results without a recorded previous mean (first run on a machine, new
/// benchmark id) are skipped.
pub fn find_regressions(report: &JsonValue, factor: f64) -> Vec<(String, f64, f64)> {
    let mut regressions = Vec::new();
    let Some(benchmarks) = report.get("benchmarks").and_then(|b| b.as_array()) else {
        return regressions;
    };
    for entry in benchmarks {
        let Some(results) = entry.get("results").and_then(|r| r.as_array()) else {
            continue;
        };
        // The entry's host speedometer: aggregate current-vs-previous mean
        // of every frozen `*_reference` id with history. Means on both
        // sides (not the best sample) so the ratio estimates host speed,
        // not sampling luck.
        let (mut ref_now, mut ref_prev) = (0.0_f64, 0.0_f64);
        for result in results {
            let (Some(id), Some(mean), Some(prev)) = (
                result.get("id").and_then(|v| v.as_str()),
                result.get("mean_ns").and_then(|v| v.as_f64()),
                result.get("prev_mean_ns").and_then(|v| v.as_f64()),
            ) else {
                continue;
            };
            if id.ends_with("_reference") {
                ref_now += mean;
                ref_prev += prev;
            }
        }
        let host_scale = if ref_now > 0.0 && ref_prev > 0.0 && (ref_now / ref_prev).is_finite() {
            ref_now / ref_prev
        } else {
            1.0
        };
        for result in results {
            let (Some(id), Some(mean), Some(prev)) = (
                result.get("id").and_then(|v| v.as_str()),
                result.get("mean_ns").and_then(|v| v.as_f64()),
                result.get("prev_mean_ns").and_then(|v| v.as_f64()),
            ) else {
                continue;
            };
            if id.ends_with("_reference") {
                continue;
            }
            let best = result
                .get("min_ns")
                .and_then(|v| v.as_f64())
                .unwrap_or(mean);
            let normalized = best / host_scale;
            if prev > 0.0 && normalized > factor * prev {
                regressions.push((id.to_string(), prev, normalized));
            }
        }
    }
    regressions
}

/// Scans a bench report for **memory** regressions: any peak-footprint extra
/// (an entry-level extra whose key contains `"peak"`, e.g.
/// `peak_resident_jobs`, `stream100k_peak_copy_slots`,
/// `stream1m_srptmsc_peak_copy_slots`) that grew beyond `factor ×` its
/// recorded `prev_extras` baseline is returned as
/// `(benchmark:key, prev, current)`.
///
/// Peak counters are deterministic for a given engine build (they count
/// simulation state, not wall clock), so unlike the timing guard there is no
/// noise allowance to design around — the factor exists only to let
/// legitimate workload growth land together with its re-baselined report.
/// The `*_peak_rss_kb` extras (process `VmHWM`) also depend on the
/// allocator and host; the same factor applies to them.
/// Extras without a recorded baseline (first run, new key) are skipped.
pub fn find_memory_regressions(report: &JsonValue, factor: f64) -> Vec<(String, f64, f64)> {
    let mut regressions = Vec::new();
    let Some(benchmarks) = report.get("benchmarks").and_then(|b| b.as_array()) else {
        return regressions;
    };
    for entry in benchmarks {
        let Some(benchmark) = entry.get("benchmark").and_then(|b| b.as_str()) else {
            continue;
        };
        let Some(JsonValue::Object(prev_extras)) = entry.get("prev_extras") else {
            continue;
        };
        for (key, prev_value) in prev_extras {
            if !key.contains("peak") {
                continue;
            }
            let (Some(prev), Some(current)) =
                (prev_value.as_f64(), entry.get(key).and_then(|v| v.as_f64()))
            else {
                continue;
            };
            if prev > 0.0 && current > factor * prev {
                regressions.push((format!("{benchmark}:{key}"), prev, current));
            }
        }
    }
    regressions
}

/// Scans a bench report for **observability overhead** violations: any
/// entry-level extra whose key contains `"overhead_ratio"` (e.g.
/// `stream100k_telemetry_overhead_ratio`, the observed-vs-bare wall-clock
/// ratio of the 100k-job telemetry gate) that exceeds the absolute `limit`
/// is returned as `(benchmark:key, limit, observed)`.
///
/// Unlike the timing guard this is not a trend check against
/// `prev_mean_ns`: the ratio is self-normalizing (both runs execute in the
/// same process back to back, so host speed cancels), which makes a hard
/// ceiling meaningful on noisy shared runners. The contract it enforces is
/// the telemetry subsystem's "observation must stay cheap" invariant —
/// observers fold integers per event and must never dominate the engine.
pub fn find_overhead_regressions(report: &JsonValue, limit: f64) -> Vec<(String, f64, f64)> {
    let mut violations = Vec::new();
    let Some(benchmarks) = report.get("benchmarks").and_then(|b| b.as_array()) else {
        return violations;
    };
    for entry in benchmarks {
        let Some(benchmark) = entry.get("benchmark").and_then(|b| b.as_str()) else {
            continue;
        };
        let JsonValue::Object(fields) = entry else {
            continue;
        };
        for (key, value) in fields {
            if !key.contains("overhead_ratio") {
                continue;
            }
            if let Some(ratio) = value.as_f64() {
                if ratio > limit {
                    violations.push((format!("{benchmark}:{key}"), limit, ratio));
                }
            }
        }
    }
    violations
}

/// [`merge_bench_report`] against an explicit path (tests use a temp file).
///
/// A file that exists but is not a `{"benchmarks": [...]}` report is left
/// as it is, with the error printed: merging into it as if it were empty
/// would wipe every other benchmark's entry and `prev_mean_ns` trail. The
/// merged report replaces the old one atomically.
pub fn merge_bench_report_at(
    path: &Path,
    benchmark: &str,
    jobs: usize,
    machines: usize,
    results: &[BenchResult],
    extras: &[(&str, JsonValue)],
) {
    let mut entries = match read_entries(path) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("not merging into {}: {e}", path.display());
            return;
        }
    };

    // Previous means for this benchmark, keyed by result id, so the updated
    // entry records its own before/after. Numeric extras get the same
    // treatment: the old entry's value for every extra key being re-recorded
    // lands in a `prev_extras` object, giving the memory guard
    // ([`find_memory_regressions`]) a baseline the way `prev_mean_ns` feeds
    // the timing guard.
    let mut prev_means: HashMap<String, f64> = HashMap::new();
    let mut prev_extras: std::collections::BTreeMap<String, JsonValue> = Default::default();
    if let Some(old) = entries
        .iter()
        .find(|e| e.get("benchmark").and_then(|b| b.as_str()) == Some(benchmark))
    {
        if let Some(old_results) = old.get("results").and_then(|r| r.as_array()) {
            for r in old_results {
                if let (Some(id), Some(mean)) = (
                    r.get("id").and_then(|v| v.as_str()),
                    r.get("mean_ns").and_then(|v| v.as_f64()),
                ) {
                    prev_means.insert(id.to_string(), mean);
                }
            }
        }
        for (key, _) in extras {
            if let Some(old_value) = old.get(key).filter(|v| v.as_f64().is_some()) {
                prev_extras.insert(key.to_string(), old_value.clone());
            }
        }
    }

    let result_values: Vec<JsonValue> = results
        .iter()
        .map(|r| {
            let mut fields: Vec<(&'static str, JsonValue)> = vec![
                ("id", r.id.to_json()),
                ("mean_ns", r.mean_ns.to_json()),
                ("median_ns", r.median_ns.to_json()),
                ("min_ns", r.min_ns.to_json()),
                ("max_ns", r.max_ns.to_json()),
                ("samples", r.samples.to_json()),
            ];
            if let Some(prev) = prev_means.get(&r.id) {
                fields.push(("prev_mean_ns", prev.to_json()));
            }
            JsonValue::object(fields)
        })
        .collect();
    let mut entry = JsonValue::object([
        ("benchmark", JsonValue::String(benchmark.to_string())),
        ("jobs", jobs.to_json()),
        ("machines", machines.to_json()),
        ("results", JsonValue::Array(result_values)),
    ]);
    if let JsonValue::Object(fields) = &mut entry {
        for (key, value) in extras {
            fields.insert(key.to_string(), value.clone());
        }
        if !prev_extras.is_empty() {
            fields.insert("prev_extras".into(), JsonValue::Object(prev_extras));
        }
    }

    match entries
        .iter()
        .position(|e| e.get("benchmark").and_then(|b| b.as_str()) == Some(benchmark))
    {
        Some(pos) => entries[pos] = entry,
        None => entries.push(entry),
    }

    let report = JsonValue::object([("benchmarks", JsonValue::Array(entries))]);
    match write_atomically(path, &report.to_pretty_string()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The entries of the report at `path`; none when no file exists yet.
fn read_entries(path: &Path) -> Result<Vec<JsonValue>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.to_string()),
    };
    let report = JsonValue::parse(&text).map_err(|e| e.to_string())?;
    match report.get("benchmarks").and_then(|b| b.as_array()) {
        Some(list) => Ok(list.to_vec()),
        None => Err("no `benchmarks` array at the top level".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_consistent() {
        // `bench_stream_tier` times one seed pulled through a streamed source.
        for scenario in [Scenario::million(), Scenario::ten_million()] {
            assert_eq!(scenario.seeds.len(), 1);
            assert_eq!(
                scenario.source,
                mapreduce_experiments::WorkloadSource::Streaming
            );
        }
    }

    #[test]
    fn reads_own_peak_rss() {
        if std::path::Path::new("/proc/self/status").exists() {
            let kb = peak_rss_kb().expect("VmHWM present on procfs");
            assert!(kb > 0);
        }
    }

    fn result(id: &str, mean: f64) -> BenchResult {
        BenchResult {
            id: id.to_string(),
            mean_ns: mean,
            median_ns: mean * 0.95,
            min_ns: mean * 0.9,
            max_ns: mean * 1.1,
            samples: 3,
        }
    }

    fn entry<'a>(report: &'a JsonValue, benchmark: &str) -> &'a JsonValue {
        report
            .get("benchmarks")
            .and_then(|b| b.as_array())
            .and_then(|list| {
                list.iter()
                    .find(|e| e.get("benchmark").and_then(|b| b.as_str()) == Some(benchmark))
            })
            .expect("benchmark entry present")
    }

    #[test]
    fn merge_report_appends_updates_and_records_prev_mean() {
        // Process-unique name: concurrent test runs must not share the file.
        let path = std::env::temp_dir().join(format!(
            "mapreduce_bench_merge_test_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        merge_bench_report_at(&path, "smoke", 10, 5, &[result("smoke/a", 100.0)], &[]);
        merge_bench_report_at(&path, "full", 100, 50, &[result("full/a", 9000.0)], &[]);
        // Updating a benchmark keeps the other entry and records the previous
        // mean of every id it had before.
        merge_bench_report_at(
            &path,
            "smoke",
            10,
            5,
            &[result("smoke/a", 40.0), result("smoke/b", 7.0)],
            &[],
        );

        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            report.get("benchmarks").unwrap().as_array().unwrap().len(),
            2
        );
        let smoke = entry(&report, "smoke");
        let results = smoke.get("results").unwrap().as_array().unwrap();
        assert_eq!(results[0].get("mean_ns").unwrap().as_f64(), Some(40.0));
        assert_eq!(results[0].get("median_ns").unwrap().as_f64(), Some(38.0));
        assert_eq!(
            results[0].get("prev_mean_ns").unwrap().as_f64(),
            Some(100.0)
        );
        // A brand-new id has no previous mean.
        assert!(results[1].get("prev_mean_ns").is_none());
        assert!(entry(&report, "full").get("results").is_some());
        // The atomic write leaves no temp file behind.
        assert!(!path.with_extension("json.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn find_regressions_flags_only_over_factor_ids_with_history() {
        let path = std::env::temp_dir().join(format!(
            "mapreduce_bench_guard_test_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // First merge: no history, guard has nothing to flag.
        merge_bench_report_at(
            &path,
            "smoke",
            10,
            5,
            &[result("smoke/fast", 100.0), result("smoke/slow", 100.0)],
            &[],
        );
        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(find_regressions(&report, 2.0).is_empty());

        // Second merge: one id regresses 3x, one improves, one is new.
        merge_bench_report_at(
            &path,
            "smoke",
            10,
            5,
            &[
                result("smoke/fast", 60.0),
                result("smoke/slow", 300.0),
                result("smoke/new", 9000.0),
            ],
            &[],
        );
        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let regressions = find_regressions(&report, 2.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].0, "smoke/slow");
        // The guard compares the current best sample (min_ns = 0.9 × mean in
        // this fixture) against the previous mean.
        assert_eq!((regressions[0].1, regressions[0].2), (100.0, 270.0));
        // A looser factor passes.
        assert!(find_regressions(&report, 4.0).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reference_normalization_cancels_uniform_host_slowdown() {
        let path = std::env::temp_dir().join(format!(
            "mapreduce_bench_refnorm_test_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        merge_bench_report_at(
            &path,
            "engine",
            300,
            593,
            &[
                result("engine/srptmsc", 100.0),
                result("engine/srptmsc_reference", 400.0),
            ],
            &[],
        );
        // The whole host runs 3x slower: candidate AND frozen reference
        // degrade together. Raw best (270) is 2.7x the previous mean and
        // would trip a 2x gate; normalized by the reference slowdown
        // (1200/400 = 3x) it is 90 — faster than baseline, no alarm. The
        // reference id itself is never a candidate either.
        merge_bench_report_at(
            &path,
            "engine",
            300,
            593,
            &[
                result("engine/srptmsc", 300.0),
                result("engine/srptmsc_reference", 1200.0),
            ],
            &[],
        );
        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(find_regressions(&report, 2.0).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reference_normalization_still_flags_genuine_regressions() {
        let path = std::env::temp_dir().join(format!(
            "mapreduce_bench_refnorm_real_test_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        merge_bench_report_at(
            &path,
            "engine",
            300,
            593,
            &[
                result("engine/srptmsc", 100.0),
                result("engine/srptmsc_reference", 400.0),
            ],
            &[],
        );
        // The reference holds steady while the candidate triples: the host
        // did not change, the code did. Normalization (scale 1.0) must not
        // launder it away.
        merge_bench_report_at(
            &path,
            "engine",
            300,
            593,
            &[
                result("engine/srptmsc", 300.0),
                result("engine/srptmsc_reference", 400.0),
            ],
            &[],
        );
        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let regressions = find_regressions(&report, 2.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].0, "engine/srptmsc");
        assert_eq!((regressions[0].1, regressions[0].2), (100.0, 270.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn regressions_survive_normalization_when_exceeding_host_slowdown() {
        let path = std::env::temp_dir().join(format!(
            "mapreduce_bench_refnorm_mixed_test_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        merge_bench_report_at(
            &path,
            "engine",
            300,
            593,
            &[
                result("engine/srptmsc", 100.0),
                result("engine/srptmsc_reference", 400.0),
            ],
            &[],
        );
        // Host 2x slower (reference 400 -> 800) but the candidate is 10x
        // slower: the 5x residual past the host movement still trips.
        merge_bench_report_at(
            &path,
            "engine",
            300,
            593,
            &[
                result("engine/srptmsc", 1000.0),
                result("engine/srptmsc_reference", 800.0),
            ],
            &[],
        );
        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let regressions = find_regressions(&report, 2.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].0, "engine/srptmsc");
        // Observed best 900, host scale 2.0 -> normalized 450 vs prev 100.
        assert_eq!((regressions[0].1, regressions[0].2), (100.0, 450.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn memory_guard_tracks_peak_extras_through_prev_extras() {
        let path = std::env::temp_dir().join(format!(
            "mapreduce_bench_memory_guard_test_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        // First merge: records the extras, no baseline yet.
        merge_bench_report_at(
            &path,
            "stream",
            100_000,
            20_000,
            &[result("stream/fifo", 1e9)],
            &[
                ("peak_resident_jobs", 5_000usize.to_json()),
                ("stream100k_peak_copy_slots", 300_000usize.to_json()),
                ("stream100k_total_copies", 2_000_000usize.to_json()),
            ],
        );
        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(entry(&report, "stream").get("prev_extras").is_none());
        assert!(find_memory_regressions(&report, 1.5).is_empty());

        // Second merge: one peak extra doubles, one shrinks, and the
        // non-peak total (which legitimately scales with the workload)
        // explodes without tripping anything.
        merge_bench_report_at(
            &path,
            "stream",
            100_000,
            20_000,
            &[result("stream/fifo", 1e9)],
            &[
                ("peak_resident_jobs", 10_000usize.to_json()),
                ("stream100k_peak_copy_slots", 200_000usize.to_json()),
                ("stream100k_total_copies", 9_000_000usize.to_json()),
            ],
        );
        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let prev = entry(&report, "stream").get("prev_extras").unwrap();
        assert_eq!(
            prev.get("peak_resident_jobs").unwrap().as_f64(),
            Some(5_000.0)
        );
        let regressions = find_memory_regressions(&report, 1.5);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].0, "stream:peak_resident_jobs");
        assert_eq!((regressions[0].1, regressions[0].2), (5_000.0, 10_000.0));
        // A looser factor passes; the factor is inclusive of exactly-at-bound.
        assert!(find_memory_regressions(&report, 2.0).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overhead_guard_enforces_an_absolute_ceiling_without_history() {
        let path = std::env::temp_dir().join(format!(
            "mapreduce_bench_overhead_guard_test_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        // First (and only) merge: the overhead ratio needs no prev_* baseline
        // — the ceiling is absolute, so a fresh report can already fail.
        merge_bench_report_at(
            &path,
            "workload_stream",
            100_000,
            20_000,
            &[result("stream100k/fifo", 1e9)],
            &[
                ("stream100k_telemetry_overhead_ratio", 1.12f64.to_json()),
                ("stream100k_bare_ns", 4_000_000_000u64.to_json()),
            ],
        );
        let report = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(find_overhead_regressions(&report, 1.5).is_empty());
        // Tighten the ceiling below the observed ratio: the same report fails,
        // and only the *_overhead_ratio extra is a candidate.
        let violations = find_overhead_regressions(&report, 1.1);
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0].0,
            "workload_stream:stream100k_telemetry_overhead_ratio"
        );
        assert_eq!((violations[0].1, violations[0].2), (1.1, 1.12));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_report_leaves_an_unreadable_report_untouched() {
        let path = std::env::temp_dir().join(format!(
            "mapreduce_bench_corrupt_test_{}.json",
            std::process::id()
        ));
        // A truncated report and a parseable document of another shape: a
        // merge into either would replace every other benchmark's history.
        for garbage in [
            "{\"benchmarks\": [{\"benchmark\": \"eng",
            "{\"benchmark\": \"x\"}",
        ] {
            std::fs::write(&path, garbage).unwrap();
            merge_bench_report_at(&path, "smoke", 10, 5, &[result("smoke/a", 1.0)], &[]);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), garbage);
        }
        let _ = std::fs::remove_file(&path);
    }
}
