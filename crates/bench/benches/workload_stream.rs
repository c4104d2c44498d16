//! Streaming vs materialized arrival feed at full scale.
//!
//! Three variants, all FIFO (the cheapest scheduler, so the feed path
//! dominates the measurement):
//!
//! * `materialized/fifo` — the paper-scale trace (6 064 jobs) pre-generated
//!   once, fed through a [`mapreduce_workload::MaterializedSource`] per
//!   iteration (trace generation is *outside* the timing, matching how
//!   experiment sweeps reuse a trace across schedulers).
//! * `streaming/fifo` — the same scale fed by a
//!   [`StreamingGenerator`], synthesis *inside* the timing: this is the
//!   full cost of a run that never materialises its trace.
//! * `stream100k/fifo` — the 100 000-job fullscale regime the streaming
//!   subsystem exists for, in bounded memory (peak resident jobs ≪ total;
//!   both counts are recorded in the report entry, next to
//!   `stream100k_peak_rss_kb`, the process's `VmHWM` high-water mark read
//!   right after this variant — it covers every run of the process so far,
//!   not this variant alone). It runs through [`mapreduce_bench::timed`],
//!   so the entry also carries the last sample's wall-clock layer split as
//!   `stream100k_{source,schedule,hook,engine_self}_ns`, the split the
//!   stream1m and stream10m tiers record.
//!
//! Before any timing, the bench asserts that the streaming feed's outcome is
//! **bit-identical** to running its materialised twin — the same invariant
//! the `streaming_equivalence` proptest pins at randomized scales.
//!
//! Run with `cargo bench -p mapreduce-bench --bench workload_stream`
//! (`MAPREDUCE_BENCH_SAMPLES=1` for a quick pass). Results merge into
//! `BENCH_engine.json` / the smoke report and feed the CI bench-guard.

use mapreduce_baselines::Fifo;
use mapreduce_bench::timed::{run_timed, LayerSplit};
use mapreduce_experiments::{run_scheduler, Scenario, SchedulerKind};
use mapreduce_sim::{SimConfig, SimOutcome, Simulation};
use mapreduce_support::criterion::{BenchmarkId, Criterion};
use mapreduce_support::json::ToJson;
use mapreduce_support::{criterion_group, criterion_main};
use mapreduce_workload::{JobSource, StreamingGenerator};
use std::hint::black_box;

/// One streaming FIFO run over a freshly built source.
fn run_streaming(source: Box<dyn JobSource>, machines: usize, seed: u64) -> SimOutcome {
    Simulation::from_source(SimConfig::new(machines).with_seed(seed), source)
        .run(&mut Fifo::new())
        .expect("streaming run must complete")
}

fn bench_workload_stream(c: &mut Criterion) {
    let scenario = Scenario::paper();
    let seed = scenario.seeds[0];
    let machines = scenario.machines;
    let stream = StreamingGenerator::new(scenario.profile.clone(), seed);

    // Equivalence gate: the streamed run must be bit-identical to running
    // the stream's materialised twin through the trace path.
    let streamed = run_streaming(Box::new(stream.clone()), machines, seed);
    let twin = stream.materialize();
    let materialized_twin = run_scheduler(SchedulerKind::Fifo, &twin, machines, seed);
    assert_eq!(
        streamed, materialized_twin,
        "streaming and materialized feeds diverged at paper scale"
    );
    println!(
        "workload stream: {} jobs / {} machines, peak resident {} jobs",
        twin.len(),
        machines,
        streamed.peak_resident_jobs
    );

    let mut group = c.benchmark_group("workload_stream");
    let trace = scenario.trace(seed);
    group.bench_with_input(
        BenchmarkId::from_parameter("materialized/fifo"),
        &seed,
        |b, &seed| {
            b.iter(|| {
                let outcome = run_scheduler(SchedulerKind::Fifo, black_box(&trace), machines, seed);
                black_box(outcome.mean_flowtime())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("streaming/fifo"),
        &seed,
        |b, &seed| {
            b.iter(|| {
                let source = StreamingGenerator::new(scenario.profile.clone(), seed);
                let outcome = run_streaming(Box::new(source), machines, seed);
                black_box(outcome.mean_flowtime())
            })
        },
    );

    // The 100k-job regime: streaming only — materialising this trace is
    // exactly what the subsystem avoids.
    let fullscale = Scenario::streaming(100_000, 1);
    let fullscale_seed = fullscale.seeds[0];
    let mut peak_100k = 0usize;
    let mut peak_slots_100k = 0usize;
    let mut copies_100k = 0usize;
    let mut split_100k = LayerSplit::default();
    group.bench_with_input(
        BenchmarkId::from_parameter("stream100k/fifo"),
        &fullscale_seed,
        |b, &seed| {
            b.iter(|| {
                let config = SimConfig::new(fullscale.machines).with_seed(seed);
                let (outcome, split) =
                    run_timed(config, fullscale.job_source(seed), &mut Fifo::new())
                        .expect("streaming run must complete");
                assert_eq!(outcome.records().len(), 100_000);
                peak_100k = outcome.peak_resident_jobs;
                peak_slots_100k = outcome.peak_copy_slots;
                copies_100k = outcome.total_copies;
                split_100k = split;
                black_box(outcome.mean_flowtime())
            })
        },
    );
    println!(
        "workload stream: 100k-job streaming run peaked at {peak_100k} resident jobs and \
         {peak_slots_100k} copy slots for {copies_100k} copies ({} machines); {split_100k}",
        fullscale.machines
    );
    group.finish();
    let peak_rss_kb = mapreduce_bench::peak_rss_kb().unwrap_or(0);
    println!("workload stream: process peak RSS {peak_rss_kb} KiB after the 100k-job runs");

    // Serial oracle for the telemetry gate below: one fresh run of the
    // 100k-job stream that the bare and observed reruns must reproduce.
    let oracle = run_streaming(
        fullscale.job_source(fullscale_seed),
        fullscale.machines,
        fullscale_seed,
    );

    // Telemetry gate (release mode, every CI run): the same 100k-job stream
    // with the full observer stack attached — counter/histogram fold, the
    // flowtime quantile sketches, plus Chrome-trace recorder — must be
    // bit-identical to the bare run, and the exported trace must
    // self-validate against the independently folded registry. The trace
    // lands next to the bench reports for Perfetto. The overhead is the
    // median of `OVERHEAD_PAIRS` per-pair observed/bare ratios, each pair
    // timed back to back with the leg order alternating, so host drift and
    // a transient stall in one leg move one ratio, not the reported figure.
    // It lands in the report as a ratio the CI bench-guard caps (see
    // `find_overhead_regressions`).
    const OVERHEAD_PAIRS: usize = 5;
    let mut telemetry = mapreduce_metrics::SimTelemetry::new();
    let mut recorder = mapreduce_metrics::TraceRecorder::new(200_000);
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(OVERHEAD_PAIRS);
    for pair in 0..OVERHEAD_PAIRS {
        let mut bare_ns = 0;
        let mut observed_ns = 0;
        for leg in 0..2 {
            if (leg + pair) % 2 == 0 {
                let start = std::time::Instant::now();
                let bare = run_streaming(
                    fullscale.job_source(fullscale_seed),
                    fullscale.machines,
                    fullscale_seed,
                );
                bare_ns = start.elapsed().as_nanos().max(1) as u64;
                assert_eq!(oracle, bare, "bare rerun diverged from the serial oracle");
            } else {
                telemetry = mapreduce_metrics::SimTelemetry::new();
                recorder = mapreduce_metrics::TraceRecorder::new(200_000);
                let start = std::time::Instant::now();
                let observed = Simulation::from_source(
                    SimConfig::new(fullscale.machines).with_seed(fullscale_seed),
                    fullscale.job_source(fullscale_seed),
                )
                .run_with_observer(&mut Fifo::new(), &mut (&mut telemetry, &mut recorder))
                .expect("observed run must complete");
                observed_ns = start.elapsed().as_nanos().max(1) as u64;
                assert_eq!(
                    oracle, observed,
                    "attaching observers changed the 100k-job outcome"
                );
            }
        }
        pairs.push((bare_ns, observed_ns));
    }
    let median = |mut values: Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    let overhead_ratio = median(
        pairs
            .iter()
            .map(|&(bare, observed)| observed as f64 / bare as f64)
            .collect(),
    );
    let bare_ns = median(pairs.iter().map(|&(bare, _)| bare as f64).collect()) as u64;
    let observed_ns = median(pairs.iter().map(|&(_, observed)| observed as f64).collect()) as u64;
    let (registry, sketches) = telemetry.into_parts();
    assert_eq!(
        sketches.all.count(),
        100_000,
        "flowtime sketch missed job completions"
    );
    let sketch_p50 = sketches.all.quantile(0.50).expect("sketch is non-empty");
    let sketch_p95 = sketches.all.quantile(0.95).expect("sketch is non-empty");
    let sketch_p99 = sketches.all.quantile(0.99).expect("sketch is non-empty");
    println!(
        "workload stream: telemetry overhead {overhead_ratio:.3}x \
         (median of {OVERHEAD_PAIRS} pair ratios; median bare {:.2}s, observed {:.2}s); \
         sketch p50/p95/p99 = {sketch_p50}/{sketch_p95}/{sketch_p99}",
        bare_ns as f64 / 1e9,
        observed_ns as f64 / 1e9,
    );
    assert_eq!(
        registry.counter(mapreduce_metrics::telemetry::names::JOBS_COMPLETED),
        100_000,
        "telemetry registry missed job completions"
    );
    let trace_text = recorder.to_json().to_compact_string();
    mapreduce_metrics::validate_trace(&trace_text, &registry)
        .expect("stream100k trace must validate against its registry");
    // Anchored to the workspace root: `cargo bench` runs with the crate
    // directory as cwd, where a relative `target/` does not exist.
    let trace_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/trace_stream100k.json"
    );
    match std::fs::write(trace_path, &trace_text) {
        Ok(()) => println!(
            "workload stream: observed 100k-job run is bit-identical; trace with {} events \
             ({} dropped) validated and written to {trace_path}",
            recorder.retained(),
            recorder.dropped()
        ),
        Err(err) => println!("workload stream: could not write {trace_path}: {err}"),
    }

    mapreduce_bench::merge_bench_report(
        "workload_stream",
        scenario.profile.num_jobs,
        machines,
        c.results(),
        &[
            ("peak_resident_jobs", streamed.peak_resident_jobs.to_json()),
            ("stream100k_total_jobs", 100_000usize.to_json()),
            ("stream100k_peak_resident_jobs", peak_100k.to_json()),
            ("stream100k_total_copies", copies_100k.to_json()),
            ("stream100k_peak_copy_slots", peak_slots_100k.to_json()),
            ("stream100k_peak_rss_kb", peak_rss_kb.to_json()),
            ("stream100k_source_ns", split_100k.source_ns.to_json()),
            ("stream100k_schedule_ns", split_100k.schedule_ns.to_json()),
            ("stream100k_hook_ns", split_100k.hook_ns.to_json()),
            (
                "stream100k_engine_self_ns",
                split_100k.engine_self_ns().to_json(),
            ),
            ("stream100k_sketch_p50", sketch_p50.to_json()),
            ("stream100k_sketch_p95", sketch_p95.to_json()),
            ("stream100k_sketch_p99", sketch_p99.to_json()),
            ("stream100k_bare_ns", bare_ns.to_json()),
            ("stream100k_observed_ns", observed_ns.to_json()),
            (
                "stream100k_telemetry_overhead_ratio",
                overhead_ratio.to_json(),
            ),
        ],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench_workload_stream
}
criterion_main!(benches);
