//! Metrics micro-benchmarks: the one histogram type and the cache-line
//! parser, each fed what a real run produces.
//!
//! * `sketch/record` — the job flowtimes of one 600-job `Scenario::scaled`
//!   FIFO cell, repeated to 1M values, recorded into a fresh
//!   [`QuantileSketch`];
//! * `sketch/merge` — 64 sketches, each holding a 1/64 slice of those
//!   values, merged into one, the fold a sweep does across its cells;
//! * `registry/snapshot` — [`SweepServer::metrics_snapshot`] after one
//!   sweep, the clone of the lifetime registry (telemetry counters and
//!   histograms plus the request-latency sketches) that every `stats` and
//!   `metrics` request takes;
//! * `json/parse_outcome_line` — one result-cache line (fingerprint plus
//!   the outcome of the FIFO cell above) parsed and decoded back into a
//!   [`SimOutcome`].
//!
//! Run with `cargo bench -p mapreduce-bench --bench metrics_hot`. Results
//! merge into `BENCH_engine.json` under `metrics_hot`.

use mapreduce_experiments::{run_cell, Scenario, SchedulerKind};
use mapreduce_metrics::QuantileSketch;
use mapreduce_server::{ResultCache, SweepRequest, SweepServer};
use mapreduce_sim::SimOutcome;
use mapreduce_support::criterion::{BenchmarkId, Criterion};
use mapreduce_support::hash::Fingerprint;
use mapreduce_support::json::{FromJson, JsonValue, ToJson};
use mapreduce_support::{criterion_group, criterion_main};
use std::hint::black_box;

/// Values recorded per `sketch/record` iteration.
const VALUES: usize = 1_000_000;

/// Sketches folded per `sketch/merge` iteration.
const SHARDS: usize = 64;

fn filled_sketch(values: &[u64]) -> QuantileSketch {
    let mut sketch = QuantileSketch::new();
    for &v in values {
        sketch.record(v);
    }
    sketch
}

fn bench_metrics_hot(c: &mut Criterion) {
    let scenario = Scenario::scaled(600, 1);
    let outcome = run_cell(SchedulerKind::Fifo, &scenario, scenario.seeds[0]);
    let values: Vec<u64> = outcome
        .flowtimes()
        .into_iter()
        .cycle()
        .take(VALUES)
        .collect();
    let shards: Vec<QuantileSketch> = values.chunks(VALUES / SHARDS).map(filled_sketch).collect();

    let server = SweepServer::new(ResultCache::in_memory());
    let response = server.submit(&SweepRequest::new(
        scenario.clone(),
        vec![SchedulerKind::Fifo, SchedulerKind::paper_default()],
    ));
    assert_eq!(response.simulated, 2);
    let histograms = server.metrics_snapshot().histograms().count();

    let line = JsonValue::object([
        (
            "fingerprint",
            Fingerprint::of_bytes(b"metrics_hot").to_json(),
        ),
        ("outcome", outcome.to_json()),
    ])
    .to_compact_string();
    let parse = |line: &str| {
        let value = JsonValue::parse(line).expect("the cache line parses");
        SimOutcome::from_json(value.field("outcome").expect("has an outcome"))
            .expect("the outcome decodes")
    };
    // The measured decode must reproduce the outcome it encodes.
    assert_eq!(parse(&line), outcome);

    let mut group = c.benchmark_group("sketch");
    group.bench_with_input(BenchmarkId::from_parameter("record"), &(), |b, _| {
        b.iter(|| black_box(filled_sketch(&values)).count())
    });
    group.bench_with_input(BenchmarkId::from_parameter("merge"), &(), |b, _| {
        b.iter(|| {
            let mut merged = QuantileSketch::new();
            for shard in &shards {
                merged.merge(shard);
            }
            black_box(merged).count()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("registry");
    group.bench_with_input(BenchmarkId::from_parameter("snapshot"), &(), |b, _| {
        b.iter(|| black_box(server.metrics_snapshot()))
    });
    group.finish();

    let mut group = c.benchmark_group("json");
    group.bench_with_input(
        BenchmarkId::from_parameter("parse_outcome_line"),
        &(),
        |b, _| b.iter(|| black_box(parse(&line))),
    );
    group.finish();

    println!(
        "metrics_hot: {VALUES} values, {SHARDS} shards, {histograms} registry histograms, \
         cache line {} bytes",
        line.len()
    );
    mapreduce_bench::merge_bench_report(
        "metrics_hot",
        scenario.profile.num_jobs,
        scenario.machines,
        c.results(),
        &[("cache_line_bytes", line.len().to_json())],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_metrics_hot
}
criterion_main!(benches);
