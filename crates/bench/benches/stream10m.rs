//! The ten-million-job streaming tier: 10 000 000 jobs on 100 000 machines.
//!
//! One order of magnitude past `stream1m`, and the regime the demand-gated
//! prefix ranking and bounded-memory streaming engine were built for: the
//! materialised workload would be tens of gigabytes, while the run's actual
//! footprint is the alive window — the peak-resident counters recorded below
//! stay around 2 % of the job count (residency follows Little's law, so it
//! scales with each scheduler's flowtime, not with workload length).
//! Two schedulers:
//!
//! * `stream10m/fifo` — the engine + feed floor at this scale.
//! * `stream10m/srptmsc` — the paper's online algorithm; the ranked-prefix
//!   counter shows how little of the alive set a decision touches even after
//!   ten million admissions.
//!
//! [`mapreduce_bench::bench_stream_tier`] runs both and records the report
//! extras: peak-resident counters (jobs, copy slots), enforced by the CI
//! bench-guard's memory check, mean flowtimes, and the wall-clock layer
//! split measured from outside
//! (`stream10m_<sched>_{source,schedule,hook,engine_self}_ns`) for
//! localising regressions.
//!
//! Run with `MAPREDUCE_BENCH_WARMUP=0 cargo bench -p mapreduce-bench
//! --bench stream10m`. This tier is **not** part of the CI bench list: one
//! sample simulates ≈80 days of cluster time for ten million jobs and takes
//! tens of minutes of wall clock. `sample_size(1)` — the run is its own
//! population — and skipping the untimed warm-up halves the cost.

use mapreduce_experiments::Scenario;
use mapreduce_support::criterion::Criterion;
use mapreduce_support::{criterion_group, criterion_main};

fn bench_stream10m(c: &mut Criterion) {
    mapreduce_bench::bench_stream_tier(c, "stream10m", &Scenario::ten_million());
}

criterion_group! {
    name = benches;
    // One sample *is* the bench at this scale: a single iteration simulates
    // ≈80 days of cluster time. CI never runs this tier; the recorded
    // BENCH_engine.json entry comes from explicit full runs.
    config = Criterion::default().sample_size(1);
    targets = bench_stream10m
}
criterion_main!(benches);
