//! The million-job streaming tier: 1 000 000 jobs on 100 000 machines.
//!
//! This is the regime the streaming subsystem and the prefix-truncated
//! SRPTMS+C decision path exist for: the full trace would be several
//! gigabytes materialised, so jobs are synthesized on demand
//! ([`mapreduce_workload::StreamingGenerator`]) and retired from the engine
//! at completion — job state is bounded by the alive window, not the
//! workload. Two schedulers:
//!
//! * `stream1m/fifo` — the cheapest decision path; measures the engine +
//!   feed floor at this scale.
//! * `stream1m/srptmsc` — the paper's online algorithm; its ε-prefix share
//!   walk and pooled decision scratch are what keep a million-job run
//!   tractable (the ranked-prefix counter recorded below shows how little of
//!   the alive set a decision actually touches).
//!
//! [`mapreduce_bench::bench_stream_tier`] runs both and records the report
//! extras: peak-resident counters (jobs, copy slots), the event-queue work
//! counters (events queued, stale finishes delivered, overflow-heap pushes,
//! peak queued events) and the process's peak
//! RSS (`stream1m_peak_rss_kb`, the `VmHWM` high-water mark after both
//! runs), which the CI bench-guard's memory check enforces alongside the
//! timings, plus the wall-clock layer split measured from outside
//! (`stream1m_<sched>_{source,schedule,hook,engine_self}_ns`, summing to the
//! last sample's wall clock).
//!
//! Run with `cargo bench -p mapreduce-bench --bench stream1m`
//! (`MAPREDUCE_BENCH_SAMPLES=1` for the CI smoke pass). A real sample takes
//! minutes: one iteration simulates ≈8 days of cluster time for a million
//! jobs.

use mapreduce_experiments::Scenario;
use mapreduce_support::criterion::Criterion;
use mapreduce_support::{criterion_group, criterion_main};

fn bench_stream1m(c: &mut Criterion) {
    mapreduce_bench::bench_stream_tier(c, "stream1m", &Scenario::million());
}

criterion_group! {
    name = benches;
    // One real sample is minutes of wall clock; two samples keep min/mean
    // meaningful without an hour-long bench. CI overrides via
    // MAPREDUCE_BENCH_SAMPLES=1.
    config = Criterion::default().sample_size(2);
    targets = bench_stream1m
}
criterion_main!(benches);
