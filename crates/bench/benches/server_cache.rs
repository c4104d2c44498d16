//! Experiment-service benchmark: cold vs warm sweep submission.
//!
//! One [`SweepRequest`] shaped like a figure sweep (the paper comparison
//! line-up over the sweep scenario, two seeds) submitted to a
//! [`SweepServer`]:
//!
//! * `cold/sweep` — a fresh in-memory cache per iteration: every cell is
//!   fingerprinted, simulated on the worker pool, and stored. This is the
//!   full first-run cost, cache overhead included.
//! * `warm/sweep` — a pre-warmed server: every cell is a cache hit and the
//!   response is assembled from stored outcomes. The bench asserts the warm
//!   response **simulates zero cells** and reproduces the cold averages bit
//!   for bit before any timing starts;
//! * `warm/serve_mix` — the cache hit of perfbench's `serve_mix` workload:
//!   FIFO and SRPTMS+C over `Scenario::scaled(400, 0)` with two seeds and a
//!   tenant tag, four cells of 400 jobs, on a pre-warmed server (also
//!   checked to simulate nothing before timing).
//!
//! The cold/warm ratio in `BENCH_engine.json` is the headline number of the
//! result cache: how much simulation work a repeated figure sweep avoids.
//!
//! Run with `cargo bench -p mapreduce-bench --bench server_cache`
//! (`MAPREDUCE_BENCH_SAMPLES=3` for the CI smoke pass). Results merge into
//! `BENCH_engine.json` / the smoke report and feed the CI bench-guard.

use mapreduce_experiments::{Scenario, SchedulerKind};
use mapreduce_server::{ResultCache, SweepRequest, SweepServer};
use mapreduce_support::criterion::{BenchmarkId, Criterion};
use mapreduce_support::json::ToJson;
use mapreduce_support::{criterion_group, criterion_main};
use std::hint::black_box;

fn bench_server_cache(c: &mut Criterion) {
    let mut scenario = Scenario::scaled(150, 1);
    scenario.seeds = vec![2015, 2016];
    let request = SweepRequest::new(scenario, SchedulerKind::paper_comparison());
    let cells = request.num_cells();

    // Correctness gate before timing: a warm submission must simulate
    // nothing and agree with the cold run exactly.
    let warm_server = SweepServer::new(ResultCache::in_memory());
    let cold_response = warm_server.submit(&request);
    assert_eq!(cold_response.simulated, cells);
    let warm_response = warm_server.submit(&request);
    assert_eq!(warm_response.simulated, 0, "warm sweep must not simulate");
    assert_eq!(warm_response.cache_hits, cells);
    assert_eq!(warm_response.averages, cold_response.averages);
    println!(
        "server cache: {} cells ({} schedulers x {} seeds)",
        cells,
        request.schedulers.len(),
        request.scenario.seeds.len()
    );

    // perfbench `serve_mix`'s sweep shape, warmed once.
    let mut mix_scenario = Scenario::scaled(400, 0);
    mix_scenario.seeds = vec![2015, 2016];
    let mix_request = SweepRequest::new(
        mix_scenario,
        vec![SchedulerKind::Fifo, SchedulerKind::paper_default()],
    )
    .with_tenant("bench");
    let mix_server = SweepServer::new(ResultCache::in_memory());
    assert_eq!(mix_server.submit(&mix_request).simulated, 4);
    let mix_warm = mix_server.submit(&mix_request);
    assert_eq!(
        mix_warm.simulated, 0,
        "warm serve_mix sweep must not simulate"
    );
    assert_eq!(mix_warm.cache_hits, 4);

    let mut group = c.benchmark_group("server_cache");
    group.bench_with_input(BenchmarkId::from_parameter("cold/sweep"), &(), |b, ()| {
        b.iter(|| {
            let server = SweepServer::new(ResultCache::in_memory());
            let response = server.submit(black_box(&request));
            assert_eq!(response.simulated, cells);
            black_box(response.cache_hits)
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("warm/sweep"), &(), |b, ()| {
        b.iter(|| {
            let response = warm_server.submit(black_box(&request));
            assert_eq!(response.simulated, 0);
            black_box(response.cache_hits)
        })
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("warm/serve_mix"),
        &(),
        |b, ()| {
            b.iter(|| {
                let response = mix_server.submit(black_box(&mix_request));
                assert_eq!(response.simulated, 0);
                black_box(response.cache_hits)
            })
        },
    );
    group.finish();

    mapreduce_bench::merge_bench_report(
        "server_cache",
        request.scenario.profile.num_jobs,
        request.scenario.machines,
        c.results(),
        &[
            ("cells", cells.to_json()),
            ("warm_cache_hits", warm_response.cache_hits.to_json()),
        ],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_server_cache
}
criterion_main!(benches);
