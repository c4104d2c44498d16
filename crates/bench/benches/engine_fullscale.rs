//! Engine full-scale benchmark: the paper's 12 000-machine / 6 064-job
//! regime (Table II), timed end to end per scheduler and merged into
//! `BENCH_engine.json`.
//!
//! Besides the optimized schedulers, the bench runs the frozen
//! pre-optimization SRPTMS+C and SCA (`ReferenceSrptMsC` and `ReferenceSca`
//! from `integration_tests::oracles`) under the ids
//! `engine_fullscale/srptmsc_reference` and `engine_fullscale/sca_reference`,
//! so the report records the pre-change baselines measured by the same
//! binary on the same machine — each optimized/reference ratio is the
//! incremental-state speedup at full scale, and together they are the
//! bench-guard's host speedometer for this entry.
//!
//! Run with `cargo bench -p mapreduce-bench --bench engine_fullscale`
//! (about a minute; `MAPREDUCE_BENCH_SAMPLES=1` for a quick pass).

use integration_tests::oracles::{ReferenceSca, ReferenceSrptMsC};
use mapreduce_experiments::{run_scheduler, Scenario, SchedulerKind};
use mapreduce_sim::Scheduler;
use mapreduce_support::criterion::{BenchmarkId, Criterion};
use mapreduce_support::json::ToJson;
use mapreduce_support::{criterion_group, criterion_main};
use std::hint::black_box;

fn bench_fullscale(c: &mut Criterion) {
    let scenario = Scenario::paper();
    let seed = scenario.seeds[0];
    let trace = scenario.trace(seed);
    println!(
        "engine fullscale: {} jobs / {} tasks / {} machines",
        trace.len(),
        trace.total_tasks(),
        scenario.machines
    );

    // Peak resident job count (engine-side alive window) of the workload:
    // identical for streaming and materialized feeds of the same trajectory.
    // A materialized feed additionally keeps the whole trace resident in the
    // source; a streaming feed keeps nothing, so its total residency is just
    // the alive window. Recorded in the report next to the timings.
    let peak_resident =
        run_scheduler(SchedulerKind::Fifo, &trace, scenario.machines, seed).peak_resident_jobs;
    println!(
        "engine fullscale: peak resident jobs {peak_resident} (materialized feed holds {} \
         source-resident jobs on top, streaming holds 0)",
        trace.len()
    );

    let mut group = c.benchmark_group("engine_fullscale");
    let variants = [
        ("srptmsc", SchedulerKind::paper_default()),
        ("fifo", SchedulerKind::Fifo),
        ("mantri", SchedulerKind::Mantri),
        ("sca", SchedulerKind::Sca),
    ];
    for (label, kind) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(label), &kind, |b, &kind| {
            b.iter(|| {
                let outcome = run_scheduler(kind, black_box(&trace), scenario.machines, seed);
                black_box(outcome.mean_flowtime())
            })
        });
    }
    // The recorded pre-change baselines: SRPTMS+C and SCA exactly as they
    // were before they read the engine's maintained ranking.
    type MakeScheduler = fn() -> Box<dyn Scheduler>;
    let references: [(&str, MakeScheduler); 2] = [
        ("srptmsc_reference", || {
            Box::new(ReferenceSrptMsC::new(0.6, 3.0))
        }),
        ("sca_reference", || Box::new(ReferenceSca::new())),
    ];
    for (label, make) in references {
        group.bench_with_input(BenchmarkId::from_parameter(label), &seed, |b, &seed| {
            b.iter(|| {
                let outcome = mapreduce_bench::run_reference(
                    make().as_mut(),
                    black_box(&trace),
                    scenario.machines,
                    seed,
                );
                black_box(outcome.mean_flowtime())
            })
        });
    }
    group.finish();

    mapreduce_bench::merge_bench_report(
        "engine_fullscale",
        scenario.profile.num_jobs,
        scenario.machines,
        c.results(),
        &[
            ("peak_resident_jobs", peak_resident.to_json()),
            (
                "source_resident_jobs_materialized",
                scenario.profile.num_jobs.to_json(),
            ),
            ("source_resident_jobs_streaming", 0usize.to_json()),
        ],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench_fullscale
}
criterion_main!(benches);
