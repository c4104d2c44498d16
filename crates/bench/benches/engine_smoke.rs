//! Engine smoke benchmark: times one scaled-down `Scenario::paper()` run per
//! scheduler family and emits `BENCH_engine.json` at the workspace root, so
//! the engine's performance trajectory is tracked across PRs.
//!
//! The `*_reference` variants run the frozen pre-optimization scheduler
//! implementations (see `mapreduce_sched::reference` /
//! `mapreduce_baselines::reference`), so every report carries a same-machine
//! baseline next to the optimized numbers — absolute timings drift with the
//! host, the optimized/reference ratio does not.
//!
//! Run with `cargo bench -p mapreduce-bench --bench engine_smoke`.

use mapreduce_baselines::ReferenceMantri;
use mapreduce_experiments::{run_scheduler, Scenario, SchedulerKind};
use mapreduce_sched::ReferenceSrptMsC;
use mapreduce_sim::Scheduler;
use mapreduce_support::criterion::{BenchmarkId, Criterion};
use mapreduce_support::{criterion_group, criterion_main};
use std::hint::black_box;

fn bench_engine(c: &mut Criterion) {
    // Scenario::paper() scaled down ~20x: same workload family and load
    // ratio, a few hundred milliseconds per simulation.
    let scenario = Scenario::scaled(300, 1);
    let seed = scenario.seeds[0];
    let trace = scenario.trace(seed);
    println!(
        "engine smoke: {} jobs / {} tasks / {} machines",
        trace.len(),
        trace.total_tasks(),
        scenario.machines
    );

    let mut group = c.benchmark_group("engine_smoke");
    let variants = [
        ("srptmsc", SchedulerKind::paper_default()),
        ("fifo", SchedulerKind::Fifo),
        ("mantri", SchedulerKind::Mantri),
    ];
    for (label, kind) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(label), &kind, |b, &kind| {
            b.iter(|| {
                let outcome = run_scheduler(kind, black_box(&trace), scenario.machines, seed);
                black_box(outcome.mean_flowtime())
            })
        });
    }
    // Same-machine pre-optimization baselines.
    type MakeScheduler = fn() -> Box<dyn Scheduler>;
    let references: [(&str, MakeScheduler); 2] = [
        ("srptmsc_reference", || {
            Box::new(ReferenceSrptMsC::new(0.6, 3.0))
        }),
        ("mantri_reference", || Box::new(ReferenceMantri::new())),
    ];
    for (label, make) in references {
        group.bench_with_input(BenchmarkId::from_parameter(label), &seed, |b, &seed| {
            b.iter(|| {
                let mut scheduler = make();
                let outcome = mapreduce_bench::run_reference(
                    scheduler.as_mut(),
                    black_box(&trace),
                    scenario.machines,
                    seed,
                );
                black_box(outcome.mean_flowtime())
            })
        });
    }
    group.finish();

    // Append-or-update the keyed entry so the perf trajectory accumulates
    // across PRs instead of overwriting the file.
    mapreduce_bench::merge_bench_report(
        "engine_smoke",
        scenario.profile.num_jobs,
        scenario.machines,
        c.results(),
        &[],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine
}
criterion_main!(benches);
