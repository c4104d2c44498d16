//! Fault-injection smoke benchmark: times the kill path — crash-heavy runs
//! where machines die under their copies, finish events go stale, and tasks
//! re-execute — and records the fault counters next to the timings so a
//! regression in the kill/recovery path is visible in the report.
//!
//! Two MTBF levels per scheduler (mild and heavy churn) on the small bench
//! scenario; the `fault_peak_copy_slots` extra rides the bench-guard's
//! memory gate, pinning that arena recycling keeps the resident footprint
//! bounded even when crashes churn copies.
//!
//! Run with `cargo bench -p mapreduce-bench --bench fault_smoke`.

use mapreduce_experiments::{run_cell, Scenario, SchedulerKind};
use mapreduce_sim::{FaultClass, FaultPlan};
use mapreduce_support::criterion::{BenchmarkId, Criterion};
use mapreduce_support::json::ToJson;
use mapreduce_support::{criterion_group, criterion_main};
use std::hint::black_box;

/// One crash class covering the whole cluster, MTTR = MTBF / 8 (the same
/// shape as the fig7 failure sweep).
fn plan(scenario: &Scenario, mtbf: f64) -> FaultPlan {
    FaultPlan::new(vec![FaultClass::crashes(
        scenario.machines,
        mtbf,
        mtbf / 8.0,
    )])
}

fn bench_fault_smoke(c: &mut Criterion) {
    let base = Scenario::scaled(120, 1);
    let seed = base.seeds[0];
    let heavy = base.with_fault(plan(&base, 2_000.0));
    let mild = base.with_fault(plan(&base, 8_000.0));

    let mut group = c.benchmark_group("fault_smoke");
    let variants = [
        ("srptmsc_mtbf2k", SchedulerKind::paper_default(), &heavy),
        ("srptmsc_mtbf8k", SchedulerKind::paper_default(), &mild),
        ("fifo_mtbf2k", SchedulerKind::Fifo, &heavy),
        ("restart_mtbf2k", SchedulerKind::Restart, &heavy),
    ];
    for (label, kind, scenario) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(label), &kind, |b, &kind| {
            b.iter(|| {
                let outcome = run_cell(kind, black_box(scenario), seed);
                black_box(outcome.mean_flowtime())
            })
        });
    }
    group.finish();

    // The counters are deterministic for a given engine build: a change in
    // how many copies die, how much progress is wasted, or how large the
    // arena footprint grows under churn shows up as a diff in the report.
    let probe = run_cell(SchedulerKind::paper_default(), &heavy, seed);
    assert!(
        probe.copies_killed_by_fault > 0,
        "the heavy-churn smoke scenario must actually kill copies"
    );
    println!(
        "fault smoke: {} copies killed, {} machine-slots wasted, {} slots downtime, \
         peak {} copy slots",
        probe.copies_killed_by_fault,
        probe.wasted_work,
        probe.machine_downtime,
        probe.peak_copy_slots
    );
    mapreduce_bench::merge_bench_report(
        "fault_smoke",
        base.profile.num_jobs,
        base.machines,
        c.results(),
        &[
            ("fault_wasted_work", probe.wasted_work.to_json()),
            (
                "fault_copies_killed",
                probe.copies_killed_by_fault.to_json(),
            ),
            ("fault_machine_downtime", probe.machine_downtime.to_json()),
            ("fault_peak_copy_slots", probe.peak_copy_slots.to_json()),
        ],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fault_smoke
}
criterion_main!(benches);
