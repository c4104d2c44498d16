//! Observer-attachment equivalence: the telemetry seam must be invisible.
//!
//! [`mapreduce_sim::SimObserver`] is a read-only tap on the engine — so a
//! run with the full observer stack attached (counter/histogram fold plus
//! Chrome-trace recorder) must produce a **bit-identical**
//! [`SimOutcome`] to the same run without it, across the whole golden
//! scheduler suite, with and without fault plans.
//! These proptests pin that, plus the consistency laws tying the folded
//! registry back to the outcome's own conservation counters, plus the
//! self-validation of the exported trace against the registry.

use mapreduce_baselines::{FairScheduler, Fifo, Late, Mantri, Restart, Sca};
use mapreduce_metrics::telemetry::names;
use mapreduce_metrics::{validate_trace, MetricsRegistry, SimTelemetry, TraceRecorder};
use mapreduce_sched::SrptMsC;
use mapreduce_sim::{
    FaultClass, FaultPlan, Scheduler, SimConfig, SimOutcome, Simulation, StragglerModel,
};
use mapreduce_support::proptest::prelude::*;
use mapreduce_workload::{ArrivalProcess, DurationDistribution, Trace, WorkloadBuilder};

/// A fresh instance of every scheduler in the golden suite.
fn golden_suite() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SrptMsC::new(0.6, 3.0)),
        Box::new(Mantri::new()),
        Box::new(Late::new()),
        Box::new(Restart::new()),
        Box::new(FairScheduler::new()),
        Box::new(Fifo::new()),
        Box::new(Sca::new()),
    ]
}

/// A workload heavy-tailed enough to exercise cloning, cancellation and
/// both phases, small enough for suite × cases proptest budgets.
fn random_trace(jobs: usize, seed: u64, map_mean: f64) -> Trace {
    WorkloadBuilder::new()
        .num_jobs(jobs)
        .arrivals(ArrivalProcess::Poisson {
            mean_interarrival: 15.0,
        })
        .map_tasks_per_job(1, 5)
        .reduce_tasks_per_job(0, 2)
        .map_duration(DurationDistribution::lognormal_from_moments(map_mean, map_mean).unwrap())
        .reduce_duration(
            DurationDistribution::lognormal_from_moments(map_mean * 1.5, map_mean).unwrap(),
        )
        .weights(&[1.0, 2.0, 5.0])
        .build(seed)
}

/// Stragglers keep detection-based schedulers speculating, so the
/// cancellation events actually fire.
fn config(machines: usize, seed: u64, plan: Option<FaultPlan>) -> SimConfig {
    let mut config = SimConfig::new(machines)
        .with_seed(seed)
        .with_straggler_model(StragglerModel::MachineSlowdown {
            probability: 0.15,
            factor: 5.0,
        });
    if let Some(plan) = plan {
        config = config.with_fault_plan(plan);
    }
    config
}

fn run_bare(scheduler: &mut dyn Scheduler, trace: &Trace, config: SimConfig) -> SimOutcome {
    Simulation::new(config, trace)
        .run(scheduler)
        .expect("bare run must complete")
}

fn run_observed(
    scheduler: &mut dyn Scheduler,
    trace: &Trace,
    config: SimConfig,
) -> (SimOutcome, MetricsRegistry, TraceRecorder) {
    let mut telemetry = SimTelemetry::new();
    let mut recorder = TraceRecorder::new(100_000);
    let outcome = Simulation::new(config, trace)
        .run_with_observer(scheduler, &mut (&mut telemetry, &mut recorder))
        .expect("observed run must complete");
    (outcome, telemetry.into_registry(), recorder)
}

/// The full invariant bundle for one (scheduler, trace, config) cell.
fn assert_observer_invisible(
    label: &str,
    scheduler_pair: (&mut dyn Scheduler, &mut dyn Scheduler),
    trace: &Trace,
    cfg: SimConfig,
) -> Result<(), String> {
    let (bare_scheduler, observed_scheduler) = scheduler_pair;
    let bare = run_bare(bare_scheduler, trace, cfg.clone());
    let (observed, registry, recorder) = run_observed(observed_scheduler, trace, cfg);

    // Bit-identity of the outcome, including the deterministic halves of the
    // telemetry block (the stage_*_ns wall clocks are excluded from
    // equality by design).
    prop_assert!(
        bare == observed,
        "{label}: attaching observers changed the outcome"
    );
    prop_assert_eq!(
        bare.telemetry.decision_instants,
        observed.telemetry.decision_instants
    );
    prop_assert_eq!(
        bare.telemetry.ranked_prefix_len_max,
        observed.telemetry.ranked_prefix_len_max
    );

    // Conservation laws tying the folded registry to the outcome.
    prop_assert_eq!(
        registry.counter(names::JOBS_COMPLETED) as usize,
        observed.records().len()
    );
    prop_assert_eq!(
        registry.counter(names::COPIES_LAUNCHED) as usize,
        observed.total_copies
    );
    prop_assert_eq!(
        registry.counter(names::CANCELLED_FAULT),
        observed.copies_killed_by_fault
    );
    // Every launched copy ends exactly once: finished, or cancelled for one
    // of the three reasons.
    prop_assert_eq!(
        registry.counter(names::COPIES_LAUNCHED),
        registry.counter(names::COPIES_FINISHED)
            + registry.counter(names::CANCELLED_SIBLING)
            + registry.counter(names::CANCELLED_SCHEDULER)
            + registry.counter(names::CANCELLED_FAULT)
    );
    // The observer sees every decision instant except the final drain batch,
    // which completes the run before the scheduler is consulted.
    prop_assert_eq!(
        registry.counter(names::DECISION_INSTANTS),
        observed.telemetry.decision_instants - 1
    );

    // The exported trace self-validates against the registry.
    let text = recorder.to_json().to_compact_string();
    if let Err(err) = validate_trace(&text, &registry) {
        return Err(format!("{label}: trace failed validation: {err}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fault-free runs: the whole golden suite, observers invisible.
    #[test]
    fn observers_are_invisible_across_golden_suite(
        jobs in 5usize..20,
        machines in 4usize..32,
        seed in 0u64..1000,
        map_mean in 20.0f64..120.0,
    ) {
        let trace = random_trace(jobs, seed, map_mean);
        for (mut bare, mut observed) in golden_suite().into_iter().zip(golden_suite()) {
            let label = format!("plain/{}", bare.name());
            assert_observer_invisible(
                &label,
                (bare.as_mut(), observed.as_mut()),
                &trace,
                config(machines, seed, None),
            )?;
        }
    }

    /// Crash/recovery dynamics: fault events (MachineDown/Up, unlaunches,
    /// fault kills) flow through the observers without disturbing the run.
    #[test]
    fn observers_are_invisible_under_fault_plans(
        jobs in 5usize..15,
        machines in 6usize..20,
        seed in 0u64..500,
        crash_fraction in 0.3f64..1.0,
        mean_up in 300.0f64..3_000.0,
    ) {
        let trace = random_trace(jobs, seed, 40.0);
        let crashed = ((machines as f64 * crash_fraction) as usize).max(1);
        let plan = FaultPlan::new(vec![FaultClass::crashes(
            crashed,
            mean_up,
            (mean_up * 0.2).max(1.0),
        )]);
        for (mut bare, mut observed) in golden_suite().into_iter().zip(golden_suite()) {
            let label = format!("faulty/{}", bare.name());
            assert_observer_invisible(
                &label,
                (bare.as_mut(), observed.as_mut()),
                &trace,
                config(machines, seed, Some(plan.clone())),
            )?;
        }
    }
}
