//! Shared helpers for the cross-crate integration tests.

use mapreduce_experiments::{run_scheduler, Scenario, SchedulerKind};
use mapreduce_sim::{
    FaultClass, FaultPlan, Scheduler, SimConfig, SimOutcome, Simulation, StragglerModel,
};
use mapreduce_workload::{ArrivalProcess, DurationDistribution, Trace, WorkloadBuilder};

/// The scenario used by most integration tests: small enough to run in a few
/// hundred milliseconds, large enough that scheduling decisions matter.
pub fn test_scenario() -> Scenario {
    Scenario::test()
}

/// Generates the test trace for a seed.
pub fn test_trace(seed: u64) -> Trace {
    test_scenario().trace(seed)
}

/// Runs one scheduler on the shared test trace.
pub fn run_on_test_trace(kind: SchedulerKind, seed: u64) -> SimOutcome {
    let scenario = test_scenario();
    let trace = scenario.trace(seed);
    run_scheduler(kind, &trace, scenario.machines, seed)
}

/// Every scheduler kind the harness knows about, for exhaustive smoke tests.
pub fn all_scheduler_kinds() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::SrptMsC {
            epsilon: 0.6,
            r: 3.0,
        },
        SchedulerKind::SrptMsNoCloning {
            epsilon: 0.6,
            r: 3.0,
        },
        SchedulerKind::OfflineSrpt { r: 0.0 },
        SchedulerKind::Mantri,
        SchedulerKind::Sca,
        SchedulerKind::Fair,
        SchedulerKind::Fifo,
        SchedulerKind::SrptNoClone { r: 3.0 },
        SchedulerKind::Late,
    ]
}

/// Asserts the structural invariants every simulation outcome must satisfy,
/// regardless of the scheduler: every job completed after it arrived, the
/// cluster never ran more copies than machines, and at least one copy was
/// launched per task.
pub fn assert_outcome_invariants(outcome: &SimOutcome, trace: &Trace) {
    assert_eq!(
        outcome.records().len(),
        trace.len(),
        "every job must have a completion record"
    );
    for record in outcome.records() {
        assert!(
            record.completion >= record.arrival,
            "job {} completed before it arrived",
            record.job
        );
        assert!(
            record.copies_launched >= record.num_tasks(),
            "job {} finished with fewer copies than tasks",
            record.job
        );
    }
    assert!(
        outcome.busy_machine_slots <= outcome.num_machines as u64 * outcome.makespan.max(1),
        "machine-slot accounting exceeded cluster capacity"
    );
    assert!(outcome.utilization() <= 1.0 + 1e-9);
    assert!(outcome.mean_copies_per_task() >= 1.0 - 1e-9);
}

/// A randomized workload with both phases, heavy-tailed durations and mixed
/// integer weights, so every code path (cloning, backfill, detection,
/// precedence) is exercised. The golden-equivalence generator.
pub fn random_trace(jobs: usize, seed: u64, mean_interarrival: f64, map_mean: f64) -> Trace {
    WorkloadBuilder::new()
        .num_jobs(jobs)
        .arrivals(ArrivalProcess::Poisson { mean_interarrival })
        .map_tasks_per_job(1, 6)
        .reduce_tasks_per_job(0, 2)
        .map_duration(DurationDistribution::lognormal_from_moments(map_mean, map_mean).unwrap())
        .reduce_duration(
            DurationDistribution::lognormal_from_moments(map_mean * 1.5, map_mean).unwrap(),
        )
        .weights(&[1.0, 2.0, 5.0, 12.0])
        .build(seed)
}

/// A crash plan over `crash_fraction` of `machines` (at least one) with mean
/// up time `mean_up` and down time `mean_up · down_fraction`, plus, when
/// `brownouts` is set and machines remain, a brown-out class on the rest.
pub fn random_fault_plan(
    machines: usize,
    crash_fraction: f64,
    mean_up: f64,
    down_fraction: f64,
    brownouts: bool,
) -> FaultPlan {
    let crashed = ((machines as f64 * crash_fraction) as usize).max(1);
    let mut classes = vec![FaultClass::crashes(
        crashed,
        mean_up,
        (mean_up * down_fraction).max(1.0),
    )];
    if brownouts && crashed < machines {
        classes.push(FaultClass::brownouts(
            machines - crashed,
            mean_up / 2.0,
            mean_up * down_fraction,
            3.0,
        ));
    }
    let plan = FaultPlan::new(classes);
    plan.validate(machines);
    plan
}

/// Runs `scheduler` over `trace` with machine stragglers (so detection-based
/// schedulers actually speculate) and the fault plan `plan`.
///
/// # Panics
/// Panics if the simulation fails.
pub fn run_with_plan(
    scheduler: &mut dyn Scheduler,
    trace: &Trace,
    machines: usize,
    seed: u64,
    plan: FaultPlan,
) -> SimOutcome {
    let mut config = SimConfig::new(machines)
        .with_seed(seed)
        .with_straggler_model(StragglerModel::MachineSlowdown {
            probability: 0.15,
            factor: 5.0,
        });
    if !plan.is_empty() {
        config = config.with_fault_plan(plan);
    }
    Simulation::new(config, trace)
        .run(scheduler)
        .expect("simulation must complete")
}
