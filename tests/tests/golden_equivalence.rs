//! Golden-equivalence tests for the incremental-state optimization.
//!
//! Every optimized scheduler (SRPTMS+C, Mantri, LATE, Fair, FIFO, SCA,
//! Restart) must produce a **bit-identical** [`SimOutcome`] to its frozen
//! pre-optimization reference implementation (`integration_tests::oracles`)
//! on randomized multi-seed workloads, with and without machine faults. The references re-scan and re-sort everything
//! per decision and touch none of the engine's incremental indices, so any
//! divergence in the free-lists, the priority/arrival orders, the
//! running-by-finish index, the completed-duration aggregates or a
//! scheduler's cached conclusions shows up as an outcome mismatch.
//! SRPT-noclone has no reference in the oracles module; it is pinned against
//! the frozen sort-based copy [`FrozenSrptNoClone`] kept in this file.
//!
//! The same outcomes also pin [`FlowtimeSummary::from_outcome`] bit for bit
//! against [`frozen_summary`], the sort-and-sum summary it replaced.

use integration_tests::helpers::{random_fault_plan, random_trace, run_with_plan};
use integration_tests::oracles::{
    ReferenceFair, ReferenceFifo, ReferenceLate, ReferenceMantri, ReferenceRestart, ReferenceSca,
    ReferenceSrptMsC,
};
use mapreduce_baselines::{FairScheduler, Fifo, Late, Mantri, Restart, Sca, SrptNoClone};
use mapreduce_experiments::WorkloadSource;
use mapreduce_metrics::FlowtimeSummary;
use mapreduce_sched::SrptMsC;
use mapreduce_sim::{
    Action, ClusterState, FaultClass, FaultPlan, Scheduler, SimConfig, SimOutcome, Simulation,
};
use mapreduce_support::proptest::prelude::*;
use mapreduce_workload::{GoogleTraceProfile, Phase, Trace};

/// The sort-based SRPT-noclone policy as it was before it read the engine's
/// ranked order: collect the alive jobs with unscheduled tasks, sort them by
/// `w / max(U, MIN_POSITIVE)` (ties by id) on every decision, and hand out
/// one copy per task in that order.
struct FrozenSrptNoClone {
    r: f64,
    name: String,
}

impl FrozenSrptNoClone {
    fn new(r: f64) -> Self {
        FrozenSrptNoClone {
            r,
            name: SrptNoClone::new(r).name().to_string(),
        }
    }
}

impl Scheduler for FrozenSrptNoClone {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut budget = state.available_machines();
        if budget == 0 {
            return actions;
        }
        let mut jobs: Vec<_> = state
            .alive_jobs()
            .filter(|j| j.total_unscheduled() > 0)
            .collect();
        jobs.sort_by(|a, b| {
            let pa = a.weight()
                / a.remaining_effective_workload(self.r)
                    .max(f64::MIN_POSITIVE);
            let pb = b.weight()
                / b.remaining_effective_workload(self.r)
                    .max(f64::MIN_POSITIVE);
            pb.total_cmp(&pa).then_with(|| a.id().cmp(&b.id()))
        });
        for job in jobs {
            for phase in [Phase::Map, Phase::Reduce] {
                if phase == Phase::Reduce && !job.map_phase_complete() {
                    continue;
                }
                for task in job.unscheduled_tasks(phase) {
                    if budget == 0 {
                        return actions;
                    }
                    actions.push(Action::Launch {
                        task: task.id(),
                        copies: 1,
                    });
                    budget -= 1;
                }
            }
        }
        actions
    }
}

/// Every optimized scheduler paired with its frozen reference.
fn reference_pairs() -> Vec<(Box<dyn Scheduler>, Box<dyn Scheduler>)> {
    vec![
        (
            Box::new(SrptMsC::new(0.6, 3.0)),
            Box::new(ReferenceSrptMsC::new(0.6, 3.0)),
        ),
        (Box::new(Mantri::new()), Box::new(ReferenceMantri::new())),
        (Box::new(Late::new()), Box::new(ReferenceLate::new())),
        (Box::new(Restart::new()), Box::new(ReferenceRestart::new())),
        (
            Box::new(FairScheduler::new()),
            Box::new(ReferenceFair::new()),
        ),
        (Box::new(Fifo::new()), Box::new(ReferenceFifo::new())),
        (Box::new(Sca::new()), Box::new(ReferenceSca::new())),
        (
            Box::new(SrptNoClone::new(3.0)),
            Box::new(FrozenSrptNoClone::new(3.0)),
        ),
    ]
}

fn run(scheduler: &mut dyn Scheduler, trace: &Trace, machines: usize, seed: u64) -> SimOutcome {
    run_with_plan(scheduler, trace, machines, seed, FaultPlan::none())
}

/// Runs the optimized and reference schedulers over the same trace and
/// asserts full outcome equality.
fn assert_equivalent(
    label: &str,
    optimized: &mut dyn Scheduler,
    reference: &mut dyn Scheduler,
    trace: &Trace,
    machines: usize,
    seed: u64,
) -> Result<(), String> {
    let a = run(optimized, trace, machines, seed);
    let b = run(reference, trace, machines, seed);
    prop_assert_eq!(&a.scheduler, &b.scheduler);
    prop_assert!(
        a == b,
        "{label}: optimized and reference outcomes diverge (machines {machines}, seed {seed}): \
         mean flowtime {} vs {}, copies {} vs {}, makespan {} vs {}",
        a.mean_flowtime(),
        b.mean_flowtime(),
        a.total_copies,
        b.total_copies,
        a.makespan,
        b.makespan
    );
    Ok(())
}

/// The flowtime summary as it was computed before [`FlowtimeSummary`] read
/// [`SimOutcome`]'s moments and the `Ecdf` rank rule: sort the flowtimes,
/// sum them in sorted order, sum weights and weighted flowtimes in job-id
/// order, and index quantiles at `round((n−1)·q)`.
fn frozen_summary(outcome: &SimOutcome) -> FlowtimeSummary {
    let records = outcome.records();
    let mean_copies = outcome.mean_copies_per_task();
    let mut flowtimes: Vec<f64> = records.iter().map(|r| r.flowtime() as f64).collect();
    flowtimes.sort_by(f64::total_cmp);
    let n = flowtimes.len();
    let mean = flowtimes.iter().sum::<f64>() / n as f64;
    let total_weight: f64 = records.iter().map(|r| r.weight).sum();
    let weighted_sum: f64 = records.iter().map(|r| r.weighted_flowtime()).sum();
    let quantile = |q: f64| -> f64 {
        let idx = ((n as f64 - 1.0) * q).round() as usize;
        flowtimes[idx.min(n - 1)]
    };
    FlowtimeSummary {
        scheduler: outcome.scheduler.clone(),
        jobs: n,
        mean,
        weighted_mean: if total_weight > 0.0 {
            weighted_sum / total_weight
        } else {
            0.0
        },
        weighted_sum,
        median: quantile(0.5),
        p95: quantile(0.95),
        max: flowtimes[n - 1],
        mean_copies_per_task: mean_copies,
    }
}

/// Asserts [`FlowtimeSummary::from_outcome`] equals [`frozen_summary`]
/// field for field, floats compared by their bits.
fn assert_summary_matches_oracle(outcome: &SimOutcome) -> Result<(), String> {
    let got = FlowtimeSummary::from_outcome(outcome);
    let want = frozen_summary(outcome);
    prop_assert_eq!(&got.scheduler, &want.scheduler);
    prop_assert_eq!(got.jobs, want.jobs);
    for (field, a, b) in [
        ("mean", got.mean, want.mean),
        ("weighted_mean", got.weighted_mean, want.weighted_mean),
        ("weighted_sum", got.weighted_sum, want.weighted_sum),
        ("median", got.median, want.median),
        ("p95", got.p95, want.p95),
        ("max", got.max, want.max),
        (
            "mean_copies_per_task",
            got.mean_copies_per_task,
            want.mean_copies_per_task,
        ),
    ] {
        prop_assert!(
            a.to_bits() == b.to_bits(),
            "{}: summary field {field} is {a:?}, the frozen oracle says {b:?}",
            outcome.scheduler
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn golden_srptmsc_matches_reference(
        jobs in 5usize..35,
        machines in 4usize..64,
        seed in 0u64..1000,
        interarrival in 1.0f64..60.0,
        map_mean in 10.0f64..200.0,
        epsilon in 0.2f64..1.0,
    ) {
        let trace = random_trace(jobs, seed, interarrival, map_mean);
        assert_equivalent(
            "srptms+c",
            &mut SrptMsC::new(epsilon, 3.0),
            &mut ReferenceSrptMsC::new(epsilon, 3.0),
            &trace,
            machines,
            seed,
        )?;
    }

    #[test]
    fn golden_mantri_matches_reference(
        jobs in 5usize..30,
        machines in 4usize..48,
        seed in 0u64..1000,
        map_mean in 20.0f64..200.0,
    ) {
        let trace = random_trace(jobs, seed, 25.0, map_mean);
        assert_equivalent(
            "mantri",
            &mut Mantri::new(),
            &mut ReferenceMantri::new(),
            &trace,
            machines,
            seed,
        )?;
    }

    #[test]
    fn golden_late_matches_reference(
        jobs in 5usize..30,
        machines in 4usize..48,
        seed in 0u64..1000,
        map_mean in 20.0f64..200.0,
    ) {
        let trace = random_trace(jobs, seed, 25.0, map_mean);
        assert_equivalent(
            "late",
            &mut Late::new(),
            &mut ReferenceLate::new(),
            &trace,
            machines,
            seed,
        )?;
    }

    #[test]
    fn golden_restart_matches_reference(
        jobs in 5usize..30,
        machines in 4usize..48,
        seed in 0u64..1000,
        map_mean in 20.0f64..200.0,
    ) {
        // The cancellation-heavy path: every detected straggler is killed
        // (CancelCopies, exercising stale finish events and the running-finish
        // re-keying) and relaunched. The heavy-tailed workload plus machine
        // stragglers guarantees restarts actually fire.
        let trace = random_trace(jobs, seed, 25.0, map_mean);
        assert_equivalent(
            "restart",
            &mut Restart::new(),
            &mut ReferenceRestart::new(),
            &trace,
            machines,
            seed,
        )?;
    }

    #[test]
    fn golden_fair_fifo_sca_match_references(
        jobs in 5usize..30,
        machines in 4usize..48,
        seed in 0u64..1000,
    ) {
        let trace = random_trace(jobs, seed, 20.0, 60.0);
        assert_equivalent(
            "fair",
            &mut FairScheduler::new(),
            &mut ReferenceFair::new(),
            &trace,
            machines,
            seed,
        )?;
        assert_equivalent("fifo", &mut Fifo::new(), &mut ReferenceFifo::new(), &trace, machines, seed)?;
        assert_equivalent("sca", &mut Sca::new(), &mut ReferenceSca::new(), &trace, machines, seed)?;
    }

    #[test]
    fn golden_srpt_noclone_matches_frozen_sort(
        jobs in 5usize..30,
        machines in 4usize..48,
        seed in 0u64..1000,
        interarrival in 1.0f64..60.0,
        r in 0.0f64..4.0,
    ) {
        let trace = random_trace(jobs, seed, interarrival, 60.0);
        assert_equivalent(
            "srpt-noclone",
            &mut SrptNoClone::new(r),
            &mut FrozenSrptNoClone::new(r),
            &trace,
            machines,
            seed,
        )?;
    }

}

proptest! {
    // Cheap cases (each run is a few hundred slots) and a rare divergence
    // class (a silent kill must land on the earlier copy of a cloned task
    // and move it past a detector's threshold): more cases than above.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every pair again under a random crash plan, optionally with a
    /// brown-out class on the remaining machines. Fault kills are the one
    /// engine event a scheduler's hooks do not all see (killing one copy of
    /// a cloned task is silent), so schedulers that cache conclusions about
    /// running tasks across decisions must still match the rescanning
    /// references here.
    #[test]
    fn golden_pairs_match_references_under_fault_plans(
        jobs in 10usize..30,
        machines in 6usize..32,
        seed in 0u64..1000,
        crash_fraction in 0.5f64..1.0,
        mean_up in 100.0f64..600.0,
        down_fraction in 0.05f64..0.4,
        brownouts in 0u64..2,
    ) {
        let trace = random_trace(jobs, seed, 20.0, 60.0);
        let plan = random_fault_plan(machines, crash_fraction, mean_up, down_fraction, brownouts == 1);
        for (mut optimized, mut reference) in reference_pairs() {
            let a = run_with_plan(optimized.as_mut(), &trace, machines, seed, plan.clone());
            let b = run_with_plan(reference.as_mut(), &trace, machines, seed, plan.clone());
            prop_assert!(
                a == b,
                "{}: optimized and reference outcomes diverge under faults \
                 (machines {machines}, seed {seed}, {} copies killed): \
                 mean flowtime {} vs {}, copies {} vs {}",
                a.scheduler,
                a.copies_killed_by_fault,
                a.mean_flowtime(),
                b.mean_flowtime(),
                a.total_copies,
                b.total_copies
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every golden scheduler and its reference, with and without a crash
    /// plan: the summary of each outcome is bit-identical to the frozen
    /// sort-and-sum oracle.
    #[test]
    fn summary_matches_the_frozen_oracle(
        jobs in 5usize..30,
        machines in 4usize..32,
        seed in 0u64..1000,
        crashes in 0usize..2,
    ) {
        let trace = random_trace(jobs, seed, 20.0, 60.0);
        let plan = if crashes == 1 {
            FaultPlan::new(vec![FaultClass::crashes(machines.div_ceil(2), 100.0, 20.0)])
        } else {
            FaultPlan::none()
        };
        for (mut optimized, mut reference) in reference_pairs() {
            for scheduler in [optimized.as_mut(), reference.as_mut()] {
                let outcome = run_with_plan(scheduler, &trace, machines, seed, plan.clone());
                assert_summary_matches_oracle(&outcome)?;
            }
        }
    }
}

/// The benchmark's workload family must also be equivalence-clean. This
/// runs `Scenario::scaled(120, 1)`: the generator and machines-per-job ratio of
/// `engine_smoke`'s `Scenario::scaled(300, 1)` (whose timings land in
/// `BENCH_engine.json`) at 120 jobs, because the 300-job run adds about 6 s
/// to a debug test run.
#[test]
fn golden_bench_scenario_matches_reference() {
    let scenario = mapreduce_experiments::Scenario::scaled(120, 1);
    let seed = scenario.seeds[0];
    let trace = scenario.trace(seed);
    let machines = scenario.machines;

    for (mut optimized, mut reference) in reference_pairs() {
        let config = SimConfig::new(machines).with_seed(seed);
        let a = Simulation::new(config.clone(), &trace)
            .run(optimized.as_mut())
            .unwrap();
        let b = Simulation::new(config, &trace)
            .run(reference.as_mut())
            .unwrap();
        assert_eq!(a, b, "{} diverges on the bench scenario", a.scheduler);
        assert_summary_matches_oracle(&a).unwrap();
    }
}

/// The optimized SRPTMS+C and FIFO against their references on a benchmarked
/// scenario: perfbench's stream construction (10 000 streamed jobs on 1 000
/// machines, the arrival window stretched to keep the paper's offered load),
/// seed 2015. Ignored by default because the re-sorting references make it
/// a release-build test; run it with
/// `cargo test --release -p integration-tests --test golden_equivalence -- --ignored`.
#[test]
#[ignore = "slow: run in release with --ignored"]
fn golden_stream_scenario_matches_reference() {
    const JOBS: usize = 10_000;
    let machines = JOBS / 10;
    let window = 35_032u64 * (JOBS as u64) * 12_000 / (6_064 * machines as u64);
    let scenario = mapreduce_experiments::Scenario {
        profile: GoogleTraceProfile::scaled(JOBS).with_arrival_window(window),
        machines,
        seeds: vec![2015],
        source: WorkloadSource::Streaming,
        fault: FaultPlan::none(),
    };
    let seed = scenario.seeds[0];
    let pairs: [(Box<dyn Scheduler>, Box<dyn Scheduler>); 2] = [
        (
            Box::new(SrptMsC::new(0.6, 3.0)),
            Box::new(ReferenceSrptMsC::new(0.6, 3.0)),
        ),
        (Box::new(Fifo::new()), Box::new(ReferenceFifo::new())),
    ];
    for (mut optimized, mut reference) in pairs {
        let run = |scheduler: &mut dyn Scheduler| {
            Simulation::from_source(scenario.sim_config(seed), scenario.job_source(seed))
                .run(scheduler)
                .unwrap()
        };
        let a = run(optimized.as_mut());
        let b = run(reference.as_mut());
        assert_eq!(a.records().len(), JOBS);
        assert_eq!(a, b, "{} diverges on the stream scenario", a.scheduler);
    }
}
