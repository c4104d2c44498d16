//! Adversarial fault-injection tests: random machine-dynamics plans against
//! the full golden scheduler line-up.
//!
//! The kill storm stresses every cancellation path at once — crashes leave
//! stale queued finish events, kill running and waiting clones,
//! return tasks to the unscheduled pool, and take capacity away mid-batch —
//! while the assertions pin the engine's conservation laws:
//!
//! - **completion**: every job still finishes (work is lost, jobs are not);
//! - **determinism**: a fault plan is part of the seeded configuration, so
//!   the same plan and seed reproduce the same outcome bit-for-bit;
//! - **conservation of work**: lost progress is accounted (`wasted_work ≤
//!   busy_machine_slots`) and no phantom capacity appears
//!   (`busy_machine_slots ≤ machines × makespan`);
//! - **arena recycling**: the copy arena's free list keeps the resident
//!   footprint bounded (`peak_copy_slots ≤ total_copies`) even when crashes
//!   churn copies far faster than jobs complete;
//! - **empty-plan identity**: a `FaultPlan::none()` run is bit-identical to
//!   a run with no plan at all, for every scheduler of the golden suite.

use mapreduce_baselines::{FairScheduler, Fifo, Late, Mantri, Restart, Sca};
use mapreduce_sched::SrptMsC;
use mapreduce_sim::{FaultClass, FaultPlan, Scheduler, SimConfig, SimOutcome, Simulation};
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

/// A two-phase workload small enough that the full suite × several fault
/// plans stays fast, but heavy-tailed enough to keep clones and detection
/// paths active while machines die under them.
fn random_trace(jobs: usize, seed: u64) -> Trace {
    WorkloadBuilder::new()
        .num_jobs(jobs)
        .arrivals(ArrivalProcess::Poisson {
            mean_interarrival: 15.0,
        })
        .map_tasks_per_job(1, 5)
        .reduce_tasks_per_job(0, 2)
        .map_duration(DurationDistribution::lognormal_from_moments(40.0, 40.0).unwrap())
        .reduce_duration(DurationDistribution::lognormal_from_moments(60.0, 40.0).unwrap())
        .weights(&[1.0, 2.0, 5.0])
        .build(seed)
}

fn run_with_plan(
    scheduler: &mut dyn Scheduler,
    trace: &Trace,
    machines: usize,
    seed: u64,
    plan: FaultPlan,
) -> SimOutcome {
    let mut config = SimConfig::new(machines).with_seed(seed);
    if !plan.is_empty() {
        config = config.with_fault_plan(plan);
    }
    Simulation::new(config, trace)
        .run(scheduler)
        .expect("faulty runs must still complete every job")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The kill storm: a random crash class (optionally plus a brown-out
    /// class on the remaining machines) against every golden scheduler.
    #[test]
    fn kill_storm_preserves_conservation_laws(
        jobs in 5usize..18,
        machines in 6usize..20,
        seed in 0u64..500,
        crash_fraction in 0.3f64..1.0,
        mean_up in 300.0f64..3_000.0,
        down_fraction in 0.05f64..0.4,
        brownouts in 0u64..2,
    ) {
        let trace = random_trace(jobs, seed);
        let crashed = ((machines as f64 * crash_fraction) as usize).max(1);
        let mut classes = vec![FaultClass::crashes(
            crashed,
            mean_up,
            (mean_up * down_fraction).max(1.0),
        )];
        if brownouts == 1 && crashed < machines {
            classes.push(FaultClass::brownouts(
                machines - crashed,
                mean_up / 2.0,
                mean_up * down_fraction,
                3.0,
            ));
        }
        let plan = FaultPlan::new(classes);
        plan.validate(machines);

        for mut scheduler in golden_suite() {
            let outcome = run_with_plan(scheduler.as_mut(), &trace, machines, seed, plan.clone());
            let label = outcome.scheduler.clone();

            // Work lost, not jobs lost.
            prop_assert!(
                outcome.records().len() == jobs,
                "{}: some jobs never completed under churn", label
            );
            // Conservation of work: what the cluster was billed for is the
            // completed progress plus the wasted progress — waste can never
            // exceed the busy total, and the busy total can never exceed
            // the physical capacity of the makespan.
            prop_assert!(
                outcome.wasted_work <= outcome.busy_machine_slots,
                "{}: wasted {} > busy {}", label, outcome.wasted_work, outcome.busy_machine_slots
            );
            prop_assert!(
                outcome.busy_machine_slots <= machines as u64 * outcome.makespan,
                "{}: busy {} exceeds capacity {} × {}",
                label, outcome.busy_machine_slots, machines, outcome.makespan
            );
            // Copy-arena recycling: killed copies go back to the free list,
            // so the peak resident footprint stays below the cumulative
            // launch count even when crashes churn copies hard.
            prop_assert!(
                outcome.peak_copy_slots <= outcome.total_copies,
                "{}: peak {} resident copy slots but only {} copies ever launched",
                label, outcome.peak_copy_slots, outcome.total_copies
            );
            // Downtime accounting never exceeds what the crashed machines
            // could physically accumulate.
            prop_assert!(
                outcome.machine_downtime <= crashed as u64 * outcome.makespan,
                "{}: downtime {} exceeds {} crashed machines × makespan {}",
                label, outcome.machine_downtime, crashed, outcome.makespan
            );

            // Determinism: the fault trajectory is part of the seeded
            // configuration; a stale event-queue entry or unordered
            // iteration would diverge here.
            let mut again = golden_suite()
                .into_iter()
                .find(|s| s.name() == label)
                .expect("scheduler names are stable");
            let replay =
                run_with_plan(again.as_mut(), &trace, machines, seed, plan.clone());
            prop_assert!(
                outcome == replay,
                "{}: same plan and seed produced diverging outcomes", label
            );
        }
    }

    /// The tentpole invariant: an empty fault plan is indistinguishable —
    /// bit-for-bit, not just statistically — from no plan at all, for every
    /// golden scheduler.
    #[test]
    fn empty_fault_plan_is_bit_identical_across_golden_suite(
        jobs in 5usize..20,
        machines in 4usize..24,
        seed in 0u64..500,
    ) {
        let trace = random_trace(jobs, seed);
        for (mut with_empty, mut without) in golden_suite().into_iter().zip(golden_suite()) {
            let label = with_empty.name().to_string();
            let a = run_with_plan(
                with_empty.as_mut(), &trace, machines, seed, FaultPlan::none(),
            );
            let b = run_with_plan(without.as_mut(), &trace, machines, seed, FaultPlan::new(vec![]));
            prop_assert!(
                a == b,
                "{}: an empty FaultPlan changed the trajectory", label
            );
        }
    }
}

/// High-churn acceptance test at scale: 100 000 jobs on a large cluster
/// where every machine crashes repeatedly. Run with
/// `cargo test -p mapreduce-tests --release -- --ignored high_churn`.
#[test]
#[ignore = "multi-minute acceptance run; exercised explicitly, not in CI"]
fn high_churn_100k_jobs_complete_with_bounded_arena() {
    let trace = WorkloadBuilder::new()
        .num_jobs(100_000)
        .arrivals(ArrivalProcess::Poisson {
            mean_interarrival: 0.4,
        })
        .map_tasks_per_job(1, 4)
        .reduce_tasks_per_job(0, 1)
        .map_duration(DurationDistribution::lognormal_from_moments(30.0, 25.0).unwrap())
        .reduce_duration(DurationDistribution::lognormal_from_moments(45.0, 30.0).unwrap())
        .weights(&[1.0, 4.0])
        .build(7);
    let machines = 400;
    let plan = FaultPlan::new(vec![FaultClass::crashes(machines, 5_000.0, 500.0)]);
    let config = SimConfig::new(machines).with_seed(7).with_fault_plan(plan);
    let outcome = Simulation::new(config, &trace)
        .run(&mut SrptMsC::new(0.6, 3.0))
        .expect("high-churn run completes");
    assert_eq!(outcome.records().len(), 100_000);
    assert!(outcome.copies_killed_by_fault > 0);
    assert!(outcome.wasted_work <= outcome.busy_machine_slots);
    // The arena must recycle aggressively: the peak resident footprint is a
    // tiny fraction of the hundreds of thousands of copies launched.
    assert!(outcome.peak_copy_slots < outcome.total_copies / 10);
}
