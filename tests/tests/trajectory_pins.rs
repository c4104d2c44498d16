//! Cross-version trajectory pins.
//!
//! The golden suite runs each optimized scheduler and its frozen reference on
//! the *same* engine, so an engine change that moves every scheduler alike
//! passes it unnoticed, and perfbench pins only the SRPTMS+C and FIFO
//! flowtimes. This test pins, for every golden scheduler on one small
//! streamed scenario, the counters an engine change would move first: the
//! number of decision instants, copies launched, busy machine-slots, wasted
//! work, fault kills and the exact bits of the weighted flowtime sum. The
//! values were recorded from the engine as it was before lazy stale events,
//! the flat overflow heap and the nothing-launchable exit; a change that
//! preserves trajectories leaves every row unchanged.
//!
//! The scenario is run three ways: fault-free, under a crash + brown-out
//! [`FaultPlan`], and under the same plan with a 16-slot event ring, so the
//! far-future overflow path churns on every long task.

use mapreduce_baselines::{FairScheduler, Fifo, Late, Mantri, Restart, Sca, SrptNoClone};
use mapreduce_sched::SrptMsC;
use mapreduce_sim::{
    FaultClass, FaultPlan, Scheduler, SimConfig, SimOutcome, Simulation, StragglerModel,
};
use mapreduce_workload::{GoogleTraceProfile, StreamingGenerator};

const JOBS: usize = 120;
const MACHINES: usize = 24;
const SEED: u64 = 2015;

/// Every scheduler of the golden suite, in pin-table order.
fn golden_suite() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SrptMsC::new(0.6, 3.0)),
        Box::new(Mantri::new()),
        Box::new(Late::new()),
        Box::new(Restart::new()),
        Box::new(FairScheduler::new()),
        Box::new(Fifo::new()),
        Box::new(Sca::new()),
        Box::new(SrptNoClone::new(3.0)),
    ]
}

/// The three run configurations, in pin-table order.
fn configs() -> Vec<(&'static str, SimConfig)> {
    // Machine stragglers make the detection-based schedulers speculate.
    let base = SimConfig::new(MACHINES)
        .with_seed(SEED)
        .with_straggler_model(StragglerModel::MachineSlowdown {
            probability: 0.15,
            factor: 5.0,
        });
    let plan = FaultPlan::new(vec![
        FaultClass::crashes(MACHINES / 2, 3_000.0, 400.0),
        FaultClass::brownouts(MACHINES / 4, 2_000.0, 600.0, 3.0),
    ]);
    plan.validate(MACHINES);
    vec![
        ("plain", base.clone()),
        ("faults", base.clone().with_fault_plan(plan.clone())),
        (
            "faults_ring4",
            base.with_fault_plan(plan).with_event_ring_bits(4),
        ),
    ]
}

fn run(config: SimConfig, scheduler: &mut dyn Scheduler) -> SimOutcome {
    let profile = GoogleTraceProfile::scaled(JOBS).with_arrival_window(20_000);
    Simulation::from_source(config, Box::new(StreamingGenerator::new(profile, SEED)))
        .run(scheduler)
        .expect("every pinned run completes")
}

/// `(decision_instants, total_copies, busy_machine_slots, wasted_work,
/// copies_killed_by_fault, weighted_sum_flowtime bits)`.
type Pin = (u64, usize, u64, u64, u64, u64);

fn pin_of(outcome: &SimOutcome) -> Pin {
    (
        outcome.telemetry.decision_instants,
        outcome.total_copies,
        outcome.busy_machine_slots,
        outcome.wasted_work,
        outcome.copies_killed_by_fault,
        outcome.weighted_sum_flowtime().to_bits(),
    )
}

/// Recorded values, one row per (configuration, scheduler).
#[rustfmt::skip]
const PINS: &[(&str, &str, Pin)] = &[
    ("plain", "srptms+c(eps=0.6,r=3)", (2758, 2725, 3431573, 0, 0, 4700146895727624192)),
    ("plain", "mantri", (29277, 2585, 3207413, 0, 0, 4703831582530600960)),
    ("plain", "late", (29261, 2588, 3273897, 0, 0, 4704201641207791616)),
    ("plain", "restart", (20651, 2997, 2152341, 0, 0, 4699930339181592576)),
    ("plain", "fair", (2651, 2569, 3360852, 0, 0, 4703171171179298816)),
    ("plain", "fifo", (2645, 2569, 3333544, 0, 0, 4713885008438231040)),
    ("plain", "sca", (2741, 2696, 3417134, 0, 0, 4699404549285216256)),
    ("plain", "srpt-noclone(r=3)", (2638, 2569, 3259533, 0, 0, 4699606850834792448)),
    ("faults", "srptms+c(eps=0.6,r=3)", (6133, 3319, 4024981, 671247, 585, 4701652827225718784)),
    ("faults", "mantri", (39641, 3161, 3865338, 598734, 571, 4704712093775953920)),
    ("faults", "late", (38550, 3163, 3854595, 607551, 569, 4704738671033581568)),
    ("faults", "restart", (28745, 3450, 2637283, 296042, 381, 4701788981983969280)),
    ("faults", "fair", (5387, 3134, 3885282, 671003, 565, 4704502041957892096)),
    ("faults", "fifo", (5310, 3163, 4013958, 638452, 594, 4715497537803386880)),
    ("faults", "sca", (5648, 3305, 4050715, 684049, 589, 4701416234657251328)),
    ("faults", "srpt-noclone(r=3)", (6146, 3162, 4122802, 734334, 593, 4701594793627615232)),
    ("faults_ring4", "srptms+c(eps=0.6,r=3)", (6133, 3319, 4024981, 671247, 585, 4701652827225718784)),
    ("faults_ring4", "mantri", (39641, 3161, 3865338, 598734, 571, 4704712093775953920)),
    ("faults_ring4", "late", (38550, 3163, 3854595, 607551, 569, 4704738671033581568)),
    ("faults_ring4", "restart", (28745, 3450, 2637283, 296042, 381, 4701788981983969280)),
    ("faults_ring4", "fair", (5387, 3134, 3885282, 671003, 565, 4704502041957892096)),
    ("faults_ring4", "fifo", (5310, 3163, 4013958, 638452, 594, 4715497537803386880)),
    ("faults_ring4", "sca", (5648, 3305, 4050715, 684049, 589, 4701416234657251328)),
    ("faults_ring4", "srpt-noclone(r=3)", (6146, 3162, 4122802, 734334, 593, 4701594793627615232)),
];

#[test]
fn golden_trajectories_match_the_recorded_pins() {
    let mut actual = Vec::new();
    for (label, config) in configs() {
        for mut scheduler in golden_suite() {
            let outcome = run(config.clone(), scheduler.as_mut());
            actual.push((label, outcome.scheduler.clone(), pin_of(&outcome)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(label, name, pin)| format!("    ({label:?}, {name:?}, {pin:?}),\n"))
        .collect();
    let expected: Vec<(&str, String, Pin)> = PINS
        .iter()
        .map(|&(label, name, pin)| (label, name.to_string(), pin))
        .collect();
    assert_eq!(
        actual, expected,
        "a golden trajectory moved; the measured table is\n{table}"
    );
}

#[test]
fn pinned_scenario_exercises_cloning_faults_and_overflow() {
    // Guards the pins' coverage: the scenario must clone, kill copies and
    // waste work, or the table above would pin nothing an engine change
    // could move.
    let (_, config) = configs().swap_remove(2);
    let outcome = run(config, &mut SrptMsC::new(0.6, 3.0));
    assert!(outcome.mean_copies_per_task() > 1.0, "no clones launched");
    assert!(outcome.copies_killed_by_fault > 0, "no fault kills");
    assert!(outcome.wasted_work > 0, "no wasted work");
}
