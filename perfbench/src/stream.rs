//! `stream_srptmsc` and `stream_fifo`: the stream1m construction (streaming
//! generator, 10 jobs per machine, arrival window stretched to the paper's
//! offered load) at a size that runs many times in one measurement, under
//! SRPTMS+C or FIFO.

use crate::stats::{flowtimes, peak_rss_mb};
use crate::timed::{ns_since, timed, Layers, TimedScheduler, TimedSource};
use crate::{Args, Report};
use mapreduce_experiments::{Scenario, SchedulerKind, WorkloadSource};
use mapreduce_metrics::FlowtimeSummary;
use mapreduce_sim::{FaultPlan, SimOutcome, Simulation};
use mapreduce_workload::GoogleTraceProfile;
use std::time::Instant;

/// Jobs per trace.
pub const JOBS: usize = 10_000;
/// Distinct traces per run, each run once per round. Averaging the flowtime
/// metrics over several traces keeps their seed-to-seed spread small.
const TRACES: u64 = 6;

/// The scheduler a stream workload runs.
#[derive(Clone, Copy)]
pub enum Policy {
    /// SRPTMS+C with ε = 0.6, r = 3 (the paper's defaults).
    SrptMsC,
    /// FIFO, the control whose decision stage is cheap.
    Fifo,
}

impl Policy {
    fn kind(self) -> SchedulerKind {
        match self {
            Policy::SrptMsC => SchedulerKind::paper_default(),
            Policy::Fifo => SchedulerKind::Fifo,
        }
    }

    /// `(mean, weighted mean, p99)` flowtime at the default seed: the
    /// schedule must not change when only speed does.
    fn pinned(self) -> [f64; 3] {
        match self {
            Policy::SrptMsC => [1049.4739499999998, 1019.6320587724416, 16209.0],
            Policy::Fifo => [2334.2399666666665, 2344.750133287443, 16551.0],
        }
    }
}

/// `Scenario::million` scaled to [`JOBS`]: 10 jobs per machine, with the
/// arrival window stretched by the same jobs-per-machine ratio relative to
/// paper scale so the offered load stays at the paper's level.
pub fn scenario() -> Scenario {
    let machines = JOBS / 10;
    let window = 35_032u64 * (JOBS as u64) * 12_000 / (6_064 * machines as u64);
    Scenario {
        profile: GoogleTraceProfile::scaled(JOBS).with_arrival_window(window),
        machines,
        seeds: Vec::new(),
        source: WorkloadSource::Streaming,
        fault: FaultPlan::none(),
    }
}

/// Offered load of one trace: total task work over machine time across the
/// arrival span. Read off a separate pass over the source, outside any
/// timed region.
fn offered_load(scenario: &Scenario, seed: u64) -> f64 {
    let mut source = scenario.job_source(seed);
    let (mut work, mut first, mut last) = (0.0, u64::MAX, 0u64);
    while let Some(job) = source.next_job() {
        work += job.true_total_workload();
        first = first.min(job.arrival);
        last = last.max(job.arrival);
    }
    work / (scenario.machines as f64 * (last - first).max(1) as f64)
}

/// One untraced pass: `(setup ns, run ns, outcome)`. Set-up is building the
/// job source; the run is the simulation plus its flowtime summary.
fn untraced(
    scenario: &Scenario,
    kind: SchedulerKind,
    seed: u64,
) -> Result<(u64, u64, SimOutcome), String> {
    let start = Instant::now();
    let source = scenario.job_source(seed);
    let setup = ns_since(start);
    let start = Instant::now();
    let mut scheduler = kind.build();
    let outcome = Simulation::from_source(scenario.sim_config(seed), source)
        .run(scheduler.as_mut())
        .map_err(|e| format!("seed {seed}: simulation failed: {e}"))?;
    std::hint::black_box(FlowtimeSummary::from_outcome(&outcome));
    Ok((setup, ns_since(start), outcome))
}

/// Every timed slice of a traced simulation pass; `sim.self_ns` is the
/// rest of its wall time.
pub const SIM_PARTS: [&str; 11] = [
    "workload.generate_ns",
    "workload.next_job_ns",
    "core.schedule_ns",
    "core.hook_ns",
    "baselines.fifo.schedule_ns",
    "baselines.fifo.hook_ns",
    "baselines.sca.schedule_ns",
    "baselines.sca.hook_ns",
    "baselines.mantri.schedule_ns",
    "baselines.mantri.hook_ns",
    "metrics.summary_ns",
];

/// One traced pass of one cell: the untraced pass with every call into the
/// workload, scheduler and metrics crates timed. Returns the outcome, the
/// pass's layers and its wall time, which the layers' times sum to.
pub fn traced(
    scenario: &Scenario,
    kind: SchedulerKind,
    seed: u64,
) -> Result<(SimOutcome, Layers, f64), String> {
    let mut layers = Layers::default();
    let (mut generate_ns, mut summary_ns) = (0, 0);
    let start = Instant::now();
    let source = timed(&mut generate_ns, || scenario.job_source(seed));
    let (source, source_times) = TimedSource::wrap(source);
    let mut scheduler = TimedScheduler::new(kind.build());
    let outcome = Simulation::from_source(scenario.sim_config(seed), source)
        .run(&mut scheduler)
        .map_err(|e| format!("seed {seed}: traced simulation failed: {e}"))?;
    timed(&mut summary_ns, || {
        std::hint::black_box(FlowtimeSummary::from_outcome(&outcome))
    });
    let wall = ns_since(start) as f64;
    layers.add("workload.generate_ns", generate_ns as f64);
    layers.add_source(&source_times);
    layers.add_scheduler(kind, &scheduler.times);
    layers.add("metrics.summary_ns", summary_ns as f64);
    let wrapped = layers.sum(&SIM_PARTS);
    layers.add("sim.self_ns", wall - wrapped);
    Ok((outcome, layers, wall))
}

/// Problems with one outcome: incomplete jobs, or a trajectory different
/// from the first run of the same trace.
fn check_outcome(outcome: &SimOutcome, first: &Option<SimOutcome>, what: &str) -> Option<String> {
    if outcome.records().len() != JOBS {
        return Some(format!(
            "{what}: {} of {JOBS} jobs completed",
            outcome.records().len()
        ));
    }
    match first {
        Some(first) if first != outcome => Some(format!(
            "{what}: outcome differs from the first run of the trace"
        )),
        _ => None,
    }
}

/// Files the engine-side counters and the load regime of one round's
/// outcomes.
pub fn add_regime(layers: &mut Layers, outcomes: &[&SimOutcome], offered: &[f64]) {
    let n = outcomes.len() as f64;
    let tasks: usize = outcomes
        .iter()
        .flat_map(|o| o.records())
        .map(|r| r.num_tasks())
        .sum();
    let copies: usize = outcomes.iter().map(|o| o.total_copies).sum();
    for outcome in outcomes {
        layers.add(
            "sim.decision_instants",
            outcome.telemetry.decision_instants as f64,
        );
        layers.add("sim.copies_launched", outcome.total_copies as f64);
        layers.add("sim.utilization", outcome.utilization() / n);
    }
    layers.set("sim.copies_per_task", copies as f64 / tasks as f64);
    let max = |f: fn(&SimOutcome) -> usize| outcomes.iter().map(|o| f(o)).max().unwrap_or(0) as f64;
    layers.set("sim.peak_resident_jobs", max(|o| o.peak_resident_jobs));
    layers.set("sim.peak_copy_slots", max(|o| o.peak_copy_slots));
    if !offered.is_empty() {
        layers.set(
            "sim.offered_load",
            offered.iter().sum::<f64>() / offered.len() as f64,
        );
    }
}

/// Runs a stream workload; see the module docs.
pub fn run(args: &Args, policy: Policy, report: &mut Report) {
    let scenario = scenario();
    let kind = policy.kind();
    let seeds: Vec<u64> = (0..TRACES)
        .map(|k| args.seed.wrapping_mul(TRACES).wrapping_add(k))
        .collect();
    let offered: Vec<f64> = seeds.iter().map(|&s| offered_load(&scenario, s)).collect();

    let mut first: Vec<Option<SimOutcome>> = vec![None; seeds.len()];
    let (mut setups, mut rates, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_layers = Layers::default();
    let mut rounds = 0usize;
    let mut peak_rss = Err("no pass completed".to_string());
    let start = Instant::now();
    // A request is one round: every trace once. Its time averages over the
    // traces, and the median over rounds drops the host's slow phases.
    while rounds == 0 || start.elapsed() < args.seconds {
        let (mut round_run, mut round_latency) = (0, 0);
        for (k, &seed) in seeds.iter().enumerate() {
            match untraced(&scenario, kind, seed) {
                Ok((setup, run, outcome)) => {
                    report.op(check_outcome(&outcome, &first[k], &format!("seed {seed}")));
                    setups.push(setup as f64 / 1e9);
                    round_run += run;
                    round_latency += setup + run;
                    first[k].get_or_insert(outcome);
                }
                Err(problem) => report.op(Some(problem)),
            }
            if args.trace {
                match traced(&scenario, kind, seed) {
                    Ok((outcome, layers, wall)) => {
                        let what = format!("seed {seed} traced");
                        report.op(check_outcome(&outcome, &first[k], &what));
                        traced_layers.merge(&layers);
                        traced_layers.add("trace.wall_ns", wall);
                    }
                    Err(problem) => report.op(Some(problem)),
                }
            }
        }
        rates.push((JOBS * seeds.len()) as f64 / (round_run as f64 / 1e9));
        latencies.push(round_latency as f64 / 1e6);
        if rounds == 0 {
            // Later passes repeat the same allocations; reading the peak
            // after the first keeps it independent of how many fit in the run.
            peak_rss = peak_rss_mb("self");
        }
        rounds += 1;
    }
    let outcomes: Vec<&SimOutcome> = first.iter().flatten().collect();
    if outcomes.len() != seeds.len() {
        return;
    }
    let mut regime = Layers::default();
    add_regime(&mut regime, &outcomes, &offered);
    report.note(format!(
        "regime: {} jobs / {} machines per trace, {} traces; offered load {:.3}, \
         utilization {:.3}, peak resident jobs {} (burst backlog, not a steady state)",
        JOBS,
        scenario.machines,
        seeds.len(),
        regime.get("sim.offered_load"),
        regime.get("sim.utilization"),
        regime.get("sim.peak_resident_jobs"),
    ));

    if args.trace {
        let untraced_wall = latencies.iter().sum::<f64>() * 1e6 / rounds as f64;
        report.traced(traced_layers, &regime, untraced_wall, rounds);
        return;
    }

    report.speed(&rates, &latencies, 1, &setups, peak_rss);
    report.flowtimes(
        args.seed,
        flowtimes(&outcomes),
        policy.pinned(),
        outcomes.len(),
        outcomes.len() * JOBS,
    );
}
