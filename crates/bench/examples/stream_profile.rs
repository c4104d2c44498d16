//! Developer harness: one streaming run in the `stream1m` regime (10 jobs
//! per machine, offered load ≈45 %) at an arbitrary scale, with the engine's
//! per-stage wall-clock split printed at the end.
//!
//! Useful for iterating on engine/decision-path performance without paying
//! for a full million-job bench sample, and as the target for a sampling
//! profiler:
//!
//! ```text
//! cargo build --release --example stream_profile
//! gprofng collect app -o /tmp/prof.er \
//!     target/release/examples/stream_profile 200000 srptmsc
//! gprofng display text -functions /tmp/prof.er | head -40
//! ```
//!
//! Arguments: `[jobs] [fifo|srptmsc]` (defaults: `200000 srptmsc`).

use mapreduce_baselines::Fifo;
use mapreduce_experiments::{Scenario, WorkloadSource};
use mapreduce_sched::SrptMsC;
use mapreduce_sim::{Scheduler, SimConfig, Simulation};
use mapreduce_workload::GoogleTraceProfile;

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs: usize = args
        .next()
        .map(|s| s.parse().expect("jobs must be a number"))
        .unwrap_or(200_000);
    let which = args.next().unwrap_or_else(|| "srptmsc".into());

    // The stream1m/stream10m construction at the requested scale: 10 jobs
    // per machine, arrival window stretched to hold the paper's ≈45 % load.
    let machines = (jobs / 10).max(8);
    let window = 35_032u64 * (jobs as u64) * 12_000 / (6_064 * machines as u64);
    let scenario = Scenario {
        profile: GoogleTraceProfile::scaled(jobs).with_arrival_window(window),
        machines,
        seeds: vec![2015],
        source: WorkloadSource::Streaming,
        fault: mapreduce_sim::FaultPlan::none(),
    };
    let seed = scenario.seeds[0];

    let mut scheduler: Box<dyn Scheduler> = match which.as_str() {
        "fifo" => Box::new(Fifo::new()),
        "srptmsc" => Box::new(SrptMsC::new(0.6, 3.0)),
        other => panic!("unknown scheduler {other:?} (use fifo|srptmsc)"),
    };
    let config = SimConfig::new(scenario.machines)
        .with_seed(seed)
        .with_profile_stages(true);

    let start = std::time::Instant::now();
    let outcome = Simulation::from_source(config, scenario.job_source(seed))
        .run(scheduler.as_mut())
        .expect("profile run must complete");
    let wall = start.elapsed();

    assert_eq!(outcome.records().len(), jobs);
    println!(
        "{} jobs / {} machines / {}: {:.3}s wall, mean flowtime {:.3}",
        jobs,
        scenario.machines,
        outcome.scheduler,
        wall.as_secs_f64(),
        outcome.mean_flowtime()
    );
    println!(
        "stages: source {:.3}s, events {:.3}s, decision {:.3}s, metrics {:.3}s",
        outcome.telemetry.stage_source_ns as f64 / 1e9,
        outcome.telemetry.stage_events_ns as f64 / 1e9,
        outcome.telemetry.stage_decision_ns as f64 / 1e9,
        outcome.telemetry.stage_metrics_ns as f64 / 1e9,
    );
    println!(
        "counters: {} copies, {} decision instants, peak resident {}, ranked prefix max {}",
        outcome.total_copies,
        outcome.telemetry.decision_instants,
        outcome.peak_resident_jobs,
        outcome.telemetry.ranked_prefix_len_max
    );
}
