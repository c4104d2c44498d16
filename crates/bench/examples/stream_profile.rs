//! Developer harness: one streaming run in the `stream1m` regime (10 jobs
//! per machine, offered load ≈45 %) at an arbitrary scale, with the
//! wall-clock layer split ([`mapreduce_bench::timed`]: source, schedule,
//! hook, engine) and the process's peak RSS
//! ([`mapreduce_bench::peak_rss_kb`]) printed at the end.
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
//! Arguments: `[jobs] [fifo|srptmsc]` (defaults: `200000 srptmsc`). The run
//! panics unless every job completed, the engine's own share of the wall
//! clock is non-zero and at most 1 % of the queued events went through the
//! event queue's overflow heap (the default ring width must hold this
//! regime), so CI runs it as a smoke test.

use mapreduce_baselines::Fifo;
use mapreduce_bench::timed::run_timed;
use mapreduce_experiments::{Scenario, WorkloadSource};
use mapreduce_sched::SrptMsC;
use mapreduce_sim::{Scheduler, SimConfig};
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
    let config = SimConfig::new(scenario.machines).with_seed(seed);

    let (outcome, split) = run_timed(config, scenario.job_source(seed), scheduler.as_mut())
        .expect("profile run must complete");

    assert_eq!(outcome.records().len(), jobs, "not every job completed");
    assert!(
        split.engine_self_ns() > 0,
        "engine share not measured: {split}"
    );
    println!(
        "{} jobs / {} machines / {}: mean flowtime {:.3}",
        jobs,
        scenario.machines,
        outcome.scheduler,
        outcome.mean_flowtime()
    );
    println!(
        "layers: {split}; peak_rss_kb {}",
        mapreduce_bench::peak_rss_kb().unwrap_or(0)
    );
    let t = outcome.telemetry;
    println!(
        "counters: {} copies, {} decision instants, peak resident {}, ranked prefix max {}",
        outcome.total_copies,
        t.decision_instants,
        outcome.peak_resident_jobs,
        t.ranked_prefix_len_max
    );
    println!(
        "event queue: {} queued, {} stale, {} overflow, peak queued {}",
        t.events_queued, t.stale_events, t.overflow_events, t.peak_queued_events
    );
    assert!(
        t.overflow_events * 100 <= t.events_queued,
        "{} of {} events overflowed the ring: widen DEFAULT_RING_BITS",
        t.overflow_events,
        t.events_queued
    );
}
