//! `paper_fig6`: the researcher's path. `Scenario::paper()` (a materialised
//! paper-scale trace on 12 000 machines) with the Fig. 6 line-up (SRPTMS+C,
//! SCA, Mantri) over several seeds, through the public `fig6::run` fan-out.

use crate::stats::{flowtimes, peak_rss_mb};
use crate::stream::{add_regime, traced};
use crate::timed::{ns_since, Layers};
use crate::{Args, Report};
use mapreduce_experiments::cache::{CacheStats, OutcomeCache, StatsCounters};
use mapreduce_experiments::fig6::{self, Fig6Result};
use mapreduce_experiments::runner::average_summary;
use mapreduce_experiments::{
    cell_fingerprint, clear_global_cache, install_global_cache, Scenario, SchedulerKind,
};
use mapreduce_metrics::FlowtimeSummary;
use mapreduce_sim::SimOutcome;
use mapreduce_support::hash::Fingerprint;
use mapreduce_support::par_map;
use mapreduce_support::parallel::worker_threads;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Seeds per figure: each `fig6::run` simulates line-up × seeds cells.
const SEEDS: u64 = 2;

/// `(mean, weighted mean, p99)` SRPTMS+C flowtime at the default seed.
const PINNED: [f64; 3] = [882.1643304749341, 820.3903733210581, 13851.0];

/// The paper scenario with this run's seeds.
fn scenario(seed: u64) -> Scenario {
    Scenario {
        seeds: (0..SEEDS)
            .map(|i| seed.wrapping_mul(SEEDS).wrapping_add(i))
            .collect(),
        ..Scenario::paper()
    }
}

/// An [`OutcomeCache`] that never hits and keeps every stored outcome: it
/// lets the first figure hand back the per-cell outcomes `fig6::run`
/// otherwise only summarises.
#[derive(Default)]
struct Capture {
    outcomes: Mutex<HashMap<Fingerprint, SimOutcome>>,
    stats: StatsCounters,
}

impl OutcomeCache for Capture {
    fn lookup(&self, _fingerprint: Fingerprint) -> Option<SimOutcome> {
        self.stats.note_lookup(false);
        None
    }

    fn store(&self, fingerprint: Fingerprint, outcome: &SimOutcome) {
        self.outcomes
            .lock()
            .expect("capture poisoned")
            .insert(fingerprint, outcome.clone());
        self.stats.note_store();
    }

    fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }
}

/// The cells of one figure in `fig6::run` order: line-up major, seeds in
/// scenario order.
fn cells(scenario: &Scenario) -> Vec<(SchedulerKind, u64)> {
    SchedulerKind::paper_comparison()
        .into_iter()
        .flat_map(|kind| scenario.seeds.iter().map(move |&seed| (kind, seed)))
        .collect()
}

/// One traced figure: the cells' outcomes in `fig6::run` order, and their
/// layers plus `experiments.self_ns`, the fan-out's idle and hand-off time.
/// The layers' times sum to wall time × worker threads.
fn traced_figure(scenario: &Scenario) -> Result<(Vec<SimOutcome>, Layers), String> {
    let mut layers = Layers::default();
    let mut outcomes = Vec::new();
    let mut thread_ns = 0.0;
    let start = Instant::now();
    // Same shape as `fig6::run`: schedulers in turn, each fanning its seeds
    // out over the worker pool.
    for kind in SchedulerKind::paper_comparison() {
        let threads = worker_threads(scenario.seeds.len());
        let kind_start = Instant::now();
        let results = par_map(&scenario.seeds, |_, &seed| traced(scenario, kind, seed));
        thread_ns += ns_since(kind_start) as f64 * threads as f64;
        layers.set("experiments.threads", threads as f64);
        for result in results {
            let (outcome, cell, busy) = result?;
            layers.merge(&cell);
            layers.add("experiments.cell_busy_ns", busy);
            layers.add("experiments.cells", 1.0);
            outcomes.push(outcome);
        }
    }
    let wall = ns_since(start) as f64;
    let busy = layers.get("experiments.cell_busy_ns");
    layers.set("experiments.self_ns", thread_ns - busy);
    layers.set("experiments.fanout_efficiency", busy / thread_ns);
    layers.set("trace.wall_ns", wall);
    Ok((outcomes, layers))
}

/// Runs `paper_fig6`; see the module docs.
pub fn run(args: &Args, report: &mut Report) {
    let scenario = scenario(args.seed);
    let cells = cells(&scenario);
    let jobs_per_figure = (scenario.profile.num_jobs * cells.len()) as f64;

    // Warm-up figure, untimed: the captured outcomes are the reference every
    // later figure, traced or not, must reproduce.
    let capture = Arc::new(Capture::default());
    install_global_cache(capture.clone());
    let reference: Fig6Result = fig6::run(&scenario);
    clear_global_cache();
    let captured = std::mem::take(&mut *capture.outcomes.lock().expect("capture poisoned"));
    let mut outcomes = Vec::new();
    for &(kind, seed) in &cells {
        match captured.get(&cell_fingerprint(kind, &scenario, seed)) {
            Some(outcome) => outcomes.push(outcome.clone()),
            None => {
                report.op(Some(format!(
                    "{} seed {seed}: no outcome captured",
                    kind.label()
                )));
                return;
            }
        }
    }
    for (outcome, &(kind, seed)) in outcomes.iter().zip(&cells) {
        report.check(outcome.records().len() == scenario.profile.num_jobs, || {
            format!(
                "{} seed {seed}: {} of {} jobs completed",
                kind.label(),
                outcome.records().len(),
                scenario.profile.num_jobs
            )
        });
    }

    let (mut setups, mut rates, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_layers = Layers::default();
    let mut figures = 0usize;
    let mut peak_rss = Err("no pass completed".to_string());
    let start = Instant::now();
    while figures == 0 || start.elapsed() < args.seconds {
        for &seed in &scenario.seeds {
            let setup_start = Instant::now();
            std::hint::black_box(scenario.job_source(seed));
            setups.push(ns_since(setup_start) as f64 / 1e9);
        }
        let figure_start = Instant::now();
        let result = fig6::run(&scenario);
        let wall = ns_since(figure_start) as f64;
        report.check(result == reference, || {
            "a figure differs from the first figure of the run".into()
        });
        rates.push(jobs_per_figure / (wall / 1e9));
        latencies.push(wall / 1e6);
        if args.trace {
            match traced_figure(&scenario) {
                Ok((traced_outcomes, layers)) => {
                    report.check(traced_outcomes == outcomes, || {
                        "traced figure's outcomes differ from the untraced ones".into()
                    });
                    traced_layers.merge(&layers);
                }
                Err(problem) => report.op(Some(problem)),
            }
        }
        if figures == 0 {
            // Later passes repeat the same allocations; reading the peak
            // after the first keeps it independent of how many fit in the run.
            peak_rss = peak_rss_mb("self");
        }
        figures += 1;
    }

    let lineup = SchedulerKind::paper_comparison();
    let per_kind: Vec<&[SimOutcome]> = outcomes.chunks(scenario.seeds.len()).collect();
    let averaged: Vec<FlowtimeSummary> = lineup
        .iter()
        .zip(&per_kind)
        .map(|(&kind, outcomes)| average_summary(kind, outcomes))
        .collect();
    report.check(averaged == reference.summaries, || {
        "fig6::run summaries differ from the per-cell outcomes".into()
    });
    let all: Vec<&SimOutcome> = outcomes.iter().collect();
    let mut regime = Layers::default();
    add_regime(&mut regime, &all, &[]);
    report.note(format!(
        "{} cells of {} jobs on {} machines per figure; SRPTMS+C vs Mantri: {:.1} % lower mean, \
         {:.1} % lower weighted mean flowtime",
        cells.len(),
        scenario.profile.num_jobs,
        scenario.machines,
        reference.improvement_over_mantri.unwrap_or(f64::NAN) * 100.0,
        reference
            .weighted_improvement_over_mantri
            .unwrap_or(f64::NAN)
            * 100.0,
    ));

    if args.trace {
        let untraced_wall = latencies.iter().sum::<f64>() * 1e6 / figures as f64;
        report.traced(traced_layers, &regime, untraced_wall, figures);
        return;
    }

    report.speed(&rates, &latencies, 1, &setups, peak_rss);
    let srptmsc: Vec<&SimOutcome> = per_kind[0].iter().collect();
    report.flowtimes(
        args.seed,
        flowtimes(&srptmsc),
        PINNED,
        srptmsc.len(),
        srptmsc.len() * scenario.profile.num_jobs,
    );
}
