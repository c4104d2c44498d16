//! `reproduce` — regenerates every table and figure of the paper from the
//! command line.
//!
//! ```text
//! reproduce [EXPERIMENT] [--scale full|<num_jobs>] [--seeds N]
//!           [--trace-out FILE]
//!
//! EXPERIMENT: all (default) | table2 | fig1 | fig2 | fig3 | fig4 | fig5 |
//!             fig6 | fig7 | theorem1 | ablation
//! --scale     "full" runs the paper-scale scenario (6 064 jobs, 12 000
//!             machines, slow); a number runs a scaled-down scenario with
//!             that many jobs (default 600).
//! --seeds     number of repetitions to average over (default 3 at reduced
//!             scale, 10 at full scale).
//! --trace-out additionally re-runs one representative cell (the paper
//!             scheduler on the scenario's first seed) with the telemetry
//!             observers attached, asserts the observed run is bit-identical
//!             to the unobserved one, self-validates the exported trace
//!             against the metrics registry, and writes Chrome-trace JSON to
//!             FILE (load it at ui.perfetto.dev or chrome://tracing).
//! ```

use mapreduce_experiments::Scenario;
use mapreduce_experiments::{ablation, fig1, fig2, fig3, fig4, fig5, fig6, fig7, table2, theorem1};
use mapreduce_experiments::{run_cell, run_cell_traced, SchedulerKind};
use mapreduce_metrics::validate_trace;

/// Default event cap for `--trace-out`: generous for reduced-scale scenarios
/// (a 600-job cell emits tens of thousands of spans) while keeping the
/// exported JSON bounded at paper scale — overflow is counted, not silent.
const TRACE_EVENT_CAP: usize = 250_000;

/// Runs the representative cell twice — once bare, once with the telemetry
/// observers attached — asserts the runs are bit-identical, self-validates
/// the exported trace against the independently folded registry, and writes
/// the Chrome-trace JSON. Any mismatch is a hard failure (exit 1): this
/// doubles as the CI smoke for the observer seam.
fn export_trace(scenario: &Scenario, path: &str) {
    let kind = SchedulerKind::paper_default();
    let seed = scenario.seeds.first().copied().unwrap_or(2015);
    let baseline = run_cell(kind, scenario, seed);
    let (outcome, registry, recorder) = run_cell_traced(kind, scenario, seed, TRACE_EVENT_CAP);
    if outcome != baseline
        || outcome.telemetry.decision_instants != baseline.telemetry.decision_instants
        || outcome.telemetry.ranked_prefix_len_max != baseline.telemetry.ranked_prefix_len_max
    {
        eprintln!("--trace-out: observed run diverged from the unobserved run");
        std::process::exit(1);
    }
    let text = recorder.to_json().to_compact_string();
    if let Err(err) = validate_trace(&text, &registry) {
        eprintln!("--trace-out: trace failed self-validation: {err}");
        std::process::exit(1);
    }
    if let Err(err) = std::fs::write(path, &text) {
        eprintln!("--trace-out: cannot write {path}: {err}");
        std::process::exit(1);
    }
    println!(
        "# Trace export: {} events ({} dropped at cap {}) from one traced cell \
         (seed {seed}) written to {path} — observed run bit-identical, \
         trace validated against the registry.",
        recorder.retained(),
        recorder.dropped(),
        TRACE_EVENT_CAP,
    );
}

struct Options {
    experiment: String,
    scale: Option<usize>,
    full: bool,
    seeds: Option<usize>,
    trace_out: Option<String>,
}

fn parse_args() -> Options {
    let mut options = Options {
        experiment: "all".to_string(),
        scale: None,
        full: false,
        seeds: None,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("--scale needs a value (\"full\" or a number of jobs)");
                    std::process::exit(2);
                });
                if value == "full" {
                    options.full = true;
                } else {
                    options.scale = Some(value.parse().unwrap_or_else(|_| {
                        eprintln!("invalid --scale value: {value}");
                        std::process::exit(2);
                    }));
                }
            }
            "--seeds" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("--seeds needs a number");
                    std::process::exit(2);
                });
                let seeds: usize = value.parse().unwrap_or_else(|_| {
                    eprintln!("invalid --seeds value: {value}");
                    std::process::exit(2);
                });
                if seeds == 0 {
                    eprintln!("--seeds must be at least 1");
                    std::process::exit(2);
                }
                options.seeds = Some(seeds);
            }
            "--trace-out" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out needs a file path");
                    std::process::exit(2);
                });
                options.trace_out = Some(value);
            }
            "--help" | "-h" => {
                println!(
                    "usage: reproduce [all|table2|fig1|fig2|fig3|fig4|fig5|fig6|fig7|theorem1|ablation] \
                     [--scale full|<num_jobs>] [--seeds N] [--trace-out FILE]"
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => options.experiment = other.to_string(),
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    options
}

fn scenario_for(options: &Options) -> Scenario {
    let mut scenario = if options.full {
        Scenario::paper()
    } else {
        Scenario::scaled(options.scale.unwrap_or(600), 3)
    };
    if let Some(seeds) = options.seeds {
        scenario.seeds = (0..seeds as u64).map(|i| 2015 + i).collect();
    }
    scenario
}

fn main() {
    let options = parse_args();
    let known = [
        "all", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "theorem1",
        "ablation",
    ];
    if !known.contains(&options.experiment.as_str()) {
        eprintln!("unknown experiment: {}", options.experiment);
        std::process::exit(2);
    }
    let scenario = scenario_for(&options);
    println!(
        "# Reproduction scenario: {} jobs, {} machines, {} seed(s)\n",
        scenario.profile.num_jobs,
        scenario.machines,
        scenario.seeds.len()
    );

    // Figures share cells — Fig. 4 and Fig. 5 run the identical comparison
    // sweep and only bucket the records differently — so an in-process
    // result cache makes an `all` run simulate each cell exactly once.
    // (Persistent cross-run caching is the experiment service's job:
    // `mapreduce-server`'s `serve` binary.)
    mapreduce_experiments::install_global_cache(std::sync::Arc::new(
        mapreduce_experiments::MemoryCache::new(),
    ));

    let experiment = options.experiment.as_str();
    let run_all = experiment == "all";

    if run_all || experiment == "table2" {
        println!("{}", table2::render(&table2::run(&scenario)));
    }
    if run_all || experiment == "fig1" {
        let rows = fig1::run(&scenario, &fig1::paper_epsilons());
        println!("{}", fig1::render(&rows));
        if let Some(best) = fig1::best_epsilon(&rows) {
            println!("best epsilon (paper: 0.6): {best:.1}\n");
        }
    }
    if run_all || experiment == "fig2" {
        let rows = fig2::run(&scenario, &fig2::paper_rs());
        println!("{}", fig2::render(&rows));
        println!(
            "relative spread across r (paper: small): {:.1} %\n",
            fig2::relative_spread(&rows) * 100.0
        );
    }
    if run_all || experiment == "fig3" {
        let rows = fig3::run(&scenario, &fig3::paper_fractions());
        println!("{}", fig3::render(&rows));
    }
    if run_all || experiment == "fig4" {
        println!(
            "{}",
            fig4::render(
                &fig4::run(&scenario),
                "Fig. 4 — cumulative fraction of jobs vs flowtime (0–300 s window)"
            )
        );
    }
    if run_all || experiment == "fig5" {
        println!("{}", fig5::render(&fig5::run(&scenario)));
    }
    if run_all || experiment == "fig6" {
        let result = fig6::run(&scenario);
        println!("{}", fig6::render(&result));
    }
    if run_all || experiment == "fig7" {
        let result = fig7::run(&scenario);
        println!("{}", fig7::render(&result));
    }
    if run_all || experiment == "theorem1" {
        println!("{}", theorem1::render(&theorem1::run(&scenario, 0.0, true)));
        println!(
            "{}",
            theorem1::render(&theorem1::run(&scenario, 3.0, false))
        );
    }
    if run_all || experiment == "ablation" {
        println!("{}", ablation::render(&ablation::run(&scenario)));
    }
    if let Some(path) = &options.trace_out {
        export_trace(&scenario, path);
    }
}
