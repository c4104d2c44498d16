//! The repository benchmark: four workloads over the simulator's public
//! API, end-to-end metrics with a correctness gate, and a traced mode that
//! splits wall time by crate. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_fifo --seed 2015 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it print
//! every metric with its unit and sample count. Any failed check makes the
//! exit status non-zero.

mod fig6;
mod serve;
mod stats;
mod stream;
mod timed;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("jobs_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("mean_flowtime_s", "s"),
    ("weighted_mean_flowtime_s", "s"),
    ("flowtime_p99_s", "s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("workload.next_job_ns", "ns"),
    ("workload.jobs", "count"),
    ("workload.generate_ns", "ns"),
    ("core.schedule_ns", "ns"),
    ("core.schedule_calls", "count"),
    ("core.actions", "count"),
    ("core.hook_ns", "ns"),
    ("baselines.fifo.schedule_ns", "ns"),
    ("baselines.fifo.schedule_calls", "count"),
    ("baselines.fifo.hook_ns", "ns"),
    ("baselines.sca.schedule_ns", "ns"),
    ("baselines.sca.schedule_calls", "count"),
    ("baselines.sca.hook_ns", "ns"),
    ("baselines.mantri.schedule_ns", "ns"),
    ("baselines.mantri.schedule_calls", "count"),
    ("baselines.mantri.hook_ns", "ns"),
    ("sim.self_ns", "ns"),
    ("sim.decision_instants", "count"),
    ("sim.copies_launched", "count"),
    ("sim.copies_per_task", "ratio"),
    ("sim.utilization", "frac"),
    ("sim.offered_load", "frac"),
    ("sim.peak_resident_jobs", "count"),
    ("sim.peak_copy_slots", "count"),
    ("metrics.summary_ns", "ns"),
    ("experiments.cells", "count"),
    ("experiments.cell_busy_ns", "ns"),
    ("experiments.self_ns", "ns"),
    ("experiments.threads", "count"),
    ("experiments.fanout_efficiency", "frac"),
    ("server.cache_load_ns", "ns"),
    ("server.cache_entries", "count"),
    ("server.cache_file_mb", "MB"),
    ("server.submit_hit_ns", "ns"),
    ("server.submit_miss_ns", "ns"),
    ("server.hit_requests", "count"),
    ("server.miss_requests", "count"),
    ("server.cells_simulated", "count"),
    ("server.cache_hit_frac", "frac"),
    ("server.store_bytes", "bytes"),
    ("server.req_p50_ms", "ms"),
    ("server.req_p99_ms", "ms"),
    ("support.json_parse_ns", "ns"),
    ("support.json_encode_ns", "ns"),
    ("trace.wall_ns", "ns"),
    ("trace.untraced_wall_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// The seed whose flowtimes each workload pins exactly.
pub const DEFAULT_SEED: u64 = 2015;

/// The workloads, in the order `--workload` accepts them.
const WORKLOADS: [&str; 4] = ["stream_srptmsc", "stream_fifo", "paper_fig6", "serve_mix"];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measured duration of the run.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("bad {flag} value {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `name → (value, samples)`.
    metrics: BTreeMap<&'static str, (f64, usize)>,
    notes: Vec<String>,
}

impl Report {
    /// Records one checked operation; it failed if `problem` is `Some`.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    /// Records one check that holds when `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.op((!ok).then(problem));
    }

    /// Records a metric taken over `samples` samples.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples));
    }

    /// Records the speed metrics: `jobs_per_s` as the median of per-pass
    /// job rates, `req_per_s` as the median rate over windows of `window`
    /// requests, the median latency, the median set-up time and the peak
    /// RSS.
    pub fn speed(
        &mut self,
        job_rates: &[f64],
        latencies_ms: &[f64],
        window: usize,
        setups_s: &[f64],
        peak_rss_mb: Result<f64, String>,
    ) {
        let rates = stats::windowed_rates(latencies_ms, window);
        self.metric("jobs_per_s", stats::median(job_rates), job_rates.len());
        self.metric("req_per_s", stats::median(&rates), rates.len());
        self.metric(
            "req_p50_ms",
            stats::median(latencies_ms),
            latencies_ms.len(),
        );
        self.metric("setup_s", stats::median(setups_s), setups_s.len());
        match peak_rss_mb {
            Ok(mb) => self.metric("peak_rss_mb", mb, 1),
            Err(problem) => self.op(Some(problem)),
        }
    }

    /// Records the flowtime metrics (`runs` runs, `jobs` jobs in all) and,
    /// at the default seed, checks them against the pinned values.
    pub fn flowtimes(
        &mut self,
        seed: u64,
        got: [Option<f64>; 3],
        pinned: [f64; 3],
        runs: usize,
        jobs: usize,
    ) {
        let [mean, weighted_mean, p99] = got;
        self.check(p99.is_some(), || "too few jobs for a flowtime p99".into());
        if seed == DEFAULT_SEED {
            let got = got.map(|v| v.unwrap_or(f64::NAN));
            self.check(got == pinned, || {
                format!("default-seed flowtimes {got:?} differ from the pinned {pinned:?}")
            });
        }
        for (name, value, samples) in [
            ("mean_flowtime_s", mean, runs),
            ("weighted_mean_flowtime_s", weighted_mean, runs),
            ("flowtime_p99_s", p99, jobs),
        ] {
            if let Some(value) = value {
                self.metric(name, value, samples);
            }
        }
    }

    /// Records a traced run: `totals` are summed over `passes` passes and
    /// reported per pass, with the run's engine counters from `regime` and
    /// the untraced wall time of one pass. Every per-layer metric is
    /// recorded; a layer the workload does not exercise reads 0.
    pub fn traced(
        &mut self,
        mut totals: timed::Layers,
        regime: &timed::Layers,
        untraced_wall_ns: f64,
        passes: usize,
    ) {
        totals.scale(passes as f64);
        totals.merge(regime);
        totals.set("trace.untraced_wall_ns", untraced_wall_ns);
        let ratio = totals.get("trace.wall_ns") / untraced_wall_ns;
        totals.set("trace.overhead_ratio", ratio);
        for (name, _) in PER_LAYER {
            self.metric(name, totals.get(name), passes);
        }
    }

    /// Adds a line of context to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the report and returns whether every check passed.
    fn print(mut self, names: &[(&'static str, &'static str)]) -> bool {
        for &(name, _) in names {
            let present = self
                .metrics
                .get(name)
                .is_some_and(|&(value, _)| value.is_finite());
            self.check(present, || format!("metric {name} was not measured"));
        }
        for note in &self.notes {
            println!("# {note}");
        }
        for problem in &self.problems {
            eprintln!("perfbench: FAILED: {problem}");
            println!("# FAILED: {problem}");
        }
        let mut json = Vec::new();
        for &(name, unit) in names {
            let (value, samples) = self.metrics.get(name).copied().unwrap_or((f64::NAN, 0));
            println!("{name:<34} {value:>20.6} {unit:<6} n={samples}");
            if value.is_finite() {
                json.push(format!(
                    "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
                ));
            }
        }
        let correct = self.failed == 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            json.join(",")
        );
        correct
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "stream_srptmsc" => stream::run(&args, stream::Policy::SrptMsC, &mut report),
        "stream_fifo" => stream::run(&args, stream::Policy::Fifo, &mut report),
        "paper_fig6" => fig6::run(&args, &mut report),
        _ => {
            if let Err(message) = serve::run(&args, &mut report) {
                report.op(Some(message));
            }
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if report.print(names) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
