//! A miniature benchmark harness with a Criterion-flavoured surface.
//!
//! The benches under `crates/bench` were written against Criterion's API;
//! with no crates.io access this module supplies the subset they use:
//! [`Criterion`], benchmark groups, [`BenchmarkId`], `Bencher::iter`, and the
//! [`criterion_group!`](crate::criterion_group)/[`criterion_main!`](crate::criterion_main) macros. Each benchmark runs a
//! short warm-up followed by `sample_size` timed iterations and prints
//! `name … mean [min .. max]`. Results are retained on the [`Criterion`]
//! value so benches can export them (e.g. `BENCH_engine.json`).

use std::fmt::Display;
use std::time::Instant;

/// Measured statistics of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Full benchmark id (`group/parameter` or the bare function name).
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest observed iteration.
    pub min_ns: f64,
    /// Slowest observed iteration.
    pub max_ns: f64,
    /// Number of timed iterations.
    pub samples: usize,
}

/// The benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    results: Vec<BenchResult>,
}

/// Sample-count override from the `MAPREDUCE_BENCH_SAMPLES` environment
/// variable, if set and parseable. It wins over both the default and any
/// explicit [`Criterion::sample_size`] call, so CI can run every bench in a
/// fast smoke mode (`MAPREDUCE_BENCH_SAMPLES=1`) without touching the bench
/// sources.
pub fn env_sample_override() -> Option<usize> {
    std::env::var("MAPREDUCE_BENCH_SAMPLES")
        .ok()?
        .parse::<usize>()
        .ok()
        .map(|n| n.max(1))
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: env_sample_override().unwrap_or(10),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the number of timed iterations per benchmark
    /// (`MAPREDUCE_BENCH_SAMPLES`, when set, overrides this).
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = env_sample_override().unwrap_or_else(|| n.max(1));
        self
    }

    /// Runs a single benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let result = run_bench(id, self.sample_size, &mut f);
        self.results.push(result);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }

    /// Every result measured so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// A group of related benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one parameterised benchmark of the group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.parameter);
        let sample_size = self.criterion.sample_size;
        let result = run_bench(&full, sample_size, &mut |b: &mut Bencher| f(b, input));
        self.criterion.results.push(result);
        self
    }

    /// Closes the group (kept for API parity; nothing to flush).
    pub fn finish(self) {}
}

/// Identifier of one parameterised benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    parameter: String,
}

impl BenchmarkId {
    /// Builds an id from the parameter's `Display` form.
    pub fn from_parameter<D: Display>(parameter: D) -> Self {
        BenchmarkId {
            parameter: parameter.to_string(),
        }
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the code to
/// measure.
#[derive(Debug, Default)]
pub struct Bencher {
    samples_ns: Vec<f64>,
    rounds: usize,
}

/// Whether the untimed warm-up iteration runs. `MAPREDUCE_BENCH_WARMUP=0`
/// (or `false`) skips it — at tiers where one iteration takes tens of
/// minutes (`stream10m`), the warm-up doubles the cost of a run whose
/// single sample is already its own population.
pub fn env_warmup_enabled() -> bool {
    std::env::var("MAPREDUCE_BENCH_WARMUP")
        .map(|v| v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(true)
}

impl Bencher {
    /// Times `f`, once per configured sample after one untimed warm-up
    /// (skippable via `MAPREDUCE_BENCH_WARMUP=0`).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up iteration (untimed): page in code and data.
        if env_warmup_enabled() {
            std::hint::black_box(f());
        }
        for _ in 0..self.rounds {
            let start = Instant::now();
            std::hint::black_box(f());
            self.samples_ns.push(start.elapsed().as_nanos() as f64);
        }
    }

    /// Times `routine` on a fresh input from `setup`, once per configured
    /// sample after one untimed warm-up. Only `routine` is timed: neither
    /// building its input nor dropping its output is.
    pub fn iter_with_setup<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if env_warmup_enabled() {
            std::hint::black_box(routine(setup()));
        }
        for _ in 0..self.rounds {
            let input = setup();
            let start = Instant::now();
            let output = std::hint::black_box(routine(input));
            self.samples_ns.push(start.elapsed().as_nanos() as f64);
            drop(output);
        }
    }
}

fn run_bench(id: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) -> BenchResult {
    let mut bencher = Bencher {
        samples_ns: Vec::with_capacity(sample_size),
        rounds: sample_size,
    };
    f(&mut bencher);
    let samples = &bencher.samples_ns;
    let (mean, min, max) = if samples.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0f64, f64::max);
        (mean, min, max)
    };
    println!(
        "bench {:<48} {:>12} [{} .. {}] ({} samples)",
        id,
        human_time(mean),
        human_time(min),
        human_time(max),
        samples.len()
    );
    BenchResult {
        id: id.to_string(),
        mean_ns: mean,
        min_ns: min,
        max_ns: max,
        samples: samples.len(),
    }
}

/// Formats nanoseconds with an adaptive unit.
pub fn human_time(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Declares a benchmark group function, Criterion-style.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::criterion::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary's `main`, Criterion-style. Arguments passed
/// by `cargo bench` (e.g. `--bench`) are ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_a_result() {
        let mut c = Criterion::default().sample_size(3);
        c.bench_function("smoke", |b| b.iter(|| 1 + 1));
        assert_eq!(c.results().len(), 1);
        let r = &c.results()[0];
        assert_eq!(r.id, "smoke");
        assert_eq!(r.samples, 3);
        assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);
    }

    #[test]
    fn iter_with_setup_builds_one_input_per_run() {
        let mut c = Criterion::default().sample_size(4);
        let mut setups = 0;
        c.bench_function("setup", |b| {
            b.iter_with_setup(
                || {
                    setups += 1;
                    vec![1u64; 8]
                },
                |v| v.iter().sum::<u64>(),
            )
        });
        let samples = c.results()[0].samples;
        assert_eq!(setups, samples + usize::from(env_warmup_enabled()));
    }

    #[test]
    fn groups_prefix_the_id() {
        let mut c = Criterion::default().sample_size(2);
        let mut group = c.benchmark_group("g");
        group.bench_with_input(BenchmarkId::from_parameter(0.5), &0.5, |b, &x| {
            b.iter(|| x * 2.0)
        });
        group.finish();
        assert_eq!(c.results()[0].id, "g/0.5");
    }

    #[test]
    fn human_time_units() {
        assert!(human_time(500.0).ends_with("ns"));
        assert!(human_time(5_000.0).contains("µs"));
        assert!(human_time(5_000_000.0).contains("ms"));
        assert!(human_time(5e9).ends_with(" s"));
    }
}
