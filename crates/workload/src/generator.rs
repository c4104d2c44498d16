//! Generic, fully-parameterised workload generation.
//!
//! [`crate::google`] produces the paper's evaluation workload; this module is
//! the general-purpose counterpart used by unit tests, property tests and
//! ablation experiments: you pick an arrival process, a job-size model and a
//! duration distribution, and get a reproducible [`Trace`].

use crate::distribution::DurationDistribution;
use crate::ids::JobId;
use crate::job::{JobSpecBuilder, PhaseStats};
use crate::trace::Trace;
use mapreduce_support::rng::{Rng, SimRng};

/// How job arrival times are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Every job arrives at time 0 (the offline / bulk-arrival setting of
    /// Section IV).
    Bulk,
    /// Poisson arrivals with the given mean inter-arrival time (in slots).
    Poisson {
        /// Mean inter-arrival time between consecutive jobs, in slots.
        mean_interarrival: f64,
    },
    /// Arrival times drawn uniformly at random in `[0, window]`.
    UniformWindow {
        /// Length of the arrival window in slots.
        window: u64,
    },
    /// Deterministic arrivals every `interval` slots (job `k` arrives at
    /// `k · interval`).
    Periodic {
        /// Spacing between consecutive arrivals, in slots.
        interval: u64,
    },
}

impl ArrivalProcess {
    fn arrival(&self, index: usize, prev: u64, rng: &mut SimRng) -> u64 {
        match *self {
            ArrivalProcess::Bulk => 0,
            ArrivalProcess::Poisson { mean_interarrival } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let gap = (-mean_interarrival * u.ln()).round() as u64;
                prev + gap
            }
            ArrivalProcess::UniformWindow { window } => {
                if window == 0 {
                    0
                } else {
                    rng.gen_range(0..=window)
                }
            }
            ArrivalProcess::Periodic { interval } => index as u64 * interval,
        }
    }
}

/// Builder producing synthetic traces with explicitly chosen characteristics.
///
/// ```
/// use mapreduce_workload::{ArrivalProcess, DurationDistribution, WorkloadBuilder};
///
/// let trace = WorkloadBuilder::new()
///     .num_jobs(20)
///     .arrivals(ArrivalProcess::Poisson { mean_interarrival: 30.0 })
///     .map_tasks_per_job(4, 10)
///     .reduce_tasks_per_job(1, 3)
///     .map_duration(DurationDistribution::Exponential { mean: 50.0 })
///     .reduce_duration(DurationDistribution::Exponential { mean: 80.0 })
///     .build(123);
/// assert_eq!(trace.len(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    num_jobs: usize,
    arrivals: ArrivalProcess,
    map_tasks_range: (usize, usize),
    reduce_tasks_range: (usize, usize),
    map_duration: DurationDistribution,
    reduce_duration: DurationDistribution,
    weight_choices: Vec<f64>,
}

impl WorkloadBuilder {
    /// Starts a builder with small defaults (10 jobs, bulk arrivals, 2–5 map
    /// tasks and 1–2 reduce tasks per job, exponential durations).
    pub fn new() -> Self {
        WorkloadBuilder {
            num_jobs: 10,
            arrivals: ArrivalProcess::Bulk,
            map_tasks_range: (2, 5),
            reduce_tasks_range: (1, 2),
            map_duration: DurationDistribution::Exponential { mean: 50.0 },
            reduce_duration: DurationDistribution::Exponential { mean: 80.0 },
            weight_choices: vec![1.0],
        }
    }

    /// Sets the number of jobs.
    pub fn num_jobs(mut self, n: usize) -> Self {
        self.num_jobs = n;
        self
    }

    /// Sets the arrival process.
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the inclusive range of map tasks per job.
    pub fn map_tasks_per_job(mut self, min: usize, max: usize) -> Self {
        assert!(
            min >= 1 && max >= min,
            "invalid map task range [{min}, {max}]"
        );
        self.map_tasks_range = (min, max);
        self
    }

    /// Sets the inclusive range of reduce tasks per job (0 allowed).
    pub fn reduce_tasks_per_job(mut self, min: usize, max: usize) -> Self {
        assert!(max >= min, "invalid reduce task range [{min}, {max}]");
        self.reduce_tasks_range = (min, max);
        self
    }

    /// Sets the map-task duration distribution.
    pub fn map_duration(mut self, dist: DurationDistribution) -> Self {
        self.map_duration = dist;
        self
    }

    /// Sets the reduce-task duration distribution.
    pub fn reduce_duration(mut self, dist: DurationDistribution) -> Self {
        self.reduce_duration = dist;
        self
    }

    /// Sets the set of job weights to sample from (uniformly).
    pub fn weights(mut self, choices: &[f64]) -> Self {
        assert!(!choices.is_empty(), "weight choices must not be empty");
        assert!(choices.iter().all(|w| *w > 0.0), "weights must be positive");
        self.weight_choices = choices.to_vec();
        self
    }

    /// Generates the trace with the given seed. Deterministic per seed.
    pub fn build(&self, seed: u64) -> Trace {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut jobs = Vec::with_capacity(self.num_jobs);
        let mut prev_arrival = 0u64;
        for idx in 0..self.num_jobs {
            let arrival = self.arrivals.arrival(idx, prev_arrival, &mut rng);
            prev_arrival = arrival;
            let n_map = rng.gen_range(self.map_tasks_range.0..=self.map_tasks_range.1);
            let n_reduce = rng.gen_range(self.reduce_tasks_range.0..=self.reduce_tasks_range.1);
            let map_workloads = self.map_duration.sample_n(&mut rng, n_map);
            let reduce_workloads = self.reduce_duration.sample_n(&mut rng, n_reduce);
            let weight = self.weight_choices[rng.gen_range(0..self.weight_choices.len())];

            let mut b = JobSpecBuilder::new(JobId::new(idx as u64))
                .arrival(arrival)
                .weight(weight)
                .map_tasks_from_workloads(&map_workloads)
                .map_stats(PhaseStats::new(
                    self.map_duration.mean(),
                    finite_or(self.map_duration.std_dev(), self.map_duration.mean()),
                ))
                .map_distribution(self.map_duration.clone());
            if n_reduce > 0 {
                b = b
                    .reduce_tasks_from_workloads(&reduce_workloads)
                    .reduce_stats(PhaseStats::new(
                        self.reduce_duration.mean(),
                        finite_or(self.reduce_duration.std_dev(), self.reduce_duration.mean()),
                    ))
                    .reduce_distribution(self.reduce_duration.clone());
            }
            jobs.push(b.build());
        }
        Trace::new(jobs).expect("generated jobs are valid by construction")
    }
}

impl Default for WorkloadBuilder {
    fn default() -> Self {
        Self::new()
    }
}

fn finite_or(value: f64, fallback: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_produces_valid_trace() {
        let trace = WorkloadBuilder::new().build(1);
        assert_eq!(trace.len(), 10);
        for job in trace.iter() {
            assert!(job.validate().is_ok());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let b = WorkloadBuilder::new().num_jobs(25);
        assert_eq!(b.build(5), b.build(5));
        assert_ne!(b.build(5), b.build(6));
    }

    #[test]
    fn bulk_arrivals_all_zero() {
        let trace = WorkloadBuilder::new()
            .arrivals(ArrivalProcess::Bulk)
            .num_jobs(15)
            .build(2);
        assert!(trace.iter().all(|j| j.arrival == 0));
    }

    #[test]
    fn poisson_arrivals_are_nondecreasing() {
        let trace = WorkloadBuilder::new()
            .num_jobs(50)
            .arrivals(ArrivalProcess::Poisson {
                mean_interarrival: 10.0,
            })
            .build(3);
        let arrivals: Vec<u64> = trace.iter().map(|j| j.arrival).collect();
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        assert_eq!(arrivals, sorted);
        assert!(*arrivals.last().unwrap() > 0);
    }

    #[test]
    fn periodic_arrivals_spacing() {
        let trace = WorkloadBuilder::new()
            .num_jobs(5)
            .arrivals(ArrivalProcess::Periodic { interval: 100 })
            .build(4);
        let arrivals: Vec<u64> = trace.iter().map(|j| j.arrival).collect();
        assert_eq!(arrivals, vec![0, 100, 200, 300, 400]);
    }

    #[test]
    fn uniform_window_respects_bounds() {
        let trace = WorkloadBuilder::new()
            .num_jobs(100)
            .arrivals(ArrivalProcess::UniformWindow { window: 500 })
            .build(5);
        assert!(trace.iter().all(|j| j.arrival <= 500));
    }

    #[test]
    fn task_count_ranges_are_respected() {
        let trace = WorkloadBuilder::new()
            .num_jobs(60)
            .map_tasks_per_job(3, 7)
            .reduce_tasks_per_job(0, 2)
            .build(6);
        for job in trace.iter() {
            assert!((3..=7).contains(&job.num_map_tasks()));
            assert!(job.num_reduce_tasks() <= 2);
        }
    }

    #[test]
    fn weights_come_from_choices() {
        let trace = WorkloadBuilder::new()
            .num_jobs(40)
            .weights(&[1.0, 5.0, 12.0])
            .build(7);
        for job in trace.iter() {
            assert!([1.0, 5.0, 12.0].contains(&job.weight));
        }
    }

    #[test]
    #[should_panic(expected = "invalid map task range")]
    fn rejects_zero_map_tasks() {
        WorkloadBuilder::new().map_tasks_per_job(0, 3);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn rejects_non_positive_weights() {
        WorkloadBuilder::new().weights(&[0.0]);
    }
}
