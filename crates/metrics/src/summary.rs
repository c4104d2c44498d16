//! Flowtime summary statistics.

use crate::Ecdf;
use mapreduce_sim::SimOutcome;
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};

/// A half-open flowtime bucket `[lo, hi)` used to split jobs into the paper's
/// "small" (0–300 s) and "big" (300–4000 s) categories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowtimeBucket {
    /// Inclusive lower edge in slots/seconds.
    pub lo: u64,
    /// Exclusive upper edge in slots/seconds.
    pub hi: u64,
}

impl FlowtimeBucket {
    /// The paper's small-job bucket (Fig. 4): flowtime in `[0, 300)`.
    pub const SMALL_JOBS: FlowtimeBucket = FlowtimeBucket { lo: 0, hi: 300 };
    /// The paper's big-job bucket (Fig. 5): flowtime in `[300, 4000)`.
    pub const BIG_JOBS: FlowtimeBucket = FlowtimeBucket { lo: 300, hi: 4000 };

    /// Whether a flowtime falls inside the bucket.
    pub fn contains(&self, flowtime: u64) -> bool {
        flowtime >= self.lo && flowtime < self.hi
    }
}

/// Summary of the per-job flowtimes of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowtimeSummary {
    /// Name of the scheduler that produced the run.
    pub scheduler: String,
    /// Number of jobs summarised.
    pub jobs: usize,
    /// Unweighted mean flowtime.
    pub mean: f64,
    /// Weighted mean flowtime (`Σ wF / Σ w`).
    pub weighted_mean: f64,
    /// Weighted sum of flowtimes (the paper's objective).
    pub weighted_sum: f64,
    /// Median flowtime.
    pub median: f64,
    /// 95th-percentile flowtime.
    pub p95: f64,
    /// Maximum flowtime.
    pub max: f64,
    /// Mean number of copies launched per task (1.0 = no speculation).
    pub mean_copies_per_task: f64,
}

impl FlowtimeSummary {
    /// Summarises a simulation outcome. The moments are
    /// [`SimOutcome`]'s own; `median`, `p95` and `max` are
    /// [`Ecdf::quantile`] at 0.5, 0.95 and 1 (rank `round((n−1)·q)`).
    /// An outcome with no jobs summarises to zeros.
    pub fn from_outcome(outcome: &SimOutcome) -> Self {
        let cdf = Ecdf::from_outcome(outcome);
        let quantile = |q: f64| cdf.quantile(q).unwrap_or(0.0);
        FlowtimeSummary {
            scheduler: outcome.scheduler.clone(),
            jobs: outcome.records().len(),
            mean: outcome.mean_flowtime(),
            weighted_mean: outcome.weighted_mean_flowtime(),
            weighted_sum: outcome.weighted_sum_flowtime(),
            median: quantile(0.5),
            p95: quantile(0.95),
            max: quantile(1.0),
            mean_copies_per_task: outcome.mean_copies_per_task(),
        }
    }
}

impl ToJson for FlowtimeSummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("scheduler", self.scheduler.to_json()),
            ("jobs", self.jobs.to_json()),
            ("mean", self.mean.to_json()),
            ("weighted_mean", self.weighted_mean.to_json()),
            ("weighted_sum", self.weighted_sum.to_json()),
            ("median", self.median.to_json()),
            ("p95", self.p95.to_json()),
            ("max", self.max.to_json()),
            ("mean_copies_per_task", self.mean_copies_per_task.to_json()),
        ])
    }
}

impl FromJson for FlowtimeSummary {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(FlowtimeSummary {
            scheduler: String::from_json(value.field("scheduler")?)?,
            jobs: usize::from_json(value.field("jobs")?)?,
            mean: f64::from_json(value.field("mean")?)?,
            weighted_mean: f64::from_json(value.field("weighted_mean")?)?,
            weighted_sum: f64::from_json(value.field("weighted_sum")?)?,
            median: f64::from_json(value.field("median")?)?,
            p95: f64::from_json(value.field("p95")?)?,
            max: f64::from_json(value.field("max")?)?,
            mean_copies_per_task: f64::from_json(value.field("mean_copies_per_task")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::JobRecord;
    use mapreduce_workload::JobId;

    fn record(job: u64, weight: f64, flowtime: u64) -> JobRecord {
        JobRecord {
            job: JobId::new(job),
            weight,
            arrival: 0,
            completion: flowtime,
            num_map_tasks: 1,
            num_reduce_tasks: 1,
            copies_launched: 2,
            true_workload: 10.0,
        }
    }

    /// An outcome over `records` with 2 copies per 2-task job, so one copy
    /// per task.
    fn outcome(records: Vec<JobRecord>) -> SimOutcome {
        let copies = 2 * records.len();
        SimOutcome::new("x".into(), 4, records, 500, 100, copies, 10, 3, 3)
    }

    #[test]
    fn summary_of_known_records() {
        let s = FlowtimeSummary::from_outcome(&outcome(vec![
            record(0, 1.0, 100),
            record(1, 3.0, 200),
            record(2, 1.0, 300),
        ]));
        assert_eq!(s.scheduler, "x");
        assert_eq!(s.jobs, 3);
        assert!((s.mean - 200.0).abs() < 1e-12);
        // Weighted mean: (100 + 600 + 300) / 5 = 200.
        assert!((s.weighted_mean - 200.0).abs() < 1e-12);
        assert!((s.weighted_sum - 1000.0).abs() < 1e-12);
        assert_eq!(s.median, 200.0);
        assert_eq!(s.max, 300.0);
        assert_eq!(s.mean_copies_per_task, 1.0);
    }

    #[test]
    fn empty_records_are_safe() {
        let s = FlowtimeSummary::from_outcome(&outcome(Vec::new()));
        assert_eq!(s.jobs, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.weighted_mean, 0.0);
        assert_eq!(s.weighted_sum, 0.0);
        assert_eq!(s.median, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn buckets_partition_small_and_big_jobs() {
        assert!(FlowtimeBucket::SMALL_JOBS.contains(0));
        assert!(FlowtimeBucket::SMALL_JOBS.contains(299));
        assert!(!FlowtimeBucket::SMALL_JOBS.contains(300));
        assert!(FlowtimeBucket::BIG_JOBS.contains(300));
        assert!(FlowtimeBucket::BIG_JOBS.contains(3999));
        assert!(!FlowtimeBucket::BIG_JOBS.contains(4000));
    }

    #[test]
    fn summary_json_roundtrip() {
        // The experiment service ships summaries over its line protocol;
        // they must roundtrip exactly (bit-identical floats included).
        let summary =
            FlowtimeSummary::from_outcome(&outcome(vec![record(0, 1.0, 137), record(1, 3.0, 211)]));
        let json = summary.to_json().to_compact_string();
        let back = FlowtimeSummary::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, summary);
        assert!(FlowtimeSummary::from_json(&JsonValue::Null).is_err());
    }

    #[test]
    fn p95_is_close_to_max_for_small_samples() {
        let records = (0..20).map(|i| record(i, 1.0, (i + 1) * 10)).collect();
        let s = FlowtimeSummary::from_outcome(&outcome(records));
        assert!(s.p95 >= s.median);
        assert!(s.p95 <= s.max);
    }
}
