//! Flowtime summary statistics.

use mapreduce_sim::{JobRecord, SimOutcome};
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
    /// Summarises a full simulation outcome.
    pub fn from_outcome(outcome: &SimOutcome) -> Self {
        Self::from_records(
            &outcome.scheduler,
            outcome.records(),
            outcome.mean_copies_per_task(),
        )
    }

    /// Summarises an arbitrary set of job records (used for per-bucket
    /// breakdowns).
    pub fn from_records(scheduler: &str, records: &[JobRecord], mean_copies: f64) -> Self {
        if records.is_empty() {
            return FlowtimeSummary {
                scheduler: scheduler.to_string(),
                jobs: 0,
                mean: 0.0,
                weighted_mean: 0.0,
                weighted_sum: 0.0,
                median: 0.0,
                p95: 0.0,
                max: 0.0,
                mean_copies_per_task: mean_copies,
            };
        }
        let mut flowtimes: Vec<f64> = records.iter().map(|r| r.flowtime() as f64).collect();
        flowtimes.sort_by(f64::total_cmp);
        let n = flowtimes.len();
        let mean = flowtimes.iter().sum::<f64>() / n as f64;
        let total_weight: f64 = records.iter().map(|r| r.weight).sum();
        let weighted_sum: f64 = records.iter().map(|r| r.weighted_flowtime()).sum();
        let quantile = |q: f64| -> f64 {
            let idx = ((n as f64 - 1.0) * q).round() as usize;
            flowtimes[idx.min(n - 1)]
        };
        FlowtimeSummary {
            scheduler: scheduler.to_string(),
            jobs: n,
            mean,
            weighted_mean: if total_weight > 0.0 {
                weighted_sum / total_weight
            } else {
                0.0
            },
            weighted_sum,
            median: quantile(0.5),
            p95: quantile(0.95),
            max: flowtimes[n - 1],
            mean_copies_per_task: mean_copies,
        }
    }

    /// Builds a summary from streaming accumulators alone — no per-job
    /// record vector anywhere. The moments (`mean`, `weighted_*`, `max`)
    /// come exactly from the [`StreamingFlowtime`]; `median` and `p95` come
    /// from the [`QuantileSketch`](crate::QuantileSketch) and carry its
    /// documented relative-error bound
    /// ([`QuantileSketch::RELATIVE_ERROR`](crate::QuantileSketch::RELATIVE_ERROR)).
    /// The two accumulators must have folded the same jobs.
    pub fn from_streaming(
        scheduler: &str,
        streaming: &StreamingFlowtime,
        sketch: &crate::QuantileSketch,
        mean_copies: f64,
    ) -> Self {
        debug_assert_eq!(
            streaming.jobs() as u64,
            sketch.count(),
            "streaming accumulator and sketch must fold the same jobs"
        );
        FlowtimeSummary {
            scheduler: scheduler.to_string(),
            jobs: streaming.jobs(),
            mean: streaming.mean(),
            weighted_mean: streaming.weighted_mean(),
            weighted_sum: streaming.weighted_sum(),
            median: sketch.quantile(0.5).unwrap_or(0) as f64,
            p95: sketch.quantile(0.95).unwrap_or(0) as f64,
            max: streaming.max() as f64,
            mean_copies_per_task: mean_copies,
        }
    }

    /// Summarises only the jobs whose flowtime falls in `bucket`.
    pub fn for_bucket(outcome: &SimOutcome, bucket: FlowtimeBucket) -> Self {
        let records: Vec<JobRecord> = outcome
            .records()
            .iter()
            .filter(|r| bucket.contains(r.flowtime()))
            .cloned()
            .collect();
        Self::from_records(&outcome.scheduler, &records, outcome.mean_copies_per_task())
    }
}

/// Single-pass, `O(1)`-memory flowtime accumulator for runs too large to
/// hold a per-job flowtime vector comfortably — the `stream10m` tier's ten
/// million records, folded as they complete.
///
/// Tracks exactly the moments that don't need the full sample: job count,
/// unweighted/weighted flowtime sums and the maximum. Quantiles (median,
/// p95) need the sorted sample and stay the full [`FlowtimeSummary`]'s job.
/// Partial accumulators over disjoint record sets [`merge`](Self::merge)
/// into the whole-run accumulator, so per-shard folds compose.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamingFlowtime {
    jobs: usize,
    sum: f64,
    weighted_sum: f64,
    total_weight: f64,
    max: u64,
}

impl StreamingFlowtime {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed job into the running statistics.
    pub fn fold(&mut self, record: &JobRecord) {
        self.jobs += 1;
        self.sum += record.flowtime() as f64;
        self.weighted_sum += record.weighted_flowtime();
        self.total_weight += record.weight;
        self.max = self.max.max(record.flowtime());
    }

    /// Accumulates over a whole record slice (a convenience for callers that
    /// do hold the records, e.g. a finished [`SimOutcome`]).
    pub fn from_records(records: &[JobRecord]) -> Self {
        let mut acc = Self::new();
        for record in records {
            acc.fold(record);
        }
        acc
    }

    /// Absorbs another accumulator built over a disjoint set of records.
    pub fn merge(&mut self, other: &Self) {
        self.jobs += other.jobs;
        self.sum += other.sum;
        self.weighted_sum += other.weighted_sum;
        self.total_weight += other.total_weight;
        self.max = self.max.max(other.max);
    }

    /// Number of jobs folded so far.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Unweighted mean flowtime (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.sum / self.jobs as f64
        }
    }

    /// Weighted mean flowtime `Σ wF / Σ w` (0 when empty or weightless).
    pub fn weighted_mean(&self) -> f64 {
        if self.total_weight > 0.0 {
            self.weighted_sum / self.total_weight
        } else {
            0.0
        }
    }

    /// Weighted sum of flowtimes — the paper's objective.
    pub fn weighted_sum(&self) -> f64 {
        self.weighted_sum
    }

    /// Maximum flowtime seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
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

    #[test]
    fn summary_of_known_records() {
        let records = vec![
            record(0, 1.0, 100),
            record(1, 3.0, 200),
            record(2, 1.0, 300),
        ];
        let s = FlowtimeSummary::from_records("x", &records, 1.0);
        assert_eq!(s.jobs, 3);
        assert!((s.mean - 200.0).abs() < 1e-12);
        // Weighted mean: (100 + 600 + 300) / 5 = 200.
        assert!((s.weighted_mean - 200.0).abs() < 1e-12);
        assert!((s.weighted_sum - 1000.0).abs() < 1e-12);
        assert_eq!(s.median, 200.0);
        assert_eq!(s.max, 300.0);
    }

    #[test]
    fn empty_records_are_safe() {
        let s = FlowtimeSummary::from_records("x", &[], 0.0);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.median, 0.0);
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
    fn bucket_summary_filters_records() {
        let outcome = mapreduce_sim::SimOutcome::new(
            "sched".into(),
            4,
            vec![record(0, 1.0, 50), record(1, 1.0, 500), record(2, 1.0, 100)],
            500,
            100,
            6,
            10,
            3,
            3,
        );
        let small = FlowtimeSummary::for_bucket(&outcome, FlowtimeBucket::SMALL_JOBS);
        assert_eq!(small.jobs, 2);
        let big = FlowtimeSummary::for_bucket(&outcome, FlowtimeBucket::BIG_JOBS);
        assert_eq!(big.jobs, 1);
        assert_eq!(small.scheduler, "sched");
    }

    #[test]
    fn summary_json_roundtrip() {
        // The experiment service ships summaries over its line protocol;
        // they must roundtrip exactly (bit-identical floats included).
        let records = vec![record(0, 1.0, 137), record(1, 3.0, 211)];
        let summary = FlowtimeSummary::from_records("SRPTMS+C", &records, 1.25);
        let json = summary.to_json().to_compact_string();
        let back = FlowtimeSummary::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, summary);
        assert!(FlowtimeSummary::from_json(&JsonValue::Null).is_err());
    }

    #[test]
    fn streaming_accumulator_matches_the_full_summary() {
        let records: Vec<JobRecord> = (0..50)
            .map(|i| record(i, (i % 7) as f64 + 0.5, (i + 1) * 13))
            .collect();
        let full = FlowtimeSummary::from_records("x", &records, 1.0);
        let streaming = StreamingFlowtime::from_records(&records);
        assert_eq!(streaming.jobs(), full.jobs);
        assert!((streaming.mean() - full.mean).abs() < 1e-9);
        assert!((streaming.weighted_mean() - full.weighted_mean).abs() < 1e-9);
        assert!((streaming.weighted_sum() - full.weighted_sum).abs() < 1e-9);
        assert_eq!(streaming.max() as f64, full.max);
    }

    #[test]
    fn sketch_backed_summary_tracks_the_exact_one() {
        let records: Vec<JobRecord> = (0..200)
            .map(|i| record(i, (i % 5) as f64 + 0.5, (i * i + 7) % 3000))
            .collect();
        let exact = FlowtimeSummary::from_records("x", &records, 1.0);
        let mut streaming = StreamingFlowtime::new();
        let mut sketch = crate::QuantileSketch::new();
        for r in &records {
            streaming.fold(r);
            sketch.record(r.flowtime());
        }
        let approx = FlowtimeSummary::from_streaming("x", &streaming, &sketch, 1.0);
        // Moments are exact.
        assert_eq!(approx.jobs, exact.jobs);
        assert!((approx.mean - exact.mean).abs() < 1e-9);
        assert!((approx.weighted_mean - exact.weighted_mean).abs() < 1e-9);
        assert!((approx.weighted_sum - exact.weighted_sum).abs() < 1e-9);
        assert_eq!(approx.max, exact.max);
        // Quantiles are within the sketch's documented bound.
        let bound = crate::QuantileSketch::RELATIVE_ERROR;
        assert!((approx.median - exact.median).abs() <= exact.median * bound + 1e-9);
        assert!((approx.p95 - exact.p95).abs() <= exact.p95 * bound + 1e-9);
    }

    #[test]
    fn streaming_accumulator_merges_disjoint_shards() {
        let records: Vec<JobRecord> = (0..30).map(|i| record(i, 2.0, (i + 3) * 7)).collect();
        let whole = StreamingFlowtime::from_records(&records);
        let mut merged = StreamingFlowtime::from_records(&records[..11]);
        merged.merge(&StreamingFlowtime::from_records(&records[11..]));
        assert_eq!(merged, whole);
        // Empty accumulators are identities on both sides.
        let mut empty = StreamingFlowtime::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.weighted_mean(), 0.0);
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn p95_is_close_to_max_for_small_samples() {
        let records: Vec<JobRecord> = (0..20).map(|i| record(i, 1.0, (i + 1) * 10)).collect();
        let s = FlowtimeSummary::from_records("x", &records, 1.0);
        assert!(s.p95 >= s.median);
        assert!(s.p95 <= s.max);
    }
}
