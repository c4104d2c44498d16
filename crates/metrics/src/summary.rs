//! Flowtime summary statistics.

use crate::cdf::quantile_rank;
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
    /// [`Ecdf::quantile`](crate::Ecdf::quantile) at 0.5, 0.95 and 1 (rank
    /// `round((n−1)·q)`). An outcome with no jobs summarises to zeros.
    ///
    /// The three quantiles are order statistics of the integer flowtimes,
    /// selected without a full sort. `u64 → f64` keeps the order, so they
    /// are bit-identical to the sorted [`Ecdf`](crate::Ecdf)'s.
    pub fn from_outcome(outcome: &SimOutcome) -> Self {
        let mut flowtimes: Vec<u64> = outcome.records().iter().map(|r| r.flowtime()).collect();
        let (median, p95, max) = median_p95_max(&mut flowtimes);
        FlowtimeSummary {
            scheduler: outcome.scheduler.clone(),
            jobs: outcome.records().len(),
            mean: outcome.mean_flowtime(),
            weighted_mean: outcome.weighted_mean_flowtime(),
            weighted_sum: outcome.weighted_sum_flowtime(),
            median,
            p95,
            max,
            mean_copies_per_task: outcome.mean_copies_per_task(),
        }
    }
}

/// The order statistics at [`quantile_rank`] 0.5, 0.95 and 1 of
/// `flowtimes` (reordered in place), as `f64`; zeros when empty. One
/// selection places the p95: the median lies below it, the max above.
fn median_p95_max(flowtimes: &mut [u64]) -> (f64, f64, f64) {
    let n = flowtimes.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let (below, &mut p95, above) = flowtimes.select_nth_unstable(quantile_rank(n, 0.95));
    let max = above.iter().copied().max().unwrap_or(p95);
    let median_rank = quantile_rank(n, 0.5);
    let median = if median_rank == below.len() {
        p95
    } else {
        *below.select_nth_unstable(median_rank).1
    };
    (median as f64, p95 as f64, max as f64)
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
    use crate::Ecdf;
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

    /// The summary as the sorted [`Ecdf`] and [`SimOutcome`]'s own moments
    /// give it.
    fn reference_summary(o: &SimOutcome) -> FlowtimeSummary {
        let cdf = Ecdf::from_outcome(o);
        let quantile = |q: f64| cdf.quantile(q).unwrap_or(0.0);
        FlowtimeSummary {
            scheduler: o.scheduler.clone(),
            jobs: o.records().len(),
            mean: o.mean_flowtime(),
            weighted_mean: o.weighted_mean_flowtime(),
            weighted_sum: o.weighted_sum_flowtime(),
            median: quantile(0.5),
            p95: quantile(0.95),
            max: quantile(1.0),
            mean_copies_per_task: o.mean_copies_per_task(),
        }
    }

    /// Every float field's bits, so `-0.0` vs `0.0` or a NaN would show.
    fn bits(s: &FlowtimeSummary) -> (String, usize, [u64; 7]) {
        let floats = [
            s.mean,
            s.weighted_mean,
            s.weighted_sum,
            s.median,
            s.p95,
            s.max,
            s.mean_copies_per_task,
        ];
        (s.scheduler.clone(), s.jobs, floats.map(f64::to_bits))
    }

    /// `n` flowtimes of one of four shapes: spread out, all equal, heavy
    /// ties, or at and above 2^53 (where `u64 → f64` starts to round).
    fn flowtimes(shape: u64, n: usize, seed: u64) -> Vec<u64> {
        use mapreduce_support::rng::{Rng, SimRng};
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n)
            .map(|_| match shape {
                0 => rng.gen_range(0..1_000_000u64),
                1 => 777,
                2 => rng.gen_range(0..3u64),
                _ => (1u64 << 53) + rng.gen_range(0..64u64),
            })
            .collect()
    }

    mod properties {
        use super::*;
        use mapreduce_support::proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            #[test]
            fn summary_matches_the_sorted_reference(
                shape in 0u64..4,
                n in 0usize..60,
                seed in 0u64..1_000_000,
            ) {
                let records = flowtimes(shape, n, seed)
                    .into_iter()
                    .enumerate()
                    .map(|(i, f)| record(i as u64, 1.0 + (i % 3) as f64, f))
                    .collect();
                let o = outcome(records);
                let got = FlowtimeSummary::from_outcome(&o);
                prop_assert_eq!(bits(&got), bits(&reference_summary(&o)));
            }
        }
    }

    #[test]
    fn summary_matches_the_reference_on_tiny_and_huge_samples() {
        let cases: [&[u64]; 7] = [
            &[],
            &[5],
            &[9, 2],
            &[4, 4, 4, 4],
            &[u64::MAX, 0, u64::MAX - 1],
            &[(1 << 53) + 1, 1 << 53, (1 << 53) + 3, (1 << 53) + 2],
            &[
                3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2,
            ],
        ];
        for flowtimes in cases {
            let records = flowtimes
                .iter()
                .enumerate()
                .map(|(i, &f)| record(i as u64, 2.0, f))
                .collect();
            let o = outcome(records);
            assert_eq!(
                bits(&FlowtimeSummary::from_outcome(&o)),
                bits(&reference_summary(&o)),
                "{flowtimes:?}"
            );
        }
    }

    #[test]
    fn p95_is_close_to_max_for_small_samples() {
        let records = (0..20).map(|i| record(i, 1.0, (i + 1) * 10)).collect();
        let s = FlowtimeSummary::from_outcome(&outcome(records));
        assert!(s.p95 >= s.median);
        assert!(s.p95 <= s.max);
    }
}
