//! Empirical cumulative distribution functions of job flowtime.

use mapreduce_sim::SimOutcome;

/// An empirical CDF over job flowtimes.
///
/// ```
/// use mapreduce_metrics::Ecdf;
/// let cdf = Ecdf::from_values(&[10.0, 20.0, 30.0, 40.0]);
/// assert_eq!(cdf.fraction_at_or_below(25.0), 0.5);
/// assert_eq!(cdf.quantile(1.0), Some(40.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the CDF from raw values (order does not matter).
    pub fn from_values(values: &[f64]) -> Self {
        Self::from_vec(values.to_vec())
    }

    /// Builds the CDF of the flowtimes of all jobs of a simulation outcome.
    pub fn from_outcome(outcome: &SimOutcome) -> Self {
        Self::from_vec(
            outcome
                .records()
                .iter()
                .map(|r| r.flowtime() as f64)
                .collect(),
        )
    }

    /// Sorts owned values in place into a CDF, dropping non-finite ones.
    fn from_vec(mut values: Vec<f64>) -> Self {
        values.retain(|v| v.is_finite());
        // `total_cmp` per the repo-wide NaN-determinism rule: a total order
        // never depends on how `partial_cmp` ties are broken.
        values.sort_by(f64::total_cmp);
        Ecdf { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Fraction of samples ≤ `x`, in `[0, 1]`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), or `None` for an empty CDF.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() as f64 - 1.0) * q).round() as usize;
        Some(self.sorted[idx.min(self.sorted.len() - 1)])
    }

    /// Evaluates the CDF at evenly spaced points in `[lo, hi]`, returning
    /// `(x, fraction ≤ x)` pairs — the series plotted in Figs. 4 and 5.
    /// `denominator` overrides the sample count used for the fraction (pass
    /// the total number of jobs to mimic the paper's figures); pass `None` to
    /// normalise by this CDF's own sample count.
    pub fn series(
        &self,
        lo: f64,
        hi: f64,
        points: usize,
        denominator: Option<usize>,
    ) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two points for a series");
        assert!(hi > lo, "hi must exceed lo");
        let denom = denominator.unwrap_or(self.sorted.len()).max(1) as f64;
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                let count = self.sorted.partition_point(|&v| v <= x);
                (x, count as f64 / denom)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_and_quantile() {
        let cdf = Ecdf::from_values(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(3.0), 0.6);
        assert_eq!(cdf.fraction_at_or_below(100.0), 1.0);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(5.0));
        assert_eq!(cdf.quantile(0.5), Some(3.0));
    }

    #[test]
    fn empty_cdf_is_safe() {
        let cdf = Ecdf::from_values(&[]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(10.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let cdf = Ecdf::from_values(&[1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn series_is_monotone_and_bounded() {
        let cdf = Ecdf::from_values(&(1..=100).map(|i| i as f64).collect::<Vec<_>>());
        let series = cdf.series(0.0, 120.0, 13, None);
        assert_eq!(series.len(), 13);
        let mut prev = -1.0;
        for (x, y) in &series {
            assert!(*y >= prev);
            assert!((0.0..=1.0).contains(y));
            assert!((0.0..=120.0).contains(x));
            prev = *y;
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn series_with_external_denominator() {
        let cdf = Ecdf::from_values(&[10.0, 20.0]);
        let series = cdf.series(0.0, 30.0, 4, Some(10));
        // Only 2 of the notional 10 jobs are in the window → tops out at 0.2.
        assert!((series.last().unwrap().1 - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn series_needs_two_points() {
        Ecdf::from_values(&[1.0]).series(0.0, 1.0, 1, None);
    }

    #[test]
    #[should_panic(expected = "hi must exceed lo")]
    fn series_needs_valid_range() {
        Ecdf::from_values(&[1.0]).series(1.0, 1.0, 3, None);
    }
}
