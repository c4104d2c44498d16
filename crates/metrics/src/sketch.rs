//! Streaming quantile sketch over `u64` flowtimes with a documented,
//! bounded relative error.
//!
//! [`QuantileSketch`] is the O(1)-memory answer to the question the exact
//! [`crate::Ecdf`] answers by sorting every sample: "what is the p95, and
//! what does the CDF look like?". It is HDR-histogram shaped: values are
//! classified by the position of their highest set bit (the *major* bucket)
//! and then by the next [`SUB_BITS`] bits below it (the *linear
//! sub-bucket*), so every bucket spans at most a `2^-SUB_BITS` relative
//! slice of the value axis. Values below [`SUB_BUCKETS`] get a bucket each
//! and are represented exactly. It is also the one histogram type of
//! [`crate::MetricsRegistry`].
//!
//! # Error model
//!
//! With `SUB_BITS = 6` every bucket `[floor, floor + width)` with
//! `floor ≥ 64` satisfies `width / floor ≤ 2^-6`, so:
//!
//! * **Quantiles.** [`QuantileSketch::quantile`] uses the same rank rule as
//!   [`crate::Ecdf::quantile`] (`rank = round((n-1)·q)`) and returns a value
//!   from the bucket holding the rank-th smallest sample. Both the true
//!   rank-th sample `t` and the reported value live in that bucket, hence
//!   `|reported − t| ≤ t · 2^-6` ([`QuantileSketch::RELATIVE_ERROR`], about
//!   1.57 %). Values `< 64` and the extremes `q = 0` / `q = 1` (pinned to
//!   the exact tracked min/max) are exact.
//! * **CDF fractions.** [`QuantileSketch::fraction_at_or_below`]`(x)` counts
//!   every bucket whose floor is ≤ `x`, which equals the *exact* empirical
//!   fraction evaluated at some `x′` with `x ≤ x′ < x · (1 + 2^-6)` — the
//!   error is a bounded rightward nudge of the evaluation point, never a
//!   miscounted sample.
//!
//! # Merge discipline
//!
//! The sketch is **shard-mergeable**:
//! [`QuantileSketch::merge`] is associative and commutative, so per-shard
//! sketches (for example the per-cell sketches of a sweep) combine in any
//! tree order into the sketch a single-pass fold would have produced —
//! bit-identically, since every field is an integer.
//!
//! Memory is a fixed `NUM_BUCKETS` (= 3 776) `u64` array — independent of
//! the number of samples, which is the whole point: the `stream10m` tier's
//! ten million flowtimes sketch into ~30 KiB.

use crate::summary::FlowtimeBucket;
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};

/// Number of linear sub-bucket bits per log2 major bucket.
pub const SUB_BITS: u32 = 6;

/// Linear sub-buckets per major bucket (`2^SUB_BITS`).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total bucket count: one exact bucket per value below [`SUB_BUCKETS`],
/// then [`SUB_BUCKETS`] sub-buckets for each of the `64 − SUB_BITS` major
/// buckets covering the rest of the `u64` range.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// A deterministic, shard-mergeable streaming quantile sketch over `u64`
/// samples (see the [module docs](self) for the bucket scheme and error
/// model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    /// `u64::MAX` when empty.
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl QuantileSketch {
    /// The documented worst-case relative error of [`quantile`]
    /// (`2^-SUB_BITS`): the reported quantile `r` and the exact same-rank
    /// sample `t` always satisfy `|r − t| ≤ t · RELATIVE_ERROR`.
    ///
    /// [`quantile`]: QuantileSketch::quantile
    pub const RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index of a value.
    pub fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        // Position of the highest set bit (≥ SUB_BITS here).
        let high = 63 - value.leading_zeros();
        let major = (high - SUB_BITS + 1) as usize;
        let sub = ((value >> (high - SUB_BITS)) as usize) - SUB_BUCKETS;
        major * SUB_BUCKETS + sub
    }

    /// The smallest value a bucket admits. Floors roundtrip:
    /// `bucket_of(bucket_floor(i)) == i` for every index.
    pub fn bucket_floor(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let major = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        ((SUB_BUCKETS + sub) as u64) << (major - 1)
    }

    /// The number of distinct values a bucket admits (1 below
    /// [`SUB_BUCKETS`], doubling with each major bucket above).
    pub fn bucket_width(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            1
        } else {
            1u64 << (index / SUB_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True iff no sample was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Smallest recorded sample, exact (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, exact (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another sketch in. Associative and commutative: any merge tree
    /// over the same shards yields the identical sketch.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples `≤ x`, counting every bucket whose floor is ≤ `x`
    /// (so the result equals the exact count at some `x′ ∈ [x, x·(1+2^-6))`,
    /// see the [module docs](self)).
    pub fn count_at_or_below(&self, x: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if x >= self.max {
            return self.count;
        }
        let last = Self::bucket_of(x);
        self.buckets[..=last].iter().sum()
    }

    /// Fraction of samples `≤ x`, in `[0, 1]` (0.0 when empty) — the sketch
    /// counterpart of [`crate::Ecdf::fraction_at_or_below`].
    pub fn fraction_at_or_below(&self, x: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.count_at_or_below(x) as f64 / self.count as f64
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), or `None` for an empty sketch.
    ///
    /// Uses the same rank rule as [`crate::Ecdf::quantile`]
    /// (`rank = round((n−1)·q)`), so the two agree up to
    /// [`RELATIVE_ERROR`](Self::RELATIVE_ERROR); `q = 0` and `q = 1` return
    /// the exact tracked min/max.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        if rank == 0 {
            return Some(self.min);
        }
        if rank >= self.count - 1 {
            return Some(self.max);
        }
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative > rank {
                // The rank-th smallest sample lies in this bucket; report the
                // bucket floor clamped into the feasible [min, max] range —
                // still inside the bucket, hence within the error bound.
                return Some(Self::bucket_floor(index).max(self.min).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Evaluates the sketched CDF at evenly spaced points in `[lo, hi]`,
    /// returning `(x, fraction ≤ x)` pairs — the sketch counterpart of
    /// [`crate::Ecdf::series`], producing Fig. 4/5-shaped curves without a
    /// per-job sample vector. `denominator` overrides the sample count used
    /// for the fraction (pass the total job count to mimic the paper's
    /// figures); `None` normalises by this sketch's own count.
    pub fn series(
        &self,
        lo: f64,
        hi: f64,
        points: usize,
        denominator: Option<u64>,
    ) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two points for a series");
        assert!(hi > lo, "hi must exceed lo");
        let denom = denominator.unwrap_or(self.count).max(1) as f64;
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                let count = if x < 0.0 {
                    0
                } else {
                    self.count_at_or_below(x.min(u64::MAX as f64) as u64)
                };
                (x, count as f64 / denom)
            })
            .collect()
    }
}

impl ToJson for QuantileSketch {
    fn to_json(&self) -> JsonValue {
        // Sparse bucket encoding: `[floor, count]` pairs for the non-empty
        // buckets, ascending — floors roundtrip through `bucket_of`.
        let buckets: Vec<JsonValue> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| JsonValue::Array(vec![Self::bucket_floor(i).to_json(), c.to_json()]))
            .collect();
        JsonValue::object([
            ("count", self.count.to_json()),
            // u128 exceeds the JSON number model of the parser; a decimal
            // string keeps the exact value.
            ("sum", self.sum.to_string().to_json()),
            ("min", self.min().to_json()),
            ("max", self.max.to_json()),
            ("buckets", JsonValue::Array(buckets)),
        ])
    }
}

impl FromJson for QuantileSketch {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let count = u64::from_json(value.field("count")?)?;
        let mut sketch = QuantileSketch {
            count,
            sum: String::from_json(value.field("sum")?)?
                .parse::<u128>()
                .map_err(|_| JsonError::new("sketch sum is not a decimal u128".to_string()))?,
            min: if count == 0 {
                u64::MAX
            } else {
                u64::from_json(value.field("min")?)?
            },
            max: u64::from_json(value.field("max")?)?,
            ..QuantileSketch::default()
        };
        let JsonValue::Array(pairs) = value.field("buckets")? else {
            return Err(JsonError::new(
                "sketch buckets must be an array".to_string(),
            ));
        };
        for pair in pairs {
            let JsonValue::Array(pair) = pair else {
                return Err(JsonError::new("sketch bucket must be a pair".to_string()));
            };
            if pair.len() != 2 {
                return Err(JsonError::new("sketch bucket must be a pair".to_string()));
            }
            let floor = u64::from_json(&pair[0])?;
            let count = u64::from_json(&pair[1])?;
            sketch.buckets[QuantileSketch::bucket_of(floor)] += count;
        }
        Ok(sketch)
    }
}

/// The flowtime sketch set a run folds: one sketch over **all** jobs plus
/// one per paper figure window ([`FlowtimeBucket::SMALL_JOBS`] for Fig. 4,
/// [`FlowtimeBucket::BIG_JOBS`] for Fig. 5), so both figure curves and the
/// overall percentiles stream out of a run in O(1) memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowtimeSketches {
    /// Sketch over every completed job.
    pub all: QuantileSketch,
    /// Sketch over jobs in the paper's small-job window `[0, 300)`.
    pub small: QuantileSketch,
    /// Sketch over jobs in the paper's big-job window `[300, 4000)`.
    pub big: QuantileSketch,
}

impl FlowtimeSketches {
    /// An empty sketch set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed job's flowtime into the `all` sketch and into
    /// whichever paper window contains it (jobs ≥ 4000 only count in `all`).
    pub fn fold(&mut self, flowtime: u64) {
        self.all.record(flowtime);
        if FlowtimeBucket::SMALL_JOBS.contains(flowtime) {
            self.small.record(flowtime);
        } else if FlowtimeBucket::BIG_JOBS.contains(flowtime) {
            self.big.record(flowtime);
        }
    }

    /// Absorbs another sketch set built over a disjoint set of jobs.
    pub fn merge(&mut self, other: &FlowtimeSketches) {
        self.all.merge(&other.all);
        self.small.merge(&other.small);
        self.big.merge(&other.big);
    }

    /// True iff no job was ever folded.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }
}

impl ToJson for FlowtimeSketches {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("all", self.all.to_json()),
            ("small", self.small.to_json()),
            ("big", self.big.to_json()),
        ])
    }
}

impl FromJson for FlowtimeSketches {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(FlowtimeSketches {
            all: QuantileSketch::from_json(value.field("all")?)?,
            small: QuantileSketch::from_json(value.field("small")?)?,
            big: QuantileSketch::from_json(value.field("big")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ecdf;

    #[test]
    fn bucket_floors_roundtrip() {
        for index in 0..NUM_BUCKETS {
            let floor = QuantileSketch::bucket_floor(index);
            assert_eq!(
                QuantileSketch::bucket_of(floor),
                index,
                "floor of bucket {index}"
            );
            // The last value of the bucket still maps to it (parenthesised
            // so the top bucket's `floor + width` never overflows).
            let last = floor + (QuantileSketch::bucket_width(index) - 1);
            assert_eq!(QuantileSketch::bucket_of(last), index, "last of {index}");
        }
        assert_eq!(QuantileSketch::bucket_of(u64::MAX), NUM_BUCKETS - 1);
        // Values below SUB_BUCKETS are their own bucket.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(QuantileSketch::bucket_of(v), v as usize);
        }
    }

    #[test]
    fn bucket_width_bounds_relative_error() {
        for index in SUB_BUCKETS..NUM_BUCKETS {
            let floor = QuantileSketch::bucket_floor(index) as f64;
            let width = QuantileSketch::bucket_width(index) as f64;
            assert!(
                width / floor <= QuantileSketch::RELATIVE_ERROR + 1e-15,
                "bucket {index}: width {width} vs floor {floor}"
            );
        }
    }

    #[test]
    fn record_and_stats() {
        let mut s = QuantileSketch::new();
        for v in [0, 1, 1, 5, 1000, 63, 64, 65] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.sum(), 1199);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 1000);
        assert!((s.mean() - 1199.0 / 8.0).abs() < 1e-12);
        // Small values are exact.
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(1.0), Some(1000));
    }

    #[test]
    fn empty_sketch_is_safe() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.fraction_at_or_below(10), 0.0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn quantiles_match_exact_within_bound() {
        // A heavy-tailed-ish deterministic sample crossing many buckets.
        let values: Vec<u64> = (0..5000u64).map(|i| (i * i * 37) % 1_000_000).collect();
        let mut sketch = QuantileSketch::new();
        for &v in &values {
            sketch.record(v);
        }
        let exact = Ecdf::from_values(&values.iter().map(|&v| v as f64).collect::<Vec<_>>());
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let approx = sketch.quantile(q).unwrap() as f64;
            let truth = exact.quantile(q).unwrap();
            assert!(
                (approx - truth).abs() <= truth * QuantileSketch::RELATIVE_ERROR + 1e-9,
                "q={q}: sketch {approx} vs exact {truth}"
            );
        }
    }

    #[test]
    fn fractions_match_exact_at_a_nudged_point() {
        let values: Vec<u64> = (0..2000u64).map(|i| (i * 7919) % 100_000).collect();
        let mut sketch = QuantileSketch::new();
        for &v in &values {
            sketch.record(v);
        }
        let exact = Ecdf::from_values(&values.iter().map(|&v| v as f64).collect::<Vec<_>>());
        for x in [0u64, 63, 64, 100, 1000, 12345, 99_999, 200_000] {
            let reported = sketch.fraction_at_or_below(x);
            // The report equals the exact fraction at the end of x's bucket.
            let index = QuantileSketch::bucket_of(x);
            let nudged =
                QuantileSketch::bucket_floor(index) + QuantileSketch::bucket_width(index) - 1;
            assert!(nudged as f64 <= x as f64 * (1.0 + QuantileSketch::RELATIVE_ERROR) + 1.0);
            let truth = exact.fraction_at_or_below(nudged as f64);
            assert!(
                (reported - truth).abs() < 1e-12,
                "x={x}: sketch {reported} vs exact-at-{nudged} {truth}"
            );
        }
    }

    #[test]
    fn merge_matches_single_fold() {
        let shard = |values: &[u64]| {
            let mut s = QuantileSketch::new();
            for &v in values {
                s.record(v);
            }
            s
        };
        let a = shard(&[0, 3, 900, u64::MAX]);
        let b = shard(&[1, 3, 3, 17]);
        let c = shard(&[256, 255, 254]);

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right_inner = b.clone();
        right_inner.merge(&c);
        let mut right = a.clone();
        right.merge(&right_inner);
        assert_eq!(left, right, "merge must be associative");

        let mut reversed = c.clone();
        reversed.merge(&b);
        reversed.merge(&a);
        assert_eq!(left, reversed, "merge must be commutative");

        let whole = shard(&[0, 3, 900, u64::MAX, 1, 3, 3, 17, 256, 255, 254]);
        assert_eq!(left, whole);
        // The empty sketch is the merge identity.
        let mut empty = QuantileSketch::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn series_is_monotone_and_matches_fractions() {
        let mut sketch = QuantileSketch::new();
        for v in 1..=100u64 {
            sketch.record(v);
        }
        let series = sketch.series(0.0, 120.0, 13, None);
        assert_eq!(series.len(), 13);
        let mut prev = -1.0;
        for &(x, y) in &series {
            assert!(y >= prev);
            assert!((0.0..=1.0).contains(&y));
            assert!((0.0..=120.0).contains(&x));
            prev = y;
        }
        assert_eq!(series.last().unwrap().1, 1.0);
        // External denominator caps the curve below 1.
        let partial = sketch.series(0.0, 120.0, 4, Some(1000));
        assert!((partial.last().unwrap().1 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let mut s = QuantileSketch::new();
        for v in [0, 1, 63, 64, 1000, 123_456_789, u64::MAX] {
            s.record(v);
        }
        let json = s.to_json().to_pretty_string();
        let back = QuantileSketch::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, s);
        // Empty sketches roundtrip too (min sentinel included).
        let empty = QuantileSketch::new();
        let back = QuantileSketch::from_json(
            &JsonValue::parse(&empty.to_json().to_compact_string()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn flowtime_sketches_split_paper_windows() {
        let mut set = FlowtimeSketches::new();
        for flowtime in [0, 150, 299, 300, 2000, 3999, 4000, 50_000] {
            set.fold(flowtime);
        }
        assert_eq!(set.all.count(), 8);
        assert_eq!(set.small.count(), 3);
        assert_eq!(set.big.count(), 3);
        // ≥ 4000 lands only in `all`.
        assert_eq!(set.all.max(), 50_000);
        assert_eq!(set.big.max(), 3999);

        let mut other = FlowtimeSketches::new();
        other.fold(100);
        let mut merged = set.clone();
        merged.merge(&other);
        assert_eq!(merged.all.count(), 9);
        assert_eq!(merged.small.count(), 4);

        let json = set.to_json().to_compact_string();
        let back = FlowtimeSketches::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, set);
        assert!(!set.is_empty());
        assert!(FlowtimeSketches::new().is_empty());
    }
}
