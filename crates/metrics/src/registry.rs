//! Deterministic counter/histogram registry.
//!
//! The registry is the folding target of the telemetry observers
//! ([`crate::SimTelemetry`]) and of the sweep server's per-request
//! accounting: named monotonic counters plus log2-bucketed histograms, all
//! plain integers so snapshots are bit-reproducible across hosts. Like
//! [`crate::StreamingFlowtime`], every piece is **shard-mergeable** —
//! [`MetricsRegistry::merge`] folds another snapshot in associatively and
//! commutatively, so independent runs (or future event-loop shards) can
//! each fold their own registry and combine at the end.
//!
//! Storage is `BTreeMap`-backed, so iteration and JSON serialisation are in
//! deterministic name order.

use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};
use std::collections::BTreeMap;

/// Number of buckets of a [`Log2Histogram`]: one for 0, one per power of two
/// of the `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)` — i.e. the bucket index of `v > 0` is the position of
/// its highest set bit plus one. Exact count, sum and max ride along, so
/// means stay precise even though individual samples are bucketed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index of a sample.
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The smallest value a bucket admits (0 for bucket 0, `2^(i-1)`
    /// otherwise).
    pub fn bucket_floor(index: usize) -> u64 {
        match index {
            0 => 0,
            i => 1u64 << (i - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Count in one bucket.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Folds another histogram in. Associative and commutative: any merge
    /// tree over the same shards yields the identical histogram.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl ToJson for Log2Histogram {
    fn to_json(&self) -> JsonValue {
        // Sparse bucket encoding: `[floor, count]` pairs for the non-empty
        // buckets, ascending.
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
            ("max", self.max.to_json()),
            ("buckets", JsonValue::Array(buckets)),
        ])
    }
}

impl FromJson for Log2Histogram {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let mut histogram = Log2Histogram {
            count: u64::from_json(value.field("count")?)?,
            sum: String::from_json(value.field("sum")?)?
                .parse::<u128>()
                .map_err(|_| JsonError::new("histogram sum is not a decimal u128".to_string()))?,
            max: u64::from_json(value.field("max")?)?,
            ..Log2Histogram::default()
        };
        let JsonValue::Array(pairs) = value.field("buckets")? else {
            return Err(JsonError::new(
                "histogram buckets must be an array".to_string(),
            ));
        };
        for pair in pairs {
            let JsonValue::Array(pair) = pair else {
                return Err(JsonError::new(
                    "histogram bucket must be a pair".to_string(),
                ));
            };
            if pair.len() != 2 {
                return Err(JsonError::new(
                    "histogram bucket must be a pair".to_string(),
                ));
            }
            let floor = u64::from_json(&pair[0])?;
            let count = u64::from_json(&pair[1])?;
            histogram.buckets[Log2Histogram::bucket_of(floor)] += count;
        }
        Ok(histogram)
    }
}

/// A named collection of counters and [`Log2Histogram`]s.
///
/// `BTreeMap`-backed: iteration, equality and JSON output are in name order,
/// so two registries that folded the same events are identical byte for
/// byte regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a named counter, creating it at 0 first if new.
    pub fn inc(&mut self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one sample into a named histogram, creating it if new.
    pub fn record(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Log2Histogram::new();
                h.record(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// A named histogram, if any sample was ever recorded into it.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// The counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Log2Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True iff nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds a whole histogram into the named slot (merging if it exists,
    /// inserting a clone if not). Empty histograms are skipped, preserving
    /// the invariant that a histogram exists iff a sample was recorded —
    /// this is how observers that accumulate in plain fields (the hot-path
    /// discipline of [`crate::SimTelemetry`]) materialize a registry without
    /// per-event name lookups.
    pub fn merge_histogram(&mut self, name: &str, histogram: &Log2Histogram) {
        if histogram.count() == 0 {
            return;
        }
        match self.histograms.get_mut(name) {
            Some(mine) => mine.merge(histogram),
            None => {
                self.histograms.insert(name.to_string(), histogram.clone());
            }
        }
    }

    /// Folds another registry in: counters add, histograms merge. Associative
    /// and commutative, so shards can be combined in any tree order —
    /// the same discipline as [`crate::StreamingFlowtime::merge`].
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &value) in &other.counters {
            self.inc(name, value);
        }
        for (name, histogram) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(histogram),
                None => {
                    self.histograms.insert(name.clone(), histogram.clone());
                }
            }
        }
    }
}

impl ToJson for MetricsRegistry {
    fn to_json(&self) -> JsonValue {
        let counters = JsonValue::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        let histograms = JsonValue::Object(
            self.histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        JsonValue::object([("counters", counters), ("histograms", histograms)])
    }
}

impl FromJson for MetricsRegistry {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let mut registry = MetricsRegistry::new();
        let JsonValue::Object(counters) = value.field("counters")? else {
            return Err(JsonError::new("counters must be an object".to_string()));
        };
        for (name, v) in counters {
            registry.counters.insert(name.clone(), u64::from_json(v)?);
        }
        let JsonValue::Object(histograms) = value.field("histograms")? else {
            return Err(JsonError::new("histograms must be an object".to_string()));
        };
        for (name, v) in histograms {
            registry
                .histograms
                .insert(name.clone(), Log2Histogram::from_json(v)?);
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let floor = Log2Histogram::bucket_floor(i);
            assert_eq!(Log2Histogram::bucket_of(floor), i, "floor of bucket {i}");
        }
    }

    #[test]
    fn record_and_stats() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 1, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1007);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 201.4).abs() < 1e-12);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(3), 1); // 5 ∈ [4, 8)
        assert_eq!(h.bucket(10), 1); // 1000 ∈ [512, 1024)
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        // Three shards with overlapping buckets.
        let shard = |values: &[u64]| {
            let mut h = Log2Histogram::new();
            for &v in values {
                h.record(v);
            }
            h
        };
        let a = shard(&[0, 3, 900, u64::MAX]);
        let b = shard(&[1, 3, 3, 17]);
        let c = shard(&[256, 255, 254]);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut right_inner = b.clone();
        right_inner.merge(&c);
        let mut right = a.clone();
        right.merge(&right_inner);
        assert_eq!(left, right, "merge must be associative");

        // c ⊕ b ⊕ a
        let mut reversed = c.clone();
        reversed.merge(&b);
        reversed.merge(&a);
        assert_eq!(left, reversed, "merge must be commutative");

        // And the merged histogram equals the single-shard fold.
        let whole = shard(&[0, 3, 900, u64::MAX, 1, 3, 3, 17, 256, 255, 254]);
        assert_eq!(left, whole);
    }

    #[test]
    fn registry_counters_and_histograms() {
        let mut r = MetricsRegistry::new();
        r.inc("copies_launched", 3);
        r.inc("copies_launched", 2);
        r.inc("noop", 0);
        r.record("decision_cost_ns", 100);
        r.record("decision_cost_ns", 900);
        assert_eq!(r.counter("copies_launched"), 5);
        assert_eq!(r.counter("never_touched"), 0);
        assert_eq!(r.counter("noop"), 0, "inc by 0 does not create a counter");
        assert_eq!(r.histogram("decision_cost_ns").unwrap().count(), 2);
        assert!(r.histogram("missing").is_none());
    }

    #[test]
    fn registry_merge_matches_single_fold() {
        let mut a = MetricsRegistry::new();
        a.inc("x", 2);
        a.record("h", 7);
        let mut b = MetricsRegistry::new();
        b.inc("x", 3);
        b.inc("y", 1);
        b.record("h", 700);
        b.record("g", 1);

        let mut merged = a.clone();
        merged.merge(&b);
        let mut whole = MetricsRegistry::new();
        whole.inc("x", 5);
        whole.inc("y", 1);
        whole.record("h", 7);
        whole.record("h", 700);
        whole.record("g", 1);
        assert_eq!(merged, whole);

        // Merge order is immaterial.
        let mut reversed = b.clone();
        reversed.merge(&a);
        assert_eq!(merged, reversed);
    }

    #[test]
    fn registry_json_roundtrip() {
        let mut r = MetricsRegistry::new();
        r.inc("jobs_arrived", 10);
        r.inc("copies_launched", 25);
        r.record("clone_lifetime", 0);
        r.record("clone_lifetime", 12);
        r.record("clone_lifetime", u64::MAX);
        let json = r.to_json().to_pretty_string();
        let back = MetricsRegistry::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
