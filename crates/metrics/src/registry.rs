//! Deterministic counter/histogram registry.
//!
//! The registry is the folding target of the telemetry observers
//! ([`crate::SimTelemetry`]) and of the sweep server's per-request
//! accounting: named monotonic counters plus [`QuantileSketch`] histograms,
//! all plain integers so snapshots are bit-reproducible across hosts.
//! [`MetricsRegistry::merge_histogram`] folds a whole sketch into a named
//! slot with [`QuantileSketch::merge`], which is associative and
//! commutative.
//!
//! Storage is `BTreeMap`-backed, so iteration and JSON serialisation are in
//! deterministic name order.

use crate::sketch::QuantileSketch;
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};
use std::collections::BTreeMap;

/// A named collection of counters and [`QuantileSketch`] histograms.
///
/// `BTreeMap`-backed: iteration, equality and JSON output are in name order,
/// so two registries that folded the same events are identical byte for
/// byte regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, QuantileSketch>,
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
                let mut h = QuantileSketch::new();
                h.record(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// A named histogram, if any sample was ever recorded into it.
    pub fn histogram(&self, name: &str) -> Option<&QuantileSketch> {
        self.histograms.get(name)
    }

    /// The counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &QuantileSketch)> {
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
    pub fn merge_histogram(&mut self, name: &str, histogram: &QuantileSketch) {
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
                .insert(name.clone(), QuantileSketch::from_json(v)?);
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counters_and_histograms() {
        let mut r = MetricsRegistry::new();
        r.inc("copies_launched", 3);
        r.inc("copies_launched", 2);
        r.inc("noop", 0);
        r.record("job_flowtime", 100);
        r.record("job_flowtime", 900);
        assert_eq!(r.counter("copies_launched"), 5);
        assert_eq!(r.counter("never_touched"), 0);
        assert_eq!(r.counter("noop"), 0, "inc by 0 does not create a counter");
        assert_eq!(r.histogram("job_flowtime").unwrap().count(), 2);
        assert!(r.histogram("missing").is_none());
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
