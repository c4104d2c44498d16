//! Content-addressed result caching for experiment cells.
//!
//! A **cell** is the unit of simulation work in every figure sweep: one
//! scheduler over one scenario with one seed. Cells are pure functions of
//! their inputs (the engine is deterministic), so their outcomes can be
//! memoised under a content hash. This module defines
//!
//! * [`cell_fingerprint`] — the canonical [`Fingerprint`] of a cell: the
//!   FNV-1a-128 hash of a canonical JSON document covering the
//!   [`SimConfig`](mapreduce_sim::SimConfig) the runner builds (machines,
//!   seed, speed, straggler model, …), the workload description
//!   ([`GoogleTraceProfile`](mapreduce_workload::GoogleTraceProfile) +
//!   [`WorkloadSource`]) and the scheduler id with its parameters. Two cells
//!   agree on their fingerprint iff they agree on everything that can
//!   influence the outcome. Golden tests pin concrete hashes so the
//!   canonicalisation cannot drift silently (a drift would cold every
//!   persisted cache);
//! * [`OutcomeCache`] — the trait the cache-aware runner
//!   ([`crate::runner::run_scheduler_averaged_with`]) consults, with the
//!   in-process [`MemoryCache`] implementation (the persistent JSON-lines
//!   store lives in `mapreduce-server`);
//! * a process-wide **global cache hook** ([`install_global_cache`]) through
//!   which the figure modules transparently reuse results: they call
//!   [`crate::runner::run_scheduler_averaged`], which routes every cell
//!   through the installed cache — so a warm second run of any figure is
//!   near-zero simulation work.

use crate::runner::SchedulerKind;
use crate::scenario::{Scenario, WorkloadSource};
use mapreduce_sim::SimOutcome;
use mapreduce_support::hash::{Fingerprint, Fnv1a128};
use mapreduce_support::json::{JsonValue, ToJson};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::SystemTime;

/// Computes the canonical fingerprint of one cell.
///
/// The hashed document is
/// `{"config": <SimConfig>, "scheduler": <SchedulerKind>, "workload":
/// {"profile": <GoogleTraceProfile>, "source": <WorkloadSource>}}` in
/// compact JSON with sorted keys. The config embeds the seed and the
/// machine count exactly as [`crate::runner::run_cell`] builds them, so any
/// knob that reaches the engine reaches the hash. For a
/// [`WorkloadSource::GoogleCsv`] cell the workload object additionally
/// embeds the CSV **content hash** (length + FNV-1a-128 of the bytes), so
/// editing the file colds its cells instead of silently serving outcomes of
/// the old content.
pub fn cell_fingerprint(kind: SchedulerKind, scenario: &Scenario, seed: u64) -> Fingerprint {
    // The same construction the runner uses, so every scenario knob that
    // reaches the engine (machine count, fault plan) reaches the hash; an
    // empty fault plan serialises to nothing, keeping pre-fault fingerprints
    // (and every persisted cache keyed by them) valid.
    let config = scenario.sim_config(seed);
    let mut workload = vec![
        ("profile", scenario.profile.to_json()),
        ("source", scenario.source.to_json()),
    ];
    if let WorkloadSource::GoogleCsv { path } = &scenario.source {
        workload.push(("csv", csv_content_token(path)));
    }
    let doc = JsonValue::object([
        ("config", config.to_json()),
        ("scheduler", kind.to_json()),
        ("workload", JsonValue::object(workload)),
    ]);
    Fingerprint::of_json(&doc)
}

/// Per-path memo entry: `(len, mtime, content hash)`.
type CsvHashMemo = HashMap<PathBuf, (u64, Option<SystemTime>, u128)>;

/// Content hashes of CSV workload files, memoized per path and revalidated
/// by `(len, mtime)` so fingerprinting many cells of one sweep reads the
/// file once, not once per cell.
static CSV_HASHES: Mutex<Option<CsvHashMemo>> = Mutex::new(None);

/// The content token of a CSV workload file: `{"len":…,"hash":"…"}`, or
/// `{"unreadable":true}` when the file cannot be read (the sweep itself
/// will fail at conversion time; the token just keeps the fingerprint
/// well-defined).
fn csv_content_token(path: &Path) -> JsonValue {
    let meta = match std::fs::metadata(path) {
        Ok(meta) => meta,
        Err(_) => return JsonValue::object([("unreadable", true.to_json())]),
    };
    let len = meta.len();
    let mtime = meta.modified().ok();
    let mut memo = CSV_HASHES.lock().expect("csv hash memo poisoned");
    let memo = memo.get_or_insert_with(HashMap::new);
    if let Some(&(cached_len, cached_mtime, hash)) = memo.get(path) {
        if cached_len == len && cached_mtime == mtime {
            return JsonValue::object([
                ("len", len.to_json()),
                ("hash", Fingerprint(hash).to_json()),
            ]);
        }
    }
    let Ok(bytes) = std::fs::read(path) else {
        return JsonValue::object([("unreadable", true.to_json())]);
    };
    let hash = Fnv1a128::hash(&bytes);
    memo.insert(path.to_path_buf(), (len, mtime, hash));
    JsonValue::object([
        ("len", len.to_json()),
        ("hash", Fingerprint(hash).to_json()),
    ])
}

/// Running counters of a cache's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a cached outcome.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Outcomes written into the cache.
    pub stores: u64,
}

/// A store of simulation outcomes addressed by cell fingerprint.
///
/// Implementations must be thread-safe (sweeps fan cells out over the
/// worker pool) and must return outcomes **bit-identical** to what was
/// stored — the cache-correctness proptests compare hits against fresh
/// recomputations across the golden scheduler suite.
pub trait OutcomeCache: Send + Sync {
    /// The cached outcome for a fingerprint, if present.
    fn lookup(&self, fingerprint: Fingerprint) -> Option<SimOutcome>;

    /// Stores the outcome of a freshly simulated cell.
    fn store(&self, fingerprint: Fingerprint, outcome: &SimOutcome);

    /// Traffic counters (hits/misses/stores) since construction.
    fn stats(&self) -> CacheStats;
}

/// Thread-safe counters shared by cache implementations.
#[derive(Debug, Default)]
pub struct StatsCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl StatsCounters {
    /// Records a lookup result.
    pub fn note_lookup(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a store.
    pub fn note_store(&self) {
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    /// The current counter values.
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }
}

/// A purely in-process [`OutcomeCache`]: a mutexed hash map, no persistence.
///
/// This is what the `reproduce` binary installs globally so that figures
/// sharing cells (Fig. 4 and Fig. 5 run the identical comparison sweep and
/// only bucket differently) simulate them once per process. The persistent
/// JSON-lines cache of the experiment service lives in `mapreduce-server`
/// and implements the same trait.
#[derive(Debug, Default)]
pub struct MemoryCache {
    entries: Mutex<HashMap<Fingerprint, SimOutcome>>,
    stats: StatsCounters,
}

impl MemoryCache {
    /// An empty cache.
    pub fn new() -> Self {
        MemoryCache::default()
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache poisoned").len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl OutcomeCache for MemoryCache {
    fn lookup(&self, fingerprint: Fingerprint) -> Option<SimOutcome> {
        let hit = self
            .entries
            .lock()
            .expect("cache poisoned")
            .get(&fingerprint)
            .cloned();
        self.stats.note_lookup(hit.is_some());
        hit
    }

    fn store(&self, fingerprint: Fingerprint, outcome: &SimOutcome) {
        self.entries
            .lock()
            .expect("cache poisoned")
            .insert(fingerprint, outcome.clone());
        self.stats.note_store();
    }

    fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }
}

/// The process-wide cache hook consulted by
/// [`crate::runner::run_scheduler_averaged`].
static GLOBAL_CACHE: RwLock<Option<Arc<dyn OutcomeCache>>> = RwLock::new(None);

/// Installs a process-wide outcome cache; every subsequent figure sweep
/// routes its cells through it. Returns the previously installed cache, if
/// any.
pub fn install_global_cache(cache: Arc<dyn OutcomeCache>) -> Option<Arc<dyn OutcomeCache>> {
    GLOBAL_CACHE
        .write()
        .expect("global cache lock poisoned")
        .replace(cache)
}

/// Removes the process-wide cache, returning it.
pub fn clear_global_cache() -> Option<Arc<dyn OutcomeCache>> {
    GLOBAL_CACHE
        .write()
        .expect("global cache lock poisoned")
        .take()
}

/// The currently installed process-wide cache, if any.
pub fn global_cache() -> Option<Arc<dyn OutcomeCache>> {
    GLOBAL_CACHE
        .read()
        .expect("global cache lock poisoned")
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadSource;
    use std::path::PathBuf;

    fn outcome(label: &str) -> SimOutcome {
        SimOutcome::new(label.to_string(), 4, vec![], 10, 5, 1, 2, 1, 1)
    }

    #[test]
    fn fingerprints_are_golden_stable() {
        // These hex values pin the canonicalisation (JSON field set, key
        // order, number formatting, hash parameters). If this test fails
        // you have changed what existing persisted caches are keyed by:
        // bump deliberately and document the cache invalidation.
        let scenario = Scenario::scaled(50, 1);
        let fp = cell_fingerprint(SchedulerKind::paper_default(), &scenario, 2015);
        assert_eq!(fp.to_hex(), "4dfab2d8189ae363633735ebce2212c1");
        let fp = cell_fingerprint(SchedulerKind::Fifo, &scenario, 7);
        assert_eq!(fp.to_hex(), "090d7c1b019e60f79c248271d7a00beb");
        let fp = cell_fingerprint(
            SchedulerKind::Mantri,
            &Scenario::streaming(50, 1).with_machines(99),
            7,
        );
        assert_eq!(fp.to_hex(), "4a9515d66d593172c2841fbc72d1231a");
    }

    #[test]
    fn fingerprints_separate_every_cell_dimension() {
        let base = Scenario::scaled(40, 1);
        let fp = |kind: SchedulerKind, scenario: &Scenario, seed: u64| {
            cell_fingerprint(kind, scenario, seed)
        };
        let reference = fp(SchedulerKind::Fifo, &base, 1);
        // Same inputs → same hash.
        assert_eq!(reference, fp(SchedulerKind::Fifo, &base.clone(), 1));
        // Scheduler, parameters, seed, machines, profile and source all
        // reach the hash.
        assert_ne!(reference, fp(SchedulerKind::Fair, &base, 1));
        assert_ne!(
            fp(SchedulerKind::paper_default(), &base, 1),
            fp(
                SchedulerKind::SrptMsC {
                    epsilon: 0.5,
                    r: 3.0
                },
                &base,
                1
            )
        );
        assert_ne!(reference, fp(SchedulerKind::Fifo, &base, 2));
        assert_ne!(
            reference,
            fp(SchedulerKind::Fifo, &base.with_machines(41), 1)
        );
        assert_ne!(
            reference,
            fp(SchedulerKind::Fifo, &Scenario::scaled(41, 1), 1)
        );
        assert_ne!(
            reference,
            fp(
                SchedulerKind::Fifo,
                &base.clone().with_source(WorkloadSource::Streaming),
                1
            )
        );
        assert_ne!(
            reference,
            fp(
                SchedulerKind::Fifo,
                &base.clone().with_source(WorkloadSource::GoogleCsv {
                    path: PathBuf::from("a.csv")
                }),
                1
            )
        );
        // The seed list itself is *not* part of a cell: per-cell identity
        // comes from the concrete seed.
        let mut more_seeds = base.clone();
        more_seeds.seeds = vec![1, 2, 3];
        assert_eq!(reference, fp(SchedulerKind::Fifo, &more_seeds, 1));
        // A fault plan colds the cell; an explicitly empty one does not.
        use mapreduce_sim::{FaultClass, FaultPlan};
        assert_ne!(
            reference,
            fp(
                SchedulerKind::Fifo,
                &base.with_fault(FaultPlan::new(vec![FaultClass::crashes(8, 400.0, 50.0)])),
                1
            )
        );
        assert_eq!(
            reference,
            fp(SchedulerKind::Fifo, &base.with_fault(FaultPlan::none()), 1)
        );
    }

    #[test]
    fn csv_fingerprints_track_file_content() {
        let path =
            std::env::temp_dir().join(format!("mapreduce_fp_csv_{}.csv", std::process::id()));
        std::fs::write(&path, "1000000,,1,0,m,0,u,c,3\n").unwrap();
        let scenario =
            Scenario::scaled(10, 1).with_source(WorkloadSource::GoogleCsv { path: path.clone() });
        let a = cell_fingerprint(SchedulerKind::Fifo, &scenario, 1);
        assert_eq!(a, cell_fingerprint(SchedulerKind::Fifo, &scenario, 1));

        // Editing the file colds its cells: the content hash is part of the
        // fingerprint, not just the path.
        std::fs::write(&path, "1000000,,1,0,m,0,u,c,3\n2000000,,2,0,m,0,u,c,3\n").unwrap();
        let b = cell_fingerprint(SchedulerKind::Fifo, &scenario, 1);
        assert_ne!(a, b);

        // A missing file still fingerprints (the sweep fails later at
        // conversion), distinctly from any readable content.
        std::fs::remove_file(&path).unwrap();
        let c = cell_fingerprint(SchedulerKind::Fifo, &scenario, 1);
        assert_ne!(b, c);
        assert_eq!(c, cell_fingerprint(SchedulerKind::Fifo, &scenario, 1));
    }

    #[test]
    fn memory_cache_roundtrip_and_stats() {
        let cache = MemoryCache::new();
        let fp = Fingerprint::of_bytes(b"cell");
        assert!(cache.lookup(fp).is_none());
        assert!(cache.is_empty());
        let o = outcome("fifo");
        cache.store(fp, &o);
        assert_eq!(cache.lookup(fp), Some(o));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
    }

    #[test]
    fn global_cache_install_and_clear() {
        // Serialised against other global-cache users by taking whatever is
        // there and restoring it afterwards.
        let previous = clear_global_cache();
        assert!(global_cache().is_none());
        let cache = Arc::new(MemoryCache::new());
        assert!(install_global_cache(cache.clone()).is_none());
        assert!(global_cache().is_some());
        let back = clear_global_cache().expect("was installed");
        back.store(Fingerprint::of_bytes(b"x"), &outcome("x"));
        assert_eq!(cache.len(), 1, "handles alias the same cache");
        if let Some(previous) = previous {
            install_global_cache(previous);
        }
    }
}
