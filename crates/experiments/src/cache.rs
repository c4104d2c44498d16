//! Content-addressed result caching for experiment cells.
//!
//! A **cell** is the unit of simulation work in every figure sweep: one
//! scheduler over one scenario with one seed. Cells are pure functions of
//! their inputs (the engine is deterministic), so their outcomes can be
//! memoised under a content hash. This module defines
//!
//! * [`cell_fingerprint`] — the canonical [`Fingerprint`] of a cell: the
//!   FNV-1a-128 hash of a canonical JSON document covering the
//!   [`SimConfig`] the runner builds (machines, seed, speed, straggler
//!   model, …; the event-ring width is written as a constant), the workload
//!   description
//!   ([`GoogleTraceProfile`](mapreduce_workload::GoogleTraceProfile) +
//!   [`WorkloadSource`]) and the scheduler id with its parameters. Two cells
//!   agree on their fingerprint iff they agree on everything that can
//!   influence the outcome. Golden tests pin concrete hashes so the
//!   canonicalisation cannot drift silently (a drift would cold every
//!   persisted cache);
//! * [`OutcomeCache`] — the trait the cell resolver
//!   ([`crate::runner::resolve_cells`]) consults, and [`ResultCache`], its
//!   one implementation: an in-memory index, optionally backed by an
//!   append-only JSON-lines file (the `reproduce` binary installs an
//!   in-memory one, the experiment service in `mapreduce-server` a
//!   persistent one);
//! * a process-wide **global cache hook** ([`install_global_cache`]) through
//!   which the figure modules transparently reuse results: they call
//!   [`crate::runner::run_scheduler_averaged`], which routes every cell
//!   through the installed cache — so a warm second run of any figure is
//!   near-zero simulation work.

use crate::runner::SchedulerKind;
use crate::scenario::{Scenario, WorkloadSource};
use mapreduce_sim::{SimConfig, SimOutcome};
use mapreduce_support::fs::write_atomically;
use mapreduce_support::hash::{Fingerprint, Fnv1a128};
use mapreduce_support::json::{FromJson, JsonValue, ToJson};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
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
    config_fingerprint(&scenario.sim_config(seed), kind, scenario)
}

/// The fingerprint of [`cell_fingerprint`]'s document for an explicit
/// engine `config`.
fn config_fingerprint(config: &SimConfig, kind: SchedulerKind, scenario: &Scenario) -> Fingerprint {
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

/// State behind the cache's mutex: the index, the insertion order (for
/// eviction) and the append handle.
#[derive(Debug)]
struct CacheInner {
    index: HashMap<Fingerprint, SimOutcome>,
    /// Insertion order of the live fingerprints; front = oldest.
    order: VecDeque<Fingerprint>,
    /// Append handle of the backing file (`None` for in-memory caches).
    file: Option<File>,
    /// Entry lines in the backing file: the live entries plus dead ones
    /// (superseded re-stores, lines skipped at open, evicted entries).
    disk_lines: usize,
    /// Entries evicted over the lifetime of this handle.
    evicted: u64,
}

/// A thread-safe [`OutcomeCache`]: an in-memory index, optionally backed by
/// a JSON-lines file.
///
/// # Store format
///
/// One entry per line, append-only:
///
/// ```text
/// {"fingerprint":"4dfab2d8189ae363633735ebce2212c1","outcome":{...}}
/// ```
///
/// Append-only means a crash mid-write corrupts at most the final line;
/// [`ResultCache::open`] skips lines that fail to parse (counting them in
/// [`ResultCache::skipped_lines`]), ends a torn final line, and later stores
/// simply recompute and re-append — a damaged cache degrades to a colder
/// cache, never to a panic. Re-stored fingerprints append a fresh line; the
/// in-memory index keeps the latest, and [`ResultCache::compact`] rewrites
/// the file to one line per live entry (dropping duplicates, corrupt lines
/// and evicted entries) — atomically, via a synced temporary file renamed
/// over the store, so a crash mid-compaction never truncates the cache. A
/// store compacts on its own once the dead lines outnumber the live
/// entries, so a long-running service keeps the file within about twice its
/// live size. Deleting the cache file is always safe: it only ever holds
/// recomputable results.
///
/// # Eviction
///
/// An optional [`ResultCache::with_max_entries`] cap bounds the in-memory
/// index, evicting the oldest-inserted entries first. Evicted entries stay
/// on disk until the next compaction, but are treated as misses.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    path: Option<PathBuf>,
    max_entries: usize,
    skipped_lines: usize,
    stats: StatsCounters,
}

/// Serializes one store line.
fn entry_line(fingerprint: Fingerprint, outcome: &SimOutcome) -> String {
    JsonValue::object([
        ("fingerprint", fingerprint.to_json()),
        ("outcome", outcome.to_json()),
    ])
    .to_compact_string()
}

/// Parses one store line; `None` for anything malformed.
fn parse_line(line: &str) -> Option<(Fingerprint, SimOutcome)> {
    let value = JsonValue::parse(line).ok()?;
    let fingerprint = Fingerprint::from_json(value.get("fingerprint")?).ok()?;
    let outcome = SimOutcome::from_json(value.get("outcome")?).ok()?;
    Some((fingerprint, outcome))
}

impl ResultCache {
    /// An unbounded cache with no backing file: the same index, eviction
    /// and statistics, nothing persisted.
    pub fn in_memory() -> Self {
        ResultCache {
            inner: Mutex::new(CacheInner {
                index: HashMap::new(),
                order: VecDeque::new(),
                file: None,
                disk_lines: 0,
                evicted: 0,
            }),
            path: None,
            max_entries: usize::MAX,
            skipped_lines: 0,
            stats: StatsCounters::default(),
        }
    }

    /// Opens (or creates) a persistent cache at `path`, loading every intact
    /// entry into the index. Parent directories are created as needed.
    ///
    /// # Errors
    /// Returns an error if the file (or a parent directory) cannot be
    /// created or read. Malformed *content* is never an error: corrupt lines
    /// are counted in [`ResultCache::skipped_lines`] and skipped.
    pub fn open<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut index = HashMap::new();
        let mut order = VecDeque::new();
        let mut skipped = 0usize;
        let mut disk_lines = 0usize;
        // Whether the file ends inside a line (a crash tore the last append).
        let mut torn_tail = false;
        if path.exists() {
            let mut reader = BufReader::new(File::open(&path)?);
            let mut buf = String::new();
            loop {
                buf.clear();
                if reader.read_line(&mut buf)? == 0 {
                    break;
                }
                torn_tail = !buf.ends_with('\n');
                let line = buf.trim_end();
                if line.is_empty() {
                    continue;
                }
                disk_lines += 1;
                match parse_line(line) {
                    Some((fingerprint, outcome)) => {
                        // Later lines win (append-only updates).
                        if index.insert(fingerprint, outcome).is_none() {
                            order.push_back(fingerprint);
                        }
                    }
                    None => skipped += 1,
                }
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if torn_tail {
            // End the torn line so the next append starts a line of its own
            // instead of gluing its entry onto the fragment.
            file.write_all(b"\n")?;
        }
        Ok(ResultCache {
            inner: Mutex::new(CacheInner {
                index,
                order,
                file: Some(file),
                disk_lines,
                evicted: 0,
            }),
            path: Some(path),
            max_entries: usize::MAX,
            skipped_lines: skipped,
            stats: StatsCounters::default(),
        })
    }

    /// Caps the in-memory index at `max_entries` live entries (oldest-first
    /// eviction), evicting immediately if already over.
    ///
    /// # Panics
    /// Panics if `max_entries` is zero.
    pub fn with_max_entries(self, max_entries: usize) -> Self {
        assert!(max_entries >= 1, "cache capacity must be at least 1");
        let cache = ResultCache {
            max_entries,
            ..self
        };
        {
            let mut inner = cache.inner.lock().expect("cache poisoned");
            Self::evict_over(&mut inner, max_entries);
        }
        cache
    }

    /// The backing file, if this cache is persistent.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of live entries in the index.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").index.len()
    }

    /// Whether the index holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Corrupt lines skipped while loading the backing file.
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Entries evicted by the capacity cap since this handle was opened.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().expect("cache poisoned").evicted
    }

    fn evict_over(inner: &mut CacheInner, max_entries: usize) {
        while inner.index.len() > max_entries {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if inner.index.remove(&oldest).is_some() {
                inner.evicted += 1;
            }
        }
    }

    /// Rewrites the backing file to exactly the live index (one line per
    /// entry, insertion order): drops duplicate lines from re-stores,
    /// corrupt lines, and entries evicted by the capacity cap. A no-op for
    /// in-memory caches. [`store`] calls it on its own once the dead lines
    /// outnumber the live entries.
    ///
    /// The rewrite is **atomic**: the new content goes to a sibling
    /// temporary file (synced to disk) and replaces the store via
    /// `rename`, so a crash mid-compaction leaves either the old file or
    /// the new one — never a truncated mixture. Appends from [`store`]
    /// remain crash-bounded by the line format instead: a torn final line
    /// is skipped (and recomputed) on the next open.
    ///
    /// [`store`]: OutcomeCache::store
    ///
    /// # Errors
    /// Returns an error if the file cannot be rewritten. The store then
    /// keeps its old content and later stores still append to it.
    pub fn compact(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        Self::rewrite(path, &mut self.inner.lock().expect("cache poisoned"))
    }

    fn rewrite(path: &Path, inner: &mut CacheInner) -> std::io::Result<()> {
        let mut text = String::new();
        let mut lines = 0;
        for fingerprint in &inner.order {
            if let Some(outcome) = inner.index.get(fingerprint) {
                text.push_str(&entry_line(*fingerprint, outcome));
                text.push('\n');
                lines += 1;
            }
        }
        // Close the old append handle before the rename so no further
        // appends land in the file being replaced, then reopen whichever
        // file the rewrite left at `path`.
        inner.file = None;
        let written = write_atomically(path, &text);
        inner.file = Some(OpenOptions::new().append(true).open(path)?);
        written?;
        inner.disk_lines = lines;
        Ok(())
    }
}

impl OutcomeCache for ResultCache {
    fn lookup(&self, fingerprint: Fingerprint) -> Option<SimOutcome> {
        let hit = self
            .inner
            .lock()
            .expect("cache poisoned")
            .index
            .get(&fingerprint)
            .cloned();
        self.stats.note_lookup(hit.is_some());
        hit
    }

    fn store(&self, fingerprint: Fingerprint, outcome: &SimOutcome) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if let Some(file) = &mut inner.file {
            // A failed append degrades to a colder cache on the next open;
            // the in-memory entry below still serves this process.
            let line = entry_line(fingerprint, outcome);
            if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
                eprintln!("result cache: could not append entry: {e}");
            }
            inner.disk_lines += 1;
        }
        if inner.index.insert(fingerprint, outcome.clone()).is_none() {
            inner.order.push_back(fingerprint);
        }
        Self::evict_over(&mut inner, self.max_entries);
        if let Some(path) = &self.path {
            // Dead lines (`disk_lines - live`) outnumber the live ones.
            if inner.disk_lines > 2 * inner.index.len() {
                if let Err(e) = Self::rewrite(path, &mut inner) {
                    eprintln!("result cache: could not compact: {e}");
                }
            }
        }
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

    fn outcome(label: &str, makespan: u64) -> SimOutcome {
        SimOutcome::new(label.to_string(), 4, vec![], makespan, 9, 3, 7, 2, 2)
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
    fn ring_width_is_not_part_of_the_key() {
        // The calendar ring width never changes an outcome, so configs that
        // differ only in it share one cell (and every persisted entry).
        let scenario = Scenario::scaled(50, 1);
        let kind = SchedulerKind::paper_default();
        let config = scenario.sim_config(2015);
        for bits in [4, 11, 20] {
            assert_eq!(
                config_fingerprint(&config.clone().with_event_ring_bits(bits), kind, &scenario),
                cell_fingerprint(kind, &scenario, 2015),
                "ring bits {bits} moved the fingerprint"
            );
        }
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
        let cache = ResultCache::in_memory();
        let fp = Fingerprint::of_bytes(b"cell");
        assert!(cache.lookup(fp).is_none());
        assert!(cache.is_empty());
        let o = outcome("fifo", 10);
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
        let cache = Arc::new(ResultCache::in_memory());
        assert!(install_global_cache(cache.clone()).is_none());
        assert!(global_cache().is_some());
        let back = clear_global_cache().expect("was installed");
        back.store(Fingerprint::of_bytes(b"x"), &outcome("x", 10));
        assert_eq!(cache.len(), 1, "handles alias the same cache");
        if let Some(previous) = previous {
            install_global_cache(previous);
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "mapreduce_result_cache_{tag}_{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn persistent_roundtrip_and_reload() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let fp = Fingerprint::of_bytes(b"cell-a");
        {
            let cache = ResultCache::open(&path).unwrap();
            assert!(cache.is_empty());
            assert!(cache.lookup(fp).is_none());
            cache.store(fp, &outcome("fifo", 11));
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.path(), Some(path.as_path()));
        }
        // A fresh handle reloads the entry from disk.
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.skipped_lines(), 0);
        assert_eq!(cache.lookup(fp), Some(outcome("fifo", 11)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        let good = Fingerprint::of_bytes(b"good");
        {
            let cache = ResultCache::open(&path).unwrap();
            cache.store(good, &outcome("fifo", 5));
        }
        // Damage the file: garbage, a truncated JSON line, a wrong-schema
        // line, and a valid JSON line with an invalid fingerprint.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json at all\n");
        text.push_str("{\"fingerprint\":\"00\n");
        text.push_str("{\"something\":1}\n");
        text.push_str("{\"fingerprint\":\"zz\",\"outcome\":{}}\n");
        std::fs::write(&path, text).unwrap();

        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.skipped_lines(), 4);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(good), Some(outcome("fifo", 5)));

        // Compaction rewrites only the live entry; a re-open sees no junk.
        cache.compact().unwrap();
        let clean = ResultCache::open(&path).unwrap();
        assert_eq!(clean.skipped_lines(), 0);
        assert_eq!(clean.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deeply_nested_lines_are_skipped_not_fatal() {
        let path = temp_path("deep");
        let _ = std::fs::remove_file(&path);
        let good = Fingerprint::of_bytes(b"good");
        {
            let cache = ResultCache::open(&path).unwrap();
            cache.store(good, &outcome("fifo", 5));
        }
        // Deep enough to overflow a recursive parser's stack.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&"[".repeat(200_000));
        text.push('\n');
        std::fs::write(&path, text).unwrap();

        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.skipped_lines(), 1);
        assert_eq!(cache.lookup(good), Some(outcome("fifo", 5)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restores_update_in_place_and_latest_line_wins() {
        let path = temp_path("restore");
        let _ = std::fs::remove_file(&path);
        let fp = Fingerprint::of_bytes(b"cell");
        {
            let cache = ResultCache::open(&path).unwrap();
            cache.store(fp, &outcome("v1", 1));
            cache.store(fp, &outcome("v2", 2));
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.lookup(fp), Some(outcome("v2", 2)));
        }
        // Both lines are on disk; the reload keeps the latest.
        let lines = std::fs::read_to_string(&path).unwrap();
        assert_eq!(lines.lines().count(), 2);
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.lookup(fp), Some(outcome("v2", 2)));
        cache.compact().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_line_recovers_by_skip_and_recompute() {
        // A crash mid-append leaves a torn final line. The reopen must keep
        // every complete entry, count exactly one skipped line, and let the
        // torn cell be recomputed and re-stored as if it were a cold miss.
        let path = temp_path("truncated");
        let _ = std::fs::remove_file(&path);
        let intact = Fingerprint::of_bytes(b"intact");
        let torn = Fingerprint::of_bytes(b"torn");
        {
            let cache = ResultCache::open(&path).unwrap();
            cache.store(intact, &outcome("fifo", 3));
            cache.store(torn, &outcome("srpt", 8));
        }
        // Chop the file mid-way through the final line.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.trim_end().len() - 10;
        std::fs::write(&path, &text[..cut]).unwrap();

        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.skipped_lines(), 1);
        assert_eq!(cache.lookup(intact), Some(outcome("fifo", 3)));
        assert!(cache.lookup(torn).is_none(), "torn entry reads as a miss");
        // The recompute path: store again. The open ended the torn line,
        // so the re-stored entry has a line of its own and a plain reopen
        // (no compaction) reads it back past the one dead fragment.
        cache.store(torn, &outcome("srpt", 8));
        let plain = ResultCache::open(&path).unwrap();
        assert_eq!(plain.skipped_lines(), 1);
        assert_eq!(plain.lookup(torn), Some(outcome("srpt", 8)));
        // After a compaction a clean reopen sees both and no junk.
        cache.compact().unwrap();
        let clean = ResultCache::open(&path).unwrap();
        assert_eq!(clean.skipped_lines(), 0);
        assert_eq!(clean.len(), 2);
        assert_eq!(clean.lookup(torn), Some(outcome("srpt", 8)));
        // The atomic rewrite leaves no temp file behind.
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_is_atomic_under_concurrent_stores() {
        // Stores racing a compaction must never corrupt the file: every
        // line on disk afterwards is either parseable or the torn tail of
        // an append — and a reopen plus compact converges to the index.
        let path = temp_path("atomic");
        let _ = std::fs::remove_file(&path);
        let cache = ResultCache::open(&path).unwrap();
        for i in 0..16 {
            let fp = Fingerprint::of_bytes(format!("cell-{i}").as_bytes());
            cache.store(fp, &outcome("x", i));
            if i % 4 == 0 {
                cache.compact().unwrap();
            }
        }
        cache.compact().unwrap();
        let reopened = ResultCache::open(&path).unwrap();
        assert_eq!(reopened.skipped_lines(), 0);
        assert_eq!(reopened.len(), 16);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restores_compact_on_their_own() {
        // A long-running service re-stores the same cells over and over;
        // without compaction every re-store would grow the file by a line.
        let path = temp_path("autocompact");
        let _ = std::fs::remove_file(&path);
        let fps: Vec<Fingerprint> = (0..5)
            .map(|i| Fingerprint::of_bytes(format!("cell-{i}").as_bytes()))
            .collect();
        let cache = ResultCache::open(&path).unwrap();
        for round in 0..40u64 {
            for (i, fp) in fps.iter().enumerate() {
                cache.store(*fp, &outcome("x", round * 10 + i as u64));
                let lines = std::fs::read_to_string(&path).unwrap().lines().count();
                assert!(
                    lines <= 2 * cache.len() + 1,
                    "{lines} lines for {} live entries",
                    cache.len()
                );
            }
        }
        let reopened = ResultCache::open(&path).unwrap();
        assert_eq!(reopened.skipped_lines(), 0);
        assert_eq!(reopened.len(), fps.len());
        for (i, fp) in fps.iter().enumerate() {
            assert_eq!(reopened.lookup(*fp), cache.lookup(*fp));
            assert_eq!(reopened.lookup(*fp), Some(outcome("x", 390 + i as u64)));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn capacity_cap_evicts_oldest_first() {
        let cache = ResultCache::in_memory().with_max_entries(2);
        let fps: Vec<Fingerprint> = (0..3)
            .map(|i| Fingerprint::of_bytes(format!("cell-{i}").as_bytes()))
            .collect();
        for (i, fp) in fps.iter().enumerate() {
            cache.store(*fp, &outcome("x", i as u64));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evicted(), 1);
        assert!(cache.lookup(fps[0]).is_none(), "oldest entry evicted");
        assert!(cache.lookup(fps[1]).is_some());
        assert!(cache.lookup(fps[2]).is_some());
        // In-memory compaction is a no-op.
        cache.compact().unwrap();
        assert!(cache.path().is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let _ = ResultCache::in_memory().with_max_entries(0);
    }
}
