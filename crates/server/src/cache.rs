//! The persistent result cache: fingerprint → [`SimOutcome`], JSON lines on
//! disk plus an in-memory index.
//!
//! # Store format
//!
//! One entry per line, append-only:
//!
//! ```text
//! {"fingerprint":"4dfab2d8189ae363633735ebce2212c1","outcome":{...}}
//! ```
//!
//! Append-only means a crash mid-write corrupts at most the final line;
//! [`ResultCache::open`] skips lines that fail to parse (counting them in
//! [`ResultCache::skipped_lines`]) and later stores simply recompute and
//! re-append — a damaged cache degrades to a colder cache, never to a
//! panic. Re-stored fingerprints append a fresh line; the in-memory index
//! keeps the latest, and [`ResultCache::compact`] rewrites the file to one
//! line per live entry (dropping duplicates, corrupt lines and evicted
//! entries) — atomically, via a synced temporary file renamed over the
//! store, so a crash mid-compaction never truncates the cache. Deleting
//! the cache file is always safe: it only ever holds recomputable results.
//!
//! # Eviction
//!
//! An optional [`ResultCache::with_max_entries`] cap bounds the in-memory
//! index, evicting the oldest-inserted entries first. Evicted entries stay
//! on disk until the next `compact`, but are treated as misses.

use mapreduce_experiments::cache::{CacheStats, OutcomeCache, StatsCounters};
use mapreduce_sim::SimOutcome;
use mapreduce_support::hash::Fingerprint;
use mapreduce_support::json::{FromJson, JsonValue, ToJson};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// State behind the cache's mutex: the index, the insertion order (for
/// eviction) and the append handle.
#[derive(Debug)]
struct CacheInner {
    index: HashMap<Fingerprint, SimOutcome>,
    /// Insertion order of the live fingerprints; front = oldest.
    order: VecDeque<Fingerprint>,
    /// Append handle of the backing file (`None` for in-memory caches).
    file: Option<File>,
    /// Entries evicted over the lifetime of this handle.
    evicted: u64,
}

/// A persistent, thread-safe [`OutcomeCache`] backed by a JSON-lines file.
///
/// See the [module documentation](self) for the store format and the
/// recovery/eviction semantics.
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

/// Replaces `path` atomically: the content is written to a sibling
/// temporary file, synced, and renamed over the target. A crash at any
/// point leaves either the old file or the complete new one.
fn write_atomically(path: &Path, content: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(content.as_bytes())?;
        file.sync_all()?;
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // The store still holds its pre-rewrite content; don't leave
            // the orphaned temp file behind.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Parses one store line; `None` for anything malformed.
fn parse_line(line: &str) -> Option<(Fingerprint, SimOutcome)> {
    let value = JsonValue::parse(line).ok()?;
    let fingerprint = Fingerprint::from_json(value.get("fingerprint")?).ok()?;
    let outcome = SimOutcome::from_json(value.get("outcome")?).ok()?;
    Some((fingerprint, outcome))
}

impl ResultCache {
    /// An unbounded cache with no backing file (a [`MemoryCache`] with the
    /// service's eviction and compaction semantics).
    ///
    /// [`MemoryCache`]: mapreduce_experiments::MemoryCache
    pub fn in_memory() -> Self {
        ResultCache {
            inner: Mutex::new(CacheInner {
                index: HashMap::new(),
                order: VecDeque::new(),
                file: None,
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
        if path.exists() {
            let reader = BufReader::new(File::open(&path)?);
            for line in reader.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                match parse_line(&line) {
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
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(ResultCache {
            inner: Mutex::new(CacheInner {
                index,
                order,
                file: Some(file),
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
    /// in-memory caches.
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
    /// Returns an error if the file cannot be rewritten.
    pub fn compact(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut inner = self.inner.lock().expect("cache poisoned");
        let mut text = String::new();
        for fingerprint in &inner.order {
            if let Some(outcome) = inner.index.get(fingerprint) {
                text.push_str(&entry_line(*fingerprint, outcome));
                text.push('\n');
            }
        }
        // Close the old append handle before the rename so no further
        // appends land in the file being replaced.
        inner.file = None;
        write_atomically(path, &text)?;
        inner.file = Some(OpenOptions::new().append(true).open(path)?);
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
        }
        if inner.index.insert(fingerprint, outcome.clone()).is_none() {
            inner.order.push_back(fingerprint);
        }
        Self::evict_over(&mut inner, self.max_entries);
        self.stats.note_store();
    }

    fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(label: &str, makespan: u64) -> SimOutcome {
        SimOutcome::new(label.to_string(), 4, vec![], makespan, 9, 3, 7, 2, 2)
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
        // The recompute path: store again, and a clean reopen sees both.
        cache.store(torn, &outcome("srpt", 8));
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
