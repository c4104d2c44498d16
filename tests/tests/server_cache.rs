//! Acceptance tests of the experiment service: cache correctness, recovery
//! and warm-sweep behaviour.
//!
//! The contract of the content-addressed result cache is that *where* a
//! cell's outcome comes from must not change what it is: a cache hit — in
//! memory, from a reloaded JSON-lines file, or deduplicated in-flight —
//! must be **bit-identical** to a fresh recompute, across the golden
//! scheduler suite. And the failure modes of a persistent store (corrupt
//! lines, eviction) must degrade to recomputation, never to a panic or a
//! wrong result.

use mapreduce_experiments::cache::OutcomeCache;
use mapreduce_experiments::{
    clear_global_cache, fig1, fig4, fig5, install_global_cache, run_cell, Scenario, SchedulerKind,
};
use mapreduce_metrics::FlowtimeSummary;
use mapreduce_server::{ResultCache, SweepRequest, SweepServer};
use mapreduce_support::proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The golden-suite line-up of the scheduler registry (every kind the
/// experiment harness sweeps in the figures).
fn golden_kinds() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::paper_default(),
        SchedulerKind::Mantri,
        SchedulerKind::Late,
        SchedulerKind::Fair,
        SchedulerKind::Fifo,
        SchedulerKind::Sca,
    ]
}

fn temp_cache_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mapreduce_server_cache_{tag}_{}.jsonl",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Warm sweeps simulate nothing and reproduce cold results bit for bit,
    /// and every cached outcome equals a from-scratch recompute of its cell
    /// — the acceptance property of the result cache.
    #[test]
    fn cache_hits_are_bit_identical_to_fresh_recomputes(
        jobs in 8usize..28,
        machines in 4usize..48,
        num_seeds in 1usize..3,
        seed0 in 0u64..1000,
    ) {
        let mut scenario = Scenario::scaled(jobs, num_seeds);
        scenario.machines = machines;
        scenario.seeds = (0..num_seeds as u64).map(|i| seed0 + i).collect();
        let request = SweepRequest::new(scenario.clone(), golden_kinds());

        let server = SweepServer::new(ResultCache::in_memory());
        let cold = server.submit(&request);
        prop_assert_eq!(cold.cache_hits, 0);
        prop_assert_eq!(cold.simulated, request.num_cells());
        prop_assert_eq!(cold.cells.len(), request.num_cells());

        // Warm rerun: zero simulations, every cell a hit, identical rows.
        let warm = server.submit(&request);
        prop_assert_eq!(warm.simulated, 0);
        prop_assert_eq!(warm.cache_misses, 0);
        prop_assert_eq!(warm.cache_hits, request.num_cells());
        prop_assert_eq!(&warm.averages, &cold.averages);
        for (w, c) in warm.cells.iter().zip(&cold.cells) {
            prop_assert!(w.from_cache);
            prop_assert_eq!(&w.summary, &c.summary);
            prop_assert_eq!(w.fingerprint, c.fingerprint);
        }

        // Ground truth: each cached outcome is bit-identical to an
        // independent recompute of the cell.
        for cell in &cold.cells {
            let fresh = run_cell(cell.scheduler, &scenario, cell.seed);
            let cached = server
                .cache()
                .lookup(cell.fingerprint)
                .expect("cell cached after cold run");
            prop_assert!(
                cached == fresh,
                "{} seed {} diverged from recompute",
                cell.summary.scheduler,
                cell.seed
            );
            prop_assert_eq!(&FlowtimeSummary::from_outcome(&fresh), &cell.summary);
        }
    }
}

/// Persistence: a cache file written by one server serves a fresh server
/// warm; corrupting a stored line degrades that cell to recomputation — no
/// panic, same results.
#[test]
fn persistent_cache_survives_reopen_and_recovers_from_corruption() {
    let path = temp_cache_path("reopen");
    let _ = std::fs::remove_file(&path);
    let scenario = Scenario::scaled(20, 2);
    let request = SweepRequest::new(
        scenario,
        vec![SchedulerKind::Fifo, SchedulerKind::paper_default()],
    );

    let cold = {
        let server = SweepServer::new(ResultCache::open(&path).unwrap());
        server.submit(&request)
    };
    assert_eq!(cold.simulated, 4);

    // A fresh process (new server, same file) is fully warm.
    {
        let server = SweepServer::new(ResultCache::open(&path).unwrap());
        assert_eq!(server.cache().skipped_lines(), 0);
        let warm = server.submit(&request);
        assert_eq!(warm.simulated, 0);
        assert_eq!(warm.cache_hits, request.num_cells());
        assert_eq!(warm.averages, cold.averages);
    }

    // Corrupt the first stored line: that cell (and only that cell) is
    // recomputed; the results still match the cold run bit for bit.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let truncated = &lines[0][..lines[0].len() / 2];
    lines[0] = truncated;
    std::fs::write(&path, lines.join("\n")).unwrap();

    let server = SweepServer::new(ResultCache::open(&path).unwrap());
    assert_eq!(server.cache().skipped_lines(), 1);
    let recovered = server.submit(&request);
    assert_eq!(recovered.simulated, 1, "only the damaged cell recomputes");
    assert_eq!(recovered.cache_hits, request.num_cells() - 1);
    assert_eq!(recovered.averages, cold.averages);
    for (r, c) in recovered.cells.iter().zip(&cold.cells) {
        assert_eq!(r.summary, c.summary);
    }
    let _ = std::fs::remove_file(&path);
}

/// Eviction under a capacity cap is a cold cell, not an error: the evicted
/// cell recomputes to the identical result.
#[test]
fn evicted_entries_recompute_identically() {
    let scenario = Scenario::scaled(15, 1);
    let request = SweepRequest::new(scenario, vec![SchedulerKind::Fifo, SchedulerKind::Mantri]);
    let server = SweepServer::new(ResultCache::in_memory().with_max_entries(1));
    let cold = server.submit(&request);
    assert_eq!(cold.simulated, 2);
    assert_eq!(server.cache().len(), 1, "cap holds one entry");
    assert_eq!(server.cache().evicted(), 1);

    // Rerun: one cell hits (the survivor), the evicted one recomputes —
    // with identical results.
    let rerun = server.submit(&request);
    assert_eq!(rerun.cache_hits, 1);
    assert_eq!(rerun.simulated, 1);
    assert_eq!(rerun.averages, cold.averages);
}

/// Cells sharing a fingerprint within one request are simulated once.
#[test]
fn in_flight_duplicates_are_deduplicated() {
    let scenario = Scenario::scaled(15, 1);
    let request = SweepRequest::new(scenario, vec![SchedulerKind::Fifo, SchedulerKind::Fifo]);
    let server = SweepServer::new(ResultCache::in_memory());
    let response = server.submit(&request);
    assert_eq!(response.cells.len(), 2);
    assert_eq!(response.simulated, 1);
    assert_eq!(response.deduped_in_flight, 1);
    assert_eq!(response.cache_misses, 2);
    assert_eq!(response.cells[0].summary, response.cells[1].summary);
    assert_eq!(response.cells[0].fingerprint, response.cells[1].fingerprint);
}

/// Serialises the tests that install a process-global cache (the hook is
/// process-wide state).
static GLOBAL_CACHE_LOCK: Mutex<()> = Mutex::new(());

/// Restores the previous global cache even if the test panics.
struct GlobalCacheGuard(Option<Arc<dyn OutcomeCache>>);

impl GlobalCacheGuard {
    fn install(cache: Arc<dyn OutcomeCache>) -> Self {
        GlobalCacheGuard(install_global_cache(cache))
    }
}

impl Drop for GlobalCacheGuard {
    fn drop(&mut self) {
        clear_global_cache();
        if let Some(previous) = self.0.take() {
            install_global_cache(previous);
        }
    }
}

/// The tentpole acceptance at the figure level: with a cache installed, a
/// second run of a figure sweep performs zero cell simulations and renders
/// identical rows.
#[test]
fn warm_figure_rerun_simulates_nothing() {
    let _serial = GLOBAL_CACHE_LOCK.lock().unwrap();
    // An unusual machine count keeps these fingerprints disjoint from any
    // other test traffic in this process.
    let scenario = Scenario::scaled(18, 2).with_machines(23);
    let cache = Arc::new(ResultCache::in_memory());
    let _guard = GlobalCacheGuard::install(cache.clone());

    let epsilons = [0.3, 0.6, 0.9];
    let cold = fig1::run(&scenario, &epsilons);
    let after_cold = cache.stats();
    let cells = epsilons.len() * scenario.seeds.len();
    assert_eq!(after_cold.misses, cells as u64);
    assert_eq!(after_cold.stores, cells as u64);
    assert_eq!(after_cold.hits, 0);

    let warm = fig1::run(&scenario, &epsilons);
    let after_warm = cache.stats();
    assert_eq!(warm, cold, "warm figure rows must be bit-identical");
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "warm rerun must not simulate any cell"
    );
    assert_eq!(after_warm.hits, cells as u64);
}

/// Figures that share cells reuse each other's work: Fig. 5 runs the exact
/// sweep Fig. 4 ran (only the flowtime bucket differs), so after Fig. 4 the
/// whole Fig. 5 sweep is cache hits.
#[test]
fn fig5_reuses_fig4_cells_through_the_cache() {
    let _serial = GLOBAL_CACHE_LOCK.lock().unwrap();
    let scenario = Scenario::scaled(16, 1).with_machines(29);
    let cache = Arc::new(ResultCache::in_memory());
    let _guard = GlobalCacheGuard::install(cache.clone());

    let _fig4 = fig4::run(&scenario);
    let after_fig4 = cache.stats();
    assert!(after_fig4.misses > 0);

    let _fig5 = fig5::run(&scenario);
    let after_fig5 = cache.stats();
    assert_eq!(
        after_fig5.misses, after_fig4.misses,
        "fig5 must not simulate beyond fig4's cells"
    );
    assert!(after_fig5.hits > after_fig4.hits);
}
