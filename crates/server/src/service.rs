//! The sweep service: requests, responses, and the cache-aware worker-pool
//! runtime.
//!
//! A [`SweepRequest`] names a [`Scenario`] and a scheduler line-up — exactly
//! the shape of one figure sweep. [`SweepServer::submit`] expands it into
//! cells (scheduler × seed) and hands them to the experiment harness's cell
//! resolver, [`resolve_cells`] — the same one the figures use. It serves
//! cache hits from the [`ResultCache`], simulates each distinct missing
//! fingerprint once on the deterministic worker pool
//! ([`mapreduce_support::par_map`], bit-identical under any thread count),
//! fans that outcome back out to in-flight duplicates, and stores it.
//!
//! The per-cell outcome is the same however it was resolved, so a
//! [`SweepResponse`] is bit-for-bit the same whether it was computed cold or
//! served warm — the counters ([`SweepResponse::cache_hits`],
//! [`SweepResponse::simulated`], …) are the only difference, and they are
//! exactly how the acceptance tests verify that a warm figure rerun
//! performs zero cell simulations.

use mapreduce_experiments::runner::{average_summary, resolve_cells};
use mapreduce_experiments::{ResultCache, Scenario, SchedulerKind};
use mapreduce_metrics::{
    fold_run_telemetry, FlowtimeSketches, FlowtimeSummary, MetricsRegistry, QuantileSketch,
};
use mapreduce_support::hash::Fingerprint;
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-request cap on the number of points of a requested CDF series —
/// the response ships O(points), never per-job data, and this keeps even a
/// hostile request's series bounded.
pub const MAX_CDF_POINTS: usize = 512;

/// A `cdf` option on a sweep request: the flowtime window and resolution of
/// the sketch-backed CDF series to return per scheduler (the shape of the
/// paper's Figs. 4 and 5). The server answers from streaming
/// [`QuantileSketch`]es, so the response carries `points` pairs per
/// scheduler — never per-job records — regardless of job count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfRequest {
    /// Inclusive lower edge of the flowtime window.
    pub lo: f64,
    /// Upper edge of the flowtime window.
    pub hi: f64,
    /// Number of evenly spaced evaluation points in `[lo, hi]`.
    pub points: usize,
}

impl ToJson for CdfRequest {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("lo", self.lo.to_json()),
            ("hi", self.hi.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

impl FromJson for CdfRequest {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(CdfRequest {
            lo: f64::from_json(value.field("lo")?)?,
            hi: f64::from_json(value.field("hi")?)?,
            points: usize::from_json(value.field("points")?)?,
        })
    }
}

/// One sweep: a scenario and the schedulers to run over it. The request's
/// cells are the cross product `schedulers × scenario.seeds`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The workload/cluster/seeds description shared by every cell.
    pub scenario: Scenario,
    /// The scheduler line-up; one summary row per entry in the response.
    pub schedulers: Vec<SchedulerKind>,
    /// Optional tenant tag: purely accounting (per-tenant lifetime counters
    /// in the server's metrics registry), never part of cell fingerprints —
    /// tenants share the result cache by design.
    pub tenant: Option<String>,
    /// Optional sketch-backed CDF series to include in the response.
    pub cdf: Option<CdfRequest>,
}

impl SweepRequest {
    /// Builds a request.
    pub fn new(scenario: Scenario, schedulers: Vec<SchedulerKind>) -> Self {
        SweepRequest {
            scenario,
            schedulers,
            tenant: None,
            cdf: None,
        }
    }

    /// Tags the request with a tenant name (per-tenant lifetime counters).
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Asks for a sketch-backed CDF series over `[lo, hi]` with `points`
    /// evaluation points.
    #[must_use]
    pub fn with_cdf(mut self, lo: f64, hi: f64, points: usize) -> Self {
        self.cdf = Some(CdfRequest { lo, hi, points });
        self
    }

    /// Number of cells this request expands into.
    pub fn num_cells(&self) -> usize {
        self.schedulers.len() * self.scenario.seeds.len()
    }

    /// Rejects degenerate requests that cannot produce a meaningful sweep —
    /// the protocol layer answers these with an error line instead of
    /// letting them reach the simulation's assertions.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.schedulers.is_empty() {
            return Err("request needs at least one scheduler".to_string());
        }
        if self.scenario.seeds.is_empty() {
            return Err("scenario needs at least one seed".to_string());
        }
        if self.scenario.machines == 0 {
            return Err("scenario needs at least one machine".to_string());
        }
        if self.scenario.profile.num_jobs == 0 {
            return Err("scenario profile needs at least one job".to_string());
        }
        if self.scenario.profile.classes.is_empty() {
            return Err("scenario profile needs at least one job class".to_string());
        }
        if let Some(tenant) = &self.tenant {
            if tenant.is_empty() {
                return Err("tenant name must not be empty".to_string());
            }
            if tenant.len() > 120 {
                return Err("tenant name exceeds 120 bytes".to_string());
            }
            if tenant.chars().any(|c| c.is_control()) {
                return Err("tenant name must not contain control characters".to_string());
            }
        }
        if let Some(cdf) = &self.cdf {
            if !(cdf.lo.is_finite() && cdf.hi.is_finite()) || cdf.hi <= cdf.lo {
                return Err("cdf window needs finite hi > lo".to_string());
            }
            if cdf.points < 2 {
                return Err("cdf series needs at least two points".to_string());
            }
            if cdf.points > MAX_CDF_POINTS {
                return Err(format!(
                    "cdf series of {} points exceeds the cap of {MAX_CDF_POINTS}",
                    cdf.points
                ));
            }
        }
        Ok(())
    }

    /// The cells in canonical order (scheduler-major, seeds in scenario
    /// order).
    fn cells(&self) -> Vec<(SchedulerKind, u64)> {
        self.schedulers
            .iter()
            .flat_map(|&kind| self.scenario.seeds.iter().map(move |&seed| (kind, seed)))
            .collect()
    }
}

impl ToJson for SweepRequest {
    fn to_json(&self) -> JsonValue {
        // `tenant` and `cdf` are only emitted when set, so request JSON from
        // before these options existed stays byte-identical.
        let mut fields = vec![
            ("scenario", self.scenario.to_json()),
            ("schedulers", self.schedulers.to_json()),
        ];
        if let Some(tenant) = &self.tenant {
            fields.push(("tenant", tenant.to_json()));
        }
        if let Some(cdf) = &self.cdf {
            fields.push(("cdf", cdf.to_json()));
        }
        JsonValue::object(fields)
    }
}

impl FromJson for SweepRequest {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(SweepRequest {
            scenario: Scenario::from_json(value.field("scenario")?)?,
            schedulers: Vec::from_json(value.field("schedulers")?)?,
            tenant: match value.get("tenant") {
                Some(JsonValue::Null) | None => None,
                Some(v) => Some(String::from_json(v)?),
            },
            cdf: match value.get("cdf") {
                Some(JsonValue::Null) | None => None,
                Some(v) => Some(CdfRequest::from_json(v)?),
            },
        })
    }
}

/// The outcome of one cell, as reported to the requester.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The scheduler of this cell.
    pub scheduler: SchedulerKind,
    /// The seed of this cell.
    pub seed: u64,
    /// The cell's content fingerprint (the cache key).
    pub fingerprint: Fingerprint,
    /// Whether the outcome was served from the cache (`false` for every
    /// cell this request simulated and for the in-flight duplicates that
    /// reused one of them).
    pub from_cache: bool,
    /// Flowtime summary of the cell's outcome.
    pub summary: FlowtimeSummary,
}

impl ToJson for CellResult {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("scheduler", self.scheduler.to_json()),
            ("seed", self.seed.to_json()),
            ("fingerprint", self.fingerprint.to_json()),
            ("from_cache", self.from_cache.to_json()),
            ("summary", self.summary.to_json()),
        ])
    }
}

impl FromJson for CellResult {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(CellResult {
            scheduler: SchedulerKind::from_json(value.field("scheduler")?)?,
            seed: u64::from_json(value.field("seed")?)?,
            fingerprint: Fingerprint::from_json(value.field("fingerprint")?)?,
            from_cache: bool::from_json(value.field("from_cache")?)?,
            summary: FlowtimeSummary::from_json(value.field("summary")?)?,
        })
    }
}

/// The sketch-backed CDF series of one scheduler in a [`SweepResponse`]:
/// `points` `(flowtime, cumulative fraction of all jobs)` pairs read off a
/// streaming [`QuantileSketch`] merged across the scheduler's seeds. The
/// response ships exactly these pairs — no per-job records — so its size is
/// independent of the job count, and the curve matches the exact
/// [`mapreduce_metrics::Ecdf`] within [`QuantileSketch::RELATIVE_ERROR`].
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerCdf {
    /// The scheduler this series belongs to.
    pub scheduler: SchedulerKind,
    /// Pooled job count across the scheduler's seeds (the fraction
    /// denominator).
    pub jobs: u64,
    /// `(flowtime, cumulative fraction)` pairs, evenly spaced over the
    /// requested window.
    pub points: Vec<(f64, f64)>,
}

impl ToJson for SchedulerCdf {
    fn to_json(&self) -> JsonValue {
        let points: Vec<JsonValue> = self
            .points
            .iter()
            .map(|&(x, y)| JsonValue::Array(vec![x.to_json(), y.to_json()]))
            .collect();
        JsonValue::object([
            ("scheduler", self.scheduler.to_json()),
            ("jobs", self.jobs.to_json()),
            ("points", JsonValue::Array(points)),
        ])
    }
}

impl FromJson for SchedulerCdf {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let JsonValue::Array(pairs) = value.field("points")? else {
            return Err(JsonError::new("cdf points must be an array".to_string()));
        };
        let mut points = Vec::with_capacity(pairs.len());
        for pair in pairs {
            let JsonValue::Array(pair) = pair else {
                return Err(JsonError::new("cdf point must be a pair".to_string()));
            };
            if pair.len() != 2 {
                return Err(JsonError::new("cdf point must be a pair".to_string()));
            }
            points.push((f64::from_json(&pair[0])?, f64::from_json(&pair[1])?));
        }
        Ok(SchedulerCdf {
            scheduler: SchedulerKind::from_json(value.field("scheduler")?)?,
            jobs: u64::from_json(value.field("jobs")?)?,
            points,
        })
    }
}

/// The result of one sweep: per-cell summaries, per-scheduler averages, and
/// the cache accounting.
#[derive(Debug, Clone)]
pub struct SweepResponse {
    /// One entry per cell, in the request's canonical order
    /// (scheduler-major, seeds in scenario order).
    pub cells: Vec<CellResult>,
    /// One seed-averaged summary per requested scheduler, in request order
    /// (the rows a figure renders).
    pub averages: Vec<FlowtimeSummary>,
    /// Cells served from the result cache.
    pub cache_hits: usize,
    /// Cells not found in the cache (`simulated + deduped_in_flight`).
    pub cache_misses: usize,
    /// Cells actually simulated by this request — **zero** for a fully warm
    /// sweep; this is the acceptance counter for "a warm rerun performs no
    /// cell simulations".
    pub simulated: usize,
    /// Miss cells that shared a fingerprint with another miss in the same
    /// request and reused its simulation (in-flight deduplication).
    pub deduped_in_flight: usize,
    /// Sketch-backed CDF series, one per requested scheduler in request
    /// order — present iff the request carried a [`CdfRequest`]. Purely a
    /// function of the deterministic outcomes, so cold and warm responses
    /// carry bit-identical series (included in equality).
    pub cdf: Option<Vec<SchedulerCdf>>,
    /// Wall-clock nanoseconds [`SweepServer::submit`] spent resolving this
    /// request (lookup + simulation + assembly). Timing telemetry only:
    /// **excluded from equality** — like [`mapreduce_sim::RunTelemetry`] on
    /// `SimOutcome`, so "cold ≡ warm" response comparisons stay exact —
    /// and absent in pre-telemetry JSON (parses as 0).
    pub elapsed_ns: u64,
}

/// Everything except the wall-clock `elapsed_ns`, which is timing
/// telemetry rather than sweep content — this is the single equality
/// carve-out that keeps cold-vs-warm bit-identity assertions meaningful.
impl PartialEq for SweepResponse {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells
            && self.averages == other.averages
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
            && self.simulated == other.simulated
            && self.deduped_in_flight == other.deduped_in_flight
            && self.cdf == other.cdf
    }
}

impl ToJson for SweepResponse {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("cells", self.cells.to_json()),
            ("averages", self.averages.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
            ("simulated", self.simulated.to_json()),
            ("deduped_in_flight", self.deduped_in_flight.to_json()),
            ("elapsed_ns", self.elapsed_ns.to_json()),
        ];
        if let Some(cdf) = &self.cdf {
            fields.push(("cdf", cdf.to_json()));
        }
        JsonValue::object(fields)
    }
}

impl FromJson for SweepResponse {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(SweepResponse {
            cells: Vec::from_json(value.field("cells")?)?,
            averages: Vec::from_json(value.field("averages")?)?,
            cache_hits: usize::from_json(value.field("cache_hits")?)?,
            cache_misses: usize::from_json(value.field("cache_misses")?)?,
            simulated: usize::from_json(value.field("simulated")?)?,
            deduped_in_flight: usize::from_json(value.field("deduped_in_flight")?)?,
            // Absent in responses serialized before the telemetry subsystem.
            elapsed_ns: match value.get("elapsed_ns") {
                Some(v) => u64::from_json(v)?,
                None => 0,
            },
            // Absent unless the request asked for a CDF (and in responses
            // serialized before the option existed).
            cdf: match value.get("cdf") {
                Some(JsonValue::Null) | None => None,
                Some(v) => Some(Vec::from_json(v)?),
            },
        })
    }
}

/// Names of the server-side counters and histograms [`SweepServer::submit`]
/// folds into its lifetime metrics registry, alongside the engine-telemetry
/// names from [`mapreduce_metrics::telemetry::names`].
pub mod stats_names {
    /// Histogram: wall-clock nanoseconds per resolved sweep request.
    pub const SWEEP_LATENCY_NS: &str = "server_sweep_ns";
    /// Histogram: latency of fully warm sweeps (zero cells simulated).
    pub const SWEEP_WARM_NS: &str = "server_sweep_warm_ns";
    /// Histogram: latency of sweeps that simulated at least one cell.
    pub const SWEEP_COLD_NS: &str = "server_sweep_cold_ns";
    /// The tenant name accounted when a request carries no tenant tag.
    pub const DEFAULT_TENANT: &str = "anonymous";

    /// The per-tenant counter name for one accounted quantity
    /// (`tenant:<name>:<what>`).
    pub fn tenant_counter(tenant: &str, what: &str) -> String {
        format!("tenant:{tenant}:{what}")
    }

    /// Per-tenant counter: sweep requests resolved.
    pub const TENANT_REQUESTS: &str = "requests";
    /// Per-tenant counter: cells requested (hits and misses alike).
    pub const TENANT_CELLS: &str = "cells";
    /// Per-tenant counter: cells served from the result cache.
    pub const TENANT_CACHE_HITS: &str = "cache_hits";
    /// Per-tenant counter: cells actually simulated.
    pub const TENANT_SIMULATED: &str = "simulated";
}

/// The long-running service runtime: one shared [`ResultCache`], any number
/// of sequential [`SweepServer::submit`] calls (the line protocol in
/// [`crate::protocol`] feeds it one request per line).
#[derive(Debug)]
pub struct SweepServer {
    cache: ResultCache,
    /// When this server instance was built — the origin of the `stats`
    /// uptime report.
    started: Instant,
    /// Sweep requests resolved by [`SweepServer::submit`] over the server's
    /// lifetime (hits-only sweeps included).
    requests_served: AtomicU64,
    /// Cells actually simulated (cache misses after in-flight dedup) over
    /// the server's lifetime — the denominator of "how much work did the
    /// cache save" alongside the cache's own hit counters.
    cells_simulated_total: AtomicU64,
    /// Engine telemetry ([`mapreduce_sim::RunTelemetry`]) of every cell this
    /// server simulated plus the server-side request accounting
    /// ([`stats_names`]: per-request latency histograms, per-tenant
    /// counters), folded into one shard-mergeable registry — the `stats`
    /// and `metrics` responses surface it verbatim.
    metrics: Mutex<MetricsRegistry>,
    /// Streaming flowtime sketches (all jobs + the paper's small/big figure
    /// windows) folded over every cell this server simulated — lifetime
    /// percentiles and Fig. 4/5-shaped curves in O(1) memory, surfaced by
    /// the `metrics` protocol request.
    sketches: Mutex<FlowtimeSketches>,
}

impl SweepServer {
    /// Builds a server around a cache (persistent or in-memory).
    pub fn new(cache: ResultCache) -> Self {
        SweepServer {
            cache,
            started: Instant::now(),
            requests_served: AtomicU64::new(0),
            cells_simulated_total: AtomicU64::new(0),
            metrics: Mutex::new(MetricsRegistry::new()),
            sketches: Mutex::new(FlowtimeSketches::new()),
        }
    }

    /// The server's cache (e.g. for stats reporting or compaction).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Nanoseconds since this server instance was built.
    pub fn uptime_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sweep requests resolved over the server's lifetime.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Cells simulated (not served from cache or deduped) over the server's
    /// lifetime.
    pub fn cells_simulated_total(&self) -> u64 {
        self.cells_simulated_total.load(Ordering::Relaxed)
    }

    /// A snapshot of the lifetime metrics registry: engine telemetry of
    /// every simulated cell plus the server-side request accounting
    /// ([`stats_names`]).
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        self.metrics
            .lock()
            .expect("metrics registry poisoned")
            .clone()
    }

    /// A snapshot of the lifetime flowtime sketches folded over every cell
    /// this server simulated.
    pub fn sketches_snapshot(&self) -> FlowtimeSketches {
        self.sketches
            .lock()
            .expect("flowtime sketches poisoned")
            .clone()
    }

    /// Resolves one sweep through [`resolve_cells`] against the server's
    /// cache, then assembles the per-cell summaries, the per-scheduler
    /// averages and the optional CDF series, and accounts the request.
    ///
    /// # Panics
    /// Panics if a cell's simulation fails (stalled scheduler, horizon
    /// exceeded) — like the experiment harness, the service treats that as a
    /// bug in the scheduler under test, not a recoverable condition.
    pub fn submit(&self, request: &SweepRequest) -> SweepResponse {
        let started = Instant::now();
        let cells = request.cells();
        let resolved = resolve_cells(&request.scenario, &cells, &self.cache);
        let outcomes = &resolved.outcomes;
        let cache_hits = resolved.hits.iter().filter(|&&hit| hit).count();
        let simulated = resolved.simulated.len();

        if simulated > 0 {
            let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
            for &i in &resolved.simulated {
                fold_run_telemetry(&mut metrics, &outcomes[i]);
            }
            drop(metrics);
            // Lifetime flowtime sketches: every simulated cell's jobs fold
            // into the all/small/big quantile sketches the `metrics`
            // request exposes. Cache hits don't re-fold — the sketches
            // account simulation work, like `cells_simulated_total`.
            let mut sketches = self.sketches.lock().expect("flowtime sketches poisoned");
            for &i in &resolved.simulated {
                for record in outcomes[i].records() {
                    sketches.fold(record.flowtime());
                }
            }
        }

        // Assemble per-cell summaries and per-scheduler averages.
        let cell_results: Vec<CellResult> = cells
            .iter()
            .enumerate()
            .map(|(i, &(scheduler, seed))| CellResult {
                scheduler,
                seed,
                fingerprint: resolved.fingerprints[i],
                from_cache: resolved.hits[i],
                summary: FlowtimeSummary::from_outcome(&outcomes[i]),
            })
            .collect();
        let seeds = request.scenario.seeds.len();
        let averages: Vec<FlowtimeSummary> = request
            .schedulers
            .iter()
            .enumerate()
            .map(|(s, &kind)| average_summary(kind, &outcomes[s * seeds..(s + 1) * seeds]))
            .collect();

        // Optional sketch-backed CDF series: one streaming sketch per
        // scheduler, merged over its seeds, read off at the requested
        // resolution — the response ships `points` pairs per scheduler and
        // nothing per-job. A pure function of the deterministic outcomes,
        // so cold and warm responses carry bit-identical series.
        let cdf = request.cdf.map(|window| {
            request
                .schedulers
                .iter()
                .enumerate()
                .map(|(s, &kind)| {
                    let mut sketch = QuantileSketch::new();
                    for outcome in &outcomes[s * seeds..(s + 1) * seeds] {
                        for record in outcome.records() {
                            sketch.record(record.flowtime());
                        }
                    }
                    SchedulerCdf {
                        scheduler: kind,
                        jobs: sketch.count(),
                        points: sketch.series(window.lo, window.hi, window.points, None),
                    }
                })
                .collect()
        });

        self.requests_served.fetch_add(1, Ordering::Relaxed);
        self.cells_simulated_total
            .fetch_add(simulated as u64, Ordering::Relaxed);

        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

        // Server-side request accounting: per-request latency histograms
        // (split warm/cold) and per-tenant lifetime counters.
        {
            let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
            metrics.record(stats_names::SWEEP_LATENCY_NS, elapsed_ns);
            let split = if simulated == 0 {
                stats_names::SWEEP_WARM_NS
            } else {
                stats_names::SWEEP_COLD_NS
            };
            metrics.record(split, elapsed_ns);
            let tenant = request
                .tenant
                .as_deref()
                .unwrap_or(stats_names::DEFAULT_TENANT);
            metrics.inc(
                &stats_names::tenant_counter(tenant, stats_names::TENANT_REQUESTS),
                1,
            );
            metrics.inc(
                &stats_names::tenant_counter(tenant, stats_names::TENANT_CELLS),
                cells.len() as u64,
            );
            metrics.inc(
                &stats_names::tenant_counter(tenant, stats_names::TENANT_CACHE_HITS),
                cache_hits as u64,
            );
            metrics.inc(
                &stats_names::tenant_counter(tenant, stats_names::TENANT_SIMULATED),
                simulated as u64,
            );
        }

        SweepResponse {
            cells: cell_results,
            averages,
            cache_hits,
            cache_misses: cells.len() - cache_hits,
            simulated,
            deduped_in_flight: resolved.deduped,
            cdf,
            elapsed_ns,
        }
    }
}
