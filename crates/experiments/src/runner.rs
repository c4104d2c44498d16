//! Running schedulers over scenarios: single runs, multi-seed averaging and
//! the scheduler registry used by the `reproduce` binary.
//!
//! Cached sweeps go through one resolver, [`resolve_cells`]: every cell
//! (scheduler × scenario × seed) is identified by its content
//! [fingerprint](crate::cache::cell_fingerprint), and previously computed
//! cells are returned from an [`OutcomeCache`] instead of being
//! re-simulated. The figures reach it through [`run_scheduler_averaged`]
//! and the process-wide [`crate::cache::install_global_cache`] hook; the
//! experiment service calls it once per sweep request. Cache hits are
//! bit-identical to fresh runs (the simulator is deterministic and outcomes
//! roundtrip JSON exactly), which the `server_cache` proptests pin.

use crate::cache::{cell_fingerprint, OutcomeCache};
use crate::scenario::{Scenario, WorkloadSource};
use mapreduce_baselines::{FairScheduler, Fifo, Late, Mantri, Restart, Sca, SrptNoClone};
use mapreduce_metrics::{FlowtimeSummary, MetricsRegistry, SimTelemetry, TraceRecorder};
use mapreduce_sched::{OfflineSrpt, SrptMsC, SrptMsCConfig};
use mapreduce_sim::{Scheduler, SimConfig, SimOutcome, Simulation};
use mapreduce_support::hash::Fingerprint;
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};
use mapreduce_workload::Trace;
use std::collections::HashMap;
use std::sync::OnceLock;

/// The schedulers known to the experiment harness, with their parameters.
///
/// This is the unit of comparison in the figures: every variant can be
/// instantiated into a fresh [`Scheduler`] per run (schedulers are stateful,
/// so they are never shared across runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// SRPTMS+C (Algorithm 2) with sharing fraction `epsilon` and pessimism
    /// factor `r`.
    SrptMsC {
        /// Sharing fraction ε.
        epsilon: f64,
        /// Pessimism factor r.
        r: f64,
    },
    /// SRPTMS+C with cloning disabled (machine sharing only) — ablation.
    SrptMsNoCloning {
        /// Sharing fraction ε.
        epsilon: f64,
        /// Pessimism factor r.
        r: f64,
    },
    /// SRPTMS+C with the literal, non-work-conserving reading of the paper's
    /// pseudo-code (machines unused by the ε-fraction stay idle) — ablation.
    SrptMsStrict {
        /// Sharing fraction ε.
        epsilon: f64,
        /// Pessimism factor r.
        r: f64,
    },
    /// The offline Algorithm 1 (bulk-arrival SRPT, no cloning).
    OfflineSrpt {
        /// Pessimism factor r.
        r: f64,
    },
    /// Microsoft Mantri speculative execution.
    Mantri,
    /// The Smart Cloning Algorithm.
    Sca,
    /// Hadoop weighted fair scheduler.
    Fair,
    /// FIFO without speculation.
    Fifo,
    /// Online SRPT without cloning.
    SrptNoClone {
        /// Pessimism factor r.
        r: f64,
    },
    /// LATE speculative execution.
    Late,
    /// Kill-and-restart speculative execution.
    Restart,
}

impl SchedulerKind {
    /// The paper's headline configuration: SRPTMS+C with ε = 0.6, r = 3.
    pub fn paper_default() -> Self {
        SchedulerKind::SrptMsC {
            epsilon: 0.6,
            r: 3.0,
        }
    }

    /// The line-up compared in Figs. 4–6 of the paper.
    pub fn paper_comparison() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::paper_default(),
            SchedulerKind::Sca,
            SchedulerKind::Mantri,
        ]
    }

    /// Instantiates a fresh scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedulerKind::SrptMsC { epsilon, r } => Box::new(SrptMsC::new(epsilon, r)),
            SchedulerKind::SrptMsNoCloning { epsilon, r } => Box::new(SrptMsC::with_config(
                SrptMsCConfig::new(epsilon, r).with_cloning(false),
            )),
            SchedulerKind::SrptMsStrict { epsilon, r } => Box::new(SrptMsC::with_config(
                SrptMsCConfig::new(epsilon, r).with_work_conserving(false),
            )),
            SchedulerKind::OfflineSrpt { r } => Box::new(OfflineSrpt::new(r)),
            SchedulerKind::Mantri => Box::new(Mantri::new()),
            SchedulerKind::Sca => Box::new(Sca::new()),
            SchedulerKind::Fair => Box::new(FairScheduler::new()),
            SchedulerKind::Fifo => Box::new(Fifo::new()),
            SchedulerKind::SrptNoClone { r } => Box::new(SrptNoClone::new(r)),
            SchedulerKind::Late => Box::new(Late::new()),
            SchedulerKind::Restart => Box::new(Restart::new()),
        }
    }

    /// The canonical scheduler id used by fingerprints and the experiment
    /// service's wire protocol: unit variants are strings, parameterised
    /// variants single-key objects (`{"SrptMsC":{"epsilon":0.6,"r":3}}`).
    fn variant_fields(&self) -> Option<(&'static str, Vec<(&'static str, f64)>)> {
        match *self {
            SchedulerKind::SrptMsC { epsilon, r } => {
                Some(("SrptMsC", vec![("epsilon", epsilon), ("r", r)]))
            }
            SchedulerKind::SrptMsNoCloning { epsilon, r } => {
                Some(("SrptMsNoCloning", vec![("epsilon", epsilon), ("r", r)]))
            }
            SchedulerKind::SrptMsStrict { epsilon, r } => {
                Some(("SrptMsStrict", vec![("epsilon", epsilon), ("r", r)]))
            }
            SchedulerKind::OfflineSrpt { r } => Some(("OfflineSrpt", vec![("r", r)])),
            SchedulerKind::SrptNoClone { r } => Some(("SrptNoClone", vec![("r", r)])),
            _ => None,
        }
    }

    /// A short stable label used in tables and benchmark ids.
    pub fn label(&self) -> String {
        match *self {
            SchedulerKind::SrptMsC { .. } => "SRPTMS+C".to_string(),
            SchedulerKind::SrptMsNoCloning { .. } => "SRPTMS (no cloning)".to_string(),
            SchedulerKind::SrptMsStrict { .. } => "SRPTMS+C (non-work-conserving)".to_string(),
            SchedulerKind::OfflineSrpt { .. } => "Offline SRPT".to_string(),
            SchedulerKind::Mantri => "Mantri".to_string(),
            SchedulerKind::Sca => "SCA".to_string(),
            SchedulerKind::Fair => "Fair".to_string(),
            SchedulerKind::Fifo => "FIFO".to_string(),
            SchedulerKind::SrptNoClone { .. } => "SRPT (no cloning)".to_string(),
            SchedulerKind::Late => "LATE".to_string(),
            SchedulerKind::Restart => "Restart".to_string(),
        }
    }
}

impl ToJson for SchedulerKind {
    fn to_json(&self) -> JsonValue {
        match self.variant_fields() {
            Some((name, fields)) => JsonValue::object([(
                name,
                JsonValue::object(fields.into_iter().map(|(k, v)| (k, v.to_json()))),
            )]),
            None => JsonValue::String(
                match *self {
                    SchedulerKind::Mantri => "Mantri",
                    SchedulerKind::Sca => "Sca",
                    SchedulerKind::Fair => "Fair",
                    SchedulerKind::Fifo => "Fifo",
                    SchedulerKind::Late => "Late",
                    SchedulerKind::Restart => "Restart",
                    _ => unreachable!("parameterised kinds covered above"),
                }
                .to_string(),
            ),
        }
    }
}

impl FromJson for SchedulerKind {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        if let Some(name) = value.as_str() {
            return match name {
                "Mantri" => Ok(SchedulerKind::Mantri),
                "Sca" => Ok(SchedulerKind::Sca),
                "Fair" => Ok(SchedulerKind::Fair),
                "Fifo" => Ok(SchedulerKind::Fifo),
                "Late" => Ok(SchedulerKind::Late),
                "Restart" => Ok(SchedulerKind::Restart),
                other => Err(JsonError::new(format!("unknown scheduler `{other}`"))),
            };
        }
        let eps_r = |body: &JsonValue| -> Result<(f64, f64), JsonError> {
            Ok((
                f64::from_json(body.field("epsilon")?)?,
                f64::from_json(body.field("r")?)?,
            ))
        };
        if let Some(body) = value.get("SrptMsC") {
            let (epsilon, r) = eps_r(body)?;
            return Ok(SchedulerKind::SrptMsC { epsilon, r });
        }
        if let Some(body) = value.get("SrptMsNoCloning") {
            let (epsilon, r) = eps_r(body)?;
            return Ok(SchedulerKind::SrptMsNoCloning { epsilon, r });
        }
        if let Some(body) = value.get("SrptMsStrict") {
            let (epsilon, r) = eps_r(body)?;
            return Ok(SchedulerKind::SrptMsStrict { epsilon, r });
        }
        if let Some(body) = value.get("OfflineSrpt") {
            return Ok(SchedulerKind::OfflineSrpt {
                r: f64::from_json(body.field("r")?)?,
            });
        }
        if let Some(body) = value.get("SrptNoClone") {
            return Ok(SchedulerKind::SrptNoClone {
                r: f64::from_json(body.field("r")?)?,
            });
        }
        Err(JsonError::new("unknown SchedulerKind variant"))
    }
}

/// Runs one scheduler once over one trace.
///
/// # Panics
/// Panics if the simulation fails (stalled scheduler, horizon exceeded) —
/// experiment code treats that as a bug, not a recoverable condition.
pub fn run_scheduler(kind: SchedulerKind, trace: &Trace, machines: usize, seed: u64) -> SimOutcome {
    let config = SimConfig::new(machines).with_seed(seed);
    let mut scheduler = kind.build();
    Simulation::new(config, trace)
        .run(scheduler.as_mut())
        .unwrap_or_else(|e| panic!("simulation with {} failed: {e}", kind.label()))
}

/// Runs one cell — one scheduler over one seed of a scenario — with no cache
/// involved. This is the ground-truth computation every cached path must
/// reproduce bit for bit; the experiment service's worker pool goes through
/// [`run_cells`] for cache misses.
///
/// Unlike the raw [`run_scheduler`] entry point, cells run under
/// [`Scenario::sim_config`], so scenario-level knobs (today: the fault plan)
/// reach the engine on every cached and uncached path alike.
pub fn run_cell(kind: SchedulerKind, scenario: &Scenario, seed: u64) -> SimOutcome {
    let config = scenario.sim_config(seed);
    let mut scheduler = kind.build();
    Simulation::from_source(config, scenario.job_source(seed))
        .run(scheduler.as_mut())
        .unwrap_or_else(|e| panic!("simulation with {} failed: {e}", kind.label()))
}

/// [`run_cell`] with the telemetry consumers attached: a [`SimTelemetry`]
/// counter/histogram fold and a bounded Chrome-trace [`TraceRecorder`]
/// capped at `trace_cap` events.
///
/// The observed run is bit-identical to the unobserved [`run_cell`] of the
/// same `(kind, scenario, seed)` — the observer seam is read-only — which
/// `reproduce --trace-out` re-asserts on every invocation. The returned
/// registry is the observer's: it counts every decision instant that
/// reached the scheduler once, so no [`mapreduce_metrics::fold_run_telemetry`]
/// is added on top.
pub fn run_cell_traced(
    kind: SchedulerKind,
    scenario: &Scenario,
    seed: u64,
    trace_cap: usize,
) -> (SimOutcome, MetricsRegistry, TraceRecorder) {
    let config = scenario.sim_config(seed);
    let mut scheduler = kind.build();
    let mut telemetry = SimTelemetry::new();
    let mut recorder = TraceRecorder::new(trace_cap);
    let outcome = Simulation::from_source(config, scenario.job_source(seed))
        .run_with_observer(scheduler.as_mut(), &mut (&mut telemetry, &mut recorder))
        .unwrap_or_else(|e| panic!("traced simulation with {} failed: {e}", kind.label()));
    (outcome, telemetry.into_registry(), recorder)
}

/// [`run_cell`] over an already-materialised trace — the shared-conversion
/// path for Google CSV workloads, bit-identical to `run_cell` of the same
/// `(kind, seed)`.
fn run_cell_on_trace(
    kind: SchedulerKind,
    scenario: &Scenario,
    trace: &Trace,
    seed: u64,
) -> SimOutcome {
    let config = scenario.sim_config(seed);
    let mut scheduler = kind.build();
    Simulation::new(config, trace)
        .run(scheduler.as_mut())
        .unwrap_or_else(|e| panic!("simulation with {} failed: {e}", kind.label()))
}

/// Simulates a batch of cells of one scenario in parallel (order-preserving,
/// no cache), converting a Google CSV workload once and sharing the trace
/// across every cell instead of re-parsing the file per cell. Each outcome
/// is bit-identical to [`run_cell`] of the same `(kind, seed)`.
pub fn run_cells(scenario: &Scenario, cells: &[(SchedulerKind, u64)]) -> Vec<SimOutcome> {
    let is_csv = matches!(&scenario.source, WorkloadSource::GoogleCsv { .. });
    let shared: OnceLock<Trace> = OnceLock::new();
    mapreduce_support::par_map(cells, |_, &(kind, seed)| {
        if is_csv {
            let trace = shared.get_or_init(|| scenario.trace(seed));
            run_cell_on_trace(kind, scenario, trace, seed)
        } else {
            run_cell(kind, scenario, seed)
        }
    })
}

/// Runs one scheduler over every seed of a scenario (in parallel) and returns
/// one outcome per seed, in seed order, resolving the cells through the
/// process-wide [global cache](crate::cache::install_global_cache) if one is
/// installed.
///
/// Each seed is a fully independent deterministic stream: the scenario's
/// [job source](Scenario::job_source) is built from the seed and the
/// simulation's RNG is seeded with it, so the per-seed outcome — and
/// therefore any average over seeds — is bit-identical whether this runs on
/// one thread (`RAYON_NUM_THREADS=1`) or many, and whether a cell comes out
/// of the cache or a fresh simulation. Every cell honours the scenario's
/// [`crate::scenario::WorkloadSource`], so sweeps can pit materialized
/// against streaming feeds (or a converted Google CSV) without touching the
/// figure code.
pub fn run_scheduler_averaged(kind: SchedulerKind, scenario: &Scenario) -> Vec<SimOutcome> {
    run_lineup_averaged(&[kind], scenario)
        .pop()
        .expect("one outcome list per scheduler")
}

/// [`run_scheduler_averaged`] for a whole line-up: every `(scheduler, seed)`
/// cell in one fan-out, so the parallel map holds line-up × seeds cells
/// rather than only the seeds. Returns one outcome list per scheduler, in
/// line-up order, each in seed order; every outcome is bit-identical to
/// the one-scheduler call.
pub fn run_lineup_averaged(kinds: &[SchedulerKind], scenario: &Scenario) -> Vec<Vec<SimOutcome>> {
    let cells: Vec<(SchedulerKind, u64)> = kinds
        .iter()
        .flat_map(|&kind| scenario.seeds.iter().map(move |&seed| (kind, seed)))
        .collect();
    let mut outcomes = match crate::cache::global_cache() {
        Some(cache) => resolve_cells(scenario, &cells, cache.as_ref()).outcomes,
        None => run_cells(scenario, &cells),
    }
    .into_iter();
    kinds
        .iter()
        .map(|_| outcomes.by_ref().take(scenario.seeds.len()).collect())
        .collect()
}

/// What [`resolve_cells`] did with a batch of cells: per-cell entries in
/// cell order, and which cells it simulated.
#[derive(Debug)]
pub struct ResolvedCells {
    /// Each cell's outcome.
    pub outcomes: Vec<SimOutcome>,
    /// Each cell's fingerprint (its cache key).
    pub fingerprints: Vec<Fingerprint>,
    /// Whether each cell was served by the cache.
    pub hits: Vec<bool>,
    /// The cells this call simulated, ascending: the first miss of each
    /// fingerprint.
    pub simulated: Vec<usize>,
    /// Misses that shared a fingerprint with an earlier miss of the batch
    /// and reused its simulation.
    pub deduped: usize,
}

/// Resolves a batch of cells of one scenario against a cache — the one
/// lookup → simulate → store path of the figures and the experiment
/// service.
///
/// Every cell is fingerprinted once and looked up once, in cell order.
/// Misses are deduplicated by fingerprint; the first miss of each
/// fingerprint is simulated, all of them in one [`run_cells`] fan-out, and
/// stored once, in cell order. Later misses of the same fingerprint reuse
/// that outcome. Outcomes are bit-identical to [`run_cell`] of each cell,
/// however they were resolved.
pub fn resolve_cells(
    scenario: &Scenario,
    cells: &[(SchedulerKind, u64)],
    cache: &dyn OutcomeCache,
) -> ResolvedCells {
    let fingerprints: Vec<Fingerprint> = cells
        .iter()
        .map(|&(kind, seed)| cell_fingerprint(kind, scenario, seed))
        .collect();
    let mut slots: Vec<Option<SimOutcome>> =
        fingerprints.iter().map(|&fp| cache.lookup(fp)).collect();
    let hits: Vec<bool> = slots.iter().map(Option::is_some).collect();

    let mut first_miss: HashMap<Fingerprint, usize> = HashMap::new();
    let mut simulated = Vec::new();
    for (i, &fingerprint) in fingerprints.iter().enumerate() {
        if !hits[i] {
            first_miss.entry(fingerprint).or_insert_with(|| {
                simulated.push(i);
                i
            });
        }
    }
    let batch: Vec<(SchedulerKind, u64)> = simulated.iter().map(|&i| cells[i]).collect();
    for (&i, outcome) in simulated.iter().zip(run_cells(scenario, &batch)) {
        cache.store(fingerprints[i], &outcome);
        slots[i] = Some(outcome);
    }
    let misses = hits.iter().filter(|&&hit| !hit).count();
    for i in 0..cells.len() {
        if slots[i].is_none() {
            slots[i] = slots[first_miss[&fingerprints[i]]].clone();
        }
    }
    ResolvedCells {
        outcomes: slots
            .into_iter()
            .map(|slot| slot.expect("every cell resolved"))
            .collect(),
        fingerprints,
        hits,
        deduped: misses - simulated.len(),
        simulated,
    }
}

/// Averages the headline metrics of several outcomes (one per seed) into a
/// single [`FlowtimeSummary`]-shaped row labelled with the scheduler's name.
pub fn average_summary(kind: SchedulerKind, outcomes: &[SimOutcome]) -> FlowtimeSummary {
    assert!(!outcomes.is_empty(), "need at least one outcome to average");
    let summaries: Vec<FlowtimeSummary> =
        outcomes.iter().map(FlowtimeSummary::from_outcome).collect();
    let n = summaries.len() as f64;
    let avg = |f: fn(&FlowtimeSummary) -> f64| summaries.iter().map(f).sum::<f64>() / n;
    FlowtimeSummary {
        scheduler: kind.label(),
        jobs: summaries.iter().map(|s| s.jobs).sum::<usize>() / summaries.len(),
        mean: avg(|s| s.mean),
        weighted_mean: avg(|s| s.weighted_mean),
        weighted_sum: avg(|s| s.weighted_sum),
        median: avg(|s| s.median),
        p95: avg(|s| s.p95),
        max: avg(|s| s.max),
        mean_copies_per_task: avg(|s| s.mean_copies_per_task),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_has_a_label() {
        let kinds = [
            SchedulerKind::paper_default(),
            SchedulerKind::SrptMsNoCloning {
                epsilon: 0.6,
                r: 3.0,
            },
            SchedulerKind::OfflineSrpt { r: 0.0 },
            SchedulerKind::Mantri,
            SchedulerKind::Sca,
            SchedulerKind::Fair,
            SchedulerKind::Fifo,
            SchedulerKind::SrptNoClone { r: 1.0 },
            SchedulerKind::Late,
        ];
        for kind in kinds {
            let scheduler = kind.build();
            assert!(!scheduler.name().is_empty());
            assert!(!kind.label().is_empty());
        }
        assert_eq!(SchedulerKind::paper_comparison().len(), 3);
    }

    #[test]
    fn scheduler_kind_json_roundtrip() {
        let kinds = [
            SchedulerKind::paper_default(),
            SchedulerKind::SrptMsNoCloning {
                epsilon: 0.4,
                r: 2.0,
            },
            SchedulerKind::SrptMsStrict {
                epsilon: 0.6,
                r: 3.0,
            },
            SchedulerKind::OfflineSrpt { r: 1.5 },
            SchedulerKind::Mantri,
            SchedulerKind::Sca,
            SchedulerKind::Fair,
            SchedulerKind::Fifo,
            SchedulerKind::SrptNoClone { r: 1.0 },
            SchedulerKind::Late,
        ];
        for kind in kinds {
            let json = kind.to_json().to_compact_string();
            let back = SchedulerKind::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
            assert_eq!(back, kind, "roundtrip failed for {json}");
        }
        assert!(SchedulerKind::from_json(&JsonValue::String("Nope".into())).is_err());
        assert!(SchedulerKind::from_json(&JsonValue::Null).is_err());
    }

    #[test]
    fn resolve_cells_serves_hits_and_dedupes_misses() {
        use crate::cache::{OutcomeCache, ResultCache};

        let scenario = Scenario::scaled(30, 2);
        let cells: Vec<(SchedulerKind, u64)> = [3, 4, 3]
            .into_iter()
            .map(|seed| (SchedulerKind::Fifo, seed))
            .collect();
        let cache = ResultCache::in_memory();
        let cold = resolve_cells(&scenario, &cells, &cache);
        assert_eq!(cold.hits, [false; 3]);
        assert_eq!(cold.simulated, [0, 1]);
        assert_eq!(cold.deduped, 1);
        assert_eq!(cold.fingerprints[0], cold.fingerprints[2]);
        assert_eq!(cold.outcomes[0], cold.outcomes[2]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (0, 3, 2));

        // Warm rerun: every cell comes out of the cache, bit-identical.
        let warm = resolve_cells(&scenario, &cells, &cache);
        assert_eq!(warm.outcomes, cold.outcomes);
        assert_eq!(warm.hits, [true; 3]);
        assert!(warm.simulated.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (3, 3, 2));

        // And matches the uncached path exactly.
        assert_eq!(run_cells(&scenario, &cells), cold.outcomes);
    }

    #[test]
    fn run_and_average_small_scenario() {
        let scenario = Scenario::scaled(60, 2);
        let outcomes = run_scheduler_averaged(SchedulerKind::Fair, &scenario);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert_eq!(o.records().len(), 60);
        }
        let summary = average_summary(SchedulerKind::Fair, &outcomes);
        assert_eq!(summary.scheduler, "Fair");
        assert!(summary.mean > 0.0);
    }

    #[test]
    fn single_run_is_deterministic() {
        let scenario = Scenario::scaled(40, 1);
        let trace = scenario.trace(7);
        let a = run_scheduler(SchedulerKind::paper_default(), &trace, scenario.machines, 7);
        let b = run_scheduler(SchedulerKind::paper_default(), &trace, scenario.machines, 7);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn average_of_nothing_panics() {
        average_summary(SchedulerKind::Fair, &[]);
    }

    #[test]
    fn materialized_cells_match_the_direct_trace_path() {
        // Routing run_scheduler_averaged through job sources must not change
        // materialized outcomes: same trace, same seed, bit-identical.
        let scenario = Scenario::scaled(40, 2);
        let averaged = run_scheduler_averaged(SchedulerKind::paper_default(), &scenario);
        for (i, &seed) in scenario.seeds.iter().enumerate() {
            let trace = scenario.trace(seed);
            let direct = run_scheduler(
                SchedulerKind::paper_default(),
                &trace,
                scenario.machines,
                seed,
            );
            assert_eq!(averaged[i], direct, "seed {seed} diverged");
        }
    }

    #[test]
    fn streaming_cells_run_every_scheduler_kind() {
        let scenario = Scenario::streaming(30, 1);
        let outcomes = run_scheduler_averaged(SchedulerKind::Fifo, &scenario);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].records().len(), 30);
        assert!(outcomes[0].peak_resident_jobs <= 30);
        assert!(outcomes[0].peak_resident_jobs >= 1);
    }
}
