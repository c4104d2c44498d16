//! Experiment scenarios: workload source, cluster size and trial seeds.

use mapreduce_sim::{FaultPlan, SimConfig};
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};
use mapreduce_workload::{
    GoogleCsvOptions, GoogleTraceProfile, GoogleTraceSource, JobSource, MaterializedSource,
    StreamingGenerator, Trace,
};
use std::path::PathBuf;

/// How a scenario's workload reaches the engine, per seed/cell.
///
/// Sweeps name a source per cell: the same profile can drive a fully
/// materialized trace (the historical behaviour), a constant-memory
/// streaming feed, or an ingested Google cluster CSV.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum WorkloadSource {
    /// Generate the whole [`Trace`] up front from the profile and feed it
    /// through a [`MaterializedSource`]. Bit-identical to the pre-streaming
    /// trace-vector path.
    #[default]
    Materialized,
    /// Stream jobs lazily from the profile via [`StreamingGenerator`]
    /// (deterministic per-job RNG streams, bounded memory). Note this is a
    /// *different* — equally valid — trace than `Materialized` for the same
    /// seed, because job contents depend only on `(seed, job)` rather than
    /// on a sequential sample stream.
    Streaming,
    /// Convert a Google cluster-usage `task_events` CSV. The file defines
    /// the workload (identical across seeds); the seed still drives the
    /// simulator's own RNG (clone resampling, stragglers).
    GoogleCsv {
        /// Path of the `task_events` CSV file.
        path: PathBuf,
    },
}

impl ToJson for WorkloadSource {
    fn to_json(&self) -> JsonValue {
        match self {
            WorkloadSource::Materialized => JsonValue::String("Materialized".to_string()),
            WorkloadSource::Streaming => JsonValue::String("Streaming".to_string()),
            WorkloadSource::GoogleCsv { path } => JsonValue::object([(
                "GoogleCsv",
                JsonValue::object([(
                    "path",
                    JsonValue::String(path.to_string_lossy().into_owned()),
                )]),
            )]),
        }
    }
}

impl FromJson for WorkloadSource {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        if let Some(name) = value.as_str() {
            return match name {
                "Materialized" => Ok(WorkloadSource::Materialized),
                "Streaming" => Ok(WorkloadSource::Streaming),
                other => Err(JsonError::new(format!("unknown workload source `{other}`"))),
            };
        }
        if let Some(body) = value.get("GoogleCsv") {
            return Ok(WorkloadSource::GoogleCsv {
                path: PathBuf::from(String::from_json(body.field("path")?)?),
            });
        }
        Err(JsonError::new("unknown WorkloadSource variant"))
    }
}

/// A reusable description of "which workload, which cluster, how many
/// trials" shared by all experiments.
///
/// The paper's evaluation uses the full Google-like trace (≈6 064 jobs) on a
/// 12 000-machine cluster with 10 repetitions; [`Scenario::paper`] reproduces
/// that. Scaled-down variants keep the jobs-per-machine ratio and the arrival
/// intensity so the qualitative behaviour (who wins, where the knees are) is
/// preserved while running in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Trace-generation profile.
    pub profile: GoogleTraceProfile,
    /// Number of machines in the simulated cluster.
    pub machines: usize,
    /// Seeds; each seed generates a fresh trace and drives one simulation
    /// repetition. Results are averaged across seeds.
    pub seeds: Vec<u64>,
    /// How the workload is fed to the engine (see [`WorkloadSource`]).
    pub source: WorkloadSource,
    /// Machine-dynamics fault plan injected into every cell of the scenario.
    /// Empty by default — fault-free cells are bit-identical to runs
    /// predating the fault subsystem.
    pub fault: FaultPlan,
}

impl Scenario {
    /// The full-scale scenario of the paper: 6 064 jobs, 12 000 machines,
    /// 10 repetitions.
    pub fn paper() -> Self {
        Scenario {
            profile: GoogleTraceProfile::paper(),
            machines: 12_000,
            seeds: (0..10).map(|i| 2015 + i).collect(),
            source: WorkloadSource::Materialized,
            fault: FaultPlan::none(),
        }
    }

    /// A scaled-down scenario with the requested number of jobs, preserving
    /// the paper's ≈0.5 jobs-per-machine ratio.
    pub fn scaled(num_jobs: usize, seeds: usize) -> Self {
        let machines = (num_jobs * 12_000 / 6_064).max(8);
        Scenario {
            profile: GoogleTraceProfile::scaled(num_jobs),
            machines,
            seeds: (0..seeds as u64).map(|i| 2015 + i).collect(),
            source: WorkloadSource::Materialized,
            fault: FaultPlan::none(),
        }
    }

    /// A scaled scenario fed through the streaming generator — the
    /// constant-memory path for 100k+-job runs.
    pub fn streaming(num_jobs: usize, seeds: usize) -> Self {
        Self::scaled(num_jobs, seeds).with_source(WorkloadSource::Streaming)
    }

    /// The million-job regime: 1 000 000 jobs streamed onto 100 000 machines.
    ///
    /// At 10 jobs per machine this is ~20× denser than the paper's 0.505, so
    /// the 35 032 s arrival window is stretched by the same ratio
    /// (`jobs/machine` relative to paper scale) to keep the offered load at
    /// the paper's ≈45 % — the point of the tier is a long steady-state run
    /// in bounded memory, not an arrival pile-up. Single seed: one trial of
    /// this scenario is a benchmark-scale run, not a statistics sweep.
    pub fn million() -> Self {
        let num_jobs: usize = 1_000_000;
        let machines: usize = 100_000;
        // window = 35_032 · (num_jobs / 6_064) / (machines / 12_000), exact
        // in integers: ≈ 693_271 s (~8 days of simulated cluster time).
        let window = 35_032u64 * (num_jobs as u64) * 12_000 / (6_064 * machines as u64);
        Scenario {
            profile: GoogleTraceProfile::scaled(num_jobs).with_arrival_window(window),
            machines,
            seeds: vec![2015],
            source: WorkloadSource::Streaming,
            fault: FaultPlan::none(),
        }
    }

    /// The ten-million-job regime: 10 000 000 jobs streamed onto 100 000
    /// machines.
    ///
    /// Same construction as [`Scenario::million`] — the arrival window is
    /// stretched by the jobs-per-machine ratio relative to paper scale to
    /// hold the offered load at the paper's ≈45 % — but with 10× the jobs on
    /// the same cluster, so the window lands at ≈6.9 M simulated seconds
    /// (~80 days). The point of the tier is that the engine's footprint is
    /// the alive window: the run must complete with peak-resident jobs in
    /// the thousands, five orders of magnitude below the workload size.
    /// Single seed: one trial is a benchmark-scale run, not a statistics
    /// sweep.
    pub fn ten_million() -> Self {
        let num_jobs: usize = 10_000_000;
        let machines: usize = 100_000;
        // window = 35_032 · (num_jobs / 6_064) / (machines / 12_000), exact
        // in integers: ≈ 6_932_717 s.
        let window = 35_032u64 * (num_jobs as u64) * 12_000 / (6_064 * machines as u64);
        Scenario {
            profile: GoogleTraceProfile::scaled(num_jobs).with_arrival_window(window),
            machines,
            seeds: vec![2015],
            source: WorkloadSource::Streaming,
            fault: FaultPlan::none(),
        }
    }

    /// The scenario used by integration tests (fast).
    pub fn test() -> Self {
        Self::scaled(150, 1)
    }

    /// Returns a copy with a different workload source.
    pub fn with_source(mut self, source: WorkloadSource) -> Self {
        self.source = source;
        self
    }

    /// Generates the trace for one seed (materialised regardless of the
    /// scenario's source kind — figure code that needs the whole trace, e.g.
    /// Table II statistics, goes through this).
    ///
    /// # Panics
    /// Panics if a [`WorkloadSource::GoogleCsv`] file cannot be converted —
    /// experiment code treats that as a bug, not a recoverable condition.
    pub fn trace(&self, seed: u64) -> Trace {
        match &self.source {
            WorkloadSource::Materialized => self.profile.generate(seed),
            WorkloadSource::Streaming => {
                StreamingGenerator::new(self.profile.clone(), seed).materialize()
            }
            WorkloadSource::GoogleCsv { path } => {
                GoogleTraceSource::from_csv_file(path, &GoogleCsvOptions::default())
                    .unwrap_or_else(|e| panic!("google csv scenario {}: {e}", path.display()))
                    .into_trace()
            }
        }
    }

    /// Builds the engine-facing job source for one seed.
    ///
    /// For [`WorkloadSource::Materialized`] this wraps the generated trace —
    /// bit-identical to running the trace directly; for
    /// [`WorkloadSource::Streaming`] jobs are synthesized on demand and the
    /// full trace never exists in memory.
    ///
    /// # Panics
    /// Panics if a [`WorkloadSource::GoogleCsv`] file cannot be converted.
    pub fn job_source(&self, seed: u64) -> Box<dyn JobSource> {
        match &self.source {
            WorkloadSource::Materialized => {
                Box::new(MaterializedSource::new(self.profile.generate(seed)))
            }
            WorkloadSource::Streaming => {
                Box::new(StreamingGenerator::new(self.profile.clone(), seed))
            }
            WorkloadSource::GoogleCsv { path } => Box::new(
                GoogleTraceSource::from_csv_file(path, &GoogleCsvOptions::default())
                    .unwrap_or_else(|e| panic!("google csv scenario {}: {e}", path.display())),
            ),
        }
    }

    /// Returns a copy with a different number of machines (used by the Fig. 3
    /// cluster-size sweep).
    pub fn with_machines(&self, machines: usize) -> Self {
        Scenario {
            machines,
            ..self.clone()
        }
    }

    /// Returns a copy with every arrival forced to zero — the bulk-arrival
    /// workload of the offline experiments.
    pub fn as_bulk(&self) -> Self {
        Scenario {
            profile: self.profile.clone().with_bulk_arrivals(),
            ..self.clone()
        }
    }

    /// Returns a copy with the within-job task-duration CV overridden
    /// (0 = negligible variance, the Remark 2 regime).
    pub fn with_task_cv(&self, cv: f64) -> Self {
        Scenario {
            profile: self.profile.clone().with_task_cv(cv),
            ..self.clone()
        }
    }

    /// Returns a copy with a machine-dynamics fault plan attached (used by
    /// the Fig. 7 failure-regime sweep).
    ///
    /// # Panics
    /// Panics if the plan covers more machines than the scenario has — a
    /// malformed sweep definition, not a runtime condition.
    pub fn with_fault(&self, fault: FaultPlan) -> Self {
        fault.validate(self.machines);
        Scenario {
            fault,
            ..self.clone()
        }
    }

    /// The [`SimConfig`] every cell of this scenario runs under: the single
    /// place where scenario knobs (machines, fault plan) combine with a
    /// seed. All runner paths and the cache fingerprint go through this, so
    /// a scenario field that affects the simulation cannot silently escape
    /// the cache key.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        let config = SimConfig::new(self.machines).with_seed(seed);
        if self.fault.is_empty() {
            config
        } else {
            config.with_fault_plan(self.fault.clone())
        }
    }
}

impl ToJson for Scenario {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("profile", self.profile.to_json()),
            ("machines", self.machines.to_json()),
            ("seeds", self.seeds.to_json()),
            ("source", self.source.to_json()),
        ];
        // Emitted only when non-empty, so fault-free scenario documents (and
        // anything fingerprinting them) are byte-identical to pre-fault ones.
        if !self.fault.is_empty() {
            fields.push(("fault", self.fault.to_json()));
        }
        JsonValue::object(fields)
    }
}

impl FromJson for Scenario {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(Scenario {
            profile: GoogleTraceProfile::from_json(value.field("profile")?)?,
            machines: usize::from_json(value.field("machines")?)?,
            seeds: Vec::from_json(value.field("seeds")?)?,
            // Absent in requests written before streaming sources existed.
            source: match value.get("source") {
                Some(v) => WorkloadSource::from_json(v)?,
                None => WorkloadSource::Materialized,
            },
            // Absent in requests written before fault injection existed.
            fault: match value.get("fault") {
                Some(v) => FaultPlan::from_json(v)?,
                None => FaultPlan::none(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_json_roundtrip() {
        // The experiment service receives scenarios over the wire; every
        // source kind must roundtrip exactly.
        use mapreduce_sim::FaultClass;
        for scenario in [
            Scenario::scaled(60, 2),
            Scenario::streaming(40, 1).with_machines(17),
            Scenario::test().with_source(WorkloadSource::GoogleCsv {
                path: PathBuf::from("tests/fixtures/google_sample.csv"),
            }),
            Scenario::scaled(60, 1)
                .with_fault(FaultPlan::new(vec![FaultClass::crashes(8, 500.0, 60.0)])),
        ] {
            let json = scenario.to_json().to_compact_string();
            let back = Scenario::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
            assert_eq!(back, scenario, "roundtrip failed for {json}");
        }
        // A pre-streaming document without a source field defaults to
        // materialized.
        let mut legacy = Scenario::scaled(10, 1).to_json();
        if let JsonValue::Object(map) = &mut legacy {
            map.remove("source");
        }
        let back = Scenario::from_json(&legacy).unwrap();
        assert_eq!(back.source, WorkloadSource::Materialized);
        assert!(back.fault.is_empty());
        // Fault-free scenarios serialise without a fault field at all, so
        // their documents (and fingerprints derived from them) are unchanged.
        assert!(Scenario::scaled(10, 1).to_json().get("fault").is_none());
    }

    #[test]
    fn sim_config_carries_scenario_knobs() {
        use mapreduce_sim::FaultClass;
        let plain = Scenario::scaled(60, 1);
        let cfg = plain.sim_config(7);
        assert_eq!(cfg.num_machines, plain.machines);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.fault_plan.is_empty());

        let plan = FaultPlan::new(vec![FaultClass::crashes(4, 300.0, 40.0)]);
        let faulty = plain.with_fault(plan.clone());
        assert_eq!(faulty.sim_config(7).fault_plan, plan);
    }

    #[test]
    fn paper_scenario_matches_table_ii_scale() {
        let s = Scenario::paper();
        assert_eq!(s.machines, 12_000);
        assert_eq!(s.profile.num_jobs, 6_064);
        assert_eq!(s.seeds.len(), 10);
    }

    #[test]
    fn scaled_scenario_preserves_load_ratio() {
        let s = Scenario::scaled(606, 2);
        assert_eq!(s.profile.num_jobs, 606);
        // ≈ 0.5 jobs per machine.
        let ratio = s.profile.num_jobs as f64 / s.machines as f64;
        assert!((ratio - 0.505).abs() < 0.05, "ratio {ratio}");
        assert_eq!(s.seeds.len(), 2);
    }

    #[test]
    fn million_scenario_keeps_offered_load() {
        let s = Scenario::million();
        assert_eq!(s.profile.num_jobs, 1_000_000);
        assert_eq!(s.machines, 100_000);
        assert_eq!(s.source, WorkloadSource::Streaming);
        assert_eq!(s.seeds, vec![2015]);
        // The arrival rate per machine must match the paper's: that is the
        // invariant the stretched window exists to preserve.
        let paper = Scenario::paper();
        let rate =
            |jobs: usize, dur: u64, machines: usize| jobs as f64 / dur as f64 / machines as f64;
        let million = rate(s.profile.num_jobs, s.profile.duration, s.machines);
        let reference = rate(
            paper.profile.num_jobs,
            paper.profile.duration,
            paper.machines,
        );
        assert!(
            (million / reference - 1.0).abs() < 0.01,
            "million-job arrival rate per machine {million:.3e} drifted from paper {reference:.3e}"
        );
    }

    #[test]
    fn trace_generation_is_deterministic() {
        let s = Scenario::test();
        assert_eq!(s.trace(1), s.trace(1));
        assert_ne!(s.trace(1), s.trace(2));
        assert_eq!(s.trace(1).len(), s.profile.num_jobs);
    }

    #[test]
    fn streaming_scenario_sources() {
        let s = Scenario::streaming(50, 1);
        assert_eq!(s.source, WorkloadSource::Streaming);
        let mut source = s.job_source(4);
        assert_eq!(source.total_jobs(), 50);
        assert_eq!(source.resident_jobs(), 0);
        // The scenario trace is the stream's materialisation: pulling the
        // source job by job yields exactly the trace's jobs.
        let trace = s.trace(4);
        let jobs: Vec<_> = std::iter::from_fn(|| source.next_job()).collect();
        assert_eq!(jobs, trace.jobs());

        let m = Scenario::scaled(50, 1);
        assert_eq!(m.source, WorkloadSource::Materialized);
        let mut mat = m.job_source(4);
        assert_eq!(mat.resident_jobs(), 50);
        assert!(mat.next_job().is_some());
        // Modifiers carry the source kind along.
        assert_eq!(
            Scenario::streaming(50, 1).with_machines(9).source,
            WorkloadSource::Streaming
        );
    }

    #[test]
    fn bulk_and_cv_modifiers() {
        let s = Scenario::test().as_bulk();
        assert!(s.trace(3).iter().all(|j| j.arrival == 0));
        let zero_cv = Scenario::test().with_task_cv(0.0);
        assert!(zero_cv
            .profile
            .classes
            .iter()
            .all(|c| c.task_duration_cv == 0.0));
        let resized = Scenario::test().with_machines(99);
        assert_eq!(resized.machines, 99);
    }
}
