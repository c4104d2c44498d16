//! Simulation results: per-job completion records and run-level summaries.

use crate::state::Slot;
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};
use mapreduce_workload::JobId;

/// Completion record of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Identity of the job.
    pub job: JobId,
    /// Weight `w_i`.
    pub weight: f64,
    /// Arrival slot `a_i`.
    pub arrival: Slot,
    /// Completion slot `f_i`.
    pub completion: Slot,
    /// Number of map tasks.
    pub num_map_tasks: usize,
    /// Number of reduce tasks.
    pub num_reduce_tasks: usize,
    /// Total copies launched for the job (original attempts + clones +
    /// speculative backups).
    pub copies_launched: usize,
    /// Ground-truth total workload of the job (seconds of work at unit
    /// speed), for utilisation accounting.
    pub true_workload: f64,
}

impl JobRecord {
    /// The flowtime `f_i − a_i` of the job.
    pub fn flowtime(&self) -> Slot {
        self.completion.saturating_sub(self.arrival)
    }

    /// The weighted flowtime `w_i · (f_i − a_i)`.
    pub fn weighted_flowtime(&self) -> f64 {
        self.weight * self.flowtime() as f64
    }

    /// Total number of tasks in the job.
    pub fn num_tasks(&self) -> usize {
        self.num_map_tasks + self.num_reduce_tasks
    }

    /// Number of extra copies beyond the one original attempt per task.
    pub fn extra_copies(&self) -> usize {
        self.copies_launched.saturating_sub(self.num_tasks())
    }
}

impl ToJson for JobRecord {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("job", self.job.to_json()),
            ("weight", self.weight.to_json()),
            ("arrival", self.arrival.to_json()),
            ("completion", self.completion.to_json()),
            ("num_map_tasks", self.num_map_tasks.to_json()),
            ("num_reduce_tasks", self.num_reduce_tasks.to_json()),
            ("copies_launched", self.copies_launched.to_json()),
            ("true_workload", self.true_workload.to_json()),
        ])
    }
}

impl FromJson for JobRecord {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(JobRecord {
            job: JobId::from_json(value.field("job")?)?,
            weight: f64::from_json(value.field("weight")?)?,
            arrival: Slot::from_json(value.field("arrival")?)?,
            completion: Slot::from_json(value.field("completion")?)?,
            num_map_tasks: usize::from_json(value.field("num_map_tasks")?)?,
            num_reduce_tasks: usize::from_json(value.field("num_reduce_tasks")?)?,
            copies_launched: usize::from_json(value.field("copies_launched")?)?,
            true_workload: f64::from_json(value.field("true_workload")?)?,
        })
    }
}

/// Run instrumentation: decision-path work counters and per-stage wall-clock
/// timings.
///
/// These fields describe how much work the *scheduler implementation* did
/// (or how long the host took), not the trajectory — the golden-equivalence
/// suite compares optimized schedulers against frozen references that do
/// strictly more work per decision, and stage timings are host noise by
/// definition. They are therefore carved out of [`SimOutcome`]'s equality in
/// one place: `SimOutcome == SimOutcome` compares every field *except*
/// [`SimOutcome::telemetry`].
///
/// Serialisation stays flat for back-compat: the fields are emitted as
/// top-level keys of the outcome JSON (`decision_instants`,
/// `stage_source_ns`, …), exactly where pre-consolidation documents carried
/// them, and absent keys parse as 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTelemetry {
    /// Number of decision instants the engine processed (event batches that
    /// reached the scheduling step).
    pub decision_instants: u64,
    /// Largest ranked-candidate prefix any single decision materialised
    /// (reported by prefix-consuming schedulers via
    /// [`crate::ClusterState::note_ranked_prefix`]; 0 for schedulers that
    /// never consume the ranked order).
    pub ranked_prefix_len_max: usize,
    /// Wall-clock nanoseconds spent pulling/admitting jobs from the source,
    /// when the run profiled stages (`SimConfig::profile_stages`); 0
    /// otherwise.
    pub stage_source_ns: u64,
    /// Wall-clock nanoseconds spent delivering/applying the event batches;
    /// 0 unless stages were profiled.
    pub stage_events_ns: u64,
    /// Wall-clock nanoseconds spent in scheduler hooks + decisions + action
    /// application; 0 unless stages were profiled.
    pub stage_decision_ns: u64,
    /// Wall-clock nanoseconds spent capturing/folding completion records;
    /// 0 unless stages were profiled.
    pub stage_metrics_ns: u64,
}

impl RunTelemetry {
    /// The flat JSON keys of the telemetry fields, in emission order.
    const KEYS: [&'static str; 6] = [
        "decision_instants",
        "ranked_prefix_len_max",
        "stage_source_ns",
        "stage_events_ns",
        "stage_decision_ns",
        "stage_metrics_ns",
    ];

    /// The telemetry as flat `(key, value)` JSON fields — the same top-level
    /// keys outcomes carried before the consolidation.
    fn json_fields(&self) -> [(&'static str, JsonValue); 6] {
        let values = [
            self.decision_instants.to_json(),
            self.ranked_prefix_len_max.to_json(),
            self.stage_source_ns.to_json(),
            self.stage_events_ns.to_json(),
            self.stage_decision_ns.to_json(),
            self.stage_metrics_ns.to_json(),
        ];
        let mut iter = Self::KEYS.iter().zip(values);
        std::array::from_fn(|_| {
            let (key, value) = iter.next().expect("KEYS and values have equal length");
            (*key, value)
        })
    }

    /// Reads the flat keys back; any absent key (documents serialised before
    /// the corresponding instrumentation existed) parses as 0.
    fn from_flat_json(value: &JsonValue) -> Result<Self, JsonError> {
        let u64_or_zero = |key: &str| -> Result<u64, JsonError> {
            match value.get(key) {
                Some(v) => u64::from_json(v),
                None => Ok(0),
            }
        };
        Ok(RunTelemetry {
            decision_instants: u64_or_zero("decision_instants")?,
            ranked_prefix_len_max: match value.get("ranked_prefix_len_max") {
                Some(v) => usize::from_json(v)?,
                None => 0,
            },
            stage_source_ns: u64_or_zero("stage_source_ns")?,
            stage_events_ns: u64_or_zero("stage_events_ns")?,
            stage_decision_ns: u64_or_zero("stage_decision_ns")?,
            stage_metrics_ns: u64_or_zero("stage_metrics_ns")?,
        })
    }
}

/// Aggregate outcome of one simulation run.
///
/// Equality intentionally ignores [`SimOutcome::telemetry`] — the single
/// instrumentation carve-out; see [`RunTelemetry`] for why.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Name of the scheduler that produced this outcome.
    pub scheduler: String,
    /// Number of machines in the cluster.
    pub num_machines: usize,
    /// Per-job completion records, in job-id order.
    records: Vec<JobRecord>,
    /// Slot at which the last job completed.
    pub makespan: Slot,
    /// Total machine-slots spent running or holding copies.
    pub busy_machine_slots: u64,
    /// Total number of copies launched across all jobs.
    pub total_copies: usize,
    /// Total number of scheduler invocations.
    pub scheduler_invocations: u64,
    /// Peak number of jobs simultaneously resident in the engine (admitted
    /// from the job source but not yet completed-and-released). Purely a
    /// memory metric derived from the trajectory — identical for streaming
    /// and materialized feeds of the same workload; the difference between
    /// the two modes is what the *source* keeps resident on top of this.
    pub peak_resident_jobs: usize,
    /// High-water mark of simultaneously backed copy-arena slots. Completed
    /// jobs recycle their copy slots, so this tracks the alive window (like
    /// [`SimOutcome::peak_resident_jobs`]) rather than
    /// [`SimOutcome::total_copies`]. Purely a memory metric.
    pub peak_copy_slots: usize,
    /// Machine-slots of progress thrown away by fault-killed copies (elapsed
    /// running time of every copy killed by a [`crate::FaultPlan`] crash).
    /// Part of the trajectory — included in equality. 0 without a fault plan.
    pub wasted_work: u64,
    /// Number of copies killed because their machine crashed. Part of the
    /// trajectory — included in equality. 0 without a fault plan.
    pub copies_killed_by_fault: u64,
    /// Total machine-slots spent down across all machines (crash epochs
    /// only; brown-outs keep the machine in service). Part of the trajectory
    /// — included in equality. 0 without a fault plan.
    pub machine_downtime: u64,
    /// Decision-path work counters and stage wall-clock timings — the single
    /// instrumentation carve-out: every other field participates in
    /// equality, this one never does.
    pub telemetry: RunTelemetry,
}

impl PartialEq for SimOutcome {
    fn eq(&self, other: &Self) -> bool {
        // `telemetry` is deliberately left out — see the type-level docs.
        self.scheduler == other.scheduler
            && self.num_machines == other.num_machines
            && self.records == other.records
            && self.makespan == other.makespan
            && self.busy_machine_slots == other.busy_machine_slots
            && self.total_copies == other.total_copies
            && self.scheduler_invocations == other.scheduler_invocations
            && self.peak_resident_jobs == other.peak_resident_jobs
            && self.peak_copy_slots == other.peak_copy_slots
            && self.wasted_work == other.wasted_work
            && self.copies_killed_by_fault == other.copies_killed_by_fault
            && self.machine_downtime == other.machine_downtime
    }
}

impl SimOutcome {
    /// Builds an outcome from its parts (engine-internal, but public so that
    /// experiment code can synthesise outcomes in tests).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        scheduler: String,
        num_machines: usize,
        records: Vec<JobRecord>,
        makespan: Slot,
        busy_machine_slots: u64,
        total_copies: usize,
        scheduler_invocations: u64,
        peak_resident_jobs: usize,
        peak_copy_slots: usize,
    ) -> Self {
        SimOutcome {
            scheduler,
            num_machines,
            records,
            makespan,
            busy_machine_slots,
            total_copies,
            scheduler_invocations,
            peak_resident_jobs,
            peak_copy_slots,
            // Fault counters default to a fault-free run; the engine assigns
            // them post-construction when a fault plan was active.
            wasted_work: 0,
            copies_killed_by_fault: 0,
            machine_downtime: 0,
            // Instrumentation defaults to "not measured"; the engine fills
            // it in post-construction from its run counters and (when
            // `SimConfig::profile_stages` is set) the stage clock.
            telemetry: RunTelemetry::default(),
        }
    }

    /// Per-job completion records, in job-id order.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// The record of one job, if it exists.
    pub fn record(&self, job: JobId) -> Option<&JobRecord> {
        self.records.iter().find(|r| r.job == job)
    }

    /// Unweighted mean job flowtime (the metric of Figs. 1–3 and 6).
    pub fn mean_flowtime(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.flowtime() as f64)
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// Weighted average flowtime `Σ w_i F_i / Σ w_i` (the paper's
    /// "weighted average of job flowtime").
    pub fn weighted_mean_flowtime(&self) -> f64 {
        let total_weight: f64 = self.records.iter().map(|r| r.weight).sum();
        if total_weight == 0.0 {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.weighted_flowtime())
            .sum::<f64>()
            / total_weight
    }

    /// The objective of the paper's optimisation problem: the weighted *sum*
    /// of job flowtimes `Σ w_i (f_i − a_i)`.
    pub fn weighted_sum_flowtime(&self) -> f64 {
        self.records.iter().map(|r| r.weighted_flowtime()).sum()
    }

    /// All flowtimes, in job-id order.
    pub fn flowtimes(&self) -> Vec<Slot> {
        self.records.iter().map(|r| r.flowtime()).collect()
    }

    /// Average cluster utilisation over the run (busy machine-slots divided
    /// by `M · makespan`), in `[0, 1]`... slightly above 1 is impossible by
    /// construction.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.busy_machine_slots as f64 / (self.num_machines as f64 * self.makespan as f64)
    }

    /// Mean number of copies per task across all jobs (1.0 = no cloning).
    pub fn mean_copies_per_task(&self) -> f64 {
        let tasks: usize = self.records.iter().map(|r| r.num_tasks()).sum();
        if tasks == 0 {
            return 0.0;
        }
        self.total_copies as f64 / tasks as f64
    }
}

impl ToJson for SimOutcome {
    fn to_json(&self) -> JsonValue {
        let trajectory = [
            ("scheduler", self.scheduler.to_json()),
            ("num_machines", self.num_machines.to_json()),
            ("records", self.records.to_json()),
            ("makespan", self.makespan.to_json()),
            ("busy_machine_slots", self.busy_machine_slots.to_json()),
            ("total_copies", self.total_copies.to_json()),
            (
                "scheduler_invocations",
                self.scheduler_invocations.to_json(),
            ),
            ("peak_resident_jobs", self.peak_resident_jobs.to_json()),
            ("peak_copy_slots", self.peak_copy_slots.to_json()),
            ("wasted_work", self.wasted_work.to_json()),
            (
                "copies_killed_by_fault",
                self.copies_killed_by_fault.to_json(),
            ),
            ("machine_downtime", self.machine_downtime.to_json()),
        ];
        JsonValue::object(trajectory.into_iter().chain(self.telemetry.json_fields()))
    }
}

impl FromJson for SimOutcome {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(SimOutcome {
            scheduler: String::from_json(value.field("scheduler")?)?,
            num_machines: usize::from_json(value.field("num_machines")?)?,
            records: Vec::from_json(value.field("records")?)?,
            makespan: Slot::from_json(value.field("makespan")?)?,
            busy_machine_slots: u64::from_json(value.field("busy_machine_slots")?)?,
            total_copies: usize::from_json(value.field("total_copies")?)?,
            scheduler_invocations: u64::from_json(value.field("scheduler_invocations")?)?,
            // Absent in outcomes serialised before the streaming subsystem.
            peak_resident_jobs: match value.get("peak_resident_jobs") {
                Some(v) => usize::from_json(v)?,
                None => 0,
            },
            // Absent in outcomes serialised before the copy-slot free-list.
            peak_copy_slots: match value.get("peak_copy_slots") {
                Some(v) => usize::from_json(v)?,
                None => 0,
            },
            // Absent in outcomes serialised before fault injection.
            wasted_work: match value.get("wasted_work") {
                Some(v) => u64::from_json(v)?,
                None => 0,
            },
            copies_killed_by_fault: match value.get("copies_killed_by_fault") {
                Some(v) => u64::from_json(v)?,
                None => 0,
            },
            machine_downtime: match value.get("machine_downtime") {
                Some(v) => u64::from_json(v)?,
                None => 0,
            },
            // Flat instrumentation keys; each parses as 0 when absent.
            telemetry: RunTelemetry::from_flat_json(value)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(job: u64, weight: f64, arrival: Slot, completion: Slot) -> JobRecord {
        JobRecord {
            job: JobId::new(job),
            weight,
            arrival,
            completion,
            num_map_tasks: 2,
            num_reduce_tasks: 1,
            copies_launched: 4,
            true_workload: 30.0,
        }
    }

    fn outcome() -> SimOutcome {
        let mut o = SimOutcome::new(
            "test".to_string(),
            10,
            vec![record(0, 1.0, 0, 100), record(1, 3.0, 50, 150)],
            150,
            600,
            8,
            42,
            2,
            5,
        );
        o.telemetry.decision_instants = 42;
        o.telemetry.ranked_prefix_len_max = 7;
        o
    }

    #[test]
    fn job_record_derived_quantities() {
        let r = record(0, 2.0, 10, 60);
        assert_eq!(r.flowtime(), 50);
        assert_eq!(r.weighted_flowtime(), 100.0);
        assert_eq!(r.num_tasks(), 3);
        assert_eq!(r.extra_copies(), 1);
    }

    #[test]
    fn outcome_means() {
        let o = outcome();
        assert_eq!(o.records().len(), 2);
        // Flowtimes: 100 and 100.
        assert!((o.mean_flowtime() - 100.0).abs() < 1e-12);
        assert!((o.weighted_mean_flowtime() - 100.0).abs() < 1e-12);
        assert!((o.weighted_sum_flowtime() - 400.0).abs() < 1e-12);
        assert_eq!(o.flowtimes(), vec![100, 100]);
    }

    #[test]
    fn outcome_utilization_and_copies() {
        let o = outcome();
        assert!((o.utilization() - 600.0 / 1500.0).abs() < 1e-12);
        assert!((o.mean_copies_per_task() - 8.0 / 6.0).abs() < 1e-12);
        assert!(o.record(JobId::new(1)).is_some());
        assert!(o.record(JobId::new(9)).is_none());
    }

    #[test]
    fn empty_outcome_is_safe() {
        let o = SimOutcome::new("x".into(), 5, vec![], 0, 0, 0, 0, 0, 0);
        assert_eq!(o.mean_flowtime(), 0.0);
        assert_eq!(o.weighted_mean_flowtime(), 0.0);
        assert_eq!(o.utilization(), 0.0);
        assert_eq!(o.mean_copies_per_task(), 0.0);
    }

    #[test]
    fn json_roundtrip() {
        let o = outcome();
        let json = o.to_json().to_pretty_string();
        let back = SimOutcome::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, o);
        // Instrumentation counters survive the roundtrip even though `==`
        // ignores them.
        assert_eq!(back.telemetry, o.telemetry);
    }

    #[test]
    fn equality_ignores_instrumentation_counters() {
        let a = outcome();
        let mut b = outcome();
        b.telemetry = RunTelemetry {
            decision_instants: 9_999,
            ranked_prefix_len_max: 1_234,
            stage_source_ns: 1,
            stage_events_ns: 2,
            stage_decision_ns: 3,
            stage_metrics_ns: 4,
        };
        assert_eq!(a, b, "instrumentation must not affect equality");
        b.makespan += 1;
        assert_ne!(a, b, "trajectory fields still must");
    }

    #[test]
    fn fault_counters_are_trajectory_fields() {
        let a = outcome();
        let mut b = outcome();
        b.wasted_work = 17;
        assert_ne!(a, b, "wasted_work is part of the trajectory");
        b.wasted_work = 0;
        b.copies_killed_by_fault = 1;
        assert_ne!(a, b, "copies_killed_by_fault is part of the trajectory");
        b.copies_killed_by_fault = 0;
        b.machine_downtime = 3;
        assert_ne!(a, b, "machine_downtime is part of the trajectory");

        // Roundtrip preserves the counters; legacy documents parse as 0.
        let mut o = outcome();
        o.wasted_work = 5;
        o.copies_killed_by_fault = 2;
        o.machine_downtime = 9;
        let json = o.to_json().to_compact_string();
        let back = SimOutcome::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, o);
        let mut legacy = o.to_json();
        if let JsonValue::Object(map) = &mut legacy {
            for key in ["wasted_work", "copies_killed_by_fault", "machine_downtime"] {
                map.remove(key);
            }
        }
        let back = SimOutcome::from_json(&legacy).unwrap();
        assert_eq!(back.wasted_work, 0);
        assert_eq!(back.copies_killed_by_fault, 0);
        assert_eq!(back.machine_downtime, 0);
    }

    #[test]
    fn stage_timings_roundtrip_and_default() {
        let mut o = outcome();
        o.telemetry.stage_source_ns = 11;
        o.telemetry.stage_events_ns = 22;
        o.telemetry.stage_decision_ns = 33;
        o.telemetry.stage_metrics_ns = 44;
        let json = o.to_json().to_compact_string();
        let back = SimOutcome::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back.telemetry.stage_source_ns, 11);
        assert_eq!(back.telemetry.stage_events_ns, 22);
        assert_eq!(back.telemetry.stage_decision_ns, 33);
        assert_eq!(back.telemetry.stage_metrics_ns, 44);
        // Outcomes serialised before the corresponding instrumentation
        // existed parse as 0 — the keys stay flat, so pre-consolidation
        // documents remain readable.
        let mut legacy = o.to_json();
        if let JsonValue::Object(map) = &mut legacy {
            for key in RunTelemetry::KEYS {
                map.remove(key);
            }
        }
        let back = SimOutcome::from_json(&legacy).unwrap();
        assert_eq!(back.telemetry, RunTelemetry::default());
    }
}
