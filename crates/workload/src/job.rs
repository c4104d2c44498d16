//! Job and task specifications.
//!
//! A [`JobSpec`] is the static description of one MapReduce job exactly as the
//! paper's model needs it (Section III): an arrival time `a_i`, a weight
//! `w_i`, `m_i` map tasks and `r_i` reduce tasks, plus per-phase first and
//! second moments (`E^c_i`, `σ^c_i`) which are the only statistics schedulers
//! are allowed to consult. Each [`TaskSpec`] additionally carries its sampled
//! ground-truth workload `p^{c,j}_i`, which only the simulator may look at.

use crate::distribution::DurationDistribution;
use crate::ids::{JobId, Phase, TaskId};
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};
use std::fmt;

/// Ground-truth description of a single task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Identity of the task.
    pub id: TaskId,
    /// The sampled workload `p^{c,j}_i` (processing time on a unit-speed
    /// machine). Only the simulator consumes this; schedulers must not.
    pub workload: f64,
}

impl TaskSpec {
    /// Creates a task spec.
    ///
    /// # Panics
    /// Panics if `workload` is not strictly positive and finite.
    pub fn new(id: TaskId, workload: f64) -> Self {
        assert!(
            workload.is_finite() && workload > 0.0,
            "task workload must be positive and finite, got {workload}"
        );
        TaskSpec { id, workload }
    }
}

impl ToJson for TaskSpec {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("id", self.id.to_json()),
            ("workload", self.workload.to_json()),
        ])
    }
}

impl FromJson for TaskSpec {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let workload = f64::from_json(value.field("workload")?)?;
        if !(workload.is_finite() && workload > 0.0) {
            return Err(JsonError::new("task workload must be positive and finite"));
        }
        Ok(TaskSpec {
            id: TaskId::from_json(value.field("id")?)?,
            workload,
        })
    }
}

/// First and second moments of the task-workload distribution of one phase —
/// the a-priori knowledge the paper grants the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Mean task workload `E^c_i` of this phase.
    pub mean: f64,
    /// Standard deviation `σ^c_i` of the task workload of this phase.
    pub std_dev: f64,
}

impl PhaseStats {
    /// Creates phase statistics.
    ///
    /// # Panics
    /// Panics if `mean` is not a positive normal finite number (at least
    /// `f64::MIN_POSITIVE`) or `std_dev` is negative or not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        let stats = PhaseStats { mean, std_dev };
        if let Err(message) = stats.validate() {
            panic!("{message}");
        }
        stats
    }

    /// Checks the invariants [`PhaseStats::new`] enforces. A normal positive
    /// mean keeps every effective workload `U_i(l) ≥ E^c_i` of a job with an
    /// unscheduled task at or above `f64::MIN_POSITIVE`, so ranking by
    /// `w_i / U_i(l)` needs no `U.max(f64::MIN_POSITIVE)` floor.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.mean.is_normal() && self.mean > 0.0) {
            return Err(format!(
                "phase mean must be positive, normal and finite, got {}",
                self.mean
            ));
        }
        if !(self.std_dev.is_finite() && self.std_dev >= 0.0) {
            return Err(format!(
                "phase std_dev must be non-negative and finite, got {}",
                self.std_dev
            ));
        }
        Ok(())
    }

    /// The *effective* per-task workload `E + r·σ` used throughout the paper
    /// (Equations (2) and (4)); `r` is the pessimism factor.
    pub fn effective_task_workload(&self, r: f64) -> f64 {
        self.mean + r * self.std_dev
    }
}

impl Default for PhaseStats {
    fn default() -> Self {
        PhaseStats {
            mean: 1.0,
            std_dev: 0.0,
        }
    }
}

impl fmt::Display for PhaseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E={:.1} σ={:.1}", self.mean, self.std_dev)
    }
}

impl ToJson for PhaseStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("mean", self.mean.to_json()),
            ("std_dev", self.std_dev.to_json()),
        ])
    }
}

impl FromJson for PhaseStats {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let stats = PhaseStats {
            mean: f64::from_json(value.field("mean")?)?,
            std_dev: f64::from_json(value.field("std_dev")?)?,
        };
        stats.validate().map_err(JsonError::new)?;
        Ok(stats)
    }
}

/// Static description of one MapReduce job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Identity of the job.
    pub id: JobId,
    /// Arrival time `a_i` in slots (seconds at the default slot length).
    pub arrival: u64,
    /// Weight `w_i` (the Google trace priority 0–11 is used as the weight in
    /// the paper's evaluation; we require it to be ≥ a small positive value so
    /// priority ratios stay finite).
    pub weight: f64,
    /// Map tasks with their ground-truth workloads.
    pub map_tasks: Vec<TaskSpec>,
    /// Reduce tasks with their ground-truth workloads.
    pub reduce_tasks: Vec<TaskSpec>,
    /// Scheduler-visible moments of the map-phase workload distribution.
    pub map_stats: PhaseStats,
    /// Scheduler-visible moments of the reduce-phase workload distribution.
    pub reduce_stats: PhaseStats,
    /// The distribution map-task workloads (and clone resamples) are drawn
    /// from. `None` means clones re-use the original workload.
    pub map_distribution: Option<DurationDistribution>,
    /// The distribution reduce-task workloads (and clone resamples) are drawn
    /// from.
    pub reduce_distribution: Option<DurationDistribution>,
}

impl JobSpec {
    /// Starts building a job with the given id.
    pub fn builder(id: JobId) -> JobSpecBuilder {
        JobSpecBuilder::new(id)
    }

    /// Number of map tasks `m_i`.
    pub fn num_map_tasks(&self) -> usize {
        self.map_tasks.len()
    }

    /// Number of reduce tasks `r_i`.
    pub fn num_reduce_tasks(&self) -> usize {
        self.reduce_tasks.len()
    }

    /// Total number of tasks in the job.
    pub fn num_tasks(&self) -> usize {
        self.map_tasks.len() + self.reduce_tasks.len()
    }

    /// Tasks of the given phase.
    pub fn tasks(&self, phase: Phase) -> &[TaskSpec] {
        match phase {
            Phase::Map => &self.map_tasks,
            Phase::Reduce => &self.reduce_tasks,
        }
    }

    /// Scheduler-visible stats of the given phase.
    pub fn stats(&self, phase: Phase) -> PhaseStats {
        match phase {
            Phase::Map => self.map_stats,
            Phase::Reduce => self.reduce_stats,
        }
    }

    /// Workload-sampling distribution of the given phase, if any.
    pub fn distribution(&self, phase: Phase) -> Option<&DurationDistribution> {
        match phase {
            Phase::Map => self.map_distribution.as_ref(),
            Phase::Reduce => self.reduce_distribution.as_ref(),
        }
    }

    /// Total *effective* workload `φ_i = m_i(E^m + rσ^m) + r_i(E^r + rσ^r)`
    /// (Equation (2) of the paper).
    pub fn effective_workload(&self, r: f64) -> f64 {
        self.num_map_tasks() as f64 * self.map_stats.effective_task_workload(r)
            + self.num_reduce_tasks() as f64 * self.reduce_stats.effective_task_workload(r)
    }

    /// Total ground-truth workload (sum of every task's sampled workload) —
    /// used by metrics and oracle baselines, never by the paper's schedulers.
    pub fn true_total_workload(&self) -> f64 {
        self.map_tasks
            .iter()
            .chain(self.reduce_tasks.iter())
            .map(|t| t.workload)
            .sum()
    }

    /// The job's SRPT priority `w_i / φ_i` used by the offline algorithm.
    pub fn priority(&self, r: f64) -> f64 {
        let phi = self.effective_workload(r);
        if phi > 0.0 {
            self.weight / phi
        } else {
            f64::INFINITY
        }
    }

    /// A quick validity check used by the trace importer: ids are consistent,
    /// workloads positive, at least one task.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_tasks() == 0 {
            return Err(format!("{}: job has no tasks", self.id));
        }
        if self.weight.is_nan() || self.weight <= 0.0 {
            return Err(format!("{}: weight must be positive", self.id));
        }
        for stats in [self.map_stats, self.reduce_stats] {
            stats
                .validate()
                .map_err(|message| format!("{}: {message}", self.id))?;
        }
        for (phase, tasks) in [
            (Phase::Map, &self.map_tasks),
            (Phase::Reduce, &self.reduce_tasks),
        ] {
            for (idx, t) in tasks.iter().enumerate() {
                if t.id.job != self.id || t.id.phase != phase || t.id.index as usize != idx {
                    return Err(format!("{}: task id {} inconsistent", self.id, t.id));
                }
                if t.workload.is_nan() || t.workload <= 0.0 || !t.workload.is_finite() {
                    return Err(format!("{}: task {} has invalid workload", self.id, t.id));
                }
            }
        }
        Ok(())
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("id", self.id.to_json()),
            ("arrival", self.arrival.to_json()),
            ("weight", self.weight.to_json()),
            ("map_tasks", self.map_tasks.to_json()),
            ("reduce_tasks", self.reduce_tasks.to_json()),
            ("map_stats", self.map_stats.to_json()),
            ("reduce_stats", self.reduce_stats.to_json()),
            ("map_distribution", self.map_distribution.to_json()),
            ("reduce_distribution", self.reduce_distribution.to_json()),
        ])
    }
}

impl FromJson for JobSpec {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(JobSpec {
            id: JobId::from_json(value.field("id")?)?,
            arrival: u64::from_json(value.field("arrival")?)?,
            weight: f64::from_json(value.field("weight")?)?,
            map_tasks: Vec::from_json(value.field("map_tasks")?)?,
            reduce_tasks: Vec::from_json(value.field("reduce_tasks")?)?,
            map_stats: PhaseStats::from_json(value.field("map_stats")?)?,
            reduce_stats: PhaseStats::from_json(value.field("reduce_stats")?)?,
            map_distribution: Option::from_json(value.field("map_distribution")?)?,
            reduce_distribution: Option::from_json(value.field("reduce_distribution")?)?,
        })
    }
}

/// Builder for [`JobSpec`] (C-BUILDER).
///
/// ```
/// use mapreduce_workload::{JobId, JobSpecBuilder, PhaseStats};
///
/// let job = JobSpecBuilder::new(JobId::new(0))
///     .arrival(10)
///     .weight(3.0)
///     .map_tasks_from_workloads(&[5.0, 6.0, 7.0])
///     .reduce_tasks_from_workloads(&[12.0])
///     .map_stats(PhaseStats::new(6.0, 1.0))
///     .reduce_stats(PhaseStats::new(12.0, 0.0))
///     .build();
/// assert_eq!(job.num_map_tasks(), 3);
/// assert_eq!(job.num_reduce_tasks(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    id: JobId,
    arrival: u64,
    weight: f64,
    map_workloads: Vec<f64>,
    reduce_workloads: Vec<f64>,
    map_stats: Option<PhaseStats>,
    reduce_stats: Option<PhaseStats>,
    map_distribution: Option<DurationDistribution>,
    reduce_distribution: Option<DurationDistribution>,
}

impl JobSpecBuilder {
    /// Starts a builder for the job with the given id.
    pub fn new(id: JobId) -> Self {
        JobSpecBuilder {
            id,
            arrival: 0,
            weight: 1.0,
            map_workloads: Vec::new(),
            reduce_workloads: Vec::new(),
            map_stats: None,
            reduce_stats: None,
            map_distribution: None,
            reduce_distribution: None,
        }
    }

    /// Sets the arrival slot (default 0).
    pub fn arrival(mut self, arrival: u64) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the weight (default 1.0).
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Appends map tasks with the given ground-truth workloads.
    pub fn map_tasks_from_workloads(mut self, workloads: &[f64]) -> Self {
        self.map_workloads.extend_from_slice(workloads);
        self
    }

    /// Appends reduce tasks with the given ground-truth workloads.
    pub fn reduce_tasks_from_workloads(mut self, workloads: &[f64]) -> Self {
        self.reduce_workloads.extend_from_slice(workloads);
        self
    }

    /// Sets the scheduler-visible map-phase moments. If omitted they are
    /// computed from the supplied workloads.
    pub fn map_stats(mut self, stats: PhaseStats) -> Self {
        self.map_stats = Some(stats);
        self
    }

    /// Sets the scheduler-visible reduce-phase moments. If omitted they are
    /// computed from the supplied workloads.
    pub fn reduce_stats(mut self, stats: PhaseStats) -> Self {
        self.reduce_stats = Some(stats);
        self
    }

    /// Sets the map-phase resampling distribution (used for clone workloads).
    pub fn map_distribution(mut self, dist: DurationDistribution) -> Self {
        self.map_distribution = Some(dist);
        self
    }

    /// Sets the reduce-phase resampling distribution (used for clone
    /// workloads).
    pub fn reduce_distribution(mut self, dist: DurationDistribution) -> Self {
        self.reduce_distribution = Some(dist);
        self
    }

    /// Builds the [`JobSpec`].
    ///
    /// # Panics
    /// Panics if the job ends up with zero tasks or a non-positive weight.
    pub fn build(self) -> JobSpec {
        assert!(
            !self.map_workloads.is_empty() || !self.reduce_workloads.is_empty(),
            "job {} must have at least one task",
            self.id
        );
        assert!(self.weight > 0.0, "job {} weight must be positive", self.id);

        let empirical = |workloads: &[f64]| -> PhaseStats {
            if workloads.is_empty() {
                // Phase not present; keep harmless defaults.
                return PhaseStats::default();
            }
            let n = workloads.len() as f64;
            let mean = workloads.iter().sum::<f64>() / n;
            let var = workloads.iter().map(|w| (w - mean).powi(2)).sum::<f64>() / n;
            PhaseStats::new(mean, var.sqrt())
        };

        let map_stats = self
            .map_stats
            .unwrap_or_else(|| empirical(&self.map_workloads));
        let reduce_stats = self
            .reduce_stats
            .unwrap_or_else(|| empirical(&self.reduce_workloads));

        let map_tasks = self
            .map_workloads
            .iter()
            .enumerate()
            .map(|(i, &w)| TaskSpec::new(TaskId::new(self.id, Phase::Map, i as u32), w))
            .collect();
        let reduce_tasks = self
            .reduce_workloads
            .iter()
            .enumerate()
            .map(|(i, &w)| TaskSpec::new(TaskId::new(self.id, Phase::Reduce, i as u32), w))
            .collect();

        JobSpec {
            id: self.id,
            arrival: self.arrival,
            weight: self.weight,
            map_tasks,
            reduce_tasks,
            map_stats,
            reduce_stats,
            map_distribution: self.map_distribution,
            reduce_distribution: self.reduce_distribution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_job() -> JobSpec {
        JobSpecBuilder::new(JobId::new(1))
            .arrival(5)
            .weight(2.0)
            .map_tasks_from_workloads(&[10.0, 20.0, 30.0])
            .reduce_tasks_from_workloads(&[40.0, 50.0])
            .build()
    }

    #[test]
    fn builder_counts_and_ids() {
        let job = sample_job();
        assert_eq!(job.num_map_tasks(), 3);
        assert_eq!(job.num_reduce_tasks(), 2);
        assert_eq!(job.num_tasks(), 5);
        assert_eq!(
            job.map_tasks[2].id,
            TaskId::new(JobId::new(1), Phase::Map, 2)
        );
        assert_eq!(
            job.reduce_tasks[0].id,
            TaskId::new(JobId::new(1), Phase::Reduce, 0)
        );
        assert!(job.validate().is_ok());
    }

    #[test]
    fn builder_computes_empirical_stats_when_missing() {
        let job = sample_job();
        assert!((job.map_stats.mean - 20.0).abs() < 1e-12);
        assert!((job.reduce_stats.mean - 45.0).abs() < 1e-12);
        assert!(job.map_stats.std_dev > 0.0);
    }

    #[test]
    fn explicit_stats_override_empirical() {
        let job = JobSpecBuilder::new(JobId::new(2))
            .map_tasks_from_workloads(&[1.0, 100.0])
            .map_stats(PhaseStats::new(7.0, 3.0))
            .build();
        assert_eq!(job.map_stats.mean, 7.0);
        assert_eq!(job.map_stats.std_dev, 3.0);
    }

    #[test]
    fn effective_workload_matches_equation_2() {
        let job = JobSpecBuilder::new(JobId::new(3))
            .weight(4.0)
            .map_tasks_from_workloads(&[1.0; 10])
            .reduce_tasks_from_workloads(&[1.0; 5])
            .map_stats(PhaseStats::new(10.0, 2.0))
            .reduce_stats(PhaseStats::new(20.0, 4.0))
            .build();
        // φ = 10·(10 + 3·2) + 5·(20 + 3·4) = 160 + 160 = 320
        assert!((job.effective_workload(3.0) - 320.0).abs() < 1e-12);
        // priority = w/φ
        assert!((job.priority(3.0) - 4.0 / 320.0).abs() < 1e-15);
        // r = 0 ignores the variance term.
        assert!((job.effective_workload(0.0) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn true_total_workload_sums_tasks() {
        let job = sample_job();
        assert!((job.true_total_workload() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn tasks_and_stats_accessors_by_phase() {
        let job = sample_job();
        assert_eq!(job.tasks(Phase::Map).len(), 3);
        assert_eq!(job.tasks(Phase::Reduce).len(), 2);
        assert_eq!(job.stats(Phase::Map), job.map_stats);
        assert_eq!(job.stats(Phase::Reduce), job.reduce_stats);
    }

    #[test]
    fn phase_stats_effective_workload() {
        let s = PhaseStats::new(100.0, 25.0);
        assert_eq!(s.effective_task_workload(0.0), 100.0);
        assert_eq!(s.effective_task_workload(2.0), 150.0);
    }

    #[test]
    fn phase_stats_from_distribution() {
        // Generated jobs carry their duration distribution's moments.
        let d = DurationDistribution::Exponential { mean: 42.0 };
        let trace = crate::WorkloadBuilder::new()
            .num_jobs(1)
            .map_duration(d)
            .build(1);
        let s = trace.jobs()[0].stats(Phase::Map);
        assert!((s.mean - 42.0).abs() < 1e-12);
        assert!((s.std_dev - 42.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "workload must be positive")]
    fn task_spec_rejects_zero_workload() {
        TaskSpec::new(TaskId::new(JobId::new(0), Phase::Map, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn builder_rejects_empty_job() {
        JobSpecBuilder::new(JobId::new(0)).build();
    }

    #[test]
    fn validate_catches_inconsistent_ids() {
        let mut job = sample_job();
        job.map_tasks[0].id = TaskId::new(JobId::new(99), Phase::Map, 0);
        assert!(job.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_weight() {
        let mut job = sample_job();
        job.weight = 0.0;
        assert!(job.validate().is_err());
    }

    #[test]
    fn map_only_job_is_valid() {
        let job = JobSpecBuilder::new(JobId::new(5))
            .map_tasks_from_workloads(&[3.0])
            .build();
        assert!(job.validate().is_ok());
        assert_eq!(job.num_reduce_tasks(), 0);
        assert!(job.effective_workload(1.0) > 0.0);
    }

    #[test]
    fn json_roundtrip() {
        let mut job = sample_job();
        job.map_distribution = Some(DurationDistribution::Exponential { mean: 20.0 });
        let json = job.to_json().to_pretty_string();
        let back = JobSpec::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, job);
    }

    /// Ranked orders divide by `U_i(l) ≥ E^c_i` without a floor; a zero or
    /// subnormal phase mean would let `U_i(l)` drop below
    /// `f64::MIN_POSITIVE`, so no constructor, loader or validator accepts
    /// one.
    #[test]
    fn phase_means_below_min_positive_are_rejected() {
        assert!(PhaseStats::new(f64::MIN_POSITIVE, 0.0).validate().is_ok());
        let subnormal = f64::MIN_POSITIVE / 2.0;
        assert!(std::panic::catch_unwind(|| PhaseStats::new(subnormal, 0.0)).is_err());
        let zero = JsonValue::parse(r#"{"mean": 0, "std_dev": 1}"#).unwrap();
        assert!(PhaseStats::from_json(&zero).is_err());
        let mut job = sample_job();
        job.reduce_stats = PhaseStats {
            mean: subnormal,
            std_dev: 0.0,
        };
        assert!(job.validate().is_err());
    }
}
