//! Registry-folding [`SimObserver`]: turns lifecycle events into counters
//! and [`QuantileSketch`] histograms.
//!
//! [`SimTelemetry`] is the standard consumer of the engine's telemetry seam:
//! attach it via [`mapreduce_sim::Simulation::run_with_observer`] and every
//! event folds into a [`MetricsRegistry`] at counter cost. All folded
//! quantities are simulation facts (slots, counts), so two runs of the same
//! configuration produce byte-identical registries.
//!
//! Counter and histogram names are published as constants in [`names`] so
//! exporters ([`crate::TraceRecorder`]) and tests compare against the same
//! strings the observer writes.

use crate::registry::MetricsRegistry;
use crate::sketch::{FlowtimeSketches, QuantileSketch};
use mapreduce_sim::telemetry::{
    CopyCancelled, CopyFinished, CopyLaunched, DecisionInstant, SimObserver,
};
use mapreduce_sim::{CancelReason, JobRecord, SimOutcome, Slot};
use mapreduce_workload::{JobId, TaskId};

/// Names of the counters and histograms [`SimTelemetry`] folds, so every
/// consumer (trace export, server stats, tests) speaks the same vocabulary.
pub mod names {
    /// Counter: jobs admitted into the run.
    pub const JOBS_ARRIVED: &str = "jobs_arrived";
    /// Counter: jobs completed.
    pub const JOBS_COMPLETED: &str = "jobs_completed";
    /// Counter: copies launched (originals + clones + backups).
    pub const COPIES_LAUNCHED: &str = "copies_launched";
    /// Counter: the subset of launches that were clones/backups.
    pub const CLONES_LAUNCHED: &str = "clones_launched";
    /// Counter: copies that finished and won their task.
    pub const COPIES_FINISHED: &str = "copies_finished";
    /// Counter: copies cancelled because a sibling finished first.
    pub const CANCELLED_SIBLING: &str = "copies_cancelled_sibling";
    /// Counter: copies cancelled by a scheduler action.
    pub const CANCELLED_SCHEDULER: &str = "copies_cancelled_scheduler";
    /// Counter: copies killed by a machine crash.
    pub const CANCELLED_FAULT: &str = "copies_cancelled_fault";
    /// Counter: tasks whose last copy died and re-entered the unscheduled
    /// pool.
    pub const TASKS_UNLAUNCHED: &str = "tasks_unlaunched";
    /// Counter: machine down events (crashes and brown-out onsets).
    pub const MACHINES_DOWN: &str = "machines_down";
    /// Counter: machine up events (recoveries and brown-out ends).
    pub const MACHINES_UP: &str = "machines_up";
    /// Counter: decision instants that reached the scheduler
    /// ([`mapreduce_sim::SimOutcome::scheduler_invocations`]).
    pub const DECISION_INSTANTS: &str = "decision_instants";
    /// Counter: `Action::Launch` actions returned by the scheduler.
    pub const LAUNCH_ACTIONS: &str = "launch_actions";
    /// Counter: `Action::CancelCopies` actions returned by the scheduler.
    pub const CANCEL_ACTIONS: &str = "cancel_actions";
    /// Counter: copies requested across all launch actions (pre-clipping).
    pub const COPIES_REQUESTED: &str = "copies_requested";

    /// Histogram: copies ever launched for each completed task.
    pub const COPIES_PER_TASK: &str = "copies_per_task";
    /// Histogram: lifetime (slots) of winning copies.
    pub const COPY_LIFETIME: &str = "copy_lifetime";
    /// Histogram: lifetime (slots) of clone/backup copies at finish or
    /// cancellation.
    pub const CLONE_LIFETIME: &str = "clone_lifetime";
    /// Histogram: machine time (slots) reclaimed per cancelled copy.
    pub const CANCEL_LATENCY: &str = "cancel_latency";
    /// Histogram: job flowtimes (slots), the `all` sketch of
    /// [`super::SimTelemetry::sketches`].
    pub const JOB_FLOWTIME: &str = "job_flowtime";
    /// Histogram: ranked-candidate prefix consumed per decision instant.
    pub const RANKED_PREFIX: &str = "ranked_prefix";

    /// Histogram fed one sample per [`super::fold_run_telemetry`] run: the
    /// run's largest ranked-candidate prefix.
    pub const RANKED_PREFIX_LEN_MAX: &str = "ranked_prefix_len_max";
}

/// Folds what an unobserved run's outcome says about its decisions into a
/// registry: the instants that reached the scheduler add to
/// [`names::DECISION_INSTANTS`] (the counter [`SimTelemetry`] counts per
/// event, so observed and unobserved runs fill it alike), and the run's
/// ranked-prefix maximum lands as one histogram sample. Counters add, so a
/// sweep folds cell after cell into one registry. A run observed by
/// [`SimTelemetry`] has its decisions counted already and must not be
/// folded again.
pub fn fold_run_telemetry(registry: &mut MetricsRegistry, outcome: &SimOutcome) {
    registry.inc(names::DECISION_INSTANTS, outcome.scheduler_invocations);
    registry.record(
        names::RANKED_PREFIX_LEN_MAX,
        outcome.telemetry.ranked_prefix_len_max as u64,
    );
}

/// Per-event-kind lifecycle counters shared by the hot observers
/// ([`SimTelemetry`], [`crate::TraceRecorder`]): one plain `u64` per event
/// kind, so the per-event cost is a field increment — no name lookup of any
/// sort. [`LifecycleCounts::fold_into`] materializes them under the
/// canonical [`names`] when a [`MetricsRegistry`] is actually wanted
/// (end of run, export, validation), producing exactly the registry a
/// per-event `inc` would have built.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LifecycleCounts {
    /// Jobs admitted into the run.
    pub jobs_arrived: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Copies launched (originals + clones + backups).
    pub copies_launched: u64,
    /// Copies that finished and won their task.
    pub copies_finished: u64,
    /// Copies cancelled because a sibling finished first.
    pub cancelled_sibling: u64,
    /// Copies cancelled by a scheduler action.
    pub cancelled_scheduler: u64,
    /// Copies killed by a machine crash.
    pub cancelled_fault: u64,
    /// Tasks whose last copy died and re-entered the unscheduled pool.
    pub tasks_unlaunched: u64,
    /// Machine down events.
    pub machines_down: u64,
    /// Machine up events.
    pub machines_up: u64,
    /// Decision instants that reached the scheduler.
    pub decision_instants: u64,
}

impl LifecycleCounts {
    /// Adds every non-zero count to `registry` under its canonical
    /// [`names`] entry (zero counts create nothing, matching the behaviour
    /// of per-event [`MetricsRegistry::inc`] folding).
    pub fn fold_into(&self, registry: &mut MetricsRegistry) {
        registry.inc(names::JOBS_ARRIVED, self.jobs_arrived);
        registry.inc(names::JOBS_COMPLETED, self.jobs_completed);
        registry.inc(names::COPIES_LAUNCHED, self.copies_launched);
        registry.inc(names::COPIES_FINISHED, self.copies_finished);
        registry.inc(names::CANCELLED_SIBLING, self.cancelled_sibling);
        registry.inc(names::CANCELLED_SCHEDULER, self.cancelled_scheduler);
        registry.inc(names::CANCELLED_FAULT, self.cancelled_fault);
        registry.inc(names::TASKS_UNLAUNCHED, self.tasks_unlaunched);
        registry.inc(names::MACHINES_DOWN, self.machines_down);
        registry.inc(names::MACHINES_UP, self.machines_up);
        registry.inc(names::DECISION_INSTANTS, self.decision_instants);
    }
}

/// The registry-folding observer.
///
/// Tracks which active arena slots hold clones (slot ids are reused, so the
/// set stays bounded by the alive copy window) to attribute lifetimes to the
/// `clone_lifetime` histogram without the engine having to replay the launch
/// kind at finish time.
///
/// # Hot-path discipline
///
/// Every per-event quantity accumulates in a plain struct field
/// ([`LifecycleCounts`], bare `u64`s, [`QuantileSketch`]es, the
/// [`FlowtimeSketches`]) — the observer never touches a name-keyed map
/// while the engine runs. The [`MetricsRegistry`] is materialized on
/// demand by [`SimTelemetry::registry`] under the canonical [`names`],
/// byte-identical to what per-event `inc`/`record` calls would have
/// produced. This is what keeps the full observer stack within the CI
/// bench-guard's observed-vs-bare overhead ceiling at 100k-job scale.
#[derive(Debug, Default, Clone)]
pub struct SimTelemetry {
    counts: LifecycleCounts,
    clones_launched: u64,
    launch_actions: u64,
    cancel_actions: u64,
    copies_requested: u64,
    copies_per_task: QuantileSketch,
    copy_lifetime: QuantileSketch,
    clone_lifetime: QuantileSketch,
    cancel_latency: QuantileSketch,
    ranked_prefix: QuantileSketch,
    /// Streaming flowtime quantile sketches (all jobs + the paper's
    /// small/big figure windows), folded one `JobCompleted` at a time. The
    /// `all` sketch is the registry's [`names::JOB_FLOWTIME`] histogram.
    sketches: FlowtimeSketches,
    /// Bitset over arena slot ids: bit set while the slot holds a
    /// clone/backup copy. Slot ids are reused, so the vector stays bounded
    /// by the alive copy window; word-indexed set/test-and-clear keeps the
    /// per-copy-event cost hash-free.
    clones: Vec<u64>,
}

impl SimTelemetry {
    /// A fresh observer with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Materializes the registry folded so far (counters and histograms
    /// under the canonical [`names`]). Built on demand from the plain-field
    /// accumulators — call it at end of run, not per event.
    pub fn registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        self.counts.fold_into(&mut registry);
        registry.inc(names::CLONES_LAUNCHED, self.clones_launched);
        registry.inc(names::LAUNCH_ACTIONS, self.launch_actions);
        registry.inc(names::CANCEL_ACTIONS, self.cancel_actions);
        registry.inc(names::COPIES_REQUESTED, self.copies_requested);
        registry.merge_histogram(names::COPIES_PER_TASK, &self.copies_per_task);
        registry.merge_histogram(names::COPY_LIFETIME, &self.copy_lifetime);
        registry.merge_histogram(names::CLONE_LIFETIME, &self.clone_lifetime);
        registry.merge_histogram(names::CANCEL_LATENCY, &self.cancel_latency);
        registry.merge_histogram(names::JOB_FLOWTIME, &self.sketches.all);
        registry.merge_histogram(names::RANKED_PREFIX, &self.ranked_prefix);
        registry
    }

    /// The flowtime quantile sketches folded so far: Fig. 4/5-shaped CDF
    /// series and percentiles in O(1) memory, no per-job records held.
    pub fn sketches(&self) -> &FlowtimeSketches {
        &self.sketches
    }

    /// Consumes the observer, yielding the folded registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry()
    }

    /// Consumes the observer, yielding the registry and the flowtime
    /// sketches.
    pub fn into_parts(self) -> (MetricsRegistry, FlowtimeSketches) {
        (self.registry(), self.sketches)
    }

    /// Marks an arena slot as holding a clone/backup copy.
    fn mark_clone(&mut self, copy: mapreduce_sim::CopyId) {
        let (word, bit) = (copy.0 as usize / 64, copy.0 % 64);
        if word >= self.clones.len() {
            self.clones.resize(word + 1, 0);
        }
        self.clones[word] |= 1 << bit;
    }

    /// A copy left its machine: settle its clone bookkeeping and return
    /// whether it was a clone.
    fn settle_clone(&mut self, copy: mapreduce_sim::CopyId, lifetime: u64) -> bool {
        let (word, bit) = (copy.0 as usize / 64, copy.0 % 64);
        match self.clones.get_mut(word) {
            Some(w) if *w & (1 << bit) != 0 => {
                *w &= !(1 << bit);
                self.clone_lifetime.record(lifetime);
                true
            }
            _ => false,
        }
    }
}

impl SimObserver for SimTelemetry {
    fn on_job_arrived(&mut self, _at: Slot, _job: JobId) {
        self.counts.jobs_arrived += 1;
    }

    fn on_job_completed(&mut self, record: &JobRecord) {
        self.counts.jobs_completed += 1;
        self.sketches.fold(record.flowtime());
    }

    fn on_copy_launched(&mut self, event: CopyLaunched) {
        self.counts.copies_launched += 1;
        if event.clone {
            self.clones_launched += 1;
            self.mark_clone(event.copy);
        }
    }

    fn on_copy_finished(&mut self, event: CopyFinished) {
        self.counts.copies_finished += 1;
        let lifetime = event.at.saturating_sub(event.launched_at);
        self.copy_lifetime.record(lifetime);
        self.copies_per_task.record(event.copies_of_task as u64);
        self.settle_clone(event.copy, lifetime);
    }

    fn on_copy_cancelled(&mut self, event: CopyCancelled) {
        match event.reason {
            CancelReason::SiblingFinished => self.counts.cancelled_sibling += 1,
            CancelReason::Scheduler => self.counts.cancelled_scheduler += 1,
            CancelReason::Fault => self.counts.cancelled_fault += 1,
        }
        let lifetime = event.at.saturating_sub(event.launched_at);
        self.cancel_latency.record(lifetime);
        self.settle_clone(event.copy, lifetime);
    }

    fn on_task_unlaunched(&mut self, _at: Slot, _task: TaskId) {
        self.counts.tasks_unlaunched += 1;
    }

    fn on_machine_down(&mut self, _at: Slot, _machine: u32, _crash: bool) {
        self.counts.machines_down += 1;
    }

    fn on_machine_up(&mut self, _at: Slot, _machine: u32, _crash: bool) {
        self.counts.machines_up += 1;
    }

    fn on_decision_instant(&mut self, event: DecisionInstant) {
        self.counts.decision_instants += 1;
        self.launch_actions += event.launch_actions as u64;
        self.cancel_actions += event.cancel_actions as u64;
        self.copies_requested += event.copies_requested as u64;
        self.ranked_prefix.record(event.ranked_prefix as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::schedulers::MaxCloneScheduler;
    use mapreduce_sim::{SimConfig, Simulation};
    use mapreduce_workload::WorkloadBuilder;

    #[test]
    fn observed_run_folds_consistent_counters() {
        let trace = WorkloadBuilder::new().num_jobs(40).build(11);
        let config = SimConfig::new(16).with_seed(11);
        let mut scheduler = MaxCloneScheduler::new(3);
        let mut telemetry = SimTelemetry::new();
        let outcome = Simulation::new(config.clone(), &trace)
            .run_with_observer(&mut scheduler, &mut telemetry)
            .unwrap();
        let registry = telemetry.registry();

        assert_eq!(
            registry.counter(names::JOBS_ARRIVED),
            outcome.records().len() as u64
        );
        assert_eq!(
            registry.counter(names::JOBS_COMPLETED),
            outcome.records().len() as u64
        );
        assert_eq!(
            registry.counter(names::COPIES_LAUNCHED),
            outcome.total_copies as u64
        );
        // Every launched copy ends exactly one way.
        assert_eq!(
            registry.counter(names::COPIES_FINISHED)
                + registry.counter(names::CANCELLED_SIBLING)
                + registry.counter(names::CANCELLED_SCHEDULER)
                + registry.counter(names::CANCELLED_FAULT),
            outcome.total_copies as u64
        );
        // The final event batch never reaches the scheduler.
        assert_eq!(registry.counter(names::DECISION_INSTANTS), 386);
        assert_eq!(outcome.scheduler_invocations, 386);
        assert_eq!(outcome.telemetry.decision_instants, 387);
        // Cloning scheduler on a wide cluster must actually clone.
        assert!(registry.counter(names::CLONES_LAUNCHED) > 0);
        assert_eq!(
            registry.histogram(names::CLONE_LIFETIME).unwrap().count(),
            registry.counter(names::CLONES_LAUNCHED)
        );
        // Flowtime histogram agrees with the outcome's exact mean.
        let h = registry.histogram(names::JOB_FLOWTIME).unwrap();
        assert_eq!(h.count(), outcome.records().len() as u64);
        assert!((h.mean() - outcome.mean_flowtime()).abs() < 1e-9);
        // The flowtime sketches folded every completed job, with exact
        // extremes and the small/big windows partitioning below 4000.
        let sketches = telemetry.sketches();
        assert_eq!(sketches.all.count(), outcome.records().len() as u64);
        assert_eq!(
            sketches.all.max(),
            outcome
                .records()
                .iter()
                .map(|r| r.flowtime())
                .max()
                .unwrap()
        );
        assert!(sketches.small.count() + sketches.big.count() <= sketches.all.count());

        // Attaching the observer must not perturb the trajectory, and
        // folding the unobserved outcome fills the one decision counter
        // exactly as the observer did.
        let plain = Simulation::new(config, &trace)
            .run(&mut MaxCloneScheduler::new(3))
            .unwrap();
        assert_eq!(plain, outcome);
        let mut folded = MetricsRegistry::new();
        fold_run_telemetry(&mut folded, &plain);
        assert_eq!(folded.counter(names::DECISION_INSTANTS), 386);
    }

    #[test]
    fn fold_run_telemetry_accumulates_across_cells() {
        // Two cells of a sweep, each folded from its unobserved outcome.
        let mut registry = MetricsRegistry::new();
        let mut a = SimOutcome::new("a".to_string(), 4, vec![], 0, 0, 0, 10, 0, 0);
        a.telemetry.ranked_prefix_len_max = 4;
        let mut b = SimOutcome::new("b".to_string(), 4, vec![], 0, 0, 0, 5, 0, 0);
        b.telemetry.ranked_prefix_len_max = 9;
        fold_run_telemetry(&mut registry, &a);
        fold_run_telemetry(&mut registry, &b);
        assert_eq!(registry.counter(names::DECISION_INSTANTS), 15);
        let h = registry.histogram(names::RANKED_PREFIX_LEN_MAX).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 9);
    }
}
