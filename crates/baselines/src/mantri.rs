//! Microsoft Mantri's resource-aware speculative execution (\[4\] in the
//! paper).
//!
//! Mantri monitors the progress of every running task, estimates its
//! remaining time `t_rem` and the time `t_new` a freshly restarted copy would
//! need, and — when a machine is available — launches a duplicate of a task
//! whenever `P(t_rem > 2·t_new) > δ`. The intuition is that a duplicate is
//! only worth its machine if it roughly halves the expected completion of the
//! task.
//!
//! This implementation follows that decision rule with the information the
//! simulator exposes:
//!
//! * `t_rem` comes from the task's progress (the per-copy progress score a
//!   MapReduce system reports; in the simulator the derived estimate is
//!   exact, which if anything *flatters* Mantri),
//! * `t_new` is the average duration of the task's phase observed so far from
//!   the job's completed tasks, falling back to the phase mean from the job's
//!   statistics when nothing has completed yet,
//! * `δ` is folded into a configurable slack factor on the `2×` threshold,
//! * at most one backup copy per task (\[4\] caps outstanding duplicates), and
//!   backups are only launched when machines are idle (resource awareness).
//!
//! Job-level allocation (which job's tasks get free machines first) uses the
//! same weighted fair sharing as Hadoop's fair scheduler, which is how Mantri
//! is deployed in practice. The fundamental limitation the paper exploits is
//! visible directly in the code: a straggler can only be detected after its
//! task has run long enough to produce progress samples, which is too late
//! for small jobs.

use crate::fair::{fair_fill_alive_into, FairFillScratch};
use mapreduce_sim::{Action, ClusterState, IndexDemands, JobState, Scheduler, Slot};
use mapreduce_workload::{JobId, Phase, TaskId};

/// Configuration of the [`Mantri`] baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MantriConfig {
    /// A duplicate is launched when `t_rem > threshold_factor · t_new`.
    /// Mantri's published rule uses 2.0.
    pub threshold_factor: f64,
    /// Minimum elapsed running time (slots) before a task may be judged a
    /// straggler; avoids reacting to tasks that have barely started.
    pub min_elapsed_for_detection: Slot,
    /// Maximum total copies per task (original + duplicates).
    pub max_copies_per_task: usize,
    /// How often (in slots) the detector re-examines running tasks.
    pub detection_interval: Slot,
}

impl Default for MantriConfig {
    fn default() -> Self {
        MantriConfig {
            threshold_factor: 2.0,
            // A task only becomes a speculation candidate after it has run
            // long enough for its progress rate to be trustworthy. Hadoop's
            // speculative execution uses a 60 s lag; Mantri reacts earlier,
            // so we use 30 s. This is exactly the "detection may be too late
            // for helping small jobs" limitation the paper exploits.
            min_elapsed_for_detection: 30,
            max_copies_per_task: 2,
            detection_interval: 5,
        }
    }
}

impl MantriConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics if the threshold is not positive, the copy cap is below 2, or
    /// the detection interval is zero.
    pub fn validate(&self) {
        assert!(
            self.threshold_factor > 0.0,
            "threshold factor must be positive"
        );
        assert!(
            self.max_copies_per_task >= 2,
            "Mantri needs at least 2 copies per task to ever speculate"
        );
        assert!(
            self.detection_interval >= 1,
            "detection interval must be >= 1"
        );
    }
}

/// The Mantri speculative-execution baseline.
#[derive(Debug, Clone)]
pub struct Mantri {
    config: MantriConfig,
    /// Pooled fair-fill buffers; Mantri wakes every `detection_interval`
    /// slots, so per-decision allocations here would dominate the run.
    fill_scratch: FairFillScratch,
    /// Pooled straggler-candidate buffer (`Action` is `Copy`, no borrows).
    candidates: Vec<(Slot, Action)>,
    /// Which jobs may hold a task past the straggler threshold.
    may_straggle: JobFlags,
    /// [`ClusterState::copies_killed_by_fault`] when the flags were last
    /// brought up to date.
    seen_fault_kills: u64,
}

/// One "may hold a straggler" bit per dense job index.
///
/// A running task's `t_rem = finish − now` only shrinks as time passes, so a
/// job whose scan found no task past `threshold · t_new` cannot gain one
/// until something changes its running set or `t_new`: a launch, a task
/// finish (new `t_new`, activated waiting reduces), a task falling back to
/// the unscheduled pool, a job arrival, or a fault killing the earlier copy
/// of a cloned task. Every such event sets the bit again; the scan clears
/// it. Indices past the end of the vector read as set, so a fresh scheduler
/// scans every job once and [`JobFlags::set_all`] is a `clear`.
#[derive(Debug, Clone, Default)]
struct JobFlags {
    words: Vec<u64>,
}

impl JobFlags {
    fn get(&self, idx: usize) -> bool {
        self.words
            .get(idx / 64)
            .is_none_or(|word| word & (1 << (idx % 64)) != 0)
    }

    fn set(&mut self, idx: usize) {
        if let Some(word) = self.words.get_mut(idx / 64) {
            *word |= 1 << (idx % 64);
        }
    }

    fn clear(&mut self, idx: usize) {
        if self.words.len() <= idx / 64 {
            self.words.resize(idx / 64 + 1, u64::MAX);
        }
        self.words[idx / 64] &= !(1 << (idx % 64));
    }

    fn set_all(&mut self) {
        self.words.clear();
    }
}

impl Mantri {
    /// Creates Mantri with the published default parameters.
    pub fn new() -> Self {
        Self::with_config(MantriConfig::default())
    }

    /// Creates Mantri with a custom configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn with_config(config: MantriConfig) -> Self {
        config.validate();
        Mantri {
            config,
            fill_scratch: FairFillScratch::default(),
            candidates: Vec::new(),
            may_straggle: JobFlags::default(),
            seen_fault_kills: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MantriConfig {
        &self.config
    }

    /// Mantri's estimate of the time a restarted copy of a task in `phase` of
    /// `job` would take: the mean duration of already-completed tasks of that
    /// phase, or the phase's a-priori mean if none completed yet.
    ///
    /// `O(1)`: the engine maintains the completed-duration aggregates
    /// incrementally as tasks finish, so nothing is rescanned per wakeup.
    fn estimate_t_new(job: &JobState, phase: Phase) -> f64 {
        job.mean_completed_duration(phase)
            .unwrap_or_else(|| job.spec().stats(phase).mean)
    }

    /// Collects duplicate launches for running stragglers of one job and
    /// returns whether any running task is past the threshold (a candidate
    /// or not yet: too young, or at its copy cap).
    ///
    /// Incremental detection: the engine keys every running task by its
    /// earliest predicted finish slot ([`JobState::running_by_finish`]), and
    /// `t_rem(now) = finish − now`, so the straggler condition
    /// `t_rem > threshold · t_new` selects exactly the tail of that order.
    /// One `partition_point` per phase finds the cutoff and the scan touches
    /// only the tasks currently judged stragglers — `O(log running +
    /// stragglers)` per job instead of re-deriving `t_rem` for every running
    /// task on every detection wakeup.
    fn straggler_candidates(
        &self,
        job: &JobState,
        copies: &mapreduce_sim::CopyArena,
        now: Slot,
        candidates: &mut Vec<(Slot, Action)>,
    ) -> bool {
        let mut past_threshold = false;
        for phase in [Phase::Map, Phase::Reduce] {
            let entries = job.running_by_finish(phase);
            if entries.is_empty() {
                continue;
            }
            let t_new = Self::estimate_t_new(job, phase);
            let start = entries.partition_point(|&(finish, _)| {
                finish.saturating_sub(now) as f64 <= self.config.threshold_factor * t_new
            });
            past_threshold |= start < entries.len();
            for &(finish, index) in &entries[start..] {
                let Some(task) = job.task(phase, index) else {
                    continue;
                };
                if task.active_copies() >= self.config.max_copies_per_task {
                    continue;
                }
                if task.oldest_active_elapsed(copies, now) < self.config.min_elapsed_for_detection {
                    continue;
                }
                candidates.push((
                    finish - now,
                    Action::Launch {
                        task: task.id(),
                        copies: 1,
                    },
                ));
            }
        }
        past_threshold
    }

    /// Spends `budget` leftover machines on duplicates of detected
    /// stragglers, worst (largest remaining time) first.
    fn launch_duplicates(
        &mut self,
        state: &ClusterState<'_>,
        budget: usize,
        actions: &mut Vec<Action>,
    ) {
        // A silent fault kill may have moved a cloned task's earliest finish
        // later: no job's cleared flag can be trusted any more.
        if state.copies_killed_by_fault() != self.seen_fault_kills {
            self.seen_fault_kills = state.copies_killed_by_fault();
            self.may_straggle.set_all();
        }
        // Candidates are gathered in alive (job-id) order and the pooled
        // buffer's sort is stable, so equal `t_rem` keep job-id order.
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        for job in state.alive_jobs() {
            let idx = job.id().as_usize();
            if !self.may_straggle.get(idx) {
                continue;
            }
            if !self.straggler_candidates(job, state.copies(), state.now(), &mut candidates) {
                self.may_straggle.clear(idx);
            }
        }
        candidates.sort_by_key(|(t_rem, _)| std::cmp::Reverse(*t_rem));
        for &(_, action) in candidates.iter().take(budget) {
            actions.push(action);
        }
        self.candidates = candidates;
    }

    fn note_job_changed(&mut self, job: JobId) {
        self.may_straggle.set(job.as_usize());
    }
}

impl Default for Mantri {
    fn default() -> Self {
        Mantri::new()
    }
}

impl Scheduler for Mantri {
    fn name(&self) -> &str {
        "mantri"
    }

    fn wakeup_interval(&self) -> Option<Slot> {
        Some(self.config.detection_interval)
    }

    fn index_demands(&self) -> IndexDemands {
        // Straggler detection partition-points the running-by-finish order.
        IndexDemands {
            finish_index: true,
            ..IndexDemands::default()
        }
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        self.schedule_into(state, &mut actions);
        actions
    }

    fn on_job_arrival(&mut self, job: JobId, _state: &ClusterState<'_>) {
        self.note_job_changed(job);
    }

    fn on_task_finished(&mut self, task: TaskId, _state: &ClusterState<'_>) {
        self.note_job_changed(task.job);
    }

    fn on_task_unlaunched(&mut self, task: TaskId, _state: &ClusterState<'_>) {
        self.note_job_changed(task.job);
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let mut budget = state.available_machines();
        if budget == 0 {
            return;
        }
        // 1. Regular work first (Mantri only uses *spare* machines for
        //    duplicates): equal-share fair scheduling across alive jobs —
        //    Mantri sits on the cluster's stock job scheduler, which knows
        //    nothing about the trace's priority weights. The fill is skipped
        //    when nothing is launchable (it could not have produced an
        //    action); unscheduled reduces still gated behind their job's map
        //    phase keep the unscheduled total positive but launch nothing.
        let start = actions.len();
        if state.total_launchable_tasks() > 0 {
            fair_fill_alive_into(state, budget, false, &mut self.fill_scratch, actions);
        }
        let launched = actions.len() - start;
        budget -= launched.min(budget);

        // 2. Spend leftover machines on duplicates of detected stragglers.
        if budget > 0 {
            self.launch_duplicates(state, budget, actions);
        }

        // Every job launched into gains running work the next scan must see.
        for action in &actions[start..] {
            if let Action::Launch { task, .. } = *action {
                self.note_job_changed(task.job);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::{SimConfig, Simulation, StragglerModel};
    use mapreduce_workload::{
        DurationDistribution, JobId, JobSpecBuilder, PhaseStats, Trace, WorkloadBuilder,
    };

    #[test]
    fn completes_ordinary_workloads() {
        let trace = WorkloadBuilder::new()
            .num_jobs(25)
            .map_tasks_per_job(1, 6)
            .reduce_tasks_per_job(0, 2)
            .build(8);
        let outcome = Simulation::new(SimConfig::new(8).with_seed(1), &trace)
            .run(&mut Mantri::new())
            .unwrap();
        assert_eq!(outcome.records().len(), 25);
    }

    #[test]
    fn duplicates_a_clear_straggler() {
        // One job, two map tasks: one normal (20 s), one straggling (400 s),
        // with a short-mean resampling distribution so the duplicate rescues
        // it. A second machine is free for the duplicate.
        let dist = DurationDistribution::Deterministic { value: 20.0 };
        let job = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[20.0, 400.0])
            .map_stats(PhaseStats::new(20.0, 5.0))
            .map_distribution(dist)
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        let outcome = Simulation::new(SimConfig::new(3).with_seed(2), &trace)
            .run(&mut Mantri::new())
            .unwrap();
        let record = outcome.record(JobId::new(0)).unwrap();
        // Without speculation the job would take 400 slots; with Mantri the
        // duplicate (20 slots, launched once the straggler is detected)
        // finishes long before that.
        assert!(
            record.completion < 200,
            "straggler not rescued: completion {}",
            record.completion
        );
        assert!(record.copies_launched > record.num_tasks());
    }

    #[test]
    fn speculation_beats_no_speculation_with_machine_stragglers() {
        let trace = WorkloadBuilder::new()
            .num_jobs(20)
            .map_tasks_per_job(2, 5)
            .reduce_tasks_per_job(1, 1)
            .map_duration(DurationDistribution::TruncatedNormal {
                mean: 50.0,
                std_dev: 10.0,
                min: 10.0,
            })
            .build(5);
        let straggling = StragglerModel::MachineSlowdown {
            probability: 0.15,
            factor: 6.0,
        };
        let cfg = SimConfig::new(16)
            .with_seed(7)
            .with_straggler_model(straggling);
        let fair = Simulation::new(cfg.clone(), &trace)
            .run(&mut crate::FairScheduler::new())
            .unwrap();
        let mantri = Simulation::new(cfg, &trace)
            .run(&mut Mantri::new())
            .unwrap();
        assert!(
            mantri.mean_flowtime() < fair.mean_flowtime(),
            "Mantri {} should beat Fair {} when machines straggle",
            mantri.mean_flowtime(),
            fair.mean_flowtime()
        );
    }

    #[test]
    fn respects_copy_cap() {
        let job = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[500.0])
            .map_stats(PhaseStats::new(20.0, 5.0))
            .map_distribution(DurationDistribution::Deterministic { value: 500.0 })
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        let outcome = Simulation::new(SimConfig::new(10).with_seed(3), &trace)
            .run(&mut Mantri::new())
            .unwrap();
        // Cap is 2 copies per task.
        assert!(outcome.total_copies <= 2);
    }

    #[test]
    fn config_validation() {
        assert!(std::panic::catch_unwind(|| {
            Mantri::with_config(MantriConfig {
                threshold_factor: 0.0,
                ..MantriConfig::default()
            })
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            Mantri::with_config(MantriConfig {
                max_copies_per_task: 1,
                ..MantriConfig::default()
            })
        })
        .is_err());
        assert_eq!(Mantri::new().config().threshold_factor, 2.0);
        assert_eq!(Mantri::new().name(), "mantri");
        assert_eq!(Mantri::default().wakeup_interval(), Some(5));
    }
}
