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
//! * `δ` is folded into the fixed threshold: a task with
//!   `t_rem > THRESHOLD_FACTOR · t_new` (the published factor 2) is a
//!   candidate outright,
//! * at most one backup copy per task ([`MAX_COPIES_PER_TASK`]; \[4\] caps
//!   outstanding duplicates), and backups are only launched when machines
//!   are idle (resource awareness).
//!
//! The `t_new` estimate, the threshold test and the detection age and
//! interval live in [`crate::detection`], shared with [`crate::Restart`].
//!
//! Job-level allocation (which job's tasks get free machines first) uses the
//! same weighted fair sharing as Hadoop's fair scheduler, which is how Mantri
//! is deployed in practice. The fundamental limitation the paper exploits is
//! visible directly in the code: a straggler can only be detected after its
//! task has run long enough to produce progress samples, which is too late
//! for small jobs.

use crate::detection::{straggler_tail, DETECTION_INTERVAL, MIN_ELAPSED_FOR_DETECTION};
use crate::fair::{fair_fill_alive_into, FairFillScratch};
use mapreduce_sim::{Action, ClusterState, IndexDemands, JobState, Scheduler, Slot};
use mapreduce_workload::{JobId, Phase, TaskId};

/// A duplicate is launched when `t_rem > THRESHOLD_FACTOR · t_new`; Mantri's
/// published rule.
pub const THRESHOLD_FACTOR: f64 = 2.0;

/// Maximum total copies per task (original + duplicates).
pub const MAX_COPIES_PER_TASK: usize = 2;

/// The Mantri speculative-execution baseline.
#[derive(Debug, Clone)]
pub struct Mantri {
    /// Pooled fair-fill buffers; Mantri wakes every `DETECTION_INTERVAL`
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
    /// Creates Mantri with the published parameters.
    pub fn new() -> Self {
        Mantri {
            fill_scratch: FairFillScratch::default(),
            candidates: Vec::new(),
            may_straggle: JobFlags::default(),
            seen_fault_kills: 0,
        }
    }

    /// Collects duplicate launches for running stragglers of one job and
    /// returns whether any running task is past the threshold (a candidate
    /// or not yet: too young, or at its copy cap).
    ///
    /// Incremental detection: [`straggler_tail`] finds the tasks past the
    /// threshold, so the scan touches only the tasks currently judged
    /// stragglers — `O(log running + stragglers)` per job.
    fn straggler_candidates(
        job: &JobState,
        copies: &mapreduce_sim::CopyArena,
        now: Slot,
        candidates: &mut Vec<(Slot, Action)>,
    ) -> bool {
        let mut past_threshold = false;
        for phase in [Phase::Map, Phase::Reduce] {
            let tail = straggler_tail(job, phase, THRESHOLD_FACTOR, now);
            past_threshold |= !tail.is_empty();
            for &(finish, index) in tail {
                let Some(task) = job.task(phase, index) else {
                    continue;
                };
                if task.active_copies() >= MAX_COPIES_PER_TASK {
                    continue;
                }
                if task.oldest_active_elapsed(copies, now) < MIN_ELAPSED_FOR_DETECTION {
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
            if !Self::straggler_candidates(job, state.copies(), state.now(), &mut candidates) {
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
        Some(DETECTION_INTERVAL)
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
        //    nothing about the trace's priority weights. The fill walks
        //    only the engine's launchable-job set, so with nothing
        //    launchable it costs nothing.
        let start = actions.len();
        fair_fill_alive_into(state, budget, false, &mut self.fill_scratch, actions);
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

    /// Mantri runs at its published parameters: the `2·t_new` threshold and
    /// at most one duplicate per task, re-examined every 5 slots through the
    /// running-by-finish order.
    #[test]
    fn config_validation() {
        assert_eq!(THRESHOLD_FACTOR, 2.0);
        assert_eq!(MAX_COPIES_PER_TASK, 2);
        let mantri = Mantri::default();
        assert_eq!(mantri.name(), "mantri");
        assert_eq!(mantri.wakeup_interval(), Some(5));
        assert!(mantri.index_demands().finish_index);
    }

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
}
