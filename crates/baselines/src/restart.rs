//! Kill-and-restart speculative execution — the cancellation-heavy baseline.
//!
//! Where Mantri runs a *duplicate* next to a detected straggler and lets
//! first-copy-wins settle the race, the restart strategy (the classic
//! straggler response analysed by the replication/restart literature in
//! PAPERS.md) **kills** the straggling copy and relaunches the task from
//! scratch: progress is discarded in exchange for a fresh draw from the
//! workload distribution, and no extra machine is ever consumed — each
//! restart is a [`Action::CancelCopies`] immediately followed by an
//! [`Action::Launch`] that reuses the machine the cancellation freed.
//!
//! In this codebase the scheduler doubles as the adversarial workout for the
//! engine's cancellation path: every restart leaves a stale finish event in
//! the [`mapreduce_sim::EventQueue`] (the killed copy's, skipped when it
//! fires), and exercises the running-by-finish re-keying and the
//! scratch-buffer cancellation pass — under randomized workloads via the
//! golden-equivalence suite, which pins [`Restart`] against the scan-based
//! `integration_tests::oracles::ReferenceRestart` bit-for-bit.

use crate::detection::{straggler_tail, DETECTION_INTERVAL, MIN_ELAPSED_FOR_DETECTION};
use crate::fair::{fair_fill_alive_into, FairFillScratch};
use mapreduce_sim::{Action, ClusterState, IndexDemands, JobState, Scheduler, Slot};
use mapreduce_workload::{Phase, TaskId};
use std::collections::HashMap;

/// A task is killed and relaunched when `t_rem > THRESHOLD_FACTOR · t_new`.
/// Restarting forfeits progress, so this is more conservative than Mantri's
/// duplicate threshold.
pub const THRESHOLD_FACTOR: f64 = 3.0;

/// Maximum restarts per task; prevents kill-loops on tasks whose every draw
/// is long (or whose job has no resampling distribution).
pub const MAX_RESTARTS_PER_TASK: u32 = 3;

/// The kill-and-restart baseline.
#[derive(Debug, Clone)]
pub struct Restart {
    /// Restarts issued per task so far.
    restarts: HashMap<TaskId, u32>,
    /// Pooled fair-fill buffers (the detector wakes every few slots).
    fill_scratch: FairFillScratch,
    /// Pooled straggler-candidate buffer.
    candidates: Vec<(Slot, TaskId)>,
}

impl Restart {
    /// Creates the scheduler with its fixed parameters.
    pub fn new() -> Self {
        Restart {
            restarts: HashMap::new(),
            fill_scratch: FairFillScratch::default(),
            candidates: Vec::new(),
        }
    }

    /// Collects `(t_rem, task)` restart candidates of one job from the tail
    /// of the running-by-finish order (`O(log running + stragglers)`).
    fn straggler_candidates(
        &self,
        job: &JobState,
        copies: &mapreduce_sim::CopyArena,
        now: Slot,
        candidates: &mut Vec<(Slot, TaskId)>,
    ) {
        for phase in [Phase::Map, Phase::Reduce] {
            for &(finish, index) in straggler_tail(job, phase, THRESHOLD_FACTOR, now) {
                let Some(task) = job.task(phase, index) else {
                    continue;
                };
                if task.oldest_active_elapsed(copies, now) < MIN_ELAPSED_FOR_DETECTION {
                    continue;
                }
                let id = task.id();
                if self.restarts.get(&id).copied().unwrap_or(0) >= MAX_RESTARTS_PER_TASK {
                    continue;
                }
                candidates.push((finish - now, id));
            }
        }
    }
}

impl Default for Restart {
    fn default() -> Self {
        Restart::new()
    }
}

impl Scheduler for Restart {
    fn name(&self) -> &str {
        "restart"
    }

    fn wakeup_interval(&self) -> Option<Slot> {
        Some(DETECTION_INTERVAL)
    }

    fn index_demands(&self) -> IndexDemands {
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

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        // 1. Regular work via equal-share fair scheduling, like the other
        //    detection-based baselines. Fill buffers are pooled in `self`.
        let budget = state.available_machines();
        fair_fill_alive_into(state, budget, false, &mut self.fill_scratch, actions);

        // 2. Kill-and-restart detected stragglers, worst (largest remaining
        //    time) first. Restarts are machine-neutral — the launch reuses
        //    the machine its cancellation frees — so they are not limited by
        //    the available-machine budget. The candidate buffer is pooled;
        //    the sort must stay stable (ties keep job-id order).
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        for job in state.alive_jobs() {
            self.straggler_candidates(job, state.copies(), state.now(), &mut candidates);
        }
        candidates.sort_by_key(|&(t_rem, _)| std::cmp::Reverse(t_rem));
        for &(_, task) in &candidates {
            *self.restarts.entry(task).or_insert(0) += 1;
            actions.push(Action::CancelCopies { task, keep: 0 });
            actions.push(Action::Launch { task, copies: 1 });
        }
        self.candidates = candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::{SimConfig, Simulation};
    use mapreduce_workload::{
        DurationDistribution, JobId, JobSpecBuilder, PhaseStats, Trace, WorkloadBuilder,
    };

    /// Restart runs at its published parameters: the `3·t_new` threshold and
    /// at most 3 restarts per task, re-examined every 5 slots through the
    /// running-by-finish order.
    #[test]
    fn config_validation() {
        assert_eq!(THRESHOLD_FACTOR, 3.0);
        assert_eq!(MAX_RESTARTS_PER_TASK, 3);
        let restart = Restart::default();
        assert_eq!(restart.name(), "restart");
        assert_eq!(restart.wakeup_interval(), Some(5));
        assert!(restart.index_demands().finish_index);
    }

    #[test]
    fn completes_ordinary_workloads() {
        let trace = WorkloadBuilder::new()
            .num_jobs(25)
            .map_tasks_per_job(1, 6)
            .reduce_tasks_per_job(0, 2)
            .build(8);
        let outcome = Simulation::new(SimConfig::new(8).with_seed(1), &trace)
            .run(&mut Restart::new())
            .unwrap();
        assert_eq!(outcome.records().len(), 25);
    }

    #[test]
    fn restarts_a_clear_straggler_without_extra_machines() {
        // A 1-machine cluster: Mantri-style duplication is impossible (no
        // spare machine), but kill-and-restart still rescues the straggler
        // because the relaunch reuses the freed machine.
        let job = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[2000.0])
            .map_stats(PhaseStats::new(20.0, 5.0))
            .map_distribution(DurationDistribution::Deterministic { value: 20.0 })
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        let outcome = Simulation::new(SimConfig::new(1).with_seed(2), &trace)
            .run(&mut Restart::new())
            .unwrap();
        let record = outcome.record(JobId::new(0)).unwrap();
        assert!(
            record.completion < 200,
            "straggler not restarted: completion {}",
            record.completion
        );
        // The restart shows up as an extra launched copy, but never two
        // active at once on the single machine.
        assert!(record.copies_launched >= 2);
        assert!(outcome.busy_machine_slots <= outcome.makespan);
    }

    #[test]
    fn restart_cap_prevents_kill_loops() {
        // No resampling distribution: every relaunch draws the same long
        // workload, so only the cap lets the task ever finish.
        let job = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[500.0])
            .map_stats(PhaseStats::new(20.0, 5.0))
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        let outcome = Simulation::new(SimConfig::new(2).with_seed(3), &trace)
            .run(&mut Restart::new())
            .unwrap();
        let record = outcome.record(JobId::new(0)).unwrap();
        // Original + at most MAX_RESTARTS_PER_TASK relaunches.
        assert!(record.copies_launched <= 1 + 3);
        // The final attempt ran its full 500 slots.
        assert!(record.completion >= 500);
    }
}
