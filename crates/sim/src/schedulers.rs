//! Minimal built-in schedulers.
//!
//! These are *not* the paper's algorithms (those live in `mapreduce-sched`)
//! nor the published baselines (`mapreduce-baselines`). They exist so the
//! simulator can be exercised and tested on its own, and as starting points
//! for users writing custom schedulers against the [`Scheduler`] trait.

use crate::state::{Action, ClusterState, Scheduler};
use mapreduce_workload::{Phase, TaskId};

/// First-come-first-served, work-conserving, no cloning.
///
/// Jobs are served in arrival order; within a job, map tasks are launched
/// before reduce tasks (reduce tasks are only launched once the Map phase has
/// completed, which is always safe — [`crate::JobState::launchable`]). Each
/// unscheduled task gets exactly one copy. The baselines' `Fifo` runs this
/// same loop under the name `"fifo"`.
#[derive(Debug, Default, Clone)]
pub struct GreedyFifo {
    _private: (),
}

impl GreedyFifo {
    /// Creates the scheduler.
    pub fn new() -> Self {
        GreedyFifo::default()
    }
}

impl Scheduler for GreedyFifo {
    fn name(&self) -> &str {
        "greedy-fifo"
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        self.schedule_into(state, &mut actions);
        actions
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let mut budget = state.available_machines();
        if budget == 0 {
            return;
        }
        // Job-id order is arrival order; the engine rejects any other.
        for (job, phase, tasks) in state.launchable_jobs() {
            for &index in tasks {
                if budget == 0 {
                    return;
                }
                actions.push(Action::Launch {
                    task: TaskId::new(job.id(), phase, index),
                    copies: 1,
                });
                budget -= 1;
            }
        }
    }
}

/// A scheduler that never launches anything. Only useful to test the engine's
/// stall detection.
#[derive(Debug, Default, Clone)]
pub struct NoopScheduler {
    _private: (),
}

impl Scheduler for NoopScheduler {
    fn name(&self) -> &str {
        "noop"
    }

    fn schedule(&mut self, _state: &ClusterState<'_>) -> Vec<Action> {
        Vec::new()
    }
}

/// Launches every unscheduled task with up to `copies_per_task` copies and
/// keeps adding copies to running tasks while machines are idle. An
/// aggressive cloning strawman used in tests and ablations.
#[derive(Debug, Clone)]
pub struct MaxCloneScheduler {
    copies_per_task: usize,
}

impl MaxCloneScheduler {
    /// Creates the scheduler with a per-task copy target.
    ///
    /// # Panics
    /// Panics if `copies_per_task` is zero.
    pub fn new(copies_per_task: usize) -> Self {
        assert!(copies_per_task >= 1, "copies_per_task must be at least 1");
        MaxCloneScheduler { copies_per_task }
    }
}

impl Scheduler for MaxCloneScheduler {
    fn name(&self) -> &str {
        "max-clone"
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        self.schedule_into(state, &mut actions);
        actions
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let mut budget = state.available_machines();
        for job in state.alive_jobs() {
            for phase in [Phase::Map, Phase::Reduce] {
                if phase == Phase::Reduce && !job.map_phase_complete() {
                    continue;
                }
                for task in job.tasks(phase) {
                    if budget == 0 {
                        return;
                    }
                    if task.is_finished() {
                        continue;
                    }
                    let want = self.copies_per_task.saturating_sub(task.active_copies());
                    let n = want.min(budget);
                    if n > 0 {
                        actions.push(Action::Launch {
                            task: task.id(),
                            copies: n,
                        });
                        budget -= n;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulation;
    use mapreduce_workload::WorkloadBuilder;

    #[test]
    fn names_are_stable() {
        assert_eq!(GreedyFifo::new().name(), "greedy-fifo");
        assert_eq!(NoopScheduler::default().name(), "noop");
        assert_eq!(MaxCloneScheduler::new(2).name(), "max-clone");
    }

    #[test]
    fn fifo_launches_at_most_available_machines() {
        let trace = WorkloadBuilder::new().num_jobs(50).build(1);
        let sim = Simulation::new(SimConfig::new(3), &trace);
        // Run to completion; the engine asserts machine limits internally via
        // utilisation (checked in engine tests); here we just check progress.
        let outcome = sim.run(&mut GreedyFifo::new()).unwrap();
        assert_eq!(outcome.records().len(), 50);
    }

    #[test]
    fn max_clone_uses_more_copies_than_fifo() {
        let trace = WorkloadBuilder::new().num_jobs(5).build(2);
        let fifo = Simulation::new(SimConfig::new(32), &trace)
            .run(&mut GreedyFifo::new())
            .unwrap();
        let cloned = Simulation::new(SimConfig::new(32), &trace)
            .run(&mut MaxCloneScheduler::new(3))
            .unwrap();
        assert!(cloned.total_copies > fifo.total_copies);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn max_clone_rejects_zero() {
        MaxCloneScheduler::new(0);
    }
}
