//! Minimal built-in schedulers.
//!
//! These are *not* the paper's algorithms (those live in `mapreduce-sched`).
//! [`Fifo`] is the one baseline simple enough to live here, so the
//! simulator can be exercised and tested on its own; `mapreduce-baselines`
//! re-exports it. The rest are test strawmen. All of them are starting
//! points for users writing custom schedulers against the [`Scheduler`]
//! trait.

use crate::state::{Action, ClusterState, Scheduler};
use mapreduce_workload::{Phase, TaskId};

/// First-in-first-out job order, one copy per task, no speculation —
/// Hadoop's original default, and the baselines' `Fifo`.
///
/// Jobs are served strictly in arrival order; within a job, map tasks are
/// launched before reduce tasks and reduce tasks only start once the Map
/// phase has completed ([`crate::JobState::launchable`]). Each unscheduled
/// task gets exactly one copy.
///
/// It keeps no state: it walks the engine's launchable-job set
/// ([`ClusterState::launchable_jobs`]), which is in job-id order — arrival
/// order, because the engine admits jobs only in dense-id order with
/// non-decreasing arrivals — and holds only jobs with a task to launch now.
/// A decision therefore costs `O(launches + log n)` rather than
/// `O(alive jobs)`.
#[derive(Debug, Default, Clone)]
pub struct Fifo;

impl Fifo {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Fifo
    }
}

impl Scheduler for Fifo {
    fn name(&self) -> &str {
        "fifo"
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

    fn schedule_into(&mut self, _state: &ClusterState<'_>, _actions: &mut Vec<Action>) {}
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
    use mapreduce_workload::{JobId, JobSpecBuilder, Trace, WorkloadBuilder};

    #[test]
    fn names_are_stable() {
        assert_eq!(Fifo::new().name(), "fifo");
        assert_eq!(NoopScheduler::default().name(), "noop");
        assert_eq!(MaxCloneScheduler::new(2).name(), "max-clone");
    }

    #[test]
    fn fifo_launches_at_most_available_machines() {
        let trace = WorkloadBuilder::new().num_jobs(50).build(1);
        let sim = Simulation::new(SimConfig::new(3), &trace);
        // Run to completion; the engine asserts machine limits internally via
        // utilisation (checked in engine tests); here we just check progress.
        let outcome = sim.run(&mut Fifo::new()).unwrap();
        assert_eq!(outcome.records().len(), 50);
    }

    #[test]
    fn earlier_jobs_finish_first_under_contention() {
        let first = JobSpecBuilder::new(JobId::new(0))
            .arrival(0)
            .map_tasks_from_workloads(&[30.0; 4])
            .build();
        let second = JobSpecBuilder::new(JobId::new(1))
            .arrival(1)
            .map_tasks_from_workloads(&[30.0; 4])
            .build();
        let trace = Trace::new(vec![first, second]).unwrap();
        let outcome = Simulation::new(SimConfig::new(2), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert!(
            outcome.record(JobId::new(0)).unwrap().completion
                < outcome.record(JobId::new(1)).unwrap().completion
        );
    }

    #[test]
    fn never_speculates() {
        let trace = WorkloadBuilder::new().num_jobs(20).build(4);
        let outcome = Simulation::new(SimConfig::new(6), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert!((outcome.mean_copies_per_task() - 1.0).abs() < 1e-12);
        assert_eq!(outcome.records().len(), 20);
    }

    #[test]
    fn reduce_tasks_launch_after_map_completion_under_contention() {
        // One machine: the job must re-enter the launchable set when its Map
        // phase completes so the gated reduce task still launches.
        let trace = Trace::new(vec![JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[10.0, 10.0])
            .reduce_tasks_from_workloads(&[5.0])
            .build()])
        .unwrap();
        let outcome = Simulation::new(SimConfig::new(1), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert_eq!(outcome.record(JobId::new(0)).unwrap().completion, 25);
    }

    #[test]
    fn max_clone_uses_more_copies_than_fifo() {
        let trace = WorkloadBuilder::new().num_jobs(5).build(2);
        let fifo = Simulation::new(SimConfig::new(32), &trace)
            .run(&mut Fifo::new())
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
