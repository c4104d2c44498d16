//! FIFO job scheduling without speculation — Hadoop's original default.

use mapreduce_sim::{Action, ClusterState, Scheduler};
use mapreduce_workload::{JobId, Phase, TaskId};
use std::collections::BTreeSet;

/// First-in-first-out job order, one copy per task, no speculation.
///
/// Jobs are served strictly in arrival order; within a job, map tasks are
/// launched before reduce tasks and reduce tasks only start once the Map
/// phase has completed.
///
/// The decision side is incremental: instead of walking every alive job per
/// wakeup, the scheduler keeps a **ready set** of jobs that may still have
/// launchable work, in job-id order — which is arrival order, because the
/// engine admits jobs only in dense-id order with non-decreasing arrivals.
/// Jobs enter on arrival, when their Map phase completes (unlocking reduce
/// tasks), and when a machine crash returns a task of theirs to the
/// unscheduled pool — the only events that can create launchable work under
/// FIFO — and leave once everything launchable has been launched. A
/// `schedule` call therefore costs `O(launches + ready jobs)` rather than
/// `O(alive jobs)`.
#[derive(Debug, Default, Clone)]
pub struct Fifo {
    /// Alive jobs that may still have launchable work, in id (= arrival)
    /// order.
    ready: BTreeSet<JobId>,
    /// Pooled per-decision buffer of ready-set entries proven exhausted.
    exhausted: Vec<JobId>,
}

impl Fifo {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Fifo::default()
    }
}

impl Scheduler for Fifo {
    fn name(&self) -> &str {
        "fifo"
    }

    fn on_job_arrival(&mut self, job: JobId, _state: &ClusterState<'_>) {
        self.ready.insert(job);
    }

    fn on_task_finished(&mut self, task: TaskId, state: &ClusterState<'_>) {
        // A Map completion may unlock this job's reduce tasks. (A reduce
        // completion never creates launchable work: any still-unscheduled
        // reduce task of that job already kept the job in the ready set.)
        if task.phase != Phase::Map {
            return;
        }
        if let Some(j) = state.job(task.job) {
            if j.is_alive() && j.map_phase_complete() && j.num_unscheduled(Phase::Reduce) > 0 {
                self.ready.insert(task.job);
            }
        }
    }

    fn on_task_unlaunched(&mut self, task: TaskId, state: &ClusterState<'_>) {
        // A crash returned this task to the unscheduled pool: the job has
        // launchable work again even though no arrival or Map completion
        // occurred, so it must rejoin the ready set (insert is idempotent).
        if let Some(j) = state.job(task.job) {
            if j.is_alive() {
                self.ready.insert(task.job);
            }
        }
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        self.schedule_into(state, &mut actions);
        actions
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let mut budget = state.available_machines();
        if budget == 0 || self.ready.is_empty() {
            return;
        }
        // Launch in ready order; drop jobs proven exhausted. A job is
        // exhausted once every launchable task has been launched — gated
        // reduce tasks don't count, because Map-phase completion re-inserts
        // the job. Jobs cut off by the budget keep their entry. The buffer
        // is pooled across decisions.
        let exhausted = &mut self.exhausted;
        exhausted.clear();
        for &id in self.ready.iter() {
            if budget == 0 {
                break;
            }
            let job = match state.job(id) {
                Some(job) if job.is_alive() => job,
                _ => {
                    exhausted.push(id);
                    continue;
                }
            };
            let mut cut_off = false;
            'phases: for phase in [Phase::Map, Phase::Reduce] {
                if phase == Phase::Reduce && !job.map_phase_complete() {
                    continue;
                }
                for &index in job.unscheduled_indices(phase) {
                    if budget == 0 {
                        cut_off = true;
                        break 'phases;
                    }
                    actions.push(Action::Launch {
                        task: TaskId::new(id, phase, index),
                        copies: 1,
                    });
                    budget -= 1;
                }
            }
            if !cut_off {
                exhausted.push(id);
            }
        }
        for id in exhausted.iter() {
            self.ready.remove(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::{SimConfig, Simulation};
    use mapreduce_workload::{JobId, JobSpecBuilder, Trace, WorkloadBuilder};

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
        // One machine: the ready set must re-admit the job when its Map phase
        // completes so the gated reduce task still launches.
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
    fn name_is_stable() {
        assert_eq!(Fifo::new().name(), "fifo");
    }
}
