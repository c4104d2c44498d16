//! FIFO job scheduling without speculation — Hadoop's original default.

use mapreduce_sim::schedulers::GreedyFifo;
use mapreduce_sim::{Action, ClusterState, Scheduler};

/// First-in-first-out job order, one copy per task, no speculation.
///
/// Jobs are served strictly in arrival order; within a job, map tasks are
/// launched before reduce tasks and reduce tasks only start once the Map
/// phase has completed ([`mapreduce_sim::JobState::launchable`]).
///
/// The decisions are [`GreedyFifo`]'s; this is the same policy under the
/// name `"fifo"` that outcomes and reports carry. It keeps no state: it
/// walks the engine's launchable-job set ([`ClusterState::launchable_jobs`]),
/// which is in job-id order — arrival order, because the engine admits jobs
/// only in dense-id order with non-decreasing arrivals — and holds only jobs
/// with a task to launch now. A `schedule` call therefore costs
/// `O(launches + log n)` rather than `O(alive jobs)`.
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

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        GreedyFifo::new().schedule(state)
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        GreedyFifo::new().schedule_into(state, actions);
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
    fn name_is_stable() {
        assert_eq!(Fifo::new().name(), "fifo");
    }
}
