//! Algorithm 1: the offline SRPT-based scheduler for bulk arrivals.
//!
//! All jobs are assumed to arrive at time 0. The scheduler sorts jobs once by
//! the static priority `w_i / φ_i` (Equation (2)) and, whenever a machine is
//! free, hands it a task from the highest-priority job that still has
//! unscheduled tasks — map tasks first, then reduce tasks. No clones are made
//! (with more tasks than machines, cloning cannot help when `s(x) ≤ x`, as
//! argued in Section IV via \[3\]).
//!
//! Reduce tasks may be launched before their job's Map phase completes; they
//! then occupy their machine without progressing, exactly as the algorithm
//! (and its analysis in Lemma 1/Theorem 1) assumes. This "hold the machine"
//! behaviour is what lets the analysis argue that once a job starts draining
//! it finishes within `E^r + rσ^r` of its last reduce-task launch.
//!
//! The type also works on traces with staggered arrivals (it simply ignores
//! jobs that have not arrived yet), but the competitive guarantee of
//! Theorem 1 only covers the bulk-arrival case.

use crate::priority::offline_priority;
use mapreduce_sim::{Action, ClusterState, Scheduler};
use mapreduce_workload::Phase;

/// The offline SRPT scheduler of Algorithm 1.
#[derive(Debug, Clone)]
pub struct OfflineSrpt {
    /// Pessimism factor `r` multiplying the standard deviation in the
    /// effective workload.
    r: f64,
    name: String,
}

impl OfflineSrpt {
    /// Creates the scheduler with the given pessimism factor `r ≥ 0`.
    ///
    /// # Panics
    /// Panics if `r` is negative or not finite.
    pub fn new(r: f64) -> Self {
        assert!(
            r.is_finite() && r >= 0.0,
            "r must be a non-negative finite number, got {r}"
        );
        OfflineSrpt {
            r,
            name: format!("offline-srpt(r={r})"),
        }
    }

    /// The pessimism factor `r`.
    pub fn r(&self) -> f64 {
        self.r
    }
}

impl Default for OfflineSrpt {
    fn default() -> Self {
        OfflineSrpt::new(0.0)
    }
}

impl Scheduler for OfflineSrpt {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let mut budget = state.available_machines();
        if budget == 0 {
            return;
        }

        // Sort alive jobs by decreasing static priority w_i / φ_i; ties by id.
        let mut jobs: Vec<_> = state
            .alive_jobs()
            .filter(|j| j.total_unscheduled() > 0)
            .collect();
        jobs.sort_by(|a, b| {
            let pa = offline_priority(a.spec(), self.r);
            let pb = offline_priority(b.spec(), self.r);
            pb.total_cmp(&pa).then_with(|| a.id().cmp(&b.id()))
        });

        for job in jobs {
            // Map tasks strictly before reduce tasks within the same job.
            for phase in [Phase::Map, Phase::Reduce] {
                for task in job.unscheduled_tasks(phase) {
                    if budget == 0 {
                        return;
                    }
                    actions.push(Action::Launch {
                        task: task.id(),
                        copies: 1,
                    });
                    budget -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::{SimConfig, Simulation};
    use mapreduce_workload::{JobId, JobSpecBuilder, Trace, WorkloadBuilder};

    fn bulk_trace() -> Trace {
        // Job 0: heavy (low priority), Job 1: light (high priority), equal weights.
        let heavy = JobSpecBuilder::new(JobId::new(0))
            .weight(1.0)
            .map_tasks_from_workloads(&[100.0, 100.0])
            .reduce_tasks_from_workloads(&[50.0])
            .build();
        let light = JobSpecBuilder::new(JobId::new(1))
            .weight(1.0)
            .map_tasks_from_workloads(&[10.0])
            .reduce_tasks_from_workloads(&[5.0])
            .build();
        Trace::new(vec![heavy, light]).unwrap()
    }

    #[test]
    fn small_jobs_finish_first_on_a_single_machine() {
        // With one machine the SRPT order determines everything: the light
        // job must run (and finish) before the heavy one starts.
        let trace = bulk_trace();
        let outcome = Simulation::new(SimConfig::new(1), &trace)
            .run(&mut OfflineSrpt::new(0.0))
            .unwrap();
        // Trace::new re-sorts and re-ids jobs: both arrive at 0 so order is
        // preserved (heavy = J0, light = J1).
        let light = outcome.record(JobId::new(1)).unwrap();
        let heavy = outcome.record(JobId::new(0)).unwrap();
        assert_eq!(light.completion, 15);
        assert_eq!(heavy.completion, 15 + 250);
        assert!(light.flowtime() < heavy.flowtime());
    }

    #[test]
    fn weights_override_size_ordering() {
        // Same sizes, but the heavy job now has enormous weight: it goes first.
        let heavy = JobSpecBuilder::new(JobId::new(0))
            .weight(100.0)
            .map_tasks_from_workloads(&[100.0, 100.0])
            .reduce_tasks_from_workloads(&[50.0])
            .build();
        let light = JobSpecBuilder::new(JobId::new(1))
            .weight(1.0)
            .map_tasks_from_workloads(&[10.0])
            .reduce_tasks_from_workloads(&[5.0])
            .build();
        let trace = Trace::new(vec![heavy, light]).unwrap();
        let outcome = Simulation::new(SimConfig::new(1), &trace)
            .run(&mut OfflineSrpt::new(0.0))
            .unwrap();
        let heavy = outcome.record(JobId::new(0)).unwrap();
        let light = outcome.record(JobId::new(1)).unwrap();
        assert!(heavy.completion < light.completion);
    }

    #[test]
    fn no_clones_are_ever_made() {
        let trace = WorkloadBuilder::new()
            .num_jobs(20)
            .map_tasks_per_job(2, 6)
            .reduce_tasks_per_job(1, 2)
            .build(5)
            .as_bulk_arrival();
        let outcome = Simulation::new(SimConfig::new(8), &trace)
            .run(&mut OfflineSrpt::new(2.0))
            .unwrap();
        let total_tasks: usize = outcome.records().iter().map(|r| r.num_tasks()).sum();
        assert_eq!(outcome.total_copies, total_tasks);
        assert!((outcome.mean_copies_per_task() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn completes_every_job_on_large_bulk_workload() {
        let trace = WorkloadBuilder::new()
            .num_jobs(60)
            .map_tasks_per_job(1, 10)
            .reduce_tasks_per_job(0, 3)
            .weights(&[1.0, 2.0, 5.0])
            .build(9)
            .as_bulk_arrival();
        let outcome = Simulation::new(SimConfig::new(16), &trace)
            .run(&mut OfflineSrpt::new(3.0))
            .unwrap();
        assert_eq!(outcome.records().len(), 60);
        assert!(outcome.records().iter().all(|r| r.completion > 0));
    }

    #[test]
    fn rejects_negative_r() {
        let result = std::panic::catch_unwind(|| OfflineSrpt::new(-1.0));
        assert!(result.is_err());
    }

    #[test]
    fn name_mentions_r() {
        assert!(OfflineSrpt::new(3.0).name().contains("r=3"));
        assert_eq!(OfflineSrpt::default().r(), 0.0);
    }
}
