//! Pure SRPT on remaining effective workload, without cloning.
//!
//! This is the `ε → 0` limit of SRPTMS+C: at every decision point the alive
//! job with the highest `w_i / U_i(l)` gets every machine it can use before
//! the next job is considered. It isolates the contribution of the SRPT
//! ordering from the contribution of cloning, and is the natural ablation for
//! the paper's central claim that *both* are needed.

use mapreduce_sim::{Action, ClusterState, Scheduler};
use mapreduce_workload::TaskId;

/// SRPT by remaining effective workload, one copy per task, no cloning.
#[derive(Debug, Clone)]
pub struct SrptNoClone {
    r: f64,
    name: String,
}

impl SrptNoClone {
    /// Creates the scheduler with pessimism factor `r ≥ 0`.
    ///
    /// # Panics
    /// Panics if `r` is negative or not finite.
    pub fn new(r: f64) -> Self {
        assert!(
            r.is_finite() && r >= 0.0,
            "r must be non-negative and finite, got {r}"
        );
        SrptNoClone {
            r,
            name: format!("srpt-noclone(r={r})"),
        }
    }

    /// The pessimism factor `r`.
    pub fn r(&self) -> f64 {
        self.r
    }
}

impl Default for SrptNoClone {
    fn default() -> Self {
        SrptNoClone::new(0.0)
    }
}

impl Scheduler for SrptNoClone {
    fn name(&self) -> &str {
        &self.name
    }

    fn priority_r(&self) -> Option<f64> {
        Some(self.r)
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let mut budget = state.available_machines();
        // Only launchable unscheduled tasks are ever launched, so with none
        // anywhere no action can follow (an `O(1)` check).
        if budget == 0 || state.total_launchable_tasks() == 0 {
            return;
        }
        // Jobs in w / U order from the engine's maintained ranking, walked
        // only until the machines run out.
        let ranked = state.ranked_entries();
        let mut consumed = 0;
        'jobs: for idx in ranked.iter() {
            consumed += 1;
            let job = state.job_at(idx);
            let Some((phase, unscheduled)) = job.launchable() else {
                continue;
            };
            for &index in unscheduled {
                if budget == 0 {
                    break 'jobs;
                }
                actions.push(Action::Launch {
                    task: TaskId::new(job.id(), phase, index),
                    copies: 1,
                });
                budget -= 1;
            }
        }
        state.note_ranked_prefix(consumed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::{SimConfig, Simulation};
    use mapreduce_workload::{JobId, JobSpecBuilder, Trace, WorkloadBuilder};

    #[test]
    fn prefers_small_jobs() {
        let big = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[40.0; 6])
            .build();
        let small = JobSpecBuilder::new(JobId::new(1))
            .map_tasks_from_workloads(&[10.0])
            .build();
        let trace = Trace::new(vec![big, small]).unwrap();
        let outcome = Simulation::new(SimConfig::new(1), &trace)
            .run(&mut SrptNoClone::new(0.0))
            .unwrap();
        assert_eq!(outcome.record(JobId::new(1)).unwrap().completion, 10);
    }

    #[test]
    fn never_clones() {
        let trace = WorkloadBuilder::new().num_jobs(15).build(2);
        let outcome = Simulation::new(SimConfig::new(32), &trace)
            .run(&mut SrptNoClone::new(3.0))
            .unwrap();
        assert!((outcome.mean_copies_per_task() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_and_name() {
        assert!(std::panic::catch_unwind(|| SrptNoClone::new(-2.0)).is_err());
        assert!(SrptNoClone::new(1.0).name().contains("srpt-noclone"));
        assert_eq!(SrptNoClone::default().r(), 0.0);
    }
}
