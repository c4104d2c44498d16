//! SCA — the Smart Cloning Algorithm (\[26\], "Optimization for speculative
//! execution in a MapReduce-like cluster").
//!
//! SCA decides, for every arriving job, how many clones each of its tasks
//! should get by solving a convex program that minimises the total expected
//! job flowtime subject to the machine budget, exploiting the concavity of
//! the cloning speedup function `s(x)`. Because the utility is concave and
//! separable, the optimal allocation equalises marginal gains — which is
//! exactly what a greedy water-filling achieves up to integer rounding. This
//! implementation therefore performs the greedy equivalent:
//!
//! 1. every unscheduled task of every alive job first receives one copy
//!    (highest `w/U` jobs first, map phase before reduce phase), then
//! 2. leftover machines are handed out one *increment* at a time to the job
//!    whose next clone level yields the largest reduction in expected
//!    weighted phase duration per machine spent,
//!    `w_i · E_i · (1/s(x) − 1/s(x+1)) / n_i`.
//!
//! The net effect matches the published behaviour: small jobs get cloned
//! aggressively the moment they arrive, large jobs barely at all. The
//! substitution (greedy water-filling instead of an external convex solver)
//! is recorded in DESIGN.md.

use mapreduce_sim::{Action, ClusterState, ParetoSpeedup, Scheduler, SpeedupFunction};
use mapreduce_workload::{Phase, TaskId};

/// Pessimism factor `r` applied to the effective workload when ordering jobs.
pub const PRIORITY_R: f64 = 0.0;

/// Pareto shape `α` of the speedup model `s(x)` used inside the (greedy)
/// convex program.
pub const SPEEDUP_ALPHA: f64 = 2.0;

/// Maximum number of copies per task the program may assign.
pub const MAX_COPIES_PER_TASK: usize = 8;

/// The Smart Cloning Algorithm baseline.
///
/// The job order comes from the engine's maintained `w/U` ranking
/// ([`Scheduler::priority_r`]), walked only as far as the machine budget
/// lasts; nothing is collected or sorted per decision.
#[derive(Debug, Clone)]
pub struct Sca {
    speedup: ParetoSpeedup,
    /// Pooled per-decision allocation buffer.
    allocations: Vec<Allocation>,
}

impl Sca {
    /// Creates SCA with its fixed parameters.
    pub fn new() -> Self {
        Sca {
            speedup: ParetoSpeedup::new(SPEEDUP_ALPHA),
            allocations: Vec::new(),
        }
    }

    /// The marginal reduction in expected weighted phase duration obtained by
    /// raising a job's per-task clone level from `x` to `x + 1`, normalised
    /// per machine spent (one extra machine per unscheduled task).
    fn marginal_gain(&self, weight: f64, phase_mean: f64, x: usize) -> f64 {
        let s_now = self.speedup.speedup(x as f64);
        let s_next = self.speedup.speedup((x + 1) as f64);
        weight * phase_mean * (1.0 / s_now - 1.0 / s_next)
    }
}

impl Default for Sca {
    fn default() -> Self {
        Sca::new()
    }
}

/// Per-job working state used while the greedy allocation runs.
#[derive(Debug, Clone, Copy)]
struct Allocation {
    /// Dense job index (resolved through [`ClusterState::job_at`]).
    job: usize,
    phase: Phase,
    /// The job's first `tasks` unscheduled tasks of `phase` get copies.
    tasks: usize,
    copies_per_task: usize,
}

impl Scheduler for Sca {
    fn name(&self) -> &str {
        "sca"
    }

    fn priority_r(&self) -> Option<f64> {
        Some(PRIORITY_R)
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        self.schedule_into(state, &mut actions);
        actions
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let mut budget = state.available_machines();
        // Both passes grant machines only to launchable unscheduled tasks,
        // so with none anywhere no action can follow (an `O(1)` check).
        if budget == 0 || state.total_launchable_tasks() == 0 {
            return;
        }

        // Pass 1: one copy per launchable task, jobs in w / U order (small
        // jobs first), until the machines run out.
        let ranked = state.ranked_entries();
        let mut allocations = std::mem::take(&mut self.allocations);
        allocations.clear();
        let mut consumed = 0;
        for idx in ranked.iter() {
            if budget == 0 {
                break;
            }
            consumed += 1;
            let Some((phase, unscheduled)) = state.job_at(idx).launchable() else {
                continue;
            };
            let tasks = unscheduled.len().min(budget);
            budget -= tasks;
            allocations.push(Allocation {
                job: idx,
                phase,
                tasks,
                copies_per_task: 1,
            });
        }
        state.note_ranked_prefix(consumed);

        // Pass 2: greedy water-filling of the leftover machines, one clone
        // level at a time, to the allocation with the best marginal gain per
        // machine.
        loop {
            if budget == 0 {
                break;
            }
            let mut best: Option<(f64, usize)> = None;
            for (idx, alloc) in allocations.iter().enumerate() {
                if alloc.copies_per_task >= MAX_COPIES_PER_TASK {
                    continue;
                }
                let cost = alloc.tasks;
                if cost > budget {
                    continue;
                }
                let job = state.job_at(alloc.job);
                let mean = job.spec().stats(alloc.phase).mean;
                let gain =
                    self.marginal_gain(job.weight(), mean, alloc.copies_per_task) / cost as f64;
                if gain <= 0.0 {
                    continue;
                }
                match best {
                    Some((best_gain, _)) if gain <= best_gain => {}
                    _ => best = Some((gain, idx)),
                }
            }
            let Some((_, idx)) = best else { break };
            budget -= allocations[idx].tasks;
            allocations[idx].copies_per_task += 1;
        }

        // The launched tasks are a prefix of each job's unscheduled
        // free-list.
        for alloc in &allocations {
            let job = state.job_at(alloc.job);
            for &index in &job.unscheduled_indices(alloc.phase)[..alloc.tasks] {
                actions.push(Action::Launch {
                    task: TaskId::new(job.id(), alloc.phase, index),
                    copies: alloc.copies_per_task,
                });
            }
        }
        self.allocations = allocations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::{SimConfig, Simulation};
    use mapreduce_workload::{
        DurationDistribution, JobId, JobSpecBuilder, PhaseStats, Trace, WorkloadBuilder,
    };

    /// SCA runs at its published parameters: `r = 0`, speedup `α = 2` and at
    /// most 8 copies per task, decided at launch with no periodic wakeup.
    #[test]
    fn config_validation() {
        assert_eq!(PRIORITY_R, 0.0);
        assert_eq!(SPEEDUP_ALPHA, 2.0);
        assert_eq!(MAX_COPIES_PER_TASK, 8);
        let sca = Sca::default();
        assert_eq!(sca.name(), "sca");
        assert_eq!(sca.wakeup_interval(), None);
        assert!(!sca.index_demands().finish_index);
    }

    #[test]
    fn completes_ordinary_workloads() {
        let trace = WorkloadBuilder::new()
            .num_jobs(25)
            .map_tasks_per_job(1, 5)
            .reduce_tasks_per_job(0, 2)
            .build(4);
        let outcome = Simulation::new(SimConfig::new(10).with_seed(4), &trace)
            .run(&mut Sca::new())
            .unwrap();
        assert_eq!(outcome.records().len(), 25);
    }

    #[test]
    fn clones_small_jobs_when_machines_are_spare() {
        let job = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[60.0, 60.0])
            .map_stats(PhaseStats::new(60.0, 20.0))
            .map_distribution(DurationDistribution::lognormal_from_moments(60.0, 20.0).unwrap())
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        let outcome = Simulation::new(SimConfig::new(12).with_seed(5), &trace)
            .run(&mut Sca::new())
            .unwrap();
        assert!(
            outcome.mean_copies_per_task() > 1.5,
            "expected aggressive cloning, got {} copies/task",
            outcome.mean_copies_per_task()
        );
    }

    #[test]
    fn small_jobs_get_more_clones_than_large_jobs() {
        // A small and a large job arrive together into a modest cluster: the
        // greedy program should clone the small one more per task.
        let small = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[30.0, 30.0])
            .build();
        let large = JobSpecBuilder::new(JobId::new(1))
            .map_tasks_from_workloads(&[30.0; 12])
            .build();
        let trace = Trace::new(vec![small, large]).unwrap();
        let outcome = Simulation::new(SimConfig::new(20).with_seed(6), &trace)
            .run(&mut Sca::new())
            .unwrap();
        let small_rec = outcome.record(JobId::new(0)).unwrap();
        let large_rec = outcome.record(JobId::new(1)).unwrap();
        let small_ratio = small_rec.copies_launched as f64 / small_rec.num_tasks() as f64;
        let large_ratio = large_rec.copies_launched as f64 / large_rec.num_tasks() as f64;
        assert!(
            small_ratio >= large_ratio,
            "small job ratio {small_ratio} < large job ratio {large_ratio}"
        );
    }

    #[test]
    fn marginal_gain_is_decreasing_in_x() {
        let sca = Sca::new();
        let g1 = sca.marginal_gain(1.0, 100.0, 1);
        let g2 = sca.marginal_gain(1.0, 100.0, 2);
        let g3 = sca.marginal_gain(1.0, 100.0, 3);
        assert!(g1 > g2 && g2 > g3);
        assert!(g3 > 0.0);
    }
}
