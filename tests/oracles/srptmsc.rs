//! Frozen pre-optimization reference implementation of SRPTMS+C.
//!
//! [`ReferenceSrptMsC`] is a verbatim copy of the scheduler as it existed
//! before the incremental-state optimization: it re-sorts the alive jobs on
//! every wakeup, re-derives every priority from the job statistics,
//! enumerates unscheduled tasks by scanning the full task vectors and
//! allocates its working sets per decision. It deliberately touches **none**
//! of the engine's incremental indices (no [`Scheduler::priority_r`], no
//! free-lists), so it exercises the naive path end to end.
//!
//! It exists for two purposes:
//! * the golden-equivalence tests assert that the optimized
//!   [`mapreduce_sched::SrptMsC`] produces a bit-identical `SimOutcome` on
//!   randomized workloads, and
//! * the `engine_fullscale` benchmark runs it as the recorded pre-change
//!   baseline so the performance trajectory in `BENCH_engine.json` shows the
//!   win against the same binary.
//!
//! [`reference_epsilon_fraction_shares`] is the frozen full walk of the
//! ε-fraction rule. It shares no code with `mapreduce_sched::sharing`, so the
//! prefix-walk proptests (`tests/tests/epsilon_share_equivalence.rs`) check
//! the production rounding against an independent copy.
//!
//! Do not "improve" this module; its value is that it does not change.

use mapreduce_sched::{MachineShare, SrptMsCConfig};
use mapreduce_sim::{Action, ClusterState, JobState, Scheduler};
use mapreduce_workload::{JobId, Phase};

/// The pre-optimization ε-fraction shares, frozen verbatim (fresh `Vec` per
/// call, full `partial_cmp` sort inside the rounding) so the reference does
/// not share the rewritten `mapreduce_sched::sharing` code path it is the
/// oracle for.
///
/// `jobs` is the priority-ordered list of `(job id, weight)` pairs; the
/// result holds one share per input job, in the same order (all zero when
/// `total_machines == 0`).
///
/// # Panics
/// Panics if `epsilon` is not in `(0, 1]` or any weight is not positive.
pub fn reference_epsilon_fraction_shares(
    jobs: &[(JobId, f64)],
    total_machines: usize,
    epsilon: f64,
) -> Vec<MachineShare> {
    assert!(
        epsilon > 0.0 && epsilon <= 1.0,
        "epsilon must be in (0, 1], got {epsilon}"
    );
    assert!(
        jobs.iter().all(|(_, w)| *w > 0.0),
        "job weights must be positive"
    );
    if jobs.is_empty() || total_machines == 0 {
        return jobs
            .iter()
            .map(|&(job, _)| MachineShare {
                job,
                fractional: 0.0,
                machines: 0,
            })
            .collect();
    }

    let total_weight: f64 = jobs.iter().map(|(_, w)| w).sum();
    let m = total_machines as f64;
    let threshold = (1.0 - epsilon) * total_weight;

    let mut suffix_weight = total_weight;
    let mut shares = Vec::with_capacity(jobs.len());
    for &(job, weight) in jobs {
        let w_i = suffix_weight;
        let fractional = if w_i - weight >= threshold {
            weight * m / (epsilon * total_weight)
        } else if w_i < threshold {
            0.0
        } else {
            (w_i - threshold) * m / (epsilon * total_weight)
        };
        shares.push(MachineShare {
            job,
            fractional,
            machines: 0,
        });
        suffix_weight -= weight;
    }

    reference_largest_remainder_round(&mut shares, total_machines);
    shares
}

/// The pre-optimization largest-remainder rounding: full sort with
/// `partial_cmp(..).unwrap_or(Equal)`, exactly as it was.
fn reference_largest_remainder_round(shares: &mut [MachineShare], total_machines: usize) {
    let mut assigned = 0usize;
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(shares.len());
    for (idx, share) in shares.iter_mut().enumerate() {
        let floor = share.fractional.floor() as usize;
        share.machines = floor;
        assigned += floor;
        remainders.push((share.fractional - floor as f64, idx));
    }
    let mut leftover = total_machines.saturating_sub(assigned);
    remainders.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.cmp(&b.1))
    });
    for (rem, idx) in remainders {
        if leftover == 0 {
            break;
        }
        if rem > 0.0 || shares[idx].fractional > 0.0 {
            shares[idx].machines += 1;
            leftover -= 1;
        }
    }
}

/// The pre-optimization SRPTMS+C scheduler (see the module docs).
///
/// Reports the same [`Scheduler::name`] as the optimized implementation so
/// outcome comparisons can use full `SimOutcome` equality.
#[derive(Debug, Clone)]
pub struct ReferenceSrptMsC {
    config: SrptMsCConfig,
    name: String,
}

impl ReferenceSrptMsC {
    /// Creates the reference scheduler with the given `ε` and `r`.
    ///
    /// # Panics
    /// Panics if the parameters are invalid (see [`SrptMsCConfig::new`]).
    pub fn new(epsilon: f64, r: f64) -> Self {
        Self::with_config(SrptMsCConfig::new(epsilon, r))
    }

    /// Creates the reference scheduler from a full configuration.
    pub fn with_config(config: SrptMsCConfig) -> Self {
        let name = if config.cloning {
            format!("srptms+c(eps={},r={})", config.epsilon, config.r)
        } else {
            format!("srptms(eps={},r={})", config.epsilon, config.r)
        };
        ReferenceSrptMsC { config, name }
    }

    /// The online priority `w_i / U_i(l)`, recomputed from the job statistics
    /// exactly as the pre-optimization code did.
    fn online_priority(job: &JobState, r: f64) -> f64 {
        let u = job.remaining_effective_workload(r);
        if u > 0.0 {
            job.weight() / u
        } else {
            f64::INFINITY
        }
    }

    /// Number of unscheduled tasks of a phase by scanning the task vector.
    fn scan_num_unscheduled(job: &JobState, phase: Phase) -> usize {
        job.tasks(phase)
            .iter()
            .filter(|t| t.is_unscheduled())
            .count()
    }

    fn schedule_tasks_for_job(&self, job: &JobState, machines: usize) -> (Vec<Action>, usize) {
        let mut actions = Vec::new();
        if machines == 0 {
            return (actions, 0);
        }

        let phase = if Self::scan_num_unscheduled(job, Phase::Map) > 0 {
            Phase::Map
        } else if job.map_phase_complete() && Self::scan_num_unscheduled(job, Phase::Reduce) > 0 {
            Phase::Reduce
        } else {
            return (actions, 0);
        };

        let unscheduled: Vec<_> = job
            .tasks(phase)
            .iter()
            .filter(|t| t.is_unscheduled())
            .map(|t| t.id())
            .collect();
        let count = unscheduled.len();
        if count == 0 {
            return (actions, 0);
        }

        let mut used = 0usize;
        if machines <= count || !self.config.cloning {
            for task in unscheduled.into_iter().take(machines) {
                actions.push(Action::Launch { task, copies: 1 });
                used += 1;
            }
        } else {
            let base = machines / count;
            let extra = machines % count;
            for (k, task) in unscheduled.into_iter().enumerate() {
                let copies = (base + usize::from(k < extra)).min(self.config.max_copies_per_task);
                if copies > 0 {
                    actions.push(Action::Launch { task, copies });
                    used += copies;
                }
            }
        }
        (actions, used)
    }
}

impl Scheduler for ReferenceSrptMsC {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let mut available = state.available_machines();
        if available == 0 {
            return;
        }

        // ψ^s(l): alive jobs that still have unscheduled tasks, re-sorted on
        // every wakeup with every priority recomputed from scratch.
        let mut candidates: Vec<&JobState> = state
            .alive_jobs()
            .filter(|j| j.total_unscheduled() > 0)
            .collect();
        if candidates.is_empty() {
            return;
        }
        candidates.sort_by(|a, b| {
            let pa = Self::online_priority(a, self.config.r);
            let pb = Self::online_priority(b, self.config.r);
            pb.partial_cmp(&pa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id().cmp(&b.id()))
        });

        let ranked: Vec<(JobId, f64)> = candidates.iter().map(|j| (j.id(), j.weight())).collect();
        let shares =
            reference_epsilon_fraction_shares(&ranked, state.total_machines(), self.config.epsilon);

        let mut launched: std::collections::HashSet<mapreduce_workload::TaskId> =
            std::collections::HashSet::new();
        for (job, share) in candidates.iter().zip(shares.iter()) {
            if available == 0 {
                break;
            }
            if share.machines == 0 {
                continue;
            }
            let sigma = job.active_copies();
            let xi = share.machines.saturating_sub(sigma);
            if xi == 0 {
                continue;
            }
            let grant = xi.min(available);
            let (job_actions, used) = self.schedule_tasks_for_job(job, grant);
            for action in &job_actions {
                if let Action::Launch { task, .. } = action {
                    launched.insert(*task);
                }
            }
            actions.extend(job_actions);
            available -= used;
        }

        if self.config.work_conserving && available > 0 {
            'backfill: for job in &candidates {
                let phase = if Self::scan_num_unscheduled(job, Phase::Map) > 0 {
                    Phase::Map
                } else if job.map_phase_complete()
                    && Self::scan_num_unscheduled(job, Phase::Reduce) > 0
                {
                    Phase::Reduce
                } else {
                    continue;
                };
                for task in job.tasks(phase).iter().filter(|t| t.is_unscheduled()) {
                    if available == 0 {
                        break 'backfill;
                    }
                    if launched.contains(&task.id()) {
                        continue;
                    }
                    actions.push(Action::Launch {
                        task: task.id(),
                        copies: 1,
                    });
                    launched.insert(task.id());
                    available -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::{SimConfig, Simulation};
    use mapreduce_workload::WorkloadBuilder;

    #[test]
    fn reference_reports_the_optimized_name() {
        assert_eq!(
            ReferenceSrptMsC::new(0.6, 3.0).name(),
            mapreduce_sched::SrptMsC::new(0.6, 3.0).name()
        );
    }

    #[test]
    fn reference_completes_workloads() {
        let trace = WorkloadBuilder::new().num_jobs(20).build(5);
        let outcome = Simulation::new(SimConfig::new(8).with_seed(5), &trace)
            .run(&mut ReferenceSrptMsC::new(0.6, 3.0))
            .unwrap();
        assert_eq!(outcome.records().len(), 20);
    }
}
