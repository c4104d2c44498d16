//! LATE — Longest Approximate Time to End (\[28\] in the paper).
//!
//! LATE speculates on the running task whose *estimated time to completion*
//! is the longest, but only if its progress rate is below a slow-task
//! threshold, and only while the number of outstanding speculative copies
//! stays below a cap proportional to the cluster size. It is not part of the
//! paper's evaluation line-up but is the other canonical detection-based
//! scheme, so it is included as an extra reference point for the comparison
//! figures and ablations.

use crate::detection::{DETECTION_INTERVAL, MIN_ELAPSED_FOR_DETECTION};
use crate::fair::{fair_fill_alive_into, FairFillScratch};
use mapreduce_sim::{Action, ClusterState, IndexDemands, Scheduler, Slot};
use mapreduce_workload::Phase;

/// Only tasks whose progress rate is in the slowest `SLOW_TASK_QUANTILE` of
/// running tasks are eligible for speculation (LATE's SlowTaskThreshold).
pub const SLOW_TASK_QUANTILE: f64 = 0.25;

/// Maximum fraction of the cluster that may run speculative copies at any
/// time (LATE's SpeculativeCap).
pub const SPECULATIVE_CAP: f64 = 0.1;

/// The LATE speculative-execution baseline.
#[derive(Debug, Clone)]
pub struct Late {
    /// Pooled fair-fill buffers (LATE wakes every `DETECTION_INTERVAL`).
    fill_scratch: FairFillScratch,
    /// Pooled detection buffers: `(rate, est_time_left, action)` candidates,
    /// the sorted rate sample, and the eligible slow tasks.
    candidates: Vec<(f64, f64, Action)>,
    rates: Vec<f64>,
    eligible: Vec<(f64, Action)>,
}

impl Late {
    /// Creates LATE with its published thresholds.
    pub fn new() -> Self {
        Late {
            fill_scratch: FairFillScratch::default(),
            candidates: Vec::new(),
            rates: Vec::new(),
            eligible: Vec::new(),
        }
    }
}

impl Default for Late {
    fn default() -> Self {
        Late::new()
    }
}

impl Scheduler for Late {
    fn name(&self) -> &str {
        "late"
    }

    fn wakeup_interval(&self) -> Option<Slot> {
        Some(DETECTION_INTERVAL)
    }

    fn index_demands(&self) -> IndexDemands {
        // The detection pass walks the per-phase running free-lists.
        IndexDemands {
            running_list: true,
            ..IndexDemands::default()
        }
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

        // Regular work first, via equal-share fair scheduling (LATE, like
        // Mantri, has no notion of per-job weights).
        let start = actions.len();
        fair_fill_alive_into(state, budget, false, &mut self.fill_scratch, actions);
        budget -= (actions.len() - start).min(budget);
        if budget == 0 {
            return;
        }

        // Speculative copies, LATE-style, with the leftover machines. The
        // running-task iteration below is backed by the engine's per-phase
        // free-lists, so the detection pass costs O(running tasks), not
        // O(all tasks of all alive jobs). All detection buffers are pooled
        // in `self`.
        let now = state.now();
        let copies = state.copies();
        let mut speculative_running = 0usize;
        let candidates = &mut self.candidates;
        candidates.clear();
        for job in state.alive_jobs() {
            for phase in [Phase::Map, Phase::Reduce] {
                for task in job.running_tasks(phase) {
                    if task.active_copies() >= 2 {
                        speculative_running += 1;
                        continue;
                    }
                    let elapsed = task.oldest_active_elapsed(copies, now);
                    if elapsed < MIN_ELAPSED_FOR_DETECTION {
                        continue;
                    }
                    let progress = task.best_progress(copies, now);
                    let rate = progress / elapsed.max(1) as f64;
                    let est_left = if rate > 0.0 {
                        (1.0 - progress) / rate
                    } else {
                        f64::INFINITY
                    };
                    candidates.push((
                        rate,
                        est_left,
                        Action::Launch {
                            task: task.id(),
                            copies: 1,
                        },
                    ));
                }
            }
        }
        if candidates.is_empty() {
            return;
        }

        // SlowTaskThreshold: rate must be in the slowest quantile.
        let rates = &mut self.rates;
        rates.clear();
        rates.extend(candidates.iter().map(|(rate, _, _)| *rate));
        rates.sort_by(|a, b| a.total_cmp(b));
        let idx =
            ((rates.len() as f64 * SLOW_TASK_QUANTILE).ceil() as usize).clamp(1, rates.len()) - 1;
        let threshold = rates[idx];

        // SpeculativeCap: bound on outstanding duplicates.
        let cap = ((state.total_machines() as f64 * SPECULATIVE_CAP).floor() as usize).max(1);
        let allowance = cap.saturating_sub(speculative_running).min(budget);

        let eligible = &mut self.eligible;
        eligible.clear();
        eligible.extend(
            candidates
                .iter()
                .filter(|(rate, _, _)| *rate <= threshold)
                .map(|&(_, est, action)| (est, action)),
        );
        // Longest approximate time to end first; `total_cmp` keeps the order
        // total (the estimates can be infinite). Stable sort: ties keep the
        // detection (job-id) order.
        eligible.sort_by(|a, b| b.0.total_cmp(&a.0));
        for &(_, action) in eligible.iter().take(allowance) {
            actions.push(action);
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

    /// LATE runs at its published parameters: the slowest quarter of tasks
    /// are candidates and at most a tenth of the slots speculate, re-examined
    /// every 5 slots without the running-by-finish order.
    #[test]
    fn config_validation() {
        assert_eq!(SLOW_TASK_QUANTILE, 0.25);
        assert_eq!(SPECULATIVE_CAP, 0.1);
        let late = Late::default();
        assert_eq!(late.name(), "late");
        assert_eq!(late.wakeup_interval(), Some(5));
        assert!(!late.index_demands().finish_index);
    }

    #[test]
    fn completes_ordinary_workloads() {
        let trace = WorkloadBuilder::new()
            .num_jobs(20)
            .map_tasks_per_job(1, 4)
            .reduce_tasks_per_job(0, 1)
            .build(3);
        let outcome = Simulation::new(SimConfig::new(8).with_seed(1), &trace)
            .run(&mut Late::new())
            .unwrap();
        assert_eq!(outcome.records().len(), 20);
    }

    #[test]
    fn speculates_on_the_slowest_task() {
        let job = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[20.0, 20.0, 600.0])
            .map_stats(PhaseStats::new(20.0, 5.0))
            .map_distribution(DurationDistribution::Deterministic { value: 20.0 })
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        let outcome = Simulation::new(SimConfig::new(10).with_seed(2), &trace)
            .run(&mut Late::new())
            .unwrap();
        let record = outcome.record(JobId::new(0)).unwrap();
        assert!(
            record.completion < 300,
            "LATE should have rescued the straggler, completion {}",
            record.completion
        );
        assert!(record.copies_launched > record.num_tasks());
    }

    #[test]
    fn speculation_helps_under_machine_stragglers() {
        let trace = WorkloadBuilder::new()
            .num_jobs(20)
            .map_tasks_per_job(2, 5)
            .map_duration(DurationDistribution::TruncatedNormal {
                mean: 50.0,
                std_dev: 10.0,
                min: 10.0,
            })
            .build(9);
        let straggling = StragglerModel::MachineSlowdown {
            probability: 0.15,
            factor: 6.0,
        };
        let cfg = SimConfig::new(16)
            .with_seed(11)
            .with_straggler_model(straggling);
        let fifo = Simulation::new(cfg.clone(), &trace)
            .run(&mut crate::Fifo::new())
            .unwrap();
        let late = Simulation::new(cfg, &trace).run(&mut Late::new()).unwrap();
        assert!(
            late.mean_flowtime() <= fifo.mean_flowtime(),
            "LATE {} should not lose to FIFO {} with machine stragglers",
            late.mean_flowtime(),
            fifo.mean_flowtime()
        );
    }
}
