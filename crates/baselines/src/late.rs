//! LATE — Longest Approximate Time to End (\[28\] in the paper).
//!
//! LATE speculates on the running task whose *estimated time to completion*
//! is the longest, but only if its progress rate is below a slow-task
//! threshold, and only while the number of outstanding speculative copies
//! stays below a cap proportional to the cluster size. It is not part of the
//! paper's evaluation line-up but is the other canonical detection-based
//! scheme, so it is included as an extra reference point for the comparison
//! figures and ablations.

use crate::fair::{fair_fill_alive_into, FairFillScratch};
use mapreduce_sim::{Action, ClusterState, IndexDemands, Scheduler, Slot};
use mapreduce_workload::Phase;

/// Configuration of the [`Late`] baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LateConfig {
    /// Only tasks whose progress rate is in the slowest `slow_task_quantile`
    /// of running tasks are eligible for speculation (LATE's
    /// SlowTaskThreshold, 25 % by default).
    pub slow_task_quantile: f64,
    /// Maximum fraction of the cluster that may run speculative copies at any
    /// time (LATE's SpeculativeCap, 10 % by default).
    pub speculative_cap: f64,
    /// Minimum elapsed running time (slots) before a task is considered.
    pub min_elapsed_for_detection: Slot,
    /// How often (in slots) the detector re-examines running tasks.
    pub detection_interval: Slot,
}

impl Default for LateConfig {
    fn default() -> Self {
        LateConfig {
            slow_task_quantile: 0.25,
            speculative_cap: 0.1,
            // LATE (like Hadoop's stock speculation) only considers tasks
            // that have run for a while, so progress rates are meaningful.
            min_elapsed_for_detection: 30,
            detection_interval: 5,
        }
    }
}

impl LateConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics if the quantile or cap are outside `(0, 1]` or the detection
    /// interval is zero.
    pub fn validate(&self) {
        assert!(
            self.slow_task_quantile > 0.0 && self.slow_task_quantile <= 1.0,
            "slow task quantile must be in (0, 1]"
        );
        assert!(
            self.speculative_cap > 0.0 && self.speculative_cap <= 1.0,
            "speculative cap must be in (0, 1]"
        );
        assert!(
            self.detection_interval >= 1,
            "detection interval must be >= 1"
        );
    }
}

/// The LATE speculative-execution baseline.
#[derive(Debug, Clone)]
pub struct Late {
    config: LateConfig,
    /// Pooled fair-fill buffers (LATE wakes every `detection_interval`).
    fill_scratch: FairFillScratch,
    /// Pooled detection buffers: `(rate, est_time_left, action)` candidates,
    /// the sorted rate sample, and the eligible slow tasks.
    candidates: Vec<(f64, f64, Action)>,
    rates: Vec<f64>,
    eligible: Vec<(f64, Action)>,
}

impl Late {
    /// Creates LATE with its published default thresholds.
    pub fn new() -> Self {
        Self::with_config(LateConfig::default())
    }

    /// Creates LATE with a custom configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn with_config(config: LateConfig) -> Self {
        config.validate();
        Late {
            config,
            fill_scratch: FairFillScratch::default(),
            candidates: Vec::new(),
            rates: Vec::new(),
            eligible: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LateConfig {
        &self.config
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
        Some(self.config.detection_interval)
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
        // Mantri, has no notion of per-job weights). Skipped via the O(1)
        // aggregate when nothing is launchable.
        let start = actions.len();
        if state.total_unscheduled_tasks() > 0 {
            fair_fill_alive_into(state, budget, false, &mut self.fill_scratch, actions);
        }
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
                    if elapsed < self.config.min_elapsed_for_detection {
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
        let idx = ((rates.len() as f64 * self.config.slow_task_quantile).ceil() as usize)
            .clamp(1, rates.len())
            - 1;
        let threshold = rates[idx];

        // SpeculativeCap: bound on outstanding duplicates.
        let cap =
            ((state.total_machines() as f64 * self.config.speculative_cap).floor() as usize).max(1);
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

    #[test]
    fn config_validation() {
        assert!(std::panic::catch_unwind(|| Late::with_config(LateConfig {
            slow_task_quantile: 0.0,
            ..LateConfig::default()
        }))
        .is_err());
        assert!(std::panic::catch_unwind(|| Late::with_config(LateConfig {
            speculative_cap: 1.5,
            ..LateConfig::default()
        }))
        .is_err());
        assert_eq!(Late::new().name(), "late");
        assert_eq!(Late::default().wakeup_interval(), Some(5));
    }
}
