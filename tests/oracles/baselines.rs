//! Frozen pre-optimization reference implementations of the baselines.
//!
//! These are verbatim copies of Mantri, LATE, Fair, FIFO and SCA as they
//! existed before the incremental-state optimization: every decision
//! re-scans the full task vectors, re-sorts the alive jobs, and re-derives
//! every estimate (`t_new`, progress rates, remaining times) from scratch.
//! They deliberately touch **none** of the engine's incremental indices (no
//! free-lists, no running-by-finish order, no completed-duration aggregates),
//! so running one exercises the naive path end to end.
//!
//! Each reference reports the same [`Scheduler::name`] as its optimized
//! counterpart, so the golden-equivalence tests can assert full `SimOutcome`
//! equality on randomized workloads.
//!
//! Do not "improve" this module; its value is that it does not change. (The
//! only edits since freezing are mechanical: the copy-storage refactor moved
//! the per-copy task queries behind a `&CopyArena` parameter, and the
//! parameters once read from per-scheduler config structs are now read from
//! the module constants of the optimized schedulers and of
//! [`mapreduce_baselines::detection`]. The decision logic is untouched.)

use mapreduce_baselines::detection::{DETECTION_INTERVAL, MIN_ELAPSED_FOR_DETECTION};
use mapreduce_baselines::{late, mantri, restart, sca};
use mapreduce_sim::{
    Action, ClusterState, CopyArena, JobState, ParetoSpeedup, Scheduler, Slot, SpeedupFunction,
    TaskState, TaskStatus,
};
use mapreduce_workload::Phase;

/// Unscheduled tasks of a phase by scanning the full task vector, in index
/// order — the pre-free-list enumeration.
fn scan_unscheduled<'a>(
    job: &'a JobState,
    phase: Phase,
) -> impl Iterator<Item = &'a TaskState> + 'a {
    job.tasks(phase).iter().filter(|t| t.is_unscheduled())
}

/// Running (scheduled, unfinished) tasks of a phase by scanning the full task
/// vector, in index order.
fn scan_running<'a>(job: &'a JobState, phase: Phase) -> impl Iterator<Item = &'a TaskState> + 'a {
    job.tasks(phase)
        .iter()
        .filter(|t| t.status() == TaskStatus::Scheduled)
}

/// The pre-optimization scan-based fair fill: picks the least-served job by a
/// full scan per granted machine and collects the unscheduled task ids of
/// every job up front.
fn reference_fill(jobs: &[&JobState], mut budget: usize, weighted: bool) -> Vec<Action> {
    let mut actions = Vec::new();
    if budget == 0 || jobs.is_empty() {
        return actions;
    }
    struct FillSlot<'a> {
        job: &'a JobState,
        occupied: usize,
        map_cursor: usize,
        reduce_cursor: usize,
    }
    let mut slots: Vec<FillSlot<'_>> = jobs
        .iter()
        .map(|j| FillSlot {
            job: j,
            occupied: j.active_copies(),
            map_cursor: 0,
            reduce_cursor: 0,
        })
        .collect();

    let unscheduled: Vec<(Vec<_>, Vec<_>)> = jobs
        .iter()
        .map(|j| {
            let maps: Vec<_> = scan_unscheduled(j, Phase::Map).map(|t| t.id()).collect();
            let reduces: Vec<_> = if j.map_phase_complete() {
                scan_unscheduled(j, Phase::Reduce).map(|t| t.id()).collect()
            } else {
                Vec::new()
            };
            (maps, reduces)
        })
        .collect();

    while budget > 0 {
        let mut best: Option<(f64, usize)> = None;
        for (idx, slot) in slots.iter().enumerate() {
            let (maps, reduces) = &unscheduled[idx];
            let has_work = slot.map_cursor < maps.len() || slot.reduce_cursor < reduces.len();
            if !has_work {
                continue;
            }
            let weight = if weighted { slot.job.weight() } else { 1.0 };
            let ratio = slot.occupied as f64 / weight;
            match best {
                Some((best_ratio, _)) if ratio >= best_ratio => {}
                _ => best = Some((ratio, idx)),
            }
        }
        let Some((_, idx)) = best else { break };
        let (maps, reduces) = &unscheduled[idx];
        let slot = &mut slots[idx];
        let task = if slot.map_cursor < maps.len() {
            let t = maps[slot.map_cursor];
            slot.map_cursor += 1;
            t
        } else {
            let t = reduces[slot.reduce_cursor];
            slot.reduce_cursor += 1;
            t
        };
        actions.push(Action::Launch { task, copies: 1 });
        slot.occupied += 1;
        budget -= 1;
    }
    actions
}

/// Pre-optimization weighted fair scheduler.
#[derive(Debug, Default, Clone)]
pub struct ReferenceFair {
    _private: (),
}

impl ReferenceFair {
    /// Creates the reference scheduler.
    pub fn new() -> Self {
        ReferenceFair::default()
    }
}

impl Scheduler for ReferenceFair {
    fn name(&self) -> &str {
        "fair"
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let jobs: Vec<&JobState> = state.alive_jobs().collect();
        reference_fill(&jobs, state.available_machines(), true)
    }
}

/// Pre-optimization FIFO: re-sorts the alive jobs by `(arrival, id)` on every
/// call and scans for unscheduled tasks.
#[derive(Debug, Default, Clone)]
pub struct ReferenceFifo {
    _private: (),
}

impl ReferenceFifo {
    /// Creates the reference scheduler.
    pub fn new() -> Self {
        ReferenceFifo::default()
    }
}

impl Scheduler for ReferenceFifo {
    fn name(&self) -> &str {
        "fifo"
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut budget = state.available_machines();
        let mut actions = Vec::new();
        if budget == 0 {
            return actions;
        }
        let mut jobs: Vec<_> = state.alive_jobs().collect();
        jobs.sort_by_key(|j| (j.arrival(), j.id()));
        for job in jobs {
            for phase in [Phase::Map, Phase::Reduce] {
                if phase == Phase::Reduce && !job.map_phase_complete() {
                    continue;
                }
                for task in scan_unscheduled(job, phase) {
                    if budget == 0 {
                        return actions;
                    }
                    actions.push(Action::Launch {
                        task: task.id(),
                        copies: 1,
                    });
                    budget -= 1;
                }
            }
        }
        actions
    }
}

/// Pre-optimization Mantri: per wakeup, re-derives `t_new` by scanning every
/// task of every phase and re-examines every running task of every alive job.
#[derive(Debug, Default, Clone)]
pub struct ReferenceMantri {
    _private: (),
}

impl ReferenceMantri {
    /// Creates reference Mantri with the published parameters.
    pub fn new() -> Self {
        ReferenceMantri::default()
    }

    fn estimate_t_new(job: &JobState, phase: Phase) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for task in job.tasks(phase) {
            if let (Some(first), Some(done)) = (task.first_launched_at(), task.finished_at()) {
                sum += done.saturating_sub(first) as f64;
                count += 1;
            }
        }
        if count > 0 {
            sum / count as f64
        } else {
            job.spec().stats(phase).mean
        }
    }

    fn straggler_candidates(
        &self,
        job: &JobState,
        copies: &CopyArena,
        now: Slot,
    ) -> Vec<(Slot, Action)> {
        let mut candidates = Vec::new();
        for phase in [Phase::Map, Phase::Reduce] {
            let t_new = Self::estimate_t_new(job, phase);
            for task in scan_running(job, phase) {
                if !self.is_straggler(task, copies, t_new, now) {
                    continue;
                }
                let t_rem = task.min_remaining(copies, now).unwrap_or(0);
                candidates.push((
                    t_rem,
                    Action::Launch {
                        task: task.id(),
                        copies: 1,
                    },
                ));
            }
        }
        candidates
    }

    fn is_straggler(&self, task: &TaskState, copies: &CopyArena, t_new: f64, now: Slot) -> bool {
        if task.active_copies() >= mantri::MAX_COPIES_PER_TASK {
            return false;
        }
        if task.oldest_active_elapsed(copies, now) < MIN_ELAPSED_FOR_DETECTION {
            return false;
        }
        let Some(t_rem) = task.min_remaining(copies, now) else {
            return false;
        };
        t_rem as f64 > mantri::THRESHOLD_FACTOR * t_new
    }
}

impl Scheduler for ReferenceMantri {
    fn name(&self) -> &str {
        "mantri"
    }

    fn wakeup_interval(&self) -> Option<Slot> {
        Some(DETECTION_INTERVAL)
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut budget = state.available_machines();
        if budget == 0 {
            return Vec::new();
        }
        let jobs: Vec<&JobState> = state.alive_jobs().collect();
        let mut actions = reference_fill(&jobs, budget, false);
        let launched = actions.len();
        budget -= launched.min(budget);
        if budget == 0 {
            return actions;
        }

        let mut candidates: Vec<(Slot, Action)> = Vec::new();
        for job in &jobs {
            candidates.extend(self.straggler_candidates(job, state.copies(), state.now()));
        }
        candidates.sort_by_key(|(t_rem, _)| std::cmp::Reverse(*t_rem));
        for (_, action) in candidates.into_iter().take(budget) {
            actions.push(action);
        }
        actions
    }
}

/// Pre-optimization LATE: re-examines every running task of every alive job
/// per wakeup, with `partial_cmp(..).unwrap_or(Equal)` sorts.
#[derive(Debug, Default, Clone)]
pub struct ReferenceLate {
    _private: (),
}

impl ReferenceLate {
    /// Creates reference LATE with its published thresholds.
    pub fn new() -> Self {
        ReferenceLate::default()
    }
}

impl Scheduler for ReferenceLate {
    fn name(&self) -> &str {
        "late"
    }

    fn wakeup_interval(&self) -> Option<Slot> {
        Some(DETECTION_INTERVAL)
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut budget = state.available_machines();
        if budget == 0 {
            return Vec::new();
        }
        let jobs: Vec<&JobState> = state.alive_jobs().collect();

        let mut actions = reference_fill(&jobs, budget, false);
        budget -= actions.len().min(budget);
        if budget == 0 {
            return actions;
        }

        let now = state.now();
        let copies = state.copies();
        let mut speculative_running = 0usize;
        let mut candidates: Vec<(f64, f64, Action)> = Vec::new();
        for job in &jobs {
            for phase in [Phase::Map, Phase::Reduce] {
                for task in scan_running(job, phase) {
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
            return actions;
        }

        let mut rates: Vec<f64> = candidates.iter().map(|(rate, _, _)| *rate).collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((rates.len() as f64 * late::SLOW_TASK_QUANTILE).ceil() as usize)
            .clamp(1, rates.len())
            - 1;
        let threshold = rates[idx];

        let cap = ((state.total_machines() as f64 * late::SPECULATIVE_CAP).floor() as usize).max(1);
        let allowance = cap.saturating_sub(speculative_running).min(budget);

        let mut eligible: Vec<(f64, Action)> = candidates
            .into_iter()
            .filter(|(rate, _, _)| *rate <= threshold)
            .map(|(_, est, action)| (est, action))
            .collect();
        eligible.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        for (_, action) in eligible.into_iter().take(allowance) {
            actions.push(action);
        }
        actions
    }
}

/// Scan-based reference of the kill-and-restart baseline: per wakeup it
/// re-derives `t_new` by scanning every task of the phase and re-examines
/// every running task of every alive job — no running-by-finish index, no
/// completed-duration aggregates. The golden-equivalence suite pins
/// [`mapreduce_baselines::Restart`] against this implementation
/// bit-for-bit, which gives the engine's cancellation path (stale finish
/// events, scratch-buffer cancellation, running-finish re-keying)
/// adversarial randomized coverage.
#[derive(Debug, Default, Clone)]
pub struct ReferenceRestart {
    restarts: std::collections::HashMap<mapreduce_workload::TaskId, u32>,
}

impl ReferenceRestart {
    /// Creates the reference with the fixed parameters.
    pub fn new() -> Self {
        ReferenceRestart::default()
    }

    fn estimate_t_new(job: &JobState, phase: Phase) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for task in job.tasks(phase) {
            if let (Some(first), Some(done)) = (task.first_launched_at(), task.finished_at()) {
                sum += done.saturating_sub(first) as f64;
                count += 1;
            }
        }
        if count > 0 {
            sum / count as f64
        } else {
            job.spec().stats(phase).mean
        }
    }
}

impl Scheduler for ReferenceRestart {
    fn name(&self) -> &str {
        "restart"
    }

    fn wakeup_interval(&self) -> Option<Slot> {
        Some(DETECTION_INTERVAL)
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let copies = state.copies();
        let jobs: Vec<&JobState> = state.alive_jobs().collect();
        let mut actions = reference_fill(&jobs, state.available_machines(), false);

        let now = state.now();
        let mut candidates: Vec<(Slot, mapreduce_workload::TaskId)> = Vec::new();
        for job in &jobs {
            for phase in [Phase::Map, Phase::Reduce] {
                let t_new = Self::estimate_t_new(job, phase);
                for task in scan_running(job, phase) {
                    if task.oldest_active_elapsed(copies, now) < MIN_ELAPSED_FOR_DETECTION {
                        continue;
                    }
                    let Some(t_rem) = task.min_remaining(copies, now) else {
                        continue;
                    };
                    if t_rem as f64 <= restart::THRESHOLD_FACTOR * t_new {
                        continue;
                    }
                    let id = task.id();
                    if self.restarts.get(&id).copied().unwrap_or(0)
                        >= restart::MAX_RESTARTS_PER_TASK
                    {
                        continue;
                    }
                    candidates.push((t_rem, id));
                }
            }
        }
        candidates.sort_by_key(|&(t_rem, _)| std::cmp::Reverse(t_rem));
        for (_, task) in candidates {
            *self.restarts.entry(task).or_insert(0) += 1;
            actions.push(Action::CancelCopies { task, keep: 0 });
            actions.push(Action::Launch { task, copies: 1 });
        }
        actions
    }
}

/// Pre-optimization SCA: `partial_cmp` job ordering and task collection by
/// full scan.
#[derive(Debug, Clone)]
pub struct ReferenceSca {
    speedup: ParetoSpeedup,
}

impl ReferenceSca {
    /// Creates reference SCA with the fixed parameters.
    pub fn new() -> Self {
        ReferenceSca {
            speedup: ParetoSpeedup::new(sca::SPEEDUP_ALPHA),
        }
    }

    fn marginal_gain(&self, weight: f64, phase_mean: f64, x: usize) -> f64 {
        let s_now = self.speedup.speedup(x as f64);
        let s_next = self.speedup.speedup((x + 1) as f64);
        weight * phase_mean * (1.0 / s_now - 1.0 / s_next)
    }
}

impl Default for ReferenceSca {
    fn default() -> Self {
        ReferenceSca::new()
    }
}

struct ReferenceAllocation<'a> {
    job: &'a JobState,
    phase: Phase,
    tasks: Vec<mapreduce_workload::TaskId>,
    copies_per_task: usize,
}

impl Scheduler for ReferenceSca {
    fn name(&self) -> &str {
        "sca"
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut budget = state.available_machines();
        if budget == 0 {
            return Vec::new();
        }

        let mut jobs: Vec<&JobState> = state
            .alive_jobs()
            .filter(|j| j.total_unscheduled() > 0)
            .collect();
        jobs.sort_by(|a, b| {
            let pa = a.weight()
                / a.remaining_effective_workload(sca::PRIORITY_R)
                    .max(f64::MIN_POSITIVE);
            let pb = b.weight()
                / b.remaining_effective_workload(sca::PRIORITY_R)
                    .max(f64::MIN_POSITIVE);
            pb.partial_cmp(&pa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id().cmp(&b.id()))
        });

        let mut allocations: Vec<ReferenceAllocation<'_>> = Vec::new();
        for job in jobs {
            if budget == 0 {
                break;
            }
            let phase = if job.num_unscheduled(Phase::Map) > 0 {
                Phase::Map
            } else if job.map_phase_complete() && job.num_unscheduled(Phase::Reduce) > 0 {
                Phase::Reduce
            } else {
                continue;
            };
            let tasks: Vec<_> = scan_unscheduled(job, phase)
                .map(|t| t.id())
                .take(budget)
                .collect();
            if tasks.is_empty() {
                continue;
            }
            budget -= tasks.len();
            allocations.push(ReferenceAllocation {
                job,
                phase,
                tasks,
                copies_per_task: 1,
            });
        }

        loop {
            if budget == 0 {
                break;
            }
            let mut best: Option<(f64, usize)> = None;
            for (idx, alloc) in allocations.iter().enumerate() {
                if alloc.copies_per_task >= sca::MAX_COPIES_PER_TASK {
                    continue;
                }
                let cost = alloc.tasks.len();
                if cost == 0 || cost > budget {
                    continue;
                }
                let mean = alloc.job.spec().stats(alloc.phase).mean;
                let gain = self.marginal_gain(alloc.job.weight(), mean, alloc.copies_per_task)
                    / cost as f64;
                if gain <= 0.0 {
                    continue;
                }
                match best {
                    Some((best_gain, _)) if gain <= best_gain => {}
                    _ => best = Some((gain, idx)),
                }
            }
            let Some((_, idx)) = best else { break };
            budget -= allocations[idx].tasks.len();
            allocations[idx].copies_per_task += 1;
        }

        allocations
            .into_iter()
            .flat_map(|alloc| {
                alloc.tasks.into_iter().map(move |task| Action::Launch {
                    task,
                    copies: alloc.copies_per_task,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_baselines::{FairScheduler, Fifo, Late, Mantri, Sca};
    use mapreduce_sim::{SimConfig, Simulation};
    use mapreduce_workload::WorkloadBuilder;

    #[test]
    fn references_report_the_optimized_names() {
        assert_eq!(ReferenceFair::new().name(), FairScheduler::new().name());
        assert_eq!(ReferenceFifo::new().name(), Fifo::new().name());
        assert_eq!(ReferenceMantri::new().name(), Mantri::new().name());
        assert_eq!(ReferenceLate::new().name(), Late::new().name());
        assert_eq!(ReferenceSca::new().name(), Sca::new().name());
        assert_eq!(
            ReferenceMantri::new().wakeup_interval(),
            Mantri::new().wakeup_interval()
        );
        assert_eq!(
            ReferenceLate::new().wakeup_interval(),
            Late::new().wakeup_interval()
        );
    }

    #[test]
    fn references_complete_workloads() {
        let trace = WorkloadBuilder::new()
            .num_jobs(15)
            .map_tasks_per_job(1, 4)
            .reduce_tasks_per_job(0, 2)
            .build(3);
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(ReferenceFair::new()),
            Box::new(ReferenceFifo::new()),
            Box::new(ReferenceMantri::new()),
            Box::new(ReferenceLate::new()),
            Box::new(ReferenceSca::new()),
        ];
        for scheduler in &mut schedulers {
            let outcome = Simulation::new(SimConfig::new(8).with_seed(2), &trace)
                .run(scheduler.as_mut())
                .unwrap();
            assert_eq!(outcome.records().len(), 15);
        }
    }
}
