//! Hadoop-style weighted fair scheduling.
//!
//! The fair scheduler divides the cluster among all alive jobs in proportion
//! to their weights, launching one copy per task and never speculating. The
//! paper points out that SRPTMS+C with `ε = 1` reduces to exactly this
//! policy; having an independent implementation lets the experiments check
//! that equivalence and gives the detection-based baselines (Mantri, LATE) a
//! realistic job-level allocator to sit on.

use mapreduce_sim::{Action, ClusterState, Scheduler};
use mapreduce_workload::{Phase, TaskId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Launches up to `budget` copies of unscheduled tasks of the snapshot's
/// alive jobs, spreading machines in weighted max-min fashion.
///
/// Jobs repeatedly receive one machine each, picked as the job with the
/// smallest `occupied / weight` ratio among those that still have a
/// launchable task ([`mapreduce_sim::JobState::launchable`]: map tasks
/// first; reduce tasks only once the job's Map phase completed).
/// Work-conserving: if some jobs cannot use their share the machines go to
/// the others. With `weighted = false` every job counts with weight 1, which
/// is how Hadoop/Dryad schedule jobs underneath the detection-based
/// baselines ([`Mantri`](crate::Mantri), [`Late`](crate::Late));
/// [`FairScheduler`] passes `true`.
///
/// Only jobs in the engine's launchable-job set
/// ([`ClusterState::launchable_jobs`]) enter the fill, so a decision costs
/// `O(launchable jobs + budget · log)`, not `O(alive)`. Fully pooled: no
/// `Vec<&JobState>` collection and no per-call slot/heap allocation — every
/// buffer lives in the caller-owned [`FairFillScratch`] and is reused across
/// decisions.
pub fn fair_fill_alive_into(
    state: &ClusterState<'_>,
    mut budget: usize,
    weighted: bool,
    scratch: &mut FairFillScratch,
    actions: &mut Vec<Action>,
) {
    if budget == 0 {
        return;
    }
    let slots = &mut scratch.slots;
    slots.clear();
    slots.extend(state.launchable_jobs().map(|(job, phase, _)| JobFill {
        job: job.id().as_usize(),
        phase,
        occupied: job.active_copies(),
        weight: if weighted { job.weight() } else { 1.0 },
        cursor: 0,
    }));

    // Min-heap over (occupied/weight, position): repeatedly grant one machine
    // to the least-served job that still has launchable work. Only the
    // granted job's ratio changes, so popping and re-pushing that single
    // entry keeps the heap exact — `O(log jobs)` per machine. Positions
    // follow job-id order and keys are unique, so ties on the ratio break
    // towards the earlier job whatever the heap layout. The heap's backing
    // storage is pooled.
    scratch.heap.clear();
    scratch.heap.extend(
        slots
            .iter()
            .enumerate()
            .map(|(pos, slot)| Reverse((Ratio(slot.occupied as f64 / slot.weight), pos))),
    );
    let mut heap = BinaryHeap::from(std::mem::take(&mut scratch.heap));

    while budget > 0 {
        let Some(Reverse((_, pos))) = heap.pop() else {
            break;
        };
        let slot = &mut slots[pos];
        let job = state.job_at(slot.job);
        let tasks = job.unscheduled_indices(slot.phase);
        actions.push(Action::Launch {
            task: TaskId::new(job.id(), slot.phase, tasks[slot.cursor]),
            copies: 1,
        });
        slot.cursor += 1;
        slot.occupied += 1;
        budget -= 1;
        if slot.cursor < tasks.len() {
            heap.push(Reverse((Ratio(slot.occupied as f64 / slot.weight), pos)));
        }
    }

    // Hand the heap's storage back to the scratch for the next decision.
    scratch.heap = heap.into_vec();
}

/// An `occupied / weight` ratio ordered with `f64::total_cmp`, so the heap
/// order is total and deterministic. All four comparison traits go through
/// `total_cmp` — deriving `PartialEq` (IEEE `==`) would disagree with `Ord`
/// on `±0.0` and `NaN`, which std documents as a logic error.
#[derive(Debug, Clone, Copy)]
struct Ratio(f64);

impl PartialEq for Ratio {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Ratio {}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One job's launch cursor over its launchable free-list, stored without
/// borrows so the table can be pooled across decisions. The free-list
/// *contents* are re-resolved through the job index at grant time; they
/// cannot change mid-fill (the fill only collects actions, the engine
/// applies them afterwards).
#[derive(Debug, Clone, Copy)]
struct JobFill {
    /// Dense job index, resolved through [`ClusterState::job_at`].
    job: usize,
    /// The job's [`mapreduce_sim::JobState::launchable`] phase.
    phase: Phase,
    occupied: usize,
    /// `job.weight()` under weighted fills, `1.0` otherwise.
    weight: f64,
    /// Launches granted so far: the next task is `phase`'s
    /// `unscheduled_indices()[cursor]`.
    cursor: usize,
}

/// Reusable buffers for the fair fill. Holding one of these in the scheduler
/// makes every steady-state decision allocation-free: the slot table and the
/// heap storage retain their capacity across calls.
#[derive(Debug, Clone, Default)]
pub struct FairFillScratch {
    slots: Vec<JobFill>,
    heap: Vec<Reverse<(Ratio, usize)>>,
}

/// Hadoop's weighted fair scheduler: no speculation, no cloning.
#[derive(Debug, Default, Clone)]
pub struct FairScheduler {
    scratch: FairFillScratch,
}

impl FairScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        FairScheduler::default()
    }
}

impl Scheduler for FairScheduler {
    fn name(&self) -> &str {
        "fair"
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        self.schedule_into(state, &mut actions);
        actions
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        fair_fill_alive_into(
            state,
            state.available_machines(),
            true,
            &mut self.scratch,
            actions,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::{AliveIndex, CopyArena, JobState, JobTable, SimConfig, Simulation};
    use mapreduce_workload::{JobId, JobSpecBuilder, Trace, WorkloadBuilder};

    #[test]
    fn completes_every_job() {
        let trace = WorkloadBuilder::new()
            .num_jobs(30)
            .map_tasks_per_job(1, 5)
            .reduce_tasks_per_job(0, 2)
            .weights(&[1.0, 3.0])
            .build(1);
        let outcome = Simulation::new(SimConfig::new(8), &trace)
            .run(&mut FairScheduler::new())
            .unwrap();
        assert_eq!(outcome.records().len(), 30);
        // No speculation: exactly one copy per task.
        let tasks: usize = outcome.records().iter().map(|r| r.num_tasks()).sum();
        assert_eq!(outcome.total_copies, tasks);
    }

    #[test]
    fn weights_bias_the_allocation() {
        // Two identical jobs, one with 4× the weight, one machine-starved
        // cluster: the heavy job should finish first.
        let heavy = JobSpecBuilder::new(JobId::new(0))
            .weight(4.0)
            .map_tasks_from_workloads(&[50.0; 8])
            .build();
        let light = JobSpecBuilder::new(JobId::new(1))
            .weight(1.0)
            .map_tasks_from_workloads(&[50.0; 8])
            .build();
        let trace = Trace::new(vec![heavy, light]).unwrap();
        let outcome = Simulation::new(SimConfig::new(5), &trace)
            .run(&mut FairScheduler::new())
            .unwrap();
        let heavy_rec = outcome.record(JobId::new(0)).unwrap();
        let light_rec = outcome.record(JobId::new(1)).unwrap();
        assert!(heavy_rec.completion < light_rec.completion);
    }

    /// Fills `budget` machines over a snapshot in which every job is alive,
    /// returning the launches per job.
    fn fill_per_job(jobs: &[JobState], budget: usize, weighted: bool) -> Vec<usize> {
        let mut jobs = jobs.to_vec();
        let mut index = AliveIndex::new();
        for (i, job) in jobs.iter_mut().enumerate() {
            index.insert(i, job);
        }
        let copies = CopyArena::new();
        let table: JobTable = jobs.into_iter().collect();
        let state = ClusterState::new(0, budget, budget, &table, &copies, &index, 0);
        let mut actions = Vec::new();
        fair_fill_alive_into(
            &state,
            budget,
            weighted,
            &mut FairFillScratch::default(),
            &mut actions,
        );
        let mut per_job = vec![0usize; table.admitted()];
        for a in &actions {
            if let Action::Launch { task, copies } = a {
                assert_eq!(*copies, 1);
                per_job[task.job.as_usize()] += 1;
            }
        }
        assert_eq!(per_job.iter().sum::<usize>(), actions.len());
        per_job
    }

    fn job(id: u64, weight: f64, tasks: usize) -> JobState {
        JobState::new(
            JobSpecBuilder::new(JobId::new(id))
                .weight(weight)
                .map_tasks_from_workloads(&vec![10.0; tasks])
                .build(),
        )
    }

    #[test]
    fn fair_fill_respects_budget() {
        let jobs: Vec<JobState> = (0..3).map(|i| job(i, 1.0, 3)).collect();
        let mut per_job = fill_per_job(&jobs, 5, true);
        // The 5 launches are spread across the three jobs (2/2/1).
        per_job.sort_unstable();
        assert_eq!(per_job, [1, 2, 2]);
    }

    #[test]
    fn fair_fill_empty_inputs() {
        assert!(fill_per_job(&[], 10, true).is_empty());
        assert_eq!(fill_per_job(&[job(0, 1.0, 1)], 0, true), [0]);
    }

    #[test]
    fn unweighted_fill_ignores_weights() {
        // A 4:1 weight pair with enough tasks for either split: the
        // unweighted fill halves the budget, the weighted one follows the
        // weights.
        let jobs = [job(0, 4.0, 10), job(1, 1.0, 10)];
        assert_eq!(fill_per_job(&jobs, 10, false), [5, 5]);
        assert_eq!(fill_per_job(&jobs, 10, true), [8, 2]);
    }
}
