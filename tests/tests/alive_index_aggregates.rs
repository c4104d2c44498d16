//! The engine's `AliveIndex` against scans of the alive set it indexes.
//!
//! Every `ClusterState` reads its alive set and aggregates from the index,
//! so these must hold at every decision instant:
//!
//! * `alive_jobs()` (job-id order) yields arrivals in non-decreasing order —
//!   the premise that lets FIFO serve job-id order as arrival order;
//! * `total_unscheduled_weight` (`W(l)`) and `total_launchable_tasks` each
//!   equal a scan over `alive_jobs()`. Equality is exact: the generator's
//!   weights are integers, so every weight sum is exact in any order;
//! * `launchable_jobs()` is exactly the alive jobs, in job-id order, whose
//!   `launchable()` is `Some`, each with that phase and free-list — the set
//!   FIFO and the fair fill walk;
//! * `job(id)` resolves exactly the alive jobs plus those that completed at
//!   this instant (which the completion hooks just read): every job that
//!   completed at an earlier instant is retired from the job table, and no
//!   id past the last arrival resolves;
//! * when the scheduler declares `priority_r`, `ranked_entries()` is exactly
//!   the alive jobs with an unscheduled task, freshly sorted by
//!   `w / U(r)` descending (`total_cmp`), ties by ascending id.
//!
//! A forwarding wrapper checks all five before each decision, over random
//! golden-equivalence traces for FIFO, Mantri and SRPTMS+C, with and without
//! a random fault plan (faults return tasks to the unscheduled pool, the one
//! event that grows `W(l)` and the launchable count after arrival).

use integration_tests::helpers::{random_fault_plan, random_trace, run_with_plan};
use mapreduce_baselines::{Fifo, Mantri};
use mapreduce_sched::SrptMsC;
use mapreduce_sim::{Action, ClusterState, FaultPlan, IndexDemands, Scheduler, Slot};
use mapreduce_support::proptest::prelude::*;
use mapreduce_workload::{JobId, TaskId};
use std::collections::BTreeSet;

/// Forwards every trait method to `inner` and checks the snapshot's order,
/// aggregates and resident jobs against scans before each decision.
struct ScanChecked {
    inner: Box<dyn Scheduler>,
    decisions: usize,
    /// Jobs arrived so far, from the arrival hooks.
    arrived: usize,
    /// Jobs the completion hooks found complete at this instant.
    completed_now: BTreeSet<usize>,
}

impl ScanChecked {
    fn new(inner: Box<dyn Scheduler>) -> Self {
        ScanChecked {
            inner,
            decisions: 0,
            arrived: 0,
            completed_now: BTreeSet::new(),
        }
    }

    fn check(&mut self, state: &ClusterState<'_>) {
        self.decisions += 1;
        let at = state.now();
        let mut last_arrival = 0;
        for job in state.alive_jobs() {
            assert!(
                job.arrival() >= last_arrival,
                "slot {at}: alive job {} arrived at {} after a predecessor's {last_arrival}",
                job.id(),
                job.arrival()
            );
            last_arrival = job.arrival();
        }
        let alive = || state.alive_jobs();
        assert_eq!(
            state.total_unscheduled_weight(),
            alive()
                .filter(|j| j.total_unscheduled() > 0)
                .map(|j| j.weight())
                .sum::<f64>(),
            "slot {at}: total_unscheduled_weight"
        );
        assert_eq!(
            state.total_launchable_tasks(),
            alive().map(|j| j.launchable_unscheduled()).sum::<usize>(),
            "slot {at}: total_launchable_tasks"
        );
        let indexed: Vec<_> = state
            .launchable_jobs()
            .map(|(j, phase, tasks)| (j.id(), phase, tasks))
            .collect();
        let scanned: Vec<_> = alive()
            .filter_map(|j| j.launchable().map(|(phase, tasks)| (j.id(), phase, tasks)))
            .collect();
        assert_eq!(indexed, scanned, "slot {at}: launchable_jobs");
        if let Some(r) = self.inner.priority_r() {
            // `U > 0` for every job with an unscheduled task, so the key is
            // the plain ratio.
            let mut sorted: Vec<(f64, usize)> = alive()
                .filter(|j| j.total_unscheduled() > 0)
                .map(|j| {
                    let key = j.weight() / j.remaining_effective_workload(r);
                    (key, j.id().as_usize())
                })
                .collect();
            sorted.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let ranked: Vec<usize> = state.ranked_entries().iter().collect();
            let sorted: Vec<usize> = sorted.into_iter().map(|(_, idx)| idx).collect();
            assert_eq!(ranked, sorted, "slot {at}: ranked_entries");
        }
        let alive_ids: BTreeSet<usize> = alive().map(|j| j.id().as_usize()).collect();
        for id in 0..=self.arrived {
            let expect = alive_ids.contains(&id) || self.completed_now.contains(&id);
            assert_eq!(
                state.job(JobId::new(id as u64)).is_some(),
                expect,
                "slot {at}: job {id} resolves iff alive or completed at this instant"
            );
        }
        self.completed_now.clear();
    }
}

impl Scheduler for ScanChecked {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        self.check(state);
        self.inner.schedule(state)
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        self.check(state);
        self.inner.schedule_into(state, actions);
    }

    fn wakeup_interval(&self) -> Option<Slot> {
        self.inner.wakeup_interval()
    }

    fn index_demands(&self) -> IndexDemands {
        self.inner.index_demands()
    }

    fn priority_r(&self) -> Option<f64> {
        self.inner.priority_r()
    }

    fn on_job_arrival(&mut self, job: JobId, state: &ClusterState<'_>) {
        self.arrived = self.arrived.max(job.as_usize() + 1);
        self.inner.on_job_arrival(job, state);
    }

    fn on_task_finished(&mut self, task: TaskId, state: &ClusterState<'_>) {
        let job = state.job(task.job).unwrap_or_else(|| {
            panic!(
                "slot {}: the job of a task finished at this instant is retired",
                state.now()
            )
        });
        if job.is_complete() {
            self.completed_now.insert(task.job.as_usize());
        }
        self.inner.on_task_finished(task, state);
    }

    fn on_task_unlaunched(&mut self, task: TaskId, state: &ClusterState<'_>) {
        self.inner.on_task_unlaunched(task, state);
    }
}

/// FIFO (no priority order), Mantri (no priority order, periodic wakeups)
/// and SRPTMS+C (priority order enabled).
fn checked_schedulers() -> Vec<ScanChecked> {
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Fifo::new()),
        Box::new(Mantri::new()),
        Box::new(SrptMsC::new(0.6, 3.0)),
    ];
    schedulers.into_iter().map(ScanChecked::new).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alive_index_matches_scans_at_every_decision(
        jobs in 10usize..40,
        machines in 4usize..24,
        seed in 0u64..1000,
        interarrival in 5.0f64..40.0,
    ) {
        let trace = random_trace(jobs, seed, interarrival, 60.0);
        for mut checked in checked_schedulers() {
            let outcome = run_with_plan(&mut checked, &trace, machines, seed, FaultPlan::none());
            prop_assert_eq!(outcome.records().len(), jobs);
            prop_assert!(checked.decisions > 0, "{} never decided", outcome.scheduler);
        }
    }

    #[test]
    fn alive_index_matches_scans_under_fault_plans(
        jobs in 10usize..30,
        machines in 6usize..32,
        seed in 0u64..1000,
        crash_fraction in 0.5f64..1.0,
        mean_up in 100.0f64..600.0,
        down_fraction in 0.05f64..0.4,
        brownouts in 0u64..2,
    ) {
        let trace = random_trace(jobs, seed, 20.0, 60.0);
        let plan = random_fault_plan(machines, crash_fraction, mean_up, down_fraction, brownouts == 1);
        for mut checked in checked_schedulers() {
            let outcome = run_with_plan(&mut checked, &trace, machines, seed, plan.clone());
            prop_assert_eq!(outcome.records().len(), jobs);
            prop_assert!(checked.decisions > 0, "{} never decided", outcome.scheduler);
        }
    }
}
