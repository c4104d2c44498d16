//! Algorithm 2: **SRPTMS+C** — Shortest Remaining Processing Time based
//! Machine Sharing plus Cloning.
//!
//! At every decision instant the scheduler:
//!
//! 1. collects the alive jobs that still have unscheduled tasks (`ψ^s(l)`),
//! 2. ranks them by `w_i / U_i(l)` where `U_i(l)` is the remaining effective
//!    workload of Equation (4),
//! 3. computes the ε-fraction machine shares `g_i(l)`
//!    ([`crate::sharing::epsilon_fraction_shares_prefix_into`]),
//! 4. walks the jobs in priority order and gives each one
//!    `ξ_i(l) = g_i(l) − σ_i(l)` *extra* machines (never taking machines away
//!    from a job that currently holds more than its share — the allocation is
//!    non-preemptive), clipped to the machines actually available, and
//! 5. inside a job, launches unscheduled **map** tasks first; reduce tasks are
//!    only launched once the Map phase has completed. When a job receives
//!    more machines than it has unscheduled tasks, the surplus is spent on
//!    **clones**: every unscheduled task of the phase receives
//!    `⌊extra/tasks⌋` copies (the first `extra mod tasks` tasks one more), so
//!    the allocated share is fully used. When machines are scarcer than
//!    tasks, one copy each is launched for as many tasks as fit.
//!
//! Setting `ε = 1` makes the scheduler behave like Hadoop's (weighted) fair
//! scheduler, `ε → 0` approaches pure SRPT; `ε ≈ 0.6` is the sweet spot in
//! the paper's evaluation (Fig. 1). Cloning can be disabled for ablations.

use crate::sharing::{epsilon_fraction_shares_prefix_into, MachineShare};
use mapreduce_sim::{Action, ClusterState, JobState, Scheduler};
use mapreduce_workload::TaskId;

/// Configuration of the SRPTMS+C scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrptMsCConfig {
    /// The sharing fraction `ε ∈ (0, 1]` of Section V-A.
    pub epsilon: f64,
    /// The pessimism factor `r ≥ 0` multiplying the standard deviation in the
    /// effective workload (Equations (2) and (4)).
    pub r: f64,
    /// Whether surplus machines are spent on clones (Algorithm 2's behaviour).
    /// Disabling this yields the "machine sharing only" ablation.
    pub cloning: bool,
    /// Whether machines left over after the ε-fraction pass are backfilled
    /// with unscheduled tasks of the remaining (lower-priority) alive jobs,
    /// one copy each, in priority order.
    ///
    /// The paper's pseudo-code only hands machines to jobs with a positive
    /// share `g_i(l) > 0`, which taken literally lets machines idle while the
    /// lowest-priority jobs starve; at the same time the paper states that
    /// `ε = 1` "reduces to the fair scheduler in Hadoop", which is
    /// work-conserving. This flag resolves that ambiguity in favour of work
    /// conservation (the default); setting it to `false` gives the literal,
    /// non-work-conserving reading, kept for the ablation experiment.
    /// Backfilled jobs never receive clones — cloning remains the privilege
    /// of the ε-fraction share.
    pub work_conserving: bool,
    /// Upper bound on the number of copies requested per task in a single
    /// decision. The paper's formula `⌊(g_i−σ_i)/c_i⌋` can assign arbitrarily
    /// many clones when few jobs are alive (a lone job's share is the whole
    /// cluster), but the concave speedup `s(x)` has essentially no marginal
    /// gain beyond a handful of copies (for the Pareto model with α = 2 the
    /// eighth copy buys < 2 %), so additional clones only burn machines that
    /// non-preemption then withholds from later arrivals. The default cap of
    /// 8 keeps the algorithm's behaviour at small alive-job counts consistent
    /// with its behaviour in the paper's 12 000-machine regime; see DESIGN.md.
    pub max_copies_per_task: usize,
}

impl SrptMsCConfig {
    /// Creates a configuration with the given `ε` and `r` and default
    /// settings otherwise.
    ///
    /// # Panics
    /// Panics if `epsilon` is not in `(0, 1]` or `r` is negative/not finite.
    pub fn new(epsilon: f64, r: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        assert!(
            r.is_finite() && r >= 0.0,
            "r must be a non-negative finite number, got {r}"
        );
        SrptMsCConfig {
            epsilon,
            r,
            cloning: true,
            work_conserving: true,
            max_copies_per_task: 8,
        }
    }

    /// Disables (or re-enables) cloning.
    pub fn with_cloning(mut self, cloning: bool) -> Self {
        self.cloning = cloning;
        self
    }

    /// Disables (or re-enables) the work-conserving backfill pass (see
    /// [`SrptMsCConfig::work_conserving`]).
    pub fn with_work_conserving(mut self, work_conserving: bool) -> Self {
        self.work_conserving = work_conserving;
        self
    }

    /// Sets the per-task copy cap.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn with_max_copies_per_task(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "copy cap must be at least 1");
        self.max_copies_per_task = cap;
        self
    }
}

impl Default for SrptMsCConfig {
    /// The configuration the paper settles on after Figs. 1–2: `ε = 0.6`,
    /// `r = 3`.
    fn default() -> Self {
        SrptMsCConfig::new(0.6, 3.0)
    }
}

/// The SRPTMS+C online scheduler (Algorithm 2).
///
/// The decision path is incremental: when run by the engine, the candidate
/// jobs arrive pre-ranked by `w_i / U_i(l)` (maintained across events via
/// [`Scheduler::priority_r`] — no per-wakeup sort), unscheduled tasks are
/// enumerated from the per-phase free-lists, and the ranked/share/launch
/// scratch buffers are reused across decisions.
#[derive(Debug, Clone)]
pub struct SrptMsC {
    config: SrptMsCConfig,
    name: String,
    /// Scratch: the ε-fraction shares, one per candidate.
    shares: Vec<MachineShare>,
    /// Scratch: the rounding's eligible-remainder working set.
    round_scratch: Vec<(f64, usize)>,
    /// Scratch: per candidate, how many unscheduled tasks (a *prefix* of the
    /// job's free-list — the ε-pass launches in free-list order) were
    /// launched this decision, so the backfill pass resumes after them
    /// without any per-task membership checks.
    launched_prefix: Vec<usize>,
}

impl SrptMsC {
    /// Creates the scheduler with the given `ε` and `r`.
    ///
    /// # Panics
    /// Panics if the parameters are invalid (see [`SrptMsCConfig::new`]).
    pub fn new(epsilon: f64, r: f64) -> Self {
        Self::with_config(SrptMsCConfig::new(epsilon, r))
    }

    /// Creates the scheduler from a full configuration.
    pub fn with_config(config: SrptMsCConfig) -> Self {
        let name = if config.cloning {
            format!("srptms+c(eps={},r={})", config.epsilon, config.r)
        } else {
            format!("srptms(eps={},r={})", config.epsilon, config.r)
        };
        SrptMsC {
            config,
            name,
            shares: Vec::new(),
            round_scratch: Vec::new(),
            launched_prefix: Vec::new(),
        }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &SrptMsCConfig {
        &self.config
    }

    /// Decides how to spend `machines` newly granted machines on one job:
    /// the task-scheduling procedure of Algorithm 2. Appends the launch
    /// actions and returns `(machines used, unscheduled tasks launched)` —
    /// the launched tasks are always a prefix of the job's unscheduled
    /// free-list, which is what lets the backfill pass skip them in `O(1)`.
    fn schedule_tasks_for_job(
        config: &SrptMsCConfig,
        job: &JobState,
        machines: usize,
        actions: &mut Vec<Action>,
    ) -> (usize, usize) {
        if machines == 0 {
            return (0, 0);
        }
        let Some((phase, unscheduled)) = job.launchable() else {
            return (0, 0);
        };
        let count = unscheduled.len();

        let mut used = 0usize;
        let tasks_launched;
        if machines <= count || !config.cloning {
            // Scarce machines (or cloning disabled): one copy each for as many
            // tasks as we can fit.
            tasks_launched = machines.min(count);
            for &index in unscheduled.iter().take(machines) {
                let task = TaskId::new(job.id(), phase, index);
                actions.push(Action::Launch { task, copies: 1 });
                used += 1;
            }
        } else {
            // Surplus machines: clone every unscheduled task so the whole
            // share is used. Task k gets floor(machines/count) copies, plus
            // one more for the first (machines mod count) tasks.
            tasks_launched = count;
            let base = machines / count;
            let extra = machines % count;
            for (k, &index) in unscheduled.iter().enumerate() {
                let copies = (base + usize::from(k < extra)).min(config.max_copies_per_task);
                if copies > 0 {
                    let task = TaskId::new(job.id(), phase, index);
                    actions.push(Action::Launch { task, copies });
                    used += copies;
                }
            }
        }
        (used, tasks_launched)
    }
}

impl Default for SrptMsC {
    fn default() -> Self {
        SrptMsC::with_config(SrptMsCConfig::default())
    }
}

impl Scheduler for SrptMsC {
    fn name(&self) -> &str {
        &self.name
    }

    fn priority_r(&self) -> Option<f64> {
        Some(self.config.r)
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let mut available = state.available_machines();
        if available == 0 {
            return;
        }
        // Launchable tasks not yet launched this decision. The ε-pass and
        // the backfill only ever launch launchable unscheduled tasks, so with
        // none anywhere no action can follow: return before ranking anything
        // (an `O(1)` read). Counting launches against the aggregate below
        // tells both passes when nothing launchable remains.
        let mut launchable_left = state.total_launchable_tasks();
        if launchable_left == 0 {
            return;
        }

        // ψ^s(l): alive jobs that still have unscheduled tasks, ranked by
        // decreasing w_i / U_i(l), ties by id. The snapshot carries the
        // order as a demand-gated view, so only the prefix the passes below
        // actually read is walked.
        let entries = state.ranked_entries();
        let candidate = |i: usize| state.job_at(entries.entry(i));
        let num_candidates = entries.len();
        if num_candidates == 0 {
            return;
        }

        // Prefix-truncated walk: the ε-fraction rule zeroes every share past
        // the `(1−ε)·W(l)` cumulative-weight boundary, so only the jobs
        // inside the boundary are pulled from the ranked order — `O(prefix)`
        // job derefs instead of `O(alive)`. `W(l)` is the engine's
        // incrementally maintained unscheduled-weight aggregate (exact for
        // the integer-valued job weights every committed workload uses,
        // hence bit-identical to a ranked-order fold of the weights).
        let config = self.config;
        epsilon_fraction_shares_prefix_into(
            entries.iter().map(|idx| {
                let job = state.job_at(idx);
                (job.id(), job.weight())
            }),
            state.total_unscheduled_weight(),
            state.total_machines(),
            config.epsilon,
            &mut self.shares,
            &mut self.round_scratch,
        );
        state.note_ranked_prefix(self.shares.len());

        self.launched_prefix.clear();
        self.launched_prefix.resize(self.shares.len(), 0);
        for (i, share) in self.shares.iter().enumerate() {
            let job = candidate(i);
            if available == 0 {
                break;
            }
            if share.machines == 0 {
                // Shares follow priority order, so the first job outside the
                // ε-fraction (fractional share exactly zero) ends the pass:
                // every later job is outside it too.
                if share.fractional == 0.0 {
                    break;
                }
                continue;
            }
            // σ_i(l): machines the job already holds (running copies of its
            // tasks, clones included). The allocation is non-preemptive: if
            // the job holds more than its share we simply give it nothing new.
            let sigma = job.active_copies();
            let xi = share.machines.saturating_sub(sigma);
            if xi == 0 {
                continue;
            }
            let grant = xi.min(available);
            let (used, tasks_launched) = Self::schedule_tasks_for_job(&config, job, grant, actions);
            available -= used;
            launchable_left = launchable_left.saturating_sub(tasks_launched);
            self.launched_prefix[i] = tasks_launched;
        }

        // Work-conserving backfill: machines the ε-fraction could not use go
        // to the remaining unscheduled tasks, one copy each, in priority
        // order (no cloning outside the ε-fraction share). The ε-pass
        // launched a prefix of each job's free-list, so the backfill resumes
        // right after it — no per-task membership checks.
        if config.work_conserving && available > 0 {
            // `launched_prefix` only covers the ε-fraction prefix; every
            // candidate past it got nothing in the ε-pass (skip = 0). Both
            // early exits are action-neutral: with no launchable task left,
            // every remaining candidate's `unscheduled[skip..]` launchable
            // slice is empty, and with no machine left no launch can follow —
            // the old code kept scanning only to discover the same, which
            // would force the demand-gated order to materialise in full.
            'backfill: for i in 0..num_candidates {
                if launchable_left == 0 || available == 0 {
                    break;
                }
                let skip = self.launched_prefix.get(i).copied().unwrap_or(0);
                let job = candidate(i);
                let Some((phase, unscheduled)) = job.launchable() else {
                    continue;
                };
                if skip >= unscheduled.len() {
                    continue;
                }
                for &index in &unscheduled[skip..] {
                    if available == 0 {
                        break 'backfill;
                    }
                    actions.push(Action::Launch {
                        task: TaskId::new(job.id(), phase, index),
                        copies: 1,
                    });
                    available -= 1;
                    launchable_left -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::{SimConfig, Simulation};
    use mapreduce_workload::{
        DurationDistribution, JobId, JobSpecBuilder, PhaseStats, Trace, WorkloadBuilder,
    };

    fn run(trace: &Trace, machines: usize, scheduler: &mut SrptMsC) -> mapreduce_sim::SimOutcome {
        Simulation::new(SimConfig::new(machines).with_seed(11), trace)
            .run(scheduler)
            .unwrap()
    }

    #[test]
    fn completes_every_job() {
        let trace = WorkloadBuilder::new()
            .num_jobs(40)
            .arrivals(mapreduce_workload::ArrivalProcess::Poisson {
                mean_interarrival: 20.0,
            })
            .map_tasks_per_job(2, 8)
            .reduce_tasks_per_job(1, 3)
            .weights(&[1.0, 2.0, 6.0])
            .build(1);
        let outcome = run(&trace, 16, &mut SrptMsC::new(0.6, 3.0));
        assert_eq!(outcome.records().len(), 40);
        assert!(outcome.records().iter().all(|r| r.completion >= r.arrival));
    }

    #[test]
    fn clones_are_made_when_machines_are_plentiful() {
        // One small job alone in a big cluster: its tasks should be cloned.
        let job = JobSpecBuilder::new(JobId::new(0))
            .weight(1.0)
            .map_tasks_from_workloads(&[100.0, 100.0])
            .map_stats(PhaseStats::new(100.0, 30.0))
            .map_distribution(DurationDistribution::lognormal_from_moments(100.0, 30.0).unwrap())
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        let outcome = run(&trace, 10, &mut SrptMsC::new(0.6, 3.0));
        // 2 tasks, 10 machines → the scheduler should have launched clones.
        assert!(
            outcome.total_copies > 2,
            "expected clones, got {}",
            outcome.total_copies
        );
        assert!(outcome.mean_copies_per_task() > 1.0);
    }

    #[test]
    fn cloning_can_be_disabled() {
        let job = JobSpecBuilder::new(JobId::new(0))
            .weight(1.0)
            .map_tasks_from_workloads(&[100.0, 100.0])
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        let cfg = SrptMsCConfig::new(0.6, 3.0).with_cloning(false);
        let outcome = run(&trace, 10, &mut SrptMsC::with_config(cfg));
        assert_eq!(outcome.total_copies, 2);
    }

    /// [`SrptMsC`] plus the widest `Launch` it ever requested.
    struct WidestLaunch {
        inner: SrptMsC,
        widest: usize,
    }

    impl Scheduler for WidestLaunch {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn priority_r(&self) -> Option<f64> {
            self.inner.priority_r()
        }

        fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
            let start = actions.len();
            self.inner.schedule_into(state, actions);
            for action in &actions[start..] {
                if let Action::Launch { copies, .. } = *action {
                    self.widest = self.widest.max(copies);
                }
            }
        }
    }

    #[test]
    fn clone_cap_bounds_every_launch() {
        // A lone two-task job on 64 machines: its share is the whole
        // cluster, 32 machines per task, so only the cap limits the clones.
        let job = JobSpecBuilder::new(JobId::new(0))
            .weight(1.0)
            .map_tasks_from_workloads(&[100.0, 100.0])
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        for cap in [1, 2, 8] {
            let config = SrptMsCConfig::new(0.6, 3.0).with_max_copies_per_task(cap);
            let mut scheduler = WidestLaunch {
                inner: SrptMsC::with_config(config),
                widest: 0,
            };
            let outcome = Simulation::new(SimConfig::new(64).with_seed(11), &trace)
                .run(&mut scheduler)
                .unwrap();
            assert_eq!(scheduler.widest, cap, "cap {cap}");
            assert_eq!(outcome.total_copies, 2 * cap, "cap {cap}");
        }
    }

    #[test]
    fn a_clone_cap_of_one_matches_disabled_cloning() {
        // Both launch one copy per launchable task, so the action lists, and
        // with them the trajectories, are identical.
        let trace = WorkloadBuilder::new()
            .num_jobs(30)
            .map_tasks_per_job(2, 6)
            .reduce_tasks_per_job(1, 2)
            .build(8);
        let capped = run(
            &trace,
            40,
            &mut SrptMsC::with_config(SrptMsCConfig::new(0.6, 3.0).with_max_copies_per_task(1)),
        );
        let uncloned = run(
            &trace,
            40,
            &mut SrptMsC::with_config(SrptMsCConfig::new(0.6, 3.0).with_cloning(false)),
        );
        assert_eq!(capped.records(), uncloned.records());
        assert_eq!(capped.total_copies, uncloned.total_copies);
        assert_eq!(capped.busy_machine_slots, uncloned.busy_machine_slots);
        // Not vacuous: the default cap clones on this trace.
        let cloned = run(&trace, 40, &mut SrptMsC::new(0.6, 3.0));
        assert!(cloned.total_copies > capped.total_copies);
    }

    #[test]
    fn cloning_reduces_flowtime_under_heavy_tailed_durations() {
        // Heavy-tailed tasks with resampled clones: SRPTMS+C should beat its
        // no-cloning ablation on mean flowtime. Shape 2.2 keeps the variance
        // finite so the scheduler-visible PhaseStats are well defined.
        let dist = DurationDistribution::pareto_from_mean(100.0, 2.2).unwrap();
        let mut jobs = Vec::new();
        use mapreduce_support::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(99);
        for i in 0..15 {
            let workloads = dist.sample_n(&mut rng, 3);
            jobs.push(
                JobSpecBuilder::new(JobId::new(i))
                    .weight(1.0)
                    .arrival(i * 40)
                    .map_tasks_from_workloads(&workloads)
                    .map_stats(PhaseStats::new(dist.mean(), dist.std_dev()))
                    .map_distribution(dist.clone())
                    .build(),
            );
        }
        let trace = Trace::new(jobs).unwrap();

        let with_clones = run(&trace, 24, &mut SrptMsC::new(0.6, 3.0));
        let without = run(
            &trace,
            24,
            &mut SrptMsC::with_config(SrptMsCConfig::new(0.6, 3.0).with_cloning(false)),
        );
        assert!(
            with_clones.mean_flowtime() <= without.mean_flowtime(),
            "cloning should not hurt: {} vs {}",
            with_clones.mean_flowtime(),
            without.mean_flowtime()
        );
    }

    #[test]
    fn reduce_tasks_wait_for_map_phase() {
        // A job with one long map task and one reduce task: the reduce task
        // must not be scheduled until the map task finished, so no machine is
        // wasted holding it (SRPTMS+C behaviour per Section V-B).
        let job = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[50.0])
            .reduce_tasks_from_workloads(&[10.0])
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        let outcome = run(&trace, 4, &mut SrptMsC::new(1.0, 0.0));
        let record = outcome.record(JobId::new(0)).unwrap();
        assert_eq!(record.completion, 60);
    }

    #[test]
    fn small_jobs_jump_ahead_of_large_jobs_once_machines_free_up() {
        // A huge job saturates the cluster; a tiny job arrives later. The
        // allocation is non-preemptive, so the tiny job has to wait for the
        // first batch of huge tasks to finish — but as soon as machines free
        // up (slot 200) the tiny job's far higher w/U priority wins them, so
        // it completes right after that and far ahead of the huge job.
        let huge = JobSpecBuilder::new(JobId::new(0))
            .weight(1.0)
            .arrival(0)
            .map_tasks_from_workloads(&[200.0; 12])
            .build();
        let tiny = JobSpecBuilder::new(JobId::new(1))
            .weight(1.0)
            .arrival(10)
            .map_tasks_from_workloads(&[5.0])
            .build();
        let trace = Trace::new(vec![huge, tiny]).unwrap();
        let outcome = run(&trace, 4, &mut SrptMsC::new(0.6, 0.0));
        let tiny_rec = outcome.record(JobId::new(1)).unwrap();
        let huge_rec = outcome.record(JobId::new(0)).unwrap();
        assert!(
            tiny_rec.completion <= 210,
            "tiny job should complete right after the first wave, got {}",
            tiny_rec.completion
        );
        assert!(huge_rec.flowtime() > tiny_rec.flowtime());

        // If both jobs are present from the start, the tiny job's higher
        // priority wins it a machine immediately and it finishes right away.
        let together = Trace::new(vec![
            JobSpecBuilder::new(JobId::new(0))
                .weight(1.0)
                .map_tasks_from_workloads(&[200.0; 12])
                .build(),
            JobSpecBuilder::new(JobId::new(1))
                .weight(1.0)
                .map_tasks_from_workloads(&[5.0])
                .build(),
        ])
        .unwrap();
        let both = run(&together, 4, &mut SrptMsC::new(0.6, 0.0));
        assert!(both.record(JobId::new(1)).unwrap().flowtime() <= 5);
    }

    #[test]
    fn epsilon_one_behaves_like_fair_sharing() {
        let trace = WorkloadBuilder::new()
            .num_jobs(10)
            .map_tasks_per_job(2, 4)
            .build(7);
        let outcome = run(&trace, 8, &mut SrptMsC::new(1.0, 0.0));
        assert_eq!(outcome.records().len(), 10);
    }

    #[test]
    fn config_validation() {
        assert!(std::panic::catch_unwind(|| SrptMsCConfig::new(0.0, 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| SrptMsCConfig::new(1.5, 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| SrptMsCConfig::new(0.5, -1.0)).is_err());
        assert!(std::panic::catch_unwind(
            || SrptMsCConfig::new(0.5, 1.0).with_max_copies_per_task(0)
        )
        .is_err());
        let cfg = SrptMsCConfig::default();
        assert_eq!(cfg.epsilon, 0.6);
        assert_eq!(cfg.r, 3.0);
        assert!(cfg.cloning);
    }

    #[test]
    fn name_reflects_configuration() {
        assert!(SrptMsC::new(0.6, 3.0).name().contains("srptms+c"));
        let no_clone = SrptMsC::with_config(SrptMsCConfig::new(0.5, 1.0).with_cloning(false));
        assert!(!no_clone.name().contains("+c"));
        assert_eq!(SrptMsC::default().config().epsilon, 0.6);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = WorkloadBuilder::new().num_jobs(20).build(3);
        let a = run(&trace, 8, &mut SrptMsC::new(0.6, 3.0));
        let b = run(&trace, 8, &mut SrptMsC::new(0.6, 3.0));
        assert_eq!(a, b);
    }
}
