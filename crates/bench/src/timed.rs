//! Wall-clock layers of a simulation, measured from outside the engine.
//!
//! The engine carries no clock: its outcome and telemetry are deterministic
//! facts of the run. To see where a run's time goes, the benches wrap the two
//! public traits the engine calls through — [`Scheduler`] and [`JobSource`]
//! — in timing delegates and subtract what they measured from the run's wall
//! clock. The result is a [`LayerSplit`] whose four parts sum to the wall
//! clock by construction:
//!
//! * `source_ns` — inside [`JobSource::next_job`] (workload synthesis);
//! * `schedule_ns` — inside [`Scheduler::schedule`] /
//!   [`Scheduler::schedule_into`] (the decision proper);
//! * `hook_ns` — inside the arrival, finish and unlaunch hooks;
//! * `engine_self_ns` — everything else: event queue, action application,
//!   index maintenance and record capture.
//!
//! The delegates forward every other trait method unchanged, so a wrapped run
//! follows the bare run's trajectory bit for bit (pinned by the tests below).

use mapreduce_sim::{
    Action, ClusterState, IndexDemands, Scheduler, SimConfig, SimError, SimOutcome, Simulation,
    Slot,
};
use mapreduce_workload::{JobId, JobSource, JobSpec, TaskId};
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

/// Runs `f`, adding its wall time to `*ns`.
fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *ns += start.elapsed().as_nanos() as u64;
    value
}

/// A [`Scheduler`] that forwards every call to `inner`, timing the decision
/// calls and the event hooks.
pub struct TimedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    /// Wall time inside `schedule`/`schedule_into`.
    pub schedule_ns: u64,
    /// Wall time inside the arrival, finish and unlaunch hooks.
    pub hook_ns: u64,
}

impl<'a> TimedScheduler<'a> {
    /// Wraps `inner` with zeroed timers.
    pub fn new(inner: &'a mut dyn Scheduler) -> Self {
        TimedScheduler {
            inner,
            schedule_ns: 0,
            hook_ns: 0,
        }
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        timed(&mut self.schedule_ns, || self.inner.schedule(state))
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        timed(&mut self.schedule_ns, || {
            self.inner.schedule_into(state, actions)
        });
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
        timed(&mut self.hook_ns, || self.inner.on_job_arrival(job, state));
    }

    fn on_task_finished(&mut self, task: TaskId, state: &ClusterState<'_>) {
        timed(&mut self.hook_ns, || {
            self.inner.on_task_finished(task, state)
        });
    }

    fn on_task_unlaunched(&mut self, task: TaskId, state: &ClusterState<'_>) {
        timed(&mut self.hook_ns, || {
            self.inner.on_task_unlaunched(task, state)
        });
    }
}

/// A [`JobSource`] that forwards to `inner` and times `next_job`. The engine
/// owns (and drops) its source, so the measurement lives in a shared cell
/// the caller keeps.
pub struct TimedSource {
    inner: Box<dyn JobSource>,
    next_job_ns: Rc<Cell<u64>>,
}

impl TimedSource {
    /// Wraps `inner`; the returned cell reads the time spent in `next_job`
    /// once the engine has consumed the source.
    pub fn wrap(inner: Box<dyn JobSource>) -> (Box<dyn JobSource>, Rc<Cell<u64>>) {
        let next_job_ns = Rc::new(Cell::new(0));
        let source = TimedSource {
            inner,
            next_job_ns: Rc::clone(&next_job_ns),
        };
        (Box::new(source), next_job_ns)
    }
}

impl JobSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn total_jobs(&self) -> usize {
        self.inner.total_jobs()
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        let mut ns = self.next_job_ns.get();
        let job = timed(&mut ns, || self.inner.next_job());
        self.next_job_ns.set(ns);
        job
    }

    fn resident_jobs(&self) -> usize {
        self.inner.resident_jobs()
    }
}

/// Where one run's wall clock went (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerSplit {
    /// Wall clock of the whole `Simulation::run` call.
    pub elapsed_ns: u64,
    /// Time inside the job source.
    pub source_ns: u64,
    /// Time inside the scheduler's decision calls.
    pub schedule_ns: u64,
    /// Time inside the scheduler's event hooks.
    pub hook_ns: u64,
}

impl LayerSplit {
    /// The engine's own share: wall clock minus the three wrapped layers.
    pub fn engine_self_ns(&self) -> u64 {
        self.elapsed_ns
            .saturating_sub(self.source_ns + self.schedule_ns + self.hook_ns)
    }
}

impl fmt::Display for LayerSplit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = |ns: u64| ns as f64 / 1e9;
        write!(
            f,
            "wall {:.3}s = source {:.3}s + schedule {:.3}s + hook {:.3}s + engine {:.3}s",
            s(self.elapsed_ns),
            s(self.source_ns),
            s(self.schedule_ns),
            s(self.hook_ns),
            s(self.engine_self_ns()),
        )
    }
}

/// Runs one simulation with `scheduler` and `source` wrapped in the timing
/// delegates, returning its outcome and wall-clock split.
///
/// # Errors
/// Whatever [`Simulation::run`] returns.
pub fn run_timed(
    config: SimConfig,
    source: Box<dyn JobSource>,
    scheduler: &mut dyn Scheduler,
) -> Result<(SimOutcome, LayerSplit), SimError> {
    let (source, source_ns) = TimedSource::wrap(source);
    let mut scheduler = TimedScheduler::new(scheduler);
    let start = Instant::now();
    let outcome = Simulation::from_source(config, source).run(&mut scheduler)?;
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let split = LayerSplit {
        elapsed_ns,
        source_ns: source_ns.get(),
        schedule_ns: scheduler.schedule_ns,
        hook_ns: scheduler.hook_ns,
    };
    Ok((outcome, split))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_experiments::SchedulerKind;
    use mapreduce_sim::{FaultClass, FaultPlan, StragglerModel};
    use mapreduce_workload::{MaterializedSource, WorkloadBuilder};

    fn config() -> SimConfig {
        let stragglers = StragglerModel::MachineSlowdown {
            probability: 0.2,
            factor: 5.0,
        };
        SimConfig::new(12)
            .with_seed(7)
            .with_straggler_model(stragglers)
    }

    /// Runs `kind` bare and wrapped; both runs must agree bit for bit,
    /// telemetry included, and the wrapped layers must fit in the wall clock.
    /// The declarative methods are also compared directly: a dropped
    /// `priority_r` makes `ClusterState::ranked_entries` panic, and the
    /// comparison names the dropped method where an outcome diff would not.
    fn assert_transparent(kind: SchedulerKind, config: SimConfig) -> SimOutcome {
        let declared = |s: &dyn Scheduler| {
            let name = s.name().to_string();
            (name, s.wakeup_interval(), s.index_demands(), s.priority_r())
        };
        let mut inner = kind.build();
        let expected = declared(inner.as_ref());
        assert_eq!(declared(&TimedScheduler::new(inner.as_mut())), expected);

        let trace = WorkloadBuilder::new().num_jobs(30).build(7);
        let bare = Simulation::new(config.clone(), &trace)
            .run(kind.build().as_mut())
            .unwrap();
        let source = Box::new(MaterializedSource::from_trace(&trace));
        let (wrapped, split) = run_timed(config, source, kind.build().as_mut()).unwrap();
        assert_eq!(
            bare, wrapped,
            "{}: the delegates moved the run",
            bare.scheduler
        );
        assert_eq!(bare.telemetry, wrapped.telemetry, "{}", bare.scheduler);
        assert!(
            split.schedule_ns > 0,
            "{}: decisions untimed",
            bare.scheduler
        );
        assert!(split.source_ns + split.schedule_ns + split.hook_ns <= split.elapsed_ns);
        bare
    }

    #[test]
    fn fifo_is_unchanged_by_the_delegates() {
        assert_transparent(SchedulerKind::Fifo, config());
    }

    #[test]
    fn srptmsc_priority_index_is_forwarded() {
        assert_transparent(SchedulerKind::paper_default(), config());
    }

    #[test]
    fn mantri_wakeups_and_index_demands_are_forwarded() {
        assert_transparent(SchedulerKind::Mantri, config());
    }

    #[test]
    fn unlaunch_hook_is_forwarded_under_crashes() {
        let plan = FaultPlan::new(vec![FaultClass::crashes(8, 300.0, 60.0)]);
        let crashed = assert_transparent(SchedulerKind::Fifo, config().with_fault_plan(plan));
        assert!(
            crashed.copies_killed_by_fault > 0,
            "the plan never hit a copy"
        );
    }
}
