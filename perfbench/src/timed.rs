//! Timing delegates around the public traits the engine calls through, and
//! the per-layer accumulator of the traced run.
//!
//! The program itself carries no tracing: every span is taken here, in the
//! benchmark, around a call into a crate's public API.

use mapreduce_experiments::SchedulerKind;
use mapreduce_sim::{Action, ClusterState, IndexDemands, Scheduler, Slot};
use mapreduce_workload::{JobId, JobSource, JobSpec, TaskId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Runs `f`, adding its wall time to `*ns`.
pub fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *ns += ns_since(start);
    value
}

/// What a [`TimedScheduler`] measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedulerTimes {
    /// Wall time inside `schedule`/`schedule_into`.
    pub schedule_ns: u64,
    /// Decision calls.
    pub calls: u64,
    /// Actions the decision calls returned.
    pub actions: u64,
    /// Wall time inside the arrival, finish and unlaunch hooks.
    pub hook_ns: u64,
}

/// A [`Scheduler`] that forwards every call to `inner` and times the
/// decision calls and the event hooks. It forwards the index demands, the
/// priority exponent and the wakeup interval unchanged, so the engine runs
/// the same trajectory as with `inner` alone.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    /// Measurements so far.
    pub times: SchedulerTimes,
}

impl TimedScheduler {
    /// Wraps a fresh scheduler.
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        TimedScheduler {
            inner,
            times: SchedulerTimes::default(),
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action> {
        let start = Instant::now();
        let actions = self.inner.schedule(state);
        self.times.schedule_ns += ns_since(start);
        self.times.calls += 1;
        self.times.actions += actions.len() as u64;
        actions
    }

    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        let before = actions.len();
        let start = Instant::now();
        self.inner.schedule_into(state, actions);
        self.times.schedule_ns += ns_since(start);
        self.times.calls += 1;
        self.times.actions += (actions.len() - before) as u64;
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
        timed(&mut self.times.hook_ns, || {
            self.inner.on_job_arrival(job, state)
        });
    }

    fn on_task_finished(&mut self, task: TaskId, state: &ClusterState<'_>) {
        timed(&mut self.times.hook_ns, || {
            self.inner.on_task_finished(task, state)
        });
    }

    fn on_task_unlaunched(&mut self, task: TaskId, state: &ClusterState<'_>) {
        timed(&mut self.times.hook_ns, || {
            self.inner.on_task_unlaunched(task, state)
        });
    }
}

/// What a [`TimedSource`] measured. Shared with the caller because the
/// engine owns (and drops) the source.
#[derive(Debug, Default)]
pub struct SourceTimes {
    next_job_ns: AtomicU64,
    jobs: AtomicU64,
}

impl SourceTimes {
    /// Wall time inside `next_job`.
    pub fn next_job_ns(&self) -> u64 {
        self.next_job_ns.load(Ordering::Relaxed)
    }

    /// Jobs yielded.
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }
}

/// A [`JobSource`] that forwards to `inner` and times `next_job`.
pub struct TimedSource {
    inner: Box<dyn JobSource>,
    times: Arc<SourceTimes>,
}

impl TimedSource {
    /// Wraps `inner`; the returned handle reads the measurements after the
    /// engine has consumed the source.
    pub fn wrap(inner: Box<dyn JobSource>) -> (Box<dyn JobSource>, Arc<SourceTimes>) {
        let times = Arc::new(SourceTimes::default());
        let source = TimedSource {
            inner,
            times: Arc::clone(&times),
        };
        (Box::new(source), times)
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
        let start = Instant::now();
        let job = self.inner.next_job();
        self.times
            .next_job_ns
            .fetch_add(ns_since(start), Ordering::Relaxed);
        if job.is_some() {
            self.times.jobs.fetch_add(1, Ordering::Relaxed);
        }
        job
    }

    fn resident_jobs(&self) -> usize {
        self.inner.resident_jobs()
    }
}

/// The `schedule_ns`, `schedule_calls` and `hook_ns` metric names of a
/// scheduler's layer: the paper's algorithm lives in the `core` crate, the
/// comparison schedulers in `baselines`.
fn scheduler_metrics(kind: SchedulerKind) -> [&'static str; 3] {
    match kind {
        SchedulerKind::SrptMsC { .. } => {
            ["core.schedule_ns", "core.schedule_calls", "core.hook_ns"]
        }
        SchedulerKind::Fifo => [
            "baselines.fifo.schedule_ns",
            "baselines.fifo.schedule_calls",
            "baselines.fifo.hook_ns",
        ],
        SchedulerKind::Sca => [
            "baselines.sca.schedule_ns",
            "baselines.sca.schedule_calls",
            "baselines.sca.hook_ns",
        ],
        SchedulerKind::Mantri => [
            "baselines.mantri.schedule_ns",
            "baselines.mantri.schedule_calls",
            "baselines.mantri.hook_ns",
        ],
        other => panic!("the benchmark runs no {} workload", other.label()),
    }
}

/// Sums of per-layer measurements, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds `value` to metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    /// Sets metric `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value of metric `name` (0 if nothing was recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Folds every metric of `other` into this one.
    pub fn merge(&mut self, other: &Layers) {
        for (&name, &value) in &other.values {
            self.add(name, value);
        }
    }

    /// Divides every metric by `n` (totals over `n` passes → per pass).
    pub fn scale(&mut self, n: f64) {
        for value in self.values.values_mut() {
            *value /= n;
        }
    }

    /// Files one wrapped scheduler's measurements under its layer.
    pub fn add_scheduler(&mut self, kind: SchedulerKind, times: &SchedulerTimes) {
        let [schedule_ns, calls, hook_ns] = scheduler_metrics(kind);
        self.add(schedule_ns, times.schedule_ns as f64);
        self.add(calls, times.calls as f64);
        self.add(hook_ns, times.hook_ns as f64);
        if matches!(kind, SchedulerKind::SrptMsC { .. }) {
            self.add("core.actions", times.actions as f64);
        }
    }

    /// Files one wrapped source's measurements.
    pub fn add_source(&mut self, times: &SourceTimes) {
        self.add("workload.next_job_ns", times.next_job_ns() as f64);
        self.add("workload.jobs", times.jobs() as f64);
    }

    /// Sum of the named metrics.
    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|name| self.get(name)).sum()
    }
}
