//! Deterministic run telemetry: the [`SimObserver`] lifecycle-event seam.
//!
//! The engine reports every state transition of a run — job arrivals and
//! completions, copy launches/cancellations/finishes, fault-driven task
//! unlaunches, machine down/up epochs and per-decision-instant summaries —
//! through the [`SimObserver`] trait. The run loop is **monomorphized** over
//! the observer type: [`crate::Simulation::run`] instantiates it with
//! [`NoopObserver`], whose empty inline methods compile away entirely, so a
//! run without an observer executes the exact pre-telemetry engine (the
//! golden proptests in `tests/tests/telemetry_equivalence.rs` pin the
//! outcome bit-for-bit, and the `engine_fullscale` bench-guard entry gates
//! the timing). Attaching an observer never changes the trajectory either:
//! observers receive `&`-shaped facts after the engine has already applied
//! the transition, and nothing they do can feed back into the run.
//!
//! Events are *typed structs*, not format strings, so consumers fold them at
//! counter cost: `mapreduce-metrics` provides a shard-mergeable
//! counter/histogram registry observer (`SimTelemetry`) and a bounded
//! Chrome-trace-event exporter (`TraceRecorder`, viewable in Perfetto).
//! Observers compose through the tuple impl: `(&mut a, &mut b)` dispatches
//! every event to both.
//!
//! All quantities are deterministic simulation facts (slots, ids, counts);
//! no event carries a host clock reading, so an observed run reproduces bit
//! for bit. Wall-clock cost is measured from outside, by wrapping the
//! scheduler and the job source.

use crate::copy::CopyId;
use crate::result::JobRecord;
use crate::state::Slot;
use mapreduce_workload::{JobId, TaskId};

/// Why a copy left its machine without finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// A sibling copy of the same task finished first (first-copy-wins).
    SiblingFinished,
    /// The scheduler issued an [`crate::Action::CancelCopies`].
    Scheduler,
    /// The machine hosting the copy crashed (fault injection).
    Fault,
}

/// A copy started occupying a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyLaunched {
    /// Decision instant of the launch.
    pub at: Slot,
    /// Arena id of the copy.
    pub copy: CopyId,
    /// The task the copy executes.
    pub task: TaskId,
    /// `false` for the task's first attempt, `true` for clones/backups.
    pub clone: bool,
    /// Predicted finish slot; `None` for early-launched reduce copies still
    /// waiting on their job's Map phase.
    pub expected_finish: Option<Slot>,
}

/// A copy finished and won its task (first-copy-wins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyFinished {
    /// Completion slot.
    pub at: Slot,
    /// Arena id of the winning copy.
    pub copy: CopyId,
    /// The task that just completed.
    pub task: TaskId,
    /// Slot the winning copy was launched at (`at - launched_at` is the
    /// copy's lifetime).
    pub launched_at: Slot,
    /// Total copies ever launched for the task, the winner included — the
    /// per-task cloning factor.
    pub copies_of_task: usize,
}

/// A copy was cancelled before finishing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyCancelled {
    /// Cancellation slot.
    pub at: Slot,
    /// Arena id of the cancelled copy.
    pub copy: CopyId,
    /// The task the copy was executing.
    pub task: TaskId,
    /// Slot the copy was launched at (`at - launched_at` is the machine time
    /// reclaimed by the cancellation).
    pub launched_at: Slot,
    /// What triggered the cancellation.
    pub reason: CancelReason,
}

/// Summary of one decision instant, emitted after the scheduler's actions
/// were applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionInstant {
    /// The instant's slot.
    pub at: Slot,
    /// Number of [`crate::Action::Launch`] actions the scheduler returned.
    pub launch_actions: usize,
    /// Number of [`crate::Action::CancelCopies`] actions returned.
    pub cancel_actions: usize,
    /// Copies requested across all launch actions (before clipping to the
    /// available machines and the per-task cap).
    pub copies_requested: usize,
    /// Ranked-candidate prefix consumed by the decision
    /// ([`crate::ClusterState::ranked_prefix_consumed`]; 0 for schedulers
    /// that never read the ranked order).
    pub ranked_prefix: usize,
}

/// Receiver of the engine's lifecycle events.
///
/// Every method has an empty default body, so observers implement only the
/// events they fold. Implementations must be cheap and must not panic: they
/// run inline on the event loop of the simulation.
pub trait SimObserver {
    /// Whether this observer consumes events at all. The engine consults it
    /// before *assembling* summaries that cost work even when the handler
    /// bodies are empty (the per-decision action counts); [`NoopObserver`]
    /// overrides it to `false` so the disabled path does no counting either.
    const ENABLED: bool = true;

    /// A job was admitted and became alive.
    fn on_job_arrived(&mut self, _at: Slot, _job: JobId) {}

    /// A job completed; `record` is the completion record the outcome will
    /// carry (arrival, completion, copies launched, …).
    fn on_job_completed(&mut self, _record: &JobRecord) {}

    /// A copy started occupying a machine.
    fn on_copy_launched(&mut self, _event: CopyLaunched) {}

    /// A copy finished and completed its task.
    fn on_copy_finished(&mut self, _event: CopyFinished) {}

    /// A copy was cancelled (sibling win, scheduler decision, or fault).
    fn on_copy_cancelled(&mut self, _event: CopyCancelled) {}

    /// A fault killed a task's last copy; the task fell back to the
    /// unscheduled pool and will be re-executed.
    fn on_task_unlaunched(&mut self, _at: Slot, _task: TaskId) {}

    /// A machine's up epoch ended (`crash == true` takes it out of service,
    /// `false` starts a brown-out).
    fn on_machine_down(&mut self, _at: Slot, _machine: u32, _crash: bool) {}

    /// A machine's down/brown-out epoch ended.
    fn on_machine_up(&mut self, _at: Slot, _machine: u32, _crash: bool) {}

    /// A decision instant ran to completion (actions already applied). Not
    /// emitted for the run's final event batch: the batch that completes the
    /// last job never consults the scheduler, so observers see exactly the
    /// instants that produced decisions —
    /// [`crate::SimOutcome`]`::telemetry.decision_instants` counts the final
    /// batch too and therefore reads one higher on a completed run.
    fn on_decision_instant(&mut self, _event: DecisionInstant) {}
}

/// The disabled path: every method is an empty inline default, so a run
/// monomorphized over `NoopObserver` compiles to the observer-free engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    const ENABLED: bool = false;
}

/// Forwarding impl so an observer can be passed by `&mut` without moving it.
impl<O: SimObserver> SimObserver for &mut O {
    const ENABLED: bool = O::ENABLED;

    fn on_job_arrived(&mut self, at: Slot, job: JobId) {
        (**self).on_job_arrived(at, job);
    }
    fn on_job_completed(&mut self, record: &JobRecord) {
        (**self).on_job_completed(record);
    }
    fn on_copy_launched(&mut self, event: CopyLaunched) {
        (**self).on_copy_launched(event);
    }
    fn on_copy_finished(&mut self, event: CopyFinished) {
        (**self).on_copy_finished(event);
    }
    fn on_copy_cancelled(&mut self, event: CopyCancelled) {
        (**self).on_copy_cancelled(event);
    }
    fn on_task_unlaunched(&mut self, at: Slot, task: TaskId) {
        (**self).on_task_unlaunched(at, task);
    }
    fn on_machine_down(&mut self, at: Slot, machine: u32, crash: bool) {
        (**self).on_machine_down(at, machine, crash);
    }
    fn on_machine_up(&mut self, at: Slot, machine: u32, crash: bool) {
        (**self).on_machine_up(at, machine, crash);
    }
    fn on_decision_instant(&mut self, event: DecisionInstant) {
        (**self).on_decision_instant(event);
    }
}

/// Tee: every event goes to both observers, in order. Compose freely:
/// `((&mut registry, &mut trace), &mut custom)`.
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_job_arrived(&mut self, at: Slot, job: JobId) {
        self.0.on_job_arrived(at, job);
        self.1.on_job_arrived(at, job);
    }
    fn on_job_completed(&mut self, record: &JobRecord) {
        self.0.on_job_completed(record);
        self.1.on_job_completed(record);
    }
    fn on_copy_launched(&mut self, event: CopyLaunched) {
        self.0.on_copy_launched(event);
        self.1.on_copy_launched(event);
    }
    fn on_copy_finished(&mut self, event: CopyFinished) {
        self.0.on_copy_finished(event);
        self.1.on_copy_finished(event);
    }
    fn on_copy_cancelled(&mut self, event: CopyCancelled) {
        self.0.on_copy_cancelled(event);
        self.1.on_copy_cancelled(event);
    }
    fn on_task_unlaunched(&mut self, at: Slot, task: TaskId) {
        self.0.on_task_unlaunched(at, task);
        self.1.on_task_unlaunched(at, task);
    }
    fn on_machine_down(&mut self, at: Slot, machine: u32, crash: bool) {
        self.0.on_machine_down(at, machine, crash);
        self.1.on_machine_down(at, machine, crash);
    }
    fn on_machine_up(&mut self, at: Slot, machine: u32, crash: bool) {
        self.0.on_machine_up(at, machine, crash);
        self.1.on_machine_up(at, machine, crash);
    }
    fn on_decision_instant(&mut self, event: DecisionInstant) {
        self.0.on_decision_instant(event);
        self.1.on_decision_instant(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_workload::Phase;

    /// Counts events per kind — the shape every folding observer takes.
    #[derive(Debug, Default, PartialEq, Eq, Clone)]
    struct CountingObserver {
        arrived: u64,
        completed: u64,
        launched: u64,
        finished: u64,
        cancelled: u64,
        unlaunched: u64,
        down: u64,
        up: u64,
        decisions: u64,
    }

    impl SimObserver for CountingObserver {
        fn on_job_arrived(&mut self, _at: Slot, _job: JobId) {
            self.arrived += 1;
        }
        fn on_job_completed(&mut self, _record: &JobRecord) {
            self.completed += 1;
        }
        fn on_copy_launched(&mut self, _event: CopyLaunched) {
            self.launched += 1;
        }
        fn on_copy_finished(&mut self, _event: CopyFinished) {
            self.finished += 1;
        }
        fn on_copy_cancelled(&mut self, _event: CopyCancelled) {
            self.cancelled += 1;
        }
        fn on_task_unlaunched(&mut self, _at: Slot, _task: TaskId) {
            self.unlaunched += 1;
        }
        fn on_machine_down(&mut self, _at: Slot, _machine: u32, _crash: bool) {
            self.down += 1;
        }
        fn on_machine_up(&mut self, _at: Slot, _machine: u32, _crash: bool) {
            self.up += 1;
        }
        fn on_decision_instant(&mut self, _event: DecisionInstant) {
            self.decisions += 1;
        }
    }

    fn fire_all(observer: &mut impl SimObserver) {
        let task = TaskId::new(JobId::new(0), Phase::Map, 0);
        observer.on_job_arrived(1, JobId::new(0));
        observer.on_copy_launched(CopyLaunched {
            at: 1,
            copy: CopyId(0),
            task,
            clone: false,
            expected_finish: Some(5),
        });
        observer.on_copy_finished(CopyFinished {
            at: 5,
            copy: CopyId(0),
            task,
            launched_at: 1,
            copies_of_task: 1,
        });
        observer.on_copy_cancelled(CopyCancelled {
            at: 5,
            copy: CopyId(1),
            task,
            launched_at: 2,
            reason: CancelReason::SiblingFinished,
        });
        observer.on_task_unlaunched(6, task);
        observer.on_machine_down(7, 3, true);
        observer.on_machine_up(9, 3, true);
        observer.on_decision_instant(DecisionInstant {
            at: 9,
            launch_actions: 1,
            cancel_actions: 0,
            copies_requested: 2,
            ranked_prefix: 4,
        });
        observer.on_job_completed(&JobRecord {
            job: JobId::new(0),
            weight: 1.0,
            arrival: 1,
            completion: 5,
            num_map_tasks: 1,
            num_reduce_tasks: 0,
            copies_launched: 2,
            true_workload: 4.0,
        });
    }

    #[test]
    fn noop_observer_accepts_every_event() {
        // Compiles and runs — the point of NoopObserver is that all of this
        // is dead code in the monomorphized engine.
        fire_all(&mut NoopObserver);
    }

    #[test]
    fn tuple_tee_dispatches_to_both_sides() {
        let mut pair = (CountingObserver::default(), CountingObserver::default());
        fire_all(&mut pair);
        assert_eq!(pair.0, pair.1, "both sides see the identical stream");
        assert_eq!(pair.0.arrived, 1);
        assert_eq!(pair.0.completed, 1);
        assert_eq!(pair.0.launched, 1);
        assert_eq!(pair.0.finished, 1);
        assert_eq!(pair.0.cancelled, 1);
        assert_eq!(pair.0.unlaunched, 1);
        assert_eq!(pair.0.down, 1);
        assert_eq!(pair.0.up, 1);
        assert_eq!(pair.0.decisions, 1);
    }

    #[test]
    fn mut_ref_forwarding_reaches_the_underlying_observer() {
        let mut counter = CountingObserver::default();
        fire_all(&mut (&mut counter));
        assert_eq!(counter.decisions, 1);
        assert_eq!(counter.launched, 1);
    }
}
