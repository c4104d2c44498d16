//! Slot-granular discrete-event MapReduce cluster simulator.
//!
//! This crate is the *substrate* of the reproduction: it implements the
//! cluster model of Section III of the paper — `M` identical unit-speed
//! machines, slotted time, one task copy per machine per slot, Map→Reduce
//! precedence inside every job, and task cloning where the first copy to
//! finish wins and the siblings are cancelled.
//!
//! The seam between the substrate and the algorithms is the
//! [`Scheduler`] trait: at every decision point the engine hands the
//! scheduler a read-only [`ClusterState`] and collects its [`Action`]s into
//! a run-level reusable buffer ([`Scheduler::schedule_into`]). The paper's
//! algorithms (crate `mapreduce-sched`) and all the baselines (crate
//! `mapreduce-baselines`) are implementations of this trait.
//!
//! The seam on the workload side is [`mapreduce_workload::JobSource`]: the
//! engine pulls jobs in arrival order ([`Simulation::from_source`]) and
//! retires each job from its [`JobTable`] at the end of the decision instant
//! in which it completed, so job state is bounded by the alive window rather
//! than the workload size — see
//! [`engine`] for the admission/trajectory guarantees.
//!
//! # Event path
//!
//! Job arrivals bypass the queue: the source cursor admits each job at its
//! arrival instant, ahead of that instant's queued events. Copy completions
//! and machine transitions are delivered by a slot-granular **calendar
//! queue** ([`events::EventQueue`]): a ring of
//! `2^`[`SimConfig::event_ring_bits`] per-slot buckets (default 16384),
//! each a linked list through one node slab that holds no more nodes than
//! events were ever queued at once, with a flat min-heap overflow for
//! far-future slots, giving `O(1)` push while reproducing the
//! `(slot, kind, sequence)` heap order bit-for-bit. Each decision instant is
//! drained as one batch (the bucket is sorted once), copy records live in a
//! run-level [`CopyArena`] indexed by [`CopyId`] so completions resolve in
//! `O(1)`, and stale entries are deleted lazily: a cancelled or killed
//! copy's finish event stays queued, wakes the engine at its instant and
//! fails an `O(1)` liveness check. Every copy leaves its machine through one
//! engine exit, whether it won, lost to a sibling, was cancelled by the
//! scheduler or was killed by a crash.
//!
//! # Incremental scheduler state
//!
//! Per-decision cost is proportional to the work actually touched, not to
//! cluster size. The engine maintains, as events apply:
//!
//! * per-job, per-phase **free-lists** of unscheduled and running task
//!   indices ([`JobState::unscheduled_indices`], [`JobState::running_tasks`])
//!   — enumerating launchable or running work never scans the full task
//!   vector;
//! * a per-job, per-phase **running-by-finish order**
//!   ([`JobState::running_by_finish`]) keying every running task by the
//!   earliest finish slot of its copies — detection-based schedulers
//!   (Mantri) binary-search the straggler cutoff instead of re-deriving
//!   remaining times for every running task;
//! * per-job, per-phase **completed-duration aggregates**
//!   ([`JobState::mean_completed_duration`]) so restart-time estimates
//!   (`t_new`) are `O(1)`;
//! * an [`AliveIndex`] over the alive jobs in job-id order (which the
//!   engine's admission check makes arrival order, the order the FIFO family
//!   serves) carrying the weight, unscheduled and launchable aggregates, the
//!   **launchable-job set** (alive jobs with a task to launch now, in id
//!   order, read through [`ClusterState::launchable_jobs`] by FIFO and the
//!   fair fill), and an optional **priority order** (decreasing
//!   `w_i / U_i(l)`) that a scheduler opts into via
//!   [`Scheduler::priority_r`] and consumes through
//!   [`ClusterState::ranked_entries`]. Every [`ClusterState`] reads this
//!   index; there is no second, scanning snapshot path. One rule decides
//!   what may launch: [`JobState::launchable`] (map tasks first, reduce
//!   tasks once the Map phase completed).
//!
//! The running free-list and the running-by-finish order are maintained only
//! for schedulers that declare them through [`Scheduler::index_demands`] —
//! keeping a sorted index current costs `O(running width)` memmove per
//! launch/finish, a real tax on wide jobs under schedulers that never read
//! it.
//!
//! The invariants of each structure are documented on the items themselves;
//! the golden-equivalence suite (`tests/tests/golden_equivalence.rs`) pins
//! every optimized scheduler to a frozen pre-optimization reference
//! bit-for-bit, and a dedicated proptest drives the calendar queue against
//! the frozen heap over randomized streams
//! (`tests/tests/event_queue_equivalence.rs`). Both oracles are kept in the
//! `integration-tests` library, outside this crate.
//!
//! # Quick example
//!
//! ```
//! use mapreduce_sim::{SimConfig, Simulation, schedulers::GreedyFifo};
//! use mapreduce_workload::WorkloadBuilder;
//!
//! let trace = WorkloadBuilder::new().num_jobs(5).build(1);
//! let config = SimConfig::new(8).with_seed(7);
//! let outcome = Simulation::new(config, &trace).run(&mut GreedyFifo::new()).unwrap();
//! assert_eq!(outcome.records().len(), 5);
//! assert!(outcome.mean_flowtime() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod copy;
pub mod engine;
pub mod error;
pub mod events;
pub mod result;
pub mod schedulers;
pub mod speedup;
pub mod state;
pub mod telemetry;

pub use config::{FaultClass, FaultPlan, SimConfig, StragglerModel};
pub use copy::{CopyArena, CopyId, CopyPhase, CopyRef};
pub use engine::Simulation;
pub use error::SimError;
pub use events::{Event, EventQueue};
pub use result::{JobRecord, RunTelemetry, SimOutcome};
pub use speedup::{ParetoSpeedup, SpeedupFunction};
pub use state::{
    Action, AliveIndex, ClusterState, IndexDemands, JobState, JobTable, RankedEntries, Scheduler,
    Slot, TaskState, TaskStatus,
};
pub use telemetry::{
    CancelReason, CopyCancelled, CopyFinished, CopyLaunched, DecisionInstant, NoopObserver,
    SimObserver,
};
