//! The discrete-event simulation engine.
//!
//! The engine advances slot-granular time, admits job arrivals, executes
//! task copies, enforces the Map→Reduce precedence constraint, implements
//! first-copy-wins cloning semantics (sibling copies are cancelled the moment
//! one copy of a task finishes) and invokes the [`Scheduler`] whenever the
//! cluster state changes. Each event has one code path: arrivals are applied
//! by the admission loop, and every copy — winner, cancelled sibling,
//! cancelled by the scheduler or killed by a crash — leaves its machine
//! through one exit.
//!
//! # Streaming workload seam
//!
//! Jobs are *pulled* from a [`JobSource`] rather than copied in up front: a
//! pull-ahead cursor holds exactly one not-yet-admitted job, its arrival
//! competes with the event-queue head for the next decision instant, and
//! every pending job arriving at the chosen instant is admitted, in dense-id
//! order, before that instant's queued events are delivered. Arrivals never
//! enter the event queue. A completed job's [`JobRecord`] is captured the
//! moment it completes, and its state is dropped from the [`JobTable`] at
//! the end of that decision instant, so job state is bounded by the peak
//! *alive window* ([`SimOutcome::peak_resident_jobs`]), not by the workload
//! size — this is what lets 100k+-job
//! [`mapreduce_workload::StreamingGenerator`] runs complete without ever
//! materialising a [`Trace`].
//!
//! Event compression: the scheduler is only woken when an arrival or a
//! completion happened, or on the periodic wakeup the scheduler itself
//! requests through [`Scheduler::wakeup_interval`]. Between such instants
//! nothing in the model can change, so this is equivalent to the per-slot
//! loop of the paper while being fast enough for 12 000-machine traces.
//!
//! # Event path
//!
//! Copy completions and machine transitions go through [`crate::events`]: a
//! slot-granular calendar queue with `O(1)` push. Each decision instant is
//! delivered as one **batch** ([`EventQueue::drain_due`]) — the instant's
//! bucket is sorted once and handed over wholesale instead of a heap pop per
//! event, and a task whose clones tie at one slot is finalized exactly once
//! (the first completion in `(kind, allocation-sequence)` order wins; its
//! siblings fail the `O(1)` liveness check). Copy records live in a
//! run-level [`CopyArena`] indexed by [`CopyId`], so resolving a completion
//! is a single slice index, and the event carries no task: a live copy's
//! record names it. A cancelled or killed copy's finish event stays
//! queued: it fires its instant and fails the same liveness check on the
//! copy's hot record, so cancellation costs the queue one node until that
//! instant. Completed jobs hand their copy
//! slots back to the arena's free-list, so — like the job table — copy
//! memory is bounded by the peak alive window
//! ([`SimOutcome::peak_copy_slots`]) rather than the run's total copy count.
//! Early-launched reduce copies are tracked on a per-job waiting list
//! ([`crate::state::JobState::waiting_copies`]), so Map-phase completion
//! activates exactly the waiting copies instead of rescanning every reduce
//! task.
//!
//! The engine owns the [`JobTable`], the machine budget and the incrementally
//! maintained [`AliveIndex`] from which each scheduler-facing
//! [`ClusterState`] snapshot is built in `O(1)`.

use crate::config::{FaultClass, FaultPlan, SimConfig, StragglerModel};
use crate::copy::{CopyArena, CopyId, CopyPhase};
use crate::error::SimError;
use crate::events::{Event, EventQueue};
use crate::result::{JobRecord, RunTelemetry, SimOutcome};
use crate::state::IndexDemands;
use crate::state::{Action, AliveIndex, ClusterState, JobState, JobTable, Scheduler, Slot};
use crate::telemetry::{
    CancelReason, CopyCancelled, CopyFinished, CopyLaunched, DecisionInstant, NoopObserver,
    SimObserver,
};
use mapreduce_support::rng::{Rng, SimRng};
use mapreduce_workload::{JobSource, MaterializedSource, Phase, TaskId, Trace};
use std::fmt;

/// A single simulation run: one job source, one configuration, one
/// scheduler.
///
/// The workload side is a [`JobSource`] — jobs are *pulled* in arrival order
/// and admitted as they arrive, so a run never needs the whole workload
/// materialised at once. [`Simulation::new`] wraps an existing [`Trace`] in a
/// [`MaterializedSource`], which is bit-identical to the old
/// trace-vector path; [`Simulation::from_source`] accepts any source (a
/// [`mapreduce_workload::StreamingGenerator`], a converted Google CSV, …).
///
/// See the crate-level documentation for an end-to-end example.
pub struct Simulation {
    config: SimConfig,
    /// `Some` until [`Simulation::run`] consumes it — the source is taken
    /// out up front so the event loop can pull from it while mutably
    /// borrowing the engine.
    source: Option<Box<dyn JobSource>>,
    /// Runtime state of the resident jobs, indexed by dense job id: a job
    /// enters when it is admitted and is retired at the end of the decision
    /// instant in which it completed.
    jobs: JobTable,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("config", &self.config)
            .field(
                "source",
                &self.source.as_ref().map_or("<consumed>", |s| s.name()),
            )
            .field(
                "total_jobs",
                &self.source.as_ref().map_or(0, |s| s.total_jobs()),
            )
            .field("admitted_jobs", &self.jobs.admitted())
            .finish()
    }
}

/// Mutable per-run bookkeeping shared by the event handlers.
#[derive(Debug, Default)]
struct RunStats {
    available: usize,
    busy_machine_slots: u64,
    completed_jobs: usize,
    scheduler_invocations: u64,
    makespan: Slot,
    /// Jobs admitted from the source and not yet completed-and-released.
    resident_jobs: usize,
    /// High-water mark of `resident_jobs`.
    peak_resident_jobs: usize,
    /// Decision instants processed (event batches delivered), including the
    /// final one that completes the run without reaching the scheduler.
    decision_instants: u64,
    /// Largest ranked-candidate prefix any decision materialised.
    ranked_prefix_len_max: usize,
    /// Delivered copy-finish events rejected as stale.
    stale_events: u64,
}

/// Per-run mutable context: stats, the copy arena and reusable scratch
/// buffers, grouped so the handlers stay within sane arities and the hot
/// loop never allocates for event delivery or cancellation.
#[derive(Debug, Default)]
struct RunCtx {
    stats: RunStats,
    arena: CopyArena,
    /// Scratch for [`Simulation::cancel_copies`]: `(progress, id)` of the
    /// task's active copies, reused across calls.
    cancel_scratch: Vec<(f64, CopyId)>,
    /// Scratch for [`Simulation::activate_waiting_reduce_copies`]: swapped
    /// with each job's waiting list so the allocation is recycled.
    waiting_scratch: Vec<(u32, CopyId)>,
    /// Completion records, captured the moment each job completes (its task
    /// storage is released right after); sorted into job-id order at the end.
    records: Vec<JobRecord>,
    /// Machine-identity state, present only when the run has a non-empty
    /// [`FaultPlan`]. Fault-free runs keep the fungible machine-count model
    /// and never touch it, which is what makes the empty-plan trajectory
    /// bit-identical to a build without the subsystem.
    ///
    /// Building a pool on every run (one code path for both models) also
    /// stays bit-identical, with throughput within noise, but it moves peak
    /// RSS by more than a megabyte in either direction depending on the
    /// workload: perfbench `peak_rss_mb` read 22.81–22.90 against
    /// 20.95–21.13 on `stream_fifo` and 20.96–21.16 against 22.38–22.46 on
    /// `stream_srptmsc` (alternating 5 s runs on a 2-vCPU VM). So the
    /// fault-free engine keeps machines fungible.
    pool: Option<MachinePool>,
}

/// How a copy leaves its machine: every copy ends through
/// [`RunCtx::end_copy`] with one of these.
#[derive(Debug, Clone, Copy)]
enum CopyExit {
    /// The task's first finisher; `copies_of_task` copies were ever
    /// launched for the task.
    Won { copies_of_task: usize },
    /// Killed before finishing: by a sibling's win, by a `CancelCopies`
    /// action, or by a crash of its machine.
    Cancelled(CancelReason),
}

impl RunCtx {
    /// The one exit of an active copy at `at`: ends its arena record, bills
    /// the machine-slots it held, returns its machine to the idle pool
    /// (unless the machine crashed under it) and emits the exit's observer
    /// event. The caller updates the task's and job's counters through
    /// [`JobState::note_copies_ended`]. Returns whether the copy was still
    /// parked waiting for its job's Map phase.
    fn end_copy<O: SimObserver>(
        &mut self,
        cid: CopyId,
        at: Slot,
        exit: CopyExit,
        observer: &mut O,
    ) -> bool {
        let copy = self.arena.get(cid);
        debug_assert!(copy.is_active(), "copy {cid} ended twice");
        let (task, launched_at) = (copy.task(), copy.launched_at());
        let was_waiting = copy.phase() == CopyPhase::WaitingForMapPhase;
        // A killed copy really held its machine until `at`, so the lost
        // progress still counts toward utilisation — `wasted_work` carries
        // the distinction.
        let elapsed = at.saturating_sub(launched_at);
        self.stats.busy_machine_slots += elapsed;
        if let CopyExit::Cancelled(CancelReason::Fault) = exit {
            // The machine goes straight from busy to down: it is neither
            // returned to the pool nor counted available.
            let pool = self.pool.as_mut().expect("only crashes kill copies");
            pool.wasted_work += elapsed;
            pool.copies_killed += 1;
        } else {
            if let Some(pool) = &mut self.pool {
                pool.release(cid);
            }
            self.stats.available += 1;
        }
        match exit {
            CopyExit::Won { copies_of_task } => {
                self.arena.finish(cid, at);
                observer.on_copy_finished(CopyFinished {
                    at,
                    copy: cid,
                    task,
                    launched_at,
                    copies_of_task,
                });
            }
            CopyExit::Cancelled(reason) => {
                self.arena.cancel(cid, at);
                observer.on_copy_cancelled(CopyCancelled {
                    at,
                    copy: cid,
                    task,
                    launched_at,
                    reason,
                });
            }
        }
        was_waiting
    }
}

/// Upper bound on simultaneously active copies of one task: a safety clip
/// against pathological schedulers, above every policy's own cap (SRPTMS+C
/// 8, Mantri 2).
pub(crate) const MAX_COPIES_PER_TASK: usize = 64;

/// Stream salt for the fault-injection RNG: machine epochs draw from their
/// own xoshiro stream, so attaching a fault plan never perturbs the straggler
/// and clone-resampling draws of the main run RNG.
const FAULT_RNG_STREAM: u64 = 0xFA17_14F3_C7ED_5EED;

/// Runtime machine identities for fault injection, built from a
/// [`FaultPlan`].
///
/// The fault-free engine treats machines as a fungible count
/// (`RunStats::available`); killing the copies *resident on a specific
/// machine* requires identities. The pool pins every launched copy to a
/// machine and keeps the set of idle in-service machines as a LIFO free-list
/// with lazy stale-entry deletion: `enlisted[m]` is true iff machine `m` is
/// up **and** idle, entries whose flag went false (crashed while idle, or
/// superseded by a newer entry after a down/up cycle) are discarded at pop.
/// The invariant tying the two models together: the number of live free-list
/// entries always equals `RunStats::available`.
///
/// Fault epochs are sampled lazily — one pending [`Event::MachineDown`] /
/// [`Event::MachineUp`] per covered machine at any time, the next epoch drawn
/// when the current one fires — so a plan costs `O(classes)` to store and
/// `O(1)` per transition, and 100k-machine plans never materialise a
/// timeline.
#[derive(Debug)]
struct MachinePool {
    /// The plan's classes; class `k` covers machines
    /// `[class_start[k], class_start[k] + classes[k].machines)`.
    classes: Vec<FaultClass>,
    /// First machine index of each class, ascending.
    class_start: Vec<u32>,
    /// Copy currently occupying each machine (running or waiting), if any.
    resident: Vec<Option<CopyId>>,
    /// LIFO free-list of idle in-service machines, with lazy deletion.
    free: Vec<u32>,
    /// `enlisted[m]` ⟺ machine `m` is up and idle (its entry in `free` is
    /// live).
    enlisted: Vec<bool>,
    /// `down[m]` ⟺ machine `m` is crashed out of service.
    down: Vec<bool>,
    /// Number of machines currently down.
    num_down: usize,
    /// Slot at which each down machine crashed (valid while `down[m]`).
    down_since: Vec<Slot>,
    /// Workload multiplier for copies launched on each machine (1.0 = full
    /// speed; > 1.0 during a brown-out epoch).
    slow: Vec<f64>,
    /// Machine occupied by each copy-arena slot (valid while the copy is
    /// active; stale entries are overwritten on slot reuse).
    machine_of: Vec<u32>,
    /// Dedicated epoch-sampling stream (see [`FAULT_RNG_STREAM`]).
    rng: SimRng,
    /// Machine-slots of progress lost to fault kills.
    wasted_work: u64,
    /// Copies killed because their machine crashed.
    copies_killed: u64,
    /// Machine-slots of completed down epochs (still-open epochs are folded
    /// in by [`MachinePool::final_downtime`]).
    downtime: u64,
}

impl MachinePool {
    fn new(plan: &FaultPlan, num_machines: usize, seed: u64) -> Self {
        let mut class_start = Vec::with_capacity(plan.classes.len());
        let mut next = 0u32;
        for class in &plan.classes {
            class_start.push(next);
            next += class.machines as u32;
        }
        debug_assert!(next as usize <= num_machines, "plan validated by SimConfig");
        MachinePool {
            classes: plan.classes.clone(),
            class_start,
            resident: vec![None; num_machines],
            // LIFO pop yields machine 0 first: launches fill low indices
            // first, deterministically.
            free: (0..num_machines as u32).rev().collect(),
            enlisted: vec![true; num_machines],
            down: vec![false; num_machines],
            num_down: 0,
            down_since: vec![0; num_machines],
            slow: vec![1.0; num_machines],
            machine_of: Vec::new(),
            rng: SimRng::seed_from_u64(seed ^ FAULT_RNG_STREAM),
            wasted_work: 0,
            copies_killed: 0,
            downtime: 0,
        }
    }

    /// Queues the first failure/brown-out of every covered machine. Every
    /// machine starts the run in service at full speed.
    fn seed_events(&mut self, queue: &mut EventQueue) {
        for k in 0..self.classes.len() {
            let class = self.classes[k];
            let start = self.class_start[k];
            let crash = class.slowdown.is_none();
            for machine in start..start + class.machines as u32 {
                let at = self.sample_epoch(class.mean_up_slots);
                queue.push(Event::MachineDown { at, machine, crash });
            }
        }
    }

    /// One exponential epoch draw with the given mean, quantised to whole
    /// slots and at least 1 (a zero-length epoch would break the per-machine
    /// down/up alternation).
    fn sample_epoch(&mut self, mean: f64) -> Slot {
        let u = self.rng.gen_f64();
        let draw = -mean * (1.0 - u).ln();
        (draw.ceil() as Slot).max(1)
    }

    /// The fault class covering `machine` (only called for covered machines
    /// — uncovered ones never get fault events).
    fn class_of(&self, machine: u32) -> FaultClass {
        let k = self.class_start.partition_point(|&s| s <= machine) - 1;
        self.classes[k]
    }

    /// Pops the next idle in-service machine. The free-list invariant
    /// guarantees a live entry exists whenever `RunStats::available > 0`.
    fn acquire(&mut self) -> u32 {
        loop {
            let m = self
                .free
                .pop()
                .expect("free-list tracks the available count");
            if self.enlisted[m as usize] {
                self.enlisted[m as usize] = false;
                return m;
            }
        }
    }

    /// Pins a freshly launched copy to the machine it occupies.
    fn assign(&mut self, cid: CopyId, machine: u32) {
        let slot = cid.0 as usize;
        if self.machine_of.len() <= slot {
            self.machine_of.resize(slot + 1, 0);
        }
        self.machine_of[slot] = machine;
        debug_assert!(self.resident[machine as usize].is_none());
        self.resident[machine as usize] = Some(cid);
    }

    /// Returns a departing copy's machine to the idle pool. Only called for
    /// copies leaving through the normal finish/cancel paths — fault kills
    /// clear residency themselves and keep the machine out of service.
    fn release(&mut self, cid: CopyId) {
        let m = self.machine_of[cid.0 as usize] as usize;
        debug_assert_eq!(self.resident[m], Some(cid));
        debug_assert!(!self.down[m], "a crash would have killed this copy");
        self.resident[m] = None;
        self.free.push(m as u32);
        self.enlisted[m] = true;
    }

    /// Total down machine-slots, folding in the epochs still open at `end`.
    fn final_downtime(&self, end: Slot) -> u64 {
        let mut total = self.downtime;
        for m in 0..self.down.len() {
            if self.down[m] {
                total += end.saturating_sub(self.down_since[m]);
            }
        }
        total
    }
}

/// Pulls, validates and wraps the next job of the source. `index` is the
/// dense id the job must carry, `last_arrival` the arrival of its
/// predecessor. The source must yield exactly `total_jobs` jobs: `Ok(None)`
/// means it ended where it said it would.
fn pull_next(
    source: &mut dyn JobSource,
    index: usize,
    total_jobs: usize,
    last_arrival: Slot,
    demands: IndexDemands,
) -> Result<Option<JobState>, SimError> {
    let invalid = |message: String| Err(SimError::InvalidSourceJob { index, message });
    let Some(spec) = source.next_job() else {
        if index < total_jobs {
            return invalid(format!("source ended after {index} of {total_jobs} jobs"));
        }
        return Ok(None);
    };
    if index >= total_jobs {
        return invalid(format!("source yielded more than its {total_jobs} jobs"));
    }
    if spec.id.as_usize() != index {
        return invalid(format!("expected dense job id {index}, got {}", spec.id));
    }
    if spec.arrival < last_arrival {
        return invalid(format!(
            "arrival {} behind predecessor arrival {last_arrival}",
            spec.arrival
        ));
    }
    let mut job = JobState::new(spec);
    job.set_index_tracking(demands);
    Ok(Some(job))
}

impl Simulation {
    /// Creates a simulation over the given trace.
    ///
    /// The trace is copied into an internal [`MaterializedSource`], so the
    /// caller keeps ownership of the original; the run is bit-identical to
    /// feeding the same trace through [`Simulation::from_source`].
    pub fn new(config: SimConfig, trace: &Trace) -> Self {
        Self::from_source(config, Box::new(MaterializedSource::from_trace(trace)))
    }

    /// Creates a simulation pulling its workload from an arbitrary
    /// [`JobSource`].
    pub fn from_source(config: SimConfig, source: Box<dyn JobSource>) -> Self {
        Simulation {
            config,
            source: Some(source),
            jobs: JobTable::new(),
        }
    }

    /// The configuration of this simulation.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation to completion with the given scheduler.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoMachines`] if the configuration has zero machines
    ///   (normally prevented by [`SimConfig::new`]).
    /// * [`SimError::SchedulerStalled`] if jobs remain but the scheduler
    ///   refuses to launch anything and nothing is running or arriving.
    /// * [`SimError::HorizonExceeded`] if [`SimConfig::max_slots`] is reached.
    /// * [`SimError::UnknownTask`] if the scheduler references a task outside
    ///   the trace.
    /// * [`SimError::InvalidSourceJob`] if the source yields a job with a
    ///   non-dense id or an arrival behind its predecessor's, ends before
    ///   [`JobSource::total_jobs`] jobs, or yields a job past that total.
    pub fn run(self, scheduler: &mut dyn Scheduler) -> Result<SimOutcome, SimError> {
        self.run_with_observer(scheduler, &mut NoopObserver)
    }

    /// Runs the simulation to completion with the given scheduler, streaming
    /// lifecycle events to `observer` (see [`crate::telemetry`]).
    ///
    /// One serial event loop on the caller's thread pulls, validates and
    /// admits jobs, delivers each decision instant's events, asks the
    /// scheduler and folds completion records. The loop is monomorphized
    /// over the observer type: [`NoopObserver`] compiles to the
    /// observer-free engine, and any observer receives facts strictly after
    /// the engine applied them, so the trajectory — and the returned
    /// [`SimOutcome`] — is bit-identical with or without one.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulation::run`].
    pub fn run_with_observer<O: SimObserver>(
        mut self,
        scheduler: &mut dyn Scheduler,
        observer: &mut O,
    ) -> Result<SimOutcome, SimError> {
        if self.config.num_machines == 0 {
            return Err(SimError::NoMachines);
        }
        let mut source = self.source.take().expect("a simulation runs exactly once");
        let total_jobs = source.total_jobs();
        // Maintain only the per-job indices this scheduler consumes; keeping
        // a sorted index current costs O(running width) per launch/finish,
        // which wide jobs turn into a real tax under schedulers that never
        // read it.
        let demands = scheduler.index_demands();
        let total_machines = self.config.num_machines;
        let mut rng = SimRng::seed_from_u64(self.config.seed);

        let mut queue = EventQueue::with_ring_bits(self.config.event_ring_bits);

        let mut alive = AliveIndex::new();
        if let Some(r) = scheduler.priority_r() {
            alive.enable_priority(r);
        }
        let mut ctx = RunCtx {
            stats: RunStats {
                available: total_machines,
                ..RunStats::default()
            },
            ..RunCtx::default()
        };
        // Fault injection: build machine identities and queue the first
        // failure epoch of every covered machine. An empty plan skips all of
        // it — no pool, no events, no per-launch machine bookkeeping — so the
        // fault-free trajectory is bit-identical to a build without the
        // subsystem.
        if !self.config.fault_plan.is_empty() {
            let mut pool =
                MachinePool::new(&self.config.fault_plan, total_machines, self.config.seed);
            pool.seed_events(&mut queue);
            ctx.pool = Some(pool);
        }
        // Pull-ahead cursor on the source: exactly one not-yet-admitted job
        // is held in `pending`; its arrival competes with the queue head for
        // the next decision instant, and once that instant is chosen every
        // pending job arriving at it is admitted before the queued batch is
        // drained. Arrivals never enter the event queue. `next_index` is the
        // dense id the next pulled job must carry; `pending` is `None`
        // exactly when it reached `total_jobs`.
        let mut next_index = 0;
        let mut now: Slot = 0;
        let mut pending = pull_next(source.as_mut(), next_index, total_jobs, now, demands)?;
        // Reused across decision instants so the hot loop never allocates for
        // event delivery or scheduler decisions.
        let mut due: Vec<Event> = Vec::new();
        let mut actions: Vec<Action> = Vec::new();
        let mut newly_arrived = Vec::new();
        let mut newly_finished = Vec::new();
        let mut newly_unlaunched = Vec::new();
        // Jobs that completed at this instant: retired once the instant's
        // hooks and decision have run.
        let mut newly_completed = Vec::new();

        let wakeup_every = scheduler.wakeup_interval();

        while ctx.stats.completed_jobs < total_jobs {
            // ---- determine the next decision instant ----
            // Down machines are neither available nor running anything, so
            // they are subtracted before the idle test (fault-free runs keep
            // `up == total_machines` and the original expression).
            let up_machines = total_machines - ctx.pool.as_ref().map_or(0, |p| p.num_down);
            let running_anything = ctx.stats.available < up_machines;
            let next_wakeup = match wakeup_every {
                Some(k) if !alive.is_empty() && running_anything => Some(now + k),
                _ => None,
            };
            let earliest = queue
                .peek_slot()
                .into_iter()
                .chain(pending.as_ref().map(|j| j.arrival()))
                .chain(next_wakeup)
                .min();
            let next = match earliest {
                Some(slot) => slot.max(now),
                None => {
                    // Nothing can ever happen again yet jobs remain: the
                    // scheduler has stalled.
                    return Err(SimError::SchedulerStalled {
                        slot: now,
                        alive_jobs: alive.len(),
                    });
                }
            };
            now = next;
            if let Some(max_slots) = self.config.max_slots {
                if now > max_slots {
                    return Err(SimError::HorizonExceeded {
                        max_slots,
                        unfinished_jobs: total_jobs - ctx.stats.completed_jobs,
                    });
                }
            }

            // ---- admit every pending job arriving at this instant ----
            // The pending arrival is never behind `now` at the loop top and
            // competed for this instant, so every job admitted here arrives
            // exactly at `now`. Arrivals come first in an instant (ahead of
            // completions and machine transitions, then in dense-id order),
            // so they are applied here, before the queued batch is drained.
            newly_arrived.clear();
            newly_finished.clear();
            newly_unlaunched.clear();
            while pending.as_ref().is_some_and(|j| j.arrival() <= now) {
                let mut job = pending.take().expect("checked above");
                debug_assert_eq!(job.arrival(), now);
                let idx = self.jobs.admitted();
                alive.insert(idx, &mut job);
                newly_arrived.push(job.id());
                observer.on_job_arrived(now, job.id());
                self.jobs.push(job);
                ctx.stats.resident_jobs += 1;
                ctx.stats.peak_resident_jobs =
                    ctx.stats.peak_resident_jobs.max(ctx.stats.resident_jobs);
                next_index += 1;
                pending = pull_next(source.as_mut(), next_index, total_jobs, now, demands)?;
            }

            ctx.stats.decision_instants += 1;

            // ---- deliver the instant's event batch ----
            // One drain per decision instant: the bucket is sorted once
            // (completions before machine transitions, then sequence order)
            // and handed over wholesale. Same-slot clone ties cost one O(1)
            // liveness check each instead of re-running the finalization.
            due.clear();
            queue.drain_due(now, &mut due);
            for &event in &due {
                match event {
                    Event::CopyFinish { at, copy, seq } => {
                        if let Some(task) =
                            self.handle_copy_finish(copy, seq, at, &mut ctx, observer)
                        {
                            newly_finished.push(task);
                            let job_idx = task.job.as_usize();
                            if task.phase == Phase::Map && self.jobs[job_idx].map_phase_complete() {
                                self.activate_waiting_reduce_copies(
                                    job_idx, at, &mut ctx, &mut queue,
                                );
                                // The job's unscheduled reduces just became
                                // launchable; keep the O(1) aggregate exact.
                                let job = self
                                    .jobs
                                    .get_mut(job_idx)
                                    .expect("a job whose map phase just completed is resident");
                                alive.note_map_phase_complete(job_idx, job);
                            }
                            let job = self
                                .jobs
                                .get_mut(job_idx)
                                .expect("a job whose task just finished is resident");
                            if job.all_tasks_finished() && !job.is_complete() {
                                job.mark_complete(at);
                                ctx.stats.completed_jobs += 1;
                                ctx.stats.makespan = ctx.stats.makespan.max(at);
                                alive.remove(job_idx, job);
                                newly_completed.push(job_idx);
                                let record = JobRecord {
                                    job: job.id(),
                                    weight: job.weight(),
                                    arrival: job.arrival(),
                                    completion: at,
                                    num_map_tasks: job.spec().num_map_tasks(),
                                    num_reduce_tasks: job.spec().num_reduce_tasks(),
                                    copies_launched: job.copies_launched(),
                                    true_workload: job.spec().true_total_workload(),
                                };
                                observer.on_job_completed(&record);
                                ctx.records.push(record);
                                // Recycle the job's copy slots now: the
                                // arena, like the job table, stays bounded
                                // by the alive window. Every copy of a
                                // completed job has ended, and no queued
                                // event can finalize one again (its task is
                                // finished, and the sequence check rejects
                                // reused slots). Nothing allocates a copy
                                // before this instant's hooks and decision,
                                // so the job's copy ids still resolve to
                                // its own records while they read it.
                                for phase in Phase::ALL {
                                    for task in job.tasks(phase) {
                                        for &cid in task.copies() {
                                            ctx.arena.free(cid);
                                        }
                                    }
                                }
                                ctx.stats.resident_jobs -= 1;
                            }
                        }
                    }
                    Event::MachineUp { at, machine, crash } => {
                        self.handle_machine_up(machine, crash, at, &mut ctx, &mut queue);
                        observer.on_machine_up(at, machine, crash);
                    }
                    Event::MachineDown { at, machine, crash } => {
                        // The down epoch is reported before its consequences
                        // (fault-cancelled copies, task unlaunches) so trace
                        // consumers see cause before effect.
                        observer.on_machine_down(at, machine, crash);
                        if let Some(task) = self.handle_machine_down(
                            machine, crash, at, &mut ctx, &mut alive, &mut queue, observer,
                        ) {
                            newly_unlaunched.push(task);
                            observer.on_task_unlaunched(at, task);
                        }
                    }
                }
            }

            if ctx.stats.completed_jobs == total_jobs {
                break;
            }

            // ---- invoke the scheduler ----
            ctx.stats.scheduler_invocations += 1;
            alive.flush_priority();
            actions.clear();
            let ranked_prefix = {
                // Recomputed here rather than reused from the loop top: the
                // event batch just drained may have taken machines down or
                // brought them back. Schedulers see only in-service capacity,
                // so every decision path prices in the reduced cluster.
                let up_machines = total_machines - ctx.pool.as_ref().map_or(0, |p| p.num_down);
                let state = ClusterState::new(
                    now,
                    up_machines,
                    ctx.stats.available,
                    &self.jobs,
                    &ctx.arena,
                    &alive,
                    ctx.pool.as_ref().map_or(0, |p| p.copies_killed),
                );
                for job in &newly_arrived {
                    scheduler.on_job_arrival(*job, &state);
                }
                for task in &newly_finished {
                    scheduler.on_task_finished(*task, &state);
                }
                for task in &newly_unlaunched {
                    scheduler.on_task_unlaunched(*task, &state);
                }
                // One run-level buffer, reused across decision instants, so
                // no decision allocates a vector of its own.
                scheduler.schedule_into(&state, &mut actions);
                let consumed = state.ranked_prefix_consumed();
                ctx.stats.ranked_prefix_len_max = ctx.stats.ranked_prefix_len_max.max(consumed);
                consumed
            };

            self.apply_actions(
                &actions, now, &mut ctx, &mut alive, &mut queue, &mut rng, observer,
            )?;
            // ---- retire the jobs that completed at this instant ----
            for idx in newly_completed.drain(..) {
                self.jobs.retire(idx);
            }
            if O::ENABLED {
                let mut launch_actions = 0usize;
                let mut cancel_actions = 0usize;
                let mut copies_requested = 0usize;
                for action in &actions {
                    match *action {
                        Action::Launch { copies, .. } => {
                            launch_actions += 1;
                            copies_requested += copies;
                        }
                        Action::CancelCopies { .. } => cancel_actions += 1,
                    }
                }
                observer.on_decision_instant(DecisionInstant {
                    at: now,
                    launch_actions,
                    cancel_actions,
                    copies_requested,
                    ranked_prefix,
                });
            }

            // ---- stall detection ----
            // If nothing is running, nothing will arrive, and jobs remain,
            // the scheduler will never be given a different state again.
            if ctx.stats.available == total_machines
                && next_index == total_jobs
                && !alive.is_empty()
            {
                return Err(SimError::SchedulerStalled {
                    slot: now,
                    alive_jobs: alive.len(),
                });
            }
        }

        // ---- collect records ----
        // Records were captured at completion time (completion order);
        // outcomes report them in job-id order. Job ids are unique, so the
        // unstable sort gives the stable order without a scratch buffer.
        let mut records = ctx.records;
        records.sort_unstable_by_key(|r| r.job);

        let mut outcome = SimOutcome::new(
            scheduler.name().to_string(),
            total_machines,
            records,
            ctx.stats.makespan,
            ctx.stats.busy_machine_slots,
            ctx.arena.total_allocated() as usize,
            ctx.stats.scheduler_invocations,
            ctx.stats.peak_resident_jobs,
            ctx.arena.peak_slots(),
        );
        outcome.telemetry = RunTelemetry {
            decision_instants: ctx.stats.decision_instants,
            ranked_prefix_len_max: ctx.stats.ranked_prefix_len_max,
            events_queued: queue.pushed(),
            stale_events: ctx.stats.stale_events,
            overflow_events: queue.overflow_pushes(),
            peak_queued_events: queue.peak_len() as u64,
        };
        if let Some(pool) = &ctx.pool {
            outcome.wasted_work = pool.wasted_work;
            outcome.copies_killed_by_fault = pool.copies_killed;
            outcome.machine_downtime = pool.final_downtime(ctx.stats.makespan);
        }
        Ok(outcome)
    }

    /// Processes the completion of one copy. Returns `Some(task_id)` if the
    /// event was live and the task finished, `None` for stale events: the
    /// finish events of cancelled and killed copies stay queued and end here
    /// (the liveness check is `O(1)`: one arena index), and so do events of
    /// retired jobs.
    fn handle_copy_finish<O: SimObserver>(
        &mut self,
        copy_id: CopyId,
        seq: u64,
        slot: Slot,
        ctx: &mut RunCtx,
        observer: &mut O,
    ) -> Option<TaskId> {
        let task_id = {
            let copy = ctx.arena.get(copy_id);
            // The hot record alone rejects a stale entry: the sequence
            // check catches a copy slot freed and reallocated since the
            // event was queued, the phase and finish-slot checks a copy
            // that was cancelled or killed. Only a live event reads the
            // cold record for its task.
            if copy.seq() != seq
                || copy.phase() != CopyPhase::Running
                || copy.finish_slot() != Some(slot)
            {
                ctx.stats.stale_events += 1;
                return None;
            }
            copy.task()
        };
        // Second line: a live copy belongs to a resident job and an
        // unfinished task (a sibling that tied at this slot and finalized
        // the task first cancelled this copy above).
        let job = self.jobs.get_mut(task_id.job.as_usize())?;
        let task = job.task_mut(task_id.phase, task_id.index)?;
        if task.is_finished() {
            return None;
        }
        // First-copy-wins: the winner finishes; every sibling still holding a
        // machine is cancelled. A running sibling's finish event stays queued
        // and fails the check above when it fires.
        let copies_of_task = task.copies().len();
        let (mut ended, mut waiting) = (0, 0);
        for &cid in task.copies() {
            if !ctx.arena.get(cid).is_active() {
                continue;
            }
            let exit = if cid == copy_id {
                CopyExit::Won { copies_of_task }
            } else {
                CopyExit::Cancelled(CancelReason::SiblingFinished)
            };
            ended += 1;
            waiting += usize::from(ctx.end_copy(cid, slot, exit, observer));
        }
        let duration = slot.saturating_sub(task.first_launched_at().unwrap_or(slot));
        task.mark_finished(slot);
        job.note_copies_ended(task_id.phase, task_id.index, ended, waiting);
        job.note_task_finished(task_id.phase, task_id.index, duration);
        Some(task_id)
    }

    /// A machine's up epoch ends. Crash classes take the machine out of
    /// service, killing the resident copy (if any); brown-out classes leave
    /// it in service at degraded speed. Either way the next recovery is
    /// queued, so each covered machine alternates down/up forever at `O(1)`
    /// memory. Returns the task that fell back to the unscheduled pool, if
    /// the crash killed its last copy, so the run loop can notify the
    /// scheduler's [`Scheduler::on_task_unlaunched`] hook.
    #[allow(clippy::too_many_arguments)]
    fn handle_machine_down<O: SimObserver>(
        &mut self,
        machine: u32,
        crash: bool,
        now: Slot,
        ctx: &mut RunCtx,
        alive: &mut AliveIndex,
        queue: &mut EventQueue,
        observer: &mut O,
    ) -> Option<TaskId> {
        let victim = {
            let pool = ctx
                .pool
                .as_mut()
                .expect("machine events are only queued when a fault plan exists");
            let class = pool.class_of(machine);
            let down_for = pool.sample_epoch(class.mean_down_slots);
            queue.push(Event::MachineUp {
                at: now + down_for,
                machine,
                crash,
            });
            if !crash {
                // Brown-out: the machine keeps serving, but copies launched
                // on it during the epoch carry the class's workload
                // multiplier. Copies already running are unaffected — the
                // model degrades placement, it does not rewrite in-flight
                // finish times.
                pool.slow[machine as usize] = class.slowdown.unwrap_or(1.0);
                return None;
            }
            let m = machine as usize;
            debug_assert!(!pool.down[m], "down/up epochs alternate per machine");
            pool.down[m] = true;
            pool.num_down += 1;
            pool.down_since[m] = now;
            pool.resident[m].take()
        };
        match victim {
            // Work lost, not jobs lost: the resident copy dies and its task
            // re-enters the unscheduled pool if no sibling survives.
            Some(cid) => self.kill_copy(cid, now, ctx, alive, observer),
            None => {
                // Idle machine: its free-list entry goes stale (lazy
                // deletion) and the cluster loses one available slot.
                let pool = ctx.pool.as_mut().expect("fault plan checked above");
                debug_assert!(pool.enlisted[machine as usize]);
                pool.enlisted[machine as usize] = false;
                ctx.stats.available -= 1;
                None
            }
        }
    }

    /// A machine's down (or brown-out) epoch ends: crash classes re-enter
    /// service empty and idle, brown-out classes return to full speed. The
    /// next failure epoch is queued immediately.
    fn handle_machine_up(
        &mut self,
        machine: u32,
        crash: bool,
        now: Slot,
        ctx: &mut RunCtx,
        queue: &mut EventQueue,
    ) {
        let pool = ctx
            .pool
            .as_mut()
            .expect("machine events are only queued when a fault plan exists");
        let class = pool.class_of(machine);
        let up_for = pool.sample_epoch(class.mean_up_slots);
        queue.push(Event::MachineDown {
            at: now + up_for,
            machine,
            crash,
        });
        let m = machine as usize;
        if !crash {
            pool.slow[m] = 1.0;
            return;
        }
        debug_assert!(pool.down[m], "recovery of a machine that is not down");
        pool.down[m] = false;
        pool.num_down -= 1;
        pool.downtime += now.saturating_sub(pool.down_since[m]);
        debug_assert!(
            pool.resident[m].is_none(),
            "the crash killed the resident copy"
        );
        pool.free.push(machine);
        pool.enlisted[m] = true;
        ctx.stats.available += 1;
    }

    /// Kills the copy resident on a crashing machine: progress is wasted, the
    /// queued finish event goes stale, and if no sibling copy survives the
    /// task returns to the unscheduled pool so a later decision instant
    /// re-executes it. The machine is *not* returned to the available count —
    /// it goes straight from busy to down. Returns the task's id when its
    /// last copy just died and it re-entered the unscheduled pool.
    fn kill_copy<O: SimObserver>(
        &mut self,
        cid: CopyId,
        now: Slot,
        ctx: &mut RunCtx,
        alive: &mut AliveIndex,
        observer: &mut O,
    ) -> Option<TaskId> {
        let task_id = ctx.arena.get(cid).task();
        let waiting = ctx.end_copy(cid, now, CopyExit::Cancelled(CancelReason::Fault), observer);
        let job_idx = task_id.job.as_usize();
        let job = self
            .jobs
            .get_mut(job_idx)
            .expect("a killed copy's job is alive");
        let still_active =
            job.note_copies_ended(task_id.phase, task_id.index, 1, usize::from(waiting));
        // The killed copy may have carried the task's earliest finish.
        job.refresh_running_finish(task_id.phase, task_id.index, &ctx.arena);
        if still_active == 0 {
            // Every copy of the task is gone: work lost, not the job. The
            // task rejoins the unscheduled pool and the aggregate indexes
            // re-admit it, so the next decision instant can relaunch it.
            job.note_task_unlaunched(task_id.phase, task_id.index);
            alive.note_task_unlaunched(job_idx, job);
            Some(task_id)
        } else {
            None
        }
    }

    /// Starts processing of reduce copies that were launched before the Map
    /// phase of their job had completed, consuming the job's waiting-copy
    /// list — `O(waiting copies)`, with an `O(1)` early-out when nothing
    /// waits. Completion order is determined by the queue's `(slot, kind,
    /// copy-id)` key, so the drain order of the list is immaterial.
    fn activate_waiting_reduce_copies(
        &mut self,
        job_idx: usize,
        slot: Slot,
        ctx: &mut RunCtx,
        queue: &mut EventQueue,
    ) {
        let job = self
            .jobs
            .get_mut(job_idx)
            .expect("a job whose map phase just completed is resident");
        if job.waiting_copies() == 0 {
            return;
        }
        let RunCtx {
            arena,
            waiting_scratch,
            ..
        } = ctx;
        job.take_waiting_reduce(waiting_scratch);
        for &(index, cid) in waiting_scratch.iter() {
            let (phase, copy_seq) = {
                let copy = arena.get(cid);
                (copy.phase(), copy.seq())
            };
            if phase != CopyPhase::WaitingForMapPhase {
                // Cancelled while waiting; its list entry went stale.
                continue;
            }
            let finish = arena.start_running(cid, slot);
            queue.push(Event::CopyFinish {
                at: finish,
                copy: cid,
                seq: copy_seq,
            });
            job.note_copy_running(Phase::Reduce, index, finish);
        }
    }

    /// Applies the scheduler's actions, clipping launches to the available
    /// machines and the per-task copy cap.
    #[allow(clippy::too_many_arguments)]
    fn apply_actions<O: SimObserver>(
        &mut self,
        actions: &[Action],
        now: Slot,
        ctx: &mut RunCtx,
        alive: &mut AliveIndex,
        queue: &mut EventQueue,
        rng: &mut SimRng,
        observer: &mut O,
    ) -> Result<(), SimError> {
        for action in actions {
            match *action {
                Action::Launch { task, copies } => {
                    self.launch_copies(task, copies, now, ctx, alive, queue, rng, observer)?;
                }
                Action::CancelCopies { task, keep } => {
                    self.cancel_copies(task, keep, now, ctx, observer)?;
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn launch_copies<O: SimObserver>(
        &mut self,
        task_id: TaskId,
        requested: usize,
        now: Slot,
        ctx: &mut RunCtx,
        alive: &mut AliveIndex,
        queue: &mut EventQueue,
        rng: &mut SimRng,
        observer: &mut O,
    ) -> Result<(), SimError> {
        let job_idx = task_id.job.as_usize();
        if job_idx >= self.jobs.admitted() {
            return Err(SimError::UnknownTask(task_id));
        }
        let speed = self.config.machine_speed;
        let straggler = self.config.straggler;

        // Ignore launches for jobs that already completed, at this instant
        // or (retired) earlier: the scheduler may be acting on a stale view.
        // The liveness check must precede the task probe.
        let Some(job) = self.jobs.get_mut(job_idx).filter(|j| j.is_alive()) else {
            return Ok(());
        };
        // One probe of the task yields everything the validation and the
        // launch loop need.
        let (active_now, task_finished, mut first_launch) =
            match job.task(task_id.phase, task_id.index) {
                Some(task) => (
                    task.active_copies(),
                    task.is_finished(),
                    task.is_unscheduled(),
                ),
                None => return Err(SimError::UnknownTask(task_id)),
            };
        if task_finished {
            return Ok(());
        }
        let map_phase_complete = job.map_phase_complete();
        let spec_workload = job
            .spec()
            .tasks(task_id.phase)
            .get(task_id.index as usize)
            .map(|t| t.workload)
            .ok_or(SimError::UnknownTask(task_id))?;
        // Cloned lazily: only clone launches consult the distribution, and
        // first launches (the overwhelming majority) never pay for it.
        let mut distribution: Option<Option<mapreduce_workload::DurationDistribution>> = None;

        let capacity_cap = MAX_COPIES_PER_TASK.saturating_sub(active_now);
        let n = requested.min(ctx.stats.available).min(capacity_cap);
        if n == 0 {
            return Ok(());
        }

        for _ in 0..n {
            // Workload of this copy: the original sample for the first copy,
            // an i.i.d. resample for clones (the task workload again if the
            // job carries no distribution).
            let mut workload = if first_launch {
                spec_workload
            } else {
                let dist = distribution
                    .get_or_insert_with(|| job.spec().distribution(task_id.phase).cloned());
                match dist {
                    Some(dist) => dist.sample(rng),
                    None => spec_workload,
                }
            };
            if let StragglerModel::MachineSlowdown {
                probability,
                factor,
            } = straggler
            {
                if rng.gen_bool(probability.clamp(0.0, 1.0)) {
                    workload *= factor;
                }
            }
            // Fault runs pin every copy to a concrete machine; a machine in
            // a brown-out epoch inflates the copy's workload at launch time.
            // `n <= available` guarantees a live free-list entry each turn.
            let machine = ctx.pool.as_mut().map(|p| p.acquire());
            if let Some(m) = machine {
                let mult = ctx.pool.as_ref().expect("pool acquired above").slow[m as usize];
                if mult != 1.0 {
                    workload *= mult;
                }
            }
            let duration = ((workload / speed).ceil() as Slot).max(1);

            // The allocators hand back the id *and* the sequence the queued
            // event needs, so no read-back of the fresh record.
            let (copy_id, running_finish) = if task_id.phase == Phase::Reduce && !map_phase_complete
            {
                let (copy_id, _) = ctx.arena.alloc_waiting(task_id, now, duration);
                job.note_copy_waiting(task_id.index, copy_id);
                (copy_id, None)
            } else {
                let finish = now + duration;
                let (copy_id, seq) = ctx.arena.alloc_running(task_id, now, duration);
                queue.push(Event::CopyFinish {
                    at: finish,
                    copy: copy_id,
                    seq,
                });
                (copy_id, Some(finish))
            };

            if let Some(m) = machine {
                ctx.pool
                    .as_mut()
                    .expect("pool acquired above")
                    .assign(copy_id, m);
            }
            observer.on_copy_launched(CopyLaunched {
                at: now,
                copy: copy_id,
                task: task_id,
                clone: !first_launch,
                expected_finish: running_finish,
            });
            if first_launch {
                job.note_first_launch(task_id.phase, task_id.index);
                alive.note_first_launch(job_idx, job);
                first_launch = false;
            }
            job.note_copy_launched();
            if let Some(task) = job.task_mut(task_id.phase, task_id.index) {
                task.add_copy(copy_id, now);
            }
            if let Some(finish) = running_finish {
                job.note_copy_running(task_id.phase, task_id.index, finish);
            }
            ctx.stats.available -= 1;
        }
        Ok(())
    }

    /// Cancels all but the `keep` most-progressed active copies of a task,
    /// ranking them in the run-level scratch buffer (no per-call
    /// allocation).
    fn cancel_copies<O: SimObserver>(
        &mut self,
        task_id: TaskId,
        keep: usize,
        now: Slot,
        ctx: &mut RunCtx,
        observer: &mut O,
    ) -> Result<(), SimError> {
        let job_idx = task_id.job.as_usize();
        if job_idx >= self.jobs.admitted() {
            return Err(SimError::UnknownTask(task_id));
        }
        // A cancellation for a completed (or retired) job is a stale no-op,
        // like cancelling a finished task.
        let Some(job) = self.jobs.get_mut(job_idx).filter(|j| !j.is_complete()) else {
            return Ok(());
        };
        let task = match job.task(task_id.phase, task_id.index) {
            Some(t) => t,
            None => return Err(SimError::UnknownTask(task_id)),
        };
        if task.is_finished() {
            return Ok(());
        }
        // Order active copies by progress (descending, stable so ties keep
        // launch order) and cancel everything past the first `keep`.
        ctx.cancel_scratch.clear();
        for &cid in task.copies() {
            let copy = ctx.arena.get(cid);
            if copy.is_active() {
                ctx.cancel_scratch.push((copy.progress(now), cid));
            }
        }
        if ctx.cancel_scratch.len() <= keep {
            return Ok(());
        }
        ctx.cancel_scratch.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut waiting = 0;
        for pos in keep..ctx.cancel_scratch.len() {
            let cid = ctx.cancel_scratch[pos].1;
            let exit = CopyExit::Cancelled(CancelReason::Scheduler);
            waiting += usize::from(ctx.end_copy(cid, now, exit, observer));
        }
        let ended = ctx.cancel_scratch.len() - keep;
        job.note_copies_ended(task_id.phase, task_id.index, ended, waiting);
        job.refresh_running_finish(task_id.phase, task_id.index, &ctx.arena);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulers::{Fifo, MaxCloneScheduler, NoopScheduler};
    use mapreduce_workload::{JobId, JobSpecBuilder, Trace, WorkloadBuilder};

    fn two_job_trace() -> Trace {
        let j0 = JobSpecBuilder::new(JobId::new(0))
            .arrival(0)
            .weight(1.0)
            .map_tasks_from_workloads(&[10.0, 10.0])
            .reduce_tasks_from_workloads(&[5.0])
            .build();
        let j1 = JobSpecBuilder::new(JobId::new(1))
            .arrival(3)
            .weight(2.0)
            .map_tasks_from_workloads(&[4.0])
            .build();
        Trace::new(vec![j0, j1]).unwrap()
    }

    #[test]
    fn fifo_completes_all_jobs() {
        let trace = two_job_trace();
        let outcome = Simulation::new(SimConfig::new(4), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert_eq!(outcome.records().len(), 2);
        for r in outcome.records() {
            assert!(r.completion > r.arrival);
        }
        // Job 0: maps finish at 10 (both run in parallel), reduce runs 10..15.
        let r0 = outcome.record(JobId::new(0)).unwrap();
        assert_eq!(r0.completion, 15);
        assert_eq!(r0.flowtime(), 15);
        // Job 1: arrives at 3, single 4-slot map, machines are free.
        let r1 = outcome.record(JobId::new(1)).unwrap();
        assert_eq!(r1.completion, 7);
        assert_eq!(r1.flowtime(), 4);
    }

    #[test]
    fn reduce_respects_map_precedence_even_if_scheduled_early() {
        // Launches every unscheduled task of both phases at once, ignoring
        // the Map→Reduce gate: job 0's reduce launches at slot 0.
        struct Ungated;
        impl Scheduler for Ungated {
            fn name(&self) -> &str {
                "ungated"
            }
            fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
                for job in state.alive_jobs() {
                    for phase in Phase::ALL {
                        for task in job.unscheduled_tasks(phase) {
                            let task = task.id();
                            actions.push(Action::Launch { task, copies: 1 });
                        }
                    }
                }
            }
        }
        let trace = two_job_trace();
        let outcome = Simulation::new(SimConfig::new(100), &trace)
            .run(&mut Ungated)
            .unwrap();
        // The reduce waits out the Map phase (slots 0..10) on its machine,
        // then runs its 5 slots: maps 2·10 + reduce 15 + job 1's map 4.
        assert_eq!(outcome.busy_machine_slots, 39);
        let r0 = outcome.record(JobId::new(0)).unwrap();
        // Map phase ends at slot 10; reduce needs 5 more slots.
        assert_eq!(r0.completion, 15);
    }

    #[test]
    fn machines_are_a_hard_limit() {
        // 1 machine, two map tasks of 10 slots each plus a 5-slot reduce:
        // everything must serialise → completion at 25.
        let trace = Trace::new(vec![JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[10.0, 10.0])
            .reduce_tasks_from_workloads(&[5.0])
            .build()])
        .unwrap();
        let outcome = Simulation::new(SimConfig::new(1), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert_eq!(outcome.record(JobId::new(0)).unwrap().completion, 25);
        // Utilisation must be 100%: one machine busy the whole time.
        assert!((outcome.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noop_scheduler_stalls() {
        let trace = two_job_trace();
        let err = Simulation::new(SimConfig::new(4), &trace)
            .run(&mut NoopScheduler::default())
            .unwrap_err();
        assert!(matches!(err, SimError::SchedulerStalled { .. }));
    }

    #[test]
    fn horizon_is_enforced() {
        let trace = two_job_trace();
        let err = Simulation::new(SimConfig::new(1).with_max_slots(5), &trace)
            .run(&mut Fifo::new())
            .unwrap_err();
        assert!(matches!(err, SimError::HorizonExceeded { .. }));
    }

    #[test]
    fn cloning_speeds_up_completion_with_resampling() {
        // A single task with a very long sampled workload but a short-mean
        // distribution: clones resample and almost surely finish earlier.
        let dist = mapreduce_workload::DurationDistribution::Deterministic { value: 10.0 };
        let job = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[1000.0])
            .map_distribution(dist)
            .build();
        let trace = Trace::new(vec![job]).unwrap();

        let no_clone = Simulation::new(SimConfig::new(4).with_seed(1), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert_eq!(no_clone.record(JobId::new(0)).unwrap().completion, 1000);

        let cloned = Simulation::new(SimConfig::new(4).with_seed(1), &trace)
            .run(&mut MaxCloneScheduler::new(4))
            .unwrap();
        // The three clones resample a deterministic 10-slot workload, so the
        // task completes at slot 10.
        assert_eq!(cloned.record(JobId::new(0)).unwrap().completion, 10);
        assert!(cloned.total_copies > no_clone.total_copies);
    }

    #[test]
    fn clone_cap_is_respected() {
        let trace = Trace::new(vec![JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[50.0])
            .build()])
        .unwrap();
        let outcome = Simulation::new(SimConfig::new(100), &trace)
            .run(&mut MaxCloneScheduler::new(100))
            .unwrap();
        assert_eq!(outcome.total_copies, MAX_COPIES_PER_TASK);
    }

    #[test]
    fn machine_speed_shortens_durations() {
        let trace = Trace::new(vec![JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[100.0])
            .build()])
        .unwrap();
        let unit = Simulation::new(SimConfig::new(1), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        let fast = Simulation::new(SimConfig::new(1).with_machine_speed(2.0), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert_eq!(unit.record(JobId::new(0)).unwrap().completion, 100);
        assert_eq!(fast.record(JobId::new(0)).unwrap().completion, 50);
    }

    #[test]
    fn straggler_injection_slows_things_down() {
        let trace = WorkloadBuilder::new()
            .num_jobs(20)
            .map_tasks_per_job(2, 4)
            .reduce_tasks_per_job(1, 1)
            .build(3);
        let base_cfg = SimConfig::new(8).with_seed(5);
        let slow_cfg =
            SimConfig::new(8)
                .with_seed(5)
                .with_straggler_model(StragglerModel::MachineSlowdown {
                    probability: 1.0,
                    factor: 3.0,
                });
        let base = Simulation::new(base_cfg, &trace)
            .run(&mut Fifo::new())
            .unwrap();
        let slowed = Simulation::new(slow_cfg, &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert!(slowed.mean_flowtime() > base.mean_flowtime());
    }

    #[test]
    fn identical_seeds_give_identical_outcomes() {
        let trace = WorkloadBuilder::new().num_jobs(15).build(2);
        let a = Simulation::new(SimConfig::new(6).with_seed(9), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        let b = Simulation::new(SimConfig::new(6).with_seed(9), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ring_width_does_not_change_outcomes() {
        // The calendar ring width is a pure performance knob: any width must
        // produce the bit-identical trajectory (order comes from the
        // (slot, kind, sequence) key, not from bucket geometry).
        let trace = WorkloadBuilder::new()
            .num_jobs(25)
            .map_tasks_per_job(1, 6)
            .reduce_tasks_per_job(0, 2)
            .build(4);
        let reference = Simulation::new(SimConfig::new(8).with_seed(3), &trace)
            .run(&mut MaxCloneScheduler::new(3))
            .unwrap();
        for bits in [4, 6, 16] {
            let outcome = Simulation::new(
                SimConfig::new(8).with_seed(3).with_event_ring_bits(bits),
                &trace,
            )
            .run(&mut MaxCloneScheduler::new(3))
            .unwrap();
            assert_eq!(outcome, reference, "ring bits {bits} diverged");
        }
    }

    #[test]
    fn queue_counters_count_stale_finishes() {
        // Job 0's clone (10 slots) beats its original (50 slots); job 1
        // then runs two 100-slot copies that tie at slot 110. Two finish
        // events are delivered stale: the original's at 50 (its slot was
        // freed with job 0 and reused by job 1, so the sequence check
        // rejects it) and the losing tie at 110 (cancelled by the winner
        // in the same batch).
        use mapreduce_workload::DurationDistribution;
        let cloned = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[50.0])
            .map_distribution(DurationDistribution::Deterministic { value: 10.0 })
            .build();
        let long = JobSpecBuilder::new(JobId::new(1))
            .arrival(1)
            .map_tasks_from_workloads(&[100.0])
            .build();
        let trace = Trace::new(vec![cloned, long]).unwrap();
        let outcome = Simulation::new(SimConfig::new(2).with_seed(1), &trace)
            .run(&mut MaxCloneScheduler::new(2))
            .unwrap();
        assert_eq!(outcome.makespan, 110);
        let t = outcome.telemetry;
        assert_eq!(t.events_queued, 4);
        assert_eq!(t.stale_events, 2);
        assert_eq!(t.overflow_events, 0);
        assert_eq!(t.peak_queued_events, 3);
    }

    #[test]
    fn larger_cluster_is_not_slower() {
        let trace = WorkloadBuilder::new()
            .num_jobs(30)
            .map_tasks_per_job(4, 8)
            .build(4);
        let small = Simulation::new(SimConfig::new(4), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        let large = Simulation::new(SimConfig::new(64), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert!(large.mean_flowtime() <= small.mean_flowtime());
    }

    #[test]
    fn unknown_task_launch_is_an_error() {
        struct Bogus;
        impl Scheduler for Bogus {
            fn name(&self) -> &str {
                "bogus"
            }
            fn schedule_into(&mut self, _state: &ClusterState<'_>, actions: &mut Vec<Action>) {
                actions.push(Action::Launch {
                    task: TaskId::new(JobId::new(999), Phase::Map, 0),
                    copies: 1,
                });
            }
        }
        let trace = two_job_trace();
        let err = Simulation::new(SimConfig::new(2), &trace)
            .run(&mut Bogus)
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownTask(_)));
    }

    #[test]
    fn cancel_copies_trims_to_the_most_progressed() {
        // Launch 3 clones of one long task, then cancel down to 1: the
        // survivor must be the earliest-launched (most progressed) copy, the
        // two cancelled copies must release their machines immediately, and
        // their still-queued finish events must be skipped when they fire.
        struct CancelAfter {
            cancelled: bool,
        }
        impl Scheduler for CancelAfter {
            fn name(&self) -> &str {
                "cancel-after"
            }
            fn wakeup_interval(&self) -> Option<Slot> {
                Some(5)
            }
            fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
                let job = state.job(JobId::new(0)).unwrap();
                let task = job.task(Phase::Map, 0).unwrap();
                if task.is_unscheduled() {
                    actions.push(Action::Launch {
                        task: task.id(),
                        copies: 3,
                    });
                } else if !self.cancelled && state.now() >= 5 && !task.is_finished() {
                    self.cancelled = true;
                    actions.push(Action::CancelCopies {
                        task: task.id(),
                        keep: 1,
                    });
                }
            }
        }
        let trace = Trace::new(vec![JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[20.0])
            .build()])
        .unwrap();
        let outcome = Simulation::new(SimConfig::new(3).with_seed(1), &trace)
            .run(&mut CancelAfter { cancelled: false })
            .unwrap();
        // The job carries no distribution to resample clones from, so all
        // copies run the same 20-slot workload, so the survivor finishes
        // at 20; the two cancelled clones were busy for 5 slots each.
        assert_eq!(outcome.record(JobId::new(0)).unwrap().completion, 20);
        assert_eq!(outcome.total_copies, 3);
        assert_eq!(outcome.busy_machine_slots, 20 + 5 + 5);
    }

    #[test]
    fn busy_slots_never_exceed_capacity() {
        let trace = WorkloadBuilder::new().num_jobs(25).build(6);
        let outcome = Simulation::new(SimConfig::new(5), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert!(outcome.busy_machine_slots <= 5 * outcome.makespan);
        assert!(outcome.utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn crashes_kill_and_reexecute_work() {
        use crate::config::{FaultClass, FaultPlan};
        let trace = WorkloadBuilder::new().num_jobs(20).build(11);
        let plan = FaultPlan::new(vec![FaultClass::crashes(4, 40.0, 15.0)]);
        let faulty_cfg = SimConfig::new(8).with_seed(3).with_fault_plan(plan);

        let clean = Simulation::new(SimConfig::new(8).with_seed(3), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        let faulty = Simulation::new(faulty_cfg.clone(), &trace)
            .run(&mut Fifo::new())
            .unwrap();

        // Work is lost, jobs are not: every job still completes.
        assert_eq!(faulty.records().len(), 20);
        assert!(faulty.copies_killed_by_fault > 0, "MTBF 40 must bite");
        assert!(faulty.wasted_work > 0);
        assert!(faulty.wasted_work <= faulty.busy_machine_slots);
        assert!(faulty.machine_downtime > 0);
        // Churn can only hurt an identical workload.
        assert!(faulty.mean_flowtime() >= clean.mean_flowtime());
        // A clean run reports zeroed fault counters.
        assert_eq!(clean.copies_killed_by_fault, 0);
        assert_eq!(clean.wasted_work, 0);
        assert_eq!(clean.machine_downtime, 0);

        // Same seed, same plan → bit-identical trajectory.
        let again = Simulation::new(faulty_cfg, &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert_eq!(faulty, again);
    }

    #[test]
    fn brownouts_slow_launches_without_killing() {
        use crate::config::{FaultClass, FaultPlan};
        // Every machine brown-outs almost immediately and stays degraded for
        // effectively the whole run: copies launch with 3x workloads, nothing
        // is killed, no machine ever leaves service.
        let trace = Trace::new(vec![JobSpecBuilder::new(JobId::new(0))
            .arrival(10)
            .map_tasks_from_workloads(&[12.0, 12.0])
            .build()])
        .unwrap();
        let plan = FaultPlan::new(vec![FaultClass::brownouts(4, 1.0, 1e6, 3.0)]);
        let clean = Simulation::new(SimConfig::new(4).with_seed(5), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        let browned = Simulation::new(SimConfig::new(4).with_seed(5).with_fault_plan(plan), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert_eq!(browned.records().len(), 1);
        assert_eq!(browned.copies_killed_by_fault, 0);
        assert_eq!(browned.wasted_work, 0);
        assert_eq!(browned.machine_downtime, 0);
        assert!(
            browned.mean_flowtime() > clean.mean_flowtime(),
            "3x launch multiplier must stretch the flowtime"
        );
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        use crate::config::FaultPlan;
        let trace = WorkloadBuilder::new().num_jobs(30).build(4);
        let base = Simulation::new(SimConfig::new(6).with_seed(2), &trace)
            .run(&mut MaxCloneScheduler::new(3))
            .unwrap();
        let with_empty_plan = Simulation::new(
            SimConfig::new(6)
                .with_seed(2)
                .with_fault_plan(FaultPlan::none()),
            &trace,
        )
        .run(&mut MaxCloneScheduler::new(3))
        .unwrap();
        assert_eq!(base, with_empty_plan);
    }

    #[test]
    fn arrival_is_applied_before_a_same_slot_completion() {
        // Job 1 arrives at slot 5, the instant job 0's only copy finishes.
        // The observer must see the arrival before the completion, and the
        // scheduler's completion hook must already see job 1 alive.
        #[derive(Default)]
        struct Log(Vec<(Slot, &'static str, usize)>);
        impl SimObserver for Log {
            fn on_job_arrived(&mut self, at: Slot, job: JobId) {
                self.0.push((at, "arrived", job.as_usize()));
            }
            fn on_copy_finished(&mut self, event: CopyFinished) {
                self.0
                    .push((event.at, "finished", event.task.job.as_usize()));
            }
        }
        struct SeesArrival {
            fifo: Fifo,
            job1_alive_at_finish: Option<bool>,
        }
        impl Scheduler for SeesArrival {
            fn name(&self) -> &str {
                "sees-arrival"
            }
            fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
                self.fifo.schedule_into(state, actions);
            }
            fn on_task_finished(&mut self, task: TaskId, state: &ClusterState<'_>) {
                if task.job == JobId::new(0) {
                    let job1 = state.job(JobId::new(1));
                    self.job1_alive_at_finish = Some(job1.is_some_and(|j| j.is_alive()));
                }
            }
        }
        let spec = |id: u64, arrival: Slot| {
            JobSpecBuilder::new(JobId::new(id))
                .arrival(arrival)
                .map_tasks_from_workloads(&[5.0])
                .build()
        };
        let trace = Trace::new(vec![spec(0, 0), spec(1, 5)]).unwrap();
        let mut scheduler = SeesArrival {
            fifo: Fifo::new(),
            job1_alive_at_finish: None,
        };
        let mut log = Log::default();
        let outcome = Simulation::new(SimConfig::new(1), &trace)
            .run_with_observer(&mut scheduler, &mut log)
            .unwrap();
        assert_eq!(
            log.0,
            vec![
                (0, "arrived", 0),
                (5, "arrived", 1),
                (5, "finished", 0),
                (10, "finished", 1),
            ]
        );
        assert_eq!(scheduler.job1_alive_at_finish, Some(true));
        assert_eq!(outcome.record(JobId::new(1)).unwrap().completion, 10);
    }

    /// FIFO that watches job 0 leave the job table: its completion hook and
    /// that instant's decision must still read it, every later decision must
    /// find it retired. The first decision that finds it retired issues
    /// `stale` ahead of FIFO's own launches.
    struct RetireProbe {
        fifo: Fifo,
        stale: Vec<Action>,
        completed_at: Option<Slot>,
        retired_seen_at: Option<Slot>,
    }

    impl RetireProbe {
        fn new(stale: Vec<Action>) -> Self {
            RetireProbe {
                fifo: Fifo::new(),
                stale,
                completed_at: None,
                retired_seen_at: None,
            }
        }
    }

    impl Scheduler for RetireProbe {
        fn name(&self) -> &str {
            self.fifo.name()
        }

        fn on_task_finished(&mut self, task: TaskId, state: &ClusterState<'_>) {
            if task.job == JobId::new(0) {
                let job = state
                    .job(task.job)
                    .expect("a hook reads the job that completed at its instant");
                assert!(job.is_complete());
                self.completed_at = Some(state.now());
            }
        }

        fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
            let job0 = state.job(JobId::new(0));
            match self.completed_at {
                Some(at) if at == state.now() => assert!(job0.is_some_and(|j| j.is_complete())),
                Some(_) => {
                    assert!(job0.is_none(), "slot {}: job 0 not retired", state.now());
                    if self.retired_seen_at.is_none() {
                        self.retired_seen_at = Some(state.now());
                        actions.extend(self.stale.iter().copied());
                    }
                }
                None => {}
            }
            self.fifo.schedule_into(state, actions);
        }
    }

    /// Job 0 completes at 5, job 1 arrives at 10 and completes at 15, job 2
    /// arrives at 100: decisions at 0, 5, 10, 15 and 100.
    fn retire_trace() -> Trace {
        let spec = |id: u64, arrival: Slot| {
            JobSpecBuilder::new(JobId::new(id))
                .arrival(arrival)
                .map_tasks_from_workloads(&[5.0])
                .build()
        };
        Trace::new(vec![spec(0, 0), spec(1, 10), spec(2, 100)]).unwrap()
    }

    #[test]
    fn completed_jobs_are_readable_until_their_instant_ends() {
        let trace = retire_trace();
        let mut probe = RetireProbe::new(Vec::new());
        let outcome = Simulation::new(SimConfig::new(2), &trace)
            .run(&mut probe)
            .unwrap();
        assert_eq!(probe.completed_at, Some(5));
        assert_eq!(probe.retired_seen_at, Some(10));
        assert_eq!(outcome.records().len(), 3);
    }

    #[test]
    fn actions_naming_a_retired_job_are_stale_no_ops() {
        let trace = retire_trace();
        let task = TaskId::new(JobId::new(0), Phase::Map, 0);
        let mut probe = RetireProbe::new(vec![
            Action::Launch { task, copies: 2 },
            Action::CancelCopies { task, keep: 0 },
            // Out of range even for a resident job: never probed.
            Action::Launch {
                task: TaskId::new(JobId::new(0), Phase::Reduce, 7),
                copies: 1,
            },
        ]);
        let outcome = Simulation::new(SimConfig::new(2), &trace)
            .run(&mut probe)
            .unwrap();
        assert_eq!(probe.retired_seen_at, Some(10));
        let plain = Simulation::new(SimConfig::new(2), &trace)
            .run(&mut Fifo::new())
            .unwrap();
        assert_eq!(outcome, plain);
    }

    #[test]
    fn launching_a_job_not_yet_admitted_is_still_unknown() {
        // Job 2 is in the source but arrives at 100: at slot 10 its id is
        // past admission.
        let task = TaskId::new(JobId::new(2), Phase::Map, 0);
        let mut probe = RetireProbe::new(vec![Action::Launch { task, copies: 1 }]);
        let err = Simulation::new(SimConfig::new(2), &retire_trace())
            .run(&mut probe)
            .unwrap_err();
        assert!(
            matches!(err, SimError::UnknownTask(t) if t == task),
            "{err}"
        );
        assert_eq!(probe.retired_seen_at, Some(10));
    }

    /// A source that yields hand-written specs verbatim, contract or not,
    /// while declaring `declared` jobs.
    struct ScriptedSource {
        specs: std::vec::IntoIter<mapreduce_workload::JobSpec>,
        declared: usize,
    }

    impl JobSource for ScriptedSource {
        fn name(&self) -> &str {
            "scripted"
        }

        fn total_jobs(&self) -> usize {
            self.declared
        }

        fn next_job(&mut self) -> Option<mapreduce_workload::JobSpec> {
            self.specs.next()
        }

        fn resident_jobs(&self) -> usize {
            self.specs.len()
        }
    }

    /// Runs single-task jobs with the given `(id, arrival)` pairs from a
    /// source declaring `declared` jobs and returns the run's result.
    fn run_scripted(declared: usize, jobs: &[(u64, Slot)]) -> Result<SimOutcome, SimError> {
        let specs: Vec<_> = jobs
            .iter()
            .map(|&(id, arrival)| {
                JobSpecBuilder::new(JobId::new(id))
                    .arrival(arrival)
                    .map_tasks_from_workloads(&[3.0])
                    .build()
            })
            .collect();
        let source = ScriptedSource {
            specs: specs.into_iter(),
            declared,
        };
        Simulation::from_source(SimConfig::new(2), Box::new(source)).run(&mut Fifo::new())
    }

    /// Runs two valid jobs followed by `(id, arrival)` as the third.
    fn run_with_third_job(id: u64, arrival: Slot) -> Result<SimOutcome, SimError> {
        run_scripted(3, &[(0, 0), (1, 5), (id, arrival)])
    }

    fn assert_rejected_at(result: Result<SimOutcome, SimError>, at: usize) {
        let err = result.unwrap_err();
        assert!(
            matches!(err, SimError::InvalidSourceJob { index, .. } if index == at),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn source_skipping_a_dense_id_is_rejected_at_its_index() {
        assert_rejected_at(run_with_third_job(3, 8), 2);
    }

    #[test]
    fn source_with_backwards_arrival_is_rejected_at_its_index() {
        assert_rejected_at(run_with_third_job(2, 4), 2);
    }

    #[test]
    fn source_ending_before_its_declared_total_is_rejected_at_its_index() {
        assert_rejected_at(run_scripted(3, &[(0, 0), (1, 5)]), 2);
    }

    #[test]
    fn source_yielding_past_its_declared_total_is_rejected_at_its_index() {
        assert_rejected_at(run_scripted(3, &[(0, 0), (1, 5), (2, 8), (3, 8)]), 3);
    }
}
