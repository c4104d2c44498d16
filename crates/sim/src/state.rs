//! Scheduler-facing view of the cluster: job and task state, the
//! [`ClusterState`] snapshot, the [`Action`] vocabulary and the [`Scheduler`]
//! trait.
//!
//! The engine owns all mutable state; schedulers only ever receive `&`
//! references and communicate decisions back through [`Action`] values, which
//! keeps every scheduling algorithm trivially deterministic and replayable.

use crate::copy::{CopyArena, CopyId, CopyList, CopyPhase};
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};
use mapreduce_workload::{JobId, JobSpec, Phase, TaskId};
use std::collections::{BTreeSet, VecDeque};

/// Simulated time, measured in slots (1 slot = 1 second at the paper's
/// default granularity).
pub type Slot = u64;

/// Scheduling status of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// No copy has been launched yet (the task counts towards `m_i(l)` /
    /// `r_i(l)` in the paper's notation).
    Unscheduled,
    /// At least one copy is active, none has finished.
    Scheduled,
    /// Some copy finished; the task is complete.
    Finished,
}

/// Per-task runtime state.
///
/// The copies themselves live in the run-level [`CopyArena`]; the task keeps
/// a small slice of [`CopyId`]s (typically one, a handful under cloning) plus
/// cached aggregates, so per-copy queries index the arena instead of owning
/// the records.
#[derive(Debug, Clone)]
pub struct TaskState {
    id: TaskId,
    workload: f64,
    status: TaskStatus,
    copies: CopyList,
    /// Cached number of copies currently occupying machines.
    active: usize,
    first_launched_at: Option<Slot>,
    finished_at: Option<Slot>,
    /// Cached earliest finish slot across this task's *running* copies.
    /// Mirrors `min_remaining(now) + now`; maintained by the engine so the
    /// per-phase running-by-finish index can locate entries without scanning
    /// the copy list. `None` while no copy is running.
    running_finish: Option<Slot>,
}

impl TaskState {
    pub(crate) fn new(id: TaskId, workload: f64) -> Self {
        TaskState {
            id,
            workload,
            status: TaskStatus::Unscheduled,
            copies: CopyList::default(),
            active: 0,
            first_launched_at: None,
            finished_at: None,
            running_finish: None,
        }
    }

    /// Identity of the task.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The ground-truth workload of the original task attempt. Exposed for
    /// metrics and oracle baselines; the paper's schedulers must not use it.
    pub fn true_workload(&self) -> f64 {
        self.workload
    }

    /// Scheduling status.
    pub fn status(&self) -> TaskStatus {
        self.status
    }

    /// Whether no copy has been launched yet.
    pub fn is_unscheduled(&self) -> bool {
        self.status == TaskStatus::Unscheduled
    }

    /// Whether the task has completed.
    pub fn is_finished(&self) -> bool {
        self.status == TaskStatus::Finished
    }

    /// Ids of every copy ever launched for this task (active, finished or
    /// cancelled), in launch order. Resolve them through the run's
    /// [`CopyArena`] ([`ClusterState::copies`]).
    pub fn copies(&self) -> &[CopyId] {
        self.copies.as_slice()
    }

    /// Number of copies currently occupying machines. `O(1)`: the engine
    /// maintains the count across launches, completions and cancellations.
    pub fn active_copies(&self) -> usize {
        self.active
    }

    /// Slot of the first launch, if any.
    pub fn first_launched_at(&self) -> Option<Slot> {
        self.first_launched_at
    }

    /// Slot at which the task finished, if it has.
    pub fn finished_at(&self) -> Option<Slot> {
        self.finished_at
    }

    /// Best (largest) progress fraction across the task's copies at `now`.
    pub fn best_progress(&self, copies: &CopyArena, now: Slot) -> f64 {
        self.copies
            .as_slice()
            .iter()
            .map(|&id| copies.get(id))
            .filter(|c| c.phase() != CopyPhase::Cancelled)
            .map(|c| c.progress(now))
            .fold(0.0, f64::max)
    }

    /// Smallest remaining processing time across running copies at `now`
    /// (`None` if nothing is running).
    pub fn min_remaining(&self, copies: &CopyArena, now: Slot) -> Option<Slot> {
        self.copies
            .as_slice()
            .iter()
            .map(|&id| copies.get(id))
            .filter(|c| c.phase() == CopyPhase::Running)
            .map(|c| c.remaining(now))
            .min()
    }

    /// Elapsed processing time of the oldest active copy at `now`, zero if no
    /// copy is active. Detection-based schedulers use this as the "age" of
    /// the task attempt.
    pub fn oldest_active_elapsed(&self, copies: &CopyArena, now: Slot) -> Slot {
        self.copies
            .as_slice()
            .iter()
            .map(|&id| copies.get(id))
            .filter(|c| c.is_active())
            .map(|c| c.elapsed(now))
            .max()
            .unwrap_or(0)
    }

    // ----- engine-internal mutation -----

    pub(crate) fn add_copy(&mut self, id: CopyId, launched_at: Slot) {
        if self.first_launched_at.is_none() {
            self.first_launched_at = Some(launched_at);
        }
        if self.status == TaskStatus::Unscheduled {
            self.status = TaskStatus::Scheduled;
        }
        self.copies.push(id);
        self.active += 1;
    }

    pub(crate) fn mark_finished(&mut self, at: Slot) {
        self.status = TaskStatus::Finished;
        self.finished_at = Some(at);
    }

    /// Returns the task to the unscheduled pool after a machine fault killed
    /// its last active copy. `first_launched_at` survives — the task *was*
    /// attempted; re-execution is a new attempt of the same task, and
    /// duration-based estimators (Mantri's `t_new`) keep measuring from the
    /// original launch.
    pub(crate) fn mark_unscheduled(&mut self) {
        debug_assert_eq!(self.active, 0, "unscheduling a task with active copies");
        debug_assert_ne!(
            self.status,
            TaskStatus::Finished,
            "unscheduling a finished task"
        );
        self.status = TaskStatus::Unscheduled;
        self.running_finish = None;
    }
}

/// Incrementally maintained per-phase bookkeeping of one job.
///
/// Invariants (maintained by the engine through the `note_*` mutators):
/// * `unscheduled` holds exactly the indices of tasks with
///   [`TaskStatus::Unscheduled`], sorted ascending.
/// * `running` holds exactly the indices of tasks with
///   [`TaskStatus::Scheduled`], sorted ascending.
/// * `running_by_finish` holds one `(finish, index)` entry per task that has
///   at least one copy in `CopyPhase::Running`, keyed by the earliest finish
///   slot across its running copies, sorted by `(finish, index)`.
/// * `completed_count` / `completed_duration_sum` aggregate, over finished
///   tasks, the wall-clock duration from first launch to completion (the
///   quantity Mantri's `t_new` estimator averages). Durations are integral
///   slots, so the incremental sum is exact and order-independent.
#[derive(Debug, Clone, Default)]
struct PhaseIndex {
    /// The live free-list is `unscheduled[unscheduled_head..]`; schedulers
    /// overwhelmingly launch tasks in free-list order, so consuming from the
    /// front advances the cursor (`O(1)`) instead of shifting the vector —
    /// `Vec::remove` is only paid for out-of-order launches.
    unscheduled: Vec<u32>,
    unscheduled_head: usize,
    running: Vec<u32>,
    running_by_finish: Vec<(Slot, u32)>,
    completed_count: usize,
    completed_duration_sum: u64,
}

impl PhaseIndex {
    fn with_tasks(count: usize) -> Self {
        PhaseIndex {
            unscheduled: (0..count as u32).collect(),
            ..PhaseIndex::default()
        }
    }

    /// The unscheduled task indices, sorted ascending.
    fn unscheduled(&self) -> &[u32] {
        &self.unscheduled[self.unscheduled_head..]
    }

    /// Removes `index` from the unscheduled free-list, if present.
    fn remove_unscheduled(&mut self, index: u32) {
        if let Ok(pos) = self.unscheduled().binary_search(&index) {
            if pos == 0 {
                self.unscheduled_head += 1;
            } else {
                self.unscheduled.remove(self.unscheduled_head + pos);
            }
        }
    }

    /// Re-inserts `index` into the unscheduled free-list (fault-driven
    /// re-execution). The live list is `unscheduled[unscheduled_head..]`,
    /// sorted; an index smaller than every live entry reuses the slot just
    /// behind the cursor (`O(1)`), anything else pays the sorted insert.
    fn insert_unscheduled(&mut self, index: u32) {
        match self.unscheduled().binary_search(&index) {
            Ok(_) => {}
            Err(pos) if pos == 0 && self.unscheduled_head > 0 => {
                self.unscheduled_head -= 1;
                self.unscheduled[self.unscheduled_head] = index;
            }
            Err(pos) => {
                self.unscheduled.insert(self.unscheduled_head + pos, index);
            }
        }
    }
}

/// Which optional per-job indices the engine should maintain, declared by a
/// [`Scheduler`] through [`Scheduler::index_demands`].
///
/// Keeping a sorted index current costs `O(width)` memmove per launch and
/// completion, where width is the number of concurrently running tasks of a
/// job — a real tax on wide jobs (hundreds of tasks) under schedulers that
/// never read the index. The engine therefore maintains each one only when
/// the scheduler declares it. Hand-built [`JobState`]s (unit tests, scheduler
/// crates) maintain everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexDemands {
    /// Maintain the per-phase running free-list ([`JobState::running_tasks`],
    /// `running` in the phase index). Needed by LATE-style scans over running
    /// work.
    pub running_list: bool,
    /// Maintain the per-phase running-by-finish order
    /// ([`JobState::running_by_finish`]). Needed by Mantri-style straggler
    /// cutoffs.
    pub finish_index: bool,
}

impl IndexDemands {
    /// Every index maintained (the default for hand-built job states).
    pub const ALL: IndexDemands = IndexDemands {
        running_list: true,
        finish_index: true,
    };
}

/// Per-job runtime state: the static [`JobSpec`] plus the dynamic progress of
/// all its tasks.
#[derive(Debug, Clone)]
pub struct JobState {
    spec: JobSpec,
    map_tasks: Vec<TaskState>,
    reduce_tasks: Vec<TaskState>,
    map_index: PhaseIndex,
    reduce_index: PhaseIndex,
    unfinished_map: usize,
    unfinished_reduce: usize,
    active_copies: usize,
    copies_launched: usize,
    completed_at: Option<Slot>,
    /// Reduce copies launched before the Map phase completed, as
    /// `(task index, copy id)` in launch order. Consumed wholesale when the
    /// Map phase finishes; entries whose copy was cancelled in the meantime
    /// are skipped at activation (the counter below stays exact).
    waiting_reduce: Vec<(u32, CopyId)>,
    /// Exact number of copies currently in
    /// [`CopyPhase::WaitingForMapPhase`].
    waiting_copies: usize,
    /// Which optional indices to keep current (see [`IndexDemands`]).
    track: IndexDemands,
    /// What the [`AliveIndex`] holding this job last folded for it.
    indexed: IndexedAs,
}

/// The two facts an [`AliveIndex`] remembers per job between updates, kept
/// on the job so they are dropped with it when it retires.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexedAs {
    /// The [`JobState::launchable_unscheduled`] count folded into the
    /// launchable aggregate.
    launchable: usize,
    /// The job's key in the priority order; `NaN` while it is not ranked.
    rank_key: f64,
}

impl Default for IndexedAs {
    fn default() -> Self {
        IndexedAs {
            launchable: 0,
            rank_key: f64::NAN,
        }
    }
}

impl JobState {
    /// Creates the initial (nothing scheduled) runtime state for a job.
    ///
    /// The engine builds these internally; the constructor is public so that
    /// scheduler crates can unit-test their priority and sharing logic against
    /// hand-crafted job states without running a full simulation.
    pub fn new(spec: JobSpec) -> Self {
        let map_tasks: Vec<TaskState> = spec
            .map_tasks
            .iter()
            .map(|t| TaskState::new(t.id, t.workload))
            .collect();
        let reduce_tasks: Vec<TaskState> = spec
            .reduce_tasks
            .iter()
            .map(|t| TaskState::new(t.id, t.workload))
            .collect();
        let unfinished_map = map_tasks.len();
        let unfinished_reduce = reduce_tasks.len();
        JobState {
            map_index: PhaseIndex::with_tasks(unfinished_map),
            reduce_index: PhaseIndex::with_tasks(unfinished_reduce),
            unfinished_map,
            unfinished_reduce,
            active_copies: 0,
            copies_launched: 0,
            completed_at: None,
            waiting_reduce: Vec::new(),
            waiting_copies: 0,
            track: IndexDemands::ALL,
            indexed: IndexedAs::default(),
            map_tasks,
            reduce_tasks,
            spec,
        }
    }

    /// Restricts which optional indices are maintained; the engine calls this
    /// once per run with the scheduler's [`Scheduler::index_demands`].
    pub(crate) fn set_index_tracking(&mut self, demands: IndexDemands) {
        self.track = demands;
    }

    fn phase_index(&self, phase: Phase) -> &PhaseIndex {
        match phase {
            Phase::Map => &self.map_index,
            Phase::Reduce => &self.reduce_index,
        }
    }

    fn phase_index_mut(&mut self, phase: Phase) -> &mut PhaseIndex {
        match phase {
            Phase::Map => &mut self.map_index,
            Phase::Reduce => &mut self.reduce_index,
        }
    }

    /// Identity of the job.
    pub fn id(&self) -> JobId {
        self.spec.id
    }

    /// Weight `w_i` of the job.
    pub fn weight(&self) -> f64 {
        self.spec.weight
    }

    /// Arrival slot `a_i`.
    pub fn arrival(&self) -> Slot {
        self.spec.arrival
    }

    /// The full static job description (task counts, phase statistics, …).
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Whether every task of the job has finished.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Whether the job still has unfinished tasks. The engine holds only
    /// admitted jobs, so this is "arrived and not complete".
    pub fn is_alive(&self) -> bool {
        !self.is_complete()
    }

    /// Slot at which the job completed, if it has.
    pub fn completed_at(&self) -> Option<Slot> {
        self.completed_at
    }

    /// Whether every map task has finished (the precedence gate for the
    /// Reduce phase).
    pub fn map_phase_complete(&self) -> bool {
        self.unfinished_map == 0
    }

    /// Task states of a phase.
    pub fn tasks(&self, phase: Phase) -> &[TaskState] {
        match phase {
            Phase::Map => &self.map_tasks,
            Phase::Reduce => &self.reduce_tasks,
        }
    }

    /// A single task state.
    pub fn task(&self, phase: Phase, index: u32) -> Option<&TaskState> {
        self.tasks(phase).get(index as usize)
    }

    /// Number of tasks of `phase` that have not been launched yet
    /// (`m_i(l)` / `r_i(l)` in the paper).
    pub fn num_unscheduled(&self, phase: Phase) -> usize {
        self.phase_index(phase).unscheduled().len()
    }

    /// Total number of unscheduled tasks across both phases (`c_i(l)`).
    pub fn total_unscheduled(&self) -> usize {
        self.map_index.unscheduled().len() + self.reduce_index.unscheduled().len()
    }

    /// The Map→Reduce launch rule: the one phase whose unscheduled tasks a
    /// scheduler can usefully launch *now*, with that phase's unscheduled
    /// free-list (sorted ascending, never empty). Unscheduled map tasks come
    /// first; unscheduled reduce tasks only once the Map phase completed (a
    /// reduce copy launched earlier just parks in the waiting list). `None`
    /// when nothing can launch now.
    ///
    /// At most one phase is ever launchable: an unscheduled map task keeps
    /// the Map phase incomplete, which gates every reduce task.
    pub fn launchable(&self) -> Option<(Phase, &[u32])> {
        let maps = self.map_index.unscheduled();
        let reduces = self.reduce_index.unscheduled();
        if !maps.is_empty() {
            Some((Phase::Map, maps))
        } else if self.map_phase_complete() && !reduces.is_empty() {
            Some((Phase::Reduce, reduces))
        } else {
            None
        }
    }

    /// Number of unscheduled tasks a scheduler could usefully launch *now*:
    /// the length of [`JobState::launchable`]'s free-list, 0 if none.
    pub fn launchable_unscheduled(&self) -> usize {
        self.launchable().map_or(0, |(_, tasks)| tasks.len())
    }

    /// Number of tasks of `phase` that have not finished yet.
    pub fn num_unfinished(&self, phase: Phase) -> usize {
        match phase {
            Phase::Map => self.unfinished_map,
            Phase::Reduce => self.unfinished_reduce,
        }
    }

    /// Ids of the unscheduled tasks of a phase, in index order. Schedulers
    /// that want the paper's "choose at random" behaviour can pick any subset;
    /// the engine does not care which unscheduled task is launched first.
    ///
    /// Backed by the per-phase free-list: iteration is `O(unscheduled)`, not
    /// `O(tasks)`.
    pub fn unscheduled_tasks(&self, phase: Phase) -> impl Iterator<Item = &TaskState> {
        let tasks = self.tasks(phase);
        self.phase_index(phase)
            .unscheduled()
            .iter()
            .map(move |&i| &tasks[i as usize])
    }

    /// Indices of the unscheduled tasks of a phase, sorted ascending.
    ///
    /// The cheapest way for a scheduler to enumerate launchable work: build a
    /// [`mapreduce_workload::TaskId`] from the job id, the phase and an index.
    pub fn unscheduled_indices(&self, phase: Phase) -> &[u32] {
        self.phase_index(phase).unscheduled()
    }

    /// Tasks of a phase that are scheduled (running) but not finished.
    ///
    /// Backed by the per-phase free-list: iteration is `O(running)`, not
    /// `O(tasks)`. Maintained only when the scheduler declares
    /// [`IndexDemands::running_list`] (empty otherwise).
    pub fn running_tasks(&self, phase: Phase) -> impl Iterator<Item = &TaskState> {
        debug_assert!(
            self.track.running_list,
            "running_tasks read without declaring IndexDemands::running_list"
        );
        let tasks = self.tasks(phase);
        self.phase_index(phase)
            .running
            .iter()
            .map(move |&i| &tasks[i as usize])
    }

    /// `(finish_slot, task_index)` entries for every task of `phase` that has
    /// at least one copy currently running, keyed by the earliest finish slot
    /// across its running copies and sorted by `(finish_slot, index)`.
    ///
    /// Detection-based schedulers (Mantri) use `partition_point` on this
    /// slice to examine only the straggler tail instead of rescanning every
    /// running task on every wakeup. Maintained only when the scheduler
    /// declares [`IndexDemands::finish_index`] (empty otherwise).
    pub fn running_by_finish(&self, phase: Phase) -> &[(Slot, u32)] {
        debug_assert!(
            self.track.finish_index,
            "running_by_finish read without declaring IndexDemands::finish_index"
        );
        &self.phase_index(phase).running_by_finish
    }

    /// `(count, total_duration)` over the finished tasks of `phase`, where a
    /// task's duration is the slots from its first launch to its completion.
    pub fn completed_duration_stats(&self, phase: Phase) -> (usize, u64) {
        let index = self.phase_index(phase);
        (index.completed_count, index.completed_duration_sum)
    }

    /// Mean observed duration (first launch to completion) of the finished
    /// tasks of `phase`, or `None` if nothing has finished yet. `O(1)`: the
    /// aggregate is maintained incrementally as tasks complete.
    pub fn mean_completed_duration(&self, phase: Phase) -> Option<f64> {
        let index = self.phase_index(phase);
        if index.completed_count > 0 {
            Some(index.completed_duration_sum as f64 / index.completed_count as f64)
        } else {
            None
        }
    }

    /// Number of machines currently occupied by this job's copies
    /// (`σ_i(l)` in the paper).
    pub fn active_copies(&self) -> usize {
        self.active_copies
    }

    /// Number of this job's copies currently waiting for the Map phase
    /// (reduce copies launched early). `O(1)`; lets the engine skip the
    /// activation pass entirely for jobs that never launched a reduce copy
    /// ahead of its precedence constraint.
    pub fn waiting_copies(&self) -> usize {
        self.waiting_copies
    }

    /// Total number of copies launched for this job so far (original attempts
    /// plus clones plus speculative backups).
    pub fn copies_launched(&self) -> usize {
        self.copies_launched
    }

    /// The remaining effective workload `U_i(l)` of Equation (4):
    /// `m_i(l)·(E^m + rσ^m) + r_i(l)·(E^r + rσ^r)`, where `m_i(l)` and
    /// `r_i(l)` count *unscheduled* tasks.
    pub fn remaining_effective_workload(&self, r: f64) -> f64 {
        self.map_index.unscheduled().len() as f64 * self.spec.map_stats.effective_task_workload(r)
            + self.reduce_index.unscheduled().len() as f64
                * self.spec.reduce_stats.effective_task_workload(r)
    }

    // ----- engine-internal mutation -----

    pub(crate) fn task_mut(&mut self, phase: Phase, index: u32) -> Option<&mut TaskState> {
        match phase {
            Phase::Map => self.map_tasks.get_mut(index as usize),
            Phase::Reduce => self.reduce_tasks.get_mut(index as usize),
        }
    }

    /// Records the first launch of task `index`: moves it from the
    /// unscheduled free-list to the running free-list (the latter only when
    /// the scheduler demands it).
    pub(crate) fn note_first_launch(&mut self, phase: Phase, index: u32) {
        let track_running = self.track.running_list;
        let pi = self.phase_index_mut(phase);
        pi.remove_unscheduled(index);
        if track_running {
            if let Err(pos) = pi.running.binary_search(&index) {
                pi.running.insert(pos, index);
            }
        }
    }

    pub(crate) fn note_copy_launched(&mut self) {
        self.active_copies += 1;
        self.copies_launched += 1;
    }

    /// Records that `ended` copies of task `index` left their machines
    /// (finished, cancelled or killed), `waiting` of them while parked for
    /// the Map phase (their waiting-list entries go stale and are skipped at
    /// activation). Returns the task's copies still active.
    pub(crate) fn note_copies_ended(
        &mut self,
        phase: Phase,
        index: u32,
        ended: usize,
        waiting: usize,
    ) -> usize {
        self.active_copies = self.active_copies.saturating_sub(ended);
        self.waiting_copies = self.waiting_copies.saturating_sub(waiting);
        let task = self
            .task_mut(phase, index)
            .expect("an active copy's task exists");
        task.active = task.active.saturating_sub(ended);
        task.active
    }

    /// Records a reduce copy launched ahead of the Map phase: it joins the
    /// per-job waiting list the activation pass consumes.
    pub(crate) fn note_copy_waiting(&mut self, index: u32, id: CopyId) {
        self.waiting_reduce.push((index, id));
        self.waiting_copies += 1;
    }

    /// Hands the waiting-copy list to the caller (swapping in `into`'s
    /// storage so the allocation is reused) and zeroes the counter. Called by
    /// the engine exactly when the Map phase completes.
    pub(crate) fn take_waiting_reduce(&mut self, into: &mut Vec<(u32, CopyId)>) {
        into.clear();
        std::mem::swap(&mut self.waiting_reduce, into);
        self.waiting_copies = 0;
    }

    /// Records that a copy of task `index` started running and will finish at
    /// `finish` unless cancelled: keeps the running-by-finish index keyed by
    /// the task's earliest running finish slot.
    pub(crate) fn note_copy_running(&mut self, phase: Phase, index: u32, finish: Slot) {
        if !self.track.finish_index {
            return;
        }
        let old = match self.task(phase, index) {
            Some(task) => task.running_finish,
            None => return,
        };
        let pi = self.phase_index_mut(phase);
        match old {
            Some(old) if finish >= old => return,
            Some(old) => {
                if let Ok(pos) = pi.running_by_finish.binary_search(&(old, index)) {
                    pi.running_by_finish.remove(pos);
                }
            }
            None => {}
        }
        if let Err(pos) = pi.running_by_finish.binary_search(&(finish, index)) {
            pi.running_by_finish.insert(pos, (finish, index));
        }
        if let Some(task) = self.task_mut(phase, index) {
            task.running_finish = Some(finish);
        }
    }

    /// Re-keys (or drops) task `index` in the running-by-finish index after
    /// some of its copies ended unfinished: the new key is the earliest
    /// finish slot across the copies still running, if any.
    pub(crate) fn refresh_running_finish(&mut self, phase: Phase, index: u32, copies: &CopyArena) {
        if !self.track.finish_index {
            return;
        }
        let (old, new_finish) = match self.task(phase, index) {
            Some(task) => (
                task.running_finish,
                task.copies()
                    .iter()
                    .filter_map(|&cid| copies.get(cid).finish_slot())
                    .min(),
            ),
            None => return,
        };
        if old == new_finish {
            return;
        }
        let pi = self.phase_index_mut(phase);
        if let Some(old) = old {
            if let Ok(pos) = pi.running_by_finish.binary_search(&(old, index)) {
                pi.running_by_finish.remove(pos);
            }
        }
        if let Some(finish) = new_finish {
            if let Err(pos) = pi.running_by_finish.binary_search(&(finish, index)) {
                pi.running_by_finish.insert(pos, (finish, index));
            }
        }
        if let Some(task) = self.task_mut(phase, index) {
            task.running_finish = new_finish;
        }
    }

    /// Records the completion of task `index`: removes it from the running
    /// free-list and the running-by-finish index and folds its observed
    /// duration (first launch to completion) into the phase aggregates.
    pub(crate) fn note_task_finished(&mut self, phase: Phase, index: u32, duration: Slot) {
        match phase {
            Phase::Map => self.unfinished_map = self.unfinished_map.saturating_sub(1),
            Phase::Reduce => self.unfinished_reduce = self.unfinished_reduce.saturating_sub(1),
        }
        let old = self.task(phase, index).and_then(|t| t.running_finish);
        let track_running = self.track.running_list;
        let pi = self.phase_index_mut(phase);
        if track_running {
            if let Ok(pos) = pi.running.binary_search(&index) {
                pi.running.remove(pos);
            }
        }
        if let Some(old) = old {
            if let Ok(pos) = pi.running_by_finish.binary_search(&(old, index)) {
                pi.running_by_finish.remove(pos);
            }
        }
        pi.completed_count += 1;
        pi.completed_duration_sum += duration;
        if let Some(task) = self.task_mut(phase, index) {
            task.running_finish = None;
        }
    }

    /// Reverse of [`JobState::note_first_launch`]: a machine fault killed the
    /// last active copy of task `index`, so it returns to the unscheduled
    /// pool and will be re-launched by the scheduler (work lost, not the
    /// job). Call *after* the copy-release counters have been updated; the
    /// next launch re-fires `note_first_launch` symmetrically.
    pub(crate) fn note_task_unlaunched(&mut self, phase: Phase, index: u32) {
        let old_finish = self.task(phase, index).and_then(|t| t.running_finish);
        if let Some(task) = self.task_mut(phase, index) {
            task.mark_unscheduled();
        }
        let track_running = self.track.running_list;
        let pi = self.phase_index_mut(phase);
        pi.insert_unscheduled(index);
        if track_running {
            if let Ok(pos) = pi.running.binary_search(&index) {
                pi.running.remove(pos);
            }
        }
        if let Some(old) = old_finish {
            if let Ok(pos) = pi.running_by_finish.binary_search(&(old, index)) {
                pi.running_by_finish.remove(pos);
            }
        }
    }

    pub(crate) fn all_tasks_finished(&self) -> bool {
        self.unfinished_map == 0 && self.unfinished_reduce == 0
    }

    pub(crate) fn mark_complete(&mut self, at: Slot) {
        self.completed_at = Some(at);
    }
}

/// The runtime state of the *resident* jobs of a run, addressed by dense job
/// id.
///
/// The engine admits jobs in dense-id order, so the table is a window of
/// per-id slots over `[base, admitted)`: admission pushes a slot at the back,
/// and retiring a job empties its slot, drops its [`JobState`] and then pops
/// empty slots off the front. The engine retires a job at the end of the
/// decision instant in which it completed, after that instant's hooks and
/// decision ran, so a hook can still read a job that finished at this
/// instant. Job state therefore costs one boxed [`JobState`] per resident
/// job plus one pointer per id between the oldest resident job and the
/// newest admitted one — the alive window, not the length of the run.
///
/// Index it like a slice (`table[idx]`, panicking on an id that is not
/// resident) or probe it with [`JobTable::get`]; only the engine mutates
/// it. Scheduler unit tests build one from hand-made jobs with
/// [`JobTable::push`] or `collect`.
#[derive(Debug, Default)]
pub struct JobTable {
    /// Dense id of `slots[0]`; every id below it has been retired.
    base: usize,
    /// One slot per id in `[base, admitted)`, `None` once retired.
    slots: VecDeque<Option<Box<JobState>>>,
}

impl JobTable {
    /// An empty table.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// Number of jobs ever admitted: the dense id the next job must carry.
    pub fn admitted(&self) -> usize {
        self.base + self.slots.len()
    }

    /// Admits the next job.
    ///
    /// # Panics
    /// Panics unless the job's id is [`JobTable::admitted`].
    pub fn push(&mut self, job: JobState) {
        assert_eq!(
            job.id().as_usize(),
            self.admitted(),
            "jobs are admitted in dense-id order"
        );
        self.slots.push_back(Some(Box::new(job)));
    }

    /// The job with dense id `idx`, or `None` if it was retired or never
    /// admitted.
    pub fn get(&self, idx: usize) -> Option<&JobState> {
        self.slots.get(idx.checked_sub(self.base)?)?.as_deref()
    }

    pub(crate) fn get_mut(&mut self, idx: usize) -> Option<&mut JobState> {
        self.slots
            .get_mut(idx.checked_sub(self.base)?)?
            .as_deref_mut()
    }

    /// Drops the state of job `idx`, then pops retired slots off the front.
    pub(crate) fn retire(&mut self, idx: usize) {
        if let Some(slot) = idx
            .checked_sub(self.base)
            .and_then(|i| self.slots.get_mut(i))
        {
            *slot = None;
        }
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

impl std::ops::Index<usize> for JobTable {
    type Output = JobState;

    fn index(&self, idx: usize) -> &JobState {
        self.get(idx)
            .unwrap_or_else(|| panic!("job {idx} is not resident"))
    }
}

impl FromIterator<JobState> for JobTable {
    fn from_iter<I: IntoIterator<Item = JobState>>(jobs: I) -> Self {
        let mut table = JobTable::new();
        jobs.into_iter().for_each(|job| table.push(job));
        table
    }
}

/// The priority half of an [`AliveIndex`]: alive jobs that still have
/// unscheduled tasks, kept in decreasing `w_i / U_i(l)` order — in a
/// `BTreeSet` maintained **across** decision instants, consumed on demand.
///
/// The 1M-job tier exposed the regime this structure is built for: with
/// `ε = 0.6` and mostly unit job weights, the ε-fraction share walk consumes
/// ~60 % of ψ^s at *every* decision instant (up to 1 933 of ~3 000 ranked
/// entries across 712 668 instants), and since nearly every instant launches
/// something — re-keying the launched jobs — nearly every instant dirties the
/// order. Any scheme that re-establishes the order per dirty instant
/// (a full sort, a `select_nth_unstable_by` partition, a lazy-deletion heap
/// re-popped per instant) therefore pays `O(alive)`-ish work 712 668 times.
/// The search tree instead pays `O(log n)` *per key change* (a handful per
/// instant) and amortised `O(1)` per consumed entry for the in-order walk —
/// nothing is ever re-sorted.
///
/// Invariants:
/// * a job's current priority is [`priority_key`] over
///   [`JobState::remaining_effective_workload`], recomputed from the job at
///   every change; the job carries the key it was last ranked under, `NaN`
///   while it is not in the order (completed, or with every task already
///   scheduled).
/// * `set` holds `(sort_key(key), idx)` for exactly the ranked jobs, where
///   [`PriorityIndex::sort_key`] maps `f64` bits to a `u64` whose natural
///   ascending order is `total_cmp`-**descending** — so the set's iteration
///   order is precisely the `(key desc, idx asc)` ranking, entry for entry
///   identical to the full stable sort the eager implementation
///   materialised. Every key change removes the old pair and inserts the
///   new one immediately; the set never holds stale entries.
/// * `prefix` caches the set entries walked this instant, so repeated reads
///   and the random-access [`PriorityIndex::entry`] API cost array lookups;
///   it is re-validated (cleared) by `flush` once mutations have occurred.
///   The walk resumes after the last cached entry with one `O(log n)` range
///   seek, extending geometrically so a sequential consumer pays
///   `O(log prefix)` seeks per instant, not one per entry.
#[derive(Debug, Default, Clone)]
struct PriorityIndex {
    r: f64,
    /// The ranking itself: `(descending-order key bits, idx)`, always live.
    set: BTreeSet<(u64, u32)>,
    /// Entries of `set` walked this instant, in ranking order;
    /// interior-mutable because consumption happens on demand while the
    /// scheduler holds the snapshot by shared reference.
    prefix: std::cell::RefCell<Vec<(u64, u32)>>,
    dirty: bool,
}

impl PriorityIndex {
    /// Maps a (non-`NaN`) key to a `u64` whose ascending natural order is
    /// the key's `total_cmp`-**descending** order: the sign-magnitude bit
    /// trick that makes float bits integer-comparable, complemented. Ties in
    /// the set then fall through to the ascending `idx` — exactly the
    /// ranking's tiebreak.
    fn sort_key(key: f64) -> u64 {
        let bits = key.to_bits();
        let ascending = if bits & (1 << 63) != 0 {
            !bits
        } else {
            bits | (1 << 63)
        };
        !ascending
    }

    /// Moves job `idx` from key `old` to key `new` (`NaN`: not in the
    /// order): one `O(log n)` removal plus one `O(log n)` insertion.
    fn replace(&mut self, idx: usize, old: f64, new: f64) {
        if !old.is_nan() {
            self.set.remove(&(Self::sort_key(old), idx as u32));
            self.dirty = true;
        }
        if !new.is_nan() {
            self.set.insert((Self::sort_key(new), idx as u32));
            self.dirty = true;
        }
    }

    /// Re-keys job `idx` from its current unscheduled counts. The job drops
    /// out of the order once nothing is left to schedule, and re-enters when
    /// a machine fault returns a task to the unscheduled pool. A `NaN`
    /// priority (`NaN` weight) never enters the order.
    fn rekey(&mut self, idx: usize, job: &mut JobState) {
        let key = if job.total_unscheduled() == 0 {
            f64::NAN
        } else {
            priority_key(job.weight(), job.remaining_effective_workload(self.r))
        };
        self.replace(idx, job.indexed.rank_key, key);
        job.indexed.rank_key = key;
    }

    /// Starts a fresh decision instant: drops the walked-prefix cache if any
    /// mutation happened since it was established. `O(1)` — the set itself
    /// is always current, so there is nothing to rebuild.
    fn flush(&mut self) {
        if !self.dirty {
            // Nothing moved since the prefix was walked; keep it.
            return;
        }
        self.prefix.get_mut().clear();
        self.dirty = false;
    }

    /// Number of live entries — the length of the order.
    fn live_len(&self) -> usize {
        self.set.len()
    }

    /// The job index of the `i`-th entry of the fully sorted live order,
    /// extending the walked-prefix cache on demand: one range seek after the
    /// last cached entry, then in-order steps (amortised `O(1)` each),
    /// geometrically overshooting the requested index so sequential
    /// consumption performs `O(log prefix)` seeks per instant. Callers
    /// guarantee `i < live_len()`.
    fn entry(&self, i: usize) -> usize {
        let mut prefix = self.prefix.borrow_mut();
        if i >= prefix.len() {
            let want = (i + 1).max(prefix.len() * 2).max(16);
            let walk = match prefix.last() {
                Some(&last) => self
                    .set
                    .range((std::ops::Bound::Excluded(last), std::ops::Bound::Unbounded)),
                None => self.set.range(..),
            };
            let room = want - prefix.len();
            prefix.extend(walk.take(room));
        }
        prefix[i].1 as usize
    }
}

/// The online priority `w_i / U_i(l)` of a job with weight `w_i` and
/// remaining effective workload `U_i(l)` (Equation (4)); `+∞` when nothing
/// is left to schedule. The one key every ranked order is sorted by.
///
/// Validated workloads make `U_i(l) ≥ E^c_i ≥ f64::MIN_POSITIVE` for every
/// job with an unscheduled task (phase means are positive normal numbers,
/// see [`mapreduce_workload::PhaseStats::new`]), so the `+∞` branch is never
/// taken for a ranked job and a `U.max(f64::MIN_POSITIVE)` floor would be a
/// no-op.
fn priority_key(weight: f64, u: f64) -> f64 {
    if u > 0.0 {
        weight / u
    } else {
        f64::INFINITY
    }
}

/// The indices of the alive jobs that still have unscheduled tasks, in
/// decreasing `w_i / U_i(l)` order (ties by ascending idx), as handed out by
/// [`ClusterState::ranked_entries`].
///
/// The view reads the engine's maintained order lazily —
/// [`RankedEntries::entry`] walks it only as far as is actually consumed,
/// which is what makes the ranked schedulers' decision paths
/// pay-for-what-you-read at million-job scale. Indices resolve through
/// [`ClusterState::job_at`].
#[derive(Clone, Copy, Debug)]
pub struct RankedEntries<'a> {
    index: &'a PriorityIndex,
}

impl<'a> RankedEntries<'a> {
    /// Number of entries in the (virtual) full order.
    pub fn len(&self) -> usize {
        self.index.live_len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The job index of the `i`-th entry of the order.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn entry(&self, i: usize) -> usize {
        assert!(
            i < self.len(),
            "ranked entry {i} out of bounds (len {})",
            self.len()
        );
        self.index.entry(i)
    }

    /// Iterates the job indices front to back, extending the walked region
    /// as it goes — stop early and the tail is never visited.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(move |i| self.entry(i))
    }
}

/// Incrementally maintained index over the alive jobs of a simulation.
///
/// The engine used to rebuild a `Vec` of alive job indices (and any aggregate
/// a scheduler needed, like the total alive weight) from a `BTreeSet` on
/// *every* scheduler wakeup — an `O(alive)` scan per decision instant that
/// dominates at 12 000-machine trace scale. This index is updated once per
/// arrival, completion, task launch or fault unlaunch and map-phase
/// completion instead, so constructing a [`ClusterState`] is `O(1)`.
///
/// Besides the id-ordered alive set — which is also arrival order, since the
/// engine admits jobs only in dense-id order with non-decreasing arrivals —
/// the unscheduled-weight and launchable aggregates, and the id-ordered set
/// of jobs with a launchable task (walked by FIFO and the fair fill), the
/// index maintains an optional **priority order** (decreasing `w_i / U_i(l)`,
/// enabled via [`AliveIndex::enable_priority`] when the scheduler declares a
/// pessimism factor through [`Scheduler::priority_r`]) consumed by SRPTMS+C,
/// SCA and SRPT-noclone.
///
/// The index holds orders and sums only, nothing indexed by job id. The two
/// facts it must remember per job between updates — the launchable count it
/// last folded and the job's current priority key — live on the
/// [`JobState`] itself, so the mutators take the job by `&mut` and the
/// facts retire with the job. [`AliveIndex::insert`] forgets whatever a job
/// carried from another index, so a cloned job can join a fresh one.
#[derive(Debug, Default, Clone)]
pub struct AliveIndex {
    /// Alive job indices, kept sorted ascending (job-id order).
    alive: Vec<usize>,
    /// Sum of the weights of the alive jobs that still have unscheduled
    /// tasks — `W(l)` over `ψ^s(l)`, the candidate set of the ε-fraction
    /// rule. Maintained in `O(1)` from the job's unscheduled count at each
    /// transition: added on arrival, subtracted when the job's last
    /// unscheduled task launches, re-added when a machine fault returns its
    /// first task to the unscheduled pool.
    unscheduled_weight_sum: f64,
    /// Total launchable unscheduled tasks across alive jobs.
    launchable_sum: usize,
    /// The alive jobs whose folded launchable count is positive, in id
    /// order (an order-preserving subsequence of `alive`). A job enters or
    /// leaves only when its count crosses zero.
    launchable_jobs: BTreeSet<usize>,
    /// Priority order, present when enabled.
    priority: Option<PriorityIndex>,
}

impl AliveIndex {
    /// An empty index.
    pub fn new() -> Self {
        AliveIndex::default()
    }

    /// Enables maintenance of the priority order for pessimism factor `r`.
    /// Must be called before any job is inserted.
    pub fn enable_priority(&mut self, r: f64) {
        self.priority = Some(PriorityIndex {
            r,
            ..PriorityIndex::default()
        });
    }

    /// Records the arrival of job `idx`.
    pub fn insert(&mut self, idx: usize, job: &mut JobState) {
        if let Err(pos) = self.alive.binary_search(&idx) {
            self.alive.insert(pos, idx);
            job.indexed = IndexedAs::default();
            if job.total_unscheduled() > 0 {
                self.unscheduled_weight_sum += job.weight();
            }
            if let Some(priority) = &mut self.priority {
                priority.rekey(idx, job);
            }
            self.refresh_launchable(idx, job);
        }
    }

    /// Records the completion of job `idx` (all of whose tasks have been
    /// scheduled and finished by then).
    pub fn remove(&mut self, idx: usize, job: &mut JobState) {
        if let Ok(pos) = self.alive.binary_search(&idx) {
            self.alive.remove(pos);
            // The engine removes a job only once every task finished, but a
            // hand-driven index may remove one that never launched.
            if job.total_unscheduled() > 0 {
                self.unscheduled_weight_sum -= job.weight();
            }
            if let Some(priority) = &mut self.priority {
                priority.replace(idx, job.indexed.rank_key, f64::NAN);
            }
            if job.indexed.launchable > 0 {
                self.launchable_jobs.remove(&idx);
            }
            self.launchable_sum -= job.indexed.launchable;
            job.indexed = IndexedAs::default();
        }
    }

    /// Records the first launch of one previously unscheduled task of job
    /// `idx`; call *after* the job's own counters have been updated, once
    /// per launched task. `O(1)` for the aggregates, one `O(log n)` re-key
    /// of the priority order.
    pub fn note_first_launch(&mut self, idx: usize, job: &mut JobState) {
        if job.total_unscheduled() == 0 {
            // Last unscheduled task launched: the job leaves ψ^s(l).
            self.unscheduled_weight_sum -= job.weight();
        }
        if let Some(priority) = &mut self.priority {
            priority.rekey(idx, job);
        }
        self.refresh_launchable(idx, job);
    }

    /// Reverse of [`AliveIndex::note_first_launch`]: a fault returned one
    /// task of job `idx` to the unscheduled pool. Call *after*
    /// `JobState::note_task_unlaunched` updated the job's own counters.
    /// The job re-enters `ψ^s(l)` (the unscheduled-weight aggregate and, if
    /// enabled, the priority order) if this is its only unscheduled task.
    pub fn note_task_unlaunched(&mut self, idx: usize, job: &mut JobState) {
        if job.total_unscheduled() == 1 {
            self.unscheduled_weight_sum += job.weight();
        }
        if let Some(priority) = &mut self.priority {
            priority.rekey(idx, job);
        }
        self.refresh_launchable(idx, job);
    }

    /// Records that job `idx`'s map phase just completed (its unscheduled
    /// reduce tasks became launchable); call from the engine's copy-finish
    /// path. `O(1)` and idempotent.
    pub fn note_map_phase_complete(&mut self, idx: usize, job: &mut JobState) {
        self.refresh_launchable(idx, job);
    }

    /// Folds the change in job `idx`'s launchable-unscheduled count into the
    /// aggregate, and moves the job into or out of the launchable-job set
    /// when the count crosses zero.
    fn refresh_launchable(&mut self, idx: usize, job: &mut JobState) {
        let old = job.indexed.launchable;
        let fresh = job.launchable_unscheduled();
        if old == 0 && fresh > 0 {
            self.launchable_jobs.insert(idx);
        } else if old > 0 && fresh == 0 {
            self.launchable_jobs.remove(&idx);
        }
        self.launchable_sum = self.launchable_sum + fresh - old;
        job.indexed.launchable = fresh;
    }

    /// Re-establishes the priority order after a batch of events; the engine
    /// calls this once per decision instant, right before building the
    /// scheduler-facing snapshot. No-op when priority maintenance is disabled
    /// or nothing changed.
    pub fn flush_priority(&mut self) {
        if let Some(priority) = &mut self.priority {
            priority.flush();
        }
    }

    /// The alive job indices, sorted ascending — job-id order, which the
    /// engine guarantees is also arrival order.
    pub fn alive(&self) -> &[usize] {
        &self.alive
    }

    /// The alive jobs with unscheduled tasks as a demand-gated
    /// [`RankedEntries`] view in decreasing `w_i / U_i(l)` order (ties by
    /// idx), if priority maintenance is enabled; `None` otherwise. Call
    /// [`AliveIndex::flush_priority`] first after mutations.
    pub fn ranked_by_priority(&self) -> Option<RankedEntries<'_>> {
        self.priority.as_ref().map(|index| RankedEntries { index })
    }

    /// Number of alive jobs.
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Whether no job is alive.
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Sum of the weights of the alive jobs that still have unscheduled
    /// tasks — the `W(l)` the ε-fraction rule normalises by.
    pub fn total_unscheduled_weight(&self) -> f64 {
        self.unscheduled_weight_sum
    }

    /// Total launchable unscheduled tasks across alive jobs. Requires the
    /// engine to report map-phase completions through
    /// [`AliveIndex::note_map_phase_complete`].
    pub fn total_launchable(&self) -> usize {
        self.launchable_sum
    }

    /// The alive jobs with a launchable task ([`JobState::launchable`] is
    /// `Some`), in ascending job-id order. Same requirement as
    /// [`AliveIndex::total_launchable`].
    pub fn launchable_jobs(&self) -> impl Iterator<Item = usize> + '_ {
        self.launchable_jobs.iter().copied()
    }
}

/// Read-only snapshot of the cluster handed to schedulers at every decision
/// point.
///
/// Every aggregate and order is read from the [`AliveIndex`] the snapshot
/// borrows, so each accessor is `O(1)` (or, for the ranked order, pays only
/// for the prefix actually walked).
#[derive(Debug)]
pub struct ClusterState<'a> {
    now: Slot,
    total_machines: usize,
    available_machines: usize,
    /// The resident jobs: the alive ones plus any that completed at this
    /// instant.
    jobs: &'a JobTable,
    /// The run's copy storage; per-copy task queries resolve ids against it.
    copies: &'a CopyArena,
    /// The alive set, its aggregates and (when enabled) the priority order.
    index: &'a AliveIndex,
    /// How many ranked entries the scheduler actually consumed this decision
    /// (reported via [`ClusterState::note_ranked_prefix`]); interior-mutable
    /// because the snapshot is handed to schedulers by shared reference.
    ranked_prefix_consumed: std::cell::Cell<usize>,
    /// Copies killed by machine faults so far this run.
    copies_killed_by_fault: u64,
}

impl<'a> ClusterState<'a> {
    /// Builds a snapshot over `jobs` whose alive set and aggregates are
    /// `index` — `O(1)`, no rescan of the job table.
    ///
    /// The engine builds one per decision instant; scheduler unit tests
    /// build their own by inserting hand-made jobs into a fresh
    /// [`AliveIndex`] (and calling [`AliveIndex::enable_priority`] first if
    /// the scheduler under test reads [`ClusterState::ranked_entries`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        now: Slot,
        total_machines: usize,
        available_machines: usize,
        jobs: &'a JobTable,
        copies: &'a CopyArena,
        index: &'a AliveIndex,
        copies_killed_by_fault: u64,
    ) -> Self {
        ClusterState {
            now,
            total_machines,
            available_machines,
            jobs,
            copies,
            index,
            ranked_prefix_consumed: std::cell::Cell::new(0),
            copies_killed_by_fault,
        }
    }

    /// The current slot.
    pub fn now(&self) -> Slot {
        self.now
    }

    /// The run-level copy storage. Pass it to the per-copy task queries
    /// ([`TaskState::best_progress`], [`TaskState::min_remaining`],
    /// [`TaskState::oldest_active_elapsed`]) or index it directly with a
    /// [`CopyId`] from [`TaskState::copies`].
    pub fn copies(&self) -> &'a CopyArena {
        self.copies
    }

    /// Total number of machines `M` in the cluster.
    pub fn total_machines(&self) -> usize {
        self.total_machines
    }

    /// Number of machines not currently occupied by any copy (`M(l)` in
    /// Algorithm 2's notation for "available machines").
    pub fn available_machines(&self) -> usize {
        self.available_machines
    }

    /// Jobs that have arrived and are not yet complete, in job-id order —
    /// which is also `(arrival, id)` order, the order FIFO serves.
    pub fn alive_jobs(&self) -> impl Iterator<Item = &'a JobState> + '_ {
        let jobs = self.jobs;
        self.index.alive().iter().map(move |&i| &jobs[i])
    }

    /// The alive jobs that have a task to launch now, in job-id order — the
    /// subset of [`Self::alive_jobs`] a launching scheduler walks — each
    /// with its [`JobState::launchable`] phase and free-list. Maintained by
    /// the [`AliveIndex`] as counts cross zero, so a walk costs `O(log n)`
    /// plus the jobs it visits, never a pass over jobs with nothing to
    /// launch.
    ///
    /// # Panics
    /// Panics if the index lists a job with nothing to launch (a stale
    /// index, an engine bug).
    pub fn launchable_jobs(&self) -> impl Iterator<Item = (&'a JobState, Phase, &'a [u32])> + '_ {
        let jobs = self.jobs;
        self.index.launchable_jobs().map(move |i| {
            let job = &jobs[i];
            let (phase, tasks) = job
                .launchable()
                .expect("a job in the launchable set has a launchable phase");
            (job, phase, tasks)
        })
    }

    /// The job indices of the alive jobs that still have unscheduled tasks,
    /// in decreasing `w_i / U_i(l)` priority order for the pessimism factor
    /// `r` the scheduler declared through [`Scheduler::priority_r`] (ties
    /// broken by job index). Indices are resolved with
    /// [`ClusterState::job_at`].
    ///
    /// The returned [`RankedEntries`] view is **demand-gated**: only the
    /// prefix actually read is walked, so a decision costs
    /// `O(prefix consumed)` instead of `O(alive · log)`, and the view can be
    /// walked several times (share pass, backfill pass) without collecting.
    ///
    /// # Panics
    /// Panics if the index maintains no priority order, i.e. the scheduler
    /// declared no pessimism factor through [`Scheduler::priority_r`].
    pub fn ranked_entries(&self) -> RankedEntries<'a> {
        self.index.ranked_by_priority().expect(
            "ranked_entries needs the priority order: the scheduler must declare \
             its pessimism factor through Scheduler::priority_r",
        )
    }

    /// Resolves a dense job index (as found in [`ClusterState::ranked_entries`])
    /// to its job state.
    ///
    /// # Panics
    /// Panics if the job is not resident: retired, or never admitted.
    pub fn job_at(&self, index: usize) -> &'a JobState {
        &self.jobs[index]
    }

    /// Looks up a job by id: an alive job, or one that completed at this
    /// decision instant (readable by this instant's hooks and decision).
    /// `None` for a job retired at an earlier instant, or one not admitted
    /// yet.
    pub fn job(&self, id: JobId) -> Option<&'a JobState> {
        self.jobs.get(id.as_usize())
    }

    /// Sum of the weights of the alive jobs that still have unscheduled
    /// tasks — `W(l)` over the ε-fraction rule's candidate set `ψ^s(l)`.
    ///
    /// `O(1)` (maintained incrementally by the [`AliveIndex`]). Together
    /// with [`ClusterState::ranked_entries`] this lets SRPTMS+C truncate its
    /// share walk at the `(1−ε)·W(l)` boundary without touching the tail.
    pub fn total_unscheduled_weight(&self) -> f64 {
        self.index.total_unscheduled_weight()
    }

    /// Total launchable unscheduled tasks across alive jobs: the sum of
    /// [`JobState::launchable_unscheduled`].
    ///
    /// `O(1)` (maintained incrementally by the [`AliveIndex`]). SRPTMS+C's
    /// work-conserving backfill counts its launches against this total and
    /// stops the moment nothing launchable remains — without it, every
    /// machines-outlast-work instant would walk (and therefore fully sort)
    /// the entire demand-gated ranked order.
    pub fn total_launchable_tasks(&self) -> usize {
        self.index.total_launchable()
    }

    /// Reports how many ranked candidates the scheduler materialised this
    /// decision; the engine folds the per-decision maximum into
    /// [`crate::RunTelemetry::ranked_prefix_len_max`]. Schedulers that do not
    /// consume the ranked order simply never call this.
    pub fn note_ranked_prefix(&self, len: usize) {
        if len > self.ranked_prefix_consumed.get() {
            self.ranked_prefix_consumed.set(len);
        }
    }

    /// The largest ranked-candidate prefix reported this decision.
    pub fn ranked_prefix_consumed(&self) -> usize {
        self.ranked_prefix_consumed.get()
    }

    /// Copies killed by machine faults so far this run (0 without a fault
    /// plan).
    ///
    /// A fault kill reaches a scheduler's hooks only when it takes a task's
    /// *last* copy ([`Scheduler::on_task_unlaunched`]). Killing one copy of
    /// a cloned task is silent, yet it can move the task's earliest finish
    /// later; schedulers that cache conclusions about running tasks across
    /// decisions watch this count and re-derive them when it moves.
    pub fn copies_killed_by_fault(&self) -> u64 {
        self.copies_killed_by_fault
    }
}

/// A scheduling decision returned by a [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Launch `copies` new copies of the given task, each occupying one
    /// machine. Launching an already-running task adds clone/speculative
    /// copies; launching an unscheduled task starts it.
    Launch {
        /// The task to launch copies of.
        task: TaskId,
        /// Number of new copies to create (at least 1).
        copies: usize,
    },
    /// Cancel active copies of the task, keeping the `keep` most-progressed
    /// ones. Used by restart-style speculative baselines; the paper's
    /// algorithms never issue it (sibling copies are cancelled automatically
    /// when a task finishes).
    CancelCopies {
        /// The task whose copies should be trimmed.
        task: TaskId,
        /// Number of copies to keep alive.
        keep: usize,
    },
}

impl ToJson for Action {
    fn to_json(&self) -> JsonValue {
        match *self {
            Action::Launch { task, copies } => JsonValue::object([(
                "Launch",
                JsonValue::object([("task", task.to_json()), ("copies", copies.to_json())]),
            )]),
            Action::CancelCopies { task, keep } => JsonValue::object([(
                "CancelCopies",
                JsonValue::object([("task", task.to_json()), ("keep", keep.to_json())]),
            )]),
        }
    }
}

impl FromJson for Action {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        if let Some(body) = value.get("Launch") {
            Ok(Action::Launch {
                task: TaskId::from_json(body.field("task")?)?,
                copies: usize::from_json(body.field("copies")?)?,
            })
        } else if let Some(body) = value.get("CancelCopies") {
            Ok(Action::CancelCopies {
                task: TaskId::from_json(body.field("task")?)?,
                keep: usize::from_json(body.field("keep")?)?,
            })
        } else {
            Err(JsonError::new("unknown Action variant"))
        }
    }
}

/// The interface every scheduling algorithm implements.
///
/// The engine guarantees that `schedule` is called whenever the cluster state
/// changed (job arrival, task completion) and, if
/// [`Scheduler::wakeup_interval`] returns `Some(k)`, at least every `k` slots
/// while any job is alive.
pub trait Scheduler {
    /// Human-readable name used in reports and benchmark labels.
    fn name(&self) -> &str;

    /// Makes scheduling decisions for the current state.
    ///
    /// Returned [`Action::Launch`] actions are applied in order until the
    /// cluster runs out of available machines; the engine clips the copy
    /// count of the action that crosses the limit and ignores the rest.
    fn schedule(&mut self, state: &ClusterState<'_>) -> Vec<Action>;

    /// Allocation-free variant of [`Scheduler::schedule`]: appends the
    /// decisions to a caller-owned buffer instead of returning a fresh
    /// vector.
    ///
    /// The engine hands every scheduler one buffer that it clears and reuses
    /// across all decision instants of a run, so the per-`schedule`
    /// `Vec<Action>` allocation disappears from the hot loop. The default
    /// forwards to [`Scheduler::schedule`]; hot schedulers override it (and
    /// implement `schedule` as a thin collecting wrapper). Implementations
    /// must only append — the buffer may already hold actions — and must not
    /// assume it starts empty.
    fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
        actions.extend(self.schedule(state));
    }

    /// Optional periodic wakeup interval in slots. Detection-based schedulers
    /// (Mantri, LATE) need this to re-examine running tasks even when no
    /// event occurred; purely event-driven schedulers return `None`.
    fn wakeup_interval(&self) -> Option<Slot> {
        None
    }

    /// Which optional per-job indices the engine should maintain for this
    /// scheduler (see [`IndexDemands`]).
    ///
    /// Schedulers that consume [`JobState::running_tasks`] or
    /// [`JobState::running_by_finish`] must declare it here; the engine skips
    /// the corresponding bookkeeping otherwise (an undeclared index reads as
    /// empty). Maintenance has no effect on simulation outcomes — the indices
    /// are derived state — so this is purely a performance contract.
    fn index_demands(&self) -> IndexDemands {
        IndexDemands::default()
    }

    /// Pessimism factor `r` for which the engine should maintain the alive
    /// jobs pre-ranked by `w_i / U_i(l)` (Equation (4)).
    ///
    /// Schedulers that rank jobs by the paper's online priority return
    /// `Some(r)`; the engine then keeps the order current as events apply and
    /// exposes it through [`ClusterState::ranked_entries`], so the scheduler
    /// never sorts per wakeup. [`ClusterState::ranked_entries`] needs this
    /// declaration and panics without it; wrappers must forward it.
    /// Returning `None` (the default) skips the maintenance entirely.
    fn priority_r(&self) -> Option<f64> {
        None
    }

    /// Hook invoked after a job arrives (before the next `schedule` call).
    fn on_job_arrival(&mut self, _job: JobId, _state: &ClusterState<'_>) {}

    /// Hook invoked after a task finishes (before the next `schedule` call).
    fn on_task_finished(&mut self, _task: TaskId, _state: &ClusterState<'_>) {}

    /// Hook invoked when a fault kills a task's last copy and the task falls
    /// back to the unscheduled pool (before the next `schedule` call).
    ///
    /// The engine's indices already re-admit the task — it is back in its
    /// job's [`JobState::launchable`] free-list, and the job is back in
    /// [`ClusterState::launchable_jobs`] — so schedulers that read their
    /// candidates from [`ClusterState`] each wakeup need nothing here (the
    /// default is a no-op). A scheduler that wants a ready set of jobs with
    /// launchable work should read [`ClusterState::launchable_jobs`] rather
    /// than keep a private one fed by the hooks. Never invoked when the run
    /// has no fault plan.
    fn on_task_unlaunched(&mut self, _task: TaskId, _state: &ClusterState<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_support::{prop_assert, prop_assert_eq, proptest};
    use mapreduce_workload::{JobSpecBuilder, PhaseStats};

    fn job_state() -> JobState {
        let spec = JobSpecBuilder::new(JobId::new(0))
            .arrival(3)
            .weight(2.0)
            .map_tasks_from_workloads(&[10.0, 20.0])
            .reduce_tasks_from_workloads(&[30.0])
            .map_stats(PhaseStats::new(15.0, 5.0))
            .reduce_stats(PhaseStats::new(30.0, 0.0))
            .build();
        JobState::new(spec)
    }

    #[test]
    fn fresh_job_state_counters() {
        let js = job_state();
        assert!(js.is_alive());
        assert!(!js.is_complete());
        assert_eq!(js.num_unscheduled(Phase::Map), 2);
        assert_eq!(js.num_unscheduled(Phase::Reduce), 1);
        assert_eq!(js.num_unfinished(Phase::Map), 2);
        assert_eq!(js.total_unscheduled(), 3);
        assert_eq!(js.active_copies(), 0);
        assert!(!js.map_phase_complete());
    }

    #[test]
    fn remaining_effective_workload_matches_equation_4() {
        let js = job_state();
        // U = 2·(15 + 2·5) + 1·(30 + 0) = 50 + 30 = 80
        assert!((js.remaining_effective_workload(2.0) - 80.0).abs() < 1e-12);
        // r = 0: 2·15 + 30 = 60
        assert!((js.remaining_effective_workload(0.0) - 60.0).abs() < 1e-12);
        assert!((js.spec().effective_workload(0.0) - 60.0).abs() < 1e-12);
    }

    #[test]
    fn launch_and_finish_bookkeeping() {
        let mut js = job_state();
        assert!(js.is_alive());

        js.note_first_launch(Phase::Map, 0);
        js.note_copy_launched();
        js.task_mut(Phase::Map, 0).unwrap().add_copy(CopyId(0), 5);
        js.note_copy_running(Phase::Map, 0, 15);
        assert_eq!(js.num_unscheduled(Phase::Map), 1);
        assert_eq!(js.active_copies(), 1);
        assert_eq!(js.copies_launched(), 1);
        assert_eq!(js.unscheduled_tasks(Phase::Map).count(), 1);
        assert_eq!(js.unscheduled_indices(Phase::Map), &[1]);
        assert_eq!(js.running_tasks(Phase::Map).count(), 1);
        assert_eq!(js.running_by_finish(Phase::Map), &[(15, 0)]);

        js.task_mut(Phase::Map, 0).unwrap().mark_finished(15);
        assert_eq!(js.note_copies_ended(Phase::Map, 0, 1, 0), 0);
        js.note_task_finished(Phase::Map, 0, 10);
        assert_eq!(js.num_unfinished(Phase::Map), 1);
        assert_eq!(js.active_copies(), 0);
        assert_eq!(js.task(Phase::Map, 0).unwrap().active_copies(), 0);
        assert!(js.running_by_finish(Phase::Map).is_empty());
        assert_eq!(js.completed_duration_stats(Phase::Map), (1, 10));
        assert_eq!(js.mean_completed_duration(Phase::Map), Some(10.0));
        assert_eq!(js.mean_completed_duration(Phase::Reduce), None);
        assert!(!js.all_tasks_finished());
        assert!(!js.map_phase_complete());
    }

    #[test]
    fn running_by_finish_tracks_the_earliest_running_copy() {
        let mut js = job_state();
        let mut arena = CopyArena::new();
        let mut launch = |js: &mut JobState, index: u32, at: Slot, duration: Slot| {
            let task = TaskId::new(JobId::new(0), Phase::Map, index);
            let (cid, _) = arena.alloc_running(task, at, duration);
            js.task_mut(Phase::Map, index).unwrap().add_copy(cid, at);
            js.note_copy_running(Phase::Map, index, at + duration);
            cid
        };
        js.note_first_launch(Phase::Map, 0);
        let slow = launch(&mut js, 0, 0, 30);
        js.note_first_launch(Phase::Map, 1);
        launch(&mut js, 1, 0, 10);
        assert_eq!(js.running_by_finish(Phase::Map), &[(10, 1), (30, 0)]);

        // A faster clone of task 0 re-keys its entry to the earlier finish.
        let fast = launch(&mut js, 0, 2, 3);
        assert_eq!(js.running_by_finish(Phase::Map), &[(5, 0), (10, 1)]);
        // A slower clone leaves the key untouched.
        let slower = launch(&mut js, 0, 2, 48);
        assert_eq!(js.running_by_finish(Phase::Map), &[(5, 0), (10, 1)]);

        // Cancelling the fast copy re-keys to the earliest surviving copy.
        arena.cancel(fast, 4);
        js.refresh_running_finish(Phase::Map, 0, &arena);
        assert_eq!(js.running_by_finish(Phase::Map), &[(10, 1), (30, 0)]);
        // Cancelling everything drops the entry.
        arena.cancel(slow, 4);
        arena.cancel(slower, 4);
        js.refresh_running_finish(Phase::Map, 0, &arena);
        assert_eq!(js.running_by_finish(Phase::Map), &[(10, 1)]);
    }

    #[test]
    fn task_state_progress_tracking() {
        let mut arena = CopyArena::new();
        let mut ts = TaskState::new(TaskId::new(JobId::new(1), Phase::Map, 0), 50.0);
        assert!(ts.is_unscheduled());
        assert_eq!(ts.best_progress(&arena, 100), 0.0);
        assert_eq!(ts.min_remaining(&arena, 100), None);

        let (c0, _) = arena.alloc_running(ts.id(), 0, 50);
        ts.add_copy(c0, 0);
        let (c1, _) = arena.alloc_running(ts.id(), 10, 40);
        ts.add_copy(c1, 10);
        assert_eq!(ts.status(), TaskStatus::Scheduled);
        assert_eq!(ts.active_copies(), 2);
        assert_eq!(ts.copies(), &[c0, c1]);
        assert_eq!(ts.first_launched_at(), Some(0));
        // At slot 30: copy 0 has 30/50 = 0.6 progress, copy 1 has 20/40 = 0.5.
        assert!((ts.best_progress(&arena, 30) - 0.6).abs() < 1e-12);
        // Remaining: copy 0 → 20, copy 1 → 20.
        assert_eq!(ts.min_remaining(&arena, 30), Some(20));
        assert_eq!(ts.oldest_active_elapsed(&arena, 30), 30);

        ts.mark_finished(50);
        assert!(ts.is_finished());
        assert_eq!(ts.finished_at(), Some(50));
    }

    #[test]
    fn waiting_copy_bookkeeping() {
        let mut js = job_state();
        assert_eq!(js.waiting_copies(), 0);
        for cid in [CopyId(0), CopyId(1)] {
            js.note_copy_launched();
            js.task_mut(Phase::Reduce, 0).unwrap().add_copy(cid, 0);
            js.note_copy_waiting(0, cid);
        }
        assert_eq!(js.waiting_copies(), 2);
        assert_eq!(js.note_copies_ended(Phase::Reduce, 0, 1, 1), 1);
        assert_eq!(js.waiting_copies(), 1);
        assert_eq!(js.active_copies(), 1);
        let mut drained = Vec::new();
        js.take_waiting_reduce(&mut drained);
        // The list keeps stale (cancelled) entries; the counter is exact.
        assert_eq!(drained, vec![(0, CopyId(0)), (0, CopyId(1))]);
        assert_eq!(js.waiting_copies(), 0);
    }

    /// The launch rule and the launchable-job set through a job's life:
    /// Map launches, a fault unlaunch, Map completion, completion.
    #[test]
    fn launchable_follows_map_reduce_precedence() {
        let mut js = job_state();
        let mut index = AliveIndex::new();
        index.insert(0, &mut js);
        let check = |js: &JobState, index: &AliveIndex, expect: Option<(Phase, &[u32])>| {
            assert_eq!(js.launchable(), expect);
            assert_eq!(js.launchable_unscheduled(), expect.map_or(0, |e| e.1.len()));
            let listed: Vec<usize> = index.launchable_jobs().collect();
            assert_eq!(listed, if expect.is_some() { vec![0] } else { vec![] });
        };
        check(&js, &index, Some((Phase::Map, &[0, 1])));
        js.note_first_launch(Phase::Map, 0);
        index.note_first_launch(0, &mut js);
        check(&js, &index, Some((Phase::Map, &[1])));
        // Every map launched, none finished: the reduce stays gated.
        js.note_first_launch(Phase::Map, 1);
        index.note_first_launch(0, &mut js);
        check(&js, &index, None);
        // A fault returns map 1 to the pool, and it launches again.
        js.note_task_unlaunched(Phase::Map, 1);
        index.note_task_unlaunched(0, &mut js);
        check(&js, &index, Some((Phase::Map, &[1])));
        js.note_first_launch(Phase::Map, 1);
        index.note_first_launch(0, &mut js);
        for t in 0..2 {
            js.task_mut(Phase::Map, t).unwrap().mark_finished(9);
            js.note_task_finished(Phase::Map, t, 4);
        }
        // The Map phase completed: the reduce opens once the index is told.
        index.note_map_phase_complete(0, &mut js);
        check(&js, &index, Some((Phase::Reduce, &[0])));
        index.remove(0, &mut js);
        assert_eq!(index.launchable_jobs().count(), 0);
        assert_eq!(index.total_launchable(), 0);
    }

    #[test]
    fn cluster_state_accessors() {
        let mut j0 = job_state();
        let spec1 = JobSpecBuilder::new(JobId::new(1))
            .weight(5.0)
            .map_tasks_from_workloads(&[1.0])
            .build();
        let mut j1 = JobState::new(spec1);
        let mut index = AliveIndex::new();
        index.insert(0, &mut j0);
        index.insert(1, &mut j1);
        let jobs: JobTable = [j0, j1].into_iter().collect();
        let copies = CopyArena::new();
        let state = ClusterState::new(7, 10, 4, &jobs, &copies, &index, 0);
        assert_eq!(state.now(), 7);
        assert_eq!(state.total_machines(), 10);
        assert_eq!(state.available_machines(), 4);
        assert_eq!(state.alive_jobs().count(), 2);
        assert!(state.job(JobId::new(1)).is_some());
        assert!(state.job(JobId::new(5)).is_none());
    }

    /// Slots are retired in any order; the window's front advances past
    /// every leading retired id, and retired or unadmitted ids resolve to
    /// nothing.
    #[test]
    fn job_table_retires_out_of_order() {
        let mut table: JobTable = job_bank(&[1, 1, 1, 1], &[1.0; 4], &[0; 4])
            .into_iter()
            .collect();
        assert_eq!(table.admitted(), 4);
        table.retire(1);
        assert!(table.get(1).is_none());
        assert_eq!((table.base, table.slots.len()), (0, 4));
        table.retire(0);
        // Ids 0 and 1 are gone; 2 is the new front.
        assert_eq!((table.base, table.slots.len()), (2, 2));
        assert_eq!(table[2].id(), JobId::new(2));
        assert!(table.get(0).is_none() && table.get(4).is_none());
        table.retire(3);
        table.retire(2);
        assert_eq!((table.base, table.slots.len()), (4, 0));
        assert_eq!(table.admitted(), 4);
        table.push(job_bank(&[1; 5], &[1.0; 5], &[0; 5]).pop().unwrap());
        assert_eq!(table[4].id(), JobId::new(4));
    }

    #[test]
    #[should_panic(expected = "dense-id order")]
    fn job_table_rejects_a_non_dense_id() {
        let mut table = JobTable::new();
        table.push(job_bank(&[1, 1], &[1.0; 2], &[0; 2]).pop().unwrap());
    }

    #[test]
    fn action_equality_and_json() {
        let a = Action::Launch {
            task: TaskId::new(JobId::new(0), Phase::Map, 1),
            copies: 3,
        };
        let json = a.to_json().to_compact_string();
        let back = Action::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(a, back);

        let c = Action::CancelCopies {
            task: TaskId::new(JobId::new(2), Phase::Reduce, 0),
            keep: 1,
        };
        let back = Action::from_json(&JsonValue::parse(&c.to_json().to_compact_string()).unwrap())
            .unwrap();
        assert_eq!(c, back);
    }

    /// Builds a bank of simple jobs for AliveIndex tests: job `i` has
    /// `maps[i]` unit map tasks, weight `weights[i]`, arrival `arrivals[i]`.
    fn job_bank(maps: &[usize], weights: &[f64], arrivals: &[Slot]) -> Vec<JobState> {
        maps.iter()
            .zip(weights)
            .zip(arrivals)
            .enumerate()
            .map(|(i, ((&m, &w), &a))| {
                let spec = JobSpecBuilder::new(JobId::new(i as u64))
                    .weight(w)
                    .arrival(a)
                    .map_tasks_from_workloads(&vec![10.0; m])
                    .map_stats(PhaseStats::new(10.0, 0.0))
                    .build();
                JobState::new(spec)
            })
            .collect()
    }

    #[test]
    fn alive_index_tracks_arrivals_launches_and_completions() {
        let mut jobs = job_bank(&[2, 2, 4, 4], &[1.0, 1.0, 2.0, 2.0], &[0, 9, 5, 5]);
        let mut index = AliveIndex::new();
        assert!(index.is_empty());
        index.insert(3, &mut jobs[3]);
        index.insert(1, &mut jobs[1]);
        index.insert(3, &mut jobs[3]); // duplicate insert is a no-op
        assert_eq!(index.alive(), &[1, 3]);
        assert_eq!(index.len(), 2);
        assert_eq!(index.total_launchable(), 6);

        jobs[3].note_first_launch(Phase::Map, 0);
        index.note_first_launch(3, &mut jobs[3]);
        assert_eq!(index.total_launchable(), 5);

        index.remove(1, &mut jobs[1]);
        index.remove(1, &mut jobs[1]); // duplicate remove is a no-op
        assert_eq!(index.alive(), &[3]);
        assert_eq!(index.total_launchable(), 3);
    }

    #[test]
    fn alive_index_priority_order_matches_online_priority() {
        // w/U with r = 0: job0 = 1/20, job1 = 1/20, job2 = 2/40, job3 = 2/40:
        // all ties → id order. After launching a task of job 2 its priority
        // rises to 2/30 and it moves to the front.
        let mut jobs = job_bank(&[2, 2, 4, 4], &[1.0, 1.0, 2.0, 2.0], &[0, 0, 0, 0]);
        let mut index = AliveIndex::new();
        index.enable_priority(0.0);
        for (i, job) in jobs.iter_mut().enumerate() {
            index.insert(i, job);
        }
        let order = |index: &mut AliveIndex| -> Vec<usize> {
            index.flush_priority();
            index.ranked_by_priority().unwrap().iter().collect()
        };
        assert_eq!(order(&mut index), vec![0, 1, 2, 3]);

        jobs[2].note_first_launch(Phase::Map, 0);
        index.note_first_launch(2, &mut jobs[2]);
        assert_eq!(order(&mut index), vec![2, 0, 1, 3]);
        // The snapshot hands out the same order, and every job carries the
        // online priority w / U computed from scratch as its key.
        let table: JobTable = jobs.iter().cloned().collect();
        let copies = CopyArena::new();
        let state = ClusterState::new(0, 8, 8, &table, &copies, &index, 0);
        assert!(state.ranked_entries().iter().eq([2, 0, 1, 3]));
        for job in &jobs {
            let key = job.weight() / job.remaining_effective_workload(0.0);
            assert_eq!(job.indexed.rank_key, key);
        }

        // Launching everything drops the job from the priority order.
        for t in 1..4 {
            jobs[2].note_first_launch(Phase::Map, t);
            index.note_first_launch(2, &mut jobs[2]);
        }
        assert_eq!(order(&mut index), vec![0, 1, 3]);
        assert!(jobs[2].indexed.rank_key.is_nan());

        // A fault returning a task re-ranks the job; removal drops it.
        jobs[2].note_task_unlaunched(Phase::Map, 3);
        index.note_task_unlaunched(2, &mut jobs[2]);
        assert_eq!(order(&mut index), vec![2, 0, 1, 3]);
        index.remove(0, &mut jobs[0]);
        assert_eq!(order(&mut index), vec![2, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "Scheduler::priority_r")]
    fn ranked_entries_without_a_declared_priority_panics() {
        let mut job = job_bank(&[1], &[1.0], &[0]).remove(0);
        let mut index = AliveIndex::new();
        index.insert(0, &mut job);
        let jobs: JobTable = [job].into_iter().collect();
        let copies = CopyArena::new();
        let state = ClusterState::new(0, 8, 8, &jobs, &copies, &index, 0);
        let _ = state.ranked_entries();
    }

    /// Satellite pin for the incremental `W(l)` counter: the
    /// unscheduled-weight aggregate must track arrivals, per-task launches
    /// (the job leaves `ψ^s` exactly when its last unscheduled task starts),
    /// phase transitions (reduce tasks keep the job counted after its maps
    /// drain) and completions, and always equal the scan it replaces.
    #[test]
    fn alive_index_tracks_unscheduled_weight_incrementally() {
        let scan = |index: &AliveIndex, jobs: &[JobState]| -> f64 {
            index
                .alive()
                .iter()
                .map(|&i| &jobs[i])
                .filter(|j| j.total_unscheduled() > 0)
                .map(|j| j.weight())
                .sum()
        };

        // Job 2 has a reduce phase, so its maps draining must NOT uncount it.
        let mut jobs = job_bank(&[1, 2, 2, 3], &[1.0, 2.0, 5.0, 12.0], &[0, 0, 0, 0]);
        let reduce_spec = JobSpecBuilder::new(JobId::new(2))
            .weight(5.0)
            .map_tasks_from_workloads(&[10.0, 10.0])
            .map_stats(PhaseStats::new(10.0, 0.0))
            .reduce_tasks_from_workloads(&[20.0])
            .reduce_stats(PhaseStats::new(20.0, 0.0))
            .build();
        jobs[2] = JobState::new(reduce_spec);

        let mut index = AliveIndex::new();
        assert_eq!(index.total_unscheduled_weight(), 0.0);

        for i in 0..jobs.len() {
            index.insert(i, &mut jobs[i]);
            assert_eq!(index.total_unscheduled_weight(), scan(&index, &jobs));
        }
        assert_eq!(index.total_unscheduled_weight(), 20.0);
        index.insert(1, &mut jobs[1]); // duplicate insert must not double-count
        assert_eq!(index.total_unscheduled_weight(), 20.0);

        // Launch job 0's only task: weight 1 leaves ψ^s immediately.
        jobs[0].note_first_launch(Phase::Map, 0);
        index.note_first_launch(0, &mut jobs[0]);
        assert_eq!(index.total_unscheduled_weight(), 19.0);
        assert_eq!(index.total_unscheduled_weight(), scan(&index, &jobs));

        // Launch job 1's tasks one at a time: counted until the last one.
        jobs[1].note_first_launch(Phase::Map, 0);
        index.note_first_launch(1, &mut jobs[1]);
        assert_eq!(index.total_unscheduled_weight(), 19.0);
        jobs[1].note_first_launch(Phase::Map, 1);
        index.note_first_launch(1, &mut jobs[1]);
        assert_eq!(index.total_unscheduled_weight(), 17.0);
        assert_eq!(index.total_unscheduled_weight(), scan(&index, &jobs));

        // Drain job 2's map phase: its reduce task keeps it counted.
        for t in 0..2 {
            jobs[2].note_first_launch(Phase::Map, t);
            index.note_first_launch(2, &mut jobs[2]);
        }
        assert_eq!(index.total_unscheduled_weight(), 17.0);
        assert_eq!(index.total_unscheduled_weight(), scan(&index, &jobs));
        // The reduce launch (post phase transition) finally uncounts it.
        jobs[2].note_first_launch(Phase::Reduce, 0);
        index.note_first_launch(2, &mut jobs[2]);
        assert_eq!(index.total_unscheduled_weight(), 12.0);

        // Completion of an already-uncounted job must not double-subtract;
        // removing a never-launched job must uncount it.
        index.remove(0, &mut jobs[0]);
        assert_eq!(index.total_unscheduled_weight(), 12.0);
        index.remove(3, &mut jobs[3]);
        assert_eq!(index.total_unscheduled_weight(), 0.0);
        assert_eq!(index.total_unscheduled_weight(), scan(&index, &jobs));
    }

    /// The snapshot's aggregates are the index's, and each equals the scan
    /// over the alive jobs it replaces — through launches, a map-phase
    /// completion that unlocks a reduce, and a completion.
    #[test]
    fn cluster_state_from_index_uses_cached_aggregates() {
        let scans = |jobs: &JobTable, index: &AliveIndex| {
            let copies = CopyArena::new();
            let state = ClusterState::new(5, 8, 8, jobs, &copies, index, 0);
            let alive = || state.alive_jobs();
            assert_eq!(
                state.total_unscheduled_weight(),
                alive()
                    .filter(|j| j.total_unscheduled() > 0)
                    .map(|j| j.weight())
                    .sum::<f64>()
            );
            assert_eq!(
                state.total_launchable_tasks(),
                alive().map(|j| j.launchable_unscheduled()).sum::<usize>()
            );
            assert!(state
                .launchable_jobs()
                .map(|(j, phase, tasks)| (j.id(), Some((phase, tasks))))
                .eq(alive()
                    .filter(|j| j.launchable().is_some())
                    .map(|j| (j.id(), j.launchable()))));
            (
                state.total_unscheduled_weight(),
                state.total_launchable_tasks(),
            )
        };

        // Job 0: two maps and a gated reduce; job 1: one map.
        let j0 = job_state();
        let j1 = job_bank(&[1, 1], &[1.0, 5.0], &[0, 3]).remove(1);
        let mut jobs: JobTable = [j0, j1].into_iter().collect();
        let mut index = AliveIndex::new();
        index.insert(0, jobs.get_mut(0).unwrap());
        assert_eq!(scans(&jobs, &index), (2.0, 2));
        index.insert(1, jobs.get_mut(1).unwrap());
        assert_eq!(scans(&jobs, &index), (7.0, 3));

        for t in 0..2 {
            jobs.get_mut(0).unwrap().note_first_launch(Phase::Map, t);
            index.note_first_launch(0, jobs.get_mut(0).unwrap());
        }
        assert_eq!(scans(&jobs, &index), (7.0, 1));
        for t in 0..2 {
            jobs.get_mut(0)
                .unwrap()
                .task_mut(Phase::Map, t)
                .unwrap()
                .mark_finished(9);
            jobs.get_mut(0)
                .unwrap()
                .note_task_finished(Phase::Map, t, 4);
        }
        index.note_map_phase_complete(0, jobs.get_mut(0).unwrap());
        assert_eq!(scans(&jobs, &index), (7.0, 2));

        jobs.get_mut(1).unwrap().note_first_launch(Phase::Map, 0);
        index.note_first_launch(1, jobs.get_mut(1).unwrap());
        index.remove(1, jobs.get_mut(1).unwrap());
        assert_eq!(scans(&jobs, &index), (2.0, 1));

        let copies = CopyArena::new();
        let state = ClusterState::new(5, 8, 8, &jobs, &copies, &index, 0);
        assert_eq!(state.ranked_prefix_consumed(), 0);
        state.note_ranked_prefix(3);
        state.note_ranked_prefix(2); // max, not last
        assert_eq!(state.ranked_prefix_consumed(), 3);
    }

    /// The eager oracle the demand-gated prefix is pinned against: the
    /// indices of the live keys, stably sorted by `(key desc, idx asc)` —
    /// exactly the order the pre-lazy implementation materialised at every
    /// flush.
    fn full_sort_oracle(keys: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..keys.len()).filter(|&i| !keys[i].is_nan()).collect();
        order.sort_by(|&a, &b| keys[b].total_cmp(&keys[a]).then_with(|| a.cmp(&b)));
        order
    }

    /// Decodes a small integer into a key drawn from a 5-value pool (plus
    /// `NaN`), so random vectors are saturated with exact-tie groups — the
    /// adversarial case for an unstable partial sort, which must still
    /// reproduce the stable oracle's `(key desc, idx asc)` tie order.
    fn tie_heavy_key(v: u32) -> f64 {
        if v == 0 {
            f64::NAN
        } else {
            f64::from(v % 6) * 0.5
        }
    }

    proptest! {
        #![proptest_config(mapreduce_support::proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn demand_gated_prefix_matches_full_sort(
            seeds in mapreduce_support::proptest::collection::vec(0u32..6, 1..50),
            kills in mapreduce_support::proptest::collection::vec(0u32..50, 0..12),
            rekeys in mapreduce_support::proptest::collection::vec(0u32..300, 0..16),
            takes in mapreduce_support::proptest::collection::vec(0u32..64, 3..4),
        ) {
            // `keys` plays the jobs' carried keys (`NaN` = never ranked).
            let mut keys: Vec<f64> = seeds.iter().map(|&v| tie_heavy_key(v)).collect();
            let mut index = PriorityIndex::default();
            for (idx, &k) in keys.iter().enumerate() {
                index.replace(idx, f64::NAN, k);
            }

            // Three decision instants: pristine, after completions (kills),
            // after re-keys — each consumes a random-length prefix and must
            // match the eager oracle entry for entry.
            for (round, &take_seed) in takes.iter().enumerate() {
                match round {
                    1 => {
                        // What `remove` and a terminal re-key do.
                        for &k in &kills {
                            let idx = k as usize % keys.len();
                            index.replace(idx, keys[idx], f64::NAN);
                            keys[idx] = f64::NAN;
                        }
                    }
                    2 => {
                        // What a live re-key does: the old pair leaves the
                        // set, the new key's pair replaces it.
                        for &r in &rekeys {
                            let idx = (r as usize / 6) % keys.len();
                            if !keys[idx].is_nan() {
                                let nk = f64::from(r % 6) * 0.25 + 0.125;
                                index.replace(idx, keys[idx], nk);
                                keys[idx] = nk;
                            }
                        }
                    }
                    _ => {}
                }
                index.flush();
                let oracle = full_sort_oracle(&keys);
                prop_assert_eq!(index.live_len(), oracle.len());
                let take = take_seed as usize % (oracle.len() + 1);
                for (i, &expect) in oracle.iter().take(take).enumerate() {
                    let got = index.entry(i);
                    prop_assert!(
                        got == expect,
                        "round {round} entry {i}: got {got:?}, oracle {expect:?}"
                    );
                }
            }
        }
    }
}
