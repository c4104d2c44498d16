//! Task copies: the unit of execution on a machine.
//!
//! Every launch (original attempt, clone, or speculative backup) creates one
//! copy. A copy occupies exactly one machine from the slot it is launched
//! until it finishes or is cancelled. Reduce copies launched before their
//! job's Map phase has completed sit in [`CopyPhase::WaitingForMapPhase`] —
//! they hold their machine (as in the offline algorithm of Section IV) but
//! make no progress until the precedence constraint is satisfied.
//!
//! Copies are stored struct-of-arrays: the fields the per-decision scans
//! touch (phase, start, duration, sequence — everything behind
//! [`CopyRef::progress`], [`CopyRef::remaining`] and the event liveness
//! check) live in one dense `HotCopy` table, while the fields only read on
//! task completion or in tests (`ColdCopy`: owning task, launch slot, end
//! slot) live in a parallel table the hot scans never pull into cache.

use crate::state::Slot;
use mapreduce_workload::TaskId;
use std::fmt;

/// Identifier of a single task copy, unique within one simulation run.
///
/// Ids are allocated densely in launch order by the run's [`CopyArena`], so a
/// `CopyId` doubles as the copy's arena index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CopyId(pub u64);

impl fmt::Display for CopyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Lifecycle phase of a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyPhase {
    /// The copy occupies a machine but cannot progress because the job's Map
    /// phase has not finished yet (only possible for reduce copies).
    WaitingForMapPhase,
    /// The copy is processing; it will finish at its recorded finish slot
    /// unless its task completes first through a sibling copy.
    Running,
    /// The copy finished and its result was used for the task.
    Finished,
    /// The copy was cancelled because a sibling copy finished first (or a
    /// scheduler action killed it).
    Cancelled,
}

/// Sentinel for "no slot recorded" in the packed hot table (`Slot` is never
/// `u64::MAX` in a run that completes — the horizon check fires long before).
const NO_SLOT: Slot = Slot::MAX;

/// The per-copy fields every hot path touches: straggler-detection scans
/// (progress / remaining / elapsed), the event liveness check (seq, phase,
/// finish slot) and cancellation. 32 bytes — two copies per cache line,
/// against 80-byte AoS records before the split.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HotCopy {
    /// Current lifecycle phase.
    phase: CopyPhase,
    /// Slot at which the copy started processing ([`NO_SLOT`] while waiting;
    /// equals the launch slot except for reduce copies that had to wait).
    started_at: Slot,
    /// Number of slots of processing this copy needs once started.
    duration: Slot,
    /// Run-unique allocation sequence number, assigned by the arena in
    /// launch order. Copy *slots* ([`CopyId`]) are recycled once their job
    /// completes, so the sequence — not the id — orders same-slot finish
    /// events and validates queued events against slot reuse.
    seq: u64,
}

/// The per-copy fields only read at task completion (busy-slot accounting),
/// by hand-written tests, or never on the scan path: kept out of the hot
/// table so detection scans don't drag them through cache.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ColdCopy {
    /// The task this copy belongs to.
    task: TaskId,
    /// Slot at which the copy was launched (machine occupied from here on).
    launched_at: Slot,
    /// Slot at which the copy left the machine (finished or cancelled).
    ended_at: Option<Slot>,
}

/// Read-only view of one copy, resolving the hot and cold halves of the
/// split storage. Holding a `CopyRef` costs two pointers; only the accessors
/// actually dereference, so hot-only queries never load the cold record.
#[derive(Debug, Clone, Copy)]
pub struct CopyRef<'a> {
    hot: &'a HotCopy,
    cold: &'a ColdCopy,
}

impl<'a> CopyRef<'a> {
    /// The task this copy belongs to.
    pub fn task(&self) -> TaskId {
        self.cold.task
    }

    /// Slot at which the copy was launched (machine occupied from here on).
    pub fn launched_at(&self) -> Slot {
        self.cold.launched_at
    }

    /// Slot at which the copy started processing (`None` while waiting for
    /// the Map phase).
    pub fn started_at(&self) -> Option<Slot> {
        match self.hot.started_at {
            NO_SLOT => None,
            s => Some(s),
        }
    }

    /// Number of slots of processing this copy needs once started.
    pub fn duration(&self) -> Slot {
        self.hot.duration
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> CopyPhase {
        self.hot.phase
    }

    /// Slot at which the copy left the machine (finished or cancelled).
    pub fn ended_at(&self) -> Option<Slot> {
        self.cold.ended_at
    }

    /// Run-unique allocation sequence number (launch order). Slots are
    /// recycled, sequences never are.
    pub fn seq(&self) -> u64 {
        self.hot.seq
    }

    /// Whether the copy currently occupies a machine.
    pub fn is_active(&self) -> bool {
        matches!(
            self.hot.phase,
            CopyPhase::WaitingForMapPhase | CopyPhase::Running
        )
    }

    /// The slot at which this copy will finish, if it is running and nothing
    /// cancels it.
    pub fn finish_slot(&self) -> Option<Slot> {
        match (self.hot.phase, self.hot.started_at) {
            (CopyPhase::Running, NO_SLOT) => None,
            (CopyPhase::Running, start) => Some(start + self.hot.duration),
            _ => None,
        }
    }

    /// Slots of processing completed by `now` (zero while waiting).
    pub fn elapsed(&self, now: Slot) -> Slot {
        match (self.hot.phase, self.hot.started_at) {
            (_, NO_SLOT) => 0,
            (CopyPhase::Running, start) => now.saturating_sub(start).min(self.hot.duration),
            (CopyPhase::Finished, _) => self.hot.duration,
            _ => 0,
        }
    }

    /// Fraction of this copy's work completed by `now`, in `[0, 1]`.
    ///
    /// This mirrors the per-task progress score a real MapReduce system
    /// reports and is what detection-based baselines (Mantri, LATE) consume.
    pub fn progress(&self, now: Slot) -> f64 {
        if self.hot.duration == 0 {
            return 1.0;
        }
        self.elapsed(now) as f64 / self.hot.duration as f64
    }

    /// Estimated remaining processing slots at `now`, assuming the copy keeps
    /// its current rate (exact in this simulator).
    pub fn remaining(&self, now: Slot) -> Slot {
        match self.hot.phase {
            CopyPhase::Finished => 0,
            CopyPhase::Cancelled => 0,
            CopyPhase::WaitingForMapPhase => self.hot.duration,
            CopyPhase::Running => self.hot.duration.saturating_sub(self.elapsed(now)),
        }
    }
}

/// A task's copy-id list with inline storage for the common cases.
///
/// Almost every task launches exactly one copy, and cloned tasks usually stay
/// at two; a heap `Vec` per task means one malloc/free per task for a single
/// 8-byte id. The list stores up to two ids inline and spills to a `Vec` only
/// from the third copy on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CopyList {
    /// Up to two ids stored inline (`len` of them are valid).
    Inline { buf: [CopyId; 2], len: u8 },
    /// Three or more ids.
    Spilled(Vec<CopyId>),
}

impl Default for CopyList {
    fn default() -> Self {
        CopyList::Inline {
            buf: [CopyId(0); 2],
            len: 0,
        }
    }
}

impl CopyList {
    /// The ids in launch order.
    pub(crate) fn as_slice(&self) -> &[CopyId] {
        match self {
            CopyList::Inline { buf, len } => &buf[..*len as usize],
            CopyList::Spilled(v) => v,
        }
    }

    /// Appends an id.
    pub(crate) fn push(&mut self, id: CopyId) {
        match self {
            CopyList::Inline { buf, len } if (*len as usize) < buf.len() => {
                buf[*len as usize] = id;
                *len += 1;
            }
            CopyList::Inline { buf, len } => {
                let mut v = Vec::with_capacity(4);
                v.extend_from_slice(&buf[..*len as usize]);
                v.push(id);
                *self = CopyList::Spilled(v);
            }
            CopyList::Spilled(v) => v.push(id),
        }
    }
}

/// Run-level storage of every *live* copy, indexed by [`CopyId`], with a
/// free-list over released slots.
///
/// Copies used to live in per-task `Vec`s, which made resolving a
/// `CopyFinish` event a linear `find` over the task's copies. The arena makes
/// it a single slice index: [`CopyArena::get`] is the copy. Tasks keep only
/// small `CopyId` slices ([`crate::state::TaskState::copies`]).
///
/// # Slot recycling
///
/// The arena used to grow monotonically — `O(total copies)` memory, the last
/// whole-workload memory term of a streaming run. The engine now
/// frees every copy slot of a job the moment the job
/// completes (its records are captured first), and the allocators reuse
/// freed slots LIFO, so the slot table is bounded by the **peak alive
/// window** ([`CopyArena::peak_slots`]) rather than the run length. Two
/// consequences:
///
/// * a [`CopyId`] names a *slot*, not a copy-for-all-time: once a job
///   completes, its ids may be handed to new copies. Every id reachable
///   through live task state ([`crate::state::TaskState::copies`]) is
///   current, so schedulers are unaffected;
/// * the run-unique launch order lives in [`CopyRef::seq`], which is what
///   orders same-slot finish events and validates queued events against slot
///   reuse (the trajectory is bit-identical to the non-recycling arena,
///   whose dense ids equalled the sequence numbers).
#[derive(Debug, Default, Clone)]
pub struct CopyArena {
    /// Scan-path fields, one dense record per slot.
    hot: Vec<HotCopy>,
    /// Completion-path fields, parallel to `hot`.
    cold: Vec<ColdCopy>,
    /// Released slot indices, reused LIFO.
    free: Vec<u64>,
    /// Copies ever allocated; doubles as the next allocation's sequence.
    next_seq: u64,
}

impl CopyArena {
    /// An empty arena.
    pub fn new() -> Self {
        CopyArena::default()
    }

    /// Number of slots currently backing the arena (the slot-table
    /// high-water mark — slots are reused, never returned to the allocator).
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether no copy has ever been allocated.
    pub fn is_empty(&self) -> bool {
        self.next_seq == 0
    }

    /// Total number of copies ever allocated (the run's copy count; freed
    /// slots keep contributing).
    pub fn total_allocated(&self) -> u64 {
        self.next_seq
    }

    /// Number of slots currently holding a live (not freed) copy.
    pub fn live_slots(&self) -> usize {
        self.hot.len() - self.free.len()
    }

    /// High-water mark of simultaneously backed slots: the memory footprint
    /// of the arena is `peak_slots` hot + cold records, bounded by the peak
    /// alive window of the run rather than its total copy count.
    pub fn peak_slots(&self) -> usize {
        // The slot table only grows when no freed slot is available, so its
        // length *is* the high-water mark.
        self.hot.len()
    }

    /// Stores one copy in a recycled or fresh slot and returns its id and
    /// freshly assigned sequence.
    fn alloc(&mut self, hot: HotCopy, cold: ColdCopy) -> (CopyId, u64) {
        let seq = hot.seq;
        self.next_seq += 1;
        match self.free.pop() {
            Some(slot) => {
                self.hot[slot as usize] = hot;
                self.cold[slot as usize] = cold;
                (CopyId(slot), seq)
            }
            None => {
                let slot = self.hot.len() as u64;
                self.hot.push(hot);
                self.cold.push(cold);
                (CopyId(slot), seq)
            }
        }
    }

    /// Allocates a copy that starts processing immediately, returning its id
    /// and run-unique sequence (the event the caller queues carries both —
    /// no separate read-back).
    pub fn alloc_running(
        &mut self,
        task: TaskId,
        launched_at: Slot,
        duration: Slot,
    ) -> (CopyId, u64) {
        self.alloc(
            HotCopy {
                phase: CopyPhase::Running,
                started_at: launched_at,
                duration,
                seq: self.next_seq,
            },
            ColdCopy {
                task,
                launched_at,
                ended_at: None,
            },
        )
    }

    /// Allocates a copy that waits for the Map phase of its job (holding its
    /// machine without progressing), returning its id and sequence.
    pub fn alloc_waiting(
        &mut self,
        task: TaskId,
        launched_at: Slot,
        duration: Slot,
    ) -> (CopyId, u64) {
        self.alloc(
            HotCopy {
                phase: CopyPhase::WaitingForMapPhase,
                started_at: NO_SLOT,
                duration,
                seq: self.next_seq,
            },
            ColdCopy {
                task,
                launched_at,
                ended_at: None,
            },
        )
    }

    /// Marks a running copy finished at `at` (its result was used).
    pub(crate) fn finish(&mut self, id: CopyId, at: Slot) {
        self.hot[id.0 as usize].phase = CopyPhase::Finished;
        self.cold[id.0 as usize].ended_at = Some(at);
    }

    /// Marks an active copy cancelled at `at`.
    pub(crate) fn cancel(&mut self, id: CopyId, at: Slot) {
        self.hot[id.0 as usize].phase = CopyPhase::Cancelled;
        self.cold[id.0 as usize].ended_at = Some(at);
    }

    /// Transitions a waiting copy to running at `at` and returns the slot it
    /// will finish in.
    ///
    /// # Panics
    /// Panics (debug builds) if the copy is not waiting.
    pub(crate) fn start_running(&mut self, id: CopyId, at: Slot) -> Slot {
        let hot = &mut self.hot[id.0 as usize];
        debug_assert_eq!(
            hot.phase,
            CopyPhase::WaitingForMapPhase,
            "only waiting copies can start running"
        );
        hot.phase = CopyPhase::Running;
        hot.started_at = at;
        at + hot.duration
    }

    /// Releases a slot for reuse. The engine calls this for every copy of a
    /// job when the job completes; the stale record stays readable until the
    /// slot is reallocated (queued events that still reference it are
    /// rejected by their sequence check).
    ///
    /// # Panics
    /// Panics (debug builds) if the copy still occupies a machine or the
    /// slot is already free.
    pub(crate) fn free(&mut self, id: CopyId) {
        debug_assert!(!self.get(id).is_active(), "freeing an active copy");
        debug_assert!(!self.free.contains(&id.0), "double free of copy slot {id}");
        self.free.push(id.0);
    }

    /// The copy currently held by the slot.
    ///
    /// # Panics
    /// Panics if the slot was never allocated by this arena.
    pub fn get(&self, id: CopyId) -> CopyRef<'_> {
        CopyRef {
            hot: &self.hot[id.0 as usize],
            cold: &self.cold[id.0 as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_workload::{JobId, Phase};

    fn task() -> TaskId {
        TaskId::new(JobId::new(0), Phase::Map, 0)
    }

    #[test]
    fn running_copy_progress_and_finish() {
        let mut arena = CopyArena::new();
        let (id, _) = arena.alloc_running(task(), 10, 20);
        let c = arena.get(id);
        assert!(c.is_active());
        assert_eq!(c.phase(), CopyPhase::Running);
        assert_eq!(c.task(), task());
        assert_eq!(c.launched_at(), 10);
        assert_eq!(c.started_at(), Some(10));
        assert_eq!(c.duration(), 20);
        assert_eq!(c.finish_slot(), Some(30));
        assert_eq!(c.elapsed(10), 0);
        assert_eq!(c.elapsed(15), 5);
        assert_eq!(c.elapsed(100), 20);
        assert!((c.progress(20) - 0.5).abs() < 1e-12);
        assert_eq!(c.remaining(15), 15);
        assert_eq!(c.ended_at(), None);
    }

    #[test]
    fn waiting_copy_makes_no_progress_until_started() {
        let mut arena = CopyArena::new();
        let (id, _) = arena.alloc_waiting(task(), 5, 8);
        {
            let c = arena.get(id);
            assert!(c.is_active());
            assert_eq!(c.phase(), CopyPhase::WaitingForMapPhase);
            assert_eq!(c.started_at(), None);
            assert_eq!(c.finish_slot(), None);
            assert_eq!(c.elapsed(50), 0);
            assert_eq!(c.progress(50), 0.0);
            assert_eq!(c.remaining(50), 8);
        }
        // Map phase completes at 12: the copy starts and finishes at 20.
        let finish = arena.start_running(id, 12);
        assert_eq!(finish, 20);
        let c = arena.get(id);
        assert_eq!(c.phase(), CopyPhase::Running);
        assert_eq!(c.started_at(), Some(12));
        assert_eq!(c.finish_slot(), Some(20));
        assert_eq!(c.launched_at(), 5, "launch slot is unchanged by the start");
    }

    #[test]
    fn finished_copy_is_complete() {
        let mut arena = CopyArena::new();
        let (id, _) = arena.alloc_running(task(), 0, 10);
        arena.finish(id, 10);
        let c = arena.get(id);
        assert!(!c.is_active());
        assert_eq!(c.phase(), CopyPhase::Finished);
        assert_eq!(c.ended_at(), Some(10));
        assert_eq!(c.progress(10), 1.0);
        assert_eq!(c.remaining(10), 0);
        assert_eq!(
            c.finish_slot(),
            None,
            "finished copies have no pending finish"
        );
    }

    #[test]
    fn cancelled_copy_is_inactive() {
        let mut arena = CopyArena::new();
        let (id, _) = arena.alloc_running(task(), 0, 10);
        arena.cancel(id, 3);
        let c = arena.get(id);
        assert!(!c.is_active());
        assert_eq!(c.phase(), CopyPhase::Cancelled);
        assert_eq!(c.ended_at(), Some(3));
        assert_eq!(c.remaining(5), 0);
        assert_eq!(c.elapsed(5), 0, "cancelled copies report no progress");
    }

    #[test]
    fn zero_duration_copy_has_full_progress() {
        let mut arena = CopyArena::new();
        let (id, _) = arena.alloc_running(task(), 0, 0);
        assert_eq!(arena.get(id).progress(0), 1.0);
    }

    #[test]
    fn display_of_copy_id() {
        assert_eq!(CopyId(7).to_string(), "c7");
    }

    #[test]
    fn arena_allocates_dense_ids_and_sequences() {
        let mut arena = CopyArena::new();
        assert!(arena.is_empty());
        let (id0, seq0) = arena.alloc_running(task(), 0, 10);
        let (id1, seq1) = arena.alloc_waiting(task(), 3, 5);
        assert_eq!((id0, id1), (CopyId(0), CopyId(1)));
        assert_eq!((seq0, seq1), (0, 1));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.total_allocated(), 2);
        assert_eq!(arena.live_slots(), 2);
        assert_eq!(arena.get(id1).launched_at(), 3);
        assert_eq!(arena.get(id1).seq(), 1);
    }

    #[test]
    fn arena_recycles_freed_slots_with_fresh_sequences() {
        let mut arena = CopyArena::new();
        let (id0, _) = arena.alloc_running(task(), 0, 10);
        let (id1, _) = arena.alloc_running(task(), 0, 20);
        assert_eq!(arena.get(id0).seq(), 0);
        assert_eq!(arena.get(id1).seq(), 1);

        // End and free the first copy: its slot is handed back out, the
        // sequence keeps counting, and the slot table does not grow.
        arena.finish(id0, 10);
        arena.free(id0);
        assert_eq!(arena.live_slots(), 1);
        let (id2, seq2) = arena.alloc_running(task(), 12, 5);
        assert_eq!(id2, id0, "freed slot must be reused");
        assert_eq!(seq2, 2, "sequence is never reused");
        assert_eq!(arena.get(id2).seq(), 2);
        assert_eq!(arena.get(id2).launched_at(), 12);
        assert_eq!(arena.get(id2).ended_at(), None, "cold record is reset too");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.peak_slots(), 2);
        assert_eq!(arena.total_allocated(), 3);
        assert_eq!(arena.live_slots(), 2);
        assert!(!arena.is_empty());
    }
}
