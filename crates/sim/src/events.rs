//! Typed simulation events and the event queue.
//!
//! The queue holds the events the engine schedules for later slots: copy
//! completions and machine transitions. Job arrivals never enter it: the
//! engine's source cursor admits them at their instant, ahead of that
//! instant's queued batch.
//!
//! * [`Event`] is the typed vocabulary of queued things that can happen at
//!   a slot.
//! * [`EventQueue`] is a slot-granular **calendar queue**: a ring of per-slot
//!   buckets plus a flat overflow heap for far-future slots, with `O(1)`
//!   push and one sort per drained instant. It delivers events in
//!   the same total, deterministic order as a binary heap over
//!   `(slot, kind, sequence)` would: earlier slots first, copy completions
//!   before machine recoveries before machine failures at the same slot,
//!   and same-kind ties broken by sequence (copy allocation order or
//!   machine index — copy *slots* are recycled across a run, allocation
//!   sequences never are). The frozen pre-calendar `BinaryHeap` it replaced
//!   is the ordering oracle of the side-by-side equivalence proptests and
//!   the `event_path` benchmark; it lives with the tests
//!   (`integration_tests::oracles::HeapEventQueue`) and spells out its own
//!   key, so it shares no ordering code with this module.
//!
//! # Storage
//!
//! A ring bucket is a `u32` head of a singly linked list through one node
//! slab shared by every bucket. Drained nodes go on a free list and are
//! reused LIFO before the slab grows, so the slab holds at most as many
//! nodes as events were ever queued at once ([`EventQueue::peak_len`]),
//! however the events spread over the ring. Per-slot `Vec` buckets, which
//! this replaced, each kept the capacity of their busiest instant for the
//! rest of the run. At 4 bytes a bucket, the default ring is `2^14` slots
//! wide, and the overflow heap sees only the rare far tail (on the paper's
//! traces well under 1 % of pushes, [`EventQueue::overflow_pushes`]).
//!
//! # Stale events
//!
//! Completion events can become stale before they fire: first-copy-wins kills
//! sibling copies, `CancelCopies` actions kill speculative ones and machine
//! crashes kill resident ones. The queue deletes lazily: a dead copy's
//! finish event stays queued, its instant still fires (it shows up in
//! [`EventQueue::peek_slot`] and wakes the engine), and the engine rejects
//! the delivered entry with an `O(1)` check of the copy's allocation
//! sequence, phase and finish slot. Removing the entry instead would cost
//! more than skipping it and would still have to leave its instant firing,
//! because the decision-instant sequence is part of the trajectory. So the
//! calendar queue and the heap oracle deliver the same raw sequence, stale
//! entries included. While it is queued, a stale entry costs one slab node
//! (or one overflow-heap entry); the node is reused as soon as its slot is
//! drained.

use crate::copy::CopyId;
use crate::state::Slot;
use std::collections::BinaryHeap;

/// Something the engine schedules to happen at a later simulation slot.
/// Job arrivals are not events: the engine admits them from its source
/// cursor at their instant, before that instant's events are delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A running copy reaches its finish slot. May be stale by the time it is
    /// popped (sibling finished first, the copy was cancelled, or its slot
    /// was recycled after the owning job completed); the engine validates
    /// against the copy's arena record before anything else. The owning
    /// task is not carried: the arena's record of the copy holds it.
    CopyFinish {
        /// Slot of the (scheduled) completion.
        at: Slot,
        /// The arena slot of the copy that finishes.
        copy: CopyId,
        /// The copy's run-unique allocation sequence
        /// ([`crate::copy::CopyRef::seq`]). Orders same-slot completions
        /// deterministically (copy slots are recycled; sequences never are)
        /// and lets the engine's delivery-time validation tell a stale entry
        /// from a reused slot.
        seq: u64,
    },
    /// A machine recovers (crash class) or leaves a degraded epoch
    /// (brown-out class). Fires after same-slot completions so a copy
    /// finishing exactly at the recovery instant completes normally first.
    MachineUp {
        /// Slot of the recovery.
        at: Slot,
        /// Index of the machine.
        machine: u32,
        /// `true` for a crash-class recovery (capacity returns), `false`
        /// for the end of a brown-out epoch (speed returns).
        crash: bool,
    },
    /// A machine fails (crash class: every resident copy is killed and the
    /// machine leaves the schedulable pool) or enters a degraded epoch
    /// (brown-out class: copies launched while degraded run slower).
    MachineDown {
        /// Slot of the failure.
        at: Slot,
        /// Index of the machine.
        machine: u32,
        /// `true` for a crash, `false` for a brown-out.
        crash: bool,
    },
}

impl Event {
    /// The slot at which the event fires.
    pub fn at(&self) -> Slot {
        match *self {
            Event::CopyFinish { at, .. } => at,
            Event::MachineUp { at, .. } => at,
            Event::MachineDown { at, .. } => at,
        }
    }

    /// Deterministic ordering key: slot, then kind (completions before
    /// machine transitions, recoveries before failures), then sequence
    /// (copy allocation order / machine index — *not* the recyclable copy
    /// slot).
    fn key(&self) -> (Slot, u8, u64) {
        match *self {
            Event::CopyFinish { at, seq, .. } => (at, 0, seq),
            Event::MachineUp { at, machine, .. } => (at, 1, machine as u64),
            Event::MachineDown { at, machine, .. } => (at, 2, machine as u64),
        }
    }

    /// In-bucket ordering key (the slot is implied by the bucket).
    fn bucket_key(&self) -> (u8, u64) {
        let (_, kind, seq) = self.key();
        (kind, seq)
    }
}

/// Default ring width exponent: `2^14 = 16384` slot-granular buckets. Copy
/// durations overwhelmingly land within a few thousand slots of the
/// current instant in the paper's traces, so the ring absorbs nearly all
/// pushes; anything further out (heavy-tail durations, machine epochs) goes
/// to the overflow heap and is pulled in as the window slides. An empty
/// bucket costs 4 bytes and no node, so the width costs 64 KiB of heads.
pub const DEFAULT_RING_BITS: u8 = 14;

/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One slab node: a queued event and the next node of its list (a ring
/// bucket while queued, the free list once drained).
#[derive(Debug)]
struct Node {
    event: Event,
    next: u32,
}

/// An overflow entry: an [`Event`] ordered by its `(slot, kind, sequence)`
/// key, smallest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ByKey(Event);

impl PartialOrd for ByKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

/// Slot-granular calendar queue of pending [`Event`]s with the same
/// deterministic total order as a `(slot, kind, sequence)` min-heap.
///
/// The queue is a ring of `2^ring_bits` per-slot buckets anchored at the
/// drained position plus one flat min-heap for slots beyond the ring window.
/// Each bucket is an unsorted linked list through a shared node slab (see
/// the module docs). `push` is `O(1)` into the ring (far-future events pay
/// one heap push and one heap pop as the window slides over them), and
/// draining an instant costs one sort of that slot's (typically tiny)
/// bucket instead of a heap pop per event.
///
/// Events must not be scheduled at slots the queue has already drained past
/// ([`EventQueue::drained_to`]); the engine never does (a copy's duration is
/// at least one slot), and the constraint is asserted in `push`.
///
/// The queue also counts its own work: events pushed, pushes that went to
/// the overflow heap, and the most events ever queued at once.
#[derive(Debug)]
pub struct EventQueue {
    /// One list head per ring slot: the pending events of that slot,
    /// unsorted until the slot is drained. [`NIL`] when empty.
    heads: Box<[u32]>,
    /// Node storage of every bucket list, grown only when the free list is
    /// empty.
    nodes: Vec<Node>,
    /// Head of the list of drained nodes, reused LIFO.
    free: u32,
    /// Occupancy bitmap over ring indices, one bit per bucket.
    occupancy: Box<[u64]>,
    mask: u64,
    /// Window anchor: every stored event fires at or after `base`; ring
    /// buckets hold slots in `[base, base + ring_len)`.
    base: Slot,
    /// Number of occupied ring buckets.
    ring_occupied: usize,
    /// Far-future events (slot >= base + ring_len).
    overflow: BinaryHeap<ByKey>,
    /// Stored (not yet drained) events, stale ones included.
    len: usize,
    /// High-water mark of `len`.
    peak_len: usize,
    /// Events ever pushed.
    pushed: u64,
    /// Pushes that landed beyond the ring window, in the overflow heap.
    overflowed: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::with_ring_bits(DEFAULT_RING_BITS)
    }
}

impl EventQueue {
    /// An empty queue with the default ring width.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// An empty queue with `2^ring_bits` ring buckets.
    ///
    /// # Panics
    /// Panics unless `4 <= ring_bits <= 20`.
    pub fn with_ring_bits(ring_bits: u8) -> Self {
        assert!(
            (4..=20).contains(&ring_bits),
            "ring bits must be in 4..=20, got {ring_bits}"
        );
        let ring_len = 1usize << ring_bits;
        EventQueue {
            heads: vec![NIL; ring_len].into_boxed_slice(),
            nodes: Vec::new(),
            free: NIL,
            occupancy: vec![0u64; ring_len.div_ceil(64)].into_boxed_slice(),
            mask: (ring_len - 1) as u64,
            base: 0,
            ring_occupied: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            peak_len: 0,
            pushed: 0,
            overflowed: 0,
        }
    }

    fn ring_len(&self) -> u64 {
        self.mask + 1
    }

    /// Number of pending events, stale ones included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most events ever pending at once, stale ones included.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Pushes that landed beyond the ring window and went through the
    /// overflow heap.
    pub fn overflow_pushes(&self) -> u64 {
        self.overflowed
    }

    /// The slot before which everything has been drained. Pushes must target
    /// this slot or later.
    pub fn drained_to(&self) -> Slot {
        self.base
    }

    fn occ_set(&mut self, idx: usize) {
        let word = idx / 64;
        let bit = 1u64 << (idx % 64);
        if self.occupancy[word] & bit == 0 {
            self.occupancy[word] |= bit;
            self.ring_occupied += 1;
        }
    }

    fn occ_clear(&mut self, idx: usize) {
        let word = idx / 64;
        let bit = 1u64 << (idx % 64);
        if self.occupancy[word] & bit != 0 {
            self.occupancy[word] &= !bit;
            self.ring_occupied -= 1;
        }
    }

    /// Index of the first occupied bucket at or after `start` in circular
    /// window order, if any bucket is occupied.
    fn occ_scan_from(&self, start: usize) -> Option<usize> {
        if self.ring_occupied == 0 {
            return None;
        }
        let words = self.occupancy.len();
        let w0 = start / 64;
        // The start word, masked to the bits at or after `start`.
        let masked = self.occupancy[w0] & (!0u64 << (start % 64));
        if masked != 0 {
            return Some(w0 * 64 + masked.trailing_zeros() as usize);
        }
        // The remaining words in circular order; the start word is visited
        // once more at the end for its masked-off prefix.
        for i in 1..=words {
            let w = (w0 + i) % words;
            let mut bits = self.occupancy[w];
            if w == w0 {
                bits &= !(!0u64 << (start % 64));
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Links `event` into ring bucket `idx`, reusing a drained node if one
    /// is free.
    fn link(&mut self, idx: usize, event: Event) {
        let node = Node {
            event,
            next: self.heads[idx],
        };
        let id = if self.free != NIL {
            let id = self.free;
            self.free = self.nodes[id as usize].next;
            self.nodes[id as usize] = node;
            id
        } else {
            let id = u32::try_from(self.nodes.len()).expect("fewer than 2^32 queued events");
            self.nodes.push(node);
            id
        };
        self.heads[idx] = id;
        self.occ_set(idx);
    }

    /// Schedules an event.
    ///
    /// # Panics
    /// Panics (debug builds) if the event fires before the drained position.
    pub fn push(&mut self, event: Event) {
        let slot = event.at();
        debug_assert!(
            slot >= self.base,
            "event at slot {slot} scheduled behind the drained position {}",
            self.base
        );
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        self.pushed += 1;
        if slot.wrapping_sub(self.base) < self.ring_len() {
            self.link((slot & self.mask) as usize, event);
        } else {
            self.overflowed += 1;
            self.overflow.push(ByKey(event));
        }
    }

    /// The slot of the earliest pending event, if any. Every ring slot lies
    /// before every overflow slot, so the heap is consulted only when the
    /// ring is empty.
    pub fn peek_slot(&self) -> Option<Slot> {
        let start = (self.base & self.mask) as usize;
        if let Some(idx) = self.occ_scan_from(start) {
            let delta = (idx as u64).wrapping_sub(self.base & self.mask) & self.mask;
            return Some(self.base + delta);
        }
        self.overflow.peek().map(|ByKey(event)| event.at())
    }

    /// Moves the window anchor forward to `slot`, pulling every overflow
    /// event that now falls inside the ring window into its bucket.
    /// Requires every bucket before `slot` to be drained.
    fn advance_to(&mut self, slot: Slot) {
        if slot <= self.base {
            return;
        }
        self.base = slot;
        let window_end = self.base.saturating_add(self.ring_len());
        while let Some(&ByKey(event)) = self.overflow.peek() {
            let at = event.at();
            if at >= window_end {
                break;
            }
            self.overflow.pop();
            let idx = (at & self.mask) as usize;
            debug_assert!(
                self.heads[idx] == NIL || self.nodes[self.heads[idx] as usize].event.at() == at
            );
            self.link(idx, event);
        }
    }

    /// Drains every event due at or before `now` into `out`, in full
    /// deterministic order, stale entries included. The engine delivers one
    /// decision instant per call, so this typically empties exactly one
    /// bucket with a single sort.
    pub fn drain_due(&mut self, now: Slot, out: &mut Vec<Event>) {
        while let Some(slot) = self.peek_slot() {
            if slot > now {
                break;
            }
            self.advance_to(slot);
            let idx = (slot & self.mask) as usize;
            let start = out.len();
            let mut id = std::mem::replace(&mut self.heads[idx], NIL);
            while id != NIL {
                let node = &mut self.nodes[id as usize];
                out.push(node.event);
                let next = std::mem::replace(&mut node.next, self.free);
                self.free = id;
                id = next;
            }
            self.len -= out.len() - start;
            out[start..].sort_unstable_by_key(Event::bucket_key);
            self.occ_clear(idx);
        }
        // Anchor the window at the delivered instant so far-future pushes
        // from the handlers land in the freshest possible ring window.
        self.advance_to(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_workload::{JobId, Phase};

    fn finish(at: Slot, copy: u64) -> Event {
        Event::CopyFinish {
            at,
            copy: CopyId(copy),
            seq: copy,
        }
    }

    /// Everything due at or before `now`, in delivery order.
    fn drain(q: &mut EventQueue, now: Slot) -> Vec<Event> {
        let mut out = Vec::new();
        q.drain_due(now, &mut out);
        out
    }

    fn copies(events: &[Event]) -> Vec<u64> {
        events
            .iter()
            .map(|e| match e {
                Event::CopyFinish { copy, .. } => copy.0,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn events_pop_in_slot_order() {
        let mut q = EventQueue::new();
        q.push(Event::CopyFinish {
            at: 30,
            copy: CopyId(2),
            seq: 2,
        });
        q.push(Event::MachineUp {
            at: 10,
            machine: 1,
            crash: true,
        });
        q.push(Event::CopyFinish {
            at: 20,
            copy: CopyId(1),
            seq: 1,
        });
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_slot(), Some(10));
        let slots: Vec<Slot> = drain(&mut q, Slot::MAX).iter().map(Event::at).collect();
        assert_eq!(slots, vec![10, 20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn completions_precede_machine_transitions_at_the_same_slot() {
        let mut q = EventQueue::new();
        q.push(Event::MachineDown {
            at: 5,
            machine: 0,
            crash: true,
        });
        q.push(Event::MachineUp {
            at: 5,
            machine: 9,
            crash: true,
        });
        q.push(finish(5, 0));
        let out = drain(&mut q, 5);
        assert!(matches!(out[0], Event::CopyFinish { .. }));
        assert!(matches!(out[1], Event::MachineUp { machine: 9, .. }));
        assert!(matches!(out[2], Event::MachineDown { machine: 0, .. }));
    }

    #[test]
    fn same_slot_completions_pop_in_copy_id_order() {
        // Map→Reduce precedence activation pushes reduce-copy completions in
        // task-index (and therefore copy-id) order; the queue must preserve
        // that order for determinism.
        let mut q = EventQueue::new();
        for copy in [3u64, 1, 2] {
            q.push(Event::CopyFinish {
                at: 7,
                copy: CopyId(copy),
                seq: copy,
            });
        }
        assert_eq!(copies(&drain(&mut q, 7)), vec![1, 2, 3]);
    }

    #[test]
    fn machine_events_sort_after_completions_and_by_machine() {
        // Within one instant: completions < recoveries < failures,
        // machine index breaking ties — so a copy finishing
        // exactly when its machine crashes completes normally before the
        // crash lands, and a recovery at the failure instant of another
        // machine restores capacity first.
        let mut q = EventQueue::new();
        q.push(Event::MachineDown {
            at: 5,
            machine: 3,
            crash: true,
        });
        q.push(Event::MachineDown {
            at: 5,
            machine: 1,
            crash: false,
        });
        q.push(Event::MachineUp {
            at: 5,
            machine: 9,
            crash: true,
        });
        q.push(finish(5, 0));
        let keys: Vec<(u8, u64)> = drain(&mut q, 5)
            .iter()
            .map(|e| {
                let (slot, kind, seq) = e.key();
                assert_eq!(slot, 5);
                assert_eq!(e.at(), 5);
                (kind, seq)
            })
            .collect();
        assert_eq!(keys, vec![(0, 0), (1, 9), (2, 1), (2, 3)]);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        // Slots far beyond the ring window live in the overflow heap and are
        // pulled back in as the window slides, preserving global order.
        let mut q = EventQueue::with_ring_bits(4); // 16-slot ring
        q.push(finish(1_000_000, 3));
        q.push(finish(5, 1));
        q.push(finish(40_000, 2));
        q.push(Event::MachineDown {
            at: 1_000_000,
            machine: 7,
            crash: false,
        });
        assert_eq!(q.peek_slot(), Some(5));
        let order: Vec<(Slot, u8)> = drain(&mut q, Slot::MAX)
            .iter()
            .map(|e| {
                let (slot, kind, _) = e.key();
                (slot, kind)
            })
            .collect();
        assert_eq!(
            order,
            vec![(5, 0), (40_000, 0), (1_000_000, 0), (1_000_000, 2)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn window_wraps_without_mixing_slots() {
        // Repeated push/drain cycles march the window far past the ring
        // length; bucket indices wrap but slots never alias.
        let mut q = EventQueue::with_ring_bits(4);
        let mut expected = Vec::new();
        let mut slot = 0;
        for copy in 0..200u64 {
            slot += 7; // strides across several wraps of the 16-slot ring
            q.push(finish(slot, copy));
            expected.push(slot);
            if copy % 3 == 0 {
                let next = q.peek_slot().unwrap();
                let popped = drain(&mut q, next);
                assert_eq!(popped.len(), 1);
                assert_eq!(popped[0].at(), expected.remove(0));
            }
        }
        let rest: Vec<Slot> = drain(&mut q, Slot::MAX).iter().map(Event::at).collect();
        assert_eq!(rest, expected);
    }

    #[test]
    fn stale_entries_still_fire_their_instant() {
        // A dead copy's finish entry is never removed: its instant still
        // fires (peek reports it, the drain delivers it) and the engine's
        // delivery-time check skips it. This holds in the ring and in the
        // overflow heap alike.
        let mut q = EventQueue::with_ring_bits(4);
        q.push(finish(10, 1));
        q.push(finish(100_000, 2)); // overflow
        assert_eq!(q.peek_slot(), Some(10));
        assert_eq!(copies(&drain(&mut q, 10)), vec![1]);
        assert_eq!(q.peek_slot(), Some(100_000));
        assert_eq!(copies(&drain(&mut q, 100_000)), vec![2]);
        assert!(q.is_empty());
        assert_eq!(q.peek_slot(), None);
    }

    #[test]
    fn same_slot_push_while_draining_keeps_order() {
        // A push at the instant just drained is legal (`drained_to`) and is
        // delivered, sorted, by the next drain of that instant.
        let mut q = EventQueue::new();
        q.push(finish(6, 1));
        q.push(finish(7, 9));
        assert_eq!(copies(&drain(&mut q, 6)), vec![1]);
        assert_eq!(q.drained_to(), 6);
        q.push(finish(6, 5));
        q.push(finish(6, 3));
        assert_eq!(q.peek_slot(), Some(6));
        assert_eq!(copies(&drain(&mut q, 6)), vec![3, 5]);
        assert_eq!(copies(&drain(&mut q, 7)), vec![9]);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_due_batches_whole_instants() {
        let mut q = EventQueue::new();
        q.push(finish(4, 2));
        q.push(finish(4, 1));
        q.push(Event::MachineUp {
            at: 4,
            machine: 0,
            crash: true,
        });
        q.push(finish(9, 3));
        let out = drain(&mut q, 4);
        assert_eq!(out.len(), 3);
        assert_eq!(copies(&out[..2]), vec![1, 2]);
        assert!(matches!(out[2], Event::MachineUp { .. }));
        assert_eq!(q.len(), 1);
        assert_eq!(q.drained_to(), 4);
        assert_eq!(drain(&mut q, 100).len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn node_slab_never_outgrows_the_peak_queue() {
        // Long push/drain cycles over a 16-slot ring: same-slot bursts,
        // many wraps, and far-future events that come back in from the
        // overflow heap all share one slab, which reuses drained nodes
        // before it grows.
        let mut q = EventQueue::with_ring_bits(4);
        let mut now = 0;
        let mut copy = 0;
        for round in 0..2_000u64 {
            let burst = 1 + round % 9;
            for i in 0..burst {
                let offset = match (round + i) % 7 {
                    0 => 1, // a same-slot tie next instant
                    1..=4 => 1 + (round * 3 + i) % 14,
                    5 => 16 + (round + i) % 40, // just past the window
                    _ => 5_000 + round,         // far future
                };
                q.push(finish(now + offset, copy));
                copy += 1;
                assert!(q.nodes.len() <= q.peak_len());
            }
            now = q.peek_slot().unwrap() + round % 3;
            drain(&mut q, now);
            assert!(q.nodes.len() <= q.peak_len());
        }
        let live = q.len();
        let mut delivered = 0;
        while let Some(next) = q.peek_slot() {
            delivered += drain(&mut q, next).len();
        }
        assert_eq!(delivered, live);
        assert!(q.is_empty());
        assert!(q.nodes.len() <= q.peak_len());
        assert!(
            (q.nodes.len() as u64) * 20 < copy,
            "slab grew to {} nodes for {copy} pushes",
            q.nodes.len()
        );
        assert_eq!(q.pushed(), copy);
        assert!(q.overflow_pushes() > 0 && q.overflow_pushes() < copy);

        // A drained queue refills from its free list without growing.
        let slab = q.nodes.len();
        let base = q.drained_to();
        for c in 0..slab as u64 {
            q.push(finish(base + 1 + c % 5, copy + c));
        }
        assert_eq!(q.nodes.len(), slab);
        assert_eq!(drain(&mut q, Slot::MAX).len(), slab);
    }

    #[test]
    fn stale_sibling_finish_events_are_skipped() {
        // One 50-slot task whose clones resample a deterministic 10-slot
        // workload: the clone wins at slot 10, cancelling the original. The
        // original's finish event at slot 50 stays queued and fails the
        // engine's liveness check when it fires; the run ends at makespan 10
        // with exactly one completion and consistent machine accounting.
        use crate::config::SimConfig;
        use crate::engine::Simulation;
        use crate::schedulers::MaxCloneScheduler;
        use mapreduce_workload::{DurationDistribution, JobSpecBuilder, Trace};

        let job = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[50.0])
            .map_distribution(DurationDistribution::Deterministic { value: 10.0 })
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        let outcome = Simulation::new(SimConfig::new(2).with_seed(1), &trace)
            .run(&mut MaxCloneScheduler::new(2))
            .unwrap();
        let record = outcome.record(JobId::new(0)).unwrap();
        assert_eq!(record.completion, 10);
        assert_eq!(outcome.makespan, 10);
        assert_eq!(outcome.total_copies, 2);
        // 2 machines × 10 slots, both fully busy until first-copy-wins.
        assert_eq!(outcome.busy_machine_slots, 20);
    }

    #[test]
    fn first_copy_wins_frees_machines_for_waiting_work() {
        // Clone cancellation must release the sibling's machine immediately:
        // a second job that arrives while both machines are occupied by the
        // clones starts right at the winner's finish slot.
        use crate::config::SimConfig;
        use crate::engine::Simulation;
        use crate::schedulers::MaxCloneScheduler;
        use mapreduce_workload::{DurationDistribution, JobSpecBuilder, Trace};

        let cloned = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[50.0])
            .map_distribution(DurationDistribution::Deterministic { value: 10.0 })
            .build();
        let waiter = JobSpecBuilder::new(JobId::new(1))
            .arrival(1)
            .map_tasks_from_workloads(&[5.0])
            .build();
        let trace = Trace::new(vec![cloned, waiter]).unwrap();
        let outcome = Simulation::new(SimConfig::new(2).with_seed(1), &trace)
            .run(&mut MaxCloneScheduler::new(2))
            .unwrap();
        // Winner finishes at 10, cancelling its sibling; both machines free →
        // the waiting job runs 10..15.
        assert_eq!(outcome.record(JobId::new(0)).unwrap().completion, 10);
        assert_eq!(outcome.record(JobId::new(1)).unwrap().completion, 15);
    }

    #[test]
    fn early_launched_reduce_copies_activate_when_map_completes() {
        // A scheduler that launches *everything* at slot 0 (as Algorithm 1
        // does): the reduce copies hold machines in WaitingForMapPhase. When
        // the map phase ends (slot 10) they activate — in task-index order,
        // per the queue's same-slot ordering — and run their full durations.
        use crate::config::SimConfig;
        use crate::engine::Simulation;
        use crate::state::{Action, ClusterState, Scheduler};

        struct LaunchEverything;
        impl Scheduler for LaunchEverything {
            fn name(&self) -> &str {
                "launch-everything"
            }
            fn schedule_into(&mut self, state: &ClusterState<'_>, actions: &mut Vec<Action>) {
                for job in state.alive_jobs() {
                    for phase in Phase::ALL {
                        for task in job.unscheduled_tasks(phase) {
                            actions.push(Action::Launch {
                                task: task.id(),
                                copies: 1,
                            });
                        }
                    }
                }
            }
        }

        use mapreduce_workload::{JobSpecBuilder, Trace};
        let job = JobSpecBuilder::new(JobId::new(0))
            .map_tasks_from_workloads(&[10.0])
            .reduce_tasks_from_workloads(&[7.0, 3.0])
            .build();
        let trace = Trace::new(vec![job]).unwrap();
        let outcome = Simulation::new(SimConfig::new(8), &trace)
            .run(&mut LaunchEverything)
            .unwrap();
        // Map ends at 10; the longer reduce task determines completion: 17.
        assert_eq!(outcome.record(JobId::new(0)).unwrap().completion, 17);
        // Three copies (1 map + 2 reduce), no clones.
        assert_eq!(outcome.total_copies, 3);
        // Reduce copies held their machines from slot 0 while waiting:
        // busy = 10 (map) + 17 + 13 = 40 machine-slots.
        assert_eq!(outcome.busy_machine_slots, 40);
    }
}
