//! The frozen pre-calendar event queue: a min-heap with lazy stale entries.
//!
//! [`HeapEventQueue`] is the exact `BinaryHeap` implementation the engine
//! used before the calendar queue. It is retained as the **ordering oracle**:
//! the side-by-side proptests (`tests/tests/event_queue_equivalence.rs`)
//! drive both queues over randomized event streams and assert identical
//! delivery order, and the `event_path` benchmark uses it as the
//! same-machine baseline.
//!
//! The heap orders events by its own key, spelled out here from the public
//! [`Event`] variants rather than borrowed from the engine, so an
//! ordering bug in the calendar queue's key shows up as a divergence instead
//! of being shared by both sides.
//!
//! Do not "improve" this module; its value is that it does not change.

use mapreduce_sim::{Event, Slot};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The deterministic delivery order of queued events: slot, then kind (copy
/// completions before machine recoveries before machine failures), then
/// sequence (copy allocation order, or machine index).
fn heap_key(event: &Event) -> (Slot, u8, u64) {
    match *event {
        Event::CopyFinish { at, seq, .. } => (at, 0, seq),
        Event::MachineUp { at, machine, .. } => (at, 1, u64::from(machine)),
        Event::MachineDown { at, machine, .. } => (at, 2, u64::from(machine)),
    }
}

/// The frozen pre-calendar event queue (see the module docs).
#[derive(Debug, Default)]
pub struct HeapEventQueue {
    heap: BinaryHeap<Reverse<HeapEntry>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    key: (Slot, u8, u64),
    event: Event,
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl HeapEventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        HeapEventQueue::default()
    }

    /// Number of pending events (including entries that may be stale).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules an event.
    pub fn push(&mut self, event: Event) {
        self.heap.push(Reverse(HeapEntry {
            key: heap_key(&event),
            event,
        }));
    }

    /// The slot of the earliest pending event, if any.
    pub fn peek_slot(&self) -> Option<Slot> {
        self.heap.peek().map(|Reverse(entry)| entry.key.0)
    }

    /// Pops the earliest event if it fires at or before `now`.
    pub fn pop_due(&mut self, now: Slot) -> Option<Event> {
        match self.heap.peek() {
            Some(Reverse(entry)) if entry.key.0 <= now => {
                Some(self.heap.pop().expect("peeked").0.event)
            }
            _ => None,
        }
    }
}
