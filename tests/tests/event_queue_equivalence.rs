//! Side-by-side equivalence of the calendar event queue and the frozen
//! binary-heap reference.
//!
//! The engine's trajectory is fully determined by the sequence of delivered
//! events and the sequence of decision instants. These properties drive the
//! [`EventQueue`] (calendar/bucket) and the frozen [`HeapEventQueue`] over
//! identical randomized streams — machine transitions and finishes,
//! same-slot ties, far-future overflow slots, and cancellations of queued
//! finishes — and assert that
//!
//! * both queues report the **same next instant** at every step, and
//! * both deliver the **same raw events in the same order**, stale entries
//!   included: a cancelled copy's finish stays queued in either queue, and
//!   the same liveness filter (standing in for the engine's delivery-time
//!   check) drops it on both sides. Every cancelled entry is delivered
//!   exactly once.
//!
//! The heap orders by its own `(slot, kind, sequence)` key, written out from
//! the public [`Event`] variants, so an ordering bug in the calendar queue's
//! key is a divergence here rather than a bug both sides share.

use integration_tests::oracles::HeapEventQueue;
use mapreduce_sim::events::DEFAULT_RING_BITS;
use mapreduce_sim::{CopyId, Event, EventQueue, Slot};
use mapreduce_support::proptest::prelude::*;
use mapreduce_support::rng::{Rng, SimRng};
use std::collections::HashSet;

fn finish_event(at: u64, copy: u64) -> Event {
    // These synthetic streams never recycle copy slots, so the allocation
    // sequence equals the copy id — exactly the engine's pre-free-list
    // behaviour the heap oracle was frozen against.
    Event::CopyFinish {
        at,
        copy: CopyId(copy),
        seq: copy,
    }
}

/// Everything the calendar queue delivers at or before `now`, in order.
fn drain(q: &mut EventQueue, now: Slot) -> Vec<Event> {
    let mut out = Vec::new();
    q.drain_due(now, &mut out);
    out
}

/// The delivered events that survive the liveness filter: everything except
/// the finishes of cancelled copies.
fn live(events: &[Event], cancelled: &HashSet<u64>) -> Vec<Event> {
    events
        .iter()
        .copied()
        .filter(|e| !matches!(e, Event::CopyFinish { copy, .. } if cancelled.contains(&copy.0)))
        .collect()
}

/// Drives both queues with one randomized stream and checks peek and pop
/// parity throughout. Returns an error string on divergence (proptest style).
fn drive(seed: u64, ops: usize, ring_bits: u8) -> Result<(), String> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut calendar = EventQueue::with_ring_bits(ring_bits);
    let mut heap = HeapEventQueue::new();

    let mut now: u64 = 0;
    let mut next_copy: u64 = 0;
    // Every machine event gets a fresh machine index, so no two queued
    // events share a `(slot, kind, sequence)` key.
    let mut next_machine: u32 = 0;
    // Queued (slot, copy) finish entries that can still be cancelled.
    let mut cancellable: Vec<(u64, u64)> = Vec::new();
    let mut cancelled: HashSet<u64> = HashSet::new();
    let mut stale_delivered = 0usize;

    for _ in 0..ops {
        match rng.gen_range(0u32..10) {
            // Push a burst of events; small offsets force same-slot ties,
            // huge offsets land in the calendar's overflow heap.
            0..=5 => {
                let burst = rng.gen_range(1usize..4);
                for _ in 0..burst {
                    let offset = match rng.gen_range(0u32..10) {
                        0..=5 => rng.gen_range(1u64..8),
                        6..=8 => rng.gen_range(8u64..5_000),
                        _ => rng.gen_range(5_000u64..2_000_000),
                    };
                    let slot = now + offset;
                    if rng.gen_range(0u32..5) == 0 {
                        let (machine, crash) = (next_machine, rng.gen_bool(0.5));
                        let event = if rng.gen_bool(0.5) {
                            Event::MachineUp {
                                at: slot,
                                machine,
                                crash,
                            }
                        } else {
                            Event::MachineDown {
                                at: slot,
                                machine,
                                crash,
                            }
                        };
                        next_machine += 1;
                        calendar.push(event);
                        heap.push(event);
                    } else {
                        let event = finish_event(slot, next_copy);
                        cancellable.push((slot, next_copy));
                        next_copy += 1;
                        calendar.push(event);
                        heap.push(event);
                    }
                }
            }
            // Cancel a random still-future finish (as first-copy-wins,
            // CancelCopies and machine crashes do). Neither queue is told:
            // the entry stays queued and goes stale.
            6..=7 => {
                cancellable.retain(|&(slot, _)| slot > now);
                if !cancellable.is_empty() {
                    let pick = rng.gen_range(0usize..cancellable.len());
                    let (_, copy) = cancellable.swap_remove(pick);
                    cancelled.insert(copy);
                }
            }
            // Advance to the next instant (occasionally past it) and drain.
            _ => {
                prop_assert_eq!(calendar.peek_slot(), heap.peek_slot());
                let Some(next) = calendar.peek_slot() else {
                    continue;
                };
                now = next
                    + if rng.gen_range(0u32..4) == 0 {
                        rng.gen_range(0u64..20)
                    } else {
                        0
                    };
                let drained = drain(&mut calendar, now);
                let from_heap: Vec<Event> = std::iter::from_fn(|| heap.pop_due(now)).collect();
                prop_assert_eq!(&drained, &from_heap);
                prop_assert_eq!(live(&drained, &cancelled), live(&from_heap, &cancelled));
                stale_delivered += drained.len() - live(&drained, &cancelled).len();
            }
        }
    }

    // Final drain: everything left must still agree.
    prop_assert_eq!(calendar.peek_slot(), heap.peek_slot());
    let drained = drain(&mut calendar, u64::MAX);
    let from_heap: Vec<Event> = std::iter::from_fn(|| heap.pop_due(u64::MAX)).collect();
    prop_assert_eq!(&drained, &from_heap);
    stale_delivered += drained.len() - live(&drained, &cancelled).len();
    prop_assert_eq!(stale_delivered, cancelled.len());
    prop_assert!(calendar.is_empty(), "calendar not empty after full drain");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn calendar_queue_matches_heap_reference(
        seed in 0u64..1_000_000,
        ops in 50usize..400,
        ring_sel in 0usize..4,
    ) {
        // Exercise a tiny ring (constant wrap + overflow churn), two
        // mid-size ones, and the engine default.
        let ring_bits = [4u8, 8, 11, DEFAULT_RING_BITS][ring_sel];
        drive(seed, ops, ring_bits)?;
    }
}

/// Long push/drain cycles with a bounded number of queued events, so the
/// calendar's node slab is drained and refilled many times over: same-slot
/// bursts (including pushes at the instant just drained), events at the
/// far edge of the ring window and just past it, and far-future events
/// from the overflow heap all share the slab's recycled nodes. Delivery
/// must match the heap oracle event for event.
fn drive_slab_reuse(seed: u64, cycles: usize, ring_bits: u8) -> Result<(), String> {
    const MAX_QUEUED: usize = 48;
    let ring_len = 1u64 << ring_bits;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut calendar = EventQueue::with_ring_bits(ring_bits);
    let mut heap = HeapEventQueue::new();
    let mut now: u64 = 0;
    let mut next_copy: u64 = 0;
    let mut delivered = 0usize;
    for _ in 0..cycles {
        while calendar.len() < MAX_QUEUED && rng.gen_range(0u32..8) != 0 {
            let burst = rng.gen_range(1u64..6);
            let offset = match rng.gen_range(0u32..10) {
                0..=1 => 0,
                2..=5 => rng.gen_range(1u64..16),
                6 => ring_len - 1,
                7 => ring_len + rng.gen_range(0u64..3),
                8 => rng.gen_range(ring_len / 2..ring_len),
                _ => rng.gen_range(2 * ring_len..20 * ring_len),
            };
            for _ in 0..burst {
                let event = finish_event(now + offset, next_copy);
                next_copy += 1;
                calendar.push(event);
                heap.push(event);
            }
        }
        prop_assert_eq!(calendar.peek_slot(), heap.peek_slot());
        let Some(next) = calendar.peek_slot() else {
            continue;
        };
        now = next + rng.gen_range(0u64..3);
        let drained = drain(&mut calendar, now);
        let from_heap: Vec<Event> = std::iter::from_fn(|| heap.pop_due(now)).collect();
        prop_assert_eq!(&drained, &from_heap);
        prop_assert!(
            calendar.len() < MAX_QUEUED + 5,
            "{} events queued",
            calendar.len()
        );
        delivered += drained.len();
    }
    let drained = drain(&mut calendar, u64::MAX);
    let from_heap: Vec<Event> = std::iter::from_fn(|| heap.pop_due(u64::MAX)).collect();
    prop_assert_eq!(&drained, &from_heap);
    delivered += drained.len();
    prop_assert_eq!(delivered as u64, next_copy);
    prop_assert_eq!(calendar.pushed(), next_copy);
    prop_assert!(calendar.peak_len() < MAX_QUEUED + 5);
    prop_assert!(calendar.is_empty(), "calendar not empty after full drain");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn slab_reuse_matches_heap_over_long_cycles(
        seed in 0u64..1_000_000,
        ring_sel in 0usize..2,
    ) {
        let ring_bits = [4u8, DEFAULT_RING_BITS][ring_sel];
        drive_slab_reuse(seed, 3_000, ring_bits)?;
    }
}

#[test]
fn pop_due_respects_now() {
    // Neither the calendar's drain nor the heap oracle's pop delivers an
    // event before its slot.
    let recovery = Event::MachineUp {
        at: 50,
        machine: 0,
        crash: true,
    };
    let mut q = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    q.push(recovery);
    heap.push(recovery);
    assert!(drain(&mut q, 49).is_empty());
    assert_eq!(heap.pop_due(49), None);
    assert_eq!(q.len(), 1);
    assert_eq!(heap.len(), 1);
    assert_eq!(drain(&mut q, 50), vec![recovery]);
    assert_eq!(heap.pop_due(50), Some(recovery));
}

#[test]
fn calendar_matches_heap_on_a_mixed_stream() {
    // Deterministic cross-check of the randomized property above: interleave
    // pushes and drains and compare delivery order against the frozen heap.
    let mut calendar = EventQueue::with_ring_bits(5);
    let mut heap = HeapEventQueue::new();
    let slots = [3u64, 3, 17, 90, 4, 17, 4096, 3, 64, 91, 4097, 5000];
    for (copy, &slot) in slots.iter().enumerate() {
        let e = finish_event(slot, copy as u64);
        calendar.push(e);
        heap.push(e);
    }
    for now in [3, 4, 17, 100, 6000] {
        assert_eq!(calendar.peek_slot(), heap.peek_slot());
        let from_heap: Vec<Event> = std::iter::from_fn(|| heap.pop_due(now)).collect();
        assert_eq!(drain(&mut calendar, now), from_heap);
    }
    assert!(calendar.is_empty() && heap.is_empty());
}
