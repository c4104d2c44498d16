//! Event-path micro-benchmark: the calendar queue against the frozen
//! binary-heap reference (`integration_tests::oracles::HeapEventQueue`) on
//! synthetic event streams.
//!
//! Two regimes, each measured for both queue implementations by the same
//! binary in the same run:
//!
//! * **churn** — steady-state push/drain traffic shaped like an engine run
//!   (a standing population of pending finishes, bursty same-slot ties, a
//!   heavy tail of far-future slots exercising the overflow heap);
//! * **cancel** — a clone-heavy schedule where the losing clones' queued
//!   finishes (three in four events) go stale before firing. Both queues
//!   delete lazily, as the engine does: every stale entry is delivered and
//!   skipped by the same `O(1)` liveness check (a flag per allocation
//!   sequence, standing in for the engine's arena lookup).
//!
//! Results are merged into `BENCH_engine.json` under `event_path`.
//!
//! Run with `cargo bench -p mapreduce-bench --bench event_path`.

use integration_tests::oracles::HeapEventQueue;
use mapreduce_sim::{CopyId, Event, EventQueue};
use mapreduce_support::criterion::{BenchmarkId, Criterion};
use mapreduce_support::rng::{Rng, SimRng};
use mapreduce_support::{criterion_group, criterion_main};
use std::hint::black_box;

/// Events per measured iteration.
const EVENTS: usize = 200_000;

fn finish_event(at: u64, copy: u64) -> Event {
    // No slot recycling in these synthetic streams: seq == copy id.
    Event::CopyFinish {
        at,
        copy: CopyId(copy),
        seq: copy,
    }
}

/// Draws the next event offset: mostly near-future slots with ties, a tail
/// reaching past the calendar's ring window.
fn offset(rng: &mut SimRng) -> u64 {
    match rng.gen_range(0u32..10) {
        0..=6 => rng.gen_range(1u64..64),
        7..=8 => rng.gen_range(64u64..4_000),
        _ => rng.gen_range(4_000u64..500_000),
    }
}

/// Steady-state churn: keep ~`standing` events pending, pushing bursts and
/// draining instants until `EVENTS` events have flowed through. Generic over
/// the queue via two closures so both implementations run the identical
/// stream.
fn churn<Q>(
    queue: &mut Q,
    push: impl Fn(&mut Q, Event),
    mut drain: impl FnMut(&mut Q, u64) -> u64,
) -> u64 {
    let mut rng = SimRng::seed_from_u64(7);
    let mut now = 0u64;
    let mut pushed = 0usize;
    let mut delivered = 0u64;
    let standing = 16_384usize;
    let mut pending = 0isize;
    while pushed < EVENTS {
        let burst = rng.gen_range(1usize..8).min(EVENTS - pushed);
        for _ in 0..burst {
            push(queue, finish_event(now + offset(&mut rng), pushed as u64));
            pushed += 1;
            pending += 1;
        }
        if pending as usize > standing || rng.gen_range(0u32..4) == 0 {
            now += rng.gen_range(1u64..32);
            let n = drain(queue, now);
            delivered += n;
            pending -= n as isize;
        }
    }
    delivered + drain(queue, u64::MAX)
}

fn churn_calendar() -> u64 {
    let mut queue = EventQueue::new();
    let mut buf = Vec::new();
    churn(
        &mut queue,
        |q, e| q.push(e),
        |q, now| {
            buf.clear();
            q.drain_due(now, &mut buf);
            buf.len() as u64
        },
    )
}

fn churn_heap() -> u64 {
    let mut queue = HeapEventQueue::new();
    churn(
        &mut queue,
        |q, e| q.push(e),
        |q, now| {
            let mut n = 0;
            while q.pop_due(now).is_some() {
                n += 1;
            }
            n
        },
    )
}

/// Clone-heavy cancellation: every task queues `CLONES` finish events, the
/// earliest wins, the siblings are killed. Their entries stay queued and are
/// skipped on delivery by the same liveness check for either queue. Returns
/// the number of live events delivered.
fn cancel<Q>(
    queue: &mut Q,
    push: impl Fn(&mut Q, Event),
    mut drain: impl FnMut(&mut Q, u64, &mut Vec<Event>),
) -> u64 {
    const CLONES: u64 = 4;
    let mut rng = SimRng::seed_from_u64(11);
    let mut stale = vec![false; EVENTS];
    let mut buf = Vec::new();
    let mut now = 0u64;
    let mut next = 0u64;
    let mut live = 0u64;
    let mut deliver = |queue: &mut Q, stale: &[bool], now: u64| {
        buf.clear();
        drain(queue, now, &mut buf);
        buf.iter()
            .filter(|e| !matches!(e, Event::CopyFinish { seq, .. } if stale[*seq as usize]))
            .count() as u64
    };
    for _ in 0..(EVENTS as u64 / CLONES) {
        let mut finishes = [0u64; CLONES as usize];
        for f in finishes.iter_mut() {
            *f = now + offset(&mut rng);
            push(queue, finish_event(*f, next));
            next += 1;
        }
        // First copy wins: the other clones' finish events go stale.
        let winner = *finishes.iter().min().expect("clones");
        for (i, &f) in finishes.iter().enumerate() {
            if f > winner {
                stale[(next - CLONES) as usize + i] = true;
            }
        }
        if rng.gen_range(0u32..4) == 0 {
            now += rng.gen_range(1u64..48);
            live += deliver(queue, &stale, now);
        }
    }
    live + deliver(queue, &stale, u64::MAX)
}

fn cancel_calendar() -> u64 {
    cancel(
        &mut EventQueue::new(),
        |q, e| q.push(e),
        |q, now, out| q.drain_due(now, out),
    )
}

fn cancel_heap() -> u64 {
    cancel(
        &mut HeapEventQueue::new(),
        |q, e| q.push(e),
        |q, now, out| out.extend(std::iter::from_fn(|| q.pop_due(now))),
    )
}

fn bench_event_path(c: &mut Criterion) {
    // The two implementations must agree on delivered-event counts; checked
    // once up front so a silent divergence can't masquerade as a speedup.
    assert_eq!(churn_calendar(), churn_heap());
    assert_eq!(cancel_calendar(), cancel_heap());

    let mut group = c.benchmark_group("event_path");
    group.bench_with_input(
        BenchmarkId::from_parameter("calendar_churn"),
        &(),
        |b, _| b.iter(|| black_box(churn_calendar())),
    );
    group.bench_with_input(BenchmarkId::from_parameter("heap_churn"), &(), |b, _| {
        b.iter(|| black_box(churn_heap()))
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("calendar_cancel"),
        &(),
        |b, _| b.iter(|| black_box(cancel_calendar())),
    );
    group.bench_with_input(BenchmarkId::from_parameter("heap_cancel"), &(), |b, _| {
        b.iter(|| black_box(cancel_heap()))
    });
    group.finish();

    mapreduce_bench::merge_bench_report("event_path", EVENTS, 0, c.results(), &[]);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_event_path
}
criterion_main!(benches);
