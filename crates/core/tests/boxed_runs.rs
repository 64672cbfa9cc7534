//! The box layer's allocations, counted by `bq-memtrack`'s allocator
//! (DESIGN.md §8.4): a batch of `n` values costs ⌈n/16⌉ runs minus the
//! full-length runs it finds parked, a single value one run of its own, and
//! after one warm-up batch a steady batch loop allocates no runs at all. The
//! runs a queue keeps stay within the retention bound — ⌈L/16⌉ live runs
//! for `L` values left in batch order, plus at most one slot-count of parked
//! full runs — and dropping the queue frees every one of them.
//!
//! Its own test binary, holding one test: the allocator's counters are
//! process-wide, and a sibling test running beside it would land in its
//! windows.

use bq_core::{BoxedQueue, OptimalQueue};
use bq_memtrack::{AllocScope, TrackingAlloc};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// A full run of `u64`s: the 8-byte header and 16 values, padded to 16.
const FULL_RUN_BYTES: usize = 144;

/// Emptied full runs a queue parks (`boxed.rs`' slot count).
const SLOTS: usize = 4;

fn queue() -> BoxedQueue<u64, OptimalQueue> {
    BoxedQueue::new(OptimalQueue::with_capacity_and_threads(128, 1))
}

#[test]
fn runs_are_parked_for_the_next_batch_and_retention_stays_bounded() {
    let everything = AllocScope::begin();
    let q = queue();
    let mut h = q.register();
    let mut out = Vec::with_capacity(128);
    // Size the handle's token buffer with runs of one: they are freed, not
    // parked. From here the queue's own live bytes are its parked runs.
    for v in 0..128 {
        q.enqueue(&mut h, v).unwrap();
    }
    assert_eq!(q.dequeue_many(&mut h, 128, &mut out), 128);
    out.clear();
    let base = AllocScope::begin();

    let mut parked = 0;
    for n in [1usize, 15, 16, 17, 32, 33, 100, 100] {
        let (full, runs) = (n / 16, n.div_ceil(16));
        let reused = full.min(parked);
        let scope = AllocScope::begin();
        let items: Vec<u64> = (1..=n as u64).collect();
        assert!(q.enqueue_many(&mut h, items).is_empty());
        // Besides the runs: the items vector (freed) and the token vector.
        assert_eq!(scope.allocated_blocks_delta(), runs - reused + 2, "n = {n}");
        assert_eq!(scope.live_blocks_delta(), runs - reused, "n = {n}");
        assert_eq!(q.dequeue_many(&mut h, n, &mut out), n);
        assert_eq!(out, (1..=n as u64).collect::<Vec<_>>());
        out.clear();
        // An emptied full run parks while a slot is free; the rest are freed.
        parked = (parked - reused + full).min(SLOTS);
        assert_eq!(base.live_delta(), parked * FULL_RUN_BYTES, "n = {n}");
    }
    assert_eq!(parked, SLOTS);

    // A single value is a run of one: one 16-byte allocation, freed.
    let scope = AllocScope::begin();
    q.enqueue(&mut h, 7).unwrap();
    assert_eq!(
        (scope.allocated_blocks_delta(), scope.live_delta()),
        (1, 16)
    );
    assert_eq!(q.dequeue(&mut h), Some(7));
    assert_eq!(base.live_delta(), SLOTS * FULL_RUN_BYTES);

    // Retention: eight runs of 16 (four of them parked ones), taken one
    // value at a time. The queue keeps ⌈L/16⌉ runs alive for its `L`
    // values, and every emptied run parks until the slots are full.
    assert!(q.enqueue_many(&mut h, (1..=128).collect()).is_empty());
    while !q.is_empty() {
        let live = q.len().div_ceil(16);
        let parked = (8 - live).min(SLOTS);
        assert_eq!(base.live_delta(), (live + parked) * FULL_RUN_BYTES);
        assert!(base.live_delta() <= (live + SLOTS) * FULL_RUN_BYTES);
        q.dequeue(&mut h).unwrap();
    }
    assert_eq!(base.live_delta(), SLOTS * FULL_RUN_BYTES);

    // Dropped holding values and parked runs alike, the queue frees both.
    assert!(q.enqueue_many(&mut h, (1..=40).collect()).is_empty());
    drop((h, q, out));
    assert_eq!(everything.live_delta(), 0);

    // Steady state on a fresh queue: one warm-up batch of 32 allocates two
    // runs, and from then on a 32-value batch reuses the two it emptied —
    // only the items and token vectors are allocated.
    let q = queue();
    let mut h = q.register();
    let mut out = Vec::with_capacity(32);
    let scope = AllocScope::begin();
    assert!(q.enqueue_many(&mut h, (0..32).collect()).is_empty());
    assert_eq!(scope.live_blocks_delta(), 2);
    assert_eq!(q.dequeue_many(&mut h, 32, &mut out), 32);
    out.clear();
    let scope = AllocScope::begin();
    for round in 0..100u64 {
        let items: Vec<u64> = (round * 32..round * 32 + 32).collect();
        assert!(q.enqueue_many(&mut h, items).is_empty());
        assert_eq!(q.dequeue_many(&mut h, 32, &mut out), 32);
        assert!(out.iter().copied().eq(round * 32..round * 32 + 32));
        out.clear();
    }
    assert_eq!(scope.allocated_blocks_delta(), 2 * 100);
    assert_eq!(scope.live_delta(), 0);
}
