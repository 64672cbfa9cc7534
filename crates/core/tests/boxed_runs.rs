//! The box layer's allocations, counted by `bq-memtrack`'s allocator
//! (DESIGN.md §8.4): a batch of `n` values costs ⌈n/16⌉ runs minus the
//! parked runs it reuses, and after one warm-up a steady loop — of batches
//! or of single values — allocates no runs at all. Emptied full runs park in
//! any of the four run slots and a run of one in the last slot only; the
//! runs a queue keeps stay within the retention bound — ⌈L/16⌉ live runs for
//! `L` values left in batch order, plus at most four parked runs, none
//! larger than a full run — and dropping the queue frees every one of them.
//!
//! Its own test binary, holding one test: the allocator's counters are
//! process-wide, and a sibling test running beside it would land in its
//! windows.

use bq_core::{BoxedHandle, BoxedQueue, OptimalQueue};
use bq_memtrack::{AllocScope, TrackingAlloc};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// A full run of `u64`s: the 8-byte header and 16 values, padded to 16.
const FULL_RUN_BYTES: usize = 144;

/// A run of one `u64`: the header and the value.
const ONE_RUN_BYTES: usize = 16;

/// Run slots a queue parks emptied runs in (`boxed.rs`' slot count).
const SLOTS: usize = 4;

type Queue = BoxedQueue<u64, OptimalQueue>;

/// A queue and a handle whose token buffer is sized, with runs of 15 —
/// a length that never parks — so that from here the queue's own live
/// bytes are its parked runs.
fn warm_queue() -> (Queue, BoxedHandle<OptimalQueue>, Vec<u64>) {
    let q = BoxedQueue::new(OptimalQueue::with_capacity_and_threads(128, 1));
    let mut h = q.register();
    let mut out = Vec::with_capacity(128);
    for _ in 0..8 {
        assert!(q.enqueue_many(&mut h, (0..15).collect()).is_empty());
    }
    assert_eq!(q.dequeue_many(&mut h, 120, &mut out), 120);
    out.clear();
    (q, h, out)
}

#[test]
fn runs_are_parked_for_the_next_batch_and_retention_stays_bounded() {
    let everything = AllocScope::begin();
    let (q, mut h, mut out) = warm_queue();
    let base = AllocScope::begin();

    // Batches whose tails are never runs of one: only full runs park.
    let mut parked = 0;
    for n in [2usize, 15, 16, 18, 32, 34, 100, 100] {
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

    // Full runs may fill the last slot too, and then a single value's run
    // of one finds no slot: one 16-byte allocation, freed.
    let scope = AllocScope::begin();
    q.enqueue(&mut h, 7).unwrap();
    assert_eq!(
        (scope.allocated_blocks_delta(), scope.live_delta()),
        (1, ONE_RUN_BYTES)
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

    // Runs of one, on a fresh queue: one warm-up send parks its run in the
    // last slot, and from then on a single send reuses it.
    let (q, mut h, mut out) = warm_queue();
    let base = AllocScope::begin();
    q.enqueue(&mut h, 0).unwrap();
    assert_eq!(q.dequeue(&mut h), Some(0));
    assert_eq!(base.live_delta(), ONE_RUN_BYTES);
    let scope = AllocScope::begin();
    for v in 1..=100 {
        q.enqueue(&mut h, v).unwrap();
        assert_eq!(q.dequeue(&mut h), Some(v));
    }
    assert_eq!(scope.allocated_blocks_delta(), 0, "no run allocated");
    assert_eq!(base.live_delta(), ONE_RUN_BYTES);

    // Four full runs emptied beside it: three park in the other slots, and
    // the fourth, finding the last slot taken, is freed.
    assert!(q.enqueue_many(&mut h, (1..=64).collect()).is_empty());
    assert_eq!(q.dequeue_many(&mut h, 64, &mut out), 64);
    out.clear();
    assert_eq!(base.live_delta(), 3 * FULL_RUN_BYTES + ONE_RUN_BYTES);

    // A batch of 17 is a full run and a run of one: it reuses both kinds.
    let scope = AllocScope::begin();
    assert!(q.enqueue_many(&mut h, (1..=17).collect()).is_empty());
    assert_eq!(scope.allocated_blocks_delta(), 2, "items and token vectors");
    assert_eq!(q.dequeue_many(&mut h, 17, &mut out), 17);
    assert_eq!(out, (1..=17).collect::<Vec<_>>());
    out.clear();
    assert_eq!(base.live_delta(), 3 * FULL_RUN_BYTES + ONE_RUN_BYTES);

    // Dropped with a run of one parked, the queue frees it too.
    drop((h, q, out));
    assert_eq!(everything.live_delta(), 0);

    // Steady state on a fresh queue: one warm-up batch of 32 allocates two
    // runs, and from then on a 32-value batch reuses the two it emptied —
    // only the items and token vectors are allocated.
    let q: Queue = BoxedQueue::new(OptimalQueue::with_capacity_and_threads(128, 1));
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
