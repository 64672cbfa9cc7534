//! The box layer's allocations, counted by `bq-memtrack`'s allocator
//! (DESIGN.md §8.4): a batch of `n` values costs ⌈n/16⌉ runs, a single
//! value one run of its own, and the runs a queue keeps alive stay within
//! the retention bound — a queue holding `L` values pins at most `L` full
//! runs' bytes.
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

#[test]
fn runs_cost_one_allocation_per_16_values_and_retain_at_most_one_run_per_value() {
    let q: BoxedQueue<u64, OptimalQueue> =
        BoxedQueue::new(OptimalQueue::with_capacity_and_threads(128, 1));
    let mut h = q.register();
    let mut out = Vec::with_capacity(128);

    for n in [1usize, 15, 16, 17, 32, 33, 100] {
        let scope = AllocScope::begin();
        let items: Vec<u64> = (1..=n as u64).collect();
        assert!(q.enqueue_many(&mut h, items).is_empty());
        // Besides the runs: the items vector (freed) and the token vector.
        assert_eq!(
            scope.allocated_blocks_delta(),
            n.div_ceil(16) + 2,
            "n = {n}"
        );
        assert_eq!(scope.live_blocks_delta(), n.div_ceil(16), "n = {n}");
        assert_eq!(q.dequeue_many(&mut h, n, &mut out), n);
        assert_eq!(out, (1..=n as u64).collect::<Vec<_>>());
        out.clear();
        assert_eq!(scope.live_delta(), 0, "n = {n}: every run freed");
    }

    // A single value is a run of one: one 16-byte allocation.
    let scope = AllocScope::begin();
    q.enqueue(&mut h, 7).unwrap();
    assert_eq!(
        (scope.allocated_blocks_delta(), scope.live_delta()),
        (1, 16)
    );
    assert_eq!(q.dequeue(&mut h), Some(7));
    assert_eq!(scope.live_delta(), 0);

    // Retention: four runs of 16, taken one value at a time. The queue
    // keeps ⌈L/16⌉ runs alive, and the last value pins a full run alone —
    // the bound, met with equality.
    let scope = AllocScope::begin();
    assert!(q.enqueue_many(&mut h, (1..=64).collect()).is_empty());
    while !q.is_empty() {
        let held = q.len();
        assert_eq!(scope.live_delta(), held.div_ceil(16) * FULL_RUN_BYTES);
        assert!(scope.live_delta() <= held * FULL_RUN_BYTES);
        q.dequeue(&mut h).unwrap();
    }
    assert_eq!(scope.live_delta(), 0);
}
