//! The pooled `SegmentQueue` stops allocating once its working set
//! circulates (the paper's reuse suggestion).
//!
//! A test binary of its own on purpose: the property is a bound on *fresh
//! allocations*, and retired segments reach the pool only when the epoch
//! advances. `shims/crossbeam-epoch` has one process-wide collector, so in
//! `bq-core`'s unit-test binary a sibling test's thread preempted while
//! pinned stalled it and this single-threaded test allocated past its bound
//! about once in 150–300 runs. Here nothing else pins the collector.

use bq_core::{ConcurrentQueue, SegmentQueue};

#[test]
fn pooled_queue_stops_allocating_after_warmup() {
    // The paper's reuse suggestion: after the working set circulates,
    // fresh allocations cease — the epoch-only variant keeps
    // allocating one segment per K positions forever.
    let pooled = SegmentQueue::with_pooled_segments(8, 2);
    let plain = SegmentQueue::with_capacity_and_segment_size(8, 2);
    let mut hp = pooled.register();
    let mut hq = plain.register();
    for v in 1..=10_000u64 {
        pooled.enqueue(&mut hp, v).unwrap();
        assert_eq!(pooled.dequeue(&mut hp), Some(v));
        plain.enqueue(&mut hq, v).unwrap();
        assert_eq!(plain.dequeue(&mut hq), Some(v));
    }
    assert!(
        plain.segments_allocated() > 1_000,
        "epoch-only variant allocates throughout: {}",
        plain.segments_allocated()
    );
    assert!(
        pooled.segments_reused() > 1_000,
        "pooled variant recycles: {} reuses",
        pooled.segments_reused()
    );
    assert!(
        pooled.segments_allocated() < 100,
        "pooled variant stops allocating: {} fresh allocations",
        pooled.segments_allocated()
    );
}
