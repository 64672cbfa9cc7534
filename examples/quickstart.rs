//! Quickstart: the memory-optimal bounded queue in five minutes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates the three ways to use the library:
//! 1. token queues (`u64` payloads — ids, indices, packed data);
//! 2. typed queues via `BoxedQueue` (any `Send` type);
//! 3. picking an algorithm by its memory/assumption trade-off.

use membq::prelude::*;

fn main() {
    // ── 1. The headline structure: Listing 5, Θ(T) overhead ─────────────
    // Capacity 1024, up to 4 threads. Overhead is independent of capacity:
    // an announcement slot per thread + 2T recyclable descriptors.
    let q = OptimalQueue::with_capacity_and_threads(1024, 4);
    println!(
        "OptimalQueue(C=1024, T=4): element bytes = {}, overhead bytes = {}",
        q.element_bytes(),
        q.overhead_bytes()
    );

    let mut h = q.register();
    q.enqueue(&mut h, 42).unwrap();
    q.enqueue(&mut h, 43).unwrap();
    assert_eq!(q.dequeue(&mut h), Some(42));
    assert_eq!(q.dequeue(&mut h), Some(43));
    assert_eq!(q.dequeue(&mut h), None);
    println!("FIFO round-trip OK");

    // Full queues reject politely, handing the value back.
    let tiny = OptimalQueue::with_capacity_and_threads(2, 1);
    let mut th = tiny.register();
    tiny.enqueue(&mut th, 1).unwrap();
    tiny.enqueue(&mut th, 2).unwrap();
    assert_eq!(tiny.enqueue(&mut th, 3), Err(Full(3)));
    println!("bounded semantics OK (Full(3) returned)");

    // ── 2. Typed payloads ────────────────────────────────────────────────
    #[derive(Debug, PartialEq)]
    struct Job {
        id: u32,
        payload: String,
    }
    let jobs: BoxedQueue<Job, OptimalQueue> =
        BoxedQueue::new(OptimalQueue::with_capacity_and_threads(64, 4));
    let mut jh = jobs.register();
    jobs.enqueue(
        &mut jh,
        Job {
            id: 7,
            payload: "compact my memory".into(),
        },
    )
    .ok()
    .unwrap();
    let job = jobs.dequeue(&mut jh).unwrap();
    println!("typed payload OK: {job:?}");

    // ── 3. Picking by trade-off ──────────────────────────────────────────
    // Distinct elements (e.g. unique request ids)? Listing 2 gives Θ(1).
    let ids = DistinctQueue::with_capacity(1024);
    println!(
        "DistinctQueue overhead: {} bytes — constant, but YOU must guarantee distinctness",
        ids.overhead_bytes()
    );

    // Tunable memory-friendliness? Listing 1 with K = √C.
    let seg = SegmentQueue::with_capacity(1024);
    println!(
        "SegmentQueue (K = {}): overhead currently {} bytes (grows/shrinks with occupancy)",
        seg.segment_size(),
        seg.overhead_bytes()
    );

    // And the impossibility the paper proves: don't reach for a Θ(1)
    // CAS queue without assumptions — `NaiveQueue` exists only to be
    // broken by the adversary experiment (`bq-sim`'s `adversary` example).
    println!("done — see EXPERIMENTS.md for the full reproduction story");
}
