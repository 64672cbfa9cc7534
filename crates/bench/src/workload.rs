//! Contended workload drivers over the [`DynQueue`] registry — the soak's
//! and the test suites' way to run every queue through the same traffic.
//!
//! Two canonical workloads from the bounded-queue literature:
//!
//! * **pairs** — every thread alternates `enqueue`/`dequeue` on a
//!   half-full queue (uniform mixed contention);
//! * **producer/consumer** — half the threads enqueue a fixed item count,
//!   half drain, modelling the task-scheduler / io_uring-style usage the
//!   paper's introduction motivates.
//!
//! They check conservation and liveness; the times they return include
//! thread spawn and the registry's handle locks, so no table reports
//! them (the time experiments go through [`crate::measure`], with static
//! dispatch and a barrier start).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::registry::DynQueue;

/// Result of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadResult {
    /// Total completed operations (enqueues + dequeues).
    pub ops: u64,
    /// Wall-clock seconds.
    pub secs: f64,
}

impl WorkloadResult {
    /// Million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.secs / 1e6
    }
}

/// Mixed enqueue/dequeue pairs: `threads` workers each perform
/// `ops_per_thread` enqueue+dequeue pairs on a queue pre-filled to half
/// capacity. Returns aggregate throughput.
pub fn pairs_throughput(q: &dyn DynQueue, threads: usize, ops_per_thread: u64) -> WorkloadResult {
    assert!(threads <= q.threads());
    // Pre-fill to C/2 so both operations usually succeed.
    for i in 0..(q.capacity() / 2) as u64 {
        assert!(q.enqueue(0, 1 + i), "pre-fill failed");
    }
    let token_base = AtomicU64::new(1_000_000);
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let token_base = &token_base;
            let q = &*q;
            s.spawn(move || {
                for _ in 0..ops_per_thread {
                    // Fresh tokens keep the distinct-elements queues honest.
                    let v = token_base.fetch_add(1, Ordering::Relaxed);
                    while !q.enqueue(tid, v) {
                        std::thread::yield_now();
                    }
                    while q.dequeue(tid).is_none() {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    WorkloadResult {
        ops: 2 * threads as u64 * ops_per_thread,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Batched mixed pairs: like [`pairs_throughput`], but each worker moves
/// elements `batch` at a time through the queue's batch interface —
/// `rounds_per_thread` iterations of `enqueue_many(batch)` followed by
/// `dequeue_many(batch)` on a half-full queue. With `batch == 1` this
/// degenerates to the single-element path (same call overhead shape), so
/// `batched_pairs_throughput(q, t, r, b)` vs `…(q, t, r·b, 1)` runs the
/// same element count through both paths.
pub fn batched_pairs_throughput(
    q: &dyn DynQueue,
    threads: usize,
    rounds_per_thread: u64,
    batch: usize,
) -> WorkloadResult {
    assert!(threads <= q.threads());
    assert!(batch > 0, "batch must be positive");
    // Every worker must be able to finish its in-flight batch without any
    // other worker dequeuing, or the workload can wedge with all workers
    // stuck mid-batch on a full queue.
    assert!(
        threads * batch <= q.capacity() - q.capacity() / 2,
        "threads × batch must fit in the post-prefill free space"
    );
    for i in 0..(q.capacity() / 2) as u64 {
        assert!(q.enqueue(0, 1 + i), "pre-fill failed");
    }
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let q = &*q;
            s.spawn(move || {
                // Token generation and buffers live outside the measured
                // per-element path: a per-thread counter and reused
                // vectors, so the B = 1 column pays no per-element
                // harness cost the B = 32 column amortizes — the speedup
                // isolates the queue's batch path, not the driver.
                let mut next = 1_000_000 + tid as u64 * rounds_per_thread * batch as u64;
                let mut vs = vec![0u64; batch];
                let mut buf = Vec::with_capacity(batch);
                for _ in 0..rounds_per_thread {
                    for slot in vs.iter_mut() {
                        *slot = next;
                        next += 1;
                    }
                    let mut sent = 0;
                    while sent < batch {
                        let n = q.enqueue_many(tid, &vs[sent..]);
                        sent += n;
                        if n == 0 {
                            std::thread::yield_now();
                        }
                    }
                    let mut got = 0;
                    while got < batch {
                        buf.clear();
                        let n = q.dequeue_many(tid, batch - got, &mut buf);
                        got += n;
                        if n == 0 {
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });
    WorkloadResult {
        ops: 2 * threads as u64 * rounds_per_thread * batch as u64,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Producer/consumer transfer: `pairs` producers enqueue `items_per_producer`
/// fresh tokens each while `pairs` consumers drain until every item has been
/// observed.
pub fn producer_consumer_throughput(
    q: &dyn DynQueue,
    pairs: usize,
    items_per_producer: u64,
) -> WorkloadResult {
    assert!(2 * pairs <= q.threads());
    let total = pairs as u64 * items_per_producer;
    let consumed = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for p in 0..pairs {
            let q = &*q;
            s.spawn(move || {
                let base = 1 + p as u64 * items_per_producer;
                for i in 0..items_per_producer {
                    while !q.enqueue(p, base + i) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for c in 0..pairs {
            let q = &*q;
            let consumed = &consumed;
            s.spawn(move || {
                let tid = pairs + c;
                // Exit once every produced item has been consumed by
                // someone; until then, keep draining.
                while consumed.load(Ordering::Relaxed) < total {
                    if q.dequeue(tid).is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    WorkloadResult {
        ops: 2 * total,
        secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::QueueKind;

    #[test]
    fn pairs_runs_on_every_sound_queue() {
        for kind in crate::registry::ALL_KINDS {
            let q = kind.build(16, 2);
            if !q.sound() {
                continue; // the unsound models may corrupt under contention
            }
            let r = pairs_throughput(&*q, 2, 200);
            assert_eq!(r.ops, 800);
            assert!(r.secs > 0.0);
            assert!(r.mops() > 0.0);
        }
    }

    #[test]
    fn batched_pairs_runs_on_every_sound_queue() {
        for kind in crate::registry::ALL_KINDS {
            let q = kind.build(16, 2);
            if !q.sound() {
                continue;
            }
            let r = batched_pairs_throughput(&*q, 2, 50, 4);
            assert_eq!(r.ops, 800, "{}", q.name());
            assert!(r.mops() > 0.0);
            // Pairs preserve the pre-fill level.
            let mut out = Vec::new();
            assert_eq!(q.dequeue_many(0, 16, &mut out), 8, "{}", q.name());
        }
    }

    #[test]
    fn batched_pairs_batch_one_equals_single_path_ops() {
        let q = crate::registry::QueueKind::ShardedOptimal.build(16, 2);
        let r = batched_pairs_throughput(&*q, 1, 100, 1);
        assert_eq!(r.ops, 200);
    }

    #[test]
    fn producer_consumer_conserves_count() {
        let q = QueueKind::Optimal.build(8, 4);
        let r = producer_consumer_throughput(&*q, 2, 500);
        assert_eq!(r.ops, 2000);
        // Queue drained exactly.
        assert_eq!(q.dequeue(0), None);
    }

    #[test]
    fn pairs_leaves_queue_at_prefill_level() {
        let q = QueueKind::Vyukov.build(16, 2);
        let r = pairs_throughput(&*q, 1, 100);
        assert_eq!(r.ops, 200);
        // Pre-fill was C/2 = 8; pairs preserve the level.
        let mut n = 0;
        while q.dequeue(0).is_some() {
            n += 1;
        }
        assert_eq!(n, 8);
    }
}
