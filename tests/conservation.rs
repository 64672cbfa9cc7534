//! Concurrent conservation tests: under multi-producer/multi-consumer
//! load, every sound queue must deliver each enqueued token exactly once
//! (no loss, no duplication) and preserve per-producer FIFO order — the
//! latter only for the globally-FIFO kinds; the sharded compositions
//! relax it to per-shard FIFO (DESIGN.md §8) and are held to exactly-once
//! delivery plus exact residue.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use membq::bench_registry::{DynQueue, QueueKind, ALL_KINDS};

/// Exactly-once delivery over the consumers' combined streams.
fn check_exactly_once(outputs: &[Vec<u64>], total: u64, name: &str) {
    let mut seen = HashSet::new();
    for out in outputs {
        for &v in out {
            assert!(seen.insert(v), "{name}: duplicate token {v}");
        }
    }
    assert_eq!(seen.len() as u64, total, "{name}: tokens lost");
}

/// Per-producer FIFO within each consumer's stream (a weaker but
/// schedule-independent consequence of linearizability). Tokens encode
/// their producer as `1 + p·per + i`. The sharded kinds legitimately
/// violate this once a producer overflows its home shard, so callers
/// gate it on `DynQueue::fifo`.
fn check_per_producer_fifo(outputs: &[Vec<u64>], producers: usize, per: u64, name: &str) {
    for out in outputs {
        let mut last = vec![0u64; producers];
        for &v in out {
            let p = ((v - 1) / per) as usize;
            assert!(
                v > last[p],
                "{name}: consumer saw producer {p}'s tokens out of order"
            );
            last[p] = v;
        }
    }
}

fn mpmc_conservation(q: Arc<Box<dyn DynQueue>>, producers: usize, consumers: usize, per: u64) {
    let total = per * producers as u64;
    let consumed = Arc::new(AtomicU64::new(0));
    let mut outputs: Vec<Vec<u64>> = Vec::new();

    std::thread::scope(|s| {
        for p in 0..producers {
            let q = Arc::clone(&q);
            s.spawn(move || {
                let base = 1 + p as u64 * per;
                for i in 0..per {
                    while !q.enqueue(p, base + i) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        let mut handles = Vec::new();
        for c in 0..consumers {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            handles.push(s.spawn(move || {
                let tid = producers + c;
                let mut got = Vec::new();
                loop {
                    let done = consumed.load(Ordering::Relaxed) >= total;
                    match q.dequeue(tid) {
                        Some(v) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                            got.push(v);
                        }
                        None if done => break,
                        None => std::thread::yield_now(),
                    }
                }
                got
            }));
        }
        outputs = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });

    check_exactly_once(&outputs, total, q.name());
    if q.fifo() {
        check_per_producer_fifo(&outputs, producers, per, q.name());
    }
    assert_eq!(
        q.dequeue(0),
        None,
        "{}: residue after conservation",
        q.name()
    );
}

#[test]
fn mpmc_conservation_all_sound_queues() {
    for kind in ALL_KINDS {
        let q = kind.build(16, 4);
        if !q.sound() {
            continue;
        }
        mpmc_conservation(Arc::new(q), 2, 2, 2_000);
    }
}

#[test]
fn mpmc_conservation_tiny_capacity_high_churn() {
    // Capacity 2 maximizes wraparound pressure: every slot is reused
    // thousands of times.
    for kind in [
        QueueKind::Distinct,
        QueueKind::Dcss,
        QueueKind::Optimal,
        QueueKind::Segment,
        QueueKind::LlSc,
        QueueKind::Vyukov,
        QueueKind::ShardedOptimal,
        QueueKind::ShardedSegment,
    ] {
        let q = kind.build(2, 4);
        mpmc_conservation(Arc::new(q), 2, 2, 1_500);
    }
}

#[test]
fn spsc_strict_fifo_all_sound_queues() {
    for kind in ALL_KINDS {
        let q = kind.build(8, 2);
        if !q.sound() || !q.fifo() {
            continue; // sharded kinds: per-shard FIFO only (DESIGN.md §8)
        }
        let q = Arc::new(q);
        let n = 4_000u64;
        std::thread::scope(|s| {
            let qp = Arc::clone(&q);
            s.spawn(move || {
                for v in 1..=n {
                    while !qp.enqueue(0, v) {
                        std::thread::yield_now();
                    }
                }
            });
            let mut expect = 1u64;
            while expect <= n {
                match q.dequeue(1) {
                    Some(v) => {
                        assert_eq!(v, expect, "{}: SPSC order broken", q.name());
                        expect += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
    }
}

/// Batched MPMC conservation: producers push through `enqueue_many`,
/// consumers drain through `dequeue_many` — the native batch fast paths
/// (segment runs, slot runs) under real contention. For FIFO kinds,
/// per-producer order must additionally survive batching (elements of a
/// batch linearize in slice order).
fn batched_mpmc_conservation(q: Arc<Box<dyn DynQueue>>, producers: usize, per: u64, batch: usize) {
    let total = per * producers as u64;
    let check_fifo = q.fifo();
    let consumed = Arc::new(AtomicU64::new(0));
    let mut outputs: Vec<Vec<u64>> = Vec::new();
    let consumers = 2usize;

    std::thread::scope(|s| {
        for p in 0..producers {
            let q = Arc::clone(&q);
            s.spawn(move || {
                let vals: Vec<u64> = (0..per).map(|i| 1 + p as u64 * per + i).collect();
                let mut sent = 0usize;
                while sent < vals.len() {
                    let end = (sent + batch).min(vals.len());
                    let n = q.enqueue_many(p, &vals[sent..end]);
                    sent += n;
                    if n == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
        let mut handles = Vec::new();
        for c in 0..consumers {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            handles.push(s.spawn(move || {
                let tid = producers + c;
                let mut got = Vec::new();
                loop {
                    let done = consumed.load(Ordering::Relaxed) >= total;
                    let before = got.len();
                    let n = q.dequeue_many(tid, batch, &mut got);
                    assert_eq!(n, got.len() - before, "{}: count contract", q.name());
                    if n > 0 {
                        consumed.fetch_add(n as u64, Ordering::Relaxed);
                    } else if done {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                }
                got
            }));
        }
        outputs = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });

    check_exactly_once(&outputs, total, q.name());
    if check_fifo {
        // Elements of a batch linearize in slice order, so batching must
        // not cost the FIFO kinds their per-producer order.
        check_per_producer_fifo(&outputs, producers, per, q.name());
    }
    assert_eq!(q.dequeue(0), None, "{}: residue after batches", q.name());
}

#[test]
fn batched_mpmc_conservation_all_sound_queues() {
    for kind in ALL_KINDS {
        let q = kind.build(16, 4);
        if !q.sound() {
            continue;
        }
        batched_mpmc_conservation(Arc::new(q), 2, 1_500, 5);
    }
}

#[test]
fn batched_conservation_tiny_capacity_sharded() {
    // Minimum shard sizes (C=4 over 4 shards → 1 slot each) under batch
    // churn: the steal rotation is exercised on every operation.
    for kind in [QueueKind::ShardedOptimal, QueueKind::ShardedSegment] {
        let q = kind.build(4, 4);
        batched_mpmc_conservation(Arc::new(q), 2, 1_000, 3);
    }
}

#[test]
fn repeated_value_storm_on_value_independent_queues() {
    // Every producer enqueues the SAME token: the regime where Listing 2's
    // assumption fails but the value-independent designs must stay exact.
    for kind in [
        QueueKind::Dcss,
        QueueKind::Optimal,
        QueueKind::Segment,
        QueueKind::LlSc,
        QueueKind::Vyukov,
        QueueKind::Scq,
        QueueKind::MutexRing,
        QueueKind::Ms,
        QueueKind::ShardedOptimal,
        QueueKind::ShardedSegment,
    ] {
        let q = Arc::new(kind.build(4, 3));
        let per = 2_500u64;
        std::thread::scope(|s| {
            for p in 0..2 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for _ in 0..per {
                        while !q.enqueue(p, 42) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut got = 0u64;
            while got < 2 * per {
                match q.dequeue(2) {
                    Some(v) => {
                        assert_eq!(v, 42, "{}", q.name());
                        got += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
        assert_eq!(q.dequeue(0), None, "{}: exact count", q.name());
    }
}
