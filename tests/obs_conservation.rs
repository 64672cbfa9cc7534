//! The obs layer's conservation law under real threaded contention
//! (DESIGN.md §14): on every instrumented facade,
//! `enq_attempts == enq_success + enq_full` and
//! `deq_attempts == deq_success + deq_empty` — an operation is counted
//! exactly once, as exactly one outcome, no matter how the scheduler
//! interleaves the CAS loops. With the `obs` feature off the same
//! snapshots are empty and the counter blocks are zero-sized, which is
//! the compile-time shape of the "always cheap" claim.
//!
//! Run both lanes: `cargo test --test obs_conservation` and
//! `cargo test --features obs --test obs_conservation`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use membq::core::obs::MetricsSnapshot;
use membq::prelude::*;

/// Assert the two-sided conservation law on a snapshot, given the exact
/// number of values that flowed through the queue.
fn assert_conserved(m: &MetricsSnapshot, total: u64, what: &str) {
    if !cfg!(feature = "obs") {
        assert!(
            m.is_empty(),
            "{what}: obs is off but the snapshot has entries: {m}"
        );
        return;
    }
    let g = |k: &str| m.get(k).unwrap_or_else(|| panic!("{what}: missing {k}"));
    assert_eq!(
        g("enq_attempts"),
        g("enq_success") + g("enq_full"),
        "{what}: enqueue counters do not reconcile: {m}"
    );
    assert_eq!(
        g("deq_attempts"),
        g("deq_success") + g("deq_empty"),
        "{what}: dequeue counters do not reconcile: {m}"
    );
    assert_eq!(g("enq_success"), total, "{what}: successful enqueues");
    assert_eq!(g("deq_success"), total, "{what}: successful dequeues");
}

// 2 producers vs 2 consumers hammering a tiny queue: plenty of genuine
// `Full`/empty refusals and CAS retries on both sides.

#[test]
fn optimal_queue_counters_reconcile_under_stress() {
    let producers = 2usize;
    let consumers = 2usize;
    let per = 2_000u64;
    let total = per * producers as u64;
    let q = Arc::new(OptimalQueue::with_capacity_and_threads(
        4,
        producers + consumers,
    ));
    let consumed = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for _ in 0..producers {
            let q = Arc::clone(&q);
            s.spawn(move || {
                let mut h = q.register();
                for v in 1..=per {
                    while q.enqueue(&mut h, v).is_err() {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for _ in 0..consumers {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            s.spawn(move || {
                let mut h = q.register();
                loop {
                    let done = consumed.load(Ordering::Relaxed) >= total;
                    match q.dequeue(&mut h) {
                        Some(_) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        None if done => break,
                        None => std::thread::yield_now(),
                    }
                }
            });
        }
    });

    assert_conserved(&q.metrics(), total, "OptimalQueue");
}

#[test]
fn sharded_queue_counters_reconcile_under_stress() {
    let workers = 4usize;
    let per = 1_500u64;
    let total = per * 2;
    let q = Arc::new(ShardedQueue::<OptimalQueue>::optimal(4, 2, workers));
    let consumed = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for _ in 0..2 {
            let q = Arc::clone(&q);
            s.spawn(move || {
                let mut h = q.register();
                for v in 1..=per {
                    while q.enqueue(&mut h, v).is_err() {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for _ in 0..2 {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            s.spawn(move || {
                let mut h = q.register();
                loop {
                    let done = consumed.load(Ordering::Relaxed) >= total;
                    match q.dequeue(&mut h) {
                        Some(_) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        None if done => break,
                        None => std::thread::yield_now(),
                    }
                }
            });
        }
    });

    assert_conserved(&summed_over_shards(&q), total, "ShardedQueue<OptimalQueue>");
}

/// The scale layer nests each sub-queue's block under `shardN.`; the
/// conservation law holds shard-wise, so it holds on the sums. Empty with
/// obs off, as the unsummed snapshot must be.
fn summed_over_shards(q: &ShardedQueue<OptimalQueue>) -> MetricsSnapshot {
    let m = q.metrics();
    let mut summed = MetricsSnapshot::new();
    if !cfg!(feature = "obs") {
        assert!(m.is_empty(), "obs off but sharded snapshot has entries");
        return summed;
    }
    for key in [
        "enq_attempts",
        "enq_success",
        "enq_full",
        "deq_attempts",
        "deq_success",
        "deq_empty",
    ] {
        let suffix = format!(".{key}");
        let sum: u64 = m
            .entries()
            .iter()
            .filter(|(k, _)| k.ends_with(&suffix))
            .map(|(_, v)| *v)
            .sum();
        summed.push(key, sum);
    }
    summed
}

/// The batch path: producers send runs of 1–5 through `enqueue_many`,
/// consumers take runs of up to 8 through `dequeue_many`, which Listing 5
/// answers natively with one `dequeues` CAS per run. Its counters count
/// elements, not calls — a run of `k` is `k` attempts and `k` successes,
/// the snapshot that reads a shard empty one attempt and one empty — so
/// the same law holds.
#[test]
fn sharded_batch_path_counters_reconcile_under_stress() {
    let per = 1_500u64;
    let total = per * 2;
    let q = Arc::new(ShardedQueue::<OptimalQueue>::optimal(8, 2, 4));
    let consumed = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for _ in 0..2 {
            let q = Arc::clone(&q);
            s.spawn(move || {
                let mut h = q.register();
                let mut next = 1;
                while next <= per {
                    let run: Vec<u64> = (next..=per).take(1 + (next % 5) as usize).collect();
                    let n = q.enqueue_many(&mut h, &run);
                    if n == 0 {
                        std::thread::yield_now();
                    }
                    next += n as u64;
                }
            });
        }
        for _ in 0..2 {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            s.spawn(move || {
                let mut h = q.register();
                let mut out = Vec::new();
                loop {
                    let done = consumed.load(Ordering::Relaxed) >= total;
                    match q.dequeue_many(&mut h, 8, &mut out) {
                        0 if done => break,
                        0 => std::thread::yield_now(),
                        n => {
                            consumed.fetch_add(n as u64, Ordering::Relaxed);
                            out.clear();
                        }
                    }
                }
            });
        }
    });

    assert_conserved(
        &summed_over_shards(&q),
        total,
        "ShardedQueue<OptimalQueue> batch path",
    );
}

/// The zero-cost half of the contract, checked at the type level: with
/// obs off every counter block is a ZST, so the queue structs carry
/// exactly the fields they carried before the layer existed.
#[test]
fn obs_off_counters_are_zero_sized() {
    use membq::core::obs::Counter;
    if cfg!(feature = "obs") {
        assert!(std::mem::size_of::<Counter>() > 0);
    } else {
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(Counter::new().get(), 0, "obs-off reads are constant 0");
    }
}

/// A [`QueueCounters`](membq::core::obs::QueueCounters) block's readings,
/// in `snapshot_into` order.
const QUEUE_NAMES: [&str; 10] = [
    "enq_attempts",
    "enq_success",
    "enq_full",
    "enq_retries",
    "deq_attempts",
    "deq_success",
    "deq_empty",
    "deq_retries",
    "helps",
    "occupancy_hwm",
];

/// A [`WaitCounters`](membq::core::obs::WaitCounters) block's counter
/// readings, in order; its `park_ns_p2_*` buckets follow them only when
/// nonzero, so they depend on the run and are not pinned.
const WAIT_NAMES: [&str; 7] = [
    "thread_parks",
    "spin_wakes",
    "task_parks",
    "wakes",
    "woken",
    "spurious_wakes",
    "timeout_expiries",
];

/// The names `metrics()` reports, in order, without the data-dependent
/// park-latency buckets.
fn metric_names(m: &MetricsSnapshot) -> Vec<String> {
    m.entries()
        .iter()
        .map(|(n, _)| n.clone())
        .filter(|n| !n.contains("park_ns_p2_"))
        .collect()
}

/// The full, ordered name list of `metrics()` on the paper's queue, the
/// scale layer over it and the blocking façade over that: the names the
/// benchmark's traced build reads. With obs off every list is empty.
#[test]
fn metrics_name_lists_are_pinned() {
    let prefixed = |prefix: &str, names: &[&str]| -> Vec<String> {
        names.iter().map(|n| format!("{prefix}{n}")).collect()
    };
    let optimal = prefixed("", &QUEUE_NAMES);
    let mut sharded = prefixed("", &["steals", "rotations", "quarantines"]);
    sharded.push("quarantined_count".into());
    sharded.extend(prefixed("", &["shard0.quarantined", "shard1.quarantined"]));
    sharded.extend(prefixed("shard0.", &QUEUE_NAMES));
    sharded.extend(prefixed("shard1.", &QUEUE_NAMES));
    let mut blocking = sharded.clone();
    blocking.extend(prefixed("not_full.", &WAIT_NAMES));
    blocking.extend(prefixed("not_empty.", &WAIT_NAMES));

    let q = OptimalQueue::with_capacity_and_threads(4, 2);
    let s = ShardedQueue::<OptimalQueue>::optimal(8, 2, 2);
    let b = BlockingQueue::<u64, _>::new(ShardedQueue::<OptimalQueue>::optimal(8, 2, 2));
    let mut h = b.register();
    b.send(&mut h, 1).unwrap();
    assert_eq!(b.recv(&mut h), Some(1));
    for (what, m, expect) in [
        ("OptimalQueue", q.metrics(), optimal),
        ("ShardedQueue<OptimalQueue>", s.metrics(), sharded),
        ("BlockingQueue over it", b.metrics(), blocking),
    ] {
        if cfg!(feature = "obs") {
            assert_eq!(metric_names(&m), expect, "{what}: {m}");
        } else {
            assert!(m.is_empty(), "{what}: obs is off: {m}");
        }
    }
}
