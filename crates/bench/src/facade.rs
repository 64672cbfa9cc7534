//! The waiting-façade registry and workloads: the blocking and async
//! façades over the *same* lock-free queue and the same
//! [`bq_core::EventCount`] pair, driven through the pairs workload (the
//! soak's façade rounds, and E16/E17's timed cells).
//!
//! The registry's [`QueueKind`](crate::registry::QueueKind) rows cover
//! the non-blocking implementations; the façades add a *waiting* layer
//! on top, so they get their own small kind enum here instead of fake
//! `DynQueue` rows (a blocking `send` has no "full" outcome to report).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bq_core::{AsyncQueue, BlockingQueue, OptimalQueue, RecvTimeoutError, ShardedQueue, TimeLimit};

use crate::measure::run_threads;
use crate::workload::WorkloadResult;

/// Values per `send_all` in [`FacadeKind::batch_round`]: one full run of
/// 16 and one short run.
const ROUND_BATCH: usize = 20;

/// Which waiting façade to drive (both wrap `OptimalQueue`, both park on
/// the shared eventcount pair — the only difference is *what* parks:
/// OS threads or async tasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FacadeKind {
    /// `BlockingQueue<u64, OptimalQueue>`: threads park on the eventcount.
    Blocking,
    /// `AsyncQueue<u64, OptimalQueue>`: tasks park; each worker thread
    /// drives its task with the dependency-free `pollster::block_on`.
    Async,
}

/// Both façades, blocking first.
pub const ALL_FACADES: &[FacadeKind] = &[FacadeKind::Blocking, FacadeKind::Async];

impl FacadeKind {
    /// Stable name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            FacadeKind::Blocking => "blocking-optimal",
            FacadeKind::Async => "async-optimal",
        }
    }

    /// Mixed send/recv pairs through this façade: `threads` workers each
    /// perform `ops_per_thread` send+recv pairs on a queue pre-filled to
    /// half capacity (the waiting-layer mirror of
    /// [`pairs_throughput`](crate::workload::pairs_throughput)). The
    /// waits are real — capacity `c` should be small relative to
    /// `threads` to exercise parking.
    pub fn pairs(self, c: usize, threads: usize, ops_per_thread: u64) -> WorkloadResult {
        match self {
            FacadeKind::Blocking => {
                blocking_pairs_throughput(c, threads, ops_per_thread, TimeLimit::Forever)
            }
            FacadeKind::Async => async_pairs_throughput(c, threads, ops_per_thread),
        }
    }

    /// The batch path with runs split between consumers, close-driven:
    /// over a `ShardedQueue<OptimalQueue>` of capacity 16, two producers
    /// each `send_all` `batches` batches of 20 drop-counted values, then the
    /// last one out closes the queue; two consumers `recv_many(…, 7)` until
    /// it is closed and drained. Consumers take the last values of runs in
    /// either order, so emptied runs are parked and reused while both sides
    /// run (DESIGN.md §8.4). Panics unless every value is delivered once
    /// and dropped once; returns how many were delivered.
    pub fn batch_round(self, batches: usize) -> usize {
        struct Counted<'a>(usize, &'a [AtomicUsize]);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.1[self.0].fetch_add(1, Ordering::Relaxed);
            }
        }

        let n = 2 * batches * ROUND_BATCH;
        let drops: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        // The blocking façade is the async one's `blocking()` view.
        let q: AsyncQueue<Counted, ShardedQueue<OptimalQueue>> =
            AsyncQueue::new(ShardedQueue::<OptimalQueue>::optimal(16, 2, 4));
        let producing = AtomicUsize::new(2);
        let mut ids: Vec<usize> = std::thread::scope(|s| {
            for p in 0..2 {
                let (q, drops, producing) = (&q, &drops[..], &producing);
                s.spawn(move || {
                    let mut h = q.register();
                    for b in 0..batches {
                        let first = (p * batches + b) * ROUND_BATCH;
                        let batch = (first..first + ROUND_BATCH)
                            .map(|id| Counted(id, drops))
                            .collect();
                        let sent = match self {
                            FacadeKind::Blocking => q.blocking().send_all(&mut h, batch),
                            FacadeKind::Async => pollster::block_on(q.send_all(&mut h, batch)),
                        };
                        assert!(sent.is_ok(), "closed only after both producers");
                    }
                    if producing.fetch_sub(1, Ordering::SeqCst) == 1 {
                        q.close();
                    }
                });
            }
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = &q;
                    s.spawn(move || {
                        let (mut h, mut ids) = (q.register(), Vec::new());
                        loop {
                            let got = match self {
                                FacadeKind::Blocking => q.blocking().recv_many(&mut h, 7),
                                FacadeKind::Async => pollster::block_on(q.recv_many(&mut h, 7)),
                            };
                            if got.is_empty() {
                                break ids; // closed and drained
                            }
                            ids.extend(got.iter().map(|c| c.0));
                        }
                    })
                })
                .collect();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        ids.sort_unstable();
        assert!(
            ids.iter().copied().eq(0..n),
            "{}: delivered once",
            self.name()
        );
        drop(q);
        assert!(
            drops.iter().all(|d| d.load(Ordering::Relaxed) == 1),
            "{}: dropped once",
            self.name()
        );
        ids.len()
    }
}

/// Pairs workload over the blocking façade (see [`FacadeKind::pairs`]),
/// every operation under `limit`. With [`TimeLimit::Forever`] it is the
/// E17 workload; experiment **E16** runs it a second time under a
/// timeout generous enough never to fire and compares the two. Timed
/// and untimed are the same wait loop, and a timeout is pinned to the
/// clock lazily at the *first park*, so on an uncontended run a timed
/// pair never reads the clock at all — the ≤5%-overhead claim E16
/// measures. Under contention the timed path adds one clock read per
/// park.
pub fn blocking_pairs_throughput(
    c: usize,
    threads: usize,
    ops_per_thread: u64,
    limit: TimeLimit,
) -> WorkloadResult {
    let q: BlockingQueue<u64, OptimalQueue> =
        BlockingQueue::new(OptimalQueue::with_capacity_and_threads(c, threads + 1));
    let mut h = q.register();
    for i in 0..(c / 2) as u64 {
        q.try_send(&mut h, 1 + i).expect("pre-fill failed");
    }
    // Spawn, registration and the token ranges stay outside the clock.
    let elapsed = run_threads(threads, |tid| {
        let (q, mut h) = (&q, q.register());
        let first = (tid as u64 + 1) << 40;
        move || {
            for v in first..first + ops_per_thread {
                q.send_within(&mut h, v, limit)
                    .expect("open queue, limit never fires");
                q.recv_within(&mut h, limit)
                    .expect("open queue, limit never fires");
            }
        }
    });
    WorkloadResult {
        ops: 2 * threads as u64 * ops_per_thread,
        secs: elapsed.as_secs_f64(),
    }
}

/// The soak driver for the [`FaultPlan::drop_wakes`](bq_shm::FaultPlan)
/// fault: park a receiver on an empty queue and *withhold every wake* —
/// nothing ever sends — so only the carried deadline can end the wait.
/// Returns the observed wait; the caller asserts it lands within
/// `timeout` plus one scheduling quantum (the §13 acceptance bound: a
/// dropped wake degrades a timed wait to its deadline, never to a hang).
pub fn timed_recv_dropped_wake_round(timeout: Duration) -> Duration {
    let q: BlockingQueue<u64, OptimalQueue> =
        BlockingQueue::new(OptimalQueue::with_capacity_and_threads(2, 1));
    let mut h = q.register();
    let start = Instant::now();
    match q.recv_within(&mut h, timeout) {
        Err(RecvTimeoutError::Timeout) => start.elapsed(),
        Ok(v) => panic!("received {v} from an empty queue nobody sends to"),
        Err(RecvTimeoutError::Closed) => panic!("queue was never closed"),
    }
}

/// Pairs workload over the async façade (**E12**, and the `async_pairs`
/// soak workload): same structure as the blocking version, but every
/// worker thread drives an async task via `pollster::block_on`, so full/
/// empty conditions park the *future* (waker registered on the shared
/// eventcount) rather than the thread-level condvar. No timed polling
/// anywhere: progress is purely wake-driven.
pub fn async_pairs_throughput(c: usize, threads: usize, ops_per_thread: u64) -> WorkloadResult {
    let q: AsyncQueue<u64, OptimalQueue> =
        AsyncQueue::new(OptimalQueue::with_capacity_and_threads(c, threads + 1));
    let mut h = q.register();
    for i in 0..(c / 2) as u64 {
        q.try_send(&mut h, 1 + i).expect("pre-fill failed");
    }
    let token_base = AtomicU64::new(1_000_000);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let q = &q;
            let token_base = &token_base;
            s.spawn(move || {
                let mut h = q.register();
                pollster::block_on(async {
                    for _ in 0..ops_per_thread {
                        let v = token_base.fetch_add(1, Ordering::Relaxed);
                        q.send(&mut h, v).await.expect("queue not closed");
                        q.recv(&mut h).await.expect("queue not closed");
                    }
                });
            });
        }
    });
    WorkloadResult {
        ops: 2 * threads as u64 * ops_per_thread,
        secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_facades_run_the_pairs_workload() {
        for kind in ALL_FACADES {
            // C = 2 with 2 threads: parking definitely happens.
            let r = kind.pairs(2, 2, 200);
            assert_eq!(r.ops, 800, "{}", kind.name());
            assert!(r.mops() > 0.0, "{}", kind.name());
        }
    }

    #[test]
    fn names_are_stable_and_distinct() {
        assert_eq!(FacadeKind::Blocking.name(), "blocking-optimal");
        assert_eq!(FacadeKind::Async.name(), "async-optimal");
    }

    #[test]
    fn timed_pairs_complete_without_firing_deadlines() {
        // Contended enough to park (C = 2, 2 threads): the deadlines are
        // carried through real parks and still never fire.
        let r = blocking_pairs_throughput(2, 2, 200, Duration::from_secs(600).into());
        assert_eq!(r.ops, 800);
        assert!(r.mops() > 0.0);
    }

    #[test]
    fn dropped_wake_round_recovers_via_the_deadline() {
        let timeout = Duration::from_millis(20);
        let waited = timed_recv_dropped_wake_round(timeout);
        assert!(
            waited >= timeout,
            "deadline fired early: waited {waited:?} of {timeout:?}"
        );
        assert!(
            waited < timeout + Duration::from_millis(250),
            "timeout overshot the deadline + quantum bound: {waited:?}"
        );
    }
}
