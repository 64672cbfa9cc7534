//! Cancellation safety for the async façade (DESIGN.md §9): dropping a
//! pending future mid-wait must not lose wakeups, must not leak waiter
//! registrations in the [`EventCount`] lists, and must leave element
//! conservation intact. The stress half reuses the element-wise
//! pool-spec recording technique of `tests/linearizability_stress.rs`:
//! every async operation (including cancelled ones, recorded as
//! refusals) becomes an individually linearizable op in a history the
//! Wing–Gong pool checker certifies.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use std::time::{Duration, Instant};

use membq::core::{
    AsyncQueue, BlockingQueue, EventCount, OptimalQueue, RecvTimeoutError, SendTimeoutError,
    ShardedQueue,
};
use membq::sim::{check_history_pool, History, HistoryEvent, Op, OpId, Ret};
use parking_lot::Mutex;

// ---------------------------------------------------------------------------
// Manual-poll harness: a flag waker plus a bounded poll-then-cancel loop.
// ---------------------------------------------------------------------------

struct Flag(AtomicBool);

impl Wake for Flag {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn flag_waker() -> (Arc<Flag>, Waker) {
    let f = Arc::new(Flag(AtomicBool::new(false)));
    (Arc::clone(&f), Waker::from(Arc::clone(&f)))
}

/// Poll `fut` at most `attempts` times (yielding between polls so other
/// threads can transition the queue); `None` means it was still pending
/// and has been dropped — a cancellation.
fn poll_bounded<F: Future + Unpin>(mut fut: F, attempts: usize) -> Option<F::Output> {
    let (_flag, waker) = flag_waker();
    let mut cx = Context::from_waker(&waker);
    for i in 0..attempts {
        match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(v) => return Some(v),
            Poll::Pending => {
                if i + 1 < attempts {
                    std::thread::yield_now();
                }
            }
        }
    }
    drop(fut); // cancel mid-wait
    None
}

fn ec_quiescent(ec: &EventCount, what: &str) {
    assert_eq!(
        ec.registered_wakers(),
        0,
        "{what}: leaked waker registrations"
    );
    assert_eq!(ec.waiter_count(), 0, "{what}: leaked waiter count");
    assert_eq!(ec.sleeper_count(), 0, "{what}: leaked sleeper count");
}

// ---------------------------------------------------------------------------
// Deterministic cancellation properties
// ---------------------------------------------------------------------------

/// Dropping a pending `recv` future removes its registration from the
/// eventcount list — no leaked waiters.
#[test]
fn dropped_recv_future_releases_its_waiter() {
    let q: AsyncQueue<u64, OptimalQueue> =
        AsyncQueue::new(OptimalQueue::with_capacity_and_threads(4, 1));
    let mut h = q.register();
    let (_flag, waker) = flag_waker();
    let mut cx = Context::from_waker(&waker);
    let mut fut = q.recv(&mut h);
    assert!(
        Pin::new(&mut fut).poll(&mut cx).is_pending(),
        "queue is empty"
    );
    assert_eq!(
        q.blocking().not_empty_event().registered_wakers(),
        1,
        "pending recv holds exactly one registration"
    );
    drop(fut);
    ec_quiescent(q.blocking().not_empty_event(), "after recv cancel");
}

/// Dropping a pending `send` future releases its waiter AND its value
/// never entered the queue: conservation is exact.
#[test]
fn dropped_send_future_releases_waiter_and_loses_nothing() {
    let q: AsyncQueue<u64, OptimalQueue> =
        AsyncQueue::new(OptimalQueue::with_capacity_and_threads(2, 1));
    let mut h = q.register();
    q.try_send(&mut h, 1).unwrap();
    q.try_send(&mut h, 2).unwrap();
    {
        let (_flag, waker) = flag_waker();
        let mut cx = Context::from_waker(&waker);
        let mut fut = q.send(&mut h, 3);
        assert!(
            Pin::new(&mut fut).poll(&mut cx).is_pending(),
            "queue is full"
        );
        assert_eq!(q.blocking().not_full_event().registered_wakers(), 1);
    } // fut dropped here: cancelled
    ec_quiescent(q.blocking().not_full_event(), "after send cancel");
    assert_eq!(q.len(), 2, "cancelled send deposited nothing");
    assert_eq!(q.try_recv(&mut h), Ok(1));
    assert_eq!(q.try_recv(&mut h), Ok(2));
    assert!(q.is_empty(), "exactly the two accepted values existed");
}

/// The lost-wakeup case the broadcast design exists for: two pending
/// receivers, one cancels, then a value arrives — the survivor must be
/// woken (a cancelled waiter never swallows a wake).
#[test]
fn cancelled_recv_does_not_swallow_the_wake() {
    let q: Arc<AsyncQueue<u64, OptimalQueue>> = Arc::new(AsyncQueue::new(
        OptimalQueue::with_capacity_and_threads(4, 3),
    ));
    // Survivor: a real blocked task on its own thread.
    let q2 = Arc::clone(&q);
    let survivor = std::thread::spawn(move || {
        let mut h = q2.register();
        pollster::block_on(q2.recv(&mut h))
    });
    // Give the survivor time to park, then add a second pending recv
    // and cancel it.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let mut h = q.register();
    {
        let (_flag, waker) = flag_waker();
        let mut cx = Context::from_waker(&waker);
        let mut doomed = q.recv(&mut h);
        assert!(Pin::new(&mut doomed).poll(&mut cx).is_pending());
    } // cancelled
      // One value: the survivor — not the cancelled future — must get it.
    q.try_send(&mut h, 77).unwrap();
    assert_eq!(
        survivor.join().unwrap(),
        Some(77),
        "wake reached the surviving waiter"
    );
    ec_quiescent(q.blocking().not_empty_event(), "after transfer");
}

/// A woken-then-cancelled future (wake drained its registration before
/// the drop) must not corrupt the waiter count via double-deregister.
#[test]
fn cancel_after_wake_is_a_clean_noop() {
    let q: AsyncQueue<u64, OptimalQueue> =
        AsyncQueue::new(OptimalQueue::with_capacity_and_threads(4, 2));
    let mut h = q.register();
    let mut h2 = q.register();
    let (flag, waker) = flag_waker();
    let mut cx = Context::from_waker(&waker);
    // Register (pending recv on the empty queue), wake (the send drains
    // the registration and fires the waker), then drop without re-polling.
    let mut fut = q.recv(&mut h);
    assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
    q.try_send(&mut h2, 5).unwrap(); // wake drains the registration
    assert!(flag.0.load(Ordering::SeqCst), "waker fired");
    assert_eq!(q.blocking().not_empty_event().registered_wakers(), 0);
    drop(fut); // its WaiterId is stale: deregister must be a no-op
    ec_quiescent(q.blocking().not_empty_event(), "after stale cancel");
    assert_eq!(
        q.try_recv(&mut h),
        Ok(5),
        "value survived the cancelled waiter"
    );
}

/// Cancelled batch futures: a pending `recv_many` holds no elements, a
/// pending `send_all`'s already-accepted prefix stays queued (and only
/// the unsent suffix vanishes with the future).
#[test]
fn cancelled_batch_futures_conserve_elements() {
    let q: AsyncQueue<u64, OptimalQueue> =
        AsyncQueue::new(OptimalQueue::with_capacity_and_threads(2, 1));
    let mut h = q.register();
    // send_all of 4 into capacity 2: accepts 2, parks, gets cancelled.
    assert!(
        poll_bounded(q.send_all(&mut h, vec![1, 2, 3, 4]), 2).is_none(),
        "cannot complete: capacity 2"
    );
    ec_quiescent(q.blocking().not_full_event(), "after send_all cancel");
    assert_eq!(q.len(), 2, "accepted prefix stays queued");
    assert_eq!(q.try_recv(&mut h), Ok(1));
    assert_eq!(q.try_recv(&mut h), Ok(2));
    // recv_many on the now-empty queue: pending, cancelled, nothing held.
    assert!(poll_bounded(q.recv_many(&mut h, 3), 2).is_none());
    ec_quiescent(q.blocking().not_empty_event(), "after recv_many cancel");
    assert!(q.is_empty());
}

// ---------------------------------------------------------------------------
// Timed waits: deadlines across cancellation (DESIGN.md §13)
// ---------------------------------------------------------------------------

/// The timer wheel is process-global, so the tests that assert on
/// `timerwheel::armed_count` are serialized against each other.
static TIMER_LOCK: Mutex<()> = Mutex::new(());

/// Zero and past deadlines return `Timeout` immediately — without
/// parking, in both façades. The elapsed bound is generous (one
/// scheduling quantum), but a real park would be unbounded here: nothing
/// ever sends, so only the deadline path can return at all.
#[test]
fn past_deadline_timed_ops_return_immediately() {
    let _serial = TIMER_LOCK.lock();
    let bq: BlockingQueue<u64, OptimalQueue> =
        BlockingQueue::new(OptimalQueue::with_capacity_and_threads(2, 1));
    let mut h = bq.register();
    let start = Instant::now();
    assert_eq!(
        bq.recv_within(&mut h, Instant::now()),
        Err(RecvTimeoutError::Timeout),
        "empty queue, due deadline"
    );
    assert_eq!(
        bq.recv_within(&mut h, Duration::ZERO),
        Err(RecvTimeoutError::Timeout),
        "zero timeout"
    );
    bq.try_send(&mut h, 1).unwrap();
    bq.try_send(&mut h, 2).unwrap();
    assert_eq!(
        bq.send_within(&mut h, 3, Instant::now() - Duration::from_secs(1)),
        Err(SendTimeoutError::Timeout(3)),
        "full queue, past deadline hands the value back"
    );
    ec_quiescent(bq.not_empty_event(), "blocking past-deadline recv");
    ec_quiescent(bq.not_full_event(), "blocking past-deadline send");

    let aq: AsyncQueue<u64, OptimalQueue> =
        AsyncQueue::new(OptimalQueue::with_capacity_and_threads(2, 1));
    let mut ah = aq.register();
    assert_eq!(
        pollster::block_on(aq.recv_within(&mut ah, Instant::now())),
        Err(RecvTimeoutError::Timeout)
    );
    aq.try_send(&mut ah, 1).unwrap();
    aq.try_send(&mut ah, 2).unwrap();
    assert_eq!(
        pollster::block_on(aq.send_within(&mut ah, 3, Duration::ZERO)),
        Err(SendTimeoutError::Timeout(3))
    );
    ec_quiescent(aq.blocking().not_empty_event(), "async past-deadline recv");
    ec_quiescent(aq.blocking().not_full_event(), "async past-deadline send");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "a due deadline parked: {:?}",
        start.elapsed()
    );
}

/// Cancelling a pending timed future must disarm its wheel timer and
/// release its waker registration — a leaked timer would wake a stranger
/// an hour later; a leaked registration would miscount waiters forever.
#[test]
fn cancelled_timed_futures_disarm_their_timers() {
    let _serial = TIMER_LOCK.lock();
    let q: AsyncQueue<u64, OptimalQueue> =
        AsyncQueue::new(OptimalQueue::with_capacity_and_threads(2, 1));
    let mut h = q.register();
    let far = Duration::from_secs(3600);
    let baseline = timerwheel::armed_count();

    // Pending timed recv: one registration, one armed timer.
    {
        let (_flag, waker) = flag_waker();
        let mut cx = Context::from_waker(&waker);
        let mut fut = q.recv_within(&mut h, far);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending(), "empty");
        assert_eq!(q.blocking().not_empty_event().registered_wakers(), 1);
        assert_eq!(timerwheel::armed_count(), baseline + 1, "timer armed");
    } // dropped: cancelled mid-wait
    assert_eq!(timerwheel::armed_count(), baseline, "recv timer disarmed");
    ec_quiescent(q.blocking().not_empty_event(), "after timed recv cancel");

    // Same for a pending timed send on a full queue.
    q.try_send(&mut h, 1).unwrap();
    q.try_send(&mut h, 2).unwrap();
    {
        let (_flag, waker) = flag_waker();
        let mut cx = Context::from_waker(&waker);
        let mut fut = q.send_within(&mut h, 9, far);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending(), "full");
        assert_eq!(timerwheel::armed_count(), baseline + 1);
    }
    assert_eq!(timerwheel::armed_count(), baseline, "send timer disarmed");
    ec_quiescent(q.blocking().not_full_event(), "after timed send cancel");
    assert_eq!(q.len(), 2, "cancelled timed send deposited nothing");
}

/// Spurious wakes neither satisfy nor break a timed wait: a receiver
/// bombarded with content-free `wake_all`s keeps waiting, takes a late
/// value over its (not yet due) deadline, and — when no value ever
/// arrives — still times out rather than hanging.
#[test]
fn timed_recv_survives_spurious_wakes() {
    // Thread bound 4: two successive receiver threads plus the main
    // handle (registrations are permanent slots, not leases).
    let q: Arc<BlockingQueue<u64, OptimalQueue>> = Arc::new(BlockingQueue::new(
        OptimalQueue::with_capacity_and_threads(2, 4),
    ));
    // Phase 1: spurious wakes, then a real value — the value wins.
    let q2 = Arc::clone(&q);
    let rx = std::thread::spawn(move || {
        let mut h = q2.register();
        q2.recv_within(&mut h, Duration::from_secs(30))
    });
    let mut h = q.register();
    for _ in 0..50 {
        q.not_empty_event().wake_all(); // generation bump, no publish
        std::thread::yield_now();
    }
    q.try_send(&mut h, 41).unwrap();
    assert_eq!(rx.join().unwrap(), Ok(41), "value beats a far deadline");

    // Phase 2: only spurious wakes — the deadline must still fire.
    let q2 = Arc::clone(&q);
    let rx = std::thread::spawn(move || {
        let mut h = q2.register();
        let start = Instant::now();
        let r = q2.recv_within(&mut h, Duration::from_millis(40));
        (r, start.elapsed())
    });
    for _ in 0..50 {
        q.not_empty_event().wake_all();
        std::thread::sleep(Duration::from_millis(1));
    }
    let (r, waited) = rx.join().unwrap();
    assert_eq!(r, Err(RecvTimeoutError::Timeout));
    assert!(
        waited >= Duration::from_millis(40),
        "timed out early at {waited:?}: a spurious wake was mistaken for a deadline"
    );
    ec_quiescent(q.not_empty_event(), "after spurious-wake rounds");
}

// ---------------------------------------------------------------------------
// Element-wise pool-spec stress under cancellation
// ---------------------------------------------------------------------------

/// Shared history recorder assigning operation ids in logged-invoke
/// order (the `check_history_pool` convention), as in
/// `tests/linearizability_stress.rs`.
struct Recorder {
    inner: Mutex<History>,
    next: Mutex<usize>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            inner: Mutex::new(History::new()),
            next: Mutex::new(0),
        }
    }

    fn invoke(&self, tid: usize, op: Op) -> OpId {
        let mut h = self.inner.lock();
        let mut n = self.next.lock();
        let id = OpId(*n);
        *n += 1;
        h.push(HistoryEvent::Invoke { id, tid, op });
        id
    }

    fn ret(&self, id: OpId, ret: Ret) {
        self.inner.lock().push(HistoryEvent::Return { id, ret });
    }
}

/// Tiny deterministic per-seed generator (split-mix), as in the
/// linearizability stress.
struct SeedMix(u64);

impl SeedMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Three threads hammer one sharded async queue with bounded-poll
/// send/recv futures — cancelling whatever stays pending — while every
/// element-op lands in a history. Asserts, per round:
///
/// * the history satisfies the pool spec (cancelled ops recorded as
///   refusals, which are always admissible);
/// * conservation: successful sends = successful receives + drain;
/// * no leaked waiters on either eventcount at quiescence.
#[test]
fn cancellation_stress_pool_spec_and_conservation() {
    let rounds = if std::env::var("MEMBQ_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0") {
        5
    } else {
        25
    };
    for seed in [1u64, 2, 3] {
        for round in 0..rounds {
            // Thread bound 4: the three stress threads plus the final
            // drain handle.
            let q: Arc<AsyncQueue<u64, ShardedQueue<OptimalQueue>>> = Arc::new(AsyncQueue::new(
                ShardedQueue::<OptimalQueue>::optimal(4, 2, 4),
            ));
            let rec = Arc::new(Recorder::new());
            let sent = Arc::new(Mutex::new(Vec::<u64>::new()));
            let got = Arc::new(Mutex::new(Vec::<u64>::new()));
            let base = 1 + round as u64 * 1_000 + seed * 1_000_000;

            std::thread::scope(|s| {
                for tid in 0..3usize {
                    let q = Arc::clone(&q);
                    let rec = Arc::clone(&rec);
                    let sent = Arc::clone(&sent);
                    let got = Arc::clone(&got);
                    s.spawn(move || {
                        let mut h = q.register();
                        let mut mix = SeedMix(seed ^ ((tid as u64) << 32) ^ round as u64);
                        for i in 0..6u64 {
                            let attempts = 1 + (mix.next() % 3) as usize;
                            if mix.next().is_multiple_of(2) {
                                let v = base + tid as u64 * 100 + i;
                                let id = rec.invoke(tid, Op::Enqueue(v));
                                match poll_bounded(q.send(&mut h, v), attempts) {
                                    Some(Ok(())) => {
                                        sent.lock().push(v);
                                        rec.ret(id, Ret::EnqOk);
                                    }
                                    Some(Err(_)) => unreachable!("never closed"),
                                    // Cancelled pending send: the value
                                    // never entered the queue — a refusal.
                                    None => rec.ret(id, Ret::EnqFull),
                                }
                            } else {
                                let id = rec.invoke(tid, Op::Dequeue);
                                match poll_bounded(q.recv(&mut h), attempts) {
                                    Some(Some(v)) => {
                                        got.lock().push(v);
                                        rec.ret(id, Ret::DeqVal(v));
                                    }
                                    Some(None) => unreachable!("never closed"),
                                    // Cancelled pending recv: took nothing.
                                    None => rec.ret(id, Ret::DeqEmpty),
                                }
                            }
                            std::thread::yield_now();
                        }
                    });
                }
            });

            // Quiescence: drain the queue through the sync view and check
            // conservation element-wise.
            let mut h = q.register();
            let mut drained = Vec::new();
            while let Ok(v) = q.try_recv(&mut h) {
                drained.push(v);
            }
            let mut sent = Arc::try_unwrap(sent).unwrap().into_inner();
            let mut received = Arc::try_unwrap(got).unwrap().into_inner();
            received.extend(drained);
            sent.sort_unstable();
            received.sort_unstable();
            assert_eq!(
                sent, received,
                "conservation under cancellation (seed {seed}, round {round})"
            );

            // No leaked waiters on either side.
            ec_quiescent(q.blocking().not_full_event(), "stress not_full");
            ec_quiescent(q.blocking().not_empty_event(), "stress not_empty");

            // The recorded history satisfies the pool spec.
            let history = rec.inner.lock().clone();
            assert!(
                check_history_pool(&history, 4).is_linearizable(),
                "async cancellation history broke the pool spec \
                 (seed {seed}, round {round}):\n{}",
                history.render()
            );
        }
    }
}
