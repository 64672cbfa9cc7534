//! An async (`Future`-based) façade over the bounded queues: `send`
//! awaits space, `recv` awaits an element — parking **tasks**, not OS
//! threads.
//!
//! [`AsyncQueue`] is the third client layer of the waiter subsystem
//! (DESIGN.md §9): it wraps the *same* [`BlockingQueue`] state — the
//! lock-free data path plus one [`EventCount`] per direction — and adds
//! one hand-rolled future, [`WaitFuture`]. What the future waits *for* is
//! one of the blocking façade's four operation values ([`WaitOp`]), so
//! every method here is a constructor. *How* it waits is the task half
//! of the eventcount protocol (the lost-wake argument is in
//! [`crate::event`]): try, register the waker against a generation
//! snapshot, re-try, return `Pending` — **no timed polling anywhere**.
//! Because both façades share the two eventcount instances, blocking
//! threads and async tasks can wait on **one queue at the same time**: a
//! thread's `send` wakes a task's pending `recv` and vice versa
//! ([`blocking`](AsyncQueue::blocking) exposes the sync view). No
//! executor dependency exists; any executor works, and the
//! dependency-free `pollster` shim's `block_on` is enough to drive it.
//!
//! A future built with a [`TimeLimit`] adds one step: when a poll would
//! return `Pending` and the limit has passed, it resolves through the
//! operation's `expired` instead; otherwise it arms a `timerwheel` entry
//! that re-polls it at the deadline. Under
//! [`Forever`](TimeLimit::Forever) that step is inert — no clock read,
//! no timer.
//!
//! ## Cancellation safety
//!
//! Dropping a pending future deregisters its waker (removing it from
//! the waiter list and the waiter count) and returns any not-yet-sent
//! value to the caller's ownership (it is dropped with the future). A
//! `recv` future takes an element only at the moment it resolves
//! `Ready`, so a dropped pending `recv` can never lose one. And because
//! eventcount wakes are broadcast, a cancelled waiter can never have
//! swallowed a wake another waiter needed. `tests/async_cancel.rs`
//! asserts all three properties under stress.

use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use crate::blocking::{
    BlockingQueue, FromOutcome, RecvManyOp, RecvOp, SendAllOp, SendError, SendOp, WaitOp,
};
use crate::boxed::{BoxedHandle, PointerCapable};
use crate::event::{EventCount, TimeLimit, WaiterId};

/// Async bounded queue over any pointer-capable token queue.
///
/// ```
/// use bq_core::{AsyncQueue, OptimalQueue};
///
/// let q: AsyncQueue<String, OptimalQueue> =
///     AsyncQueue::new(OptimalQueue::with_capacity_and_threads(8, 2));
/// let mut h = q.register();
/// pollster::block_on(async {
///     q.send(&mut h, "job".to_string()).await.unwrap();
///     assert_eq!(q.recv(&mut h).await, Some("job".to_string()));
/// });
/// ```
pub struct AsyncQueue<T: Send, Q: PointerCapable> {
    sync: BlockingQueue<T, Q>,
}

impl<T: Send, Q: PointerCapable> AsyncQueue<T, Q> {
    /// Wrap an empty token queue.
    pub fn new(inner: Q) -> Self {
        AsyncQueue {
            sync: BlockingQueue::new(inner),
        }
    }

    /// The blocking view of the **same queue**: same data path, same two
    /// eventcounts. Threads using this view and tasks using the async
    /// methods wake each other.
    pub fn blocking(&self) -> &BlockingQueue<T, Q> {
        &self.sync
    }

    /// The one constructor behind every waiting method: `op` under
    /// `limit`, resolving to the caller's result type `R`.
    fn wait<'a, Op: WaitOp<T, Q>, R: FromOutcome<Op::Out>>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        op: Op,
        limit: TimeLimit,
    ) -> WaitFuture<'a, T, Q, Op, R> {
        WaitFuture {
            queue: &self.sync,
            handle: h,
            op,
            wait: WaitState {
                reg: None,
                limit,
                timer: None,
            },
            _resolves_to: PhantomData,
        }
    }

    /// Enqueue, resolving when the value is accepted; `Err(SendError)`
    /// returns the value if the queue closes first.
    pub fn send<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        value: T,
    ) -> WaitFuture<'a, T, Q, SendOp<T>, Result<(), SendError<T>>> {
        self.wait(h, SendOp(Some(value)), TimeLimit::Forever)
    }

    /// Dequeue, resolving to `Some(v)` when an element arrives, or
    /// `None` once the queue is closed and drained.
    pub fn recv<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
    ) -> WaitFuture<'a, T, Q, RecvOp, Option<T>> {
        self.wait(h, RecvOp, TimeLimit::Forever)
    }

    /// Batch enqueue, resolving once **every** item is accepted; on
    /// close, resolves to the unsent suffix. A future dropped while
    /// pending drops its unsent suffix with it; accepted items stay
    /// queued.
    // The return type names the operation and what it resolves to; an
    // alias would only hide both.
    #[allow(clippy::type_complexity)]
    pub fn send_all<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        items: Vec<T>,
    ) -> WaitFuture<'a, T, Q, SendAllOp<T, Q>, Result<(), SendError<Vec<T>>>> {
        self.wait(h, SendAllOp::new(&self.sync, items), TimeLimit::Forever)
    }

    /// Batch dequeue, resolving to 1..=`max` values — or an empty vector
    /// once the queue is closed and drained.
    pub fn recv_many<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        max: usize,
    ) -> WaitFuture<'a, T, Q, RecvManyOp, Vec<T>> {
        self.wait(h, RecvManyOp::new(max), TimeLimit::Forever)
    }

    /// [`send`](Self::send) under a [`TimeLimit`] (an `Instant` or a
    /// `Duration` converts): resolves to
    /// [`SendTimeoutError::Timeout`](crate::SendTimeoutError::Timeout),
    /// value handed back, if the queue is still full when the limit
    /// passes. The timer seam (`timerwheel`) only arms when the future
    /// actually goes pending, so a send that completes on its first poll
    /// never reads the clock; a `close()` racing the limit is pinned to
    /// `Closed`, as in [`BlockingQueue::send_within`].
    pub fn send_within<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        value: T,
        limit: impl Into<TimeLimit>,
    ) -> WaitFuture<'a, T, Q, SendOp<T>> {
        self.wait(h, SendOp(Some(value)), limit.into())
    }

    /// [`recv`](Self::recv) under a [`TimeLimit`]; see
    /// [`BlockingQueue::recv_within`] for the outcomes.
    pub fn recv_within<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        limit: impl Into<TimeLimit>,
    ) -> WaitFuture<'a, T, Q, RecvOp> {
        self.wait(h, RecvOp, limit.into())
    }

    /// [`send_all`](Self::send_all) under a [`TimeLimit`]; see
    /// [`BlockingQueue::send_all_within`] for the outcomes.
    pub fn send_all_within<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        items: Vec<T>,
        limit: impl Into<TimeLimit>,
    ) -> WaitFuture<'a, T, Q, SendAllOp<T, Q>> {
        self.wait(h, SendAllOp::new(&self.sync, items), limit.into())
    }

    /// [`recv_many`](Self::recv_many) under a [`TimeLimit`]; see
    /// [`BlockingQueue::recv_many_within`] for the outcomes.
    pub fn recv_many_within<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        max: usize,
        limit: impl Into<TimeLimit>,
    ) -> WaitFuture<'a, T, Q, RecvManyOp> {
        self.wait(h, RecvManyOp::new(max), limit.into())
    }
}

/// Everything that does not wait — `register`, the `try_*` family,
/// `close`, `len`, `metrics`, … — is the blocking view's, unchanged.
/// (Handles must not be shared between concurrently running tasks: each
/// future borrows one exclusively while in flight.)
impl<T: Send, Q: PointerCapable> std::ops::Deref for AsyncQueue<T, Q> {
    type Target = BlockingQueue<T, Q>;

    fn deref(&self) -> &BlockingQueue<T, Q> {
        &self.sync
    }
}

/// Per-future wait state — everything a future must release when it
/// completes or is dropped: at most one live waker registration, and at
/// most one armed `timerwheel` entry for its [`TimeLimit`]. Under
/// [`Forever`](TimeLimit::Forever) there is no deadline, so the timer
/// half never reads the clock and never arms anything.
struct WaitState {
    reg: Option<WaiterId>,
    limit: TimeLimit,
    timer: Option<timerwheel::TimerKey>,
}

impl WaitState {
    /// One poll of the task half of the eventcount protocol. `attempt`
    /// returns `Some(r)` when the operation completed (with success *or*
    /// a terminal closed result).
    fn poll_with<R>(
        &mut self,
        ec: &EventCount,
        waker: &Waker,
        mut attempt: impl FnMut() -> Option<R>,
    ) -> Poll<R> {
        // A registration surviving from the previous poll is stale: it
        // may hold an outdated waker (the task can migrate between
        // polls), or it was already drained by the wake that caused this
        // poll. Drop it and go through the full announce cycle again.
        if let Some(id) = self.reg.take() {
            ec.deregister(id);
        }
        loop {
            if let Some(r) = attempt() {
                return Poll::Ready(r);
            }
            let gen = ec.generation();
            // `None`: a wake was published between the snapshot and the
            // gate lock. Whatever it announced may satisfy us — re-try
            // instead of sleeping through it.
            let Some(id) = ec.register(gen, waker) else {
                continue;
            };
            // Announced. Re-attempt to close the race with a notifier
            // that read `waiters == 0` before our registration landed.
            // The id is held in `self.reg` first: completion releases it
            // in `poll`, and a re-attempt that unwinds leaves it to the
            // future's drop.
            self.reg = Some(id);
            return match attempt() {
                Some(r) => Poll::Ready(r),
                None => Poll::Pending,
            };
        }
    }

    /// Did the limit pass? Called only on a poll that would go pending,
    /// which is where a relative timeout gets pinned to the clock.
    fn expired(&mut self) -> bool {
        self.limit.deadline().is_some_and(|at| Instant::now() >= at)
    }

    /// Going pending: (re)arm the timer to fire `waker` at the deadline —
    /// with the current poll's waker, since tasks can migrate between
    /// polls.
    fn arm(&mut self, waker: &Waker) {
        if let Some(k) = self.timer.take() {
            timerwheel::cancel(k);
        }
        if let Some(at) = self.limit.deadline() {
            self.timer = Some(timerwheel::schedule_at(at, waker.clone()));
        }
    }

    /// Completion or cancellation: drop the registration and the timer.
    fn release(&mut self, ec: &EventCount) {
        if let Some(id) = self.reg.take() {
            ec.deregister(id);
        }
        if let Some(k) = self.timer.take() {
            timerwheel::cancel(k);
        }
    }
}

/// The one future of the async façade: `Op` (one of the four [`WaitOp`]
/// values) waiting on its eventcount under a [`TimeLimit`], resolving to
/// `R` — the operation's own result for the `*_within` methods, its
/// narrower untimed form for the others.
///
/// Dropping it while pending cancels the wait: the waker registration
/// and any armed timer are released here, and whatever the operation
/// still owns (an unsent value, an unsent batch suffix) drops with it.
pub struct WaitFuture<
    'a,
    T: Send,
    Q: PointerCapable,
    Op: WaitOp<T, Q>,
    R = <Op as WaitOp<T, Q>>::Out,
> {
    queue: &'a BlockingQueue<T, Q>,
    handle: &'a mut BoxedHandle<Q>,
    op: Op,
    wait: WaitState,
    _resolves_to: PhantomData<fn() -> R>,
}

// The future never hands out pins into its own storage, so it is a plain
// state machine — safe to consider Unpin regardless of `T`.
impl<T: Send, Q: PointerCapable, Op: WaitOp<T, Q>, R> Unpin for WaitFuture<'_, T, Q, Op, R> {}

impl<T: Send, Q: PointerCapable, Op: WaitOp<T, Q>, R: FromOutcome<Op::Out>> Future
    for WaitFuture<'_, T, Q, Op, R>
{
    type Output = R;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<R> {
        let WaitFuture {
            queue,
            handle,
            op,
            wait,
            ..
        } = self.get_mut();
        let ec = Op::event(queue);
        let out = match wait.poll_with(ec, cx.waker(), || op.attempt(queue, handle)) {
            Poll::Ready(out) => out,
            // The attempt inside poll_with just ran and failed, so the
            // operation still owns whatever it has to hand back.
            Poll::Pending if wait.expired() => op.expired(queue, handle),
            Poll::Pending => {
                wait.arm(cx.waker());
                return Poll::Pending;
            }
        };
        wait.release(ec);
        Poll::Ready(R::from_outcome(out))
    }
}

impl<T: Send, Q: PointerCapable, Op: WaitOp<T, Q>, R> Drop for WaitFuture<'_, T, Q, Op, R> {
    fn drop(&mut self) {
        self.wait.release(Op::event(self.queue));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{RecvTimeoutError, SendTimeoutError};
    use crate::optimal::OptimalQueue;
    use crate::sharded::ShardedQueue;
    use pollster::block_on;
    use std::sync::Arc;

    fn make(c: usize, t: usize) -> AsyncQueue<u64, OptimalQueue> {
        AsyncQueue::new(OptimalQueue::with_capacity_and_threads(c, t))
    }

    #[test]
    fn roundtrip_without_waiting() {
        let q = make(4, 1);
        let mut h = q.register();
        block_on(async {
            q.send(&mut h, 7).await.unwrap();
            q.send(&mut h, 8).await.unwrap();
            assert_eq!(q.recv(&mut h).await, Some(7));
            assert_eq!(q.recv(&mut h).await, Some(8));
        });
        assert!(q.is_empty());
    }

    #[test]
    fn pending_recv_wakes_on_cross_thread_send() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            block_on(q2.recv(&mut h))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut h = q.register();
        block_on(q.send(&mut h, 42)).unwrap();
        assert_eq!(receiver.join().unwrap(), Some(42));
    }

    #[test]
    fn pending_send_wakes_when_space_appears() {
        let q = Arc::new(make(1, 2));
        let mut h = q.register();
        block_on(q.send(&mut h, 1)).unwrap();
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h = q2.register();
            block_on(q2.send(&mut h, 2))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(block_on(q.recv(&mut h)), Some(1));
        sender.join().unwrap().unwrap();
        assert_eq!(block_on(q.recv(&mut h)), Some(2));
    }

    #[test]
    fn batch_futures_roundtrip() {
        let q = Arc::new(make(2, 2));
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h = q2.register();
            // 6 items through 2 slots: the future must park repeatedly.
            block_on(q2.send_all(&mut h, (1..=6).collect())).unwrap();
        });
        let mut h = q.register();
        let mut got = Vec::new();
        while got.len() < 6 {
            let batch = block_on(q.recv_many(&mut h, 4));
            assert!(!batch.is_empty(), "open queue never yields empty batches");
            got.extend(batch);
        }
        sender.join().unwrap();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6]);
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_reports_none() {
        let q = make(4, 1);
        let mut h = q.register();
        block_on(async {
            q.send(&mut h, 1).await.unwrap();
            q.send(&mut h, 2).await.unwrap();
            q.close();
            assert_eq!(q.send(&mut h, 3).await, Err(SendError(3)));
            assert_eq!(
                q.send_all(&mut h, vec![4, 5]).await,
                Err(SendError(vec![4, 5]))
            );
            assert_eq!(q.recv(&mut h).await, Some(1), "drain before closed");
            assert_eq!(q.recv_many(&mut h, 4).await, vec![2]);
            assert_eq!(q.recv(&mut h).await, None);
            assert_eq!(q.recv_many(&mut h, 4).await, Vec::<u64>::new());
        });
    }

    #[test]
    fn close_wakes_pending_async_recv() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            block_on(q2.recv(&mut h))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(receiver.join().unwrap(), None);
    }

    #[test]
    fn sync_and_async_waiters_share_one_queue() {
        // A blocking thread and an async task wait on the same queue;
        // one producer satisfies both through the shared eventcounts.
        let q = Arc::new(make(4, 3));
        let q_sync = Arc::clone(&q);
        let sync_recv = std::thread::spawn(move || {
            let mut h = q_sync.register();
            q_sync.blocking().recv(&mut h)
        });
        let q_async = Arc::clone(&q);
        let async_recv = std::thread::spawn(move || {
            let mut h = q_async.register();
            block_on(q_async.recv(&mut h))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut h = q.register();
        q.blocking().send(&mut h, 1).unwrap();
        block_on(q.send(&mut h, 2)).unwrap();
        let mut got = vec![
            sync_recv.join().unwrap().unwrap(),
            async_recv.join().unwrap().unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn timed_futures_roundtrip_without_arming_a_timer() {
        let q = make(4, 1);
        let mut h = q.register();
        block_on(async {
            q.send_within(&mut h, 7, std::time::Duration::from_secs(30))
                .await
                .unwrap();
            assert_eq!(
                q.recv_within(&mut h, Instant::now() + std::time::Duration::from_secs(30))
                    .await,
                Ok(7)
            );
        });
        assert!(q.is_empty());
    }

    #[test]
    fn timed_send_future_times_out_with_value_back() {
        let q = make(1, 1);
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        let start = Instant::now();
        let err =
            block_on(q.send_within(&mut h, 2, std::time::Duration::from_millis(30))).unwrap_err();
        assert_eq!(err, SendTimeoutError::Timeout(2));
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
        assert_eq!(q.blocking().not_full_event().registered_wakers(), 0);
    }

    #[test]
    fn timed_recv_future_times_out_on_empty_queue() {
        let q = make(4, 1);
        let mut h = q.register();
        assert_eq!(
            block_on(q.recv_within(&mut h, std::time::Duration::from_millis(30))),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(
            block_on(q.recv_within(&mut h, Instant::now())),
            Err(RecvTimeoutError::Timeout),
            "already-expired deadline resolves on the first poll"
        );
        assert_eq!(q.blocking().not_empty_event().registered_wakers(), 0);
    }

    #[test]
    fn timed_recv_future_wins_the_race_when_an_element_arrives() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let mut h = q2.register();
            block_on(q2.send(&mut h, 42)).unwrap();
        });
        let mut h = q.register();
        assert_eq!(
            block_on(q.recv_within(&mut h, Instant::now() + std::time::Duration::from_secs(30))),
            Ok(42)
        );
        producer.join().unwrap();
    }

    #[test]
    fn closed_queue_timed_futures_report_closed_not_timeout() {
        let q = make(4, 1);
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        q.close();
        let past = Instant::now() - std::time::Duration::from_millis(1);
        block_on(async {
            assert_eq!(
                q.send_within(&mut h, 9, past).await,
                Err(SendTimeoutError::Closed(9))
            );
            assert_eq!(q.recv_within(&mut h, past).await, Ok(1), "drain first");
            assert_eq!(
                q.recv_within(&mut h, past).await,
                Err(RecvTimeoutError::Closed)
            );
        });
    }

    #[test]
    fn composes_with_sharded_scale_layer() {
        let q: Arc<AsyncQueue<u64, ShardedQueue<OptimalQueue>>> = Arc::new(AsyncQueue::new(
            ShardedQueue::<OptimalQueue>::optimal(8, 4, 2),
        ));
        let n = 1_000u64;
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let mut h = q2.register();
            block_on(async {
                let mut next = 1u64;
                while next <= n {
                    let batch: Vec<u64> = (next..=(next + 7).min(n)).collect();
                    next += batch.len() as u64;
                    q2.send_all(&mut h, batch).await.unwrap();
                }
                q2.close();
            });
        });
        let mut h = q.register();
        let mut seen = std::collections::HashSet::new();
        block_on(async {
            loop {
                let batch = q.recv_many(&mut h, 8).await;
                if batch.is_empty() {
                    break; // closed + drained
                }
                for v in batch {
                    assert!(seen.insert(v), "duplicate {v}");
                }
            }
        });
        producer.join().unwrap();
        assert_eq!(seen.len() as u64, n, "exact conservation, close-driven");
    }

    /// A re-attempt that unwinds after `register` must not strand the
    /// registration: the future's drop releases it, so nothing stays
    /// announced once the panic has passed. The panic here comes from the
    /// operation itself, not the inner queue, so no `close()` drains it.
    #[test]
    fn a_panicking_reattempt_releases_its_registration() {
        struct PanicsOnReattempt(u32);
        impl WaitOp<u64, OptimalQueue> for PanicsOnReattempt {
            type Out = ();
            fn event(q: &BlockingQueue<u64, OptimalQueue>) -> &EventCount {
                q.not_empty_event()
            }
            fn attempt(
                &mut self,
                _q: &BlockingQueue<u64, OptimalQueue>,
                _h: &mut BoxedHandle<OptimalQueue>,
            ) -> Option<()> {
                self.0 += 1;
                assert!(self.0 < 2, "injected fault: the announced re-attempt");
                None
            }
            fn closed(
                &mut self,
                _q: &BlockingQueue<u64, OptimalQueue>,
                _h: &mut BoxedHandle<OptimalQueue>,
            ) {
            }
            fn timed_out(&mut self) {}
        }

        let q = make(2, 1);
        let mut h = q.register();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut fut: WaitFuture<'_, u64, OptimalQueue, PanicsOnReattempt> =
                q.wait(&mut h, PanicsOnReattempt(0), TimeLimit::Forever);
            let _ = Pin::new(&mut fut).poll(&mut Context::from_waker(Waker::noop()));
        }));
        assert!(unwound.is_err(), "the re-attempt panicked");
        assert!(!q.is_closed(), "nothing drained the registration for us");
        let ec = q.not_empty_event();
        assert_eq!(ec.registered_wakers(), 0, "registration released");
        assert_eq!((ec.waiter_count(), ec.sleeper_count()), (0, 0));
    }
}
