//! A blocking façade over the non-blocking queues: `send` waits for space,
//! `recv` waits for an element.
//!
//! The paper's §1 mentions the trivial blocking solution (a lock has Θ(1)
//! overhead but poor scalability). This type shows the practical middle
//! ground real systems use: the *data path* stays the lock-free queue —
//! all transfers go through it, no element is ever protected by a lock —
//! and waiting is delegated to the [`EventCount`] waiter subsystem
//! (DESIGN.md §9), one instance per direction, used **only to park**
//! threads that found the queue full/empty. The memory cost of the
//! parking layer is Θ(1) on top of whatever the underlying queue pays,
//! so e.g. `BlockingQueue<T, OptimalQueue>` is a blocking-API queue with
//! Θ(T) total overhead.
//!
//! ## Wake protocol: wake generations, no timed polling
//!
//! The classic lost-wake race — a counterpart transitions the queue
//! between our failed attempt and our park — is closed by the
//! eventcount's announce → snapshot → re-attempt → park-if-unchanged
//! protocol; see the [`crate::event`] module docs for the full argument.
//! This file contains **no parking machinery of its own**: every wait is
//! one [`EventCount::wait`] call, and every successful transition
//! publishes a wake to the opposite direction via
//! [`EventCount::wake_all`]. What is waited *for* is a value: the four
//! operations ([`SendOp`], [`RecvOp`], [`SendAllOp`], [`RecvManyOp`])
//! each say how to try once and what to report when a [`TimeLimit`]
//! passes ([`WaitOp`]). The untimed methods are the
//! [`Forever`](TimeLimit::Forever) call of the `*_within` ones, and the
//! async façade ([`crate::AsyncQueue`]) polls the *same four values*
//! against the *same two eventcount instances*, so blocking threads and
//! async tasks can wait on one queue simultaneously. No wait polls on a
//! timer, the uncontended wake fast path is one atomic load, and
//! blocking throughput has no built-in millisecond floor.
//!
//! ## Shutdown: `close()` with drain semantics
//!
//! [`close`](BlockingQueue::close) disconnects the queue without needing
//! sentinel ("poison") values: subsequent and parked `send`s return the
//! value back as an error, while receivers **drain every element already
//! accepted** and only then observe the closed state (`recv` → `None`,
//! `recv_many` → empty vector). A send racing `close` may still deposit
//! its element — it is never lost: it remains in the queue for later
//! receivers (or the destructor's drain). Conservation is unaffected.

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

use crate::simx::SimAtomicBool;

use crate::boxed::{take_all, BoxedHandle, BoxedQueue, PointerCapable};
use crate::event::{EventCount, TimeLimit};

/// Error returned by a blocking/async `send` on a closed queue: carries
/// the unsent value(s) back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by `try_send`: the queue was full or already closed.
/// Either way the value comes back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue holds `C` elements (retry may succeed later).
    Full(T),
    /// The queue is closed (no send will ever succeed again).
    Closed(T),
}

impl<T> TrySendError<T> {
    /// The rejected value, whatever the reason.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Closed(v) => v,
        }
    }
}

/// Error returned by `try_recv`: nothing to take right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue was observed empty but is still open.
    Empty,
    /// The queue was observed empty after it was closed. (A send racing
    /// `close` may still deposit later; see the module docs.)
    Closed,
}

/// Error returned by a `send` under a [`TimeLimit`]: the value comes back
/// in both cases, and the two failure causes stay distinguishable — a
/// `Timeout` may be retried, a `Closed` never succeeds again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The deadline passed with the queue still full. A `close()` racing
    /// the deadline is pinned the other way: when the queue was closed
    /// first, the error is [`Closed`](Self::Closed), never `Timeout`.
    Timeout(T),
    /// The queue is closed (no send will ever succeed again).
    Closed(T),
}

impl<T> SendTimeoutError<T> {
    /// The unsent value(s), whatever the reason.
    pub fn into_inner(self) -> T {
        match self {
            SendTimeoutError::Timeout(v) | SendTimeoutError::Closed(v) => v,
        }
    }

    /// `true` for the retryable [`Timeout`](Self::Timeout) case.
    pub fn is_timeout(&self) -> bool {
        matches!(self, SendTimeoutError::Timeout(_))
    }
}

impl<T> std::fmt::Display for SendTimeoutError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => write!(f, "send timed out (queue still full)"),
            SendTimeoutError::Closed(_) => write!(f, "send on closed queue"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendTimeoutError<T> {}

/// Error returned by a `recv` under a [`TimeLimit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with the queue still empty and open. As with
    /// sends, `close()` racing the deadline is pinned: when the queue
    /// was closed and drained first, the error is
    /// [`Closed`](Self::Closed), never `Timeout`.
    Timeout,
    /// The queue is closed and fully drained.
    Closed,
}

impl std::fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "recv timed out (queue still empty)"),
            RecvTimeoutError::Closed => write!(f, "recv on closed and drained queue"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// One waiting operation as a value. Both façades drive the same
/// implementation — [`BlockingQueue`] inside [`EventCount::wait`],
/// [`WaitFuture`](crate::WaitFuture) inside its poll — so every
/// {operation} × {limit} × {thread, task} cell is one of the four types
/// below plus one loop. Only the façades build them.
pub trait WaitOp<T: Send, Q: PointerCapable> {
    /// What the operation resolves to under a [`TimeLimit`]; the untimed
    /// methods map it onto their narrower types ([`FromOutcome`]).
    type Out;

    /// The eventcount this operation parks on.
    fn event(q: &BlockingQueue<T, Q>) -> &EventCount;

    /// One non-blocking try. `Some` ends the wait — the operation
    /// completed, or the queue is closed; `None` means full/empty: park.
    fn attempt(&mut self, q: &BlockingQueue<T, Q>, h: &mut BoxedHandle<Q>) -> Option<Self::Out>;

    /// The outcome once the closed flag has been observed: senders get
    /// back what was not sent; receivers make one more dequeue *after*
    /// the flag, which catches an element deposited between the failed
    /// dequeue and the flag read (drain semantics).
    fn closed(&mut self, q: &BlockingQueue<T, Q>, h: &mut BoxedHandle<Q>) -> Self::Out;

    /// The outcome when the limit passed on an open queue.
    fn timed_out(&mut self) -> Self::Out;

    /// The limit passed and the attempt made after it still failed. This
    /// is the **close-vs-timeout pin**, written once: a queue closed
    /// before the limit reports `Closed` even when that last attempt
    /// raced the flag; only an open queue blames the clock.
    fn expired(&mut self, q: &BlockingQueue<T, Q>, h: &mut BoxedHandle<Q>) -> Self::Out {
        if q.is_closed() {
            self.closed(q, h)
        } else {
            self.timed_out()
        }
    }
}

/// A result type that a [`WaitOp::Out`] maps onto: itself (the `*_within`
/// methods), or the narrower type of the untimed method. The map is
/// total — a wait under [`TimeLimit::Forever`] never expires, so its
/// `Timeout` arm is dead, but needs no panic.
pub trait FromOutcome<O> {
    /// Map the operation's outcome onto this type.
    fn from_outcome(out: O) -> Self;
}

impl<O> FromOutcome<O> for O {
    fn from_outcome(out: O) -> O {
        out
    }
}

impl<V> FromOutcome<Result<(), SendTimeoutError<V>>> for Result<(), SendError<V>> {
    fn from_outcome(out: Result<(), SendTimeoutError<V>>) -> Self {
        out.map_err(|e| SendError(e.into_inner()))
    }
}

impl<T> FromOutcome<Result<T, RecvTimeoutError>> for Option<T> {
    fn from_outcome(out: Result<T, RecvTimeoutError>) -> Self {
        out.ok()
    }
}

impl<T> FromOutcome<Result<Vec<T>, RecvTimeoutError>> for Vec<T> {
    fn from_outcome(out: Result<Vec<T>, RecvTimeoutError>) -> Self {
        out.unwrap_or_default()
    }
}

/// `send`: the value waiting for a slot. Each attempt takes it out and a
/// `Full` refusal puts it back, so whatever ends the wait — an error
/// return, a cancelled future's drop — still owns it.
pub struct SendOp<T>(pub(crate) Option<T>);

impl<T> SendOp<T> {
    fn value(&mut self) -> T {
        self.0
            .take()
            .expect("the value is present until the send ends")
    }
}

impl<T: Send, Q: PointerCapable> WaitOp<T, Q> for SendOp<T> {
    type Out = Result<(), SendTimeoutError<T>>;

    fn event(q: &BlockingQueue<T, Q>) -> &EventCount {
        &q.not_full
    }

    fn attempt(&mut self, q: &BlockingQueue<T, Q>, h: &mut BoxedHandle<Q>) -> Option<Self::Out> {
        match q.try_send(h, self.value()) {
            Ok(()) => Some(Ok(())),
            Err(TrySendError::Closed(v)) => Some(Err(SendTimeoutError::Closed(v))),
            Err(TrySendError::Full(v)) => {
                self.0 = Some(v);
                None
            }
        }
    }

    fn closed(&mut self, _q: &BlockingQueue<T, Q>, _h: &mut BoxedHandle<Q>) -> Self::Out {
        Err(SendTimeoutError::Closed(self.value()))
    }

    fn timed_out(&mut self) -> Self::Out {
        Err(SendTimeoutError::Timeout(self.value()))
    }
}

/// `recv`: stateless — an element is taken only by the attempt that ends
/// the wait, so an abandoned `recv` can never hold one.
pub struct RecvOp;

impl<T: Send, Q: PointerCapable> WaitOp<T, Q> for RecvOp {
    type Out = Result<T, RecvTimeoutError>;

    fn event(q: &BlockingQueue<T, Q>) -> &EventCount {
        &q.not_empty
    }

    fn attempt(&mut self, q: &BlockingQueue<T, Q>, h: &mut BoxedHandle<Q>) -> Option<Self::Out> {
        match q.try_recv(h) {
            Ok(v) => Some(Ok(v)),
            Err(TryRecvError::Closed) => Some(self.closed(q, h)),
            Err(TryRecvError::Empty) => None,
        }
    }

    fn closed(&mut self, q: &BlockingQueue<T, Q>, h: &mut BoxedHandle<Q>) -> Self::Out {
        q.try_recv(h).map_err(|_| RecvTimeoutError::Closed)
    }

    fn timed_out(&mut self) -> Self::Out {
        Err(RecvTimeoutError::Timeout)
    }
}

/// `send_all`: the batch, boxed **once** into its tokens — runs of up to
/// 16 values per allocation, through the queue's run slots (DESIGN.md
/// §8.4); a parked batch retries on the tokens instead of re-boxing every
/// pending item on each wake — and how far the queue has taken it.
/// `tokens[sent..]` is the unsent suffix and belongs to this value:
/// handed back on close or expiry, dropped with it when the wait is
/// abandoned (a cancelled future, a panic unwinding through the wait) —
/// each element exactly once either way. Accepted items stay queued.
pub struct SendAllOp<T: Send, Q: PointerCapable> {
    tokens: Vec<u64>,
    sent: usize,
    _owns: PhantomData<(T, fn() -> Q)>,
}

impl<T: Send, Q: PointerCapable> SendAllOp<T, Q> {
    pub(crate) fn new(q: &BlockingQueue<T, Q>, items: Vec<T>) -> Self {
        SendAllOp {
            tokens: q.inner.box_all(items),
            sent: 0,
            _owns: PhantomData,
        }
    }

    /// Move the unsent suffix out as values, parking emptied runs in `q`'s
    /// run slots when a queue is in hand. It is disowned *first*: should
    /// anything below unwind, the remainder leaks rather than being freed
    /// a second time by [`Drop`].
    pub(crate) fn take_unsent(&mut self, q: Option<&BlockingQueue<T, Q>>) -> Vec<T> {
        let from = std::mem::replace(&mut self.sent, self.tokens.len());
        // SAFETY: the queue never accepted these tokens, and moving `sent`
        // past them above disowned them before any is taken.
        unsafe { take_all(&self.tokens[from..], q.map(|q| &q.inner)) }
    }
}

impl<T: Send, Q: PointerCapable> Drop for SendAllOp<T, Q> {
    fn drop(&mut self) {
        drop(self.take_unsent(None));
    }
}

impl<T: Send, Q: PointerCapable> WaitOp<T, Q> for SendAllOp<T, Q> {
    type Out = Result<(), SendTimeoutError<Vec<T>>>;

    fn event(q: &BlockingQueue<T, Q>) -> &EventCount {
        &q.not_full
    }

    fn attempt(&mut self, q: &BlockingQueue<T, Q>, h: &mut BoxedHandle<Q>) -> Option<Self::Out> {
        if q.is_closed() {
            return Some(self.closed(q, h));
        }
        // While the inner queue runs, nobody can say which tokens of the
        // run it has taken, so the run is disowned for the call: a panic
        // unwinding out of it (the queue is then poisoned) leaks the
        // in-flight run rather than let `Drop` free boxes that receivers
        // will still drain.
        let from = std::mem::replace(&mut self.sent, self.tokens.len());
        let n = q.contain(|| q.inner.enqueue_tokens(h, &self.tokens[from..]));
        self.sent = from + n;
        if n > 0 {
            q.not_empty.wake_all();
        }
        (self.sent == self.tokens.len()).then_some(Ok(()))
    }

    fn closed(&mut self, q: &BlockingQueue<T, Q>, _h: &mut BoxedHandle<Q>) -> Self::Out {
        Err(SendTimeoutError::Closed(self.take_unsent(Some(q))))
    }

    fn timed_out(&mut self) -> Self::Out {
        Err(SendTimeoutError::Timeout(self.take_unsent(None)))
    }
}

/// `recv_many`: the batch bound. Elements are taken only by the attempt
/// that ends the wait; a miss pushes nothing and allocates nothing.
pub struct RecvManyOp(usize);

impl RecvManyOp {
    pub(crate) fn new(max: usize) -> Self {
        assert!(max > 0, "recv_many needs a positive batch bound");
        RecvManyOp(max)
    }
}

impl<T: Send, Q: PointerCapable> WaitOp<T, Q> for RecvManyOp {
    type Out = Result<Vec<T>, RecvTimeoutError>;

    fn event(q: &BlockingQueue<T, Q>) -> &EventCount {
        &q.not_empty
    }

    fn attempt(&mut self, q: &BlockingQueue<T, Q>, h: &mut BoxedHandle<Q>) -> Option<Self::Out> {
        let mut out = Vec::new();
        if q.try_recv_many(h, self.0, &mut out) > 0 {
            return Some(Ok(out));
        }
        q.is_closed().then(|| self.closed(q, h))
    }

    fn closed(&mut self, q: &BlockingQueue<T, Q>, h: &mut BoxedHandle<Q>) -> Self::Out {
        let mut out = Vec::new();
        if q.try_recv_many(h, self.0, &mut out) > 0 {
            Ok(out)
        } else {
            Err(RecvTimeoutError::Closed)
        }
    }

    fn timed_out(&mut self) -> Self::Out {
        Err(RecvTimeoutError::Timeout)
    }
}

/// Blocking bounded queue over any pointer-capable token queue.
///
/// ```
/// use bq_core::{BlockingQueue, OptimalQueue};
///
/// let q: BlockingQueue<String, OptimalQueue> =
///     BlockingQueue::new(OptimalQueue::with_capacity_and_threads(8, 2));
/// let mut h = q.register();
/// q.send(&mut h, "job".to_string()).unwrap();
/// assert_eq!(q.recv(&mut h), Some("job".to_string()));
/// q.close();
/// assert_eq!(q.recv(&mut h), None, "closed and drained");
/// ```
pub struct BlockingQueue<T: Send, Q: PointerCapable> {
    inner: BoxedQueue<T, Q>,
    not_full: EventCount,
    not_empty: EventCount,
    closed: SimAtomicBool,
    poisoned: SimAtomicBool,
}

impl<T: Send, Q: PointerCapable> BlockingQueue<T, Q> {
    /// Wrap an empty token queue.
    pub fn new(inner: Q) -> Self {
        BlockingQueue {
            inner: BoxedQueue::new(inner),
            not_full: EventCount::new(),
            not_empty: EventCount::new(),
            closed: SimAtomicBool::new(false),
            poisoned: SimAtomicBool::new(false),
        }
    }

    /// Obtain a per-thread handle.
    pub fn register(&self) -> BoxedHandle<Q> {
        self.inner.register()
    }

    /// The eventcount senders wait on ("not full"). Exposed so the async
    /// façade can register wakers against the same generations, and for
    /// instrumentation (waiter counts in tests).
    pub fn not_full_event(&self) -> &EventCount {
        &self.not_full
    }

    /// The eventcount receivers wait on ("not empty"); see
    /// [`not_full_event`](Self::not_full_event).
    pub fn not_empty_event(&self) -> &EventCount {
        &self.not_empty
    }

    /// Borrow the underlying token queue (footprint accounting and other
    /// read-only introspection — the façade's typed API is the only safe
    /// transfer path).
    pub fn inner_queue(&self) -> &Q {
        self.inner.inner()
    }

    /// Close the queue: wakes every parked sender and receiver. Senders
    /// fail from now on; receivers drain the remaining elements and then
    /// observe the closed state. Idempotent.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.not_full.wake_all();
        self.not_empty.wake_all();
    }

    /// Has [`close`](Self::close) been called?
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Did a panic unwind out of a queue operation mid-flight? A
    /// poisoned queue is permanently closed (fault containment: the
    /// inner data structure may hold a half-applied transition), but
    /// already-accepted elements still drain. The panic itself is
    /// re-thrown to the thread that hit it; *other* threads observe
    /// `Closed` errors plus this flag.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Run an inner-queue operation, converting a panic that unwinds out
    /// of it into a poisoned + closed queue before re-throwing. This is
    /// the facade-level catch: both the blocking and async surfaces
    /// funnel every data-path call through here.
    fn contain<R>(&self, f: impl FnOnce() -> R) -> R {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(payload) => {
                self.poisoned.store(true, Ordering::SeqCst);
                self.close();
                resume_unwind(payload);
            }
        }
    }

    /// Non-blocking enqueue (delegates to the lock-free path).
    pub fn try_send(&self, h: &mut BoxedHandle<Q>, value: T) -> Result<(), TrySendError<T>> {
        if self.is_closed() {
            return Err(TrySendError::Closed(value));
        }
        match self.contain(|| self.inner.enqueue(h, value)) {
            Ok(()) => {
                self.not_empty.wake_all();
                Ok(())
            }
            Err(v) => Err(TrySendError::Full(v)),
        }
    }

    /// Drive `op` to completion on the calling thread: the one place a
    /// blocking method waits. `R` is the caller's result type.
    fn wait<Op: WaitOp<T, Q>, R: FromOutcome<Op::Out>>(
        &self,
        h: &mut BoxedHandle<Q>,
        mut op: Op,
        limit: TimeLimit,
    ) -> R {
        R::from_outcome(match Op::event(self).wait(limit, || op.attempt(self, h)) {
            Some(out) => out,
            None => op.expired(self, h),
        })
    }

    /// Enqueue, waiting while the queue is full. Fails only when the
    /// queue is (or becomes) closed, returning the value.
    pub fn send(&self, h: &mut BoxedHandle<Q>, value: T) -> Result<(), SendError<T>> {
        self.wait(h, SendOp(Some(value)), TimeLimit::Forever)
    }

    /// [`send`](Self::send) under a [`TimeLimit`]: pass an `Instant`
    /// (absolute deadline) or a `Duration` (timeout, counted from the
    /// first park). When the limit passes with the queue still full the
    /// value comes back as [`SendTimeoutError::Timeout`]. The fast path
    /// never reads the clock — the limit only matters once a park
    /// actually happens (E16 measures this) — and a `close()` racing the
    /// limit is pinned: if the queue was closed first, the error is
    /// `Closed`, never `Timeout`.
    pub fn send_within(
        &self,
        h: &mut BoxedHandle<Q>,
        value: T,
        limit: impl Into<TimeLimit>,
    ) -> Result<(), SendTimeoutError<T>> {
        self.wait(h, SendOp(Some(value)), limit.into())
    }

    /// Non-blocking dequeue.
    pub fn try_recv(&self, h: &mut BoxedHandle<Q>) -> Result<T, TryRecvError> {
        match self.contain(|| self.inner.dequeue(h)) {
            Some(v) => {
                self.not_full.wake_all();
                Ok(v)
            }
            None => Err(if self.is_closed() {
                TryRecvError::Closed
            } else {
                TryRecvError::Empty
            }),
        }
    }

    /// Dequeue, waiting while the queue is empty. Returns `None` only
    /// once the queue is closed **and** observed empty after the closed
    /// flag (drain semantics: every accepted element is delivered first).
    pub fn recv(&self, h: &mut BoxedHandle<Q>) -> Option<T> {
        self.wait(h, RecvOp, TimeLimit::Forever)
    }

    /// [`recv`](Self::recv) under a [`TimeLimit`] (see
    /// [`send_within`](Self::send_within); the clock is read only if the
    /// queue stays empty long enough to park). `Closed` keeps drain
    /// semantics, and close-vs-timeout is pinned the same way as for
    /// sends: closed-and-drained before the limit reports
    /// [`RecvTimeoutError::Closed`], never `Timeout`.
    pub fn recv_within(
        &self,
        h: &mut BoxedHandle<Q>,
        limit: impl Into<TimeLimit>,
    ) -> Result<T, RecvTimeoutError> {
        self.wait(h, RecvOp, limit.into())
    }

    /// Non-blocking batch enqueue — one attempt of [`send_all`](Self::send_all):
    /// accepts a prefix (through the inner queue's batch path) and
    /// returns the rejected suffix — everything, untouched, when the
    /// queue is closed (check [`is_closed`](Self::is_closed) to tell the
    /// cases apart).
    pub fn try_send_many(&self, h: &mut BoxedHandle<Q>, items: Vec<T>) -> Vec<T> {
        let mut op = SendAllOp::new(self, items);
        match op.attempt(self, h) {
            Some(Err(closed)) => closed.into_inner(),
            _ => op.take_unsent(Some(self)),
        }
    }

    /// Batch enqueue, waiting until **every** item is accepted. On close,
    /// returns the unsent suffix (already-accepted items stay in the
    /// queue for receivers to drain).
    pub fn send_all(&self, h: &mut BoxedHandle<Q>, items: Vec<T>) -> Result<(), SendError<Vec<T>>> {
        self.wait(h, SendAllOp::new(self, items), TimeLimit::Forever)
    }

    /// [`send_all`](Self::send_all) under a [`TimeLimit`]: when it passes,
    /// the unsent suffix comes back as `Timeout(suffix)`; the accepted
    /// prefix stays in the queue (conservation, as with close).
    pub fn send_all_within(
        &self,
        h: &mut BoxedHandle<Q>,
        items: Vec<T>,
        limit: impl Into<TimeLimit>,
    ) -> Result<(), SendTimeoutError<Vec<T>>> {
        self.wait(h, SendAllOp::new(self, items), limit.into())
    }

    /// Non-blocking batch dequeue into `out`; returns the count taken.
    pub fn try_recv_many(&self, h: &mut BoxedHandle<Q>, max: usize, out: &mut Vec<T>) -> usize {
        let n = self.contain(|| self.inner.dequeue_many(h, max, out));
        if n > 0 {
            self.not_full.wake_all();
        }
        n
    }

    /// Batch dequeue, waiting until at least one element arrives; returns
    /// 1..=`max` values. An **empty vector** means the queue is closed
    /// and fully drained (for `max > 0` that is the only way it can be
    /// empty).
    pub fn recv_many(&self, h: &mut BoxedHandle<Q>, max: usize) -> Vec<T> {
        self.wait(h, RecvManyOp::new(max), TimeLimit::Forever)
    }

    /// [`recv_many`](Self::recv_many) under a [`TimeLimit`]: `Ok` is
    /// always non-empty; `Timeout` means the limit passed with nothing
    /// to take, `Closed` means closed and fully drained.
    pub fn recv_many_within(
        &self,
        h: &mut BoxedHandle<Q>,
        max: usize,
        limit: impl Into<TimeLimit>,
    ) -> Result<Vec<T>, RecvTimeoutError> {
        self.wait(h, RecvManyOp::new(max), limit.into())
    }

    /// Capacity of the underlying queue.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Approximate length.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Approximate emptiness.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Observability snapshot (DESIGN.md §14): the inner queue's own
    /// counters, then the two eventcounts' waiter statistics under
    /// `not_full.` / `not_empty.` prefixes. The async façade shares the
    /// same eventcounts, so task parks show up here too. Empty with
    /// `obs` off.
    /// Data-path counts from operations on a still-live handle appear
    /// only after that handle drops, a
    /// [`flush_metrics`](BlockingQueue::flush_metrics) call, or the
    /// periodic fold (`LOCAL_FLUSH_PERIOD` operations).
    pub fn metrics(&self) -> crate::obs::MetricsSnapshot {
        let mut snap = self.inner.inner().metrics();
        self.not_full.snapshot_into("not_full.", &mut snap);
        self.not_empty.snapshot_into("not_empty.", &mut snap);
        snap
    }

    /// Fold `h`'s handle-local data-path counters into the shared block
    /// so the next [`metrics`](BlockingQueue::metrics) read is exact for
    /// this handle's operations (DESIGN.md §14.1).
    pub fn flush_metrics(&self, h: &mut BoxedHandle<Q>) {
        self.inner.flush_metrics(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::OptimalQueue;
    use crate::sharded::ShardedQueue;
    use std::sync::Arc;
    use std::time::Duration;

    fn make(c: usize, t: usize) -> BlockingQueue<u64, OptimalQueue> {
        BlockingQueue::new(OptimalQueue::with_capacity_and_threads(c, t))
    }

    #[test]
    fn try_paths_mirror_inner_queue() {
        let q = make(2, 1);
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        q.try_send(&mut h, 2).unwrap();
        assert_eq!(q.try_send(&mut h, 3), Err(TrySendError::Full(3)));
        assert_eq!(q.try_recv(&mut h), Ok(1));
        assert_eq!(q.try_recv(&mut h), Ok(2));
        assert_eq!(q.try_recv(&mut h), Err(TryRecvError::Empty));
    }

    #[test]
    fn send_blocks_until_space() {
        let q = Arc::new(make(1, 2));
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h2 = q2.register();
            // Blocks until the main thread drains.
            q2.send(&mut h2, 2).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.try_recv(&mut h), Ok(1));
        sender.join().unwrap();
        assert_eq!(q.recv(&mut h), Some(2));
    }

    #[test]
    fn recv_blocks_until_element() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            q2.recv(&mut h)
        });
        std::thread::sleep(Duration::from_millis(20));
        let mut h = q.register();
        q.send(&mut h, 77).unwrap();
        assert_eq!(receiver.join().unwrap(), Some(77));
    }

    #[test]
    fn blocking_transfer_full_stream() {
        let q = Arc::new(make(4, 2));
        let n = 5_000u64;
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let mut h = q2.register();
            for v in 1..=n {
                q2.send(&mut h, v).unwrap();
            }
        });
        let mut h = q.register();
        for expect in 1..=n {
            assert_eq!(q.recv(&mut h), Some(expect), "single-producer order");
        }
        producer.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn batch_send_all_blocks_until_everything_fits() {
        let q = Arc::new(make(2, 2));
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h = q2.register();
            // 5 items through a 2-slot queue: must park at least once.
            q2.send_all(&mut h, (1..=5).collect()).unwrap();
        });
        let mut h = q.register();
        let mut got = Vec::new();
        while got.len() < 5 {
            got.extend(q.recv_many(&mut h, 3));
        }
        sender.join().unwrap();
        assert_eq!(got, vec![1, 2, 3, 4, 5], "SPSC batch order preserved");
        assert!(q.is_empty());
    }

    #[test]
    fn blocking_over_sharded_queue_composes() {
        // The Θ(1) parking layer stacks on the scale layer: a blocking
        // sharded queue with batch transfer.
        let q: Arc<BlockingQueue<u64, ShardedQueue<OptimalQueue>>> = Arc::new(BlockingQueue::new(
            ShardedQueue::<OptimalQueue>::optimal(8, 4, 2),
        ));
        let n = 2_000u64;
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let mut h = q2.register();
            let mut next = 1u64;
            while next <= n {
                let batch: Vec<u64> = (next..=(next + 7).min(n)).collect();
                next += batch.len() as u64;
                q2.send_all(&mut h, batch).unwrap();
            }
        });
        let mut h = q.register();
        let mut seen = std::collections::HashSet::new();
        while seen.len() < n as usize {
            for v in q.recv_many(&mut h, 8) {
                assert!(seen.insert(v), "duplicate {v}");
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty(), "exact conservation through both layers");
    }

    #[test]
    fn many_parked_senders_all_wake() {
        let q = Arc::new(make(1, 4));
        let mut h = q.register();
        q.try_send(&mut h, 99).unwrap();
        let mut senders = Vec::new();
        for v in 1..=3u64 {
            let q = Arc::clone(&q);
            senders.push(std::thread::spawn(move || {
                let mut h = q.register();
                q.send(&mut h, v).unwrap();
            }));
        }
        // All three park on the full queue; drain one slot at a time.
        let mut got = vec![q.recv(&mut h).unwrap()];
        for _ in 0..3 {
            got.push(q.recv(&mut h).unwrap());
        }
        for s in senders {
            s.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 99]);
        assert!(q.is_empty());
    }

    #[test]
    fn close_fails_senders_and_drains_receivers() {
        let q = make(4, 1);
        let mut h = q.register();
        q.send(&mut h, 1).unwrap();
        q.send(&mut h, 2).unwrap();
        q.close();
        assert!(q.is_closed());
        // Senders see errors, values come back.
        assert_eq!(q.send(&mut h, 3), Err(SendError(3)));
        assert_eq!(q.try_send(&mut h, 4), Err(TrySendError::Closed(4)));
        assert_eq!(q.try_send_many(&mut h, vec![5, 6]), vec![5, 6]);
        assert_eq!(q.send_all(&mut h, vec![7, 8]), Err(SendError(vec![7, 8])));
        // Receivers drain, then observe closed.
        assert_eq!(q.recv(&mut h), Some(1));
        assert_eq!(q.recv_many(&mut h, 4), vec![2]);
        assert_eq!(q.recv(&mut h), None);
        assert_eq!(q.recv_many(&mut h, 4), Vec::<u64>::new());
        assert_eq!(q.try_recv(&mut h), Err(TryRecvError::Closed));
    }

    #[test]
    fn close_wakes_parked_receiver() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            q2.recv(&mut h)
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(
            receiver.join().unwrap(),
            None,
            "woken by close, not a value"
        );
    }

    #[test]
    fn close_wakes_parked_sender_with_value_back() {
        let q = Arc::new(make(1, 2));
        let mut h = q.register();
        q.send(&mut h, 1).unwrap();
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h = q2.register();
            q2.send(&mut h, 2)
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(sender.join().unwrap(), Err(SendError(2)));
        // The accepted element survives for draining.
        assert_eq!(q.recv(&mut h), Some(1));
        assert_eq!(q.recv(&mut h), None);
    }

    #[test]
    fn close_mid_send_all_returns_unsent_suffix() {
        let q = Arc::new(make(2, 2));
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h = q2.register();
            // 5 items through 2 slots: parks after the first 2.
            q2.send_all(&mut h, (1..=5).collect())
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let unsent = sender.join().unwrap().unwrap_err().0;
        let mut h = q.register();
        let mut drained = Vec::new();
        while let Some(v) = q.recv(&mut h) {
            drained.push(v);
        }
        // Conservation: accepted prefix + returned suffix = everything.
        drained.extend(unsent.iter().copied());
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn timed_send_on_full_queue_times_out_with_value_back() {
        let q = make(1, 1);
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        let start = std::time::Instant::now();
        let err = q
            .send_within(&mut h, 2, Duration::from_millis(30))
            .unwrap_err();
        assert_eq!(err, SendTimeoutError::Timeout(2), "value handed back");
        assert!(err.is_timeout());
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(30),
            "returned {waited:?} before the timeout"
        );
        // Bounded latency: deadline + one generous scheduling quantum.
        assert!(
            waited < Duration::from_secs(5),
            "woke far too late: {waited:?}"
        );
        assert_eq!(q.not_full_event().waiter_count(), 0, "no leaked waiter");
    }

    #[test]
    fn timed_recv_on_empty_queue_times_out() {
        let q = make(4, 1);
        let mut h = q.register();
        let start = std::time::Instant::now();
        assert_eq!(
            q.recv_within(&mut h, Duration::from_millis(30)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(
            q.recv_within(&mut h, std::time::Instant::now()),
            Err(RecvTimeoutError::Timeout),
            "already-expired deadline returns immediately"
        );
        assert_eq!(q.not_empty_event().waiter_count(), 0);
    }

    #[test]
    fn timed_ops_succeed_without_reaching_the_deadline() {
        let q = Arc::new(make(1, 2));
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h2 = q2.register();
            q2.send_within(
                &mut h2,
                2,
                std::time::Instant::now() + Duration::from_secs(30),
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.recv_within(&mut h, Duration::from_secs(30)), Ok(1));
        sender.join().unwrap().unwrap();
        assert_eq!(q.recv(&mut h), Some(2));
    }

    #[test]
    fn closed_queue_reports_closed_not_timeout() {
        // The close-vs-timeout pin, deterministic half: the queue is
        // closed (and drained) strictly before the timed call, so even a
        // zero/past deadline must blame the close, not the clock.
        let q = make(2, 1);
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        q.close();
        let past = std::time::Instant::now() - Duration::from_millis(1);
        assert_eq!(
            q.send_within(&mut h, 9, past),
            Err(SendTimeoutError::Closed(9)),
            "closed beats timeout for senders"
        );
        // Drain semantics survive the timed path: the accepted element
        // is delivered before Closed is reported.
        assert_eq!(q.recv_within(&mut h, past), Ok(1));
        assert_eq!(
            q.recv_within(&mut h, past),
            Err(RecvTimeoutError::Closed),
            "closed-and-drained beats timeout for receivers"
        );
        assert_eq!(
            q.recv_many_within(&mut h, 4, Duration::ZERO),
            Err(RecvTimeoutError::Closed)
        );
        assert_eq!(
            q.send_all_within(&mut h, vec![7, 8], Duration::ZERO),
            Err(SendTimeoutError::Closed(vec![7, 8]))
        );
    }

    #[test]
    fn close_racing_a_parked_timed_receiver_reports_closed() {
        // The racing half: a receiver parked under a long deadline is
        // woken by close() and must report Closed promptly — not sleep
        // out its deadline, and never report Timeout.
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            q2.recv_within(&mut h, std::time::Instant::now() + Duration::from_secs(60))
        });
        while q.not_empty_event().waiter_count() == 0 {
            std::thread::yield_now();
        }
        let start = std::time::Instant::now();
        q.close();
        assert_eq!(receiver.join().unwrap(), Err(RecvTimeoutError::Closed));
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "woken by close, not the deadline"
        );
    }

    #[test]
    fn close_landing_in_the_spin_reports_closed() {
        // close() the moment the receiver announces: with a core each,
        // that is inside its spin. Whichever step of the round the wake
        // lands on, the wait ends Closed — never Timeout, never a hang.
        const ROUNDS: u64 = 200;
        let mut spin_wakes = 0;
        for _ in 0..ROUNDS {
            let q = make(4, 1);
            std::thread::scope(|s| {
                let receiver =
                    s.spawn(|| q.recv_within(&mut q.register(), Duration::from_secs(60)));
                while q.not_empty_event().waiter_count() == 0 {
                    std::hint::spin_loop();
                }
                q.close();
                assert_eq!(receiver.join().unwrap(), Err(RecvTimeoutError::Closed));
            });
            assert_eq!(q.not_empty_event().waiter_count(), 0);
            spin_wakes += q.metrics().get("not_empty.spin_wakes").unwrap_or(0);
        }
        if cfg!(feature = "obs") && std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
        {
            assert!(spin_wakes > 0, "no close in {ROUNDS} landed in the spin");
        }
    }

    #[test]
    fn timed_batch_send_returns_unsent_suffix_on_timeout() {
        let q = make(2, 1);
        let mut h = q.register();
        let err = q
            .send_all_within(&mut h, vec![1, 2, 3, 4, 5], Duration::from_millis(30))
            .unwrap_err();
        assert_eq!(
            err,
            SendTimeoutError::Timeout(vec![3, 4, 5]),
            "accepted prefix stays queued, suffix comes back"
        );
        // Conservation: prefix + suffix = everything.
        assert_eq!(
            q.recv_many_within(&mut h, 8, Duration::ZERO),
            Ok(vec![1, 2])
        );
    }

    #[test]
    fn timed_batch_recv_takes_what_arrives() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let mut h = q2.register();
            q2.send(&mut h, 42).unwrap();
        });
        let mut h = q.register();
        assert_eq!(
            q.recv_many_within(
                &mut h,
                4,
                std::time::Instant::now() + Duration::from_secs(30)
            ),
            Ok(vec![42])
        );
        producer.join().unwrap();
        assert_eq!(
            q.recv_many_within(&mut h, 4, Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    /// A pointer-capable queue with an injectable panic, for exercising
    /// the poisoning path. Sequential ring under a mutex — correctness,
    /// not scalability, is the point here.
    struct PanicSwitchQueue {
        inner: std::sync::Mutex<crate::queue::SeqRingQueue>,
        panic_next: std::sync::atomic::AtomicBool,
    }

    impl PanicSwitchQueue {
        fn new(c: usize) -> Self {
            PanicSwitchQueue {
                inner: std::sync::Mutex::new(crate::queue::SeqRingQueue::with_capacity(c)),
                panic_next: std::sync::atomic::AtomicBool::new(false),
            }
        }
    }

    impl crate::queue::ConcurrentQueue for PanicSwitchQueue {
        type Handle = ();
        fn register(&self) {}
        fn enqueue(&self, _h: &mut (), v: u64) -> Result<(), crate::queue::Full> {
            if self.panic_next.swap(false, Ordering::SeqCst) {
                panic!("injected fault: enqueue died mid-operation");
            }
            self.inner.lock().unwrap().enqueue(v)
        }
        fn dequeue(&self, _h: &mut ()) -> Option<u64> {
            if self.panic_next.swap(false, Ordering::SeqCst) {
                panic!("injected fault: dequeue died mid-operation");
            }
            self.inner.lock().unwrap().dequeue()
        }
        fn capacity(&self) -> usize {
            self.inner.lock().unwrap().capacity()
        }
        fn max_token(&self) -> u64 {
            (1 << 62) - 1
        }
        fn len(&self) -> usize {
            self.inner.lock().unwrap().len()
        }
    }

    impl crate::boxed::PointerCapable for PanicSwitchQueue {
        fn drop_handle(&self) {}
    }

    #[test]
    fn panic_mid_operation_poisons_and_closes_the_queue() {
        let q: BlockingQueue<u64, PanicSwitchQueue> = BlockingQueue::new(PanicSwitchQueue::new(4));
        let mut h = q.register();
        q.send(&mut h, 1).unwrap();
        assert!(!q.is_poisoned());
        q.inner_queue().panic_next.store(true, Ordering::SeqCst);
        // The panic propagates to the faulting caller...
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = q.try_send(&mut h, 2);
        }));
        assert!(unwound.is_err(), "the injected panic is re-thrown");
        // ...and every other caller sees a poisoned, closed queue with
        // typed errors instead of a hang or a secondary panic.
        assert!(q.is_poisoned());
        assert!(q.is_closed());
        assert_eq!(q.try_send(&mut h, 3), Err(TrySendError::Closed(3)));
        assert_eq!(q.send(&mut h, 4), Err(SendError(4)));
        assert_eq!(
            q.send_within(&mut h, 5, Duration::ZERO),
            Err(SendTimeoutError::Closed(5))
        );
        // Accepted elements still drain (the fault hit before any state
        // transition of the inner ring).
        assert_eq!(q.recv(&mut h), Some(1));
        assert_eq!(q.recv(&mut h), None);
    }

    /// Every way a `send_all` can end, over a capacity-2 queue and five
    /// drop-counting values (so the batch parks after two): each value is
    /// dropped exactly once across {received, returned suffix, cancelled
    /// suffix}, and never twice. The one exception is pinned too: a panic
    /// unwinding out of the *inner queue* leaves the in-flight run's
    /// ownership unknowable (a prefix of it may already be queued), so
    /// that run alone is leaked rather than risk a double free.
    #[test]
    fn send_all_drops_every_value_exactly_once() {
        use std::future::Future;
        use std::sync::atomic::AtomicUsize;
        use std::task::{Context, Waker};

        struct Counted(usize, Arc<[AtomicUsize; 5]>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1[self.0].fetch_add(1, Ordering::SeqCst);
            }
        }
        fn parked(ec: &EventCount) {
            while ec.waiter_count() == 0 {
                std::thread::yield_now();
            }
        }
        fn optimal(t: usize) -> OptimalQueue {
            OptimalQueue::with_capacity_and_threads(2, t)
        }

        // A case ends the wait its own way and drains the accepted
        // prefix; when it returns, queue, results and futures are gone.
        type Case = fn(Vec<Counted>);
        let cases: [(&str, Case, [usize; 5]); 4] = [
            (
                "blocking close() mid-batch",
                |items| {
                    let q: BlockingQueue<Counted, _> = BlockingQueue::new(optimal(2));
                    std::thread::scope(|s| {
                        let sender = s.spawn(|| q.send_all(&mut q.register(), items));
                        parked(q.not_full_event());
                        q.close();
                        let unsent = sender.join().unwrap().unwrap_err().0;
                        assert_eq!(unsent.len(), 3, "suffix handed back");
                    });
                    assert_eq!(q.recv_many(&mut q.register(), 8).len(), 2);
                },
                [1; 5],
            ),
            (
                "send_all_within timing out",
                |items| {
                    let q: BlockingQueue<Counted, _> = BlockingQueue::new(optimal(1));
                    let mut h = q.register();
                    match q.send_all_within(&mut h, items, Duration::from_millis(20)) {
                        Err(SendTimeoutError::Timeout(unsent)) => assert_eq!(unsent.len(), 3),
                        _ => panic!("a full open queue times the batch out"),
                    }
                    assert_eq!(q.recv_many(&mut h, 8).len(), 2);
                },
                [1; 5],
            ),
            (
                "async send_all polled to Pending, then dropped",
                |items| {
                    let drops = Arc::clone(&items[0].1);
                    let q: crate::AsyncQueue<Counted, _> = crate::AsyncQueue::new(optimal(1));
                    let mut h = q.register();
                    let mut fut = q.send_all(&mut h, items);
                    let mut cx = Context::from_waker(Waker::noop());
                    assert!(std::pin::Pin::new(&mut fut).poll(&mut cx).is_pending());
                    drop(fut);
                    let suffix: Vec<usize> = drops[2..]
                        .iter()
                        .map(|d| d.load(Ordering::SeqCst))
                        .collect();
                    assert_eq!(suffix, [1, 1, 1], "cancelling drops the unsent suffix");
                    assert_eq!(q.not_full_event().registered_wakers(), 0);
                    assert_eq!(q.blocking().recv_many(&mut h, 8).len(), 2);
                },
                [1; 5],
            ),
            (
                "injected enqueue panic on the parked retry",
                |items| {
                    let q: BlockingQueue<Counted, _> = BlockingQueue::new(PanicSwitchQueue::new(2));
                    std::thread::scope(|s| {
                        let sender = s.spawn(|| q.send_all(&mut q.register(), items));
                        parked(q.not_full_event());
                        q.inner_queue().panic_next.store(true, Ordering::SeqCst);
                        q.not_full_event().wake_all(); // content-free wake: retry
                        assert!(sender.join().is_err(), "the panic is re-thrown");
                    });
                    let ec = q.not_full_event();
                    assert_eq!(ec.waiter_count(), 0, "the unwind un-announced");
                    assert_eq!(ec.sleeper_count(), 0);
                    assert!(q.is_poisoned());
                    assert_eq!(q.recv_many(&mut q.register(), 8).len(), 2, "prefix drains");
                },
                [1, 1, 0, 0, 0],
            ),
        ];
        for (name, run, expected) in cases {
            let drops = Arc::new(std::array::from_fn(|_| AtomicUsize::new(0)));
            run((0..5).map(|id| Counted(id, Arc::clone(&drops))).collect());
            let seen: Vec<usize> = drops.iter().map(|d| d.load(Ordering::SeqCst)).collect();
            assert_eq!(seen, expected, "{name}");
        }
    }

    /// A `send_all` of 40 values — runs of 16, 16 and 8 — closed after the
    /// receiver has crossed the first run's end: runs are split between
    /// received values, values still queued and the returned suffix, and
    /// each of the 40 is dropped exactly once.
    #[test]
    fn close_during_send_all_splits_runs_and_drops_each_value_once() {
        use std::sync::atomic::AtomicUsize;
        struct Counted(usize, Arc<Vec<AtomicUsize>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1[self.0].fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops: Arc<Vec<AtomicUsize>> = Arc::new((0..40).map(|_| AtomicUsize::new(0)).collect());
        let items: Vec<Counted> = (0..40).map(|i| Counted(i, Arc::clone(&drops))).collect();
        let q: BlockingQueue<Counted, _> =
            BlockingQueue::new(OptimalQueue::with_capacity_and_threads(4, 2));
        let (got, unsent) = std::thread::scope(|s| {
            let sender = s.spawn(|| q.send_all(&mut q.register(), items));
            let mut h = q.register();
            let mut got = Vec::new();
            while got.len() < 20 {
                got.extend(q.recv_many(&mut h, 3));
            }
            q.close();
            let unsent = sender.join().unwrap().unwrap_err().0;
            loop {
                let more = q.recv_many(&mut h, 8);
                if more.is_empty() {
                    break (got, unsent);
                }
                got.extend(more);
            }
        });
        assert_eq!(got.len() + unsent.len(), 40);
        let ids: Vec<usize> = got.iter().chain(&unsent).map(|c| c.0).collect();
        assert_eq!(ids, (0..40).collect::<Vec<_>>(), "one producer: FIFO");
        drop((got, unsent, q));
        assert!(drops.iter().all(|d| d.load(Ordering::SeqCst) == 1));
    }

    /// DESIGN.md §14: the façade snapshot stitches the data path's
    /// counters to the waiting stack's, with nothing fabricated when
    /// `obs` is off.
    #[test]
    fn facade_metrics_cover_data_path_and_waiting_stack() {
        let q = make(2, 1);
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        q.try_send(&mut h, 2).unwrap();
        assert_eq!(q.try_send(&mut h, 3), Err(TrySendError::Full(3)));
        assert_eq!(
            q.recv_within(&mut h, Duration::from_millis(5)).ok(),
            Some(1)
        );
        assert_eq!(
            q.recv_many_within(&mut h, 4, Duration::from_millis(5)),
            Ok(vec![2])
        );
        assert_eq!(
            q.recv_within(&mut h, Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        // The handle is still live: fold its data-path deltas in first
        // (the §14.1 visibility contract this test also documents).
        q.flush_metrics(&mut h);
        let snap = q.metrics();
        if cfg!(feature = "obs") {
            assert_eq!(snap.get("enq_success"), Some(2));
            assert_eq!(snap.get("enq_full"), Some(1));
            assert!(
                snap.get("not_empty.timeout_expiries").unwrap() >= 1,
                "the timed-out recv parked on not_empty: {snap}"
            );
            assert_eq!(snap.get("not_full.timeout_expiries"), Some(0));
        } else {
            assert!(snap.is_empty(), "obs off: no fabricated zeros");
        }
    }

    #[test]
    fn waiter_accounting_rises_and_returns_to_zero() {
        // The façade's waiting state is exactly the two eventcounts (the
        // waiter subsystem the async façade also reads): a parked
        // receiver must become visible through the shared
        // instrumentation and disappear from it after the hand-off.
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            q2.recv(&mut h)
        });
        // The receiver announces itself before parking; wait for that.
        while q.not_empty_event().waiter_count() == 0 {
            std::thread::yield_now();
        }
        let mut h = q.register();
        q.send(&mut h, 9).unwrap();
        assert_eq!(receiver.join().unwrap(), Some(9));
        assert_eq!(q.not_empty_event().waiter_count(), 0, "waiter released");
        assert_eq!(q.not_empty_event().registered_wakers(), 0);
        assert_eq!(q.not_full_event().waiter_count(), 0);
    }
}
