//! A typed adapter: store arbitrary `T` through a token queue by boxing.
//!
//! The paper's model stores opaque *values* in value-locations; in a systems
//! language the natural value is a pointer. [`BoxedQueue`] heap-allocates
//! each element and passes the pointer (a non-zero, 48-bit-on-x86-64 word,
//! hence a valid 63-bit token) through an underlying token queue.
//!
//! Only **value-independent** queues may carry pointers: the allocator can
//! hand the same address out twice (free → malloc), so the underlying queue
//! must tolerate repeated values. [`PointerCapable`] marks the queues for
//! which that holds: [`SegmentQueue`](crate::SegmentQueue) (unique absolute
//! positions), [`DcssQueue`](crate::DcssQueue) (counter-guarded updates) and
//! [`OptimalQueue`](crate::OptimalQueue) (announcement protocol). Notably it
//! excludes [`DistinctQueue`](crate::DistinctQueue): recycled addresses
//! violate its distinct-elements assumption — exactly the trap the paper
//! warns practitioners about.

use std::marker::PhantomData;

use crate::dcss_queue::DcssQueue;
use crate::optimal::OptimalQueue;
use crate::queue::ConcurrentQueue;
use crate::segment::SegmentQueue;
use bq_memtrack::{FootprintBreakdown, MemoryFootprint, OverheadClass};

/// Marker for token queues that tolerate repeated token values and can hold
/// pointer-width (≤ 2⁶²) tokens. See module docs.
pub trait PointerCapable: ConcurrentQueue {
    /// Handle creation that bypasses thread-bound accounting, used only
    /// while holding exclusive access (`Drop`).
    #[doc(hidden)]
    fn drop_handle(&self) -> Self::Handle;
}

impl PointerCapable for SegmentQueue {
    fn drop_handle(&self) -> Self::Handle {
        crate::segment::SegmentHandle
    }
}

impl PointerCapable for DcssQueue {
    fn drop_handle(&self) -> Self::Handle {
        // Reusing tid 0 is safe: Drop has exclusive access, so no live
        // thread shares the descriptor pair.
        crate::dcss_queue::DcssHandle::exclusive()
    }
}

impl PointerCapable for OptimalQueue {
    fn drop_handle(&self) -> Self::Handle {
        crate::optimal::OptimalHandle::exclusive()
    }
}

/// A bounded queue of owned `T` values over a pointer-capable token queue.
pub struct BoxedQueue<T, Q: PointerCapable> {
    inner: Q,
    _marker: PhantomData<fn(T) -> T>,
}

/// Per-thread handle wrapping the inner queue's handle.
pub struct BoxedHandle<Q: PointerCapable> {
    inner: Q::Handle,
}

impl<T: Send, Q: PointerCapable> BoxedQueue<T, Q> {
    /// Wrap an (empty) token queue.
    ///
    /// # Panics
    /// If the inner queue is not empty — tokens already inside would not be
    /// valid `Box<T>` pointers.
    pub fn new(inner: Q) -> Self {
        assert!(inner.is_empty(), "inner queue must start empty");
        BoxedQueue {
            inner,
            _marker: PhantomData,
        }
    }

    /// Obtain a per-thread handle.
    pub fn register(&self) -> BoxedHandle<Q> {
        BoxedHandle {
            inner: self.inner.register(),
        }
    }

    /// Borrow the underlying token queue (footprint accounting,
    /// shard-count introspection — anything that does not move tokens;
    /// the element-typed API above is the only safe transfer path).
    pub fn inner(&self) -> &Q {
        &self.inner
    }

    /// Fold this handle's observability deltas into the inner queue's
    /// shared counter block, making them visible to `metrics()` reads
    /// while the handle stays live (DESIGN.md §14.1).
    pub fn flush_metrics(&self, h: &mut BoxedHandle<Q>) {
        self.inner.flush_metrics(&mut h.inner);
    }

    /// Enqueue an owned value; returns it back when the queue is full.
    pub fn enqueue(&self, h: &mut BoxedHandle<Q>, value: T) -> Result<(), T> {
        let ptr = Box::into_raw(Box::new(value));
        let token = ptr as u64;
        debug_assert!(token != 0 && token <= self.inner.max_token());
        match self.inner.enqueue(&mut h.inner, token) {
            Ok(()) => Ok(()),
            Err(_) => {
                // SAFETY: the token was rejected, so we still own the box.
                Err(*unsafe { Box::from_raw(ptr) })
            }
        }
    }

    /// Dequeue the oldest value.
    pub fn dequeue(&self, h: &mut BoxedHandle<Q>) -> Option<T> {
        let token = self.inner.dequeue(&mut h.inner)?;
        // SAFETY: every token in the queue came from Box::into_raw above and
        // is dequeued exactly once (the inner queue conserves tokens).
        Some(*unsafe { Box::from_raw(token as *mut T) })
    }

    /// Batch enqueue passthrough: boxes every item, hands the token run to
    /// the inner queue's (possibly native) `enqueue_many`, and returns the
    /// rejected suffix unboxed. An empty return vector means everything
    /// was accepted.
    pub fn enqueue_many(&self, h: &mut BoxedHandle<Q>, items: Vec<T>) -> Vec<T> {
        let tokens: Vec<u64> = items
            .into_iter()
            .map(|item| Box::into_raw(Box::new(item)) as u64)
            .collect();
        let n = self.inner.enqueue_many(&mut h.inner, &tokens);
        tokens[n..]
            .iter()
            // SAFETY: tokens beyond the accepted prefix were rejected, so
            // we still own their boxes.
            .map(|&t| *unsafe { Box::from_raw(t as *mut T) })
            .collect()
    }

    /// Box a value into its token form. Internal: pairs with
    /// [`enqueue_tokens`](Self::enqueue_tokens) so the blocking façade can
    /// retry a parked batch without re-boxing it on every wake.
    pub(crate) fn box_token(value: T) -> u64 {
        Box::into_raw(Box::new(value)) as u64
    }

    /// Enqueue already-boxed tokens (prefix accepted); returns the count.
    /// The caller retains ownership of — and responsibility for — the
    /// rejected suffix.
    pub(crate) fn enqueue_tokens(&self, h: &mut BoxedHandle<Q>, tokens: &[u64]) -> usize {
        self.inner.enqueue_many(&mut h.inner, tokens)
    }

    /// Reclaim a value from a token produced by [`box_token`](Self::box_token)
    /// that was **not** accepted by the queue. Pairs with `box_token` so
    /// the blocking façade's `send_all` can hand the unsent suffix back on
    /// close.
    pub(crate) fn unbox_token(token: u64) -> T {
        // SAFETY: only called on tokens from `box_token` that the inner
        // queue rejected or that were never offered, so ownership of the
        // box never left the caller.
        *unsafe { Box::from_raw(token as *mut T) }
    }

    /// Batch dequeue passthrough: drains up to `max` values through the
    /// inner queue's `dequeue_many`, appending to `out`; returns the count.
    pub fn dequeue_many(&self, h: &mut BoxedHandle<Q>, max: usize, out: &mut Vec<T>) -> usize {
        // Grows on demand rather than pre-sizing: a miss (empty queue)
        // then allocates nothing, which matters in parked retry loops.
        let mut tokens = Vec::new();
        let n = self.inner.dequeue_many(&mut h.inner, max, &mut tokens);
        out.extend(
            tokens
                .into_iter()
                // SAFETY: as in `dequeue` — each token is surrendered by
                // the inner queue exactly once.
                .map(|t| *unsafe { Box::from_raw(t as *mut T) }),
        );
        n
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
}

impl<T, Q: PointerCapable + MemoryFootprint> MemoryFootprint for BoxedQueue<T, Q> {
    fn footprint(&self) -> FootprintBreakdown {
        let mut b = self.inner.footprint();
        // The boxed payloads are element storage held outside the slots;
        // the slots themselves carry the pointers.
        b.element_bytes += self.inner.len() * std::mem::size_of::<T>();
        b.overhead.push(bq_memtrack::FootprintEntry::new(
            "per-element Box allocation headers (allocator-dependent)",
            0,
            OverheadClass::Other,
        ));
        b
    }
}

impl<T, Q: PointerCapable> Drop for BoxedQueue<T, Q> {
    fn drop(&mut self) {
        // Drain remaining boxes so elements are not leaked.
        let mut h = self.inner.drop_handle();
        while let Some(token) = self.inner.dequeue(&mut h) {
            // SAFETY: as in `dequeue`.
            drop(unsafe { Box::from_raw(token as *mut T) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn boxed_roundtrip_strings() {
        let q: BoxedQueue<String, SegmentQueue> =
            BoxedQueue::new(SegmentQueue::with_capacity_and_segment_size(4, 2));
        let mut h = q.register();
        q.enqueue(&mut h, "hello".to_string()).unwrap();
        q.enqueue(&mut h, "world".to_string()).unwrap();
        assert_eq!(q.dequeue(&mut h).as_deref(), Some("hello"));
        assert_eq!(q.dequeue(&mut h).as_deref(), Some("world"));
        assert_eq!(q.dequeue(&mut h), None);
    }

    #[test]
    fn full_returns_value_unboxed() {
        let q: BoxedQueue<Vec<u8>, OptimalQueue> =
            BoxedQueue::new(OptimalQueue::with_capacity_and_threads(1, 2));
        let mut h = q.register();
        q.enqueue(&mut h, vec![1]).unwrap();
        let back = q.enqueue(&mut h, vec![2, 3]).unwrap_err();
        assert_eq!(back, vec![2, 3]);
        assert_eq!(q.dequeue(&mut h), Some(vec![1]));
    }

    /// Payload whose `Drop` runs are counted.
    struct Counter(Arc<std::sync::atomic::AtomicUsize>);
    impl Drop for Counter {
        fn drop(&mut self) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn drop_drains_without_leak() {
        // Run under the conservation logic: dropping a non-empty queue must
        // free the boxes (verified by Miri-style logic: Drop impl of the
        // payload runs).
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        {
            let q: BoxedQueue<Counter, DcssQueue> =
                BoxedQueue::new(DcssQueue::with_capacity_and_threads(8, 2));
            let mut h = q.register();
            for _ in 0..5 {
                assert!(q.enqueue(&mut h, Counter(Arc::clone(&drops))).is_ok());
            }
            assert!(q.dequeue(&mut h).is_some());
            // 4 left inside.
        }
        assert_eq!(drops.load(std::sync::atomic::Ordering::SeqCst), 5);
    }

    /// An `OptimalQueue` nobody ever registered on, dropped with elements
    /// inside: its registered count reads 0, and the drain's announcement
    /// scan must still cover slot 0 (and divide by nothing).
    #[test]
    fn drop_drains_an_optimal_queue_with_zero_registrations() {
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        {
            let q: BoxedQueue<Counter, OptimalQueue> =
                BoxedQueue::new(OptimalQueue::with_capacity_and_threads(4, 2));
            // The drop handle itself puts them in: no `register()` at all.
            let mut h = BoxedHandle {
                inner: q.inner.drop_handle(),
            };
            for _ in 0..3 {
                assert!(q.enqueue(&mut h, Counter(Arc::clone(&drops))).is_ok());
            }
        }
        assert_eq!(drops.load(std::sync::atomic::Ordering::SeqCst), 3);
    }

    #[test]
    fn batch_passthrough_roundtrip_and_rejection() {
        let q: BoxedQueue<String, OptimalQueue> =
            BoxedQueue::new(OptimalQueue::with_capacity_and_threads(3, 1));
        let mut h = q.register();
        let rejected = q.enqueue_many(
            &mut h,
            vec!["a".into(), "b".into(), "c".into(), "d".into(), "e".into()],
        );
        assert_eq!(rejected, vec!["d".to_string(), "e".to_string()]);
        let mut out: Vec<String> = Vec::new();
        assert_eq!(q.dequeue_many(&mut h, 10, &mut out), 3);
        assert_eq!(out, vec!["a", "b", "c"]);
        assert_eq!(q.dequeue_many(&mut h, 1, &mut out), 0);
    }

    #[test]
    fn concurrent_boxed_transfer() {
        let q: Arc<BoxedQueue<u64, OptimalQueue>> = Arc::new(BoxedQueue::new(
            OptimalQueue::with_capacity_and_threads(8, 3),
        ));
        let n = 2_000u64;
        let q2 = Arc::clone(&q);
        let p = std::thread::spawn(move || {
            let mut h = q2.register();
            for v in 0..n {
                let mut item = v;
                loop {
                    match q2.enqueue(&mut h, item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut h = q.register();
        let mut got = Vec::new();
        while got.len() < n as usize {
            match q.dequeue(&mut h) {
                Some(v) => got.push(v),
                None => std::thread::yield_now(),
            }
        }
        p.join().unwrap();
        let expected: Vec<u64> = (0..n).collect();
        assert_eq!(got, expected, "single producer order preserved");
    }
}
