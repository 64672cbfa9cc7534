//! A typed adapter: store arbitrary `T` through a token queue by boxing.
//!
//! The paper's model stores opaque *values* in value-locations; in a systems
//! language the natural value is a pointer. [`BoxedQueue`] moves each
//! element into the heap and passes a pointer-derived word (non-zero, and
//! checked against the inner queue's `max_token()` in debug builds) through
//! an underlying token queue.
//!
//! Values are boxed in **runs** (DESIGN.md §8.4): one allocation holds an
//! 8-byte header and up to 16 values, and a value's token is the run's
//! address OR'd with the value's index — the 4 low bits a 16-byte-aligned
//! allocation leaves zero. A single `enqueue` boxes a run of one; a batch
//! (`enqueue_many`, `send_all`) boxes runs of up to 16, so `n` values cost
//! at most ⌈n/16⌉ allocations. Taking a value moves it out, and the last
//! value taken parks the run in one of the queue's four run slots if it is
//! full-length or a run of one — a run of one in the last slot only — where
//! the next run of its length picks it up instead of allocating. Any other
//! run, and any run that finds no slot empty, is freed.
//!
//! Only **value-independent** queues may carry pointers: the allocator can
//! hand the same address out twice (free → malloc), so the underlying queue
//! must tolerate repeated values. [`PointerCapable`] marks the queues for
//! which that holds: [`SegmentQueue`] (unique absolute
//! positions), [`DcssQueue`] (counter-guarded updates) and
//! [`OptimalQueue`] (announcement protocol). Notably it
//! excludes [`DistinctQueue`](crate::DistinctQueue): recycled addresses
//! violate its distinct-elements assumption — exactly the trap the paper
//! warns practitioners about.

use std::alloc::{self, Layout};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

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

// ---- runs ------------------------------------------------------------------

/// Most values in one run: the index rides in a token's 4 low bits.
const RUN: usize = 16;

/// Most bytes of values in one run, so a large payload keeps one allocation
/// per value.
const RUN_PAGE: usize = 4096;

/// Emptied runs a queue keeps for its next runs of the same length.
const RUN_SLOTS: usize = 4;

/// The tag of a parked full-length run. A slot word is the run's address
/// OR'd with its tag, in the low bits a run's 16-byte alignment leaves zero.
const TAG_FULL: usize = 0;

/// The tag of a parked run of one, which parks in the last slot only.
const TAG_ONE: usize = 1;

/// The header of a run; its values follow it in the same allocation.
#[repr(C)]
struct RunHdr {
    /// Values not yet taken. A run of one never touches it.
    live: AtomicU32,
    /// Values the run was built with, from which its layout follows.
    len: u32,
}

/// Values per run for `T`: 16, or fewer when 16 of them exceed a page.
fn run_cap<T>() -> usize {
    match std::mem::size_of::<T>() {
        0 => RUN,
        size => (RUN_PAGE / size).clamp(1, RUN),
    }
}

/// The allocation of a run of `len` values, and the offset of its first.
/// Aligned to 16 — `malloc`'s own alignment, so `System` never takes the
/// `memalign` path for it — or to `T`'s alignment if that is larger.
fn run_layout<T>(len: usize) -> (Layout, usize) {
    let fit = "a run of at most one page fits";
    let values = Layout::array::<T>(len).expect(fit);
    let (layout, offset) = Layout::new::<RunHdr>().extend(values).expect(fit);
    (layout.align_to(RUN).expect(fit).pad_to_align(), offset)
}

/// The class of a run of `len` values of `T`: full-length runs and runs of
/// one park, any other length has no tag and is freed. A run of one that is
/// full-length (`run_cap` is 1 for payloads of a page or more) is
/// `TAG_FULL`.
fn run_tag<T>(len: usize) -> Option<usize> {
    if len == run_cap::<T>() {
        Some(TAG_FULL)
    } else if len == 1 {
        Some(TAG_ONE)
    } else {
        None
    }
}

/// The slots a run of class `tag` may park in: every slot for a full run,
/// the last alone for a run of one, so full runs keep three to themselves.
fn tag_slots(tag: usize, slots: &[AtomicPtr<u8>]) -> &[AtomicPtr<u8>] {
    match tag {
        TAG_FULL => slots,
        _ => &slots[slots.len().saturating_sub(1)..],
    }
}

/// Take a parked run of class `tag` out of `slots`, if one is parked. The
/// `Acquire` CAS pairs with the `Release` CAS that parked the run, so every
/// read of its old values happens before the caller writes new ones; the
/// CAS, not a swap, so a run of another class stays where it is.
fn unpark(slots: &[AtomicPtr<u8>], tag: usize) -> Option<*mut u8> {
    tag_slots(tag, slots).iter().find_map(|slot| {
        let word = slot.load(Ordering::Relaxed);
        if word.is_null() || word as usize % RUN != tag {
            return None;
        }
        slot.compare_exchange(word, ptr::null_mut(), Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|word| word.wrapping_sub(tag))
    })
}

/// Park an emptied run of class `tag` in an empty slot it may use; `false`
/// when every such slot is full.
fn park(run: *mut u8, tag: usize, slots: &[AtomicPtr<u8>]) -> bool {
    let word = run.wrapping_add(tag);
    tag_slots(tag, slots).iter().any(|slot| {
        slot.load(Ordering::Relaxed).is_null()
            && slot
                .compare_exchange(ptr::null_mut(), word, Ordering::Release, Ordering::Relaxed)
                .is_ok()
    })
}

/// Move the value of `token` out of its run. The run's last taker parks it
/// in `slots` if its length has a tag and a slot for it is empty, and frees
/// it otherwise; a taker with no queue in hand passes no slots.
///
/// # Safety
/// `token` was boxed by a [`BoxedQueue<T, _>`], `slots` hold runs of `T`
/// only, and no token is taken twice.
unsafe fn take<T>(token: u64, slots: &[AtomicPtr<u8>]) -> T {
    let run = (token & !(RUN as u64 - 1)) as usize as *mut u8;
    // SAFETY (this block and below): the run is live until its last value
    // is taken, and this value is not taken yet.
    let hdr = unsafe { &*run.cast::<RunHdr>() };
    let len = hdr.len as usize;
    let (layout, offset) = run_layout::<T>(len);
    let index = (token % RUN as u64) as usize;
    let value = unsafe { run.add(offset).cast::<T>().add(index).read() };
    // Each taker's read is done before its `Release` half; the last one's
    // `Acquire` half orders every read before the park or the free.
    let emptied = len == 1 || hdr.live.fetch_sub(1, Ordering::AcqRel) == 1;
    if emptied && !run_tag::<T>(len).is_some_and(|tag| park(run, tag, slots)) {
        unsafe { alloc::dealloc(run, layout) };
    }
    value
}

/// Move the values of `tokens` out, in order: emptied runs park in `q`'s
/// slots as [`take`] parks them, and every run is freed when no queue is in
/// hand.
///
/// # Safety
/// Each token was boxed by a [`BoxedQueue<T, _>`], and none is taken twice.
pub(crate) unsafe fn take_all<T, Q: PointerCapable>(
    tokens: &[u64],
    q: Option<&BoxedQueue<T, Q>>,
) -> Vec<T> {
    let slots = q.map_or(&[][..], |q| &q.run_slots[..]);
    // SAFETY: the caller's guarantee, token by token.
    tokens.iter().map(|&t| unsafe { take(t, slots) }).collect()
}

/// A bounded queue of owned `T` values over a pointer-capable token queue.
pub struct BoxedQueue<T, Q: PointerCapable> {
    inner: Q,
    /// Emptied runs, parked for the next run of their length to box into:
    /// each word is a run's address OR'd with its tag. Plain `std` atomics,
    /// like a run's `live`: off the explorer's seam.
    run_slots: [AtomicPtr<u8>; RUN_SLOTS],
    _marker: PhantomData<fn(T) -> T>,
}

/// Per-thread handle wrapping the inner queue's handle.
pub struct BoxedHandle<Q: PointerCapable> {
    inner: Q::Handle,
    /// The tokens `dequeue_many` takes from the inner queue, drained by
    /// every call, so the buffer is allocated once per handle.
    tokens: Vec<u64>,
}

impl<T: Send, Q: PointerCapable> BoxedQueue<T, Q> {
    /// Wrap an (empty) token queue.
    ///
    /// # Panics
    /// If the inner queue is not empty — tokens already inside would not
    /// name boxed values.
    pub fn new(inner: Q) -> Self {
        assert!(inner.is_empty(), "inner queue must start empty");
        BoxedQueue {
            inner,
            run_slots: Default::default(),
            _marker: PhantomData,
        }
    }

    /// Obtain a per-thread handle.
    pub fn register(&self) -> BoxedHandle<Q> {
        BoxedHandle {
            inner: self.inner.register(),
            tokens: Vec::new(),
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
        let token = self.box_run(&mut std::iter::once(value), 1);
        match self.inner.enqueue(&mut h.inner, token) {
            Ok(()) => Ok(()),
            // SAFETY: the token was rejected, so it is still ours to take.
            Err(_) => Err(unsafe { take(token, &self.run_slots) }),
        }
    }

    /// Dequeue the oldest value.
    pub fn dequeue(&self, h: &mut BoxedHandle<Q>) -> Option<T> {
        let token = self.inner.dequeue(&mut h.inner)?;
        // SAFETY: every token in the queue was boxed here, and the inner
        // queue surrenders each exactly once (it conserves tokens).
        Some(unsafe { take(token, &self.run_slots) })
    }

    /// Batch enqueue passthrough: boxes the items in runs, hands the token
    /// run to the inner queue's (possibly native) `enqueue_many`, and
    /// returns the rejected suffix unboxed. An empty return vector means
    /// everything was accepted.
    pub fn enqueue_many(&self, h: &mut BoxedHandle<Q>, items: Vec<T>) -> Vec<T> {
        let tokens = self.box_all(items);
        let n = self.inner.enqueue_many(&mut h.inner, &tokens);
        // SAFETY: tokens beyond the accepted prefix were rejected.
        unsafe { take_all(&tokens[n..], Some(self)) }
    }

    /// Move the next `len` values of `values` (`1..=run_cap::<T>()` of them)
    /// into one run and return the first one's token; value `i` of the run
    /// is that token plus `i`. A full-length run or a run of one reuses a
    /// parked run of its length when one is parked; any other run is a new
    /// allocation.
    fn box_run(&self, values: &mut impl Iterator<Item = T>, len: usize) -> u64 {
        debug_assert!((1..=run_cap::<T>()).contains(&len));
        let (layout, offset) = run_layout::<T>(len);
        let parked = run_tag::<T>(len).and_then(|tag| unpark(&self.run_slots, tag));
        let run = parked.unwrap_or_else(|| {
            // SAFETY: the layout is non-empty (the header alone is 8 bytes).
            let run = unsafe { alloc::alloc(layout) };
            if run.is_null() {
                alloc::handle_alloc_error(layout);
            }
            run
        });
        // SAFETY: `run` is this thread's alone — fresh, or taken out of its
        // slot — and has `layout` (a parked run of this tag has this
        // length): the header at 0 and `len` aligned `T` slots from `offset`.
        unsafe {
            run.cast::<RunHdr>().write(RunHdr {
                live: AtomicU32::new(len as u32),
                len: len as u32,
            });
            let slots = run.add(offset).cast::<T>();
            for i in 0..len {
                slots
                    .add(i)
                    .write(values.next().expect("the caller counted the values"));
            }
        }
        let first = run as u64;
        debug_assert!(
            first + len as u64 - 1 <= self.inner.max_token(),
            "run {first:#x} of {len} leaves the inner queue's token domain"
        );
        first
    }

    /// Box `items` in order, in runs of up to `run_cap::<T>()`: one token
    /// each.
    #[inline]
    pub(crate) fn box_all(&self, items: Vec<T>) -> Vec<u64> {
        let mut tokens = Vec::with_capacity(items.len());
        let mut values = items.into_iter();
        while values.len() > 0 {
            let len = values.len().min(run_cap::<T>());
            let first = self.box_run(&mut values, len);
            tokens.extend(first..first + len as u64);
        }
        tokens
    }

    /// Enqueue already-boxed tokens (prefix accepted); returns the count.
    /// The caller retains ownership of — and responsibility for — the
    /// rejected suffix. Pairs with [`box_all`](Self::box_all) so the
    /// blocking façade can retry a parked batch without re-boxing it on
    /// every wake.
    pub(crate) fn enqueue_tokens(&self, h: &mut BoxedHandle<Q>, tokens: &[u64]) -> usize {
        self.inner.enqueue_many(&mut h.inner, tokens)
    }

    /// Batch dequeue passthrough: drains up to `max` values through the
    /// inner queue's `dequeue_many`, appending to `out`; returns the count.
    #[inline]
    pub fn dequeue_many(&self, h: &mut BoxedHandle<Q>, max: usize, out: &mut Vec<T>) -> usize {
        let n = self.inner.dequeue_many(&mut h.inner, max, &mut h.tokens);
        // SAFETY: as in `dequeue`.
        out.extend(
            h.tokens
                .drain(..)
                .map(|t| unsafe { take(t, &self.run_slots) }),
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
            format!("run headers (8 bytes per run of <= 16 values), parked runs (<= {RUN_SLOTS}, none larger than a full run) and the allocator's (allocator-dependent)"),
            0,
            OverheadClass::Other,
        ));
        b.overhead.push(bq_memtrack::FootprintEntry::new(
            format!("run slots ({RUN_SLOTS} pointers to parked runs)"),
            std::mem::size_of_val(&self.run_slots),
            OverheadClass::Other,
        ));
        b
    }
}

impl<T, Q: PointerCapable> Drop for BoxedQueue<T, Q> {
    fn drop(&mut self) {
        // Drain remaining values so elements are not leaked.
        let mut h = self.inner.drop_handle();
        while let Some(token) = self.inner.dequeue(&mut h) {
            // SAFETY: as in `dequeue`; passing no slots frees every run.
            drop(unsafe { take::<T>(token, &[]) });
        }
        for slot in &mut self.run_slots {
            let word = *slot.get_mut();
            if !word.is_null() {
                let tag = word as usize % RUN;
                let len = if tag == TAG_FULL { run_cap::<T>() } else { 1 };
                // SAFETY: a parked run is an emptied run of `T` of the
                // length its tag names, and nothing else names it.
                unsafe { alloc::dealloc(word.wrapping_sub(tag), run_layout::<T>(len).0) };
            }
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

    fn counters(n: usize) -> (Arc<std::sync::atomic::AtomicUsize>, Vec<Counter>) {
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let items = (0..n).map(|_| Counter(Arc::clone(&drops))).collect();
        (drops, items)
    }

    fn dropped(d: &std::sync::atomic::AtomicUsize) -> usize {
        d.load(std::sync::atomic::Ordering::SeqCst)
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
                tokens: Vec::new(),
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

    /// The run of five is split by the queue: three values queued, two
    /// handed back. Each part is dropped exactly once, and the run outlives
    /// the returned two until the queued three are taken.
    #[test]
    fn rejected_suffix_that_splits_a_run_drops_exactly_once() {
        let (drops, items) = counters(5);
        let q: BoxedQueue<Counter, OptimalQueue> =
            BoxedQueue::new(OptimalQueue::with_capacity_and_threads(3, 1));
        let mut h = q.register();
        let back = q.enqueue_many(&mut h, items);
        assert_eq!((back.len(), q.len()), (2, 3));
        drop(back);
        assert_eq!(dropped(&drops), 2);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(&mut h, 8, &mut out), 3);
        assert_eq!(dropped(&drops), 2, "taken, not dropped");
        drop(out);
        assert_eq!(dropped(&drops), 5);
    }

    /// Three runs of 16, the queue dropped with the first run half taken,
    /// the second whole and the third one value short of taken.
    #[test]
    fn queue_dropped_holding_half_taken_runs_drops_every_value_once() {
        let (drops, items) = counters(48);
        {
            let q: BoxedQueue<Counter, OptimalQueue> =
                BoxedQueue::new(OptimalQueue::with_capacity_and_threads(64, 1));
            let mut h = q.register();
            assert!(q.enqueue_many(&mut h, items).is_empty());
            let mut out = Vec::new();
            q.dequeue_many(&mut h, 8, &mut out);
            drop(out);
            assert_eq!(dropped(&drops), 8);
        }
        assert_eq!(dropped(&drops), 48);
    }

    /// Two consumers split one run of 16 between them: every value arrives
    /// once, and whichever consumer takes the last frees the run (a double
    /// free or a use after free aborts the test binary).
    #[test]
    fn two_consumers_splitting_one_run_free_it_once() {
        for _ in 0..200 {
            let (drops, items) = counters(16);
            let q: BoxedQueue<Counter, OptimalQueue> =
                BoxedQueue::new(OptimalQueue::with_capacity_and_threads(16, 3));
            assert!(q.enqueue_many(&mut q.register(), items).is_empty());
            let got: usize = std::thread::scope(|s| {
                let consumers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            let mut h = q.register();
                            let mut n = 0;
                            while let Some(v) = q.dequeue(&mut h) {
                                drop(v);
                                n += 1;
                            }
                            n
                        })
                    })
                    .collect();
                consumers.into_iter().map(|c| c.join().unwrap()).sum()
            });
            assert_eq!((got, dropped(&drops)), (16, 16));
        }
    }

    /// Values that occupy no bytes still get a run each (a header to count
    /// them down), and come back in the numbers they went in.
    #[test]
    fn zero_sized_payloads_round_trip() {
        let q: BoxedQueue<(), OptimalQueue> =
            BoxedQueue::new(OptimalQueue::with_capacity_and_threads(40, 1));
        let mut h = q.register();
        q.enqueue(&mut h, ()).unwrap();
        assert!(q.enqueue_many(&mut h, vec![(); 33]).is_empty());
        assert_eq!(q.enqueue_many(&mut h, vec![(); 10]).len(), 4);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(&mut h, 64, &mut out), 40);
        assert_eq!(q.dequeue(&mut h), None);
        assert_eq!(run_cap::<()>(), 16);
    }

    /// A payload aligned beyond the 16 bytes a run's header assumes: the
    /// values start on their own alignment, and every one reads back.
    #[test]
    fn over_aligned_payloads_round_trip() {
        #[repr(align(64))]
        #[derive(Debug, PartialEq)]
        struct Line(u64);
        let (layout, offset) = run_layout::<Line>(16);
        assert_eq!(
            (layout.align(), offset, layout.size()),
            (64, 64, 64 + 16 * 64)
        );
        let q: BoxedQueue<Line, OptimalQueue> =
            BoxedQueue::new(OptimalQueue::with_capacity_and_threads(40, 1));
        let mut h = q.register();
        q.enqueue(&mut h, Line(0)).unwrap();
        assert!(q
            .enqueue_many(&mut h, (1..34).map(Line).collect())
            .is_empty());
        let mut out = Vec::new();
        q.dequeue_many(&mut h, 64, &mut out);
        assert_eq!(out, (0..34).map(Line).collect::<Vec<_>>());
    }

    /// 33 values make three runs — 16, 16 and 1 — in order; a page-sized
    /// payload keeps one allocation per value.
    #[test]
    fn a_33_value_batch_makes_three_runs() {
        let q: BoxedQueue<u64, OptimalQueue> =
            BoxedQueue::new(OptimalQueue::with_capacity_and_threads(1, 1));
        let tokens = q.box_all((0..33u64).collect());
        let runs: Vec<u64> = tokens.iter().map(|t| t & !15).collect();
        assert!(runs[..16].iter().all(|&r| r == runs[0]));
        assert!(runs[16..32].iter().all(|&r| r == runs[16]));
        assert!(runs[0] != runs[16] && runs[16] != runs[32] && runs[0] != runs[32]);
        let indices: Vec<u64> = tokens.iter().map(|t| t & 15).collect();
        assert_eq!(indices[..16], (0..16).collect::<Vec<_>>()[..]);
        assert_eq!(indices[32], 0);
        for (i, t) in tokens.into_iter().enumerate() {
            // SAFETY: each token of the batch, taken once.
            assert_eq!(unsafe { take::<u64>(t, &[]) }, i as u64);
        }
        assert_eq!(run_cap::<[u8; 300]>(), 13);
        assert_eq!(run_cap::<[u8; 4096]>(), 1);
        assert_eq!(run_cap::<[u8; 8192]>(), 1);
    }

    /// The runs parked in `q`'s slots, in slot order.
    fn parked<T, Q: PointerCapable>(q: &BoxedQueue<T, Q>) -> Vec<*mut u8> {
        q.run_slots
            .iter()
            .map(|slot| slot.load(Ordering::SeqCst))
            .filter(|run| !run.is_null())
            .collect()
    }

    /// Six full runs emptied against four slots: the first four emptied
    /// park, the other two are freed (the allocator's side of the balance
    /// is counted in `tests/boxed_runs.rs`). The next six-run batch boxes
    /// into the four parked runs first and allocates two; the queue frees
    /// the parked runs when it drops, and every value is dropped once.
    #[test]
    fn more_emptied_runs_than_slots_park_four_and_free_the_rest() {
        let (drops, items) = counters(192);
        let mut items = items.into_iter();
        {
            let q: BoxedQueue<Counter, OptimalQueue> =
                BoxedQueue::new(OptimalQueue::with_capacity_and_threads(1, 1));
            let first_of = |tokens: &[u64]| -> Vec<*mut u8> {
                tokens.chunks(16).map(|c| c[0] as *mut u8).collect()
            };
            let tokens = q.box_all(items.by_ref().take(96).collect());
            let runs = first_of(&tokens);
            assert_eq!(runs.len(), 6);
            for t in tokens {
                // SAFETY: each token of the batch, taken once.
                drop(unsafe { take::<Counter>(t, &q.run_slots) });
            }
            assert_eq!(parked(&q), runs[..RUN_SLOTS]);
            assert_eq!(dropped(&drops), 96);

            let tokens = q.box_all(items.by_ref().take(96).collect());
            assert_eq!(first_of(&tokens)[..RUN_SLOTS], runs[..RUN_SLOTS]);
            assert!(parked(&q).is_empty(), "every parked run reused");
            for t in tokens {
                // SAFETY: as above.
                drop(unsafe { take::<Counter>(t, &q.run_slots) });
            }
            assert_eq!(parked(&q).len(), RUN_SLOTS);
        }
        assert_eq!(dropped(&drops), 192);
    }

    /// Two consumers split two full runs, in pieces of up to 7, over and
    /// over: whichever takes a run's last value parks it, the next batch
    /// boxes into both parked runs, and every value is dropped once.
    #[test]
    fn two_consumers_splitting_runs_park_and_reuse_them() {
        for _ in 0..200 {
            let (drops, items) = counters(64);
            let mut items = items.into_iter();
            {
                let q: BoxedQueue<Counter, OptimalQueue> =
                    BoxedQueue::new(OptimalQueue::with_capacity_and_threads(32, 3));
                let mut h = q.register();
                let mut consumer_handles = [q.register(), q.register()];
                for _ in 0..2 {
                    assert!(q
                        .enqueue_many(&mut h, items.by_ref().take(32).collect())
                        .is_empty());
                    assert!(parked(&q).is_empty(), "the batch boxed into them");
                    let got: usize = std::thread::scope(|s| {
                        let consumers: Vec<_> = consumer_handles
                            .iter_mut()
                            .map(|h| {
                                let q = &q;
                                s.spawn(move || {
                                    let mut out = Vec::new();
                                    while q.dequeue_many(h, 7, &mut out) > 0 {}
                                    out.len()
                                })
                            })
                            .collect();
                        consumers.into_iter().map(|c| c.join().unwrap()).sum()
                    });
                    assert_eq!(got, 32);
                    assert_eq!(parked(&q).len(), 2);
                }
            }
            assert_eq!(dropped(&drops), 64);
        }
    }

    /// A second batch of the same payload, boxed into the run the first
    /// one emptied: the run's header is rewritten, and the values read back.
    fn second_round_through_a_parked_run<T: Send + PartialEq + std::fmt::Debug>(
        make: impl Fn(u64) -> T,
    ) {
        let q: BoxedQueue<T, OptimalQueue> =
            BoxedQueue::new(OptimalQueue::with_capacity_and_threads(16, 1));
        let mut h = q.register();
        let cap = run_cap::<T>() as u64;
        let mut out = Vec::new();
        for round in 0..2 {
            let values = || (round * cap..(round + 1) * cap).map(&make);
            assert!(q.enqueue_many(&mut h, values().collect()).is_empty());
            assert!(parked(&q).is_empty());
            assert_eq!(q.dequeue_many(&mut h, 16, &mut out), cap as usize);
            assert!(out.drain(..).eq(values()));
            assert_eq!(parked(&q).len(), 1);
        }
    }

    #[test]
    fn zero_sized_and_over_aligned_payloads_reuse_a_parked_run() {
        #[repr(align(64))]
        #[derive(Debug, PartialEq)]
        struct Line(u64);
        second_round_through_a_parked_run(|_| ());
        second_round_through_a_parked_run(Line);
    }

    /// The four slot words of `q`: a parked run's address OR'd with its tag.
    fn slot_words<T, Q: PointerCapable>(q: &BoxedQueue<T, Q>) -> [usize; RUN_SLOTS] {
        q.run_slots
            .each_ref()
            .map(|slot| slot.load(Ordering::SeqCst) as usize)
    }

    /// A run of one parks tagged in the last slot and the next single value
    /// reuses it; three emptied full runs park beside it and a fourth is
    /// freed; and a run of one that finds the last slot holding a full run
    /// is freed, even with the other three empty.
    #[test]
    fn a_run_of_one_parks_in_the_last_slot_only() {
        let q: BoxedQueue<u64, OptimalQueue> =
            BoxedQueue::new(OptimalQueue::with_capacity_and_threads(1, 1));
        // SAFETY (every `take` below): each token is taken once.
        let take_each = |tokens: Vec<u64>| {
            for t in tokens {
                let _ = unsafe { take::<u64>(t, &q.run_slots) };
            }
        };
        let one = q.box_all(vec![7])[0];
        let full = q.box_all((0..64).collect());
        assert_eq!(unsafe { take::<u64>(one, &q.run_slots) }, 7);
        assert_eq!(slot_words(&q), [0, 0, 0, one as usize + TAG_ONE]);
        take_each(full.clone());
        let runs = [full[0], full[16], full[32]].map(|t| t as usize);
        assert_eq!(
            slot_words(&q),
            [runs[0], runs[1], runs[2], one as usize + TAG_ONE]
        );

        let again = q.box_all(vec![8]);
        assert_eq!(again, [one], "the parked run of one, reused");
        assert_eq!(slot_words(&q)[RUN_SLOTS - 1], 0);
        // Four full runs, three of them parked ones: emptied, they park in
        // all four slots. Three full runs then empty slots 0 to 2.
        let four = q.box_all((0..64).collect());
        take_each(four);
        let words = slot_words(&q);
        assert!(words.iter().all(|w| w % RUN == TAG_FULL && *w != 0));
        let three = q.box_all((0..48).collect());
        assert_eq!(slot_words(&q), [0, 0, 0, words[3]]);
        take_each(again);
        assert_eq!(slot_words(&q), [0, 0, 0, words[3]], "freed, not parked");
        take_each(three);
        assert_eq!(slot_words(&q), words);
    }

    /// Payload whose `Drop` runs are counted, and which occupies no bytes.
    struct Nothing;
    static NOTHING_DROPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    impl Drop for Nothing {
        fn drop(&mut self) {
            NOTHING_DROPS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// A producer sends single values into a queue of capacity 1 while a
    /// consumer takes them: a refused send parks its run and the retry
    /// unparks it, each taken value's run parks for the next send, and
    /// every value is dropped exactly once. Runs of one park in the last
    /// slot only, tagged, unless a run of one is full-length.
    fn refused_single_sends_drop_every_value_once<T: Send>(
        make: impl Fn() -> T + Sync,
        drops: &std::sync::atomic::AtomicUsize,
    ) {
        const N: usize = 2_000;
        let before = dropped(drops);
        {
            let q: BoxedQueue<T, OptimalQueue> =
                BoxedQueue::new(OptimalQueue::with_capacity_and_threads(1, 2));
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut h = q.register();
                    for _ in 0..N {
                        let mut value = make();
                        while let Err(back) = q.enqueue(&mut h, value) {
                            value = back;
                            std::thread::yield_now();
                        }
                    }
                });
                let mut h = q.register();
                let mut got = 0;
                while got < N {
                    match q.dequeue(&mut h) {
                        Some(v) => {
                            drop(v);
                            got += 1;
                        }
                        None => std::thread::yield_now(),
                    }
                }
            });
            assert_eq!(dropped(drops) - before, N);
            let words = slot_words(&q);
            if run_cap::<T>() == 1 {
                assert!(words.iter().all(|w| w % RUN == TAG_FULL));
                assert!(words.iter().any(|&w| w != 0));
            } else {
                assert_eq!(words[..RUN_SLOTS - 1], [0; RUN_SLOTS - 1]);
                assert_eq!(words[RUN_SLOTS - 1] % RUN, TAG_ONE);
            }
        }
        assert_eq!(dropped(drops) - before, N, "the queue dropped nothing more");
    }

    #[test]
    fn refused_single_sends_of_odd_payloads_drop_every_value_once() {
        #[repr(align(64))]
        struct Line(#[allow(dead_code)] Counter);
        struct Page(#[allow(dead_code)] [u8; 4096], #[allow(dead_code)] Counter);
        assert_eq!(std::mem::size_of::<Nothing>(), 0);
        assert_eq!(run_cap::<Page>(), 1);
        refused_single_sends_drop_every_value_once(|| Nothing, &NOTHING_DROPS);
        let (drops, _) = counters(0);
        refused_single_sends_drop_every_value_once(|| Line(Counter(Arc::clone(&drops))), &drops);
        refused_single_sends_drop_every_value_once(
            || Page([0; 4096], Counter(Arc::clone(&drops))),
            &drops,
        );
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
