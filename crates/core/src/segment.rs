//! **Listing 1 / Figure 2** — the memory-friendly bounded queue on a
//! conceptually infinite array of segments.
//!
//! The infinite array is a concurrent linked list of fixed-size segments of
//! `K` cells each, following the design the paper borrows from Kotlin
//! Coroutines channels. `head` and `tail` are absolute (never wrapping)
//! positions; cell `i` lives in the segment with `id == i / K` at offset
//! `i % K`.
//!
//! Because each *absolute* position is used by exactly one enqueue–dequeue
//! pair, a cell's life cycle is monotone — `⊥ → element → TAKEN` — and the
//! ABA problem is structurally eliminated (no CAS can observe a repeated
//! state). Note the extraction marker must differ from `⊥`: restoring `⊥`
//! would let a poised round-old `CAS(cell, ⊥, y)` fire and fabricate a
//! successful enqueue.
//!
//! ## Memory overhead
//!
//! Θ(C/K + T·K): about `C/K` live segments with constant per-segment
//! linkage, plus up to Θ(T) retired segments of `K` cells pinned by
//! in-flight readers (here via epoch-based reclamation, playing the role of
//! the descriptor-reuse technique the paper cites). Choosing `K = √C`
//! minimizes this at Θ(T·√C) — experiment E2 sweeps `K` to reproduce the
//! U-shaped curve.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};

use crate::simx::SimAtomicU64;
use parking_lot::Mutex;

use crate::queue::{ConcurrentQueue, Full};
use crate::token::NULL;
use bq_memtrack::{FootprintBreakdown, MemoryFootprint, OverheadClass};

/// Extraction marker: distinct from `⊥` so emptied cells can never satisfy
/// a stale enqueue CAS expecting `⊥`.
const TAKEN: u64 = u64::MAX;

/// Largest token this queue accepts (`TAKEN` and `NULL` are reserved).
pub const MAX_SEGMENT_TOKEN: u64 = u64::MAX - 1;

struct Segment {
    id: u64,
    next: Atomic<Segment>,
    cells: Box<[SimAtomicU64]>,
}

impl Segment {
    fn new(id: u64, k: usize) -> Self {
        Segment {
            id,
            next: Atomic::null(),
            cells: (0..k).map(|_| SimAtomicU64::new(NULL)).collect(),
        }
    }

    /// Bytes of one segment: header (id + next + boxed-slice fat pointer)
    /// plus `K` cells.
    fn bytes(k: usize) -> usize {
        std::mem::size_of::<Segment>() + k * 8
    }
}

/// The memory-friendly segment queue of Listing 1.
pub struct SegmentQueue {
    k: usize,
    capacity: usize,
    tail: SimAtomicU64,
    head: SimAtomicU64,
    head_seg: Atomic<Segment>,
    tail_seg: Atomic<Segment>,
    /// Segments ever allocated fresh (statistics for the overhead
    /// experiments).
    allocated_segments: AtomicUsize,
    /// Segments handed to the epoch reclaimer (destroyed or pooled).
    retired_segments: AtomicUsize,
    /// Segments taken back out of the pool instead of allocated fresh.
    reused_segments: AtomicUsize,
    /// The reuse pool the paper suggests ("reusing segments by applying
    /// the technique to reclaim descriptors"): retired segments land here
    /// after their grace period and are recycled by `find_segment`.
    /// `None` = plain epoch reclamation (free instead of pool).
    /// (Boxes inside the Vec are intentional: segments must keep stable
    /// addresses so they can round-trip through `Owned`/`Shared`.)
    #[allow(clippy::vec_box)]
    pool: Option<Arc<Mutex<Vec<Box<Segment>>>>>,
}

/// `SegmentQueue` needs no per-thread state.
#[derive(Debug, Default, Clone, Copy)]
pub struct SegmentHandle;

impl SegmentQueue {
    /// Create a queue of capacity `c` with segment size `k` (both > 0),
    /// with plain epoch reclamation (retired segments are freed).
    pub fn with_capacity_and_segment_size(c: usize, k: usize) -> Self {
        Self::build(c, k, false)
    }

    /// Create a queue that **recycles segments through a pool** instead of
    /// freeing them — the reuse design the paper sketches in §2.1. After
    /// warm-up the queue stops allocating entirely: the working set of
    /// Θ(C/K + T) segments circulates through the pool.
    pub fn with_pooled_segments(c: usize, k: usize) -> Self {
        Self::build(c, k, true)
    }

    fn build(c: usize, k: usize, pooled: bool) -> Self {
        assert!(c > 0 && k > 0, "capacity and segment size must be positive");
        let first = Owned::new(Segment::new(0, k)).into_shared(unsafe { epoch::unprotected() });
        let q = SegmentQueue {
            k,
            capacity: c,
            tail: SimAtomicU64::new(0),
            head: SimAtomicU64::new(0),
            head_seg: Atomic::null(),
            tail_seg: Atomic::null(),
            allocated_segments: AtomicUsize::new(1),
            retired_segments: AtomicUsize::new(0),
            reused_segments: AtomicUsize::new(0),
            pool: pooled.then(|| Arc::new(Mutex::new(Vec::new()))),
        };
        q.head_seg.store(first, Ordering::SeqCst);
        q.tail_seg.store(first, Ordering::SeqCst);
        q
    }

    /// Create a queue with the paper's optimal segment size `K = √C`.
    pub fn with_capacity(c: usize) -> Self {
        let k = (c as f64).sqrt().round().max(1.0) as usize;
        Self::with_capacity_and_segment_size(c, k)
    }

    /// Segments taken from the pool instead of the allocator.
    pub fn segments_reused(&self) -> usize {
        self.reused_segments.load(Ordering::Relaxed)
    }

    /// Segments currently parked in the reuse pool.
    pub fn segments_pooled(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.lock().len())
    }

    /// Take a segment for `id`: recycle from the pool when possible,
    /// allocate fresh otherwise.
    fn obtain_segment(&self, id: u64) -> Owned<Segment> {
        if let Some(pool) = &self.pool {
            if let Some(mut seg) = pool.lock().pop() {
                seg.id = id;
                seg.next = Atomic::null();
                for cell in seg.cells.iter() {
                    cell.store(NULL, Ordering::Relaxed);
                }
                self.reused_segments.fetch_add(1, Ordering::Relaxed);
                return seg.into();
            }
        }
        self.allocated_segments.fetch_add(1, Ordering::Relaxed);
        Owned::new(Segment::new(id, self.k))
    }

    /// The segment size `K`.
    pub fn segment_size(&self) -> usize {
        self.k
    }

    /// Number of segments currently allocated and not yet handed to the
    /// reclaimer (live upper bound; retired segments may still occupy heap
    /// until a grace period elapses).
    pub fn segments_live(&self) -> usize {
        (self.allocated_segments.load(Ordering::Relaxed)
            + self.reused_segments.load(Ordering::Relaxed))
        .saturating_sub(self.retired_segments.load(Ordering::Relaxed))
    }

    /// Total segments ever allocated.
    pub fn segments_allocated(&self) -> usize {
        self.allocated_segments.load(Ordering::Relaxed)
    }

    /// Find (creating as needed) the segment with the given id, starting
    /// from `hint`. Returns `None` if the list has already advanced past
    /// `id` — the caller's position is stale and it must re-read the
    /// counters.
    fn find_segment<'g>(
        &self,
        hint: &Atomic<Segment>,
        id: u64,
        guard: &'g Guard,
    ) -> Option<Shared<'g, Segment>> {
        let mut s = hint.load(Ordering::SeqCst, guard);
        // SAFETY: segments are only reclaimed after being unreachable from
        // both hints; a hint load under the guard yields a protected pointer.
        let mut seg = unsafe { s.deref() };
        if seg.id > id {
            return None;
        }
        while seg.id < id {
            let next = seg.next.load(Ordering::SeqCst, guard);
            if next.is_null() {
                let new = self.obtain_segment(seg.id + 1);
                match seg.next.compare_exchange(
                    Shared::null(),
                    new,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                    guard,
                ) {
                    Ok(linked) => {
                        s = linked;
                    }
                    Err(e) => {
                        // Someone else linked it first; park our segment
                        // back in the pool (or drop it).
                        if let Some(pool) = &self.pool {
                            pool.lock().push(e.new.into_box());
                        }
                        s = e.current;
                    }
                }
            } else {
                s = next;
            }
            seg = unsafe { s.deref() };
        }
        debug_assert_eq!(seg.id, id);
        Some(s)
    }

    /// Advance a hint pointer to `to` if it is behind. For the head hint,
    /// also retire the segments that became unreachable — after first
    /// pushing the tail hint forward so it can never dangle into the
    /// retired range.
    fn move_hint_forward(&self, to: Shared<'_, Segment>, is_head: bool, guard: &Guard) {
        let hint = if is_head {
            &self.head_seg
        } else {
            &self.tail_seg
        };
        let to_id = unsafe { to.deref() }.id;
        loop {
            let cur = hint.load(Ordering::SeqCst, guard);
            let cur_id = unsafe { cur.deref() }.id;
            if cur_id >= to_id {
                return;
            }
            if hint
                .compare_exchange(cur, to, Ordering::SeqCst, Ordering::SeqCst, guard)
                .is_ok()
            {
                if is_head {
                    // Ensure the tail hint is not left pointing into the
                    // range we are about to retire.
                    self.move_hint_forward(to, false, guard);
                    // Retire [cur, to): we won the CAS from exactly `cur`,
                    // so this range is retired exactly once. With pooling,
                    // the segment is parked for reuse after its grace
                    // period instead of being freed.
                    let mut s = cur;
                    while unsafe { s.deref() }.id < to_id {
                        let next = unsafe { s.deref() }.next.load(Ordering::SeqCst, guard);
                        self.retired_segments.fetch_add(1, Ordering::Relaxed);
                        if let Some(pool) = &self.pool {
                            let pool = Arc::clone(pool);
                            let raw = s.as_raw() as usize;
                            // SAFETY: `s` is unreachable once the grace
                            // period elapses; reconstructing the Box then
                            // is the same transfer defer_destroy performs.
                            unsafe {
                                guard.defer_unchecked(move || {
                                    pool.lock().push(Box::from_raw(raw as *mut Segment));
                                });
                            }
                        } else {
                            unsafe { guard.defer_destroy(s) };
                        }
                        s = next;
                    }
                }
                return;
            }
        }
    }
}

impl ConcurrentQueue for SegmentQueue {
    type Handle = SegmentHandle;

    fn register(&self) -> SegmentHandle {
        SegmentHandle
    }

    fn enqueue(&self, _h: &mut SegmentHandle, v: u64) -> Result<(), Full> {
        assert!(
            v != NULL && v != TAKEN,
            "segment queue tokens must not be 0 or u64::MAX"
        );
        let c = self.capacity as u64;
        let k = self.k as u64;
        loop {
            let guard = epoch::pin();
            let t = self.tail.load(Ordering::SeqCst);
            let h = self.head.load(Ordering::SeqCst);
            if t != self.tail.load(Ordering::SeqCst) {
                continue;
            }
            if t == h + c {
                return Err(Full(v));
            }
            let Some(seg) = self.find_segment(&self.tail_seg, t / k, &guard) else {
                continue; // stale position; counters moved on
            };
            self.move_hint_forward(seg, false, &guard);
            let cell = &unsafe { seg.deref() }.cells[(t % k) as usize];
            let done = cell
                .compare_exchange(NULL, v, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            let _ = self
                .tail
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst);
            if done {
                return Ok(());
            }
        }
    }

    fn dequeue(&self, _h: &mut SegmentHandle) -> Option<u64> {
        let k = self.k as u64;
        loop {
            let guard = epoch::pin();
            let t = self.tail.load(Ordering::SeqCst);
            let h = self.head.load(Ordering::SeqCst);
            if t != self.tail.load(Ordering::SeqCst) {
                continue;
            }
            if t == h {
                return None;
            }
            let Some(seg) = self.find_segment(&self.head_seg, h / k, &guard) else {
                continue;
            };
            // Advancing the head hint retires fully-consumed segments.
            self.move_hint_forward(seg, true, &guard);
            let cell = &unsafe { seg.deref() }.cells[(h % k) as usize];
            let e = cell.load(Ordering::SeqCst);
            let done = e != NULL
                && e != TAKEN
                && cell
                    .compare_exchange(e, TAKEN, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok();
            let _ = self
                .head
                .compare_exchange(h, h + 1, Ordering::SeqCst, Ordering::SeqCst);
            if done {
                return Some(e);
            }
        }
    }

    /// Native batch fast path: **segment-local runs**. One epoch pin per
    /// batch, and the segment located for the first element is reused for
    /// every following element that lands in the same segment — the
    /// `find_segment` walk runs once per segment instead of once per
    /// element. Each element still linearizes individually (cell CAS +
    /// counter CAS), so the batch contract of the trait holds unchanged.
    fn enqueue_many(&self, _h: &mut SegmentHandle, vs: &[u64]) -> usize {
        for &v in vs {
            assert!(
                v != NULL && v != TAKEN,
                "segment queue tokens must not be 0 or u64::MAX"
            );
        }
        let c = self.capacity as u64;
        let k = self.k as u64;
        let mut done = 0usize;
        // Pinning once per batch (not per element) delays reclamation by at
        // most one batch length — the amortization this path exists for.
        let guard = epoch::pin();
        let mut cached: Option<Shared<'_, Segment>> = None;
        'next: while done < vs.len() {
            let v = vs[done];
            loop {
                let t = self.tail.load(Ordering::SeqCst);
                let h = self.head.load(Ordering::SeqCst);
                if t != self.tail.load(Ordering::SeqCst) {
                    continue;
                }
                if t == h + c {
                    return done;
                }
                // Segment-local run: reuse the cached segment while the
                // position stays inside it.
                let seg = match cached {
                    Some(s) if unsafe { s.deref() }.id == t / k => s,
                    _ => {
                        let Some(s) = self.find_segment(&self.tail_seg, t / k, &guard) else {
                            continue;
                        };
                        self.move_hint_forward(s, false, &guard);
                        cached = Some(s);
                        s
                    }
                };
                let cell = &unsafe { seg.deref() }.cells[(t % k) as usize];
                let won = cell
                    .compare_exchange(NULL, v, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok();
                let _ = self
                    .tail
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst);
                if won {
                    done += 1;
                    continue 'next;
                }
            }
        }
        done
    }

    /// Native batch dequeue: the mirror segment-local run over the head
    /// counter (one pin, one segment walk per segment crossed).
    fn dequeue_many(&self, _h: &mut SegmentHandle, max: usize, out: &mut Vec<u64>) -> usize {
        let k = self.k as u64;
        let mut done = 0usize;
        let guard = epoch::pin();
        let mut cached: Option<Shared<'_, Segment>> = None;
        'next: while done < max {
            loop {
                let t = self.tail.load(Ordering::SeqCst);
                let h = self.head.load(Ordering::SeqCst);
                if t != self.tail.load(Ordering::SeqCst) {
                    continue;
                }
                if t == h {
                    return done;
                }
                let seg = match cached {
                    Some(s) if unsafe { s.deref() }.id == h / k => s,
                    _ => {
                        let Some(s) = self.find_segment(&self.head_seg, h / k, &guard) else {
                            continue;
                        };
                        self.move_hint_forward(s, true, &guard);
                        cached = Some(s);
                        s
                    }
                };
                let cell = &unsafe { seg.deref() }.cells[(h % k) as usize];
                let e = cell.load(Ordering::SeqCst);
                let won = e != NULL
                    && e != TAKEN
                    && cell
                        .compare_exchange(e, TAKEN, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok();
                let _ = self
                    .head
                    .compare_exchange(h, h + 1, Ordering::SeqCst, Ordering::SeqCst);
                if won {
                    out.push(e);
                    done += 1;
                    continue 'next;
                }
            }
        }
        done
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn max_token(&self) -> u64 {
        MAX_SEGMENT_TOKEN
    }

    fn len(&self) -> usize {
        let t = self.tail.load(Ordering::SeqCst);
        let h = self.head.load(Ordering::SeqCst);
        t.saturating_sub(h) as usize
    }
}

impl MemoryFootprint for SegmentQueue {
    fn footprint(&self) -> FootprintBreakdown {
        let live = self.segments_live();
        let seg_bytes = Segment::bytes(self.k);
        let total_cell_bytes = live * self.k * 8;
        let element_bytes = self.capacity * 8;
        let header_bytes = live * (seg_bytes - self.k * 8);
        let pooled = self.segments_pooled();
        FootprintBreakdown::with_elements(element_bytes)
            .add(
                format!("segment headers ({live} segments)"),
                header_bytes,
                OverheadClass::Linkage,
            )
            .add(
                "cell slack beyond C (unused / retired-pending cells)",
                total_cell_bytes.saturating_sub(element_bytes),
                OverheadClass::PerSlotMetadata,
            )
            .add(
                format!("pooled segments ({pooled} parked for reuse)"),
                pooled * seg_bytes,
                OverheadClass::Linkage,
            )
            .add("head + tail counters", 16, OverheadClass::Counters)
            .add("head/tail segment hints", 16, OverheadClass::Linkage)
    }
}

impl Drop for SegmentQueue {
    fn drop(&mut self) {
        // SAFETY: exclusive access; free the remaining chain directly.
        unsafe {
            let guard = epoch::unprotected();
            let mut s = self.head_seg.load(Ordering::SeqCst, guard);
            while !s.is_null() {
                let next = s.deref().next.load(Ordering::SeqCst, guard);
                drop(s.into_owned());
                s = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_fifo() {
        let q = SegmentQueue::with_capacity_and_segment_size(8, 3);
        let mut h = q.register();
        for v in 1..=8 {
            q.enqueue(&mut h, v).unwrap();
        }
        assert_eq!(q.enqueue(&mut h, 9), Err(Full(9)));
        for v in 1..=8 {
            assert_eq!(q.dequeue(&mut h), Some(v));
        }
        assert_eq!(q.dequeue(&mut h), None);
    }

    #[test]
    fn crosses_many_segments() {
        let q = SegmentQueue::with_capacity_and_segment_size(4, 2);
        let mut h = q.register();
        for round in 0..200u64 {
            for i in 0..4 {
                q.enqueue(&mut h, 1 + round * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(q.dequeue(&mut h), Some(1 + round * 4 + i));
            }
        }
        // 200 rounds × 4 positions over K=2 → 400 segments created, but only
        // a handful live at any time.
        assert!(q.segments_allocated() >= 400);
        assert!(
            q.segments_live() <= 4 + 2,
            "live segments stay bounded, got {}",
            q.segments_live()
        );
    }

    #[test]
    fn default_k_is_sqrt_c() {
        let q = SegmentQueue::with_capacity(1024);
        assert_eq!(q.segment_size(), 32);
    }

    #[test]
    fn reserved_tokens_rejected() {
        let q = SegmentQueue::with_capacity_and_segment_size(2, 2);
        let mut h = q.register();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = q.enqueue(&mut h, 0);
        }))
        .is_err());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = q.enqueue(&mut h, u64::MAX);
        }))
        .is_err());
    }

    #[test]
    fn overhead_shrinks_with_larger_k_until_slack_dominates() {
        // At steady state (freshly filled), overhead ≈ headers·C/K + slack.
        let c = 1 << 12;
        let mut ovh = Vec::new();
        for k in [4usize, 64, 1 << 12] {
            let q = SegmentQueue::with_capacity_and_segment_size(c, k);
            let mut h = q.register();
            for v in 1..=c as u64 {
                q.enqueue(&mut h, v).unwrap();
            }
            ovh.push((k, q.overhead_bytes()));
        }
        // Tiny K pays many headers; mid K is cheap; the shape check proper
        // is experiment E2.
        assert!(
            ovh[0].1 > ovh[1].1,
            "K=4 should cost more than K=64: {ovh:?}"
        );
    }

    #[test]
    fn concurrent_producers_consumers() {
        let q = Arc::new(SegmentQueue::with_capacity_and_segment_size(32, 4));
        let per = 3_000u64;
        let producers = 3u64;
        let total = per * producers;
        let mut ths = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            ths.push(std::thread::spawn(move || {
                let mut h = q.register();
                for i in 0..per {
                    let v = 1 + p * per + i;
                    while q.enqueue(&mut h, v).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut h = q.register();
        let mut seen = std::collections::HashSet::new();
        while (seen.len() as u64) < total {
            match q.dequeue(&mut h) {
                Some(v) => assert!(seen.insert(v), "duplicate {v}"),
                None => std::thread::yield_now(),
            }
        }
        for t in ths {
            t.join().unwrap();
        }
        for v in 1..=total {
            assert!(seen.contains(&v), "missing {v}");
        }
        assert!(q.is_empty());
    }

    // `pooled_queue_stops_allocating_after_warmup` lives in
    // `tests/segment_pool.rs`, a binary of its own: it bounds *fresh
    // allocations*, and a sibling test's thread preempted while pinned
    // stalls the process-wide epoch collector and with it the pool.

    #[test]
    fn pooled_queue_concurrent_conservation() {
        let q = Arc::new(SegmentQueue::with_pooled_segments(16, 4));
        let per = 3_000u64;
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let mut h = q2.register();
            for v in 1..=per {
                while q2.enqueue(&mut h, v).is_err() {
                    std::thread::yield_now();
                }
            }
        });
        let mut h = q.register();
        let mut expect = 1u64;
        while expect <= per {
            match q.dequeue(&mut h) {
                Some(v) => {
                    assert_eq!(v, expect);
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        t.join().unwrap();
    }

    #[test]
    fn batch_runs_cross_segments_and_match_fifo() {
        let q = SegmentQueue::with_capacity_and_segment_size(8, 3);
        let mut h = q.register();
        // Run spans 3 segments; the batch path must walk them all.
        assert_eq!(q.enqueue_many(&mut h, &(1..=8).collect::<Vec<_>>()), 8);
        assert_eq!(q.enqueue_many(&mut h, &[9]), 0, "full stops the run");
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(&mut h, 5, &mut out), 5);
        assert_eq!(out, vec![1, 2, 3, 4, 5], "segment runs preserve FIFO");
        assert_eq!(
            q.enqueue_many(&mut h, &[9, 10]),
            2,
            "wraps into new segments"
        );
        assert_eq!(q.dequeue_many(&mut h, 10, &mut out), 5);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn concurrent_batch_producers_conserve() {
        let q = Arc::new(SegmentQueue::with_capacity_and_segment_size(32, 4));
        let per = 2_000u64;
        let producers = 2u64;
        let total = per * producers;
        let mut ths = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            ths.push(std::thread::spawn(move || {
                let mut h = q.register();
                let vals: Vec<u64> = (0..per).map(|i| 1 + p * per + i).collect();
                let mut sent = 0usize;
                while sent < vals.len() {
                    let batch_end = (sent + 16).min(vals.len());
                    sent += q.enqueue_many(&mut h, &vals[sent..batch_end]);
                    if sent < batch_end {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut h = q.register();
        let mut seen = std::collections::HashSet::new();
        let mut buf = Vec::new();
        while (seen.len() as u64) < total {
            buf.clear();
            if q.dequeue_many(&mut h, 16, &mut buf) == 0 {
                std::thread::yield_now();
            }
            for &v in &buf {
                assert!(seen.insert(v), "duplicate {v}");
            }
        }
        for t in ths {
            t.join().unwrap();
        }
        assert!(q.is_empty());
    }

    #[test]
    fn live_segments_bounded_under_churn() {
        let q = Arc::new(SegmentQueue::with_capacity_and_segment_size(64, 8));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let mut h = q2.register();
            for v in 1..=20_000u64 {
                while q2.enqueue(&mut h, v).is_err() {
                    std::thread::yield_now();
                }
            }
        });
        let mut h = q.register();
        let mut peak = 0usize;
        let mut got = 0u64;
        while got < 20_000 {
            if q.dequeue(&mut h).is_some() {
                got += 1;
            } else {
                std::thread::yield_now();
            }
            peak = peak.max(q.segments_live());
        }
        t.join().unwrap();
        // C/K = 8 live segments plus a small constant per thread.
        assert!(
            peak <= 8 + 4,
            "peak live segments {peak} exceeds C/K + O(T)"
        );
    }
}
