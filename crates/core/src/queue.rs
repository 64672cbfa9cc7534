//! The common bounded-queue interface and the sequential reference queue
//! (the paper's Figure 1).

use crate::token::InvalidToken;
use bq_memtrack::{FootprintBreakdown, MemoryFootprint, OverheadClass};

/// Error returned by `enqueue` when the queue is full; carries the rejected
/// value back to the caller, mirroring the paper's `enqueue(..): Bool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Full(pub u64);

impl std::fmt::Display for Full {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bounded queue is full (rejected value {})", self.0)
    }
}

impl std::error::Error for Full {}

/// Why `enqueue` can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// The queue holds `C` elements.
    Full(u64),
    /// The value is outside this queue's token domain.
    InvalidToken(InvalidToken),
}

/// The Bounded Queue abstraction of the paper (Section 3.2), over 64-bit
/// value tokens.
///
/// * `enqueue(x)`: if the queue size is less than `C`, adds `x` and returns
///   `Ok(())`; otherwise returns `Err(Full(x))`.
/// * `dequeue()`: retrieves the oldest element, or `None` if empty (the
///   paper's `⊥`).
///
/// Implementations that need a thread identity (the descriptor-based queues,
/// Listings 4 and 5) receive it through a per-thread
/// [`Handle`](ConcurrentQueue::Handle) obtained from
/// [`register`](ConcurrentQueue::register); queues without per-thread
/// state use a trivial handle. Handles must not be shared between threads
/// concurrently (they are `Send`, not `Sync`).
///
/// Each queue documents its **token domain** — e.g. Listing 2 reserves the
/// top bit for versioned nulls — and exposes it via
/// [`max_token`](ConcurrentQueue::max_token). Passing an out-of-domain
/// value panics in debug and is rejected in release.
pub trait ConcurrentQueue: Send + Sync {
    /// Per-thread access handle.
    type Handle: Send;

    /// Obtain a handle for the calling thread. Queues with a thread bound
    /// `T` panic when more than `T` handles are requested.
    fn register(&self) -> Self::Handle;

    /// Add `v` at the tail.
    fn enqueue(&self, h: &mut Self::Handle, v: u64) -> Result<(), Full>;

    /// Remove and return the head element, or `None` when empty.
    fn dequeue(&self, h: &mut Self::Handle) -> Option<u64>;

    /// The capacity `C`.
    fn capacity(&self) -> usize;

    /// Largest token value this queue accepts (inclusive).
    fn max_token(&self) -> u64;

    /// Approximate number of elements (exact when quiescent).
    fn len(&self) -> usize;

    /// Approximate emptiness check.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ---- batch extension (scale layer, DESIGN.md §8) ---------------------

    /// Enqueue a **prefix** of `vs`, returning how many elements were
    /// accepted. Stops at the first rejection (queue full).
    ///
    /// This is an *amortization* construct, not an atomic multi-enqueue:
    /// each element linearizes as an individual `enqueue`, in slice order,
    /// somewhere inside this call. Implementations override the default
    /// one-at-a-time loop where the algorithm admits a cheaper run
    /// ([`SegmentQueue`](crate::SegmentQueue) stays inside one segment,
    /// Vyukov-style rings claim a whole slot run with one CAS); the
    /// default is correct for every queue.
    fn enqueue_many(&self, h: &mut Self::Handle, vs: &[u64]) -> usize {
        let mut n = 0;
        for &v in vs {
            if self.enqueue(h, v).is_err() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Dequeue up to `max` elements, appending them to `out` in dequeue
    /// order; returns how many were taken. Stops early when the queue
    /// reports empty.
    ///
    /// Same contract as [`enqueue_many`](ConcurrentQueue::enqueue_many):
    /// every element is an individually linearizable `dequeue`; the batch
    /// only amortizes per-call costs.
    fn dequeue_many(&self, h: &mut Self::Handle, max: usize, out: &mut Vec<u64>) -> usize {
        let mut n = 0;
        while n < max {
            match self.dequeue(h) {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    // ---- observability (DESIGN.md §14) -----------------------------------

    /// A point-in-time reading of this queue's observability counters
    /// (the `obs` feature; [`MetricsSnapshot`](crate::obs::MetricsSnapshot)
    /// is always compiled). The default is empty: queues without counter
    /// blocks report nothing rather than fabricated zeros, and with `obs`
    /// off the instrumented queues report nothing too.
    fn metrics(&self) -> crate::obs::MetricsSnapshot {
        crate::obs::MetricsSnapshot::new()
    }

    /// Fold any handle-local counter deltas into the queue's shared
    /// block so a subsequent [`metrics`](ConcurrentQueue::metrics) read
    /// is exact for this handle's operations (DESIGN.md §14.1 — the
    /// hot path accumulates in the handle and folds in on drop, on this
    /// call, or every `LOCAL_FLUSH_PERIOD` operations). The default is
    /// a no-op: uninstrumented queues have nothing to fold.
    fn flush_metrics(&self, _h: &mut Self::Handle) {}
}

/// The sequential bounded queue of **Figure 1**: an array of `C` slots plus
/// two positioning counters, total overhead Θ(1).
///
/// This is the specification object: the linearizability checker and the
/// property tests replay concurrent histories against it. `head` and
/// `tail` count successful dequeues and enqueues; position `pos` lives in
/// slot `pos % C`. All mutation goes through `&mut self`.
#[derive(Clone)]
pub struct SeqRingQueue {
    slots: Box<[u64]>,
    /// Total successful dequeues.
    head: u64,
    /// Total successful enqueues.
    tail: u64,
}

impl std::fmt::Debug for SeqRingQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqRingQueue")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

impl SeqRingQueue {
    /// Create a queue of capacity `c > 0`.
    pub fn with_capacity(c: usize) -> Self {
        assert!(c > 0, "capacity must be positive");
        SeqRingQueue {
            slots: vec![0; c].into_boxed_slice(),
            head: 0,
            tail: 0,
        }
    }

    /// The slot of absolute position `pos`.
    fn slot(&self, pos: u64) -> usize {
        (pos % self.slots.len() as u64) as usize
    }

    /// The capacity `C`.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current number of elements.
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Is the queue full?
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Enqueue; returns the value back when full.
    pub fn enqueue(&mut self, v: u64) -> Result<(), Full> {
        if self.is_full() {
            return Err(Full(v));
        }
        let i = self.slot(self.tail);
        self.slots[i] = v;
        self.tail += 1;
        Ok(())
    }

    /// Dequeue the oldest element.
    pub fn dequeue(&mut self) -> Option<u64> {
        let v = self.peek()?;
        self.head += 1;
        Some(v)
    }

    /// Enqueue a prefix of `vs`; returns how many fit. The sequential
    /// specification of the batch extension: the property tests replay
    /// concurrent `enqueue_many` results against this oracle.
    pub fn enqueue_many(&mut self, vs: &[u64]) -> usize {
        let mut n = 0;
        for &v in vs {
            if self.enqueue(v).is_err() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Dequeue up to `max` elements into `out` (oldest first); returns the
    /// count. The sequential specification of `dequeue_many`.
    pub fn dequeue_many(&mut self, max: usize, out: &mut Vec<u64>) -> usize {
        let mut n = 0;
        while n < max {
            match self.dequeue() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Peek at the oldest element without removing it.
    pub fn peek(&self) -> Option<u64> {
        (!self.is_empty()).then(|| self.slots[self.slot(self.head)])
    }

    /// Iterate over the current elements, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (self.head..self.tail).map(move |pos| self.slots[self.slot(pos)])
    }
}

impl MemoryFootprint for SeqRingQueue {
    fn footprint(&self) -> FootprintBreakdown {
        // The algorithmic overhead is the two Figure 1 counters; the
        // boxed slice's pointer and length are not billed.
        FootprintBreakdown::with_elements(self.capacity() * 8).add(
            "head + tail counters",
            16,
            OverheadClass::Counters,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = SeqRingQueue::with_capacity(4);
        for v in 1..=4 {
            q.enqueue(v).unwrap();
        }
        for v in 1..=4 {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn full_rejects_with_value() {
        let mut q = SeqRingQueue::with_capacity(2);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        assert_eq!(q.enqueue(3), Err(Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn wraparound_many_rounds() {
        let mut q = SeqRingQueue::with_capacity(3);
        for round in 0..100u64 {
            for i in 0..3 {
                q.enqueue(round * 3 + i).unwrap();
            }
            assert!(q.is_full());
            for i in 0..3 {
                assert_eq!(q.dequeue(), Some(round * 3 + i));
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn interleaved_partial_fill() {
        let mut q = SeqRingQueue::with_capacity(4);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        assert_eq!(q.dequeue(), Some(1));
        q.enqueue(3).unwrap();
        q.enqueue(4).unwrap();
        q.enqueue(5).unwrap();
        assert!(q.is_full());
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        assert_eq!(q.peek(), Some(2));
    }

    #[test]
    fn constant_overhead() {
        // Figure 1: overhead is two counters regardless of capacity.
        let small = SeqRingQueue::with_capacity(8);
        let large = SeqRingQueue::with_capacity(1 << 16);
        assert_eq!(small.overhead_bytes(), large.overhead_bytes());
        assert_eq!(small.overhead_bytes(), 16);
        assert_eq!(large.element_bytes(), (1 << 16) * 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = SeqRingQueue::with_capacity(0);
    }

    #[test]
    fn full_error_display() {
        assert!(Full(7).to_string().contains('7'));
    }

    #[test]
    fn batch_oracle_accepts_prefix_and_drains_in_order() {
        let mut q = SeqRingQueue::with_capacity(4);
        assert_eq!(q.enqueue_many(&[1, 2]), 2);
        assert_eq!(q.enqueue_many(&[3, 4, 5, 6]), 2, "only 2 fit");
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(3, &mut out), 3);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(q.dequeue_many(10, &mut out), 1, "stops when empty");
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(q.dequeue_many(1, &mut out), 0);
    }

    #[test]
    fn clone_diverges() {
        // The copy carries the full state and then evolves independently.
        let mut q = SeqRingQueue::with_capacity(3);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        q.dequeue().unwrap();
        q.enqueue(3).unwrap();
        let mut c = q.clone();
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(c.dequeue(), Some(2));
        c.enqueue(9).unwrap();
        assert_eq!(
            q.iter().collect::<Vec<_>>(),
            vec![2, 3],
            "original untouched"
        );
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![3, 9]);
    }

    #[test]
    fn batch_oracle_empty_batch_is_noop() {
        let mut q = SeqRingQueue::with_capacity(2);
        assert_eq!(q.enqueue_many(&[]), 0);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(0, &mut out), 0);
        assert!(q.is_empty());
    }
}
