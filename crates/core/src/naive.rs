//! The **naive constant-overhead queue** — the design the paper's lower
//! bound proves impossible.
//!
//! This is Listing 2 with the versioned nulls stripped — the shared
//! [`CounterQueue`] loop under the [`Unversioned`] rule: a pre-allocated
//! array of `C` slots, two positioning counters, CAS everywhere, and a
//! single unversioned `⊥`. Its memory overhead is Θ(1) — exactly the
//! footprint practitioners keep trying to achieve (paper §1, "Practical
//! impact") — and it is **not linearizable**:
//!
//! * A thread poised on `CAS(&a[i], ⊥, e)` can fire a full round later and
//!   insert its element into the *middle* of the queue (the paper's
//!   Figure 3 scenario), after which the tail counter is driven past
//!   positions that never received an element and the full/empty equality
//!   checks are bypassed entirely.
//! * A thread poised on `CAS(&a[i], v, ⊥)` can, once the value `v` is
//!   re-enqueued into the same slot (values may repeat —
//!   value-independence!), steal it from the middle, violating FIFO.
//!
//! Both executions are constructed deterministically in `bq-sim`
//! (experiments E4/E8) and certified non-linearizable by the history
//! checker. The type is exported for those experiments and for the overhead
//! tables; it must not be used as a correct queue, which is the entire point
//! of the paper.

use crate::counter::{CounterQueue, SlotRule};
use crate::token::NULL;

/// The [`SlotRule`] of the strawman: every empty slot holds the same
/// unversioned `⊥`, so a slot CAS poised a round ago still matches.
#[derive(Debug, Default, Clone, Copy)]
pub struct Unversioned;

/// `NaiveQueue` needs no per-thread state.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveHandle;

impl SlotRule for Unversioned {
    type Handle = NaiveHandle;

    fn register(&self) -> NaiveHandle {
        NaiveHandle
    }

    fn vacant(_round: u64) -> u64 {
        NULL
    }
}

/// The ABA-unsound constant-overhead bounded queue (see module docs).
///
/// Overhead: two 8-byte counters — the Θ(1) the lower bound forbids for a
/// *correct* queue.
pub type NaiveQueue = CounterQueue<Unversioned>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{ConcurrentQueue, Full};
    use bq_memtrack::MemoryFootprint;

    fn q(c: usize) -> (NaiveQueue, NaiveHandle) {
        (NaiveQueue::with_capacity(c), NaiveHandle)
    }

    #[test]
    fn sequential_fifo() {
        let (q, mut h) = q(4);
        for v in 1..=4 {
            q.enqueue(&mut h, v).unwrap();
        }
        assert_eq!(q.enqueue(&mut h, 5), Err(Full(5)));
        for v in 1..=4 {
            assert_eq!(q.dequeue(&mut h), Some(v));
        }
        assert_eq!(q.dequeue(&mut h), None);
    }

    #[test]
    fn sequential_wraparound() {
        let (q, mut h) = q(3);
        for round in 0..50u64 {
            for i in 0..3 {
                q.enqueue(&mut h, 1 + round * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(q.dequeue(&mut h), Some(1 + round * 3 + i));
            }
        }
    }

    #[test]
    fn overhead_is_constant() {
        let small = NaiveQueue::with_capacity(8);
        let large = NaiveQueue::with_capacity(1 << 14);
        assert_eq!(small.overhead_bytes(), 16);
        assert_eq!(large.overhead_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_null_token() {
        let (q, mut h) = q(2);
        let _ = q.enqueue(&mut h, 0);
    }
}
