//! A structural model of the Tsigas–Zhang queue (SPAA 2001) — the paper's
//! §4 counterexample: the one prior attempt at a lock-free bounded queue
//! with O(1) additional memory.
//!
//! Tsigas & Zhang avoid per-slot versions by alternating between exactly
//! **two** null values (`⊥₀`, `⊥₁`) per round parity. The paper points out
//! the flaw: with only two nulls, a process that sleeps for *two rounds*
//! (head and tail making two full traversals) can wake and "incorrectly
//! place the element into the queue" — the ABA window is merely widened,
//! not closed. Listing 2's unbounded versioned nulls fix this under the
//! distinct-elements assumption.
//!
//! This type models that scheme on the Listing 2 skeleton — the same
//! [`CounterQueue`] loop, under a [`TwoNulls`] rule whose empty slot holds
//! `⊥_{round mod 2}` instead of `⊥_round`. It is **correct in the absence
//! of two-round stalls** (all sequential and bounded-stall executions) and
//! is included for the E9 overhead comparison and for the adversary
//! demonstration of its flaw.

use bq_core::counter::{CounterQueue, SlotRule};
use bq_core::token::TAG_BIT;

/// The two alternating nulls: `⊥₀` and `⊥₁`.
#[inline]
pub(crate) const fn two_null(parity: u64) -> u64 {
    TAG_BIT | (parity & 1)
}

/// The [`SlotRule`] of the two-null scheme: the empty slot of round `r`
/// holds `⊥_{r mod 2}`, so a slot's empty state recurs every two rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct TwoNulls;

/// `TwoNullQueue` needs no per-thread state.
#[derive(Debug, Default, Clone, Copy)]
pub struct TwoNullHandle;

impl SlotRule for TwoNulls {
    type Handle = TwoNullHandle;

    fn register(&self) -> TwoNullHandle {
        TwoNullHandle
    }

    fn vacant(round: u64) -> u64 {
        two_null(round)
    }
}

/// Tsigas–Zhang-style bounded queue with two null values (Θ(1) overhead;
/// unsound under two-round stalls — see module docs).
pub type TwoNullQueue = CounterQueue<TwoNulls>;

#[cfg(test)]
mod tests {
    use super::*;
    use bq_core::queue::{ConcurrentQueue, Full};
    use bq_memtrack::MemoryFootprint;

    #[test]
    fn sequential_fifo_and_wraparound() {
        let q = TwoNullQueue::with_capacity(3);
        let mut h = q.register();
        for round in 0..100u64 {
            for i in 0..3 {
                q.enqueue(&mut h, 1 + round * 3 + i).unwrap();
            }
            assert_eq!(q.enqueue(&mut h, 999), Err(Full(999)));
            for i in 0..3 {
                assert_eq!(q.dequeue(&mut h), Some(1 + round * 3 + i));
            }
            assert_eq!(q.dequeue(&mut h), None);
        }
    }

    #[test]
    fn nulls_alternate_between_rounds() {
        let q = TwoNullQueue::with_capacity(2);
        let mut h = q.register();
        // Round 0 dequeues write ⊥₁; round 1 dequeues write ⊥₀ again.
        q.enqueue(&mut h, 5).unwrap();
        q.enqueue(&mut h, 6).unwrap();
        q.dequeue(&mut h).unwrap();
        assert_eq!(q.slot_word(0), two_null(1));
        q.dequeue(&mut h).unwrap();
        q.enqueue(&mut h, 7).unwrap(); // round 1: expects ⊥₁
        q.dequeue(&mut h).unwrap();
        assert_eq!(q.slot_word(0), two_null(0), "parity wrapped");
    }

    #[test]
    fn constant_overhead() {
        assert_eq!(TwoNullQueue::with_capacity(8).overhead_bytes(), 16);
        assert_eq!(TwoNullQueue::with_capacity(1 << 14).overhead_bytes(), 16);
    }

    #[test]
    fn two_round_aba_window_exists() {
        // The flaw in miniature, single-threaded: after exactly two rounds
        // the slot state returns to the *same* null a stale CAS expects.
        // (The concurrent exploitation is the adversary's job; here we show
        // the state recurrence that makes it possible.)
        let q = TwoNullQueue::with_capacity(1);
        let mut h = q.register();
        let initial = q.slot_word(0);
        q.enqueue(&mut h, 5).unwrap();
        q.dequeue(&mut h).unwrap(); // round 0 → ⊥₁
        q.enqueue(&mut h, 6).unwrap();
        q.dequeue(&mut h).unwrap(); // round 1 → ⊥₀ again
        assert_eq!(
            q.slot_word(0),
            initial,
            "slot state recurs after two rounds — the ABA window"
        );
    }
}
