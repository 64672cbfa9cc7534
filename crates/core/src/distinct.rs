//! **Listing 2** — constant memory overhead with distinct elements.
//!
//! The paper shows that a bounded queue with *O(1)* additional memory is
//! possible under two assumptions:
//!
//! 1. all inserted elements are **distinct** (common in practice: pointers
//!    to fresh objects, unique ids, …), and
//! 2. an unlimited supply of **versioned ⊥ values** exists, obtained by
//!    stealing one bit from the value word.
//!
//! Each slot cycles through `⊥_r → element → ⊥_{r+1} → element → …` where
//! `r = counter / C` is the round. Because every (slot, round) pair has a
//! unique null, a CAS poised on a stale round can never take effect, which
//! removes the ABA hazard that breaks [`crate::naive::NaiveQueue`]. The
//! loop itself is the shared [`CounterQueue`]; [`VersionedNull`] is the
//! one line that differs.
//!
//! The distinctness assumption is the caller's obligation: this queue
//! checks the token *domain* (63-bit, non-null) but cannot detect
//! duplicates without Θ(C) extra memory — which is the entire subject of
//! the paper. Feeding duplicates re-introduces ABA on the element CAS;
//! experiment E4 demonstrates the resulting non-linearizable execution.

use crate::counter::{CounterQueue, SlotRule};
use crate::token::versioned_null;

/// The [`SlotRule`] of Listing 2: the empty slot of round `r` holds the
/// versioned `⊥_r`, which no stale slot CAS can match.
#[derive(Debug, Default, Clone, Copy)]
pub struct VersionedNull;

/// `DistinctQueue` needs no per-thread state.
#[derive(Debug, Default, Clone, Copy)]
pub struct DistinctHandle;

impl SlotRule for VersionedNull {
    type Handle = DistinctHandle;

    fn register(&self) -> DistinctHandle {
        DistinctHandle
    }

    fn vacant(round: u64) -> u64 {
        versioned_null(round)
    }
}

/// Bounded queue with Θ(1) memory overhead under the distinct-elements
/// assumption (paper Listing 2). All slots start at `⊥₀`.
pub type DistinctQueue = CounterQueue<VersionedNull>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{ConcurrentQueue, Full};
    use crate::token::TokenGen;
    use bq_memtrack::MemoryFootprint;
    use std::sync::Arc;

    #[test]
    fn sequential_fifo() {
        let q = DistinctQueue::with_capacity(4);
        let mut h = q.register();
        for v in 1..=4 {
            q.enqueue(&mut h, v).unwrap();
        }
        assert_eq!(q.enqueue(&mut h, 99), Err(Full(99)));
        for v in 1..=4 {
            assert_eq!(q.dequeue(&mut h), Some(v));
        }
        assert_eq!(q.dequeue(&mut h), None);
    }

    #[test]
    fn wraparound_rounds_use_distinct_nulls() {
        let q = DistinctQueue::with_capacity(2);
        let mut h = q.register();
        let gen = TokenGen::new();
        for _ in 0..100 {
            let a = gen.next();
            let b = gen.next();
            q.enqueue(&mut h, a).unwrap();
            q.enqueue(&mut h, b).unwrap();
            assert_eq!(q.dequeue(&mut h), Some(a));
            assert_eq!(q.dequeue(&mut h), Some(b));
        }
        // After 100 rounds, slot 0 holds ⊥₁₀₀ — not the initial ⊥₀.
        assert_eq!(
            q.slot_word(0),
            versioned_null(100),
            "slot nulls advance with the round"
        );
    }

    #[test]
    fn overhead_constant_in_capacity() {
        for shift in [3usize, 8, 14] {
            let q = DistinctQueue::with_capacity(1 << shift);
            assert_eq!(q.overhead_bytes(), 16);
            assert_eq!(q.element_bytes(), (1 << shift) * 8);
        }
    }

    #[test]
    fn concurrent_distinct_tokens_conserved() {
        // Producers enqueue disjoint token ranges; the main thread drains
        // everything. The multiset out must equal the multiset in.
        let q = Arc::new(DistinctQueue::with_capacity(16));
        let per_thread = 2_000u64;
        let producers = 3u64;
        let total = per_thread * producers;

        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut h = q.register();
                let gen = TokenGen::starting_at(1 + p * per_thread);
                for _ in 0..per_thread {
                    let v = gen.next();
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
                Some(v) => assert!(seen.insert(v), "duplicate token {v}"),
                None => std::thread::yield_now(),
            }
        }
        for th in handles {
            th.join().unwrap();
        }
        assert_eq!(seen.len() as u64, total);
        assert!(q.is_empty());
        // Every token from every producer's range is present.
        for v in 1..=total {
            assert!(seen.contains(&v), "missing token {v}");
        }
    }

    #[test]
    fn per_producer_order_preserved() {
        // FIFO per producer: tokens from one producer must come out in
        // insertion order even under a concurrent producer.
        let q = Arc::new(DistinctQueue::with_capacity(8));
        let n = 4_000u64;
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let mut h = q2.register();
            for v in 1..=n {
                while q2.enqueue(&mut h, v).is_err() {
                    std::thread::yield_now();
                }
            }
        });
        let q3 = Arc::clone(&q);
        let noise = std::thread::spawn(move || {
            let mut h = q3.register();
            for v in (1_000_000..1_000_000 + n).step_by(7) {
                while q3.enqueue(&mut h, v).is_err() {
                    std::thread::yield_now();
                }
            }
        });
        let mut h = q.register();
        let mut last_main = 0u64;
        let mut taken = 0u64;
        while taken < n + n.div_ceil(7) {
            if let Some(v) = q.dequeue(&mut h) {
                taken += 1;
                if v < 1_000_000 {
                    assert!(
                        v > last_main,
                        "per-producer FIFO violated: {v} after {last_main}"
                    );
                    last_main = v;
                }
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        noise.join().unwrap();
    }
}
