//! **Listing 4** — Θ(T) memory overhead via DCSS.
//!
//! `DCSS(&a[i], expected, new, &counter, expectedCounter)` atomically
//! updates a slot *only if the positioning counter has not moved*, which
//! eliminates the ABA hazard without versioned nulls or distinct elements:
//! a delayed slot update from an old round necessarily carries an old
//! counter expectation and fails the second comparison. The loop is the
//! shared [`CounterQueue`]; [`CounterGuarded`] swaps its slot CAS for the
//! DCSS and its slot load for the arena's helping read.
//!
//! The DCSS primitive is built from recyclable descriptors (see `bq-dcss`);
//! only `2·T` descriptors ever exist, so the queue's total overhead is
//! Θ(T) — matching the paper's lower bound, with the trade-off (paper §2.5)
//! that slots must be able to hold descriptor references, which costs the
//! top bit of the value domain.

use std::sync::Arc;

use bq_dcss::DcssArena;

use crate::counter::{CounterQueue, SlotRule};
use crate::simx::SimAtomicU64;
use crate::token::NULL;
use bq_memtrack::{FootprintBreakdown, OverheadClass};

/// The [`SlotRule`] of Listing 4: a single unversioned `⊥`, and every slot
/// update a DCSS that also compares the positioning counter. Owns the
/// (possibly shared) descriptor arena.
pub struct CounterGuarded {
    arena: Arc<DcssArena>,
}

/// Per-thread handle carrying the DCSS descriptor-pool thread id.
#[derive(Debug)]
pub struct DcssHandle {
    tid: usize,
}

impl DcssHandle {
    /// Handle on tid 0 without consuming a registration slot. Only sound
    /// under exclusive access (used by `BoxedQueue::drop`).
    pub(crate) fn exclusive() -> Self {
        DcssHandle { tid: 0 }
    }
}

impl SlotRule for CounterGuarded {
    type Handle = DcssHandle;

    fn register(&self) -> DcssHandle {
        // Ids come from the arena so they stay unique across every queue
        // sharing it. Note: a thread touching several queues of a group
        // holds one handle (and descriptor pair) per queue.
        DcssHandle {
            tid: self.arena.register_tid(),
        }
    }

    fn vacant(_round: u64) -> u64 {
        NULL
    }

    /// The read helps any in-flight DCSS on the slot to completion first.
    /// Like [`update`](SlotRule::update) it is one explorer step: DCSS is
    /// the paper's primitive, its descriptors `bq-dcss`'s subject (§11.4).
    #[inline]
    fn read(&self, slot: &SimAtomicU64) -> u64 {
        slot.read_step(|raw| self.arena.read(raw))
    }

    /// `DCSS(slot, from, to, counter, pos)`: iff `counter` is still `pos`.
    #[inline]
    fn update(
        &self,
        h: &mut DcssHandle,
        slot: &SimAtomicU64,
        from: u64,
        to: u64,
        counter: &SimAtomicU64,
        pos: u64,
    ) -> bool {
        slot.update_step(from, to, |raw| {
            self.arena
                .dcss(h.tid, raw, from, to, counter.raw(), pos)
                .succeeded()
        })
    }

    fn footprint(&self, base: FootprintBreakdown) -> FootprintBreakdown {
        // A shared arena is charged to the group once; each member then
        // reports its amortized share.
        let sharers = Arc::strong_count(&self.arena).max(1);
        let shared = if sharers > 1 {
            format!(" (shared {sharers} ways)")
        } else {
            String::new()
        };
        base.add(
            format!(
                "2T = {} DCSS descriptors{shared}",
                2 * self.arena.max_threads()
            ),
            self.arena.footprint_bytes() / sharers,
            OverheadClass::Descriptors,
        )
    }
}

/// Bounded queue with Θ(T) overhead using DCSS (paper Listing 4).
///
/// The descriptor arena can be **shared between queues**
/// ([`DcssQueue::group`]), reproducing the paper's §3.5 "system-wide
/// overhead" remark: `k` queues of capacity `C` need only one Θ(T)
/// descriptor pool between them, so the per-queue overhead amortizes to
/// the two counters.
pub type DcssQueue = CounterQueue<CounterGuarded>;

impl CounterQueue<CounterGuarded> {
    /// Create a queue of capacity `c` serving up to `max_threads`
    /// registered threads.
    pub fn with_capacity_and_threads(c: usize, max_threads: usize) -> Self {
        Self::with_shared_arena(c, Arc::new(DcssArena::new(max_threads)))
    }

    /// Create a queue over an existing (possibly shared) descriptor arena.
    ///
    /// A thread uses the same `tid` across every queue of the group, so
    /// the per-thread registration must be coordinated by the caller when
    /// sharing manually; [`DcssQueue::group`] does this for you.
    pub fn with_shared_arena(c: usize, arena: Arc<DcssArena>) -> Self {
        Self::with_rule(c, CounterGuarded { arena })
    }

    /// Create `k` queues of capacity `c` sharing **one** Θ(T) descriptor
    /// arena — the paper's §3.5 system-wide overhead observation: total
    /// overhead is `O(T + k)` counters, not `O(k·T)`.
    pub fn group(k: usize, c: usize, max_threads: usize) -> Vec<Self> {
        let arena = Arc::new(DcssArena::new(max_threads));
        (0..k)
            .map(|_| Self::with_shared_arena(c, Arc::clone(&arena)))
            .collect()
    }

    /// Bytes of the shared arena (counted once per group).
    pub fn arena_bytes(&self) -> usize {
        self.rule.arena.footprint_bytes()
    }

    /// Does this queue share its arena with others?
    pub fn arena_is_shared(&self) -> bool {
        Arc::strong_count(&self.rule.arena) > 1
    }

    /// Number of threads the descriptor pool serves.
    pub fn max_threads(&self) -> usize {
        self.rule.arena.max_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{ConcurrentQueue, Full};
    use bq_memtrack::MemoryFootprint;
    use std::sync::Arc;

    #[test]
    fn sequential_fifo() {
        let q = DcssQueue::with_capacity_and_threads(4, 2);
        let mut h = q.register();
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
    fn repeated_values_allowed() {
        // Unlike Listing 2, no distinctness assumption: the counter guard
        // in the DCSS provides ABA protection.
        let q = DcssQueue::with_capacity_and_threads(2, 1);
        let mut h = q.register();
        for _ in 0..300 {
            q.enqueue(&mut h, 5).unwrap();
            q.enqueue(&mut h, 5).unwrap();
            assert_eq!(q.dequeue(&mut h), Some(5));
            assert_eq!(q.dequeue(&mut h), Some(5));
        }
    }

    #[test]
    fn overhead_linear_in_threads_constant_in_capacity() {
        let ovh = |c: usize, t: usize| DcssQueue::with_capacity_and_threads(c, t).overhead_bytes();
        // Constant in C.
        assert_eq!(ovh(64, 4), ovh(1 << 14, 4));
        // Linear in T.
        let t1 = ovh(64, 1);
        let t8 = ovh(64, 8);
        let t64 = ovh(64, 64);
        assert_eq!((t8 - t1) / 7, (t64 - t8) / 56, "per-thread cost is uniform");
        assert!(t64 > t8 && t8 > t1);
    }

    #[test]
    fn registration_bounded_by_t() {
        let q = DcssQueue::with_capacity_and_threads(4, 2);
        let _a = q.register();
        let _b = q.register();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = q.register();
        }))
        .is_err());
    }

    #[test]
    fn shared_arena_amortizes_group_overhead() {
        // §3.5 "System-wide overhead": k queues, one Θ(T) pool.
        let k = 8;
        let group = DcssQueue::group(k, 64, 4);
        let solo = DcssQueue::with_capacity_and_threads(64, 4);
        let group_total: usize = group.iter().map(|q| q.overhead_bytes()).sum();
        let naive_total = k * solo.overhead_bytes();
        assert!(group[0].arena_is_shared());
        assert!(!solo.arena_is_shared());
        // The group pays the arena once plus per-queue counters; the naive
        // replication pays it k times.
        assert!(
            group_total < naive_total / 2,
            "shared: {group_total} B vs replicated: {naive_total} B"
        );
        assert_eq!(
            group_total,
            solo.arena_bytes() + k * 16,
            "group total = one arena + k counter pairs"
        );
    }

    #[test]
    fn shared_arena_queues_work_concurrently() {
        let group = DcssQueue::group(2, 8, 4);
        let (qa, qb) = (&group[0], &group[1]);
        let mut ha = qa.register();
        let mut hb = qb.register();
        // Interleaved use of both queues through the same descriptors.
        for v in 1..=200u64 {
            qa.enqueue(&mut ha, v).unwrap();
            qb.enqueue(&mut hb, v + 1000).unwrap();
            assert_eq!(qa.dequeue(&mut ha), Some(v));
            assert_eq!(qb.dequeue(&mut hb), Some(v + 1000));
        }
        // Cross-thread: one thread per queue, shared arena under load.
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut h = qa.register();
                for v in 1..=2000u64 {
                    while qa.enqueue(&mut h, v).is_err() {
                        std::thread::yield_now();
                    }
                    while qa.dequeue(&mut h).is_none() {
                        std::thread::yield_now();
                    }
                }
            });
            s.spawn(|| {
                let mut h = qb.register();
                for v in 1..=2000u64 {
                    while qb.enqueue(&mut h, v).is_err() {
                        std::thread::yield_now();
                    }
                    while qb.dequeue(&mut h).is_none() {
                        std::thread::yield_now();
                    }
                }
            });
        });
    }

    #[test]
    fn concurrent_repeated_values_conserved() {
        let q = Arc::new(DcssQueue::with_capacity_and_threads(4, 4));
        let per = 3_000u64;
        let producers = 2u64;
        let total = per * producers;
        let mut ths = Vec::new();
        for _ in 0..producers {
            let q = Arc::clone(&q);
            ths.push(std::thread::spawn(move || {
                let mut h = q.register();
                for _ in 0..per {
                    while q.enqueue(&mut h, 42).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut h = q.register();
        let mut got = 0u64;
        while got < total {
            match q.dequeue(&mut h) {
                Some(v) => {
                    assert_eq!(v, 42);
                    got += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        for t in ths {
            t.join().unwrap();
        }
        assert_eq!(q.dequeue(&mut h), None, "exact conservation");
    }

    #[test]
    fn concurrent_distinct_values_conserved() {
        let q = Arc::new(DcssQueue::with_capacity_and_threads(8, 4));
        let per = 2_000u64;
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
    }
}
