//! Vyukov's bounded MPMC queue — the de-facto industrial design the paper
//! cites (its ref. 24): each slot carries a 64-bit **sequence number** that
//! encodes which round may read/write it. That per-slot word is exactly the Θ(C)
//! metadata the paper's lower bound says you cannot get rid of without
//! paying Θ(T) elsewhere.
//!
//! ## Semantic relaxation (paper §1, "ring buffers … relax the semantics")
//!
//! `enqueue` may report *full* spuriously: if the consumer of the same slot
//! one round earlier has claimed it (won the head CAS) but not yet released
//! its sequence word, the producer observes a stale sequence and fails even
//! though fewer than `C` elements are present. Symmetrically `dequeue` may
//! report *empty* while an in-flight producer holds the head slot. This is
//! inherent to the design and is precisely the trade-off the paper predicts
//! Θ(C)-overhead ring buffers must make somewhere: strict bounded-queue
//! linearizability, the progress guarantee, or constant overhead. Under a
//! retry discipline (as in all workloads here) no element is ever lost or
//! duplicated.

use bq_core::queue::{ConcurrentQueue, Full};
use bq_core::relocatable::{PadAtomicU64, RelocBox, RelocRing, RingReadGrant, RingWriteGrant};
use bq_memtrack::{FootprintBreakdown, MemoryFootprint, OverheadClass};

/// Vyukov bounded MPMC queue (Θ(C) overhead baseline).
///
/// Since the relocatable refactor (DESIGN.md §10) this is a thin wrapper:
/// the sequenced-slot array and the cache-padded counters live in a
/// [`RelocRing<u64>`](bq_core::relocatable::RelocRing) layout in a
/// [`RelocBox`], and the protocol itself is
/// the ring's `vy_*` methods — the same bytes `bq-shm` places into an
/// `mmap`-shared segment. The sequence protocol gives each slot a unique
/// writer per round; readers synchronize through `seq` (Acquire/Release
/// pairs).
pub struct VyukovQueue {
    ring: RelocBox<RelocRing<u64>>,
}

/// `VyukovQueue` needs no per-thread state.
#[derive(Debug, Default, Clone, Copy)]
pub struct VyukovHandle;

impl VyukovQueue {
    /// Create a queue of capacity `c ≥ 2`.
    ///
    /// Capacity 1 is rejected: with a single slot, the "written this
    /// round" sequence value (`pos + 1`) collides with the next round's
    /// "free" expectation (`pos + C = pos + 1`), making slot states
    /// ambiguous. This is an inherent constraint of the original
    /// algorithm's encoding, not of this port.
    pub fn with_capacity(c: usize) -> Self {
        assert!(c >= 2, "Vyukov's sequence encoding requires capacity ≥ 2");
        VyukovQueue {
            ring: RelocBox::new(c),
        }
    }

    /// Reserve up to `n` slots for a zero-copy in-place write (DESIGN.md
    /// §12): the run is claimed with one tail CAS and handed out as
    /// `&mut [MaybeUninit<u64>]`; committed slots publish through the
    /// normal sequence-word protocol, the rest abort (consumers skip
    /// them). `None` when full (same relaxed report as `enqueue`).
    pub fn try_reserve(&self, n: usize) -> Option<RingWriteGrant<'_, u64>> {
        self.ring.try_reserve(n)
    }

    /// Claim up to `n` published elements for a zero-copy in-place read
    /// (DESIGN.md §12), borrowing them as `&[u64]` straight over the
    /// slot memory; the slots recycle when the grant drops. `None` when
    /// empty (same relaxed report as `dequeue`).
    pub fn try_read(&self, n: usize) -> Option<RingReadGrant<'_, u64>> {
        self.ring.try_read(n)
    }
}

impl ConcurrentQueue for VyukovQueue {
    type Handle = VyukovHandle;

    fn register(&self) -> VyukovHandle {
        VyukovHandle
    }

    fn enqueue(&self, _h: &mut VyukovHandle, v: u64) -> Result<(), Full> {
        self.ring.vy_enqueue(v).map_err(Full)
    }

    fn dequeue(&self, _h: &mut VyukovHandle) -> Option<u64> {
        self.ring.vy_dequeue()
    }

    /// Native batch path: **slot runs**. Each contiguous run is one write
    /// grant — the ring claims `[pos, pos+m)` with a *single* tail CAS,
    /// which gives exclusive write access to every claimed slot (a slot's
    /// sequence reaches `pos + i` exactly once, and only the round-owner
    /// advances it), then publishes them in order. One CAS per run
    /// replaces one CAS per element; a batch that straddles the wrap edge
    /// is two runs. (Implementation: `RelocRing::vy_enqueue_many`.)
    fn enqueue_many(&self, _h: &mut VyukovHandle, vs: &[u64]) -> usize {
        self.ring.vy_enqueue_many(vs)
    }

    /// Native batch dequeue: the mirror, one read grant per run of
    /// published slots (`seq == pos + i + 1`).
    fn dequeue_many(&self, _h: &mut VyukovHandle, max: usize, out: &mut Vec<u64>) -> usize {
        self.ring.vy_dequeue_many(max, out)
    }

    fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    fn max_token(&self) -> u64 {
        u64::MAX
    }

    fn len(&self) -> usize {
        self.ring.counter_len()
    }
}

impl MemoryFootprint for VyukovQueue {
    fn footprint(&self) -> FootprintBreakdown {
        let c = self.ring.capacity();
        FootprintBreakdown::with_elements(c * 8)
            .add(
                "per-slot sequence numbers (8 B × C)",
                c * 8,
                OverheadClass::PerSlotMetadata,
            )
            .add(
                "head + tail counters (cache-padded)",
                2 * std::mem::size_of::<PadAtomicU64>(),
                OverheadClass::Counters,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_fifo() {
        let q = VyukovQueue::with_capacity(4);
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
    fn accepts_any_token_including_zero() {
        // The sequence word, not the value, encodes slot state: unlike the
        // constant-overhead designs there is no reserved null.
        let q = VyukovQueue::with_capacity(2);
        let mut h = q.register();
        q.enqueue(&mut h, 0).unwrap();
        q.enqueue(&mut h, u64::MAX).unwrap();
        assert_eq!(q.dequeue(&mut h), Some(0));
        assert_eq!(q.dequeue(&mut h), Some(u64::MAX));
    }

    #[test]
    fn wraparound_repeated_values() {
        let q = VyukovQueue::with_capacity(3);
        let mut h = q.register();
        for _ in 0..200 {
            for _ in 0..3 {
                q.enqueue(&mut h, 7).unwrap();
            }
            for _ in 0..3 {
                assert_eq!(q.dequeue(&mut h), Some(7));
            }
        }
    }

    #[test]
    fn pow2_and_non_pow2_capacities_behave_identically() {
        // S1 (ISSUE 8): indexing uses a mask when C is a power of two
        // and `%` otherwise; the observable behaviour must be the same
        // apart from the capacity itself. Drive both shapes through the
        // identical op sequence, including wraparound and full/empty
        // reports, and compare against the FIFO model.
        for &c in &[2usize, 3, 4, 5, 7, 8, 16, 17] {
            let q = VyukovQueue::with_capacity(c);
            let mut h = q.register();
            let mut next = 0u64;
            let mut expect = 0u64;
            for _ in 0..5 {
                // Fill to the exact capacity, then observe full.
                loop {
                    match q.enqueue(&mut h, next) {
                        Ok(()) => next += 1,
                        Err(Full(v)) => {
                            assert_eq!(v, next);
                            break;
                        }
                    }
                }
                assert_eq!(q.len(), c, "single-threaded full is exact");
                // Drain fully, then observe empty.
                while let Some(v) = q.dequeue(&mut h) {
                    assert_eq!(v, expect, "FIFO across the wrap");
                    expect += 1;
                }
                assert_eq!(expect, next, "drained exactly what was queued");
            }
            assert_eq!(next, 5 * c as u64);
        }
    }

    #[test]
    fn grant_paths_interoperate_with_moves() {
        let q = VyukovQueue::with_capacity(8);
        let mut h = q.register();
        q.enqueue(&mut h, 1).unwrap();
        {
            let mut g = q.try_reserve(3).unwrap();
            assert_eq!(g.len(), 3);
            for (i, s) in g.uninit_slice().iter_mut().enumerate() {
                s.write(2 + i as u64);
            }
            g.commit(3);
        }
        {
            let g = q.try_read(2).unwrap();
            assert_eq!(&*g, &[1, 2]);
        }
        assert_eq!(q.dequeue(&mut h), Some(3));
        // An aborted reservation is skipped, not delivered.
        drop(q.try_reserve(2).unwrap());
        q.enqueue(&mut h, 5).unwrap();
        assert_eq!(q.dequeue(&mut h), Some(4));
        assert_eq!(q.dequeue(&mut h), Some(5));
        assert_eq!(q.dequeue(&mut h), None);
    }

    #[test]
    fn overhead_linear_in_capacity() {
        let o1 = VyukovQueue::with_capacity(1 << 8).overhead_bytes();
        let o2 = VyukovQueue::with_capacity(1 << 12).overhead_bytes();
        assert!(o2 > o1);
        // The per-slot term dominates: ratio approaches 16×.
        assert_eq!((o2 - o1) / ((1 << 12) - (1 << 8)), 8);
    }

    #[test]
    fn slot_run_batches_match_fifo() {
        let q = VyukovQueue::with_capacity(4);
        let mut h = q.register();
        assert_eq!(
            q.enqueue_many(&mut h, &[1, 2, 3, 4, 5, 6]),
            4,
            "run stops at full"
        );
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(&mut h, 2, &mut out), 2);
        assert_eq!(out, vec![1, 2]);
        // Run wraps around the ring boundary.
        assert_eq!(q.enqueue_many(&mut h, &[5, 6]), 2);
        assert_eq!(q.dequeue_many(&mut h, 10, &mut out), 4);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6], "slot runs preserve FIFO");
        assert_eq!(q.dequeue_many(&mut h, 1, &mut out), 0);
    }

    #[test]
    fn batch_claims_entire_ring_in_one_cas() {
        let q = VyukovQueue::with_capacity(8);
        let mut h = q.register();
        let vs: Vec<u64> = (1..=8).collect();
        assert_eq!(q.enqueue_many(&mut h, &vs), 8);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(&mut h, 8, &mut out), 8);
        assert_eq!(out, vs);
    }

    #[test]
    fn concurrent_batch_transfer_conserves() {
        let q = Arc::new(VyukovQueue::with_capacity(8));
        let per = 4_000u64;
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let mut h = q2.register();
            let vals: Vec<u64> = (1..=per).collect();
            let mut sent = 0usize;
            while sent < vals.len() {
                let end = (sent + 5).min(vals.len());
                sent += q2.enqueue_many(&mut h, &vals[sent..end]);
                if sent < end {
                    std::thread::yield_now();
                }
            }
        });
        let mut h = q.register();
        let mut got = Vec::new();
        while got.len() < per as usize {
            if q.dequeue_many(&mut h, 7, &mut got) == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        let expect: Vec<u64> = (1..=per).collect();
        assert_eq!(got, expect, "SPSC batch runs preserve order exactly");
    }

    #[test]
    fn concurrent_transfer_conserves() {
        let q = Arc::new(VyukovQueue::with_capacity(8));
        let per = 4_000u64;
        let producers = 2u64;
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
        assert!(q.dequeue(&mut h).is_none());
    }
}
