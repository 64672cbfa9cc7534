//! **Listing 3** — constant memory overhead via LL/SC.
//!
//! LL/SC is ABA-immune: an `SC` fails if the cell was stored to at all since
//! the matching `LL`, even if the original value was restored. That lets the
//! queue reuse a *single* null per slot — no versions, no distinctness
//! assumption — while keeping the O(1) overhead of the sequential design.
//!
//! The cells are [`bq_llsc::LlScCell`]s (our software emulation, see that
//! crate's fidelity notes): values are 32-bit and each cell spends a 32-bit
//! emulation tag, which the footprint below reports honestly as per-slot
//! metadata. On genuine LL/SC hardware (ARM, POWER, RISC-V) that per-slot
//! term vanishes and the overhead is exactly two counters — the paper's
//! point that LL/SC is strictly more powerful than CAS for this problem.
//! The two positioning counters are plain 64-bit words advanced by CAS:
//! they only grow, so there is no ABA for LL/SC to cure, and they do not
//! wrap (32-bit `LlScCell` positions did, after 2³² operations).

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use bq_llsc::LlScCell;

use crate::queue::{ConcurrentQueue, Full};
use bq_memtrack::{FootprintBreakdown, MemoryFootprint, OverheadClass};

/// Bounded queue with O(1) conceptual overhead using LL/SC (paper
/// Listing 3). Tokens are non-zero `u32` values (0 is `⊥`).
pub struct LlScQueue {
    cells: Box<[LlScCell]>,
    tail: AtomicU64,
    head: AtomicU64,
}

/// `LlScQueue` needs no per-thread state.
#[derive(Debug, Default, Clone, Copy)]
pub struct LlScHandle;

impl LlScQueue {
    /// Create a queue of capacity `c > 0`.
    pub fn with_capacity(c: usize) -> Self {
        assert!(c > 0, "capacity must be positive");
        LlScQueue {
            cells: (0..c).map(|_| LlScCell::new(0)).collect(),
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
        }
    }
}

impl ConcurrentQueue for LlScQueue {
    type Handle = LlScHandle;

    fn register(&self) -> LlScHandle {
        LlScHandle
    }

    fn enqueue(&self, _h: &mut LlScHandle, v: u64) -> Result<(), Full> {
        assert!(
            v != 0 && v <= u32::MAX as u64,
            "LL/SC queue tokens are non-zero u32 values"
        );
        let c = self.cells.len() as u64;
        loop {
            // Read the counters snapshot; link the target cell.
            let t = self.tail.load(SeqCst);
            let h = self.head.load(SeqCst);
            let cell = &self.cells[(t % c) as usize];
            let (state, link) = cell.ll();
            if t != self.tail.load(SeqCst) {
                continue;
            }
            // Is the queue full?
            if t == h + c {
                return Err(Full(v));
            }
            // Try to insert the element: SC fails if the cell changed at
            // all since the LL — ABA cannot occur.
            let done = state == 0 && cell.sc(link, v as u32);
            // Increment the counter (helping).
            let _ = self.tail.compare_exchange(t, t + 1, SeqCst, SeqCst);
            if done {
                return Ok(());
            }
        }
    }

    fn dequeue(&self, _h: &mut LlScHandle) -> Option<u64> {
        let c = self.cells.len() as u64;
        loop {
            // Read the counters + element snapshot.
            let t = self.tail.load(SeqCst);
            let h = self.head.load(SeqCst);
            let cell = &self.cells[(h % c) as usize];
            let (e, link) = cell.ll();
            if t != self.tail.load(SeqCst) {
                continue;
            }
            // Is the queue empty?
            if t == h {
                return None;
            }
            // Try to extract the element.
            let done = e != 0 && cell.sc(link, 0);
            // Increment the counter (helping).
            let _ = self.head.compare_exchange(h, h + 1, SeqCst, SeqCst);
            if done {
                return Some(e as u64);
            }
        }
    }

    fn capacity(&self) -> usize {
        self.cells.len()
    }

    fn max_token(&self) -> u64 {
        u32::MAX as u64
    }

    fn len(&self) -> usize {
        let t = self.tail.load(SeqCst);
        let h = self.head.load(SeqCst);
        t.saturating_sub(h) as usize
    }
}

impl MemoryFootprint for LlScQueue {
    fn footprint(&self) -> FootprintBreakdown {
        let c = self.cells.len();
        // Element payloads are 4 bytes; the other 4 bytes per cell are the
        // software-LL/SC tag, charged as per-slot metadata (zero on real
        // LL/SC hardware).
        FootprintBreakdown::with_elements(c * 4)
            .add(
                "LL/SC emulation tags (4 B per slot; free on LL/SC hardware)",
                c * bq_llsc::EMULATION_TAG_BYTES,
                OverheadClass::PerSlotMetadata,
            )
            .add("head + tail counters", 16, OverheadClass::Counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_fifo() {
        let q = LlScQueue::with_capacity(4);
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
    fn wraparound_reuses_single_null() {
        let q = LlScQueue::with_capacity(2);
        let mut h = q.register();
        // Unlike Listing 2, the same value may be enqueued repeatedly: the
        // SC tag, not the value, provides ABA immunity.
        for _ in 0..500 {
            q.enqueue(&mut h, 7).unwrap();
            q.enqueue(&mut h, 7).unwrap();
            assert_eq!(q.dequeue(&mut h), Some(7));
            assert_eq!(q.dequeue(&mut h), Some(7));
        }
    }

    #[test]
    fn conceptual_overhead_constant() {
        // The non-emulation overhead (counters) is constant in C.
        let small = LlScQueue::with_capacity(8);
        let large = LlScQueue::with_capacity(1 << 14);
        let ovh = |q: &LlScQueue| {
            q.footprint()
                .class_bytes(bq_memtrack::OverheadClass::Counters)
        };
        assert_eq!(ovh(&small), ovh(&large));
    }

    #[test]
    fn concurrent_repeated_values_conserved() {
        // The killer scenario for CAS-based constant-overhead queues:
        // heavily repeated values under contention. LL/SC shrugs it off.
        let q = Arc::new(LlScQueue::with_capacity(4));
        let per = 5_000u64;
        let producers = 2u64;
        let total = per * producers;
        let mut ths = Vec::new();
        for _ in 0..producers {
            let q = Arc::clone(&q);
            ths.push(std::thread::spawn(move || {
                let mut h = q.register();
                for _ in 0..per {
                    // Everyone enqueues the same value.
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
    #[should_panic(expected = "non-zero u32")]
    fn rejects_wide_tokens() {
        let q = LlScQueue::with_capacity(2);
        let mut h = q.register();
        let _ = q.enqueue(&mut h, 1 << 40);
    }

    /// An empty queue whose two positions both start at `pos`.
    fn starting_at(c: usize, pos: u64) -> LlScQueue {
        let q = LlScQueue::with_capacity(c);
        q.tail.store(pos, SeqCst);
        q.head.store(pos, SeqCst);
        q
    }

    /// The 2³² wrap (32-bit `LlScCell` positions: `len()` read 0 with two
    /// elements resident, `h + c` overflowed, and for `C ∤ 2³²` the
    /// position → slot map jumped). Positions are 64-bit now; start three
    /// below 2³² and cross it with FIFO, full/empty and `len()` checked at
    /// every step, for a power-of-two and a non-power-of-two capacity.
    #[test]
    fn positions_cross_two_to_the_32() {
        for c in [3usize, 4] {
            let q = starting_at(c, (1u64 << 32) - 3);
            let mut h = q.register();
            let mut next = 1u64;
            // One resident element throughout, so `len()` is never
            // trivially zero while the positions straddle the wrap.
            q.enqueue(&mut h, next).unwrap();
            for step in 0..4 * c as u64 + 8 {
                next += 1;
                q.enqueue(&mut h, next).unwrap();
                assert_eq!(q.len(), 2, "c={c} step {step}");
                assert!(!q.is_empty());
                assert_eq!(q.dequeue(&mut h), Some(next - 1), "c={c} step {step}");
                assert_eq!(q.len(), 1);
            }
            // Fill to capacity across whatever is left of the wrap window.
            for _ in 1..c {
                next += 1;
                q.enqueue(&mut h, next).unwrap();
            }
            assert_eq!(q.len(), c);
            assert_eq!(q.enqueue(&mut h, 9), Err(Full(9)));
            for back in (0..c as u64).rev() {
                assert_eq!(q.dequeue(&mut h), Some(next - back));
            }
            assert_eq!(q.dequeue(&mut h), None);
            assert!(q.is_empty());
        }
        // Full and empty exactly on the boundary: tail = 2³², head = 2³² − C.
        let q = starting_at(4, (1u64 << 32) - 4);
        let mut h = q.register();
        for v in 1..=4 {
            q.enqueue(&mut h, v).unwrap();
        }
        assert_eq!((q.len(), q.enqueue(&mut h, 5)), (4, Err(Full(5))));
        for v in 1..=4 {
            assert_eq!(q.dequeue(&mut h), Some(v));
        }
        assert_eq!((q.len(), q.dequeue(&mut h)), (0, None));
    }
}
