//! The **scale layer**'s sharded queue: `S` independent sub-queues behind
//! per-thread shard affinity (DESIGN.md §8).
//!
//! The paper's algorithms serialize every operation through one pair of
//! positioning counters — the classic single-ring scalability ceiling its
//! industrial-class baselines also hit. [`ShardedQueue`] composes `S`
//! sub-queues of capacity `C/S` into one logical queue of capacity `C`:
//! each registered thread owns a *home shard* (`tid % S`) that it tries
//! first, rotating to the other shards only when the home shard is full
//! (enqueue) or empty (dequeue) — "steal-on-full / steal-on-empty".
//! Disjoint producer/consumer pairs therefore touch disjoint counters and
//! scale with `S` instead of contending on one serialization point.
//!
//! ## Relaxed semantics — read this before using it
//!
//! Sharding deliberately trades **global FIFO for per-shard FIFO**:
//!
//! * Elements that pass through the *same* shard are delivered in FIFO
//!   order (each shard is a full bounded queue from the paper).
//! * Elements in *different* shards have no ordering relation, even when
//!   their enqueues were sequential. A single thread that overflows its
//!   home shard and steals will observe its own values out of global
//!   order.
//! * Under concurrency, `Full`/`None` refusals are **best-effort**: the
//!   shards are scanned one at a time, so a counterpart can create space
//!   (or an element) in an already-visited shard mid-scan — the same
//!   relaxation the paper notes for Θ(C) industrial ring buffers. When
//!   quiescent the refusals are exact: all-shards-full ⇔ `len() == C`.
//!
//! What survives, exactly: per-shard FIFO, conservation (every accepted
//! element is delivered exactly once), and linearizability against the
//! **pool** (multiset) specification — `bq-sim`'s
//! `check_history_pool` checker certifies recorded histories, and
//! `tests/linearizability_stress.rs` asserts exactly this contract (not
//! more).
//!
//! ## Memory overhead — Θ(S · ovh(Q))
//!
//! The composition pays `S` times the sub-queue overhead plus a constant
//! shard directory: for `ShardedQueue<OptimalQueue>` that is **Θ(S·T)** —
//! `S` announcement arrays of `T` slots, `S` pools of `2T` descriptors,
//! `S` counter pairs — extending the paper's overhead table to the
//! composed structure (asserted numerically in
//! `tests/footprint_claims.rs`). Element storage stays exactly `C`
//! value-locations, split across the shards.
//!
//! ## Batching
//!
//! The [`ConcurrentQueue`] batch extension is overridden so that a batch
//! sticks to one shard for as long as that shard accepts/produces
//! elements, which both amortizes the shard-selection scan **and** keeps
//! whole runs inside the sub-queue's native batch fast path
//! (segment-local runs, slot runs).

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::simx::SimAtomicUsize;

use crate::boxed::PointerCapable;
use crate::obs::{MetricsSnapshot, ShardCounters};
use crate::optimal::OptimalQueue;
use crate::queue::{ConcurrentQueue, Full};
use crate::segment::SegmentQueue;
use bq_memtrack::{FootprintBreakdown, FootprintEntry, MemoryFootprint, OverheadClass};

/// `S` sub-queues of capacity `C/S` behind per-thread shard affinity with
/// steal-on-full / steal-on-empty rotation. See the module docs for the
/// exact (relaxed) semantics and the Θ(S · ovh(Q)) overhead accounting.
///
/// ```
/// use bq_core::{ConcurrentQueue, OptimalQueue, ShardedQueue};
///
/// // 4 shards × 256 slots, up to 8 threads (each shard admits all 8).
/// let q = ShardedQueue::<OptimalQueue>::optimal(1024, 4, 8);
/// let mut h = q.register();
/// assert_eq!(q.enqueue_many(&mut h, &[1, 2, 3]), 3);
/// let mut out = Vec::new();
/// assert_eq!(q.dequeue_many(&mut h, 3, &mut out), 3);
/// assert_eq!(q.capacity(), 1024);
/// ```
pub struct ShardedQueue<Q: ConcurrentQueue> {
    shards: Box<[Q]>,
    next_tid: SimAtomicUsize,
    /// Scale-layer statistics (DESIGN.md §14); a ZST with `obs` off.
    obs: ShardCounters,
}

/// Per-thread handle: the home-shard index plus one sub-handle per shard
/// (rotation may visit any of them).
pub struct ShardedHandle<Q: ConcurrentQueue> {
    home: usize,
    handles: Box<[Q::Handle]>,
}

impl<Q: ConcurrentQueue> ShardedQueue<Q> {
    /// Compose pre-built shards into one logical queue. The shards'
    /// capacities sum to the logical capacity `C`; every shard must admit
    /// every thread that will register here (rotation touches all shards).
    pub fn from_shards(shards: Vec<Q>) -> Self {
        assert!(!shards.is_empty(), "at least one shard required");
        ShardedQueue {
            shards: shards.into_boxed_slice(),
            next_tid: SimAtomicUsize::new(0),
            obs: ShardCounters::new(),
        }
    }

    /// Build `s` shards splitting a total capacity `c` near-evenly
    /// (`c % s` leading shards get one extra slot). `make` receives the
    /// shard index and its capacity. `s` is clamped to `1..=c` so every
    /// shard has at least one slot.
    pub fn with_capacity_sharded(c: usize, s: usize, make: impl Fn(usize, usize) -> Q) -> Self {
        assert!(c > 0, "capacity must be positive");
        let s = s.clamp(1, c);
        let shards: Vec<Q> = (0..s)
            .map(|i| {
                let cap = c / s + usize::from(i < c % s);
                let q = make(i, cap);
                assert_eq!(q.capacity(), cap, "shard {i} built with wrong capacity");
                q
            })
            .collect();
        Self::from_shards(shards)
    }

    /// Borrow shard `i` (tests and accounting).
    pub fn shard(&self, i: usize) -> &Q {
        &self.shards[i]
    }

    /// The steal-rotation scan shared by all four operation paths: visit
    /// the shards home-first, then rotating through the rest, handing
    /// `visit` each shard (with its per-shard handle) until it breaks
    /// (operation satisfied) or every shard was tried.
    fn rotate<B>(
        &self,
        h: &mut ShardedHandle<Q>,
        mut visit: impl FnMut(&Q, &mut Q::Handle) -> ControlFlow<B>,
    ) -> Option<B> {
        let s = self.shards.len();
        for off in 0..s {
            let i = (h.home + off) % s;
            if off > 0 {
                // The scan left the home shard: a contention/imbalance
                // signal regardless of where it ends up succeeding.
                self.obs.rotations.hit();
            }
            if let ControlFlow::Break(b) = visit(&self.shards[i], &mut h.handles[i]) {
                if off > 0 {
                    self.obs.steals.hit();
                }
                return Some(b);
            }
        }
        None
    }
}

impl ShardedQueue<OptimalQueue> {
    /// The flagship composition: `S` memory-optimal Listing 5 queues —
    /// total overhead **Θ(S·T)**, element storage exactly `C` slots.
    pub fn optimal(c: usize, s: usize, max_threads: usize) -> Self {
        Self::with_capacity_sharded(c, s, |_, cap| {
            OptimalQueue::with_capacity_and_threads(cap, max_threads)
        })
    }
}

impl ShardedQueue<SegmentQueue> {
    /// Sharded Listing 1: per-shard segment size defaults to `√(C/S)`.
    pub fn segmented(c: usize, s: usize) -> Self {
        Self::with_capacity_sharded(c, s, |_, cap| SegmentQueue::with_capacity(cap))
    }
}

impl<Q: ConcurrentQueue> ConcurrentQueue for ShardedQueue<Q> {
    type Handle = ShardedHandle<Q>;

    fn register(&self) -> ShardedHandle<Q> {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        ShardedHandle {
            home: tid % self.shards.len(),
            handles: self.shards.iter().map(|q| q.register()).collect(),
        }
    }

    fn enqueue(&self, h: &mut ShardedHandle<Q>, v: u64) -> Result<(), Full> {
        self.rotate(h, |q, sh| match q.enqueue(sh, v) {
            Ok(()) => ControlFlow::Break(()),
            Err(_) => ControlFlow::Continue(()),
        })
        .ok_or(Full(v))
    }

    fn dequeue(&self, h: &mut ShardedHandle<Q>) -> Option<u64> {
        self.rotate(h, |q, sh| match q.dequeue(sh) {
            Some(v) => ControlFlow::Break(v),
            None => ControlFlow::Continue(()),
        })
    }

    fn enqueue_many(&self, h: &mut ShardedHandle<Q>, vs: &[u64]) -> usize {
        // A batch sticks to each shard for as long as it accepts: the
        // rotation advances on refusal, exactly like the single path.
        let mut done = 0;
        self.rotate(h, |q, sh| {
            done += q.enqueue_many(sh, &vs[done..]);
            if done == vs.len() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        done
    }

    fn dequeue_many(&self, h: &mut ShardedHandle<Q>, max: usize, out: &mut Vec<u64>) -> usize {
        let mut done = 0;
        self.rotate(h, |q, sh| {
            done += q.dequeue_many(sh, max - done, out);
            if done == max {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        done
    }

    fn capacity(&self) -> usize {
        self.shards.iter().map(|q| q.capacity()).sum()
    }

    fn max_token(&self) -> u64 {
        self.shards.iter().map(|q| q.max_token()).min().unwrap()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|q| q.len()).sum()
    }

    /// Scale-layer view: steal and rotation counters, then — per shard —
    /// the sub-queue's own metrics under a `shardN.` prefix (a sub-queue's
    /// refusals are among them).
    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        self.obs.snapshot_into("", &mut snap);
        #[cfg(feature = "obs")]
        {
            for (i, q) in self.shards.iter().enumerate() {
                for (name, v) in q.metrics().entries() {
                    snap.push(format!("shard{i}.{name}"), *v);
                }
            }
        }
        snap
    }

    fn flush_metrics(&self, h: &mut ShardedHandle<Q>) {
        for (q, sh) in self.shards.iter().zip(h.handles.iter_mut()) {
            q.flush_metrics(sh);
        }
    }
}

impl<Q: PointerCapable> PointerCapable for ShardedQueue<Q> {
    fn drop_handle(&self) -> ShardedHandle<Q> {
        ShardedHandle {
            home: 0,
            handles: self.shards.iter().map(|q| q.drop_handle()).collect(),
        }
    }
}

impl<Q: ConcurrentQueue + MemoryFootprint> MemoryFootprint for ShardedQueue<Q> {
    /// Sum of the shard breakdowns (entries aggregated by overhead class,
    /// labelled `across S shards: …`) plus the constant shard directory.
    /// For `ShardedQueue<OptimalQueue>` the aggregate is Θ(S·T).
    fn footprint(&self) -> FootprintBreakdown {
        let s = self.shards.len();
        let mut element_bytes = 0;
        // Aggregate per class, preserving first-seen order.
        let mut classes: Vec<(OverheadClass, usize)> = Vec::new();
        for q in self.shards.iter() {
            let b = q.footprint();
            element_bytes += b.element_bytes;
            for e in b.overhead {
                match classes.iter_mut().find(|(c, _)| *c == e.class) {
                    Some((_, bytes)) => *bytes += e.bytes,
                    None => classes.push((e.class, e.bytes)),
                }
            }
        }
        let mut out = FootprintBreakdown::with_elements(element_bytes);
        for (class, bytes) in classes {
            out.overhead.push(FootprintEntry::new(
                format!("across {s} shards: {class}"),
                bytes,
                class,
            ));
        }
        out.add(
            "shard directory (boxed-slice fat pointer + tid counter)",
            std::mem::size_of::<Box<[Q]>>() + std::mem::size_of::<AtomicUsize>(),
            OverheadClass::Other,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sharded(c: usize, s: usize, t: usize) -> ShardedQueue<OptimalQueue> {
        ShardedQueue::<OptimalQueue>::optimal(c, s, t)
    }

    /// The footprint of `S` shards: every row but the directory is summed
    /// `across S shards`, and the rows add up to `S` times one shard's
    /// overhead (all shards of `q` have the same `T`) plus the directory.
    fn assert_footprint_of_shards(q: &ShardedQueue<OptimalQueue>, s: usize) {
        let fp = q.footprint();
        let (dir, rows) = fp.overhead.split_last().expect("directory row");
        assert!(dir.label.starts_with("shard directory"), "{}", dir.label);
        let across = format!("across {s} shards: ");
        assert!(
            rows.iter().all(|e| e.label.starts_with(&across)),
            "{rows:?}"
        );
        let one = q.shard(0).footprint().overhead_bytes();
        assert_eq!(fp.overhead_bytes(), s * one + dir.bytes);
    }

    #[test]
    fn capacity_splits_exactly() {
        let q = sharded(10, 4, 1);
        assert_eq!(q.capacity(), 10);
        let caps: Vec<usize> = (0..4).map(|i| q.shard(i).capacity()).collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
        assert_footprint_of_shards(&q, 4);
    }

    #[test]
    fn shard_count_clamped_to_capacity() {
        let q = sharded(2, 8, 1);
        assert_eq!(q.capacity(), 2);
        assert_eq!([q.shard(0).capacity(), q.shard(1).capacity()], [1, 1]);
        assert_footprint_of_shards(&q, 2);
    }

    #[test]
    fn full_only_when_all_shards_full() {
        let q = sharded(4, 2, 1);
        let mut h = q.register();
        for v in 1..=4 {
            q.enqueue(&mut h, v).unwrap();
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.enqueue(&mut h, 5), Err(Full(5)));
        // Draining one slot re-admits.
        assert!(q.dequeue(&mut h).is_some());
        q.enqueue(&mut h, 5).unwrap();
    }

    #[test]
    fn empty_only_when_all_shards_empty() {
        let q = sharded(4, 2, 2);
        let mut h0 = q.register(); // home shard 0
        let mut h1 = q.register(); // home shard 1
        q.enqueue(&mut h0, 7).unwrap(); // lands in shard 0
                                        // The other thread's home shard is empty; it must steal.
        assert_eq!(q.dequeue(&mut h1), Some(7));
        assert_eq!(q.dequeue(&mut h1), None);
        assert_eq!(q.dequeue(&mut h0), None);
    }

    #[test]
    fn per_shard_fifo_holds_global_fifo_does_not() {
        // The documented relaxation, pinned deterministically: a single
        // thread with home shard 0 overflows into shard 1; its dequeues
        // then drain home first — out of global enqueue order, but in
        // FIFO order *within* each shard.
        let q = sharded(4, 2, 1);
        let mut h = q.register();
        for v in 1..=4 {
            q.enqueue(&mut h, v).unwrap(); // 1,2 → shard 0; 3,4 → shard 1
        }
        assert_eq!(q.dequeue(&mut h), Some(1));
        assert_eq!(q.dequeue(&mut h), Some(2));
        q.enqueue(&mut h, 5).unwrap(); // home shard 0 has space again
                                       // Global FIFO would yield 3 next; per-shard affinity yields 5.
        assert_eq!(q.dequeue(&mut h), Some(5), "global FIFO is relaxed");
        assert_eq!(q.dequeue(&mut h), Some(3), "shard 1 still FIFO");
        assert_eq!(q.dequeue(&mut h), Some(4));
        assert_eq!(q.dequeue(&mut h), None);
    }

    #[test]
    fn batch_ops_roundtrip_across_shards() {
        let q = sharded(8, 4, 1);
        let mut h = q.register();
        let vs: Vec<u64> = (1..=8).collect();
        assert_eq!(q.enqueue_many(&mut h, &vs), 8);
        assert_eq!(q.enqueue_many(&mut h, &[9]), 0, "all shards full");
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(&mut h, 8, &mut out), 8);
        out.sort_unstable();
        assert_eq!(out, vs, "conservation across shards");
        assert_eq!(q.dequeue_many(&mut h, 1, &mut out), 0);
    }

    #[test]
    fn batch_partial_acceptance_reports_prefix() {
        let q = sharded(4, 2, 1);
        let mut h = q.register();
        assert_eq!(q.enqueue_many(&mut h, &[1, 2, 3, 4, 5, 6]), 4);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(&mut h, 10, &mut out), 4);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3, 4], "accepted exactly the prefix");
    }

    #[test]
    fn overhead_is_s_times_subqueue_plus_directory() {
        let (c, s, t) = (1024, 4, 8);
        let q = sharded(c, s, t);
        let single = OptimalQueue::with_capacity_and_threads(c / s, t);
        // Directory: boxed-slice fat pointer + tid counter (24 bytes).
        assert_eq!(
            q.overhead_bytes(),
            s * single.overhead_bytes() + 24,
            "Θ(S·T): S sub-queue overheads plus the constant-per-shard directory"
        );
        assert_eq!(q.element_bytes(), c * 8, "element storage stays C slots");
        let _ = q.max_token();
    }

    /// The scale layer's two counters, by value: at S = 2 an enqueue that
    /// finds its home shard full and a dequeue that finds it empty each
    /// leave home once and are served once elsewhere.
    #[cfg(feature = "obs")]
    #[test]
    fn a_full_or_empty_home_shard_counts_one_rotation_and_one_steal() {
        let q = sharded(4, 2, 1);
        let mut h = q.register(); // home shard 0, capacity 2
        let counts = |q: &ShardedQueue<OptimalQueue>| {
            let m = q.metrics();
            (m.get("rotations"), m.get("steals"))
        };
        q.enqueue(&mut h, 1).unwrap();
        q.enqueue(&mut h, 2).unwrap();
        assert_eq!(counts(&q), (Some(0), Some(0)), "home shard took both");
        q.enqueue(&mut h, 3).unwrap();
        assert_eq!(q.shard(1).len(), 1, "the full home shard sent 3 on");
        assert_eq!(counts(&q), (Some(1), Some(1)));
        assert_eq!(q.dequeue(&mut h), Some(1));
        assert_eq!(q.dequeue(&mut h), Some(2));
        assert_eq!(counts(&q), (Some(1), Some(1)), "home shard served both");
        assert_eq!(
            q.dequeue(&mut h),
            Some(3),
            "the empty home shard sent it on"
        );
        assert_eq!(counts(&q), (Some(2), Some(2)));
    }

    #[test]
    fn sharded_mpmc_conservation() {
        let q = Arc::new(sharded(16, 4, 4));
        let per = 2_000u64;
        let producers = 2u64;
        let total = per * producers;
        std::thread::scope(|sc| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                sc.spawn(move || {
                    let mut h = q.register();
                    for i in 0..per {
                        let v = 1 + p * per + i;
                        while q.enqueue(&mut h, v).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let q = Arc::clone(&q);
            sc.spawn(move || {
                let mut h = q.register();
                let mut seen = std::collections::HashSet::new();
                while (seen.len() as u64) < total {
                    match q.dequeue(&mut h) {
                        Some(v) => assert!(seen.insert(v), "duplicate {v}"),
                        None => std::thread::yield_now(),
                    }
                }
            });
        });
        let mut h = q.register();
        assert_eq!(q.dequeue(&mut h), None, "exact conservation");
    }

    #[test]
    fn sharded_segment_composition_builds() {
        let q = ShardedQueue::<SegmentQueue>::segmented(64, 4);
        let mut h = q.register();
        assert_eq!(q.enqueue_many(&mut h, &[1, 2, 3]), 3);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(&mut h, 3, &mut out), 3);
        assert_eq!(q.shard(0).capacity(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedQueue::<OptimalQueue>::from_shards(Vec::new());
    }
}
