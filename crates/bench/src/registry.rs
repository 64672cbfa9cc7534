//! A dynamic, object-safe view over every queue in the workspace, so the
//! experiment drivers can sweep "all algorithms × all parameters" without
//! monomorphizing each combination.
//!
//! [`ConcurrentQueue`] is not object safe (associated `Handle`), so
//! [`Registered`] pre-registers `T` handles behind mutexes; each benchmark
//! thread locks only its own handle, so the lock is always uncontended and
//! adds a uniform constant to every implementation.

use parking_lot::Mutex;

use bq_baselines::{MsQueue, MutexRingQueue, ScqStyleQueue, TwoNullQueue, VyukovQueue};
use bq_core::{
    byte_ring, ByteConsumer, ByteProducer, ConcurrentQueue, DcssQueue, DistinctQueue, LlScQueue,
    NaiveQueue, OptimalQueue, SegmentQueue, ShardedQueue,
};
use bq_memtrack::{FootprintBreakdown, MemoryFootprint};
use bq_shm::ShmQueue;

/// Object-safe queue interface for the experiment drivers.
pub trait DynQueue: Send + Sync {
    /// Algorithm name (stable across runs; used as table row label).
    fn name(&self) -> &'static str;
    /// Enqueue on behalf of registered thread `tid`; `false` = full.
    fn enqueue(&self, tid: usize, v: u64) -> bool;
    /// Dequeue on behalf of registered thread `tid`.
    fn dequeue(&self, tid: usize) -> Option<u64>;
    /// Capacity `C`.
    fn capacity(&self) -> usize;
    /// Number of pre-registered thread handles.
    fn threads(&self) -> usize;
    /// Largest valid token.
    fn max_token(&self) -> u64;
    /// Structural footprint (the paper's overhead metric).
    fn footprint(&self) -> FootprintBreakdown;
    /// Is this implementation linearizable in general? (`false` for the
    /// strawman and the two-null model — they are included to *show* the
    /// lower bound, not to compete.)
    fn sound(&self) -> bool;
    /// Does this implementation preserve **global FIFO** order? `false`
    /// for the sharded compositions, which relax it to per-shard FIFO
    /// (DESIGN.md §8) — the sequential-spec and strict-FIFO suites skip
    /// those rows and the pool-spec suites cover them instead.
    fn fifo(&self) -> bool;
    /// Batch enqueue on behalf of thread `tid`: accepts a prefix of `vs`
    /// (through the queue's native batch path where one exists) and
    /// returns the count.
    fn enqueue_many(&self, tid: usize, vs: &[u64]) -> usize;
    /// Batch dequeue on behalf of thread `tid`: up to `max` elements
    /// appended to `out`; returns the count.
    fn dequeue_many(&self, tid: usize, max: usize, out: &mut Vec<u64>) -> usize;
    /// Observability snapshot (DESIGN.md §14): the queue's counter blocks
    /// flattened to `name → value`. Empty without the `obs` feature (and
    /// for implementations with no counters of their own).
    fn metrics(&self) -> bq_core::MetricsSnapshot {
        bq_core::MetricsSnapshot::new()
    }
}

struct Registered<Q: ConcurrentQueue + MemoryFootprint> {
    name: &'static str,
    sound: bool,
    fifo: bool,
    q: Q,
    handles: Vec<Mutex<Q::Handle>>,
}

impl<Q: ConcurrentQueue + MemoryFootprint> Registered<Q> {
    fn new(name: &'static str, sound: bool, q: Q, threads: usize) -> Self {
        Self::with_fifo(name, sound, true, q, threads)
    }

    fn with_fifo(name: &'static str, sound: bool, fifo: bool, q: Q, threads: usize) -> Self {
        let handles = (0..threads).map(|_| Mutex::new(q.register())).collect();
        Registered {
            name,
            sound,
            fifo,
            q,
            handles,
        }
    }
}

impl<Q: ConcurrentQueue + MemoryFootprint> DynQueue for Registered<Q> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn enqueue(&self, tid: usize, v: u64) -> bool {
        let mut h = self.handles[tid].lock();
        self.q.enqueue(&mut h, v).is_ok()
    }

    fn dequeue(&self, tid: usize) -> Option<u64> {
        let mut h = self.handles[tid].lock();
        self.q.dequeue(&mut h)
    }

    fn capacity(&self) -> usize {
        self.q.capacity()
    }

    fn threads(&self) -> usize {
        self.handles.len()
    }

    fn max_token(&self) -> u64 {
        self.q.max_token()
    }

    fn footprint(&self) -> FootprintBreakdown {
        self.q.footprint()
    }

    fn sound(&self) -> bool {
        self.sound
    }

    fn fifo(&self) -> bool {
        self.fifo
    }

    fn enqueue_many(&self, tid: usize, vs: &[u64]) -> usize {
        let mut h = self.handles[tid].lock();
        self.q.enqueue_many(&mut h, vs)
    }

    fn dequeue_many(&self, tid: usize, max: usize, out: &mut Vec<u64>) -> usize {
        let mut h = self.handles[tid].lock();
        self.q.dequeue_many(&mut h, max, out)
    }

    fn metrics(&self) -> bq_core::MetricsSnapshot {
        // Fold every slot's handle-local deltas in first: the dyn
        // interface owns the handles, so callers cannot flush them.
        for h in self.handles.iter() {
            self.q.flush_metrics(&mut h.lock());
        }
        self.q.metrics()
    }
}

/// The byte ring behind the registry interface: `u64` tokens travel as
/// 8-byte little-endian messages (16-byte records: length header + body),
/// so the variable-length data path can sit in the same tables as the
/// slot queues. The ring itself is SPSC; the registry's per-endpoint
/// mutexes serialize the benchmark threads onto the two roles — the same
/// uniform constant every `Registered` queue pays per handle.
struct ByteTokenQueue {
    prod: Mutex<ByteProducer>,
    cons: Mutex<ByteConsumer>,
    cap: usize,
    threads: usize,
}

impl ByteTokenQueue {
    fn new(c: usize, threads: usize) -> Self {
        // Two records must fit for the wrap-pad progress bound; each
        // token record is exactly 16 bytes, so 16·C bytes = C tokens.
        let c = c.max(2);
        let (prod, cons) = byte_ring(16 * c, 8);
        ByteTokenQueue {
            prod: Mutex::new(prod),
            cons: Mutex::new(cons),
            cap: c,
            threads,
        }
    }
}

impl DynQueue for ByteTokenQueue {
    fn name(&self) -> &'static str {
        "byte-ring"
    }

    fn enqueue(&self, _tid: usize, v: u64) -> bool {
        self.prod.lock().push(&v.to_le_bytes())
    }

    fn dequeue(&self, _tid: usize) -> Option<u64> {
        let mut cons = self.cons.lock();
        let g = cons.try_read()?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&g);
        Some(u64::from_le_bytes(b))
    }

    fn capacity(&self) -> usize {
        self.cap
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn max_token(&self) -> u64 {
        u64::MAX
    }

    fn footprint(&self) -> FootprintBreakdown {
        self.prod.lock().footprint()
    }

    fn sound(&self) -> bool {
        true
    }

    fn fifo(&self) -> bool {
        true
    }

    fn enqueue_many(&self, _tid: usize, vs: &[u64]) -> usize {
        let mut prod = self.prod.lock();
        let mut n = 0;
        for v in vs {
            if !prod.push(&v.to_le_bytes()) {
                break;
            }
            n += 1;
        }
        n
    }

    fn dequeue_many(&self, _tid: usize, max: usize, out: &mut Vec<u64>) -> usize {
        let mut cons = self.cons.lock();
        let mut n = 0;
        while n < max {
            let Some(g) = cons.try_read() else { break };
            let mut b = [0u8; 8];
            b.copy_from_slice(&g);
            out.push(u64::from_le_bytes(b));
            n += 1;
        }
        n
    }

    fn metrics(&self) -> bq_core::MetricsSnapshot {
        let mut snap = bq_core::MetricsSnapshot::new();
        if cfg!(feature = "obs") {
            snap.push("bytes_used_hwm", self.prod.lock().bytes_used_hwm());
        }
        snap
    }
}

/// Identifiers for every queue implementation in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Unsound Θ(1) strawman (§3).
    Naive,
    /// Listing 1 segment queue, K = √C.
    Segment,
    /// Listing 1 with the paper's suggested segment-reuse pool.
    SegmentPooled,
    /// Listing 2, distinct elements.
    Distinct,
    /// Listing 3, LL/SC.
    LlSc,
    /// Listing 4, DCSS.
    Dcss,
    /// Listing 5, memory-optimal.
    Optimal,
    /// Michael–Scott (bounded).
    Ms,
    /// Vyukov MPMC.
    Vyukov,
    /// SCQ structural model.
    Scq,
    /// Tsigas–Zhang two-null model.
    TwoNull,
    /// Mutex ring.
    MutexRing,
    /// Scale layer: 4 shards of Listing 5 — Θ(S·T) overhead, per-shard
    /// FIFO (DESIGN.md §8).
    ShardedOptimal,
    /// Scale layer: 4 shards of Listing 1 segments.
    ShardedSegment,
    /// Shared-memory multi-process ring (`bq-shm`): the relocatable
    /// sequenced-ring layout in an `mmap` segment under the
    /// crash-consistent publication protocol. Registered here over its
    /// in-process `ConcurrentQueue` facade; the cross-process numbers are
    /// E13's fork-based workload.
    Shm,
    /// Variable-length byte ring (`bq_core::bytering`), tokens as 8-byte
    /// messages through the zero-copy grant machinery. SPSC by contract;
    /// registered behind per-role mutexes so the MPMC drivers can run it
    /// (E15 measures the unserialized payload path directly).
    ByteRing,
}

/// All kinds, in the order the paper discusses them.
pub const ALL_KINDS: &[QueueKind] = &[
    QueueKind::Naive,
    QueueKind::Segment,
    QueueKind::SegmentPooled,
    QueueKind::Distinct,
    QueueKind::LlSc,
    QueueKind::Dcss,
    QueueKind::Optimal,
    QueueKind::Ms,
    QueueKind::Vyukov,
    QueueKind::Scq,
    QueueKind::TwoNull,
    QueueKind::MutexRing,
    QueueKind::ShardedOptimal,
    QueueKind::ShardedSegment,
    QueueKind::Shm,
    QueueKind::ByteRing,
];

/// Default shard count for the registry's sharded kinds ([`sharded_optimal`]
/// takes `S` explicitly).
pub const DEFAULT_SHARDS: usize = 4;

impl QueueKind {
    /// Stable name used in tables and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::Naive => "naive-O(1)-UNSOUND",
            QueueKind::Segment => "listing1-segment",
            QueueKind::SegmentPooled => "listing1-segment-pooled",
            QueueKind::Distinct => "listing2-distinct",
            QueueKind::LlSc => "listing3-llsc",
            QueueKind::Dcss => "listing4-dcss",
            QueueKind::Optimal => "listing5-optimal",
            QueueKind::Ms => "michael-scott",
            QueueKind::Vyukov => "vyukov",
            QueueKind::Scq => "scq-style",
            QueueKind::TwoNull => "tsigas-zhang-2null",
            QueueKind::MutexRing => "mutex-ring",
            QueueKind::ShardedOptimal => "sharded4-optimal",
            QueueKind::ShardedSegment => "sharded4-segment",
            QueueKind::Shm => "shm-mpmc",
            QueueKind::ByteRing => "byte-ring",
        }
    }

    /// The paper's asymptotic overhead claim for this implementation
    /// (shown alongside measurements in the tables).
    pub fn claimed_overhead(self) -> &'static str {
        match self {
            QueueKind::Naive => "Θ(1) [unsound]",
            QueueKind::Segment => "Θ(C/K + T·K)",
            QueueKind::SegmentPooled => "Θ(C/K + T·K)",
            QueueKind::Distinct => "Θ(1) [distinct]",
            QueueKind::LlSc => "Θ(1) [LL/SC hw]",
            QueueKind::Dcss => "Θ(T)",
            QueueKind::Optimal => "Θ(T)",
            QueueKind::Ms => "Θ(n)",
            QueueKind::Vyukov => "Θ(C)",
            QueueKind::Scq => "Θ(C)",
            QueueKind::TwoNull => "Θ(1) [unsound]",
            QueueKind::MutexRing => "Θ(1) [blocking]",
            QueueKind::ShardedOptimal => "Θ(S·T)",
            QueueKind::ShardedSegment => "Θ(C/K + S·T·K)",
            QueueKind::Shm => "Θ(C) [multi-proc]",
            QueueKind::ByteRing => "Θ(1) [SPSC bytes]",
        }
    }

    /// Instantiate with capacity `c` and thread bound `t`.
    pub fn build(self, c: usize, t: usize) -> Box<dyn DynQueue> {
        match self {
            QueueKind::Naive => Box::new(Registered::new(
                self.name(),
                false,
                NaiveQueue::with_capacity(c),
                t,
            )),
            QueueKind::Segment => Box::new(Registered::new(
                self.name(),
                true,
                SegmentQueue::with_capacity(c),
                t,
            )),
            QueueKind::SegmentPooled => Box::new(Registered::new(
                self.name(),
                true,
                SegmentQueue::with_pooled_segments(c, (c as f64).sqrt().round().max(1.0) as usize),
                t,
            )),
            QueueKind::Distinct => Box::new(Registered::new(
                self.name(),
                true,
                DistinctQueue::with_capacity(c),
                t,
            )),
            QueueKind::LlSc => Box::new(Registered::new(
                self.name(),
                true,
                LlScQueue::with_capacity(c),
                t,
            )),
            QueueKind::Dcss => Box::new(Registered::new(
                self.name(),
                true,
                DcssQueue::with_capacity_and_threads(c, t),
                t,
            )),
            QueueKind::Optimal => Box::new(Registered::new(
                self.name(),
                true,
                OptimalQueue::with_capacity_and_threads(c, t),
                t,
            )),
            QueueKind::Ms => Box::new(Registered::new(
                self.name(),
                true,
                MsQueue::with_capacity(c),
                t,
            )),
            QueueKind::Vyukov => Box::new(Registered::new(
                self.name(),
                true,
                VyukovQueue::with_capacity(c),
                t,
            )),
            QueueKind::Scq => Box::new(Registered::new(
                self.name(),
                true,
                ScqStyleQueue::with_capacity(c),
                t,
            )),
            QueueKind::TwoNull => Box::new(Registered::new(
                self.name(),
                false,
                TwoNullQueue::with_capacity(c),
                t,
            )),
            QueueKind::MutexRing => Box::new(Registered::new(
                self.name(),
                true,
                MutexRingQueue::with_capacity(c),
                t,
            )),
            QueueKind::ShardedOptimal => Box::new(Registered::with_fifo(
                self.name(),
                true,
                false, // per-shard FIFO only
                ShardedQueue::<OptimalQueue>::optimal(c, DEFAULT_SHARDS, t),
                t,
            )),
            QueueKind::ShardedSegment => Box::new(Registered::with_fifo(
                self.name(),
                true,
                false,
                ShardedQueue::<SegmentQueue>::segmented(c, DEFAULT_SHARDS),
                t,
            )),
            QueueKind::Shm => Box::new(Registered::new(
                self.name(),
                true,
                // The sequenced-ring protocol needs two slots to tell
                // full from empty; the registry's smallest sweeps use 1.
                ShmQueue::<u64>::create_anon(c.max(2)).expect("anonymous shm segment"),
                t,
            )),
            QueueKind::ByteRing => Box::new(ByteTokenQueue::new(c, t)),
        }
    }
}

/// Build a `ShardedQueue<OptimalQueue>` with an explicit shard count `s`
/// behind the `DynQueue` interface, for an `S` other than the registry's
/// fixed default.
pub fn sharded_optimal(c: usize, s: usize, t: usize) -> Box<dyn DynQueue> {
    Box::new(Registered::with_fifo(
        "sharded-optimal",
        true,
        s <= 1, // a single shard degenerates to the plain FIFO queue
        ShardedQueue::<OptimalQueue>::optimal(c, s, t),
        t,
    ))
}

/// Build every implementation at `(c, t)`.
pub fn all_queues(c: usize, t: usize) -> Vec<Box<dyn DynQueue>> {
    ALL_KINDS.iter().map(|k| k.build(c, t)).collect()
}

/// Look a kind up by its table name.
pub fn queue_by_name(name: &str) -> Option<QueueKind> {
    ALL_KINDS.iter().copied().find(|k| k.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_round_trips() {
        for q in all_queues(16, 2) {
            assert!(q.enqueue(0, 1), "{} rejects a first enqueue", q.name());
            assert_eq!(q.dequeue(1), Some(1), "{} loses the element", q.name());
            assert_eq!(q.dequeue(0), None, "{} not empty after drain", q.name());
            assert_eq!(q.capacity(), 16);
            assert_eq!(q.threads(), 2);
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for k in ALL_KINDS {
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
            assert_eq!(queue_by_name(k.name()), Some(*k));
        }
        assert_eq!(queue_by_name("nope"), None);
    }

    #[test]
    fn soundness_flags() {
        for q in all_queues(4, 1) {
            let expected = !matches!(
                queue_by_name(q.name()).unwrap(),
                QueueKind::Naive | QueueKind::TwoNull
            );
            assert_eq!(q.sound(), expected, "{}", q.name());
        }
    }

    #[test]
    fn every_kind_batch_round_trips() {
        for q in all_queues(16, 2) {
            let vs: Vec<u64> = (1..=10).collect();
            assert_eq!(q.enqueue_many(0, &vs), 10, "{}", q.name());
            let mut out = Vec::new();
            assert_eq!(q.dequeue_many(1, 10, &mut out), 10, "{}", q.name());
            out.sort_unstable();
            assert_eq!(out, vs, "{}: batch conservation", q.name());
            assert_eq!(q.dequeue_many(0, 1, &mut out), 0, "{}", q.name());
        }
    }

    #[test]
    fn fifo_flags_mark_only_sharded_kinds_relaxed() {
        for q in all_queues(8, 1) {
            let expected = !matches!(
                queue_by_name(q.name()).unwrap(),
                QueueKind::ShardedOptimal | QueueKind::ShardedSegment
            );
            assert_eq!(q.fifo(), expected, "{}", q.name());
        }
    }

    #[test]
    fn sharded_optimal_builder_varies_shard_count() {
        for s in [1, 2, 8] {
            let q = sharded_optimal(16, s, 2);
            assert_eq!(q.capacity(), 16);
            assert_eq!(q.fifo(), s <= 1);
            assert!(q.enqueue(0, 5));
            assert_eq!(q.dequeue(1), Some(5));
        }
    }

    #[test]
    fn metrics_flow_through_the_dyn_interface() {
        // The instrumented facades report through `DynQueue::metrics`;
        // with `obs` off every snapshot is empty (the zero-cost contract).
        let q = QueueKind::Optimal.build(8, 2);
        assert!(q.enqueue(0, 1));
        assert_eq!(q.dequeue(1), Some(1));
        let snap = q.metrics();
        if cfg!(feature = "obs") {
            assert_eq!(snap.get("enq_success"), Some(1), "{snap}");
            assert_eq!(snap.get("deq_success"), Some(1), "{snap}");
        } else {
            assert!(snap.is_empty());
        }
        // And kinds with no counters of their own stay harmlessly empty.
        let ms = QueueKind::Ms.build(8, 1);
        ms.enqueue(0, 9);
        assert!(ms.metrics().is_empty());
    }

    #[test]
    fn footprints_are_positive() {
        for q in all_queues(64, 2) {
            // MS stores per-element, so occupy one slot before measuring.
            q.enqueue(0, 1);
            let f = q.footprint();
            assert!(f.element_bytes > 0, "{}", q.name());
            assert!(f.overhead_bytes() > 0, "{}", q.name());
        }
    }
}
