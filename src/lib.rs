//! # membq — Memory Bounds for Concurrent Bounded Queues (reproduction)
//!
//! An executable reproduction of Aksenov, Koval, Kuznetsov & Paramonov,
//! *Memory Bounds for Concurrent Bounded Queues* (PPoPP 2024,
//! arXiv:2104.15003): every algorithm from the paper, the substrates they
//! need (software LL/SC, recyclable-descriptor DCSS, allocation tracking),
//! the related-work baselines, and a schedule explorer that plays the
//! paper's lower-bound adversary on the shipped queues and certifies its
//! non-linearizable executions.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the queue algorithms (Listings 1–5 + strawman);
//! * [`llsc`] / [`dcss`] — synchronization substrates;
//! * [`memtrack`] — the memory-overhead accounting;
//! * [`baselines`] — Michael–Scott, Vyukov, SCQ-style,
//!   Tsigas–Zhang model, mutex ring;
//! * [`sim`] — the linearizability checker and schedule explorer
//!   (its lower-bound adversary needs `bq-sim`'s `explore` feature, which
//!   this crate leaves off);
//! * [`shm`] — the shared-memory multi-process backend (mmap
//!   segments, crash-consistent `ShmQueue`, fork harness).
//!
//! Start with [`prelude`], the examples in `examples/`, and DESIGN.md /
//! EXPERIMENTS.md for the reproduction map.

pub use bq_baselines as baselines;
pub use bq_core as core;
pub use bq_dcss as dcss;
pub use bq_llsc as llsc;
pub use bq_memtrack as memtrack;
pub use bq_shm as shm;
pub use bq_sim as sim;

/// The experiment registry (all queues behind one object-safe interface),
/// re-exported for examples and downstream harnesses.
pub use bq_bench::registry as bench_registry;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use bq_core::{
        byte_ring, spsc_ring, AsyncQueue, BlockingQueue, BoxedQueue, ByteConsumer, ByteProducer,
        ConcurrentQueue, DcssQueue, DistinctQueue, EventCount, Full, LlScQueue, NaiveQueue,
        OptimalQueue, SegmentQueue, SendError, SeqRingQueue, ShardedQueue, SpscConsumer,
        SpscProducer, TimeLimit, TokenGen, TryRecvError, TrySendError, WaitFuture,
    };
    pub use bq_memtrack::MemoryFootprint;
}
