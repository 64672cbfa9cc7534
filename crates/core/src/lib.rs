//! # bq-core — concurrent bounded queues with provable memory bounds
//!
//! This crate is the primary contribution of the reproduction of
//! *Memory Bounds for Concurrent Bounded Queues* (Aksenov, Koval, Kuznetsov,
//! Paramonov — PPoPP 2024, arXiv:2104.15003). It implements every bounded
//! queue algorithm the paper presents, over a common token interface:
//!
//! | Type | Paper | Overhead | Assumptions |
//! |------|-------|----------|-------------|
//! | [`SeqRingQueue`] | Figure 1 | Θ(1) | single-threaded |
//! | [`NaiveQueue`] | §3 strawman | Θ(1) | **unsound** (ABA) — lower-bound target |
//! | [`SegmentQueue`] | Listing 1 / Figure 2 | Θ(C/K + T·K) | none |
//! | [`DistinctQueue`] | Listing 2 | Θ(1) | all elements distinct |
//! | [`LlScQueue`] | Listing 3 | Θ(1)† | LL/SC primitive |
//! | [`DcssQueue`] | Listing 4 | Θ(T) | slots may hold descriptors |
//! | [`OptimalQueue`] | Listing 5 / Appendix A | Θ(T) | none — matches the lower bound |
//! | [`ShardedQueue<Q>`](ShardedQueue) | scale layer (DESIGN.md §8) | Θ(S · ovh(Q)) | relaxes global FIFO to per-shard FIFO |
//!
//! † conceptually; our software LL/SC emulation spends 4 tag bytes per slot,
//! reported honestly in the footprint (see `bq-llsc`).
//!
//! [`NaiveQueue`], [`DistinctQueue`] and [`DcssQueue`] are type aliases of
//! one [`CounterQueue`]: the paper's loop written once, with the line that
//! differs — how a slot update is protected — as a [`SlotRule`].
//!
//! Beyond the paper's listings, the crate grows a **scale layer**: a batch
//! extension on [`ConcurrentQueue`] (`enqueue_many`/`dequeue_many`, with
//! native run-based fast paths where the algorithm permits) and
//! [`ShardedQueue`], which composes `S` sub-queues behind per-thread shard
//! affinity — `ShardedQueue<OptimalQueue>` keeps the overhead story honest
//! at **Θ(S·T)**. See DESIGN.md §8 for the exact relaxation contract.
//!
//! On top of both sits the **waiting stack** (DESIGN.md §9): a reusable
//! [`EventCount`] waiter subsystem (wake generations parking OS threads
//! *and* `core::task::Waker`s) with two thin façades over it —
//! [`BlockingQueue`] for threads and [`AsyncQueue`] for async tasks —
//! sharing one eventcount pair per queue, plus `close()` shutdown with
//! drain semantics on both.
//!
//! The paper's main theorem (Theorem 3.12) shows that Θ(1) overhead is
//! **impossible** for an obstruction-free, linearizable, value-independent
//! queue built from read/write/CAS — which is why [`NaiveQueue`] is labelled
//! unsound and [`OptimalQueue`]'s Θ(T) is optimal. The executable version of
//! that impossibility argument lives in the `bq-sim` crate.
//!
//! ## Quick start
//!
//! ```
//! use bq_core::{ConcurrentQueue, OptimalQueue};
//!
//! let q = OptimalQueue::with_capacity_and_threads(1024, 4);
//! let mut h = q.register();
//! q.enqueue(&mut h, 42).unwrap();
//! assert_eq!(q.dequeue(&mut h), Some(42));
//! ```
//!
//! For arbitrary element types, wrap a pointer-capable queue in
//! [`BoxedQueue`].

#![deny(missing_docs)]

pub mod async_queue;
pub mod blocking;
pub mod boxed;
pub mod bytering;
pub mod counter;
pub mod dcss_queue;
pub mod distinct;
pub mod event;
pub mod llsc_queue;
pub mod naive;
pub mod obs;
pub mod optimal;
pub mod queue;
pub mod relocatable;
pub mod retry;
pub mod segment;
pub mod sharded;
pub mod simx;
pub mod spsc;
pub mod token;

pub use async_queue::{AsyncQueue, WaitFuture};
pub use blocking::{
    BlockingQueue, RecvTimeoutError, SendError, SendTimeoutError, TryRecvError, TrySendError,
};
pub use boxed::{BoxedHandle, BoxedQueue, PointerCapable};
/// `bq-sim`'s adversary reads the value/metadata split of a queue from its
/// `footprint()`; this saves that crate a dependency of its own.
#[cfg(feature = "sim-explore")]
pub use bq_memtrack::{FootprintBreakdown, MemoryFootprint};
pub use bytering::{byte_ring, ByteConsumer, ByteProducer};
pub use counter::{CounterQueue, SlotRule};
pub use dcss_queue::{DcssHandle, DcssQueue};
pub use distinct::{DistinctHandle, DistinctQueue};
pub use event::{EventCount, TimeLimit, WaiterId};
pub use llsc_queue::{LlScHandle, LlScQueue};
pub use naive::{NaiveHandle, NaiveQueue};
pub use obs::{MetricsSnapshot, TraceEvent, TraceRing};
#[cfg(feature = "sim-explore")]
pub use optimal::HelpMode;
pub use optimal::{OptimalHandle, OptimalQueue};
pub use queue::{ConcurrentQueue, EnqueueError, Full, SeqRingQueue};
pub use relocatable::{
    byte_record_size, AnnounceBoard, BadLayout, ByteReadGrant, ByteRingHdr, ByteWriteGrant,
    PadAtomicU64, PadSimAtomicU64, Pod, RelocBox, RelocBuf, RelocByteRing, RelocEnqOp, RelocLayout,
    RelocRing, RingReadGrant, RingWriteGrant,
};
pub use segment::{SegmentHandle, SegmentQueue};
pub use sharded::{ShardedHandle, ShardedQueue};
pub use simx::{SimAtomicBool, SimAtomicU64, SimAtomicUsize, SimCondvar, SimMutex, SimMutexGuard};
pub use spsc::{spsc_ring, SpscConsumer, SpscProducer};
pub use token::{InvalidToken, TokenGen, MAX_TOKEN, NULL};
