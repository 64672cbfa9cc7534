//! # bq-shm — the shared-memory multi-process backend
//!
//! Serves the relocatable queue layouts of `bq_core::relocatable` out of
//! `mmap`-shared segments, so N producer *processes* and M consumer
//! *processes* share one bounded queue — the way ARINC 653 partition OSes
//! wire isolated partitions to a bounded channel (DESIGN.md §10.4
//! records the framing facts this design borrows).
//!
//! Pieces:
//!
//! * [`ShmSegment`] — an `mmap` mapping fronted by a versioned
//!   magic/length/layout-tag header, eight cache-padded scratch counters
//!   for harness coordination, and a [process liveness
//!   table](segment::ProcSlot) with one-sided death detection plus a
//!   heartbeat/lease suspicion layer and a segment-wide poison counter
//!   (the health monitor of DESIGN.md §13);
//! * [`ShmQueue<T>`](ShmQueue) — the N-producer/M-consumer bounded queue
//!   under a crash-consistent publication protocol: a process dying
//!   between **any** two shared writes leaves a state the survivors
//!   either complete or reclaim (the per-write argument is tabulated in
//!   [`queue`]'s module docs);
//! * [`ShmByteRing`] — a variable-length SPSC byte ring over the same
//!   segments: zero-copy grants on both sides, with the producer and
//!   consumer roles claimed per-process through header claim words
//!   (dead holders detected via pid liveness and stolen);
//! * [`fork_child`]/[`Child`] — a fork harness with deadline waits, so a
//!   wedged queue fails tests instead of hanging them;
//! * [`FaultPlan`] — the unified fault-injection plan (kill countdowns,
//!   injected delays, forced refusals, dropped wakes) consumed by the
//!   crash tests, the soak binary and the explorer, rendered as a
//!   replayable `plan:v1:` artifact;
//! * [`OpLog`] — a cross-process operation log with globally sequenced
//!   stamps, feeding the Wing–Gong pool checker in `bq-sim`.
//!
//! In-process, `ShmQueue<u64>` also implements the workspace-wide
//! [`ConcurrentQueue`](bq_core::ConcurrentQueue) interface, which is how
//! it joins the bench registry and inherits the whole conformance suite.

#![deny(missing_docs)]

pub mod bytering;
pub mod fault;
pub mod harness;
pub mod oplog;
pub mod queue;
pub mod segment;

pub use bytering::{RoleHeld, ShmByteConsumer, ShmByteProducer, ShmByteRing, BYTE_RING_LAYOUT_TAG};
pub use fault::{BadPlan, FaultPlan};
pub use harness::{fork_child, Child, ChildExit};
pub use oplog::{LoggedEvent, OpKind, OpLog, RetKind};
pub use queue::{layout_tag, ShmHandle, ShmQueue};
pub use segment::{ShmBox, ShmSegment, MAX_PROCS, SCRATCH_WORDS, SHM_MAGIC, SHM_VERSION};

use bq_core::queue::{ConcurrentQueue, Full};
use bq_memtrack::{FootprintBreakdown, MemoryFootprint, OverheadClass};

impl ConcurrentQueue for ShmQueue<u64> {
    type Handle = ShmHandle;

    fn register(&self) -> ShmHandle {
        ShmQueue::register(self)
    }

    fn enqueue(&self, h: &mut ShmHandle, v: u64) -> Result<(), Full> {
        ShmQueue::enqueue(self, h, v).map_err(Full)
    }

    fn dequeue(&self, h: &mut ShmHandle) -> Option<u64> {
        ShmQueue::dequeue(self, h)
    }

    fn capacity(&self) -> usize {
        ShmQueue::capacity(self)
    }

    fn max_token(&self) -> u64 {
        u64::MAX
    }

    fn len(&self) -> usize {
        ShmQueue::len(self)
    }
}

impl MemoryFootprint for ShmQueue<u64> {
    fn footprint(&self) -> FootprintBreakdown {
        let c = self.capacity();
        FootprintBreakdown::with_elements(c * 8)
            .add(
                "per-slot round/state/owner words (8 B × C)",
                c * 8,
                OverheadClass::PerSlotMetadata,
            )
            .add(
                "head + tail counters (cache-padded)",
                256,
                OverheadClass::Counters,
            )
            .add(
                "segment header (id words, scratch, process table)",
                std::mem::size_of::<segment::SegHdr>(),
                OverheadClass::Other,
            )
    }
}

#[cfg(test)]
mod facade_tests {
    use super::*;

    #[test]
    fn concurrent_queue_facade_round_trips() {
        let q = ShmQueue::<u64>::create_anon(4).unwrap();
        let mut h = ConcurrentQueue::register(&q);
        ConcurrentQueue::enqueue(&q, &mut h, 9).unwrap();
        assert_eq!(ConcurrentQueue::len(&q), 1);
        assert_eq!(ConcurrentQueue::dequeue(&q, &mut h), Some(9));
        assert_eq!(
            ConcurrentQueue::enqueue(&q, &mut h, 1).and(Ok(2)),
            Ok(2),
            "facade reports Full through the workspace error type"
        );
    }

    #[test]
    fn footprint_reports_theta_c_plus_header() {
        let small = ShmQueue::<u64>::create_anon(1 << 6).unwrap();
        let large = ShmQueue::<u64>::create_anon(1 << 12).unwrap();
        let (s, l) = (small.overhead_bytes(), large.overhead_bytes());
        // Θ(C): 8 bytes of slot metadata per extra slot; header constant.
        assert_eq!((l - s) / ((1 << 12) - (1 << 6)), 8);
    }
}
