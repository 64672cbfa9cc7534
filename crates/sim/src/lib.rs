//! # bq-sim — linearizability checking, schedule exploration, and the
//! lower-bound adversary on the shipped queues
//!
//! The lower bound of *Memory Bounds for Concurrent Bounded Queues*
//! (Theorem 3.12) is proved by an **adversary argument**: threads are run
//! step by step and paused ("poised") immediately before CAS operations on
//! value-locations; fill/empty procedures are replayed; and for any
//! algorithm with fewer than Θ(T) extra value-locations a non-linearizable
//! execution is constructed (Figure 3).
//!
//! This crate runs that argument on the compiled `bq-core` queues, through
//! one execution engine:
//!
//! * [`lincheck`] — a Wing–Gong-style linearizability checker for bounded
//!   queue histories (strict FIFO and the pool relaxation), used to
//!   certify the adversary's executions and to validate stress-test and
//!   explored histories.
//! * [`explore`] — the schedule explorer (DESIGN.md §11): the replayable
//!   [`Schedule`] artifact and — under the `explore` feature — an engine
//!   that runs the real `bq-core` algorithms on cooperative threads
//!   through their `simyield` hook seam. It takes each scheduling choice
//!   from a schedule prefix (bounded enumeration of interleavings, or a
//!   replay), from a chooser closure that is told the schedule, or from
//!   its default policy.
//! * `adversary` (feature `explore`) — the packaged experiments E4/E8 and
//!   Theorem 3.12's Step 1: the Figure 3 constructions, Lemma 3.7's poised
//!   victim and the Lemma A.2 interleaving, told to the chooser as
//!   per-thread operation plans on the shipped queues, printed by the
//!   `adversary` example.

#![deny(missing_docs)]

#[cfg(feature = "explore")]
pub mod adversary;
pub mod explore;
pub mod lincheck;

pub use explore::{token_domain_violations, Schedule};
pub use lincheck::{
    check_history, check_history_pool, History, HistoryEvent, LinResult, Op, OpId, Ret,
};
