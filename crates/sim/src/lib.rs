//! # bq-sim — deterministic execution simulation of bounded-queue algorithms
//!
//! The lower bound of *Memory Bounds for Concurrent Bounded Queues*
//! (Theorem 3.12) is proved by an **adversary argument**: threads are run
//! step by step and paused ("poised") immediately before CAS operations on
//! value-locations; fill/empty procedures are replayed; and for any
//! algorithm with fewer than Θ(T) extra value-locations a non-linearizable
//! execution is constructed (Figure 3).
//!
//! Real OS threads cannot be paused at exact instructions, so this crate
//! rebuilds the paper's model executably:
//!
//! * [`mem`] — simulated shared memory whose locations are labelled
//!   *value-locations* vs *metadata-locations* (the paper's §3.3 split),
//!   supporting `read`/`write`/`CAS` and (for the Listing 4 control) an
//!   atomic `DCSS` primitive.
//! * [`machine`] — queue operations as explicit step machines that expose
//!   their *next* primitive before executing it, which is exactly the
//!   capability the adversary needs to poise a thread before a CAS.
//! * [`algos`] — simulator ports of the naive constant-overhead strawman,
//!   Listing 2 (versioned nulls) and Listing 4 (DCSS).
//! * [`controller`] — the adversary API: invoke operations, run threads to
//!   poise points, resume them, record the resulting history.
//! * [`lincheck`] — a Wing–Gong-style linearizability checker for bounded
//!   queue histories, used both to certify the adversary's executions as
//!   non-linearizable and to validate stress-test histories.
//! * [`adversary`] — the packaged experiments E4/E8: the Figure 3
//!   middle-steal and the enqueue-into-hole constructions, run against each
//!   simulated algorithm.
//! * [`explore`] — the schedule explorer (DESIGN.md §11): a replayable
//!   [`Schedule`](explore::Schedule) artifact, a machine-level schedule
//!   runner used by the pinned regression fixtures, and — under the
//!   `explore` feature — bounded enumeration of interleavings of the
//!   *real* `bq-core` algorithms through their `simyield` hook seam.

#![deny(missing_docs)]

pub mod adversary;
pub mod algos;
pub mod controller;
pub mod explore;
pub mod lincheck;
pub mod machine;
pub mod mem;
pub mod theorem;

pub use adversary::{
    run_enqueue_hole, run_lemma_a2_interleaving, run_middle_steal, run_two_round_sleep,
    AdversaryReport,
};
pub use controller::{OpId, RunOutcome, Sim};
pub use explore::{run_machine_schedule, token_domain_violations, MachinePlan, Schedule};
pub use lincheck::{check_history, check_history_pool, History, HistoryEvent, LinResult};
pub use machine::{Access, Op, OpMachine, Ret, Status};
pub use mem::{Loc, LocKind, SimMemory};
pub use theorem::{step1_catch, CatchReport};
