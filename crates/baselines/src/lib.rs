//! # bq-baselines — related-work comparators (paper §4)
//!
//! The paper positions its bounds against the standard ways practitioners
//! build lock-free bounded queues. This crate implements those baselines
//! over the same [`bq_core::ConcurrentQueue`] token interface so that the
//! overhead table (experiment E9) and the time experiments (E10) compare
//! like for like:
//!
//! | Type | Lineage | Overhead |
//! |------|---------|----------|
//! | [`MsQueue`] | Michael & Scott 1996 | Θ(n): one linked node per element |
//! | [`VyukovQueue`] | Vyukov's bounded MPMC | Θ(C): a sequence word per slot |
//! | [`ScqStyleQueue`] | Nikolaev's SCQ (DISC'19), structural model | Θ(C): a 2C index ring over C data slots |
//! | [`TwoNullQueue`] | Tsigas & Zhang 2001, two-null model | Θ(1), **unsound** after a two-round stall |
//! | [`MutexRingQueue`] | coarse-grained lock | Θ(1) + lock, blocking |
//!
//! Structural simplifications versus the original publications (faithful in
//! *memory shape*, the paper's metric, not in every fast-path detail) are
//! documented on each type and in DESIGN.md §3.

#![deny(missing_docs)]

pub mod ms;
pub mod mutex_ring;
pub mod scq;
pub mod two_null;
pub mod vyukov;

pub use ms::MsQueue;
pub use mutex_ring::MutexRingQueue;
pub use scq::ScqStyleQueue;
pub use two_null::TwoNullQueue;
pub use vyukov::VyukovQueue;
