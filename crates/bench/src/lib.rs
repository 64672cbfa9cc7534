//! # bq-bench — the experiment harness
//!
//! Shared machinery for the reproduction's experiments (DESIGN.md §4):
//! a dynamic queue registry so every experiment can iterate over all queue
//! implementations uniformly, workload drivers for the soak and the
//! tests, and [`measure`], the one timing core behind the time tables.
//!
//! The runnable entry points are:
//!
//! * `cargo run --release -p bq-bench --bin overhead_table` — E1/E3/E5/E6/E7/E9/E18
//! * `cargo run --release -p bq-bench --bin k_sweep` — E2
//! * `cargo run --release -p bq-bench --bin throughput_table` — E10b/E10c/E11/E15/E16/E17
//!   (`--features obs` for E17's second build)
//! * `cargo run --release -p bq-bench --bin soak [rounds]` — liveness soak
//!
//! The other time rows (E10, E10a, E10d, E12, E13) are priced by the
//! benchmark package's layer ladder (`BENCHMARK.json`). E4/E8, the
//! lower-bound adversary, is `bq-sim`'s `adversary` example: it needs the
//! explorer, and this crate does not enable `bq-sim/explore`, so neither
//! it nor the benchmark build compiles the `sim-explore` seam into the
//! queues it measures.

pub mod facade;
pub mod measure;
pub mod meta;
pub mod payload;
pub mod registry;
pub mod shm_procs;
pub mod workload;

pub use facade::{async_pairs_throughput, blocking_pairs_throughput, FacadeKind, ALL_FACADES};
pub use measure::{run_threads, Plan, Table};
pub use meta::{run_meta, smoke_mode, write_bench_json, BenchDoc, RunMeta};
pub use payload::{
    payload_pairs_bytering, payload_pairs_grant, payload_pairs_move, PayloadResult, PAYLOAD_BYTES,
};
pub use registry::{
    all_queues, queue_by_name, sharded_optimal, DynQueue, QueueKind, ALL_KINDS, DEFAULT_SHARDS,
};
pub use shm_procs::{shm_crash_round, shm_fork_pairs_throughput};
pub use workload::{
    batched_pairs_throughput, pairs_throughput, producer_consumer_throughput, WorkloadResult,
};
