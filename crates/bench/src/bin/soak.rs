//! Liveness soak: hammer the contended workloads on every sound queue and
//! print progress per round, so a rare hang identifies its algorithm (the
//! last line printed is the one that stuck). Since the scale layer landed
//! this includes the batched paths and the sharded compositions — the
//! descriptor-verdict class of race (DESIGN.md §7.1) is exactly what this
//! binary exists to catch pre-merge (CI runs a bounded number of rounds).
//!
//! Every round is journaled into an in-memory [`TraceRing`] (DESIGN.md
//! §14): round starts, fault-plan seeds, per-round completion. On any
//! round failure the ring is dumped as a one-line replayable `trace:v1:`
//! artifact (also written to `BENCH_soak_trace.txt`), so a red soak log
//! carries the recent-history context of the failure, not just the panic.
//! `MEMBQ_SOAK_FORCE_FAIL=<round>` forces a failure in that round — the
//! artifact path's own test hook.
//!
//! Run: `cargo run --release -p bq-bench --bin soak [rounds]`

use std::io::Write;
use std::time::Duration;

use bq_bench::facade::{timed_recv_dropped_wake_round, ALL_FACADES};
use bq_bench::registry::{sharded_optimal, ALL_KINDS};
use bq_bench::shm_procs::{shm_crash_round, shm_fault_round_with_stats, shm_fork_pairs_throughput};
use bq_bench::workload::{
    batched_pairs_throughput, pairs_throughput, producer_consumer_throughput,
};
use bq_core::obs::trace_kind;
use bq_core::TraceRing;
use bq_shm::FaultPlan;

/// Where the failure artifact lands (next to the `BENCH_*.json` tables).
const TRACE_PATH: &str = "BENCH_soak_trace.txt";

/// Record the failure, dump the replayable trace, and exit non-zero.
fn fail_with_trace(trace: &TraceRing, round: u64, why: &str) -> ! {
    trace.record(trace_kind::FAIL, round);
    let artifact = trace.dump();
    eprintln!("\nsoak FAILED in round {round}: {why}");
    eprintln!("{artifact}");
    match std::fs::write(TRACE_PATH, format!("{artifact}\n")) {
        Ok(()) => eprintln!("trace artifact written to {TRACE_PATH}"),
        Err(e) => eprintln!("could not write {TRACE_PATH}: {e}"),
    }
    std::process::exit(1);
}

fn run_round(round: u64, trace: &TraceRing) {
    for kind in ALL_KINDS {
        {
            let probe = kind.build(4, 1);
            if !probe.sound() {
                continue;
            }
        }
        print!("round {round}: {} pairs ... ", kind.name());
        std::io::stdout().flush().unwrap();
        let q = kind.build(16, 2);
        let r = pairs_throughput(&*q, 2, 200);
        print!("ok ({} ops); batched ... ", r.ops);
        std::io::stdout().flush().unwrap();
        let q = kind.build(16, 2);
        let r = batched_pairs_throughput(&*q, 2, 50, 4);
        print!("ok ({} ops); pc ... ", r.ops);
        std::io::stdout().flush().unwrap();
        let q = kind.build(8, 4);
        let r = producer_consumer_throughput(&*q, 2, 500);
        println!("ok ({} ops)", r.ops);
    }
    // Non-default shard counts only reachable through the sweep builder.
    for s in [2usize, 8] {
        print!("round {round}: sharded-optimal(S={s}) batched ... ");
        std::io::stdout().flush().unwrap();
        let q = sharded_optimal(32, s, 4);
        let r = batched_pairs_throughput(&*q, 4, 50, 4);
        println!("ok ({} ops)", r.ops);
    }
    // Waiting façades (DESIGN.md §9): a tiny capacity makes the
    // workers park constantly, hammering the eventcount wake paths —
    // a lost wake shows up here as a hang naming the façade. The batch
    // round splits runs between two consumers while producers reuse the
    // runs they park (DESIGN.md §8.4).
    for kind in ALL_FACADES {
        print!("round {round}: {} pairs ... ", kind.name());
        std::io::stdout().flush().unwrap();
        let r = kind.pairs(2, 3, 300);
        print!("ok ({} ops); batch split ... ", r.ops);
        std::io::stdout().flush().unwrap();
        let n = kind.batch_round(50);
        println!("ok ({n} values)");
    }
    // Cross-process rounds (bq-shm): fork-based pairs, then a
    // producer SIGKILLed mid-stream. The write budget walks through
    // the residues of the 5-write enqueue sequence round by round,
    // so over a soak the kill lands between every pair of shared
    // writes; the drivers panic on wedge or conservation failure.
    print!("round {round}: shm fork-pairs ... ");
    std::io::stdout().flush().unwrap();
    let r = shm_fork_pairs_throughput(16, 2, 2, 200);
    print!("ok ({} ops); shm producer-kill ... ", r.ops);
    std::io::stdout().flush().unwrap();
    let budget = 1 + (round * 7) % 23;
    let published = shm_crash_round(budget);
    println!("ok ({published} published before kill)");
    // Unified fault rounds (DESIGN.md §13.4): a seed-derived
    // FaultPlan per round. The replayable plan:v1: artifact is
    // printed BEFORE the round runs, so a panic or wedge below is
    // reproducible from the log alone (`FaultPlan::from_str`).
    let plan = FaultPlan::from_seed(round);
    trace.record(trace_kind::PLAN_SEED, round);
    print!("round {round}: shm fault plan {plan} ... ");
    std::io::stdout().flush().unwrap();
    let (published, stats) = shm_fault_round_with_stats(&plan);
    print!("ok ({published} published); ");
    // The round's cross-process post-mortem (DESIGN.md §14): poison
    // count and the per-process tallies, dead producer included.
    trace.record(trace_kind::SNAPSHOT, stats.entries().len() as u64);
    println!("stats {}", stats.to_json());
    // drop_wakes is driver-side: withhold every wake and require the
    // deadline (not a hang) to end a timed wait.
    if plan.drop_wakes {
        print!("round {round}: dropped-wake timed recv ... ");
        std::io::stdout().flush().unwrap();
        let timeout = Duration::from_millis(25);
        let waited = timed_recv_dropped_wake_round(timeout);
        assert!(
            waited < timeout + Duration::from_millis(250),
            "timed recv overshot deadline + quantum: {waited:?}"
        );
        println!("ok (deadline recovered in {waited:?})");
    } else {
        println!("round {round}: no dropped wakes in this plan");
    }
}

fn main() {
    let rounds: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50);
    let force_fail: Option<u64> = std::env::var("MEMBQ_SOAK_FORCE_FAIL")
        .ok()
        .and_then(|v| v.parse().ok());
    let trace = TraceRing::with_capacity(256);
    for round in 0..rounds {
        trace.record(trace_kind::ROUND_START, round);
        if force_fail == Some(round) {
            fail_with_trace(&trace, round, "forced by MEMBQ_SOAK_FORCE_FAIL");
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_round(round, &trace);
        }));
        if let Err(payload) = outcome {
            let why = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panic (non-string payload)");
            fail_with_trace(&trace, round, why);
        }
        trace.record(trace_kind::ROUND_OK, round);
    }
    println!("soak complete: {rounds} rounds");
}
