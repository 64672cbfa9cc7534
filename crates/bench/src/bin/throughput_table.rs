//! **Experiment E10** — throughput and the Θ(T)-time cost of memory
//! optimality.
//!
//! Two tables:
//!
//! 1. mixed enqueue/dequeue pairs, all algorithms × thread counts — the
//!    general performance landscape (§1: memory-friendliness correlates
//!    with performance; Θ(C) industrial designs are fastest);
//! 2. Listing 5 single-threaded operation cost as a function of the thread
//!    bound `T` — the paper's closing open question: its memory-optimal
//!    queue scans the `T`-slot announcement array on every operation, so
//!    per-op cost grows with `T` even without contention.
//!
//! Run: `cargo run --release -p bq-bench --bin throughput_table`

use std::time::{Duration, Instant};

use bq_bench::facade::{blocking_pairs_throughput, ALL_FACADES};
use bq_bench::meta::{append_trajectory, run_meta, smoke_mode, write_bench_json};
use bq_bench::payload::{
    payload_pairs_bytering, payload_pairs_grant, payload_pairs_move, PAYLOAD_BYTES,
};
use bq_bench::registry::{QueueKind, ALL_KINDS};
use bq_bench::shm_procs::shm_fork_pairs_throughput;
use bq_bench::workload::{pairs_throughput, print_batch_win_table};
use bq_core::{ConcurrentQueue, OptimalQueue, TimeLimit};
use serde::Serialize;

/// One machine-readable measurement for `BENCH_throughput_table.json`.
#[derive(Serialize)]
struct BenchRow {
    experiment: &'static str,
    queue: String,
    workers: usize,
    mops: f64,
    ops: u64,
}

/// E10b cell: ns per operation of one thread alternating enqueue and
/// dequeue on an `OptimalQueue` sized for `t` threads with `registered`
/// handles handed out; the last one (its slot ends the scan) does the work.
fn optimal_solo_ns_per_op(c: usize, t: usize, registered: usize, iters: u64) -> f64 {
    let q = OptimalQueue::with_capacity_and_threads(c, t);
    let mut handles: Vec<_> = (0..registered).map(|_| q.register()).collect();
    let h = handles.last_mut().expect("registered >= 1");
    let start = Instant::now();
    for v in 1..=iters {
        q.enqueue(h, v).unwrap();
        q.dequeue(h).unwrap();
    }
    start.elapsed().as_nanos() as f64 / (2 * iters) as f64
}

fn main() {
    let smoke = smoke_mode();
    let meta = run_meta();
    let c = 1024;
    let ops = if smoke { 2_000u64 } else { 20_000u64 };
    let thread_counts = [1usize, 2, 4];
    let mut bench_rows: Vec<BenchRow> = Vec::new();

    println!("=== E10a: mixed pairs throughput (C = {c}, {ops} pairs/thread) ===");
    println!("single-core host: columns >1 thread measure contention behaviour, not speedup\n");
    print!("{:<24} {:>14}", "queue", "claimed ovh");
    for t in thread_counts {
        print!(" {:>9}", format!("{t}th Mops"));
    }
    println!();
    for kind in ALL_KINDS {
        let q0 = kind.build(4, 1);
        if !q0.sound() {
            continue; // unsound models are not performance candidates
        }
        print!("{:<24} {:>14}", kind.name(), kind.claimed_overhead());
        if *kind == QueueKind::Crossbeam {
            // Not timed: see the footnote under the table.
            for _ in thread_counts {
                print!(" {:>9}", "—*");
            }
            println!();
            continue;
        }
        for t in thread_counts {
            let q = kind.build(c, t);
            let r = pairs_throughput(&*q, t, ops);
            print!(" {:>9.3}", r.mops());
            bench_rows.push(BenchRow {
                experiment: "E10a-pairs",
                queue: kind.name().to_string(),
                workers: t,
                mops: r.mops(),
                ops: r.ops,
            });
        }
        println!();
    }
    println!(
        "* crossbeam-array is not timed: offline it builds against shims/crossbeam-queue, a\n  \
         Mutex<VecDeque>, so a time would price the stand-in, not the lock-free Θ(C) crate.\n  \
         Its footprint rows (overhead_table, E3/E9) account the real crate's documented layout."
    );

    println!("\n=== E10d: batched pairs (B = 32) — the scale layer's batch win ===");
    println!("same element count as one E10a cell; see shard_sweep for the full E11 grid\n");
    print_batch_win_table(
        &[
            QueueKind::Optimal,
            QueueKind::ShardedOptimal,
            QueueKind::Segment,
            QueueKind::Vyukov,
        ],
        c,
        2,
        ops,
        32,
    );

    println!("\n=== E10b: Listing 5 per-op cost vs thread bound T and vs handles registered ===");
    println!(
        "one working thread; find_op scans the slots of the handles registered,\n\
         not the T the queue was sized for (DESIGN.md §7.2)\n"
    );
    let iters = if smoke { 3_000u64 } else { 30_000u64 };
    println!(
        "{:>6} {:>12} {:>16} {:>12}",
        "T", "registered", "ns/op (solo)", "vs first"
    );
    let bounds = [1usize, 2, 4, 8, 16, 32, 64, 128].map(|t| (t, 1));
    let registered = [1usize, 2, 4, 8, 16, 32, 64].map(|r| (64, r));
    for sweep in [&bounds[..], &registered[..]] {
        let mut base = None;
        for &(t, r) in sweep {
            let ns = optimal_solo_ns_per_op(c, t, r, iters);
            let base = *base.get_or_insert(ns);
            println!("{:>6} {:>12} {:>16.1} {:>11.2}x", t, r, ns, ns / base);
        }
        println!();
    }
    println!(
        "Reading: memory optimality costs Θ(T) bytes, and time per operation that\n\
         grows with the handles *registered* (three announcement scans per\n\
         enqueue + dequeue), not with the bound T — the paper's §3.6 open question,\n\
         whether O(1)-time memory-optimal queues exist, is about the second table.\n\
         The ledger prices the same two points as optimal.ns_per_op (T = 3) and\n\
         optimal.T64.ns_per_op, and their slope as optimal.scan_ns_per_T."
    );

    println!("\n=== E10c: Vyukov control for E10b (per-slot design, T-independent) ===\n");
    println!("{:>6} {:>16}", "T", "ns/op (solo)");
    for t in [1usize, 8, 64] {
        let q = QueueKind::Vyukov.build(c, t.max(1));
        let iters = if smoke { 5_000u64 } else { 50_000u64 };
        let start = Instant::now();
        for v in 1..=iters {
            assert!(q.enqueue(0, v));
            q.dequeue(0).unwrap();
        }
        let ns = start.elapsed().as_nanos() as f64 / (2 * iters) as f64;
        println!("{:>6} {:>16.1}", t, ns);
    }

    println!("\n=== E12: waiting façades — blocking vs async pairs (DESIGN.md §9) ===");
    println!(
        "same Listing 5 data path and the same eventcount pair; the only\n\
         difference is what parks on a full/empty queue: an OS thread\n\
         (condvar) or an async task (registered waker, block_on driver).\n\
         C = 4 forces real parking; 1-core caveat as in E11: wake-path\n\
         cost under preemption, not parallel speedup\n"
    );
    println!(
        "{:<20} {:>9} {:>12} {:>12}",
        "facade", "threads", "Mops", "ns/op"
    );
    for threads in [1usize, 2, 4] {
        for kind in ALL_FACADES {
            let r = kind.pairs(4, threads, if smoke { 1_000 } else { 10_000 });
            println!(
                "{:<20} {:>9} {:>12.3} {:>12.1}",
                kind.name(),
                threads,
                r.mops(),
                1e3 / r.mops()
            );
        }
    }
    println!(
        "\nReading: the async façade pays future/waker bookkeeping per wait but\n\
         wakes without a kernel unpark when the task is re-polled on a live\n\
         thread; neither path contains timed polling."
    );

    println!("\n=== E16: timed waits — deadline-carrying pairs vs untimed (DESIGN.md §13) ===");
    println!(
        "same blocking façade, data path and wait loop (one function, run\n\
         under TimeLimit::Forever and under a 600 s timeout that never\n\
         fires). the timeout is pinned to the clock lazily at the FIRST PARK,\n\
         so the uncontended row must show ~zero overhead (claim: <= 5%);\n\
         contended rows add one clock read per park. best of 3 runs\n"
    );
    // Larger than the other sections even in smoke: the headline is a
    // percent-level *difference*, which tiny runs drown in noise.
    let timed_ops = if smoke { 20_000u64 } else { 100_000u64 };
    let best = |mk: &dyn Fn() -> bq_bench::workload::WorkloadResult| {
        let mut b = mk();
        for _ in 0..2 {
            let r = mk();
            if r.mops() > b.mops() {
                b = r;
            }
        }
        b
    };
    println!(
        "{:<22} {:>9} {:>12} {:>12} {:>10}",
        "workload", "threads", "untimed Mops", "timed Mops", "overhead"
    );
    let mut e16_headline: Vec<(&str, f64)> = Vec::new();
    for (label, cap, threads) in [
        ("uncontended (C=1024)", 1024usize, 1usize),
        ("contended (C=4)", 4, 2),
        ("contended (C=4)", 4, 4),
    ] {
        // Far beyond any bench round's runtime: the timeout exists to be
        // carried, not to fire.
        let patience = TimeLimit::Timeout(Duration::from_secs(600));
        let untimed =
            best(&|| blocking_pairs_throughput(cap, threads, timed_ops, TimeLimit::Forever));
        let timed = best(&|| blocking_pairs_throughput(cap, threads, timed_ops, patience));
        let overhead_pct = (untimed.mops() / timed.mops() - 1.0) * 100.0;
        println!(
            "{:<22} {:>9} {:>12.3} {:>12.3} {:>9.1}%",
            label,
            threads,
            untimed.mops(),
            timed.mops(),
            overhead_pct
        );
        for (queue, r) in [
            ("blocking-optimal", &untimed),
            ("blocking-optimal-timed", &timed),
        ] {
            bench_rows.push(BenchRow {
                experiment: "E16-timed-pairs",
                queue: format!("{queue}-{threads}th-c{cap}"),
                workers: threads,
                mops: r.mops(),
                ops: r.ops,
            });
        }
        if threads == 1 {
            e16_headline.push(("uncontended_untimed_mops", untimed.mops()));
            e16_headline.push(("uncontended_timed_mops", timed.mops()));
            e16_headline.push(("uncontended_overhead_pct", overhead_pct));
        }
    }
    println!(
        "\nReading: a timed op that never parks never reads the clock — the\n\
         deadline is a value in a register until the first failed attempt.\n\
         The uncontended overhead is measurement noise around zero; the §13\n\
         claim bounds it at 5%."
    );

    println!("\n=== E17: observability overhead — `obs` counters on vs off (DESIGN.md §14) ===");
    let obs_on = cfg!(feature = "obs");
    println!(
        "this build has the obs feature {}. the uncontended blocking pair\n\
         (E16's baseline row: C=1024, 1 thread) is re-measured and recorded\n\
         to BENCH_e17_{}.json; run the other lane (cargo run --release -p\n\
         bq-bench {} --bin throughput_table) and whichever lane runs second\n\
         prints the overhead (claim: <= 5% uncontended). best of 3 runs per\n\
         invocation; the side file keeps each lane's peak across runs of\n\
         the same commit + workload (peak-vs-peak prices the counters,\n\
         not the scheduler). 1-core caveat: per-op counter cost under\n\
         preemption, not scaling\n",
        if obs_on { "ON" } else { "OFF" },
        if obs_on { "on" } else { "off" },
        if obs_on { "" } else { "--features obs" },
    );
    let e17 = best(&|| blocking_pairs_throughput(1024, 1, timed_ops, TimeLimit::Forever));
    println!("{:<22} {:>12} {:>12}", "lane", "Mops", "ns/op");
    println!(
        "{:<22} {:>12.3} {:>12.1}",
        if obs_on {
            "counters on"
        } else {
            "counters off"
        },
        e17.mops(),
        1e3 / e17.mops()
    );
    bench_rows.push(BenchRow {
        experiment: "E17-obs-overhead",
        queue: format!("blocking-optimal-obs-{}", if obs_on { "on" } else { "off" }),
        workers: 1,
        mops: e17.mops(),
        ops: e17.ops,
    });
    {
        // Two-pass side-file protocol: each lane records its own number;
        // the second lane to run finds the other's file and prices the
        // counters. Cross-lane comparisons only make sense within one
        // commit + workload size, so both are checked before comparing.
        let (mine, theirs) = if obs_on {
            ("BENCH_e17_on.json", "BENCH_e17_off.json")
        } else {
            ("BENCH_e17_off.json", "BENCH_e17_on.json")
        };
        // Peak-of-runs per lane: on a preemption-noisy host one run can
        // land anywhere in a ±20% band, swamping a percent-level bar.
        // Each lane's side file keeps its best observed throughput for
        // this commit + workload, so repeated invocations converge to a
        // peak-vs-peak comparison that prices the counters, not the
        // scheduler.
        let mine_mops = std::fs::read_to_string(mine)
            .ok()
            .filter(|t| {
                bq_bench::meta::json_str(t, "git_sha") == Some(meta.git_sha.as_str())
                    && bq_bench::meta::json_bool(t, "smoke") == Some(meta.smoke)
            })
            .and_then(|t| bq_bench::meta::json_f64(&t, "mops"))
            .map_or(e17.mops(), |prev| prev.max(e17.mops()));
        if mine_mops > e17.mops() {
            println!("(lane peak from an earlier run this commit: {mine_mops:.3} Mops)");
        }
        let mut side = String::from("{\"experiment\":\"E17-obs-overhead\",\"git_sha\":");
        meta.git_sha.write_json(&mut side);
        side.push_str(",\"smoke\":");
        meta.smoke.write_json(&mut side);
        side.push_str(",\"mops\":");
        mine_mops.write_json(&mut side);
        side.push('}');
        std::fs::write(mine, &side).unwrap_or_else(|e| panic!("write {mine}: {e}"));
        let other = std::fs::read_to_string(theirs).ok().filter(|t| {
            bq_bench::meta::json_str(t, "git_sha") == Some(meta.git_sha.as_str())
                && bq_bench::meta::json_bool(t, "smoke") == Some(meta.smoke)
        });
        match other
            .as_deref()
            .and_then(|t| bq_bench::meta::json_f64(t, "mops"))
        {
            Some(other_mops) => {
                let (on_mops, off_mops) = if obs_on {
                    (mine_mops, other_mops)
                } else {
                    (other_mops, mine_mops)
                };
                let overhead_pct = (off_mops / on_mops - 1.0) * 100.0;
                println!(
                    "{:<22} {:>12.3} {:>12.1}",
                    if obs_on {
                        "counters off"
                    } else {
                        "counters on"
                    },
                    other_mops,
                    1e3 / other_mops
                );
                println!(
                    "\nobs overhead (uncontended): {overhead_pct:+.1}%  (bar: <= 5%{})",
                    if meta.smoke {
                        "; smoke numbers are non-binding"
                    } else {
                        ""
                    }
                );
                append_trajectory(
                    &meta,
                    "E17-obs-overhead",
                    &[
                        ("obs_on_mops", on_mops),
                        ("obs_off_mops", off_mops),
                        ("overhead_pct", overhead_pct),
                    ],
                );
            }
            None => println!(
                "\n(no matching {theirs} from this commit/workload yet — run the\n\
                 other lane to complete the E17 comparison)"
            ),
        }
    }

    println!("\n=== E13: cross-process pairs — ShmQueue over fork (bq-shm) ===");
    println!(
        "each worker is a separate PROCESS sharing one mmap segment; the\n\
         protocol is the crash-consistent publication scheme of DESIGN.md\n\
         §10. 1-core caveat: columns measure the protocol under context\n\
         switching (plus amortized fork cost), not parallel speedup\n"
    );
    println!("{:<14} {:>12} {:>12}", "procs (P+C)", "Mops", "ns/op");
    let shm_per = if smoke { 2_000u64 } else { 20_000u64 };
    for (p, cons) in [(1u64, 1u64), (2, 2)] {
        let r = shm_fork_pairs_throughput(c, p, cons, shm_per);
        println!(
            "{:<14} {:>12.3} {:>12.1}",
            format!("{p}P + {cons}C"),
            r.mops(),
            1e3 / r.mops()
        );
        bench_rows.push(BenchRow {
            experiment: "E13-shm-fork-pairs",
            queue: "shm-mpmc".to_string(),
            workers: (p + cons) as usize,
            mops: r.mops(),
            ops: r.ops,
        });
    }
    println!(
        "\nReading: the same sequenced-ring data path as `vyukov`, paying\n\
         SeqCst helping CASes and process-grade context switches; the row\n\
         exists to show the multi-process backend is in the same regime,\n\
         not to win."
    );

    println!("\n=== E15: zero-copy payload path — {PAYLOAD_BYTES} B messages, 1P + 1C ===");
    println!(
        "same ring machinery three ways: move = two full payload copies per\n\
         message (local→slot, slot→local); grant = fill/checksum the slot\n\
         bytes in place (DESIGN.md §12); byte-ring = grants plus a length\n\
         header per record. every run checksums every byte delivered.\n\
         1-core caveat: P and C interleave under preemption — the copy\n\
         savings are per-operation work and show up regardless\n"
    );
    let slots = 64;
    let payload_msgs = if smoke { 5_000u64 } else { 50_000u64 };
    let rmove = payload_pairs_move(slots, payload_msgs);
    let rgrant = payload_pairs_grant(slots, payload_msgs);
    let rbytes = payload_pairs_bytering(slots, payload_msgs);
    println!(
        "{:<16} {:>12} {:>12} {:>14}",
        "path", "kmsg/s", "MiB/s", "speedup vs move"
    );
    for (name, r) in [("move", rmove), ("grant", rgrant), ("byte-ring", rbytes)] {
        println!(
            "{:<16} {:>12.1} {:>12.1} {:>14.2}x",
            name,
            r.kmsgs(),
            r.mibps(),
            rmove.secs / r.secs
        );
        bench_rows.push(BenchRow {
            experiment: "E15-payload-4k",
            queue: format!("reloc-ring-{name}"),
            workers: 2,
            mops: r.kmsgs() / 1e3,
            ops: r.msgs,
        });
    }
    let grant_speedup = rmove.secs / rgrant.secs;
    println!(
        "\nReading: the grant path is the move path minus the copies; at\n\
         {PAYLOAD_BYTES} B the copies dominate, so grants win ({grant_speedup:.2}x here).\n\
         The byte ring pays its length headers back by never touching a\n\
         slot-sized region for a smaller message."
    );

    write_bench_json("BENCH_throughput_table.json", &meta, &bench_rows);
    append_trajectory(
        &meta,
        "E15-payload-4k",
        &[
            ("move_mibps", rmove.mibps()),
            ("grant_mibps", rgrant.mibps()),
            ("bytering_mibps", rbytes.mibps()),
            ("grant_speedup_vs_move", grant_speedup),
        ],
    );
    append_trajectory(&meta, "E16-timed-pairs", &e16_headline);
    println!(
        "\nwrote {} rows to BENCH_throughput_table.json (git_sha {}, smoke {}, {} cores)\n\
         appended E15 and E16 headlines to BENCH_trajectory.jsonl",
        bench_rows.len(),
        meta.git_sha,
        meta.smoke,
        meta.host_cores
    );
}
