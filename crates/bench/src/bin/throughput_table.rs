//! The time experiments the benchmark ladder does not price (EXPERIMENTS.md
//! E10b, E10c, E11, E15, E16, E17), every row measured by `bq_bench::measure`:
//! one warm-up cell, then N cells of ≥ 200 ms each, printed as median
//! [min, max] nanoseconds per operation and written to
//! `BENCH_throughput_table.json`.
//!
//! Run: `cargo run --release -p bq-bench --bin throughput_table`
//! (`--features obs` for E17's other build; `MEMBQ_SMOKE=1` for 5 ms × 3
//! cells).

use std::time::Duration;

use bq_baselines::VyukovQueue;
use bq_bench::facade::blocking_pairs_throughput;
use bq_bench::measure::{run_threads, Plan, Table};
use bq_bench::meta::{run_meta, write_bench_json};
use bq_bench::payload::{
    payload_pairs_bytering, payload_pairs_grant, payload_pairs_move, PAYLOAD_BYTES,
};
use bq_core::{ConcurrentQueue, OptimalQueue, SegmentQueue, ShardedQueue, TimeLimit};

const C: usize = 1024;

/// The first token of thread `tid`'s own range.
fn first_token(tid: usize) -> u64 {
    (tid as u64 + 1) << 40
}

/// One thread alternating enqueue and dequeue, `iters` pairs, on a fresh
/// queue from `make` holding `prefill` elements, with `idle` handles
/// registered before the working one (whose slot then ends Listing 5's
/// announcement scan).
fn solo_cell<Q: ConcurrentQueue + Sync>(
    make: impl Fn() -> Q,
    prefill: u64,
    idle: usize,
) -> impl FnMut(u64) -> Duration {
    move |iters| {
        let q = make();
        let _idle: Vec<_> = (0..idle).map(|_| q.register()).collect();
        run_threads(1, |tid| {
            let mut h = q.register();
            for v in 1..=prefill {
                q.enqueue(&mut h, v).expect("pre-fill fits");
            }
            let (q, first) = (&q, first_token(tid));
            move || {
                for v in first..first + iters {
                    q.enqueue(&mut h, v).expect("room for one more");
                    q.dequeue(&mut h).expect("an element is present");
                }
            }
        })
    }
}

/// `threads` threads each move `batch` fresh tokens in (`enqueue_many`)
/// and `batch` out (`dequeue_many`) per iteration on a fresh half-full
/// queue from `make`; thread 0 pre-fills it before the barrier.
fn batch_cell<Q: ConcurrentQueue + Sync>(
    make: impl Fn() -> Q,
    threads: usize,
    batch: usize,
) -> impl FnMut(u64) -> Duration {
    move |iters| {
        let q = make();
        run_threads(threads, |tid| {
            let mut h = q.register();
            if tid == 0 {
                for v in 1..=(q.capacity() / 2) as u64 {
                    q.enqueue(&mut h, v).expect("pre-fill fits");
                }
            }
            let (q, mut next) = (&q, first_token(tid));
            let (mut vs, mut out) = (vec![0u64; batch], Vec::with_capacity(batch));
            move || {
                for _ in 0..iters {
                    for v in vs.iter_mut() {
                        *v = next;
                        next += 1;
                    }
                    let mut sent = 0;
                    while sent < batch {
                        let n = q.enqueue_many(&mut h, &vs[sent..]);
                        if n == 0 {
                            std::thread::yield_now();
                        }
                        sent += n;
                    }
                    let mut got = 0;
                    while got < batch {
                        out.clear();
                        let n = q.dequeue_many(&mut h, batch - got, &mut out);
                        if n == 0 {
                            std::thread::yield_now();
                        }
                        got += n;
                    }
                }
            }
        })
    }
}

fn main() {
    let meta = run_meta();
    let plan = Plan::from_env();
    let mut table = Table::new(plan);
    println!(
        "every row: one warm-up cell, then {} cells of >= {:?}; ns per operation,\n\
         median [min, max]; host_cores = {} (git_sha {}, smoke {})",
        plan.cells, plan.target, meta.host_cores, meta.git_sha, meta.smoke
    );

    println!("\n=== E10b: Listing 5 ns/op vs thread bound T and vs handles registered ===");
    println!("one thread, enqueue + dequeue on an empty queue, C = {C}\n");
    let optimal = |t: usize| move || OptimalQueue::with_capacity_and_threads(C, t);
    for t in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let label = format!("optimal T={t} registered=1");
        table.row("E10b", label, 1, 2, solo_cell(optimal(t), 0, 0));
    }
    let mut by_registered = Vec::new();
    for r in [1usize, 2, 4, 8, 16, 32, 64] {
        let label = format!("optimal T=64 registered={r}");
        by_registered.push(table.row("E10b", label, 1, 2, solo_cell(optimal(64), 0, r - 1)));
    }
    for r in [1usize, 8, 64] {
        let label = format!("vyukov (control) registered={r}");
        let vyukov = || VyukovQueue::with_capacity(C);
        table.row("E10b", label, 1, 2, solo_cell(vyukov, 0, r - 1));
    }
    println!(
        "\nregistered 64 / registered 1 = {:.2}x: find_op scans the slots of the\n\
         handles registered, not the T the queue was sized for (DESIGN.md §7.2)",
        by_registered[6] / by_registered[0]
    );

    println!("\n=== E10c: Listing 1 ns/op vs segment size K ===");
    println!("one thread, enqueue + dequeue on a half-full queue, C = 4096\n");
    for k in [4usize, 16, 64, 256, 1024, 4096] {
        let segment = move || SegmentQueue::with_capacity_and_segment_size(4096, k);
        table.row(
            "E10c",
            format!("segment K={k}"),
            1,
            2,
            solo_cell(segment, 2048, 0),
        );
    }

    println!("\n=== E11: ShardedQueue<OptimalQueue>, shard count S x batch size B ===");
    println!("two threads, batched enqueue + dequeue on a half-full queue, C = {C};\nns per item enqueued or dequeued\n");
    for s in [1usize, 2, 4, 8] {
        for b in [1usize, 8, 64] {
            let sharded = move || ShardedQueue::<OptimalQueue>::optimal(C, s, 2);
            let items = 2 * 2 * b as u64;
            table.row(
                "E11",
                format!("sharded S={s} B={b}"),
                2,
                items,
                batch_cell(sharded, 2, b),
            );
        }
    }

    println!("\n=== E15: {PAYLOAD_BYTES} B messages, one producer and one consumer, 64 slots ===");
    println!("move = two copies per message; grant = filled and checksummed in place;");
    println!("byte-ring = grants plus a length header. ns per message\n");
    let secs = |s: f64| Duration::from_secs_f64(s);
    let mv = table.row("E15", "move", 2, 1, |n| {
        secs(payload_pairs_move(64, n).secs)
    });
    let grant = table.row("E15", "grant", 2, 1, |n| {
        secs(payload_pairs_grant(64, n).secs)
    });
    let bytes = table.row("E15", "byte-ring", 2, 1, |n| {
        secs(payload_pairs_bytering(64, n).secs)
    });
    let mib_s = |ns: f64| PAYLOAD_BYTES as f64 / ns * 1e9 / (1 << 20) as f64;
    println!(
        "\nmedians: move {:.0} MiB/s, grant {:.0} MiB/s ({:.2}x), byte-ring {:.0} MiB/s ({:.2}x)",
        mib_s(mv),
        mib_s(grant),
        mv / grant,
        mib_s(bytes),
        mv / bytes
    );

    println!("\n=== E16: blocking pairs, untimed vs a 600 s timeout that never fires ===");
    println!("the timeout is pinned to the clock at the first park (DESIGN.md §13.1)\n");
    let patience = TimeLimit::Timeout(Duration::from_secs(600));
    for (cap, threads) in [(1024usize, 1usize), (4, 2), (4, 4)] {
        let ops = 2 * threads as u64;
        let pairs = |limit| move |n| secs(blocking_pairs_throughput(cap, threads, n, limit).secs);
        let label = |name| format!("{name} C={cap} threads={threads}");
        let untimed = table.row(
            "E16",
            label("untimed"),
            threads,
            ops,
            pairs(TimeLimit::Forever),
        );
        let timed = table.row("E16", label("timed"), threads, ops, pairs(patience));
        if threads == 1 {
            println!(
                "  timed / untimed - 1 = {:+.1}%",
                (timed / untimed - 1.0) * 100.0
            );
        } else {
            // Bimodal within and between runs on a 2-core host (EXPERIMENTS
            // E16): a ratio of two such medians says nothing about deadlines.
            println!("  contended rows are bimodal: no timed / untimed ratio");
        }
    }

    println!("\n=== E17: blocking pairs, C = 1024, one thread, this build's obs counters ===");
    println!("compare against the other build over alternating runs (DESIGN.md §14.5)\n");
    let obs = if cfg!(feature = "obs") { "on" } else { "off" };
    table.row("E17", format!("untimed obs={obs}"), 1, 2, |n| {
        secs(blocking_pairs_throughput(1024, 1, n, TimeLimit::Forever).secs)
    });

    write_bench_json("BENCH_throughput_table.json", &meta, &table.rows);
    println!("\nwrote BENCH_throughput_table.json");
}
