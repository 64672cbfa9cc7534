//! **Experiments E1 / E3 / E5 / E6 / E7 / E9 / E18** — the memory-overhead
//! tables.
//!
//! Prints, for every queue implementation:
//!
//! 1. overhead vs capacity `C` at fixed `T` (constant-overhead claims:
//!    Listings 2/3 flat, Listings 4/5 flat, Θ(C) designs linear);
//! 2. overhead vs thread bound `T` at fixed `C` (Θ(T) claims: Listings 4/5
//!    linear, everything else flat);
//! 3. an itemized breakdown at a reference point, cross-checked against the
//!    counting allocator;
//! 4. E18, the constants E6/E7 leave unchecked: bytes per thread of the
//!    Θ(T) designs and the capacity from which Listing 5 is smaller than a
//!    Θ(C) ring (CI prints this section as its "Footprint ledger").
//!
//! Run: `cargo run --release -p bq-bench --bin overhead_table [--verbose]`

use serde::Serialize;

use bq_bench::registry::{QueueKind, ALL_KINDS};
use bq_memtrack::report::{render_breakdown, render_table};
use bq_memtrack::{AllocScope, OverheadRow, TrackingAlloc};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

fn row(kind: QueueKind, c: usize, t: usize) -> OverheadRow {
    let scope = AllocScope::begin();
    let q = kind.build(c, t);
    let measured = scope.live_delta();
    OverheadRow {
        name: kind.name().to_string(),
        capacity: c,
        threads: t,
        breakdown: q.footprint(),
        measured_heap_bytes: Some(measured),
    }
}

/// Machine-readable record for `--json` (one per queue × parameter point).
#[derive(Serialize)]
struct JsonRow {
    queue: String,
    claimed: &'static str,
    capacity: usize,
    threads: usize,
    element_bytes: usize,
    overhead_bytes: usize,
    measured_heap_bytes: Option<usize>,
}

fn json_dump() {
    let mut rows = Vec::new();
    for kind in ALL_KINDS {
        for &c in &[64usize, 256, 1024, 4096, 16384] {
            for &t in &[1usize, 2, 4, 8, 16, 32, 64] {
                let r = row(*kind, c, t);
                rows.push(JsonRow {
                    queue: r.name,
                    claimed: kind.claimed_overhead(),
                    capacity: c,
                    threads: t,
                    element_bytes: r.breakdown.element_bytes,
                    overhead_bytes: r.breakdown.overhead_bytes(),
                    measured_heap_bytes: r.measured_heap_bytes,
                });
            }
        }
    }
    println!("{}", serde_json::to_string_pretty(&rows).unwrap());
}

fn main() {
    if std::env::args().any(|a| a == "--json") {
        json_dump();
        return;
    }
    let verbose = std::env::args().any(|a| a == "--verbose");

    println!("=== E1/E3/E5/E9: overhead vs capacity C (T = 8 fixed) ===");
    println!("paper claim per algorithm in brackets; constant-overhead rows must stay flat\n");
    for kind in ALL_KINDS {
        let rows: Vec<OverheadRow> = [64usize, 256, 1024, 4096, 16384]
            .iter()
            .map(|&c| row(*kind, c, 8))
            .collect();
        println!("[{}  —  claimed {}]", kind.name(), kind.claimed_overhead());
        print!("{}", render_table(&rows));
        let first = rows.first().unwrap().breakdown.overhead_bytes();
        let last = rows.last().unwrap().breakdown.overhead_bytes();
        let growth = last as f64 / first.max(1) as f64;
        println!("    C grew 256x; overhead grew {growth:.1}x\n");
    }

    println!("=== E6/E7: overhead vs thread bound T (C = 1024 fixed) ===\n");
    for kind in ALL_KINDS {
        let rows: Vec<OverheadRow> = [1usize, 2, 4, 8, 16, 32, 64]
            .iter()
            .map(|&t| row(*kind, 1024, t))
            .collect();
        println!("[{}  —  claimed {}]", kind.name(), kind.claimed_overhead());
        print!("{}", render_table(&rows));
        let first = rows.first().unwrap().breakdown.overhead_bytes();
        let last = rows.last().unwrap().breakdown.overhead_bytes();
        let growth = last as f64 / first.max(1) as f64;
        println!("    T grew 64x; overhead grew {growth:.1}x\n");
    }

    if verbose {
        println!("=== itemized breakdowns at (C=1024, T=8) ===\n");
        for kind in ALL_KINDS {
            println!("{}", render_breakdown(&row(*kind, 1024, 8)));
        }
    }

    println!("=== E18: the constant in Θ(T), and the crossover against a Θ(C) ring ===");
    let ovh = |kind: QueueKind, c, t| row(kind, c, t).breakdown.overhead_bytes();
    for kind in [QueueKind::Optimal, QueueKind::Dcss] {
        let (hi, lo) = (ovh(kind, 1024, 64), ovh(kind, 1024, 3));
        let per_t = (hi - lo) / 61;
        println!(
            "{:<16} overhead_bytes (C=1024, T=64) = {hi}, (C=1024, T=3) = {lo}: \
             {per_t} bytes per T + {} constant",
            kind.name(),
            lo - 3 * per_t
        );
    }
    let per_c = (ovh(QueueKind::Vyukov, 4096, 8) - ovh(QueueKind::Vyukov, 1024, 8)) / 3072;
    println!(
        "{:<16} {per_c} bytes per C + {} constant",
        QueueKind::Vyukov.name(),
        ovh(QueueKind::Vyukov, 1024, 8) - 1024 * per_c
    );
    for t in [3usize, 16, 64] {
        let cross = (2usize..)
            .find(|&c| ovh(QueueKind::Optimal, c, t) < ovh(QueueKind::Vyukov, c, t))
            .expect("Θ(T) drops below Θ(C) at some C");
        println!(
            "T = {t:<3} optimal is the smaller queue from C = {cross} (= 8·T + {})",
            cross - 8 * t
        );
    }
    println!();

    println!("=== E9 summary at (C=1024, T=8), sorted by overhead ===\n");
    let mut rows: Vec<OverheadRow> = ALL_KINDS.iter().map(|k| row(*k, 1024, 8)).collect();
    rows.sort_by_key(|r| r.breakdown.overhead_bytes());
    print!("{}", render_table(&rows));
    println!(
        "\nExpected ordering (paper): Θ(1) strawmen (unsound) < Θ(T) descriptor designs \
         (Listings 4/5) < Θ(C) per-slot designs (Vyukov/SCQ/LLSC-emulated) < Θ(n) MS."
    );
}
