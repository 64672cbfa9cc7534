//! The seven workloads and the runner they share.
//!
//! A run of one workload is `SETUPS` set-ups (build the queue stack, spawn
//! and pin the workers, register, prefill, one untimed warm-up cell — their
//! median is `setup_s`), then `cells` measured cells on the last set-up.
//! Every cell does a fixed number of operations, so two commits do identical
//! work; every timing metric is the median over the measured cells.

pub mod handoff;
pub mod io_ring;
pub mod paced;
pub mod pipeline;
pub mod shm_procs;
pub mod token;

use membq::core::obs::MetricsSnapshot;

use crate::crew::Cell;
use crate::stats::{quantile_ns, Stat};
use crate::sys::{self, Region};
use crate::trace::{self, CellTrace, Name, Span};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// The warm-up cell is this fraction of a measured cell.
const WARMUP_SHARE: f64 = 0.25;
/// Spans of one cell kept for the trace file (percentiles use them all).
const TRACE_FILE_SPANS_PER_CELL: usize = 20_000;

/// What the command line fixes for a run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    /// `--seconds`: the time the measured cells take together at seed
    /// speed. Op counts scale with it; nothing is time-boxed.
    pub seconds: f64,
    /// Measured cells (7 plain, 3 traced).
    pub cells: usize,
    /// The plain build's reading of this workload, against which the traced
    /// run reports `trace.overhead_pct`.
    pub plain_ref: Option<PlainRef>,
}

#[derive(Clone, Copy, Debug)]
pub struct PlainRef {
    pub items_per_s: f64,
    pub latency_p50_us: f64,
}

impl Params {
    /// Items in one measured cell, from the rate the workload runs at on
    /// the seed commit (`seed_items_per_s`, a constant of the benchmark):
    /// the plain run's cells take `seconds` together. A traced run has
    /// fewer cells of the same size.
    pub fn cell_ops(&self, seed_items_per_s: f64) -> u64 {
        let ops = seed_items_per_s * self.seconds / crate::PLAIN_CELLS as f64;
        (ops as u64).max(trace::SAMPLE_EVERY * 4)
    }
}

/// What one worker reports for one cell.
#[derive(Default)]
pub struct WorkerCell {
    /// The worker's timed region, `CLOCK_MONOTONIC` ns.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Thread CPU consumed inside the region; 0 for an open-loop generator,
    /// which is load, not system.
    pub cpu_ns: u64,
    /// Items this worker saw delivered and verified.
    pub items: u64,
    /// Deliveries that failed verification (duplicate, corrupt, misordered).
    pub bad: u64,
    /// Open loop only: sends the queue refused. They are failures (the item
    /// was not delivered) but not wrong output.
    pub refused: u64,
    /// Payload bytes verified.
    pub bytes: u64,
    /// Latency samples of delivered items, ns.
    pub lat_ns: Vec<u32>,
    /// Traced runs only: further samples a workload's own per-layer metrics
    /// read, in an order the workload fixes.
    pub extra: Vec<Vec<u32>>,
}

/// One live set-up of a workload: the queue stack plus its pinned workers.
pub trait Live {
    /// Run one cell on every worker. Does not return on a hang or a panic
    /// (see [`crate::crew::die`]).
    fn run_cell(&mut self, cell: Cell) -> Vec<WorkerCell>;

    /// The recorder regions of the workers, drained after every cell.
    fn regions(&self) -> &[Region];

    /// Bytes beyond the element arrays held by the workload's queue stack,
    /// from `MemoryFootprint`.
    fn overhead_bytes(&self) -> usize;

    /// The `obs` counters of the queue stack, summed under the names the
    /// layer metrics read. Empty in the plain build.
    fn counters(&self) -> MetricsSnapshot;

    /// This workload's own per-layer metrics for one traced cell.
    fn layer_cell(&self, cell: &CellView) -> Vec<(&'static str, f64)>;

    /// Stop the workers and check what is left in the queues. Returns the
    /// number of items found missing or surplus.
    fn stop(self) -> u64;
}

/// Everything a workload's `layer_cell` may read about one traced cell.
pub struct CellView<'a> {
    pub trace: &'a CellTrace,
    /// `obs` counter deltas over the cell.
    pub counters: &'a MetricsSnapshot,
    pub workers: &'a [WorkerCell],
    pub wall_ns: u64,
    pub items: u64,
    pub lat_ns: &'a [u32],
}

impl CellView<'_> {
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).unwrap_or(0) as f64
    }

    pub fn per_item(&self, count: f64) -> f64 {
        count / self.items.max(1) as f64
    }

    /// The `p`-quantile of the sampled durations of calls into `name`, ns.
    pub fn call_ns(&self, name: Name, p: f64) -> f64 {
        quantile_ns(&mut self.trace.durations(name), p)
    }

    /// Share of the cell's wall time worker `i` spent on its CPU.
    pub fn busy_share(&self, i: usize) -> f64 {
        self.workers[i].cpu_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// The result of running one workload.
pub struct Outcome {
    /// Pinned workers (threads or processes) the workload ran on.
    pub workers: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The failures that are wrong output — lost, duplicated, corrupted —
    /// and not refusals of an open-loop send. 0 is what `correct` means.
    pub incorrect: u64,
    pub end_to_end: Vec<(&'static str, Stat)>,
    /// Empty in the plain build.
    pub per_layer: Vec<(&'static str, Stat)>,
    pub spans: Vec<Span>,
}

/// Sum the counters of `snap` whose name ends in `suffix` — the same
/// counter on every shard and in both directions of a waiting façade.
pub fn sum_suffix(snap: &MetricsSnapshot, suffix: &str) -> u64 {
    let dotted = format!(".{suffix}");
    snap.entries()
        .iter()
        .filter(|(n, _)| n == suffix || n.ends_with(&dotted))
        .map(|&(_, v)| v)
        .sum()
}

/// Run `setup` [`SETUPS`] times and the measured cells on the last one.
pub fn run<L: Live>(open_loop: bool, p: &Params, cell_ops: u64, setup: impl Fn() -> L) -> Outcome {
    let warmup = Cell {
        index: 0,
        ops: ((cell_ops as f64 * WARMUP_SHARE) as u64).max(trace::SAMPLE_EVERY * 2),
    };
    let mut setup_s = Vec::new();
    let mut live = None;
    let mut residue = 0;
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            residue += L::stop(old);
        }
        let t0 = sys::now_ns();
        let mut l = setup();
        l.run_cell(warmup);
        setup_s.push((sys::now_ns() - t0) as f64 / 1e9);
        live = Some(l);
    }
    let mut live = live.expect("SETUPS > 0");
    trace::collect(live.regions(), 1);
    let mut counters = live.counters();

    let mut e2e: Vec<(&'static str, Vec<f64>)> = [
        "items_per_s",
        "payload_mib_per_s",
        "latency_p50_us",
        "cpu_ns_per_item",
    ]
    .map(|n| (n, Vec::new()))
    .into();
    let mut layer: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut spans = Vec::new();
    let (mut attempted, mut failed, mut refused, mut pinned) = (0, residue, 0, 0);
    for index in 1..=p.cells {
        let allocs = trace::alloc_blocks();
        let workers = live.run_cell(Cell {
            index,
            ops: cell_ops,
        });
        let allocs = trace::alloc_blocks() - allocs;
        pinned = workers.len();
        let cell_trace = trace::collect(live.regions(), index + 1);

        let start = workers.iter().map(|w| w.start_ns).min().expect("workers");
        let end = workers.iter().map(|w| w.end_ns).max().expect("workers");
        let wall_ns = (end - start).max(1);
        let items: u64 = workers.iter().map(|w| w.items).sum();
        let bad: u64 = workers.iter().map(|w| w.bad).sum();
        refused += workers.iter().map(|w| w.refused).sum::<u64>();
        let bytes: u64 = workers.iter().map(|w| w.bytes).sum();
        let cpu_ns: u64 = workers.iter().map(|w| w.cpu_ns).sum();
        let mut lat_ns: Vec<u32> = workers
            .iter()
            .flat_map(|w| w.lat_ns.iter().copied())
            .collect();
        let cell_failed = (cell_ops.saturating_sub(items) + bad).min(cell_ops);
        attempted += cell_ops;
        failed += cell_failed;

        let items_per_s = items as f64 * 1e9 / wall_ns as f64;
        let latency_p50_us = quantile_ns(&mut lat_ns, 0.5) / 1e3;
        for (slot, v) in e2e.iter_mut().zip([
            items_per_s,
            bytes as f64 * 1e9 / wall_ns as f64 / (1 << 20) as f64,
            latency_p50_us,
            cpu_ns as f64 / items.max(1) as f64,
        ]) {
            slot.1.push(v);
        }

        if cfg!(feature = "trace") {
            let now = live.counters();
            let delta = now.delta(&counters);
            counters = now;
            let latency_p99_us = quantile_ns(&mut lat_ns, 0.99) / 1e3;
            let view = CellView {
                trace: &cell_trace,
                counters: &delta,
                workers: &workers,
                wall_ns,
                items,
                lat_ns: &lat_ns,
            };
            let mut row = live.layer_cell(&view);
            row.push(("latency_p99_us", latency_p99_us));
            row.push(("allocs_per_item", view.per_item(allocs as f64)));
            if let Some(r) = p.plain_ref {
                // Plain against traced: throughput where the workload sets
                // its own pace, latency where the schedule sets it.
                let pct = if open_loop {
                    (latency_p50_us - r.latency_p50_us) / r.latency_p50_us
                } else {
                    (r.items_per_s - items_per_s) / r.items_per_s
                };
                row.push(("trace.overhead_pct", pct * 100.0));
            }
            for (name, v) in row {
                match layer.iter_mut().find(|(n, _)| *n == name) {
                    Some(slot) => slot.1.push(v),
                    None => layer.push((name, vec![v])),
                }
            }
            spans.extend(
                cell_trace
                    .spans()
                    .iter()
                    .take(TRACE_FILE_SPANS_PER_CELL)
                    .copied(),
            );
        }
    }

    let overhead_bytes = live.overhead_bytes();
    let residue = live.stop();
    failed = (failed + residue).min(attempted);

    // Shares of the whole run, not medians of cells: a median would hide a
    // cell that lost items.
    let fail_share = failed as f64 / attempted as f64;
    e2e.push(("overhead_bytes", vec![overhead_bytes as f64]));
    e2e.push(("ok_share", vec![1.0 - fail_share]));
    e2e.push(("setup_s", setup_s));
    if cfg!(feature = "trace") {
        layer.push(("fail_share", vec![fail_share]));
    }
    let stats = |rows: Vec<(&'static str, Vec<f64>)>| {
        rows.into_iter()
            .map(|(n, cells)| (n, Stat::new(crate::metrics::unit(n), cells)))
            .collect()
    };
    Outcome {
        workers: pinned,
        attempted,
        failed,
        incorrect: failed.saturating_sub(refused),
        end_to_end: stats(e2e),
        per_layer: stats(layer),
        spans,
    }
}
