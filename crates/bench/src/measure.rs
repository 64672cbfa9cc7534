//! The timing core behind `throughput_table`. A *cell* runs a workload for
//! a given number of iterations and returns the time they took.
//! [`Table::row`] doubles the count from 1 until one cell reaches the time
//! target (200 ms; 5 ms under `MEMBQ_SMOKE`); that cell is the warm-up and
//! is not reported. Then `N` cells (5; 3 in smoke) run at that count, and
//! their median, min and max in ns per operation are printed and kept.
//! Threads start through [`run_threads`]: spawned, set up (a handle, a
//! pre-fill, their own token range) and parked at a barrier before the
//! clock starts. Workloads are generic over the queue type, so a cell pays
//! no virtual call or registry lock the queue would not.

use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::meta::smoke_mode;

/// How long one cell must take, and how many cells a row reports.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The doubling stops at the first cell that takes at least this long.
    pub target: Duration,
    /// Reported cells per row.
    pub cells: usize,
}

impl Plan {
    /// 200 ms × 5 cells; 5 ms × 3 cells under `MEMBQ_SMOKE`.
    pub fn from_env() -> Plan {
        let (ms, cells) = if smoke_mode() { (5, 3) } else { (200, 5) };
        let target = Duration::from_millis(ms);
        Plan { target, cells }
    }

    /// The iteration count the doubling settled on, and the cells' times.
    fn run(&self, mut cell: impl FnMut(u64) -> Duration) -> (u64, Vec<Duration>) {
        let mut iters = 1u64;
        while cell(iters) < self.target {
            iters *= 2;
        }
        (iters, (0..self.cells).map(|_| cell(iters)).collect())
    }
}

/// One reported row, in nanoseconds per operation.
#[derive(Serialize, Debug)]
pub struct Row {
    /// Experiment ID (`E10b`, `E11`, …).
    pub experiment: &'static str,
    /// What the row measures, unique within its experiment.
    pub label: String,
    /// Threads per cell.
    pub threads: usize,
    /// Iterations per cell.
    pub iters: u64,
    /// Median, smallest and largest cell.
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Every reported cell, in run order.
    pub cells: Vec<f64>,
}

/// The rows of one run, printed as they are measured.
pub struct Table {
    plan: Plan,
    /// Every row so far, for `meta::write_bench_json`.
    pub rows: Vec<Row>,
}

impl Table {
    /// An empty table measuring under `plan`.
    pub fn new(plan: Plan) -> Table {
        Table { plan, rows: vec![] }
    }

    /// Measure one row: `cell(iters)` runs `iters` iterations of
    /// `ops_per_iter` operations each, counted over all `threads`. Prints
    /// `label median [min, max]` in ns/op and returns the median.
    pub fn row(
        &mut self,
        experiment: &'static str,
        label: impl Into<String>,
        threads: usize,
        ops_per_iter: u64,
        cell: impl FnMut(u64) -> Duration,
    ) -> f64 {
        let (iters, times) = self.plan.run(cell);
        let ops = (iters * ops_per_iter) as f64;
        let cells: Vec<f64> = times.iter().map(|d| d.as_nanos() as f64 / ops).collect();
        let mut v = cells.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (median, min, max) = ((v[(n - 1) / 2] + v[n / 2]) / 2.0, v[0], v[n - 1]);
        let label = label.into();
        println!("{label:<34} {median:>10.1} [{min:.1}, {max:.1}]");
        self.rows.push(Row {
            experiment,
            label,
            threads,
            iters,
            median,
            min,
            max,
            cells,
        });
        median
    }
}

/// Time one cell: `threads` threads each run `setup(tid)` untimed and park
/// at a barrier; the clock runs from the last arrival until every thread
/// has run the closure its setup returned.
pub fn run_threads<S, W>(threads: usize, setup: S) -> Duration
where
    S: Fn(usize) -> W + Sync,
    W: FnOnce(),
{
    run_threads_on(&Instant::now, threads, setup)
}

/// [`run_threads`] reading `now` for its two clock reads.
fn run_threads_on<S, W>(now: &(dyn Fn() -> Instant + Sync), threads: usize, setup: S) -> Duration
where
    S: Fn(usize) -> W + Sync,
    W: FnOnce(),
{
    let (barrier, start) = (Barrier::new(threads), OnceLock::new());
    std::thread::scope(|s| {
        for tid in 0..threads {
            let (barrier, start, setup) = (&barrier, &start, &setup);
            s.spawn(move || {
                let work = setup(tid);
                // The last thread to arrive leads: it reads the clock.
                if barrier.wait().is_leader() {
                    start.set(now()).expect("one leader per barrier");
                }
                work();
            });
        }
    });
    now() - *start.get().expect("the barrier had a leader")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A cell whose cost is `step` per iteration, recording every call.
    fn stepped(step: Duration, calls: &mut Vec<u64>) -> impl FnMut(u64) -> Duration + '_ {
        move |iters| {
            calls.push(iters);
            step * iters as u32
        }
    }

    #[test]
    fn doubling_stops_at_the_first_cell_that_reaches_the_target() {
        let plan = Plan {
            target: Duration::from_millis(200),
            cells: 5,
        };
        let mut calls = Vec::new();
        // 1 ms per iteration: 128 ms misses the target, 256 ms reaches it.
        let (iters, times) = plan.run(stepped(Duration::from_millis(1), &mut calls));
        assert_eq!(iters, 256);
        assert_eq!(times, vec![Duration::from_millis(256); 5]);
        // Doubling 1 … 256 (the 256 is the warm-up), then five cells.
        let doubling: Vec<u64> = (0..=8).map(|k| 1 << k).collect();
        assert_eq!(calls[..9], doubling[..]);
        assert_eq!(calls[9..], [256; 5]);

        // A cell that meets the target at once is still run N more times.
        let mut calls = Vec::new();
        let (iters, _) = plan.run(stepped(Duration::from_secs(1), &mut calls));
        assert_eq!((iters, calls), (1, vec![1; 6]));
    }

    #[test]
    fn the_warm_up_cell_is_not_reported_and_n_cells_are() {
        let plan = Plan {
            target: Duration::from_millis(10),
            cells: 5,
        };
        // Call 0 reaches the target (the warm-up) and reads 999 ms; the
        // reported cells read 30, 10, 50, 20, 40 ms for 2 operations each.
        let script = [999u64, 30, 10, 50, 20, 40];
        let mut k = 0;
        let mut table = Table::new(plan);
        let median = table.row("E0", "scripted", 1, 2, |iters| {
            assert_eq!(iters, 1);
            k += 1;
            Duration::from_millis(script[k - 1])
        });
        assert_eq!(k, 6, "one warm-up cell and five reported cells");
        let row = &table.rows[0];
        assert_eq!(row.cells, vec![15e6, 5e6, 25e6, 10e6, 20e6], "ns per op");
        assert!(!row.cells.contains(&(999e6 / 2.0)), "warm-up reported");
        assert_eq!((median, row.median), (15e6, 15e6));
        assert_eq!((row.min, row.max, row.iters), (5e6, 25e6, 1));
        // An even count takes the mean of the middle two.
        let mut even = Table::new(Plan { cells: 4, ..plan });
        let script = [10u64, 40, 10, 20, 30];
        let mut k = 0;
        let median = even.row("E0", "even", 1, 1, |_| {
            k += 1;
            Duration::from_millis(script[k - 1])
        });
        assert_eq!(median, 25e6);
    }

    #[test]
    fn a_two_thread_cell_starts_its_clock_after_both_reached_the_barrier() {
        let arrived = AtomicUsize::new(0);
        let reads = AtomicUsize::new(0);
        let clock = || {
            assert_eq!(arrived.load(Ordering::SeqCst), 2, "clock read early");
            reads.fetch_add(1, Ordering::SeqCst);
            Instant::now()
        };
        let ran = AtomicUsize::new(0);
        run_threads_on(&clock, 2, |tid| {
            if tid == 1 {
                // The late arrival: its setup is slow.
                std::thread::sleep(Duration::from_millis(20));
            }
            arrived.fetch_add(1, Ordering::SeqCst);
            || {
                ran.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(reads.load(Ordering::SeqCst), 2, "one start, one stop");
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }
}
