//! Pinned worker threads driven cell by cell, under a watchdog.
//!
//! The coordinator (the main thread) spawns one worker per CPU, hands each
//! the next [`Cell`], and sleeps until every worker reports or the deadline
//! passes. It never spins, so at most `workers` threads are busy. Workers
//! leave [`Worker::next_cell`] through a spin barrier of their own, so the
//! timed region of a cell starts together on all of them.
//!
//! A panicked worker or a missed deadline ends the process through
//! [`die`]: exiting takes every thread with it, so no partner is left
//! spinning at a barrier.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sys;

/// How long one cell (or one setup) may take before the run is declared
/// hung. Cells are sized to about 1.5 s.
pub const CELL_DEADLINE: Duration = Duration::from_secs(30);

/// Fault injection for the self-test, from `MEMBQ_BENCH_FAULT`: `panic` makes
/// worker 0 panic when it is handed its first measured cell, `hang` makes it
/// never return from it (and cuts the deadline to 2 s so the test need not
/// wait out the real one). Both must end the run non-zero.
fn injected_fault() -> Option<&'static str> {
    static FAULT: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    FAULT
        .get_or_init(|| std::env::var("MEMBQ_BENCH_FAULT").ok())
        .as_deref()
}

/// One unit of work handed to every worker: a fixed number of operations,
/// never a time box, so two commits do identical work.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// 0 is the warm-up cell; measured cells count from 1.
    pub index: usize,
    /// The workload's item count for this cell.
    pub ops: u64,
}

/// End the run: the workload failed as a whole (`fail_share` = 1). Exits
/// with code 2 without printing a result.
pub fn die(workload: &str, reason: &str) -> ! {
    eprintln!("FAILED {workload}: {reason}");
    std::process::exit(2)
}

/// A reusable barrier that spins: its waiters are pinned to CPUs of their
/// own, and a condvar wake-up would start them tens of microseconds apart.
pub struct SpinGate {
    parties: usize,
    arrived: AtomicUsize,
}

impl SpinGate {
    pub fn new(parties: usize) -> SpinGate {
        SpinGate {
            parties,
            arrived: AtomicUsize::new(0),
        }
    }

    pub fn wait(&self) {
        let ticket = self.arrived.fetch_add(1, Ordering::SeqCst);
        let release_at = (ticket / self.parties + 1) * self.parties;
        while self.arrived.load(Ordering::SeqCst) < release_at {
            std::hint::spin_loop();
        }
    }
}

/// The worker's side of the crew.
pub struct Worker<R> {
    cells: Receiver<Option<Cell>>,
    results: Sender<(usize, Result<R, String>)>,
    gate: Arc<SpinGate>,
    index: usize,
}

impl<R> Worker<R> {
    /// Sleep until the coordinator starts the next cell, then line up with
    /// the other workers. `None` means the crew is being stopped.
    pub fn next_cell(&mut self) -> Option<Cell> {
        let cell = self.cells.recv().ok().flatten()?;
        if self.index == 0 && cell.index == 1 {
            match injected_fault() {
                Some("panic") => panic!("injected fault"),
                Some("hang") => loop {
                    std::thread::park();
                },
                _ => {}
            }
        }
        self.gate.wait();
        Some(cell)
    }

    /// Report this worker's result for the cell it just ran.
    pub fn finish(&mut self, result: R) {
        let _ = self.results.send((self.index, Ok(result)));
    }
}

pub type Body<R> = Box<dyn FnOnce(&mut Worker<R>) + Send>;

/// The coordinator's side: `bodies.len()` threads, worker `i` pinned to
/// `cpus[i]`.
pub struct Crew<R> {
    workload: &'static str,
    cells: Vec<Sender<Option<Cell>>>,
    results: Receiver<(usize, Result<R, String>)>,
    threads: Vec<JoinHandle<()>>,
}

impl<R: Send + 'static> Crew<R> {
    /// Spawn and pin the workers. Each body sizes its buffers on its pinned
    /// thread and then loops on [`Worker::next_cell`].
    pub fn spawn(workload: &'static str, bodies: Vec<Body<R>>) -> Crew<R> {
        let cpus = sys::startup_cpus();
        assert!(
            bodies.len() <= cpus.len(),
            "{workload} needs {} CPUs, the start-up mask has {}",
            bodies.len(),
            cpus.len()
        );
        let gate = Arc::new(SpinGate::new(bodies.len()));
        let (result_tx, results) = channel();
        let mut cells = Vec::new();
        let mut threads = Vec::new();
        for (index, body) in bodies.into_iter().enumerate() {
            let (cell_tx, cell_rx) = channel();
            cells.push(cell_tx);
            let mut worker = Worker {
                cells: cell_rx,
                results: result_tx.clone(),
                gate: Arc::clone(&gate),
                index,
            };
            let cpu = cpus[index];
            threads.push(std::thread::spawn(move || {
                sys::pin_to(cpu);
                if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(&mut worker))) {
                    let msg = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "worker panicked".into());
                    let _ = worker.results.send((index, Err(msg)));
                }
            }));
        }
        Crew {
            workload,
            cells,
            results,
            threads,
        }
    }

    /// Run one cell on every worker and return their results in worker
    /// order. Does not return when a worker panics or the deadline passes.
    pub fn run_cell(&mut self, cell: Cell) -> Vec<R> {
        for tx in &self.cells {
            let _ = tx.send(Some(cell));
        }
        let allowed = match injected_fault() {
            Some("hang") => Duration::from_secs(2),
            _ => CELL_DEADLINE,
        };
        let deadline = Instant::now() + allowed;
        let mut out: Vec<Option<R>> = self.cells.iter().map(|_| None).collect();
        for _ in 0..out.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.results.recv_timeout(left) {
                Ok((i, Ok(r))) => out[i] = Some(r),
                Ok((i, Err(panic))) => die(self.workload, &format!("worker {i} panicked: {panic}")),
                Err(RecvTimeoutError::Timeout) => die(
                    self.workload,
                    &format!(
                        "watchdog: cell {} missed its {allowed:?} deadline",
                        cell.index
                    ),
                ),
                Err(RecvTimeoutError::Disconnected) => die(self.workload, "workers vanished"),
            }
        }
        out.into_iter()
            .map(|r| r.expect("one result per worker"))
            .collect()
    }

    /// Tell every worker to leave its loop and join them.
    pub fn stop(self) {
        for tx in &self.cells {
            let _ = tx.send(None);
        }
        for t in self.threads {
            if t.join().is_err() {
                die(self.workload, "worker panicked while stopping");
            }
        }
    }
}
