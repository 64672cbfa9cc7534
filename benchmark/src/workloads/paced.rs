//! `paced`: the open-loop workload. A generator thread sends on a seeded
//! exponential schedule at a fixed 100 k msg/s with `try_send` — a refusal
//! is a failure, never a retry — into `AsyncQueue<u64, OptimalQueue>`. One
//! consumer task `recv().await`s under `pollster::block_on`.
//!
//! The only workload where the consumer is mostly idle. It uses `event`
//! differently from `handoff`: waker registration instead of a condvar, and
//! the producer never waits. Latency is timed from each message's *due*
//! time, so a stall is charged to every message it delays; how late the
//! generator itself ran is reported beside it. A wake-path change that wins
//! `handoff` by spinning shows its cost here as consumer CPU.
//!
//! A cell ends with a sentinel sent by blocking `send` after the last
//! message, so refusals cannot leave the consumer waiting for a count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use membq::core::obs::MetricsSnapshot;
use membq::core::{AsyncQueue, BoxedHandle, OptimalQueue};
use membq::prelude::MemoryFootprint;

use super::{CellView, Live, Outcome, Params, WorkerCell};
use crate::crew::{Body, Cell, Crew, Worker};
use crate::stats::{quantile_ns, Rng};
use crate::sys::{self, Region};
use crate::trace::{self, sampled, Name, Recorder};

/// 16 Ki messages = 160 ms of arrivals. The issue's 1024 (10 ms) made the
/// hypervisor's scheduling a source of failures: with this VM's vCPUs
/// descheduled for up to ~35 ms at a time, 4 runs in 10 refused a few hundred
/// to a few thousand messages of a million. With room for the backlog a stall
/// delays messages instead — latency from the due time charges it in full —
/// and a refusal means the consumer cannot keep up.
const CAPACITY: usize = 16 * 1024;
const MAX_THREADS: usize = 3;
/// Messages per second offered, fixed: this is the workload's definition,
/// not a measurement.
const RATE: f64 = 100_000.0;
const END_OF_CELL: u64 = u64::MAX;

struct Shared {
    queue: AsyncQueue<u64, OptimalQueue>,
    /// Offsets from the cell's start at which each message is due, ns.
    due_ns: Vec<u64>,
    /// The running cell's start, published by the generator before its
    /// first send.
    cell_start_ns: AtomicU64,
}

pub fn run(p: &Params) -> Outcome {
    sys::keep_cpus_awake(); // these workers park: see the function's docs
    let ops = p.cell_ops(RATE);
    // Exponential gaps with mean 1/RATE: Poisson arrivals, from the seed.
    let mut rng = Rng::new(p.seed);
    let mut at = 0.0;
    let due_ns: Vec<u64> = (0..ops)
        .map(|_| {
            at += -rng.unit().ln() * 1e9 / RATE;
            at as u64
        })
        .collect();
    super::run(true, p, ops, || PacedLive::setup(due_ns.clone()))
}

struct PacedLive {
    shared: Arc<Shared>,
    crew: Crew<WorkerCell>,
    regions: Vec<Region>,
}

impl PacedLive {
    fn setup(due_ns: Vec<u64>) -> PacedLive {
        let ops = due_ns.len();
        let shared = Arc::new(Shared {
            queue: AsyncQueue::new(OptimalQueue::with_capacity_and_threads(
                CAPACITY,
                MAX_THREADS,
            )),
            due_ns,
            cell_start_ns: AtomicU64::new(0),
        });
        let spans = (ops / trace::SAMPLE_EVERY as usize + 2) * 2;
        let regions: Vec<Region> = (0..2)
            .map(|_| Region::heap(trace::region_words(spans)))
            .collect();
        // Registered here, in a fixed order, so thread ids inside the queue
        // do not depend on which worker starts first.
        let (h0, h1) = (shared.queue.register(), shared.queue.register());
        let (s0, s1) = (Arc::clone(&shared), Arc::clone(&shared));
        let (r0, r1) = (Recorder::new(&regions[0], 0), Recorder::new(&regions[1], 1));
        let bodies: Vec<Body<WorkerCell>> = vec![
            Box::new(move |w| generator(&s0, h0, r0, w)),
            Box::new(move |w| consumer(&s1, h1, r1, w)),
        ];
        PacedLive {
            shared,
            crew: Crew::spawn("paced", bodies),
            regions,
        }
    }
}

fn generator(
    shared: &Shared,
    mut h: BoxedHandle<OptimalQueue>,
    mut rec: Recorder,
    w: &mut Worker<WorkerCell>,
) {
    let q = &shared.queue;
    let traced = cfg!(feature = "trace");
    while let Some(cell) = w.next_cell() {
        let n = cell.ops as usize;
        let mut out = WorkerCell::default();
        // Traced runs only: how late each send ran and the queue depth it
        // met, for the generator's own per-layer metrics.
        let (mut late, mut depth) = (Vec::new(), Vec::new());
        if traced {
            late.reserve(n);
            depth.reserve(n);
        }
        out.start_ns = sys::now_ns();
        shared.cell_start_ns.store(out.start_ns, Ordering::SeqCst);
        for (id, &due) in shared.due_ns[..n].iter().enumerate() {
            let due = out.start_ns + due;
            let mut now = sys::now_ns();
            while now < due {
                std::hint::spin_loop();
                now = sys::now_ns();
            }
            if traced {
                late.push((now - due).min(u32::MAX as u64) as u32);
                depth.push(q.len() as u32);
            }
            let id = id as u64;
            let t = rec.start(sampled(id));
            let sent = q.try_send(&mut h, id).is_ok();
            rec.end(Name::AsyncTrySend, Name::Item, id, t, sent);
            out.refused += u64::from(!sent);
        }
        // Not a message: ends the consumer's cell, and may wait for room.
        let _ = q.blocking().send(&mut h, END_OF_CELL);
        out.end_ns = sys::now_ns();
        out.extra = vec![late, depth];
        q.blocking().flush_metrics(&mut h);
        w.finish(out); // cpu_ns stays 0: the generator is load, not system
    }
}

fn consumer(
    shared: &Shared,
    mut h: BoxedHandle<OptimalQueue>,
    mut rec: Recorder,
    w: &mut Worker<WorkerCell>,
) {
    let q = &shared.queue;
    while let Some(cell) = w.next_cell() {
        let mut out = WorkerCell::default();
        out.lat_ns.reserve(cell.ops as usize);
        let cpu0 = sys::thread_cpu_ns();
        out.start_ns = sys::now_ns();
        let mut expect = 0u64;
        pollster::block_on(async {
            loop {
                // As in `handoff`'s echo: the id is known only afterwards.
                let t = rec.start(true);
                let Some(id) = q.recv(&mut h).await else {
                    break;
                };
                if id == END_OF_CELL {
                    break;
                }
                let now = sys::now_ns();
                let s = sampled(id);
                rec.end(Name::AsyncRecv, Name::Item, id, if s { t } else { 0 }, true);
                // One producer, one consumer, a FIFO queue: ids only grow,
                // and a refused message leaves a gap, never a repeat.
                if id >= expect && id < cell.ops {
                    expect = id + 1;
                    out.items += 1;
                    out.bytes += 8;
                    let due =
                        shared.cell_start_ns.load(Ordering::SeqCst) + shared.due_ns[id as usize];
                    out.lat_ns
                        .push(now.saturating_sub(due).min(u32::MAX as u64) as u32);
                    if s {
                        rec.span(Name::Item, Name::None, id, due, now);
                    }
                } else {
                    out.bad += 1;
                }
            }
        });
        out.end_ns = sys::now_ns();
        out.cpu_ns = sys::thread_cpu_ns() - cpu0;
        q.blocking().flush_metrics(&mut h);
        w.finish(out);
    }
}

impl Live for PacedLive {
    fn run_cell(&mut self, cell: Cell) -> Vec<WorkerCell> {
        self.crew.run_cell(cell)
    }

    fn regions(&self) -> &[Region] {
        &self.regions
    }

    fn overhead_bytes(&self) -> usize {
        self.shared.queue.inner_queue().overhead_bytes()
    }

    fn counters(&self) -> MetricsSnapshot {
        self.shared.queue.metrics()
    }

    fn layer_cell(&self, c: &CellView) -> Vec<(&'static str, f64)> {
        let [late, depth] = &c.workers[0].extra[..] else {
            unreachable!("the generator reports late and depth samples");
        };
        let (mut late, mut depth) = (late.clone(), depth.clone());
        vec![
            (
                "async_queue.try_send.ns_p50",
                c.call_ns(Name::AsyncTrySend, 0.5),
            ),
            (
                "event.task_parks_per_item",
                c.per_item(c.counter("not_empty.task_parks")),
            ),
            (
                "event.items_per_wake",
                c.items as f64 / c.counter("not_empty.wakes").max(1.0),
            ),
            ("queue_depth_p99", quantile_ns(&mut depth, 0.99)),
            ("generator.late_p99_us", quantile_ns(&mut late, 0.99) / 1e3),
            (
                "latency_p999_us",
                quantile_ns(&mut c.lat_ns.to_vec(), 0.999) / 1e3,
            ),
        ]
    }

    fn stop(self) -> u64 {
        self.crew.stop();
        self.shared.queue.len() as u64
    }
}
