//! `pipeline`: producer → `BlockingQueue<u64, ShardedQueue<OptimalQueue>>`
//! → consumer, the `examples/pipeline` shape cut to two stages for two
//! cores. Items move in runs of 32 through `send_all` / `recv_many`; a cell
//! ends when the producer closes the link and the consumer drains it.
//!
//! `boxed` (one malloc plus one cross-thread free per item), the `sharded`
//! batch path, and `blocking` at the full/empty boundary do the work. It
//! uses the token queue differently from `pairs`: one-way flow, batch ops,
//! and an oscillating fill level instead of half-full.
//!
//! `close()` is final, so every cell gets a link of its own, built and
//! registered during set-up. Sharding keeps per-shard FIFO only, so the
//! consumer checks exactly-once delivery with a bitmap, not order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use membq::core::obs::MetricsSnapshot;
use membq::core::{BlockingQueue, OptimalQueue, ShardedQueue};
use membq::prelude::MemoryFootprint;

use super::{sum_suffix, CellView, Live, Outcome, Params, WorkerCell};
use crate::crew::{Body, Cell, Crew, Worker};
use crate::stats::quantile_ns;
use crate::sys::{self, Region};
use crate::trace::{self, sampled, Name, Recorder};

const RING: usize = 256;
const SHARDS: usize = 4;
const BATCH: usize = 32;
const SEED_RATE: f64 = 2.15e6;

type Link = BlockingQueue<u64, ShardedQueue<OptimalQueue>>;
type Handle = membq::core::BoxedHandle<ShardedQueue<OptimalQueue>>;

/// What the two stages share: one link per cell (warm-up included) and the
/// send stamps of the sampled items.
struct Shared {
    links: Vec<Link>,
    /// `sent_ns[id / SAMPLE_EVERY]`: when sampled item `id` entered
    /// `send_all`. Written by the producer before the send, read by the
    /// consumer after the receive; the queue orders the two.
    sent_ns: Vec<AtomicU64>,
}

pub fn run(p: &Params) -> Outcome {
    let ops = p.cell_ops(SEED_RATE) / BATCH as u64 * BATCH as u64;
    let links = p.cells + 1;
    super::run(false, p, ops, || PipelineLive::setup(ops, links))
}

struct PipelineLive {
    shared: Arc<Shared>,
    crew: Crew<WorkerCell>,
    regions: Vec<Region>,
}

impl PipelineLive {
    fn setup(cell_ops: u64, links: usize) -> PipelineLive {
        let shared = Arc::new(Shared {
            // T = 2 per link, as in the example: both endpoint threads and
            // nothing else register (there is no prefill).
            links: (0..links)
                .map(|_| BlockingQueue::new(ShardedQueue::<OptimalQueue>::optimal(RING, SHARDS, 2)))
                .collect(),
            sent_ns: (0..cell_ops / trace::SAMPLE_EVERY + 1)
                .map(|_| AtomicU64::new(0))
                .collect(),
        });
        // Per sampled item: one call span on each side, plus the root.
        let spans = (cell_ops / trace::SAMPLE_EVERY + 2) as usize * 2;
        let regions: Vec<Region> = (0..2)
            .map(|_| Region::heap(trace::region_words(spans)))
            .collect();
        // A sharded queue homes a handle by registration order, and which
        // side is homed first changes the flow, so the order is fixed here:
        // on every link the producer registers first (home shard 0), then
        // the consumer (home shard 1).
        let (h0, h1): (Vec<Handle>, Vec<Handle>) = shared
            .links
            .iter()
            .map(|q| (q.register(), q.register()))
            .unzip();
        let (s0, s1) = (Arc::clone(&shared), Arc::clone(&shared));
        let (r0, r1) = (Recorder::new(&regions[0], 0), Recorder::new(&regions[1], 1));
        let bodies: Vec<Body<WorkerCell>> = vec![
            Box::new(move |w| producer(&s0, h0, r0, w)),
            Box::new(move |w| consumer(&s1, h1, r1, cell_ops, w)),
        ];
        PipelineLive {
            shared,
            crew: Crew::spawn("pipeline", bodies),
            regions,
        }
    }
}

fn producer(
    shared: &Shared,
    mut handles: Vec<Handle>,
    mut rec: Recorder,
    w: &mut Worker<WorkerCell>,
) {
    while let Some(cell) = w.next_cell() {
        let (q, h) = (&shared.links[cell.index], &mut handles[cell.index]);
        let mut out = WorkerCell::default();
        let cpu0 = sys::thread_cpu_ns();
        out.start_ns = sys::now_ns();
        let mut id = 0;
        while id < cell.ops {
            let n = (cell.ops - id).min(BATCH as u64);
            let batch: Vec<u64> = (id..id + n).collect();
            // Runs are SAMPLE_EVERY-aligned, so a sampled id leads its run.
            let s = sampled(id);
            if s {
                shared.sent_ns[(id / trace::SAMPLE_EVERY) as usize]
                    .store(sys::now_ns(), Ordering::Relaxed);
            }
            let t = rec.start(s);
            let sent = q.send_all(h, batch).is_ok();
            rec.end(Name::BlockingSendAll, Name::Item, id, t, sent);
            id += n;
        }
        q.close();
        out.end_ns = sys::now_ns();
        out.cpu_ns = sys::thread_cpu_ns() - cpu0;
        q.flush_metrics(h);
        w.finish(out);
    }
}

fn consumer(
    shared: &Shared,
    mut handles: Vec<Handle>,
    mut rec: Recorder,
    cell_ops: u64,
    w: &mut Worker<WorkerCell>,
) {
    let mut seen = vec![0u64; cell_ops as usize / 64 + 1];
    while let Some(cell) = w.next_cell() {
        let (q, h) = (&shared.links[cell.index], &mut handles[cell.index]);
        seen.fill(0);
        let mut out = WorkerCell::default();
        out.lat_ns
            .reserve((cell.ops / trace::SAMPLE_EVERY) as usize + 1);
        let cpu0 = sys::thread_cpu_ns();
        out.start_ns = sys::now_ns();
        loop {
            // Whether this call returns a sampled item is known only after
            // it has, so every call is timed here.
            let t = rec.start(true);
            let buf = q.recv_many(h, BATCH);
            if buf.is_empty() {
                break; // closed and drained
            }
            let mut sample = None;
            for &id in &buf {
                let (word, bit) = ((id / 64) as usize, 1u64 << (id % 64));
                if id < cell.ops && seen[word] & bit == 0 {
                    seen[word] |= bit;
                    out.items += 1;
                    out.bytes += 8;
                } else {
                    out.bad += 1;
                }
                if sampled(id) && id < cell.ops {
                    sample = Some(id);
                }
            }
            match sample {
                Some(id) => {
                    let now = sys::now_ns();
                    let sent =
                        shared.sent_ns[(id / trace::SAMPLE_EVERY) as usize].load(Ordering::Relaxed);
                    out.lat_ns.push((now - sent).min(u32::MAX as u64) as u32);
                    rec.end(Name::BlockingRecvMany, Name::Item, id, t, true);
                    rec.span(Name::Item, Name::None, id, sent, now);
                }
                None => rec.end(Name::BlockingRecvMany, Name::Item, 0, 0, true),
            }
            rec.add(Name::Item, buf.len() as u64);
        }
        out.end_ns = sys::now_ns();
        out.cpu_ns = sys::thread_cpu_ns() - cpu0;
        q.flush_metrics(h);
        w.finish(out);
    }
}

impl Live for PipelineLive {
    fn run_cell(&mut self, cell: Cell) -> Vec<WorkerCell> {
        self.crew.run_cell(cell)
    }

    fn regions(&self) -> &[Region] {
        &self.regions
    }

    fn overhead_bytes(&self) -> usize {
        self.shared.links[0].inner_queue().overhead_bytes()
    }

    fn counters(&self) -> MetricsSnapshot {
        let mut sum = MetricsSnapshot::new();
        let all: Vec<MetricsSnapshot> = self.shared.links.iter().map(|q| q.metrics()).collect();
        for name in ["thread_parks", "spurious_wakes", "steals"] {
            sum.push(name, all.iter().map(|m| sum_suffix(m, name)).sum());
        }
        sum
    }

    fn layer_cell(&self, c: &CellView) -> Vec<(&'static str, f64)> {
        let calls = c.trace.calls(Name::BlockingRecvMany).max(1);
        let delivered = c.trace.calls(Name::Item);
        // A sampled item waits in the queue from the return of the send_all
        // that carried it to the return of the recv_many that delivered it.
        let send_end: std::collections::HashMap<u64, u64> = c
            .trace
            .spans()
            .iter()
            .filter(|s| s.name == Name::BlockingSendAll)
            .map(|s| (s.item, s.end_ns))
            .collect();
        let mut waits: Vec<u32> = c
            .trace
            .spans()
            .iter()
            .filter(|s| s.name == Name::BlockingRecvMany)
            .filter_map(|s| Some(s.end_ns.saturating_sub(*send_end.get(&s.item)?) as u32))
            .collect();
        let per_kitem = |count: f64| c.per_item(count) * 1e3;
        vec![
            (
                "blocking.send_all.ns_p50",
                c.call_ns(Name::BlockingSendAll, 0.5),
            ),
            (
                "blocking.recv_many.ns_p50",
                c.call_ns(Name::BlockingRecvMany, 0.5),
            ),
            (
                "blocking.recv_many.fill_ratio",
                delivered as f64 / (calls * BATCH as u64) as f64,
            ),
            (
                "event.parks_per_kitem",
                per_kitem(c.counter("thread_parks")),
            ),
            (
                "event.spurious_wakes_per_kitem",
                per_kitem(c.counter("spurious_wakes")),
            ),
            ("sharded.steals_per_kitem", per_kitem(c.counter("steals"))),
            ("queue_wait_ns_p50", quantile_ns(&mut waits, 0.5)),
            ("producer.busy_share", c.busy_share(0)),
            ("consumer.busy_share", c.busy_share(1)),
        ]
    }

    fn stop(self) -> u64 {
        self.crew.stop();
        // Every link used was closed and drained by its consumer.
        self.shared.links.iter().map(|q| q.len() as u64).sum()
    }
}
