//! `handoff`: one client ↔ one echo thread over two
//! `BlockingQueue<u64, OptimalQueue>` of capacity 2, closed loop. Every
//! operation parks: `event` and `blocking`'s condvar wake path is the whole
//! cost, and queue and box cost vanish beneath it.
//!
//! An item is one round trip, each timed individually by the client. The
//! echo returns the request's bitwise complement, so a reply proves the
//! request went through the echo thread and came back in order.

use std::sync::Arc;

use membq::core::obs::MetricsSnapshot;
use membq::core::{BlockingQueue, BoxedHandle, OptimalQueue};
use membq::prelude::MemoryFootprint;

use super::{sum_suffix, CellView, Live, Outcome, Params, WorkerCell};
use crate::crew::{Body, Cell, Crew, Worker};
use crate::sys::{self, Region};
use crate::trace::{self, sampled, Name, Recorder};

const CAPACITY: usize = 2;
/// Workers + 1, the rule for every queue the table does not size.
const MAX_THREADS: usize = 3;
const SEED_RATE: f64 = 27_500.0;
const REPLY_MASK: u64 = (1 << 62) - 1;

type Link = BlockingQueue<u64, OptimalQueue>;
/// A worker's handles on the request and the reply link.
type Handles = (BoxedHandle<OptimalQueue>, BoxedHandle<OptimalQueue>);

struct Shared {
    requests: Link,
    replies: Link,
}

pub fn run(p: &Params) -> Outcome {
    sys::keep_cpus_awake(); // these workers park: see the function's docs
    let ops = p.cell_ops(SEED_RATE);
    super::run(false, p, ops, || HandoffLive::setup(ops))
}

struct HandoffLive {
    shared: Arc<Shared>,
    crew: Crew<WorkerCell>,
    regions: Vec<Region>,
}

impl HandoffLive {
    fn setup(cell_ops: u64) -> HandoffLive {
        let link = || {
            BlockingQueue::new(OptimalQueue::with_capacity_and_threads(
                CAPACITY,
                MAX_THREADS,
            ))
        };
        let shared = Arc::new(Shared {
            requests: link(),
            replies: link(),
        });
        let spans = (cell_ops / trace::SAMPLE_EVERY + 2) as usize * 3;
        let regions: Vec<Region> = (0..2)
            .map(|_| Region::heap(trace::region_words(spans)))
            .collect();
        // Registered here, in a fixed order, so thread ids inside the
        // queues do not depend on which worker starts first.
        let h0 = (shared.requests.register(), shared.replies.register());
        let h1 = (shared.requests.register(), shared.replies.register());
        let (s0, s1) = (Arc::clone(&shared), Arc::clone(&shared));
        let (r0, r1) = (Recorder::new(&regions[0], 0), Recorder::new(&regions[1], 1));
        let bodies: Vec<Body<WorkerCell>> = vec![
            Box::new(move |w| client(&s0, h0, r0, w)),
            Box::new(move |w| echo(&s1, h1, r1, w)),
        ];
        HandoffLive {
            shared,
            crew: Crew::spawn("handoff", bodies),
            regions,
        }
    }
}

fn client(
    shared: &Shared,
    (mut req, mut rep): Handles,
    mut rec: Recorder,
    w: &mut Worker<WorkerCell>,
) {
    let mut next = 0u64;
    while let Some(cell) = w.next_cell() {
        let mut out = WorkerCell::default();
        out.lat_ns.reserve(cell.ops as usize);
        let cpu0 = sys::thread_cpu_ns();
        out.start_ns = sys::now_ns();
        for _ in 0..cell.ops {
            next += 1;
            let s = sampled(next);
            let t0 = sys::now_ns();
            let t = rec.start(s);
            let sent = shared.requests.send(&mut req, next).is_ok();
            rec.end(Name::BlockingSend, Name::Item, next, t, sent);
            let t = rec.start(s);
            let reply = shared.replies.recv(&mut rep);
            rec.end(Name::BlockingRecv, Name::Item, next, t, reply.is_some());
            let t1 = sys::now_ns();
            if reply == Some(!next & REPLY_MASK) {
                out.items += 1;
                out.bytes += 8;
                out.lat_ns.push((t1 - t0).min(u32::MAX as u64) as u32);
            } else {
                out.bad += 1;
            }
            if s {
                rec.span(Name::Item, Name::None, next, t0, t1);
            }
        }
        out.end_ns = sys::now_ns();
        out.cpu_ns = sys::thread_cpu_ns() - cpu0;
        shared.requests.flush_metrics(&mut req);
        shared.replies.flush_metrics(&mut rep);
        w.finish(out);
    }
}

fn echo(
    shared: &Shared,
    (mut req, mut rep): Handles,
    mut rec: Recorder,
    w: &mut Worker<WorkerCell>,
) {
    while let Some(cell) = w.next_cell() {
        let mut out = WorkerCell::default();
        let cpu0 = sys::thread_cpu_ns();
        out.start_ns = sys::now_ns();
        for _ in 0..cell.ops {
            // The echo learns an item's id from the receive itself, so it
            // times every receive and keeps the sampled ones.
            let t = rec.start(true);
            let Some(v) = shared.requests.recv(&mut req) else {
                break;
            };
            let s = sampled(v);
            rec.end(
                Name::BlockingRecv,
                Name::Item,
                v,
                if s { t } else { 0 },
                true,
            );
            let t = rec.start(s);
            let sent = shared.replies.send(&mut rep, !v & REPLY_MASK).is_ok();
            rec.end(Name::BlockingSend, Name::Item, v, t, sent);
        }
        out.end_ns = sys::now_ns();
        out.cpu_ns = sys::thread_cpu_ns() - cpu0;
        shared.requests.flush_metrics(&mut req);
        shared.replies.flush_metrics(&mut rep);
        w.finish(out);
    }
}

impl Live for HandoffLive {
    fn run_cell(&mut self, cell: Cell) -> Vec<WorkerCell> {
        self.crew.run_cell(cell)
    }

    fn regions(&self) -> &[Region] {
        &self.regions
    }

    fn overhead_bytes(&self) -> usize {
        self.shared.requests.inner_queue().overhead_bytes()
            + self.shared.replies.inner_queue().overhead_bytes()
    }

    fn counters(&self) -> MetricsSnapshot {
        let both = [
            self.shared.requests.metrics(),
            self.shared.replies.metrics(),
        ];
        let mut sum = MetricsSnapshot::new();
        for name in ["thread_parks", "wakes", "spurious_wakes"] {
            sum.push(name, both.iter().map(|m| sum_suffix(m, name)).sum());
        }
        sum
    }

    fn layer_cell(&self, c: &CellView) -> Vec<(&'static str, f64)> {
        vec![
            // Includes the notify of the parked peer.
            ("blocking.send.ns_p50", c.call_ns(Name::BlockingSend, 0.5)),
            // Includes the time parked.
            ("blocking.recv.ns_p50", c.call_ns(Name::BlockingRecv, 0.5)),
            (
                "event.parks_per_item",
                c.per_item(c.counter("thread_parks")),
            ),
            ("event.wakes_per_item", c.per_item(c.counter("wakes"))),
            (
                "event.spurious_wakes_per_item",
                c.per_item(c.counter("spurious_wakes")),
            ),
        ]
    }

    fn stop(self) -> u64 {
        self.crew.stop();
        (self.shared.requests.len() + self.shared.replies.len()) as u64
    }
}
