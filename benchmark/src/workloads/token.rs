//! `solo` and `pairs`: enqueue+dequeue pairs straight on the paper's own
//! queue (`OptimalQueue`, Listing 5), half-full, every façade bypassed.
//!
//! * `solo` — one thread, `T = 64`: the uncontended price of memory
//!   optimality, the Θ(T) announcement scan. The quietest workload, so
//!   small gains resolve here.
//! * `pairs` — two threads, `T = 3`: the literature's canonical contended
//!   workload — retries, helping and cache-line ping-pong.
//!
//! An uncontended pair is ten times faster than a contended one, so anything
//! that lets one thread of `pairs` run alone — the other vCPU stalling for a
//! millisecond, the faster thread finishing its share early — is amplified
//! tenfold in the cell's rate. Two things keep the threads honest: they
//! rendezvous on a spin barrier every [`STRIDE`] pairs, so neither runs
//! alone for long and a stall costs both of them its own length; and each
//! operation is followed by a seeded think time of 0–63 multiply-adds (about
//! 0–100 ns), as contended-queue benchmarks in the literature do, because a
//! tight loop lets one core keep the queue's lines for long runs. `solo` has
//! neither.
//!
//! An item is one pair. Tokens come from per-thread ranges (no shared
//! counter in the loop). Verification: every dequeued token must come from
//! a known thread with a sequence number above the last one this consumer
//! saw from it (FIFO seen through one consumer), and at the end the tokens
//! put in must equal, in count and in sum, the tokens taken out plus the
//! tokens still queued.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use membq::core::obs::MetricsSnapshot;
use membq::core::OptimalHandle;
use membq::prelude::*;

use super::{CellView, Live, Outcome, Params, WorkerCell};
use crate::crew::{Body, Cell, Crew, SpinGate, Worker};
use crate::stats::Rng;
use crate::sys::{self, Region};
use crate::trace::{self, sampled, Name, Recorder};

const CAPACITY: usize = 1024;
const PREFILL: usize = CAPACITY / 2;
const SEQ_BITS: u32 = 48;
/// Tokens of the prefill carry this source id, one past any worker's.
const PREFILL_SOURCE: u64 = 0x7F;

/// `pairs`' threads rendezvous after this many pairs each (about 0.5 ms).
const STRIDE: u64 = 256;

/// Pairs per second on the seed commit, which sizes the cells.
const SOLO_SEED_RATE: f64 = 5.6e6;
const PAIRS_SEED_RATE: f64 = 0.95e6;

pub fn solo(p: &Params) -> Outcome {
    let ops = p.cell_ops(SOLO_SEED_RATE);
    super::run(false, p, ops, || {
        TokenLive::setup("solo", 1, 64, ops, p.seed)
    })
}

pub fn pairs(p: &Params) -> Outcome {
    // Whole strides, the same number on each thread.
    let ops = p.cell_ops(PAIRS_SEED_RATE).next_multiple_of(2 * STRIDE);
    // T = workers + 1: the coordinator's prefill-and-drain handle is a
    // registration too, and one more than T panics in `register`.
    super::run(false, p, ops, || {
        TokenLive::setup("pairs", 2, 3, ops, p.seed)
    })
}

/// Wrapping sums and counts of the tokens put in and taken out, folded in
/// by the workers after each cell.
#[derive(Default)]
struct Ledger {
    sum_in: AtomicU64,
    sum_out: AtomicU64,
    count_in: AtomicU64,
    count_out: AtomicU64,
}

struct TokenLive {
    queue: Arc<OptimalQueue>,
    ledger: Arc<Ledger>,
    handle: OptimalHandle,
    crew: Crew<WorkerCell>,
    regions: Vec<Region>,
}

impl TokenLive {
    fn setup(
        name: &'static str,
        workers: usize,
        max_threads: usize,
        cell_ops: u64,
        seed: u64,
    ) -> TokenLive {
        let queue = Arc::new(OptimalQueue::with_capacity_and_threads(
            CAPACITY,
            max_threads,
        ));
        let ledger = Arc::new(Ledger::default());
        let mut handle = queue.register();
        for seq in 1..=PREFILL as u64 {
            let tok = PREFILL_SOURCE << SEQ_BITS | seq;
            queue.enqueue(&mut handle, tok).expect("prefill fits");
            ledger.sum_in.fetch_add(tok, Ordering::Relaxed);
            ledger.count_in.fetch_add(1, Ordering::Relaxed);
        }
        // Root span plus the two calls, for one item in SAMPLE_EVERY.
        let spans = (cell_ops / workers as u64 / trace::SAMPLE_EVERY + 2) as usize * 3;
        let regions: Vec<Region> = (0..workers)
            .map(|_| Region::heap(trace::region_words(spans)))
            .collect();
        let rendezvous = Arc::new(SpinGate::new(workers));
        let bodies = (0..workers)
            .map(|me| {
                let worker = TokenWorker {
                    queue: Arc::clone(&queue),
                    ledger: Arc::clone(&ledger),
                    rendezvous: Arc::clone(&rendezvous),
                    // Registered here, in worker order, so thread ids inside
                    // the queue do not depend on which worker starts first.
                    handle: queue.register(),
                    rec: Recorder::new(&regions[me], me),
                    rng: Rng::new(seed ^ (me as u64 + 1) << 32),
                    me,
                    workers,
                };
                Box::new(move |w: &mut Worker<WorkerCell>| worker.run(w)) as Body<WorkerCell>
            })
            .collect();
        TokenLive {
            queue,
            ledger,
            handle,
            crew: Crew::spawn(name, bodies),
            regions,
        }
    }
}

/// One worker thread's state: what it shares with the others and what is
/// its own.
struct TokenWorker {
    queue: Arc<OptimalQueue>,
    ledger: Arc<Ledger>,
    rendezvous: Arc<SpinGate>,
    handle: OptimalHandle,
    rec: Recorder,
    rng: Rng,
    me: usize,
    workers: usize,
}

impl TokenWorker {
    fn run(self, w: &mut Worker<WorkerCell>) {
        let TokenWorker {
            queue,
            ledger,
            rendezvous,
            handle: mut h,
            mut rec,
            mut rng,
            me,
            workers,
        } = self;
        let q = &*queue;
        let contended = workers > 1;
        let mut seq = 0u64;
        // Highest sequence number seen so far from each source.
        let mut seen = [0u64; PREFILL_SOURCE as usize + 1];
        while let Some(cell) = w.next_cell() {
            let n = cell.ops / workers as u64;
            let mut out = WorkerCell::default();
            out.lat_ns.reserve((n / trace::SAMPLE_EVERY) as usize + 1);
            let (mut sum_in, mut sum_out, mut count_in, mut count_out) = (0u64, 0u64, 0u64, 0u64);
            let cpu0 = sys::thread_cpu_ns();
            out.start_ns = sys::now_ns();
            for i in 0..n {
                seq += 1;
                let tok = (me as u64) << SEQ_BITS | seq;
                let s = sampled(i);
                let t0 = if s { sys::now_ns() } else { 0 };

                let t = rec.start(s);
                let put = q.enqueue(&mut h, tok).is_ok();
                rec.end(Name::OptimalEnqueue, Name::Item, tok, t, put);
                if contended {
                    think(&mut rng);
                }
                let t = rec.start(s);
                let got = q.dequeue(&mut h);
                rec.end(Name::OptimalDequeue, Name::Item, tok, t, got.is_some());

                if put {
                    sum_in = sum_in.wrapping_add(tok);
                    count_in += 1;
                }
                if let Some(v) = got {
                    sum_out = sum_out.wrapping_add(v);
                    count_out += 1;
                    let (src, vseq) = ((v >> SEQ_BITS) as usize, v & ((1 << SEQ_BITS) - 1));
                    let known = src < workers || src == PREFILL_SOURCE as usize;
                    if known && vseq > seen[src] {
                        seen[src] = vseq;
                        if put {
                            out.items += 1;
                            out.bytes += 8;
                        }
                    } else {
                        out.bad += 1;
                    }
                }
                if s {
                    let t1 = sys::now_ns();
                    out.lat_ns.push((t1 - t0) as u32);
                    rec.span(Name::Item, Name::None, tok, t0, t1);
                }
                if contended {
                    think(&mut rng);
                    if (i + 1) % STRIDE == 0 {
                        rendezvous.wait();
                    }
                }
            }
            out.end_ns = sys::now_ns();
            out.cpu_ns = sys::thread_cpu_ns() - cpu0;
            ledger.sum_in.fetch_add(sum_in, Ordering::Relaxed);
            ledger.sum_out.fetch_add(sum_out, Ordering::Relaxed);
            ledger.count_in.fetch_add(count_in, Ordering::Relaxed);
            ledger.count_out.fetch_add(count_out, Ordering::Relaxed);
            q.flush_metrics(&mut h);
            w.finish(out);
        }
    }
}

impl Live for TokenLive {
    fn run_cell(&mut self, cell: Cell) -> Vec<WorkerCell> {
        self.crew.run_cell(cell)
    }

    fn regions(&self) -> &[Region] {
        &self.regions
    }

    fn overhead_bytes(&self) -> usize {
        self.queue.overhead_bytes()
    }

    fn counters(&self) -> MetricsSnapshot {
        self.queue.metrics()
    }

    fn layer_cell(&self, c: &CellView) -> Vec<(&'static str, f64)> {
        let ops = (c.counter("enq_attempts") + c.counter("deq_attempts")).max(1.0);
        vec![
            (
                "optimal.enqueue.ns_p50",
                c.call_ns(Name::OptimalEnqueue, 0.5),
            ),
            (
                "optimal.enqueue.ns_p99",
                c.call_ns(Name::OptimalEnqueue, 0.99),
            ),
            (
                "optimal.dequeue.ns_p50",
                c.call_ns(Name::OptimalDequeue, 0.5),
            ),
            (
                "optimal.dequeue.ns_p99",
                c.call_ns(Name::OptimalDequeue, 0.99),
            ),
            (
                "optimal.refused_share",
                c.trace
                    .refused_share(&[Name::OptimalEnqueue, Name::OptimalDequeue]),
            ),
            (
                "optimal.retries_per_op",
                (c.counter("enq_retries") + c.counter("deq_retries")) / ops,
            ),
            ("optimal.helps_per_op", c.counter("helps") / ops),
        ]
    }

    fn stop(mut self) -> u64 {
        self.crew.stop();
        let l = &self.ledger;
        let (mut left, mut left_sum) = (0u64, 0u64);
        while let Some(v) = self.queue.dequeue(&mut self.handle) {
            left += 1;
            left_sum = left_sum.wrapping_add(v);
        }
        let count_in = l.count_in.load(Ordering::Relaxed);
        let count_out = l.count_out.load(Ordering::Relaxed) + left;
        let sum_ok = l.sum_in.load(Ordering::Relaxed)
            == l.sum_out.load(Ordering::Relaxed).wrapping_add(left_sum);
        count_in.abs_diff(count_out) + u64::from(!sum_ok)
    }
}

/// Local work between two operations: 0–63 dependent multiply-adds.
fn think(rng: &mut Rng) {
    let mut x = rng.next_u64();
    for _ in 0..x & 63 {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    std::hint::black_box(x);
}
