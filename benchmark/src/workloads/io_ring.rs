//! `io_ring`: an io_uring-style submission/completion pair between an app
//! thread and a "kernel" thread, the `examples/io_ring` shape. SQ and CQ are
//! `DistinctQueue`s of depth 64 — request descriptors are unique tokens,
//! which is Listing 2's assumption, so both run at Θ(1) overhead: the
//! paper's positive result where its assumption holds. Two `byte_ring`s carry
//! the payloads through `try_grant` / `try_read`, the `relocatable` grant
//! path. `optimal`, `boxed`, `blocking` and `event` are bypassed entirely.
//!
//! The seed decides, per request id, whether it is a write (one in three)
//! and how long its payload is (1..=1024 B); both ends derive that from
//! `mix(seed ^ id)`, so no table is shared. Every payload byte is written
//! and verified in place, and every completion is checked exactly-once.
//!
//! Pairing invariant (as in the example): the kernel serves submissions in
//! SQ order and the app commits a write's payload before its SQE, so the
//! n-th write SQE pairs with the n-th message of the write ring, and
//! symmetrically for read completions.

use std::sync::Arc;

use membq::core::obs::MetricsSnapshot;
use membq::prelude::*;

use super::{CellView, Live, Outcome, Params, WorkerCell};
use crate::crew::{Body, Cell, Crew, Worker};
use crate::stats::mix;
use crate::sys::{self, Region};
use crate::trace::{self, sampled, Name, Recorder};

const DEPTH: usize = 64;
const DATA_BYTES: usize = 16 * 1024;
const MAX_PAYLOAD: usize = 1024;
const SEED_RATE: f64 = 2.0e6;

const OP_READ: u64 = 1;
const OP_WRITE: u64 = 2;
const STATUS_OK: u64 = 0x7F;
/// Bit 55 keeps every token non-zero; the id sits below it.
const ID_MASK: u64 = (1 << 55) - 1;

fn token(tag: u64, id: u64) -> u64 {
    tag << 56 | 1 << 55 | id
}

/// The generated properties of request `id`.
#[derive(Clone, Copy)]
struct Request {
    write: bool,
    len: usize,
    /// Byte `j` of the payload is `base + j`, wrapping.
    base: u8,
}

fn request(seed: u64, id: u64) -> Request {
    let h = mix(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Request {
        write: h.is_multiple_of(3),
        len: (h >> 8) as usize % MAX_PAYLOAD + 1,
        base: (h >> 32) as u8,
    }
}

fn fill(buf: &mut [u8], r: Request) {
    for (j, b) in buf.iter_mut().enumerate() {
        *b = r.base.wrapping_add(j as u8);
    }
}

fn verify(msg: &[u8], r: Request) -> bool {
    msg.len() == r.len
        && msg
            .iter()
            .enumerate()
            .all(|(j, &b)| b == r.base.wrapping_add(j as u8))
}

struct Shared {
    sq: DistinctQueue,
    cq: DistinctQueue,
    seed: u64,
}

pub fn run(p: &Params) -> Outcome {
    let ops = p.cell_ops(SEED_RATE);
    let seed = p.seed;
    super::run(false, p, ops, || IoRingLive::setup(seed, ops))
}

struct IoRingLive {
    shared: Arc<Shared>,
    overhead_bytes: usize,
    crew: Crew<WorkerCell>,
    regions: Vec<Region>,
}

impl IoRingLive {
    fn setup(seed: u64, cell_ops: u64) -> IoRingLive {
        let shared = Arc::new(Shared {
            sq: DistinctQueue::with_capacity(DEPTH),
            cq: DistinctQueue::with_capacity(DEPTH),
            seed,
        });
        // Write payloads travel app → kernel, read payloads kernel → app.
        let (wr_tx, wr_rx) = byte_ring(DATA_BYTES, MAX_PAYLOAD);
        let (rd_tx, rd_rx) = byte_ring(DATA_BYTES, MAX_PAYLOAD);
        let overhead_bytes = shared.sq.overhead_bytes()
            + shared.cq.overhead_bytes()
            + wr_tx.overhead_bytes()
            + rd_tx.overhead_bytes();
        // Each side makes three calls per request and times those of one
        // request in SAMPLE_EVERY (the receive-side ones by call count, see
        // `start_nth`); the app adds the root span.
        let spans = (cell_ops / trace::SAMPLE_EVERY + 2) as usize * 4;
        let regions: Vec<Region> = (0..2)
            .map(|_| Region::heap(trace::region_words(spans)))
            .collect();
        let (s0, s1) = (Arc::clone(&shared), Arc::clone(&shared));
        let (r0, r1) = (Recorder::new(&regions[0], 0), Recorder::new(&regions[1], 1));
        let bodies: Vec<Body<WorkerCell>> = vec![
            Box::new(move |w| app(&s0, wr_tx, rd_rx, r0, w)),
            Box::new(move |w| kernel(&s1, wr_rx, rd_tx, r1, w)),
        ];
        IoRingLive {
            shared,
            overhead_bytes,
            crew: Crew::spawn("io_ring", bodies),
            regions,
        }
    }
}

/// Submit and reap with at most `DEPTH` requests in flight.
fn app(
    shared: &Shared,
    mut wr_tx: ByteProducer,
    mut rd_rx: ByteConsumer,
    mut rec: Recorder,
    w: &mut Worker<WorkerCell>,
) {
    let (sq, cq) = (&shared.sq, &shared.cq);
    let (mut sqh, mut cqh) = (sq.register(), cq.register());
    // Ids run on across cells: the tokens of a DistinctQueue never repeat.
    let mut base = 0u64;
    let mut completed = Vec::new();
    while let Some(cell) = w.next_cell() {
        let n = cell.ops;
        completed.clear();
        completed.resize(n as usize / 64 + 1, 0u64);
        let mut out = WorkerCell::default();
        out.lat_ns.reserve((n / trace::SAMPLE_EVERY) as usize + 1);
        // Submit stamps of the sampled ids in flight: at most two, since
        // fewer than SAMPLE_EVERY + 1 requests are.
        let mut submit_ns = [0u64; 4];
        let stamp = |id: u64| (id / trace::SAMPLE_EVERY) as usize % 4;
        // A write SQE whose payload is committed but whose SQ slot was not
        // free: it goes in before any newer work, without blocking the reap.
        let mut pending_sqe: Option<u64> = None;
        let (mut submitted, mut reaped) = (0u64, 0u64);
        let cpu0 = sys::thread_cpu_ns();
        out.start_ns = sys::now_ns();
        while reaped < n {
            if let Some(tok) = pending_sqe {
                let id = tok & ID_MASK;
                let t = rec.start(sampled(id));
                let ok = sq.enqueue(&mut sqh, tok).is_ok();
                rec.end(Name::DistinctEnqueue, Name::Item, id, t, ok);
                if ok {
                    pending_sqe = None;
                    submitted += 1;
                }
            }
            while pending_sqe.is_none() && submitted < n {
                let id = base + submitted;
                let r = request(shared.seed, id);
                let s = sampled(id);
                if r.write {
                    let t = rec.start(s);
                    let Some(mut g) = wr_tx.try_grant(r.len) else {
                        rec.end(Name::ByteringTryGrant, Name::Item, id, t, false);
                        break; // data ring full: go reap
                    };
                    // The grant's time includes filling it: that is the
                    // zero-copy write.
                    fill(&mut g.buf()[..r.len], r);
                    g.commit(r.len);
                    rec.end(Name::ByteringTryGrant, Name::Item, id, t, true);
                }
                if s {
                    submit_ns[stamp(id)] = sys::now_ns();
                }
                let tok = token(if r.write { OP_WRITE } else { OP_READ }, id);
                let t = rec.start(s);
                let ok = sq.enqueue(&mut sqh, tok).is_ok();
                rec.end(Name::DistinctEnqueue, Name::Item, id, t, ok);
                if ok {
                    submitted += 1;
                } else {
                    if r.write {
                        pending_sqe = Some(tok);
                    }
                    break; // SQ full: go reap
                }
            }
            loop {
                let t = rec.start_nth();
                let Some(tok) = cq.dequeue(&mut cqh) else {
                    rec.end(Name::DistinctDequeue, Name::Item, 0, 0, false);
                    break;
                };
                let id = tok & ID_MASK;
                rec.end(Name::DistinctDequeue, Name::Item, id, t, true);
                let r = request(shared.seed, id);
                // Position in this cell; a stale id wraps far past `n`.
                let nth = id.wrapping_sub(base);
                let (word, bit) = ((nth / 64) as usize, 1u64 << (nth % 64));
                let mut ok = tok >> 56 == STATUS_OK && nth < n && completed[word] & bit == 0;
                if ok {
                    completed[word] |= bit;
                }
                if !r.write {
                    // A read: its payload is the next read-ring message (the
                    // kernel commits data before the CQE; the CQ is FIFO).
                    let s = sampled(id);
                    loop {
                        let t = rec.start(s);
                        if let Some(g) = rd_rx.try_read() {
                            ok &= verify(&g, r);
                            out.bytes += g.len() as u64;
                            drop(g);
                            rec.end(Name::ByteringTryRead, Name::Item, id, t, true);
                            break;
                        }
                        rec.end(Name::ByteringTryRead, Name::Item, id, t, false);
                        rec.add(Name::Spin, 1);
                        std::hint::spin_loop();
                    }
                }
                if ok {
                    out.items += 1;
                } else {
                    out.bad += 1;
                }
                if sampled(id) {
                    let now = sys::now_ns();
                    let t0 = submit_ns[stamp(id)];
                    out.lat_ns.push((now - t0).min(u32::MAX as u64) as u32);
                    rec.span(Name::Item, Name::None, id, t0, now);
                }
                reaped += 1;
            }
            if reaped < n {
                rec.add(Name::Spin, 1);
                std::hint::spin_loop();
            }
        }
        out.end_ns = sys::now_ns();
        out.cpu_ns = sys::thread_cpu_ns() - cpu0;
        out.extra = vec![vec![wr_tx.bytes_used_hwm() as u32]];
        base += n;
        w.finish(out);
    }
}

/// Serve submissions in SQ order: produce a read's payload, verify a
/// write's, post the completion.
fn kernel(
    shared: &Shared,
    mut wr_rx: ByteConsumer,
    mut rd_tx: ByteProducer,
    mut rec: Recorder,
    w: &mut Worker<WorkerCell>,
) {
    let (sq, cq) = (&shared.sq, &shared.cq);
    let (mut sqh, mut cqh) = (sq.register(), cq.register());
    while let Some(cell) = w.next_cell() {
        let mut out = WorkerCell::default();
        let cpu0 = sys::thread_cpu_ns();
        out.start_ns = sys::now_ns();
        let mut served = 0;
        while served < cell.ops {
            let t = rec.start_nth();
            let Some(tok) = sq.dequeue(&mut sqh) else {
                rec.end(Name::DistinctDequeue, Name::Item, 0, 0, false);
                rec.add(Name::Spin, 1);
                std::hint::spin_loop();
                continue;
            };
            let id = tok & ID_MASK;
            rec.end(Name::DistinctDequeue, Name::Item, id, t, true);
            let r = request(shared.seed, id);
            let s = sampled(id);
            let mut status = STATUS_OK;
            loop {
                let t = rec.start(s);
                let done = if tok >> 56 == OP_WRITE {
                    wr_rx.try_read().map(|g| {
                        if !verify(&g, r) {
                            status = 0;
                        }
                        out.bytes += g.len() as u64;
                    })
                } else {
                    rd_tx.try_grant(r.len).map(|mut g| {
                        fill(&mut g.buf()[..r.len], r);
                        g.commit(r.len);
                    })
                };
                let name = if tok >> 56 == OP_WRITE {
                    Name::ByteringTryRead
                } else {
                    Name::ByteringTryGrant
                };
                rec.end(name, Name::Item, id, t, done.is_some());
                if done.is_some() {
                    break;
                }
                rec.add(Name::Spin, 1);
                std::hint::spin_loop();
            }
            let cqe = token(status, id);
            loop {
                let t = rec.start(s);
                let ok = cq.enqueue(&mut cqh, cqe).is_ok();
                rec.end(Name::DistinctEnqueue, Name::Item, id, t, ok);
                if ok {
                    break;
                }
                rec.add(Name::Spin, 1);
                std::hint::spin_loop();
            }
            served += 1;
        }
        out.end_ns = sys::now_ns();
        out.cpu_ns = sys::thread_cpu_ns() - cpu0;
        out.extra = vec![vec![rd_tx.bytes_used_hwm() as u32]];
        w.finish(out);
    }
}

impl Live for IoRingLive {
    fn run_cell(&mut self, cell: Cell) -> Vec<WorkerCell> {
        self.crew.run_cell(cell)
    }

    fn regions(&self) -> &[Region] {
        &self.regions
    }

    fn overhead_bytes(&self) -> usize {
        self.overhead_bytes
    }

    fn counters(&self) -> MetricsSnapshot {
        MetricsSnapshot::new() // DistinctQueue and the byte rings carry no obs block
    }

    fn layer_cell(&self, c: &CellView) -> Vec<(&'static str, f64)> {
        let hwm = c.workers.iter().map(|w| w.extra[0][0]).max().unwrap_or(0);
        vec![
            (
                "distinct.enqueue.ns_p50",
                c.call_ns(Name::DistinctEnqueue, 0.5),
            ),
            (
                "distinct.dequeue.ns_p50",
                c.call_ns(Name::DistinctDequeue, 0.5),
            ),
            (
                "distinct.refused_share",
                c.trace
                    .refused_share(&[Name::DistinctEnqueue, Name::DistinctDequeue]),
            ),
            // Both include the in-place fill or verify of the payload.
            (
                "bytering.try_grant.ns_p50",
                c.call_ns(Name::ByteringTryGrant, 0.5),
            ),
            (
                "bytering.try_read.ns_p50",
                c.call_ns(Name::ByteringTryRead, 0.5),
            ),
            (
                "bytering.refused_share",
                c.trace
                    .refused_share(&[Name::ByteringTryGrant, Name::ByteringTryRead]),
            ),
            ("bytering.bytes_used_hwm", hwm as f64),
            (
                "spins_per_item",
                c.per_item(c.trace.calls(Name::Spin) as f64),
            ),
        ]
    }

    fn stop(self) -> u64 {
        self.crew.stop();
        (self.shared.sq.len() + self.shared.cq.len()) as u64
    }
}
