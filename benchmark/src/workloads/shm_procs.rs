//! `shm_procs`: one producer **process** and one consumer process, forked
//! and pinned, over `ShmQueue<u64>` of capacity 64 in an anonymous shared
//! segment. This is `bq-shm`'s crash-consistent re-encoding of the ring; it
//! bypasses every heap queue.
//!
//! The children are forked once per set-up (so fork cost lands in
//! `setup_s`) and then driven cell by cell through words in shared memory:
//! the parent publishes the cell, the children line up on a spin barrier,
//! run, and write their start and end stamps into the segment's scratch
//! words. Forked children must not allocate (`bq_shm::harness` fork
//! discipline), so everything they write — stamps, counts, latency samples,
//! spans — goes into mappings made before the fork.
//!
//! The consumer checks that values arrive in order with none missing
//! (one producer, one consumer, a FIFO queue) and the parent checks the
//! conservation sum.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};

use membq::core::obs::MetricsSnapshot;
use membq::prelude::MemoryFootprint;
use membq::shm::{fork_child, Child, ShmQueue};

use super::{sum_suffix, CellView, Live, Outcome, Params, WorkerCell};
use crate::crew::{die, Cell, CELL_DEADLINE};
use crate::sys::{self, Region};
use crate::trace::{self, sampled, Name, Recorder, SAMPLE_EVERY};

const CAPACITY: usize = 64;
const SEED_RATE: f64 = 13.4e6;
const WORKLOAD: &str = "shm_procs";

// Scratch words of the queue's own segment: the children's stamps and the
// consumer's conservation sum.
const S_PRODUCER_START: usize = 0;
const S_PRODUCER_END: usize = 1;
const S_CONSUMER_START: usize = 2;
const S_CONSUMER_END: usize = 3;
const S_CONSUMED_SUM: usize = 4;

// Words of the benchmark's own control mapping.
const W_CELL: usize = 0; // cells published so far; the children's command
const W_OPS: usize = 1;
const W_BASE: usize = 2; // the cell's first value minus one
const W_STOP: usize = 3;
const W_ARRIVED: usize = 4;
const W_DONE: usize = 5;
const W_YIELDS: usize = 6;
const W_ITEMS: usize = 7;
const W_BAD: usize = 8;
const W_CPU: usize = 9; // + role
const W_SAMPLES: usize = 11;
const W_REGISTERED: usize = 12; // children registered so far
/// Send stamps of the sampled values in flight (fewer than CAPACITY /
/// SAMPLE_EVERY + 1 are).
const W_SENT: usize = 13;
const SENT_SLOTS: usize = 4;
const W_LATENCY: usize = W_SENT + SENT_SLOTS;

const PRODUCER: usize = 0;
const CONSUMER: usize = 1;

pub fn run(p: &Params) -> Outcome {
    let ops = p.cell_ops(SEED_RATE);
    super::run(false, p, ops, || ShmLive::setup(ops))
}

struct ShmLive {
    queue: ShmQueue<u64>,
    ctl: Region,
    children: Vec<Child>,
    regions: Vec<Region>,
    fork_s: f64,
    cells_run: u64,
}

fn yield_now() {
    // SAFETY: sched_yield has no preconditions and does not allocate.
    unsafe { libc::sched_yield() };
}

impl ShmLive {
    fn setup(cell_ops: u64) -> ShmLive {
        let cpus = sys::startup_cpus();
        assert!(cpus.len() >= 2, "{WORKLOAD} needs 2 CPUs");
        let queue = ShmQueue::<u64>::create_anon(CAPACITY).expect("anonymous shared segment");
        let samples = (cell_ops / SAMPLE_EVERY + 2) as usize;
        let ctl = Region::shared(W_LATENCY + samples);
        let regions: Vec<Region> = (0..2)
            .map(|_| Region::shared(trace::region_words(samples * 2)))
            .collect();
        let t0 = Instant::now();
        let children = [PRODUCER, CONSUMER]
            .map(|role| {
                let rec = Recorder::new(&regions[role], role);
                let (q, words, cpu) = (&queue, ctl.atomics(), cpus[role]);
                fork_child(move || child(role, q, words, rec, cpu)).expect("fork")
            })
            .into();
        ShmLive {
            queue,
            ctl,
            children,
            regions,
            fork_s: t0.elapsed().as_secs_f64(),
            cells_run: 0,
        }
    }

    fn fail(&mut self, reason: &str) -> ! {
        for c in &self.children {
            c.kill();
        }
        for c in self.children.drain(..) {
            let _ = c.wait();
        }
        die(WORKLOAD, reason)
    }
}

/// A child's whole life: pin, register, then serve cells until told to stop.
/// Nothing here allocates.
fn child(role: usize, q: &ShmQueue<u64>, ctl: &[AtomicU64], mut rec: Recorder, cpu: usize) {
    sys::pin_to(cpu);
    // The producer takes the first process slot, then the consumer.
    while ctl[W_REGISTERED].load(SeqCst) != role as u64 {
        yield_now();
    }
    let mut h = q.register();
    ctl[W_REGISTERED].fetch_add(1, SeqCst);
    let scratch = |i: usize| q.segment().scratch(i);
    let mut cell = 0u64;
    loop {
        while ctl[W_CELL].load(SeqCst) == cell {
            if ctl[W_STOP].load(SeqCst) != 0 {
                return;
            }
            yield_now(); // the parent needs a CPU to publish the next cell
        }
        cell += 1;
        let (n, base) = (ctl[W_OPS].load(SeqCst), ctl[W_BASE].load(SeqCst));
        ctl[W_ARRIVED].fetch_add(1, SeqCst);
        while ctl[W_ARRIVED].load(SeqCst) < 2 * cell {
            std::hint::spin_loop();
        }
        let cpu0 = sys::thread_cpu_ns();
        if role == PRODUCER {
            scratch(S_PRODUCER_START).store(sys::now_ns(), SeqCst);
            let mut yields = 0u64;
            for seq in 1..=n {
                let s = sampled(seq);
                if s {
                    ctl[W_SENT + (seq / SAMPLE_EVERY) as usize % SENT_SLOTS]
                        .store(sys::now_ns(), SeqCst);
                }
                loop {
                    let t = rec.start(s);
                    let ok = q.enqueue(&mut h, base + seq).is_ok();
                    rec.end(Name::ShmEnqueue, Name::Item, seq, t, ok);
                    if ok {
                        break;
                    }
                    yields += 1;
                    yield_now();
                }
            }
            scratch(S_PRODUCER_END).store(sys::now_ns(), SeqCst);
            ctl[W_YIELDS].fetch_add(yields, SeqCst);
        } else {
            scratch(S_CONSUMER_START).store(sys::now_ns(), SeqCst);
            let (mut yields, mut bad, mut sum, mut samples) = (0u64, 0u64, 0u64, 0usize);
            for seq in 1..=n {
                let v = loop {
                    let t = rec.start_nth();
                    match q.dequeue(&mut h) {
                        Some(v) => {
                            rec.end(Name::ShmDequeue, Name::Item, seq, t, true);
                            break v;
                        }
                        None => rec.end(Name::ShmDequeue, Name::Item, seq, 0, false),
                    }
                    yields += 1;
                    yield_now();
                };
                sum = sum.wrapping_add(v);
                bad += u64::from(v != base + seq);
                if sampled(seq) {
                    let now = sys::now_ns();
                    let sent =
                        ctl[W_SENT + (seq / SAMPLE_EVERY) as usize % SENT_SLOTS].load(SeqCst);
                    ctl[W_LATENCY + samples].store(now.saturating_sub(sent), SeqCst);
                    samples += 1;
                    rec.span(Name::Item, Name::None, seq, sent, now);
                }
            }
            scratch(S_CONSUMER_END).store(sys::now_ns(), SeqCst);
            scratch(S_CONSUMED_SUM).store(sum, SeqCst);
            ctl[W_YIELDS].fetch_add(yields, SeqCst);
            ctl[W_ITEMS].store(n - bad, SeqCst);
            ctl[W_BAD].store(bad, SeqCst);
            ctl[W_SAMPLES].store(samples as u64, SeqCst);
        }
        ctl[W_CPU + role].store(sys::thread_cpu_ns() - cpu0, SeqCst);
        ctl[W_DONE].fetch_add(1, SeqCst);
    }
}

impl Live for ShmLive {
    fn run_cell(&mut self, cell: Cell) -> Vec<WorkerCell> {
        let ctl = self.ctl.atomics();
        // Values never repeat across cells, so a stale one cannot pass.
        let base = self.cells_run << 40;
        self.cells_run += 1;
        ctl[W_OPS].store(cell.ops, SeqCst);
        ctl[W_BASE].store(base, SeqCst);
        ctl[W_YIELDS].store(0, SeqCst);
        ctl[W_CELL].store(self.cells_run, SeqCst);
        let deadline = Instant::now() + CELL_DEADLINE;
        while ctl[W_DONE].load(SeqCst) < 2 * self.cells_run {
            std::thread::sleep(Duration::from_millis(1));
            for i in 0..self.children.len() {
                if let Ok(Some(exit)) = self.children[i].wait_deadline(Duration::ZERO) {
                    self.children.remove(i);
                    self.fail(&format!("child {i} ended mid-cell: {exit:?}"));
                }
            }
            if Instant::now() > deadline {
                self.fail(&format!(
                    "watchdog: cell {} missed its {CELL_DEADLINE:?} deadline",
                    cell.index
                ));
            }
        }
        let ctl = self.ctl.atomics();
        let scratch = |i: usize| self.queue.segment().scratch(i).load(SeqCst);
        let n = cell.ops;
        let expected_sum = (n * (n + 1) / 2).wrapping_add(n.wrapping_mul(base));
        let sum_ok = scratch(S_CONSUMED_SUM) == expected_sum;
        let items = ctl[W_ITEMS].load(SeqCst);
        let samples = ctl[W_SAMPLES].load(SeqCst) as usize;
        vec![
            WorkerCell {
                start_ns: scratch(S_PRODUCER_START),
                end_ns: scratch(S_PRODUCER_END),
                cpu_ns: ctl[W_CPU + PRODUCER].load(SeqCst),
                ..WorkerCell::default()
            },
            WorkerCell {
                start_ns: scratch(S_CONSUMER_START),
                end_ns: scratch(S_CONSUMER_END),
                cpu_ns: ctl[W_CPU + CONSUMER].load(SeqCst),
                items,
                bad: ctl[W_BAD].load(SeqCst) + u64::from(!sum_ok),
                bytes: items * 8,
                lat_ns: ctl[W_LATENCY..W_LATENCY + samples]
                    .iter()
                    .map(|w| w.load(SeqCst).min(u32::MAX as u64) as u32)
                    .collect(),
                extra: vec![vec![ctl[W_YIELDS].load(SeqCst).min(u32::MAX as u64) as u32]],
                ..WorkerCell::default()
            },
        ]
    }

    fn regions(&self) -> &[Region] {
        &self.regions
    }

    fn overhead_bytes(&self) -> usize {
        self.queue.overhead_bytes()
    }

    fn counters(&self) -> MetricsSnapshot {
        // The per-process counters live in the segment and are always on.
        let mut sum = MetricsSnapshot::new();
        sum.push(
            "attempts",
            sum_suffix(&self.queue.stats_snapshot(), "attempts"),
        );
        sum
    }

    fn layer_cell(&self, c: &CellView) -> Vec<(&'static str, f64)> {
        vec![
            ("shm.queue.enqueue.ns_p50", c.call_ns(Name::ShmEnqueue, 0.5)),
            ("shm.queue.dequeue.ns_p50", c.call_ns(Name::ShmDequeue, 0.5)),
            (
                "shm.queue.refused_share",
                c.trace.refused_share(&[Name::ShmEnqueue, Name::ShmDequeue]),
            ),
            (
                "shm.yields_per_item",
                c.per_item(c.workers[CONSUMER].extra[0][0] as f64),
            ),
            ("shm.attempts_per_item", c.per_item(c.counter("attempts"))),
            ("shm.fork_s", self.fork_s),
        ]
    }

    fn stop(mut self) -> u64 {
        self.ctl.atomics()[W_STOP].store(1, SeqCst);
        for (i, mut c) in self.children.drain(..).enumerate() {
            match c.wait_deadline(Duration::from_secs(5)) {
                Ok(Some(exit)) if exit.success() => {}
                other => {
                    c.kill();
                    let _ = c.wait();
                    die(
                        WORKLOAD,
                        &format!("child {i} did not stop cleanly: {other:?}"),
                    );
                }
            }
        }
        self.queue.len() as u64
    }
}
