//! The layer ladder: the same enqueue+dequeue pair sequence, on one pinned
//! thread over a half-full ring, timed at each rung through that rung's
//! public functions. A rung's `tax_ns` is its ns/op minus the rung beneath.
//!
//! An *op* is one enqueue or one dequeue, so a pair is two ops. Every rung
//! is the median of [`CELLS`] cells after one warm-up cell.
//!
//! The first rungs are controls — the harness's own loop, clock and span
//! cost, and a `Mutex` ring no change to the queues touches. They go into
//! every result file: if they move, the host moved.

use std::hint::black_box;
use std::task::Waker;

use membq::baselines::{MutexRingQueue, VyukovQueue};
use membq::core::{AsyncQueue, BlockingQueue, BoxedQueue, EventCount};
use membq::prelude::*;
use membq::shm::{ShmByteRing, ShmQueue};

use crate::stats::Stat;
use crate::sys::{self, Region};
use crate::trace::{self, Name, Recorder};

const CAPACITY: usize = 1024;
const CELLS: usize = 5;
const BATCH: usize = 32;
const MSG_BYTES: usize = 64;

/// The control readings, by name.
pub const CONTROLS: [&str; 4] = [
    "harness.loop_ns",
    "harness.clock_ns",
    "harness.span_ns",
    "baselines.mutex_ring.ns_per_op",
];

type Rows = Vec<(&'static str, Stat)>;

/// Pairs per ladder cell for a run of `seconds`: the ladder rides along with
/// every traced run, so it is sized to a few seconds in all.
pub fn pairs_for(seconds: f64) -> u64 {
    ((20_000.0 * seconds) as u64).max(200)
}

/// Run `f` on a thread pinned to the first CPU of the start-up mask.
pub fn on_pinned_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let cpu = sys::startup_cpus()[0];
    std::thread::spawn(move || {
        sys::pin_to(cpu);
        f()
    })
    .join()
    .unwrap_or_else(|_| crate::crew::die("ladder", "a rung panicked"))
}

/// One warm-up call of `cell`, then [`CELLS`] measured ones; `cell` returns
/// nanoseconds per unit of work.
fn rung(unit: &'static str, mut cell: impl FnMut() -> f64) -> Stat {
    cell();
    Stat::new(unit, (0..CELLS).map(|_| cell()).collect())
}

fn timed(units: u64, f: impl FnOnce()) -> f64 {
    let t0 = sys::now_ns();
    f();
    (sys::now_ns() - t0) as f64 / units as f64
}

/// Tokens are distinct and non-zero on every rung (Listing 2 needs that).
struct Tokens(u64);

impl Tokens {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

/// ns/op of `pairs` enqueue+dequeue pairs on `q`, prefilled to half.
fn queue_rung<Q: ConcurrentQueue>(q: Q, pairs: u64) -> Stat {
    let mut h = q.register();
    let mut toks = Tokens(0);
    for _ in 0..q.capacity() / 2 {
        q.enqueue(&mut h, toks.next()).expect("prefill fits");
    }
    rung("ns", || {
        timed(2 * pairs, || {
            for _ in 0..pairs {
                let _ = black_box(q.enqueue(&mut h, black_box(toks.next())));
                black_box(q.dequeue(&mut h));
            }
        })
    })
}

fn minus(unit: &'static str, a: &Stat, b: &Stat) -> Stat {
    Stat::exact(unit, a.median() - b.median())
}

/// The controls alone: what a plain-build worker measures before its
/// workload. `harness.span_ns` needs the recorder, so it reads only in the
/// traced build.
pub fn controls(pairs: u64) -> Rows {
    let mut toks = Tokens(0);
    let mut rows: Rows = vec![
        (
            "harness.loop_ns",
            rung("ns", || {
                timed(2 * pairs, || {
                    for _ in 0..pairs {
                        black_box(toks.next());
                    }
                })
            }),
        ),
        (
            "harness.clock_ns",
            rung("ns", || {
                timed(pairs, || {
                    for _ in 0..pairs {
                        black_box(sys::now_ns());
                    }
                })
            }),
        ),
    ];
    if cfg!(feature = "trace") {
        let region = Region::heap(trace::region_words(pairs as usize));
        let mut rec = Recorder::new(&region, 0);
        rows.push((
            "harness.span_ns",
            rung("ns", || {
                let ns = timed(pairs, || {
                    for i in 0..pairs {
                        let t = rec.start(true);
                        rec.end(Name::Item, Name::None, i, t, true);
                    }
                });
                trace::collect(std::slice::from_ref(&region), 0);
                ns
            }),
        ));
    }
    rows.push((
        "baselines.mutex_ring.ns_per_op",
        queue_rung(MutexRingQueue::with_capacity(CAPACITY), pairs),
    ));
    rows
}

/// Every rung: controls, token queues, the layers stacked on the optimal
/// queue, rings and shared memory, and the exact footprint rows.
pub fn full(pairs: u64) -> Rows {
    let mut rows = controls(pairs);
    let opt = |c, t| OptimalQueue::with_capacity_and_threads(c, t);

    // -- token queues ----------------------------------------------------------
    let optimal = queue_rung(opt(CAPACITY, 3), pairs);
    let optimal_t64 = queue_rung(opt(CAPACITY, 64), pairs);
    rows.push(("optimal.ns_per_op", optimal.clone()));
    rows.push((
        "optimal.scan_ns_per_T",
        Stat::exact("ns", (optimal_t64.median() - optimal.median()) / 61.0),
    ));
    rows.push(("optimal.T64.ns_per_op", optimal_t64));
    rows.push((
        "distinct.ns_per_op",
        queue_rung(DistinctQueue::with_capacity(CAPACITY), pairs),
    ));
    rows.push((
        "segment.ns_per_op",
        queue_rung(SegmentQueue::with_capacity(CAPACITY), pairs),
    ));
    rows.push((
        "dcss_queue.ns_per_op",
        queue_rung(DcssQueue::with_capacity_and_threads(CAPACITY, 3), pairs),
    ));
    rows.push((
        "llsc_queue.ns_per_op",
        queue_rung(LlScQueue::with_capacity(CAPACITY), pairs),
    ));
    rows.push(("spsc.ns_per_op", {
        let (mut tx, mut rx) = spsc_ring(CAPACITY);
        let mut toks = Tokens(0);
        for _ in 0..CAPACITY / 2 {
            tx.enqueue(toks.next()).expect("prefill fits");
        }
        rung("ns", || {
            timed(2 * pairs, || {
                for _ in 0..pairs {
                    let _ = black_box(tx.enqueue(black_box(toks.next())));
                    black_box(rx.dequeue());
                }
            })
        })
    }));

    // -- sharded ---------------------------------------------------------------
    let sharded = queue_rung(ShardedQueue::<OptimalQueue>::optimal(CAPACITY, 4, 3), pairs);
    rows.push(("sharded.tax_ns", minus("ns", &sharded, &optimal)));
    rows.push(("sharded.ns_per_op", sharded));
    rows.push(("sharded.batch32.ns_per_item", {
        let q = ShardedQueue::<OptimalQueue>::optimal(CAPACITY, 4, 3);
        let mut h = q.register();
        let mut toks = Tokens(0);
        let mut out = Vec::with_capacity(BATCH);
        let rounds = pairs / BATCH as u64 + 1;
        rung("ns", || {
            timed(rounds * BATCH as u64, || {
                for _ in 0..rounds {
                    let batch: [u64; BATCH] = std::array::from_fn(|_| toks.next());
                    black_box(q.enqueue_many(&mut h, black_box(&batch)));
                    out.clear();
                    black_box(q.dequeue_many(&mut h, BATCH, &mut out));
                }
            })
        })
    }));

    // -- boxed → blocking → async_queue, each over the one beneath ----------------
    let mut boxed_allocs = 0.0;
    let boxed = {
        let q = BoxedQueue::<u64, _>::new(opt(CAPACITY, 3));
        let mut h = q.register();
        let mut toks = Tokens(0);
        for _ in 0..CAPACITY / 2 {
            q.enqueue(&mut h, toks.next()).expect("prefill fits");
        }
        rung("ns", || {
            let blocks = trace::alloc_blocks();
            let ns = timed(2 * pairs, || {
                for _ in 0..pairs {
                    let _ = black_box(q.enqueue(&mut h, black_box(toks.next())));
                    black_box(q.dequeue(&mut h));
                }
            });
            boxed_allocs = (trace::alloc_blocks() - blocks) as f64 / pairs as f64;
            ns
        })
    };
    let blocking = {
        let q = BlockingQueue::<u64, _>::new(opt(CAPACITY, 3));
        let mut h = q.register();
        let mut toks = Tokens(0);
        for _ in 0..CAPACITY / 2 {
            q.send(&mut h, toks.next()).expect("open");
        }
        rung("ns", || {
            timed(2 * pairs, || {
                for _ in 0..pairs {
                    let _ = black_box(q.send(&mut h, black_box(toks.next())));
                    black_box(q.recv(&mut h));
                }
            })
        })
    };
    let async_queue = {
        let q = AsyncQueue::<u64, _>::new(opt(CAPACITY, 3));
        let mut h = q.register();
        let mut toks = Tokens(0);
        for _ in 0..CAPACITY / 2 {
            q.try_send(&mut h, toks.next()).expect("prefill fits");
        }
        rung("ns", || {
            timed(2 * pairs, || {
                pollster::block_on(async {
                    for _ in 0..pairs {
                        let _ = black_box(q.send(&mut h, black_box(toks.next())).await);
                        black_box(q.recv(&mut h).await);
                    }
                })
            })
        })
    };
    rows.push(("boxed.tax_ns", minus("ns", &boxed, &optimal)));
    rows.push(("boxed.allocs_per_item", Stat::exact("count", boxed_allocs)));
    rows.push(("blocking.tax_ns", minus("ns", &blocking, &boxed)));
    rows.push(("async_queue.tax_ns", minus("ns", &async_queue, &blocking)));
    rows.push(("boxed.ns_per_op", boxed));
    rows.push(("blocking.ns_per_op", blocking));
    rows.push(("async_queue.ns_per_op", async_queue));

    // -- event: the wake path the façades pay on every transfer -------------------
    rows.push(("event.wake_all.idle_ns", {
        let ec = EventCount::new();
        rung("ns", || {
            timed(pairs, || {
                for _ in 0..pairs {
                    black_box(&ec).wake_all();
                }
            })
        })
    }));
    for (name, waiters) in [
        ("event.wake_all.us_at_1e2", 100),
        ("event.wake_all.us_at_1e3", 1_000),
        ("event.wake_all.us_at_1e4", 10_000),
    ] {
        let ec = EventCount::new();
        rows.push((
            name,
            rung("us", || {
                for _ in 0..waiters {
                    ec.register(ec.generation(), Waker::noop())
                        .expect("no wake was published since the snapshot");
                }
                timed(1_000, || ec.wake_all())
            }),
        ));
    }

    // -- relocatable rings and byte rings ----------------------------------------
    let ring = queue_rung(VyukovQueue::with_capacity(CAPACITY), pairs);
    rows.push(("relocatable.grant32.ns_per_item", {
        let q = VyukovQueue::with_capacity(CAPACITY);
        let mut toks = Tokens(0);
        let rounds = pairs / BATCH as u64 + 1;
        rung("ns", || {
            timed(rounds * BATCH as u64, || {
                for _ in 0..rounds {
                    // A run never wraps, so a grant may come up short.
                    let mut left = BATCH;
                    while left > 0 {
                        let mut g = q.try_reserve(left).expect("ring has room");
                        let n = g.len();
                        for slot in g.uninit_slice() {
                            slot.write(toks.next());
                        }
                        g.commit(n);
                        left -= n;
                    }
                    let mut left = BATCH;
                    while left > 0 {
                        let g = q.try_read(left).expect("ring holds the batch");
                        left -= g.len();
                        black_box(g.slice());
                        g.release();
                    }
                }
            })
        })
    }));
    let msg = [0xA5u8; MSG_BYTES];
    rows.push(("bytering.push_pop.ns_per_msg", {
        let (mut tx, mut rx) = byte_ring(16 * 1024, 1024);
        let mut out = Vec::with_capacity(MSG_BYTES);
        rung("ns", || {
            timed(pairs, || {
                for _ in 0..pairs {
                    black_box(tx.push(black_box(&msg)));
                    out.clear();
                    black_box(rx.pop(&mut out));
                }
            })
        })
    }));
    rows.push(("bytering.grant.ns_per_msg", {
        let (mut tx, mut rx) = byte_ring(16 * 1024, 1024);
        rung("ns", || {
            timed(pairs, || {
                for _ in 0..pairs {
                    let mut g = tx.try_grant(MSG_BYTES).expect("ring has room");
                    g.buf()[..MSG_BYTES].copy_from_slice(black_box(&msg));
                    g.commit(MSG_BYTES);
                    let g = rx.try_read().expect("one message queued");
                    black_box(g.msg());
                    g.release();
                }
            })
        })
    }));

    // -- shm: the same ring under the crash-consistent codec ----------------------
    let shm = queue_rung(
        ShmQueue::<u64>::create_anon(CAPACITY).expect("anonymous segment"),
        pairs,
    );
    rows.push(("shm.tax_ns", minus("ns", &shm, &ring)));
    rows.push(("relocatable.ring.ns_per_op", ring));
    rows.push(("shm.queue.ns_per_op", shm));
    rows.push(("shm.bytering.ns_per_msg", {
        let ring = ShmByteRing::create_anon(16 * 1024, 1024).expect("anonymous segment");
        let mut tx = ring.producer().expect("producer role free");
        let mut rx = ring.consumer().expect("consumer role free");
        let mut out = Vec::with_capacity(MSG_BYTES);
        rung("ns", || {
            timed(pairs, || {
                for _ in 0..pairs {
                    black_box(tx.push(black_box(&msg)));
                    out.clear();
                    black_box(rx.pop(&mut out));
                }
            })
        })
    }));

    rows.extend(footprints());
    rows
}

/// The paper's axis, from `MemoryFootprint`: exact, no timing.
fn footprints() -> Rows {
    let opt = |c, t| OptimalQueue::with_capacity_and_threads(c, t).overhead_bytes() as f64;
    let dcss = |t| DcssQueue::with_capacity_and_threads(CAPACITY, t).overhead_bytes() as f64;
    let vyukov = |c| VyukovQueue::with_capacity(c).overhead_bytes() as f64;
    let shm = |c| {
        ShmQueue::<u64>::create_anon(c)
            .expect("anonymous segment")
            .overhead_bytes() as f64
    };
    // Live heap bytes a fresh queue pins, beyond the element array and the
    // overhead it claims. Needs `TrackingAlloc` (traced build); else 0.
    let scope = membq::memtrack::AllocScope::begin();
    let q = OptimalQueue::with_capacity_and_threads(CAPACITY, 3);
    let unclaimed = scope.live_delta() as f64 - q.total_bytes() as f64;
    let per = |a: f64, b: f64, span: usize| (a - b) / span as f64;
    [
        (
            "memtrack.distinct.overhead_bytes",
            DistinctQueue::with_capacity(CAPACITY).overhead_bytes() as f64,
        ),
        (
            "memtrack.optimal.bytes_per_T",
            per(opt(CAPACITY, 64), opt(CAPACITY, 3), 61),
        ),
        (
            "memtrack.optimal.bytes_per_C",
            per(opt(4 * CAPACITY, 3), opt(CAPACITY, 3), 3 * CAPACITY),
        ),
        (
            "memtrack.dcss_queue.bytes_per_T",
            per(dcss(64), dcss(3), 61),
        ),
        (
            "memtrack.segment.overhead_bytes",
            SegmentQueue::with_capacity(4096).overhead_bytes() as f64,
        ),
        (
            "memtrack.sharded4_optimal.overhead_bytes",
            ShardedQueue::<OptimalQueue>::optimal(CAPACITY, 4, 3).overhead_bytes() as f64,
        ),
        (
            "memtrack.vyukov.bytes_per_C",
            per(vyukov(4 * CAPACITY), vyukov(CAPACITY), 3 * CAPACITY),
        ),
        (
            "memtrack.shm.queue.bytes_per_C",
            per(shm(4 * CAPACITY), shm(CAPACITY), 3 * CAPACITY),
        ),
        (
            "memtrack.optimal.alloc_minus_claimed_bytes",
            if cfg!(feature = "trace") {
                unclaimed
            } else {
                0.0
            },
        ),
    ]
    .map(|(n, v)| (n, Stat::exact("bytes", v)))
    .into()
}
