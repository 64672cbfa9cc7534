//! Schedule exploration of the **real** `bq-core` algorithms (DESIGN.md
//! §11). Requires the `explore` feature, which builds `bq-core` with its
//! `sim-explore` hook seam:
//!
//! ```sh
//! cargo test -p bq-sim --features explore --test explore_real
//! ```
//!
//! Every test here enumerates interleavings with the engine in
//! `bq_sim::explore` and feeds completed histories to the Wing–Gong
//! checkers; deadlock detection doubles as the lost-wake oracle. Smoke
//! runs (`MEMBQ_SMOKE=1`) shrink the preemption bounds.
#![cfg(feature = "explore")]

use std::collections::HashSet;
use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use bq_baselines::TwoNullQueue;
use bq_core::{
    AsyncQueue, BlockingQueue, ConcurrentQueue, DcssQueue, DistinctQueue, EventCount, NaiveQueue,
    OptimalQueue, OrderingMutant, RecvTimeoutError, RelocBox, RelocRing, SegmentQueue,
    ShardedQueue, SimAtomicU64, SimCondvar, SimMutex,
};
use bq_sim::explore::{
    explore, replay, tell, Choice, ExploreConfig, Report, RunOutcomeKind, RunSpec, ThreadStatus,
    ThreadView,
};
use bq_sim::{check_history, check_history_pool, History, HistoryEvent, Op, Ret};

fn smoke() -> bool {
    std::env::var("MEMBQ_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn cfg(preemption_bound: usize) -> ExploreConfig {
    ExploreConfig {
        preemption_bound: if smoke() {
            preemption_bound.min(2)
        } else {
            preemption_bound
        },
    }
}

/// The config of a test that pins an execution count: fixed, so the pin
/// does not move with `MEMBQ_SMOKE`.
fn pinned_cfg(preemption_bound: usize) -> ExploreConfig {
    ExploreConfig { preemption_bound }
}

/// Successful enqueues must equal successful dequeues plus the drain —
/// element-wise, not just by count.
fn conservation(h: &History, drained: &[u64]) -> Result<(), String> {
    let mut sent = Vec::new();
    let mut got: Vec<u64> = drained.to_vec();
    let mut pending_enq: std::collections::HashMap<usize, u64> = Default::default();
    for e in h.events() {
        match e {
            HistoryEvent::Invoke {
                id,
                op: Op::Enqueue(v),
                ..
            } => {
                pending_enq.insert(id.0, *v);
            }
            HistoryEvent::Return {
                id,
                ret: Ret::EnqOk,
            } => {
                sent.push(pending_enq[&id.0]);
            }
            HistoryEvent::Return {
                ret: Ret::DeqVal(v),
                ..
            } => got.push(*v),
            _ => {}
        }
    }
    sent.sort_unstable();
    got.sort_unstable();
    if sent == got {
        Ok(())
    } else {
        Err(format!("conservation broken: sent {sent:?}, got {got:?}"))
    }
}

fn assert_passed(report: &Report, what: &str) {
    if let Some(f) = &report.failure {
        panic!("{what} found a failing interleaving:\n{}", f.render());
    }
    assert!(report.executions > 0, "{what} ran no executions");
}

// ---------------------------------------------------------------------------
// Engine sanity: a planted lost-update race must be found
// ---------------------------------------------------------------------------

/// Two threads increment a counter with a non-atomic load→store pair.
/// The explorer must find the interleaving that loses an update — this
/// is the teeth test for the engine itself (if enumeration or the hook
/// seam were broken, the default schedule alone would pass).
#[test]
fn engine_finds_planted_lost_update() {
    let mk = || {
        let x = Arc::new(SimAtomicU64::new(0));
        let body = |x: Arc<SimAtomicU64>| {
            move |_ctx: &mut bq_sim::explore::Ctx| {
                let v = x.load(Ordering::SeqCst);
                x.store(v + 1, Ordering::SeqCst);
            }
        };
        let xc = Arc::clone(&x);
        RunSpec {
            bodies: vec![
                Box::new(body(Arc::clone(&x))),
                Box::new(body(Arc::clone(&x))),
            ],
            check: Box::new(move |_h| {
                let v = xc.load(Ordering::SeqCst);
                if v == 2 {
                    Ok(())
                } else {
                    Err(format!("lost update: counter is {v}, expected 2"))
                }
            }),
        }
    };
    let report = explore(&cfg(1), mk);
    let failure = report
        .failure
        .as_ref()
        .expect("the planted race must be discovered at preemption bound 1");
    assert!(
        failure.reason.contains("lost update"),
        "unexpected failure: {}",
        failure.render()
    );

    // The printed artifact replays to the same oracle rejection.
    let artifact = failure.schedule.to_string();
    let parsed: bq_sim::Schedule = artifact.parse().unwrap();
    let r = replay(&parsed, mk());
    assert_eq!(r.outcome, RunOutcomeKind::Completed);
    let err = r.check.unwrap().unwrap_err();
    assert!(err.contains("lost update"), "replay lost the bug: {err}");
}

// ---------------------------------------------------------------------------
// OptimalQueue 2P+1C — the acceptance scenario
// ---------------------------------------------------------------------------

/// Two producers (11, 22) and a consumer (two dequeues) on an
/// `OptimalQueue` of capacity `c`, `T` = 4 (the oracle's drain takes the
/// fourth handle). With `late`, the first producer calls `register()`
/// inside its explored body instead of before it, so the registered count
/// that bounds `find_op`'s scan moves *under exploration*. `mutant` plants
/// a weakened ordering ([`OrderingMutant::Shipped`] for none).
fn optimal_2p1c(c: usize, late: bool, mutant: OrderingMutant) -> RunSpec {
    let q = Arc::new(OptimalQueue::with_capacity_and_threads(c, 4).with_ordering_mutant(mutant));
    let h0 = (!late).then(|| q.register());
    let h1 = Some(q.register());
    let hc = q.register();

    let producer = |q: Arc<OptimalQueue>, h: Option<bq_core::OptimalHandle>, v: u64| {
        move |ctx: &mut bq_sim::explore::Ctx| {
            let mut h = h.unwrap_or_else(|| q.register());
            let id = ctx.invoke(Op::Enqueue(v));
            match q.enqueue(&mut h, v) {
                Ok(()) => ctx.ret(id, Ret::EnqOk),
                Err(_) => ctx.ret(id, Ret::EnqFull),
            }
        }
    };
    let consumer = {
        let q = Arc::clone(&q);
        let mut h = hc;
        move |ctx: &mut bq_sim::explore::Ctx| {
            for _ in 0..2 {
                let id = ctx.invoke(Op::Dequeue);
                match q.dequeue(&mut h) {
                    Some(v) => ctx.ret(id, Ret::DeqVal(v)),
                    None => ctx.ret(id, Ret::DeqEmpty),
                }
            }
        }
    };
    let qc = Arc::clone(&q);
    RunSpec {
        bodies: vec![
            Box::new(producer(Arc::clone(&q), h0, 11)),
            Box::new(producer(Arc::clone(&q), h1, 22)),
            Box::new(consumer),
        ],
        check: Box::new(move |h| {
            let mut dh = qc.register();
            let mut drained = Vec::new();
            while let Some(v) = qc.dequeue(&mut dh) {
                drained.push(v);
            }
            conservation(h, &drained)?;
            if check_history(h, c).is_linearizable() {
                Ok(())
            } else {
                Err("history is not linearizable against the FIFO spec".into())
            }
        }),
    }
}

fn optimal_2p1c_spec() -> RunSpec {
    optimal_2p1c(2, false, OrderingMutant::Shipped)
}

/// The acceptance criterion: 2 producers + 1 consumer on the real
/// `OptimalQueue`, every interleaving up to preemption bound 3, each
/// completed history checked for FIFO linearizability and element
/// conservation (bound 2 under `MEMBQ_SMOKE`), the count pinned at both
/// bounds in both explorer lanes.
#[test]
fn optimal_2p1c_all_interleavings_to_bound3() {
    let report = explore(&cfg(3), optimal_2p1c_spec);
    assert_passed(&report, "OptimalQueue 2P+1C");
    assert!(
        !report.hit_execution_cap,
        "sweep was truncated by the execution cap: {report:?}"
    );
    eprintln!(
        "OptimalQueue 2P+1C: {} executions, {} pruned, {} sliced",
        report.executions, report.pruned, report.sliced
    );
    let (full, smoke_pin) = OPTIMAL_2P1C_PINNED_EXECUTIONS;
    assert_eq!(
        report.executions,
        if smoke() { smoke_pin } else { full },
        "execution count drifted: `enqueue` or `dequeue` no longer issue \
         the access sequence they had when the pin was recorded"
    );
}

/// The pins for [`optimal_2p1c_all_interleavings_to_bound3`], (bound 3,
/// bound 2), asserted identically in the obs-on and obs-off explorer lanes.
const OPTIMAL_2P1C_PINNED_EXECUTIONS: (u64, u64) = (18_641, 8_023);

/// The race the bounded scan introduces (DESIGN.md §7.2): `find_op` reads
/// the registered count and scans that prefix of the announcement array,
/// and every other `OptimalQueue` scenario here registers its handles
/// before the explored region, where the count never moves. This one lets
/// producer 0 `register()` **inside** its body (it gets tid 2, above both
/// pre-registered handles) on a one-cell queue, so both producers target
/// cell 0 and the consumer's `read_elem` scans while slot 2 comes into
/// being: a scan bound read too early — or remembered — misses the
/// announcement in slot 2. Linearizability and conservation on every
/// execution to preemption bound 3, the count pinned in both explorer lanes.
///
/// Teeth (run on a scratch copy, not kept; re-run on the three-word
/// descriptor — same execution, a shorter schedule): with the count cached
/// in the handle at `register()` time, producer 1 and the consumer scan
/// `0..2` forever, and this scenario rejects the queue on its 113th
/// execution — "conservation broken: sent [11, 22], got [22]": producer 1
/// decides its descriptor successful for position 0 without seeing
/// producer 0's, already successful there in slot 2 — replayable as
///
/// ```text
/// sched:v1:0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,2,2,2,2,2,2,2,2,2,2,2,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,0,0,0,0
/// ```
///
/// (The 2P+1C sweep rejects the same mutant: its handles cache 1, 2 and 3.)
#[test]
fn optimal_late_registration_races_the_bounded_scan() {
    let report = explore(&pinned_cfg(3), || {
        optimal_2p1c(1, true, OrderingMutant::Shipped)
    });
    assert_passed(&report, "OptimalQueue late registration");
    assert!(!report.hit_execution_cap, "truncated: {report:?}");
    eprintln!(
        "OptimalQueue late registration: {} executions, {} pruned",
        report.executions, report.pruned
    );
    assert_eq!(
        report.executions, LATE_REGISTRATION_PINNED_EXECUTIONS,
        "execution count drifted: `register` or `find_op` no longer issue \
         the access sequence they had when the pin was recorded"
    );
}

/// The pin for [`optimal_late_registration_races_the_bounded_scan`],
/// asserted identically in the obs-on and obs-off explorer lanes. It read
/// 13 574 while a descriptor was five words: the accesses that left with
/// the three-word descriptor are named at
/// [`OBS_INVARIANCE_PINNED_EXECUTIONS`].
const LATE_REGISTRATION_PINNED_EXECUTIONS: u64 = 11_304;

/// Listing 5's run dequeue (DESIGN.md §8.1) against a single-element rival:
/// an `OptimalQueue` with `C = 2`, two producers (11, 22), a consumer
/// taking `dequeue_many(…, 2)` — each element recorded as its own
/// `Op::Dequeue` spanning the call, a missing one as empty — and a consumer
/// making one `dequeue`. `T` = 5: the four explored handles and the
/// oracle's drain.
fn optimal_run_vs_rival(mutant: OrderingMutant) -> RunSpec {
    let q = Arc::new(OptimalQueue::with_capacity_and_threads(2, 5).with_ordering_mutant(mutant));
    let mut handles: Vec<_> = (0..4).map(|_| q.register()).collect();
    let (mut hr, mut hb) = (handles.pop().unwrap(), handles.pop().unwrap());
    let producer = |h: bq_core::OptimalHandle, v: u64| {
        let q = Arc::clone(&q);
        let mut h = h;
        move |ctx: &mut bq_sim::explore::Ctx| {
            let id = ctx.invoke(Op::Enqueue(v));
            match q.enqueue(&mut h, v) {
                Ok(()) => ctx.ret(id, Ret::EnqOk),
                Err(_) => ctx.ret(id, Ret::EnqFull),
            }
        }
    };
    let run = {
        let q = Arc::clone(&q);
        move |ctx: &mut bq_sim::explore::Ctx| {
            let ids = [ctx.invoke(Op::Dequeue), ctx.invoke(Op::Dequeue)];
            let mut out = Vec::new();
            q.dequeue_many(&mut hb, 2, &mut out);
            for (k, id) in ids.into_iter().enumerate() {
                match out.get(k) {
                    Some(&v) => ctx.ret(id, Ret::DeqVal(v)),
                    None => ctx.ret(id, Ret::DeqEmpty),
                }
            }
        }
    };
    let rival = {
        let q = Arc::clone(&q);
        move |ctx: &mut bq_sim::explore::Ctx| {
            let id = ctx.invoke(Op::Dequeue);
            match q.dequeue(&mut hr) {
                Some(v) => ctx.ret(id, Ret::DeqVal(v)),
                None => ctx.ret(id, Ret::DeqEmpty),
            }
        }
    };
    let (h1, h0) = (handles.pop().unwrap(), handles.pop().unwrap());
    let qc = Arc::clone(&q);
    RunSpec {
        bodies: vec![
            Box::new(producer(h0, 11)),
            Box::new(producer(h1, 22)),
            Box::new(run),
            Box::new(rival),
        ],
        check: Box::new(move |h| {
            let mut dh = qc.register();
            let mut drained = Vec::new();
            while let Some(v) = qc.dequeue(&mut dh) {
                drained.push(v);
            }
            conservation(h, &drained)?;
            if check_history(h, 2).is_linearizable() {
                Ok(())
            } else {
                Err("history is not linearizable against the FIFO spec".into())
            }
        }),
    }
}

/// The run dequeue racing everything a single-element rival and two
/// producers can do to it, every interleaving to preemption bound 3 (2
/// under `MEMBQ_SMOKE`, where four threads at bound 3 would be most of
/// the lane's time): conservation and FIFO linearizability, the count
/// pinned at both bounds, in both explorer lanes. No other scenario calls
/// a batch operation, so adding this one moved no other pin.
///
/// Teeth (planted in a copy of the tree, not kept): with the cells loaded *before*
/// the board scan instead of after it, this scenario rejects the queue on
/// its 34 901st execution (7 717th at bound 2) — "conservation broken:
/// sent [11, 22], got [0, 22]": producer 0's descriptor for position 0 is
/// decided and the counter helped past it, the run reads cell 0 still
/// empty, producer 0 writes the cell back and clears its slot, and the
/// scan then finds nothing to cover position 0 — replayable as
///
/// ```text
/// sched:v1:0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,3,3,3,3,3,3,3,3,3,3,3,3,2,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,2,2,2,2,2,2,2,0,0,0,0,0,0,0,0,0,0,0,0,2,2,2,2,2,2,2
/// ```
#[test]
fn optimal_run_dequeue_races_a_single_rival() {
    let report = explore(&cfg(3), || optimal_run_vs_rival(OrderingMutant::Shipped));
    assert_passed(&report, "OptimalQueue run dequeue");
    assert!(!report.hit_execution_cap, "truncated: {report:?}");
    eprintln!(
        "OptimalQueue run dequeue: {} executions, {} pruned",
        report.executions, report.pruned
    );
    let (full, smoke_pin) = RUN_DEQUEUE_PINNED_EXECUTIONS;
    assert_eq!(
        report.executions,
        if smoke() { smoke_pin } else { full },
        "execution count drifted: `dequeue_many` no longer issues the \
         access sequence it had when the pin was recorded"
    );
}

/// The pins for [`optimal_run_dequeue_races_a_single_rival`], (bound 3,
/// bound 2), asserted identically in the obs-on and obs-off explorer lanes.
const RUN_DEQUEUE_PINNED_EXECUTIONS: (u64, u64) = (409_900, 62_888);

/// A run that comes up short (DESIGN.md §8.1): `C = 2`, one producer
/// enqueueing 1, 2 and 3 — the third refused once the first two are in —
/// against one `dequeue_many(…, 2)`, each element recorded as its own
/// spanning `Op::Dequeue` and a missing one as empty.
fn optimal_short_run(mutant: OrderingMutant) -> RunSpec {
    let q = Arc::new(OptimalQueue::with_capacity_and_threads(2, 3).with_ordering_mutant(mutant));
    let (mut hp, mut hb) = (q.register(), q.register());
    let producer = {
        let q = Arc::clone(&q);
        move |ctx: &mut bq_sim::explore::Ctx| {
            for v in 1..=3 {
                let id = ctx.invoke(Op::Enqueue(v));
                match q.enqueue(&mut hp, v) {
                    Ok(()) => ctx.ret(id, Ret::EnqOk),
                    Err(_) => ctx.ret(id, Ret::EnqFull),
                }
            }
        }
    };
    let run = {
        let q = Arc::clone(&q);
        move |ctx: &mut bq_sim::explore::Ctx| {
            let ids = [ctx.invoke(Op::Dequeue), ctx.invoke(Op::Dequeue)];
            let mut out = Vec::new();
            q.dequeue_many(&mut hb, 2, &mut out);
            for (k, id) in ids.into_iter().enumerate() {
                match out.get(k) {
                    Some(&v) => ctx.ret(id, Ret::DeqVal(v)),
                    None => ctx.ret(id, Ret::DeqEmpty),
                }
            }
        }
    };
    let qc = Arc::clone(&q);
    RunSpec {
        bodies: vec![Box::new(producer), Box::new(run)],
        check: Box::new(move |h| {
            let mut dh = qc.register();
            let mut drained = Vec::new();
            while let Some(v) = qc.dequeue(&mut dh) {
                drained.push(v);
            }
            conservation(h, &drained)?;
            if check_history(h, 2).is_linearizable() {
                Ok(())
            } else {
                Err("history is not linearizable against the FIFO spec".into())
            }
        }),
    }
}

/// A run returns short only after a snapshot that read the queue empty:
/// every interleaving to preemption bound 3, the count pinned in both
/// explorer lanes.
///
/// Teeth (planted in a copy of the tree, not kept): a run that returns as soon as
/// its first snapshot came up short — `e − d < max` — is rejected on the
/// 20th execution: it read `[1]`, the producer then enqueued 2 and was
/// refused 3 as full, and the run's CAS took 1 — "1, then empty" has no
/// linearization beside "refused while full". The run-vs-rival scenario
/// above passes that mutant; this is the one that holds the second
/// snapshot in place. Replayable as
///
/// ```text
/// sched:v1:0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,1,1,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,1,1,1,1,1
/// ```
#[test]
fn optimal_short_run_reads_empty_before_returning_short() {
    let report = explore(&pinned_cfg(3), || {
        optimal_short_run(OrderingMutant::Shipped)
    });
    assert_passed(&report, "OptimalQueue short run");
    assert!(!report.hit_execution_cap, "truncated: {report:?}");
    eprintln!(
        "OptimalQueue short run: {} executions, {} pruned",
        report.executions, report.pruned
    );
    assert_eq!(
        report.executions, SHORT_RUN_PINNED_EXECUTIONS,
        "execution count drifted: `dequeue_many` no longer issues the \
         access sequence it had when the pin was recorded"
    );
}

/// The pin for [`optimal_short_run_reads_empty_before_returning_short`],
/// asserted identically in the obs-on and obs-off explorer lanes.
const SHORT_RUN_PINNED_EXECUTIONS: u64 = 88;

/// The happens-before check must *find* a planted ordering mutant — a
/// panic at one of `OptimalQueue`'s use-site checks, not an oracle
/// rejection — after exactly `pinned` executions at preemption bound 2,
/// and the printed artifact must replay to the same panic.
fn assert_unpublished_found(what: &str, pinned: u64, mk: impl Fn() -> RunSpec) {
    let report = explore(&pinned_cfg(2), &mk);
    let failure = report.failure.as_ref().unwrap_or_else(|| {
        panic!(
            "{what}: all {} executions passed, an unpublished read was expected",
            report.executions
        )
    });
    assert!(
        failure.reason.contains("unpublished read"),
        "{what}: expected the happens-before check, got {}",
        failure.render()
    );
    assert!(
        failure.reason.contains("optimal.rs:"),
        "{what}: the verdict names where the check fired, got {}",
        failure.reason
    );
    eprintln!(
        "{what}: found after {} executions ({})\n{}",
        report.executions, failure.reason, failure.schedule
    );
    assert_eq!(report.executions, pinned, "{what}: execution count drifted");
    let parsed: bq_sim::Schedule = failure.schedule.to_string().parse().unwrap();
    match replay(&parsed, mk()).outcome {
        RunOutcomeKind::Panicked(m) if failure.reason.ends_with(&m) => {}
        other => panic!("{what}: artifact replayed to {other:?}"),
    }
}

/// Teeth for the happens-before check (DESIGN.md §11.4). Listing 5's
/// descriptor `e`/`x` stores are `Release`, published by the announce CAS
/// and acquired by `read_op`'s slot load; weaken either end to `Relaxed`
/// and every `OptimalQueue` scenario here finds a reader that used `e`/`x`
/// values no synchronization delivered. The cell write-back is `Release`
/// too, published to a dequeuer that finds the slot cleared by the
/// clearing CAS; weaken that CAS and a dequeue returns a cell's value
/// unpublished. The same scenarios pass the shipped orderings: each test
/// above runs with the check armed.
#[test]
fn optimal_ordering_mutants_are_found_and_replayed() {
    type Scenario = fn(OrderingMutant) -> RunSpec;
    let scenarios: [(&str, Scenario); 4] = [
        ("2P+1C", |m| optimal_2p1c(2, false, m)),
        ("late registration", |m| optimal_2p1c(1, true, m)),
        ("run vs rival", optimal_run_vs_rival),
        ("short run", optimal_short_run),
    ];
    for (mutant, pins) in MUTANT_PINNED {
        for ((name, mk), pin) in scenarios.into_iter().zip(pins) {
            let what = format!("{mutant:?} in {name}");
            match pin {
                MutantPin::Found(n) => assert_unpublished_found(&what, n, || mk(mutant)),
                MutantPin::Passes(n) => assert_all_pass(&what, n, || mk(mutant)),
            }
        }
    }
}

/// What [`optimal_ordering_mutants_are_found_and_replayed`] expects of one
/// mutant in one scenario at preemption bound 2.
enum MutantPin {
    /// Found on this execution.
    Found(u64),
    /// Every one of this many executions passes.
    Passes(u64),
}

/// The pins for [`optimal_ordering_mutants_are_found_and_replayed`], per
/// mutant in 2P+1C, late registration, run vs rival and short run,
/// asserted identically in the obs-on and obs-off explorer lanes. Short
/// run has one producer, whose own `enqueues` CAS after the write-back
/// publishes it to every dequeuer: there a `Relaxed` clearing CAS is no
/// bug, and none is reported.
const MUTANT_PINNED: [(OrderingMutant, [MutantPin; 4]); 3] = {
    use MutantPin::{Found, Passes};
    [
        (
            OrderingMutant::RelaxedAnnounce,
            [Found(7), Found(12), Found(115), Found(10)],
        ),
        (
            OrderingMutant::RelaxedSlotLoad,
            [Found(7), Found(12), Found(115), Found(10)],
        ),
        (
            OrderingMutant::RelaxedClear,
            [Found(281), Found(131), Found(3_047), Passes(81)],
        ),
    ]
};

/// Replay determinism, byte for byte: any printed `Schedule` artifact
/// re-runs to the identical history. This is what makes a red CI log
/// actionable — the artifact alone reproduces the execution.
#[test]
fn replay_reproduces_histories_byte_for_byte() {
    // First execution under the default policy: capture its schedule.
    let base = replay(&bq_sim::Schedule::new(), optimal_2p1c_spec());
    assert_eq!(base.outcome, RunOutcomeKind::Completed);
    assert!(!base.schedule.is_empty());

    // Round-trip the artifact through its text form and replay twice.
    let artifact = base.schedule.to_string();
    let parsed: bq_sim::Schedule = artifact.parse().unwrap();
    assert_eq!(parsed, base.schedule, "artifact text round-trips");
    let r1 = replay(&parsed, optimal_2p1c_spec());
    let r2 = replay(&parsed, optimal_2p1c_spec());
    assert_eq!(r1.outcome, RunOutcomeKind::Completed);
    assert_eq!(
        r1.history, base.history,
        "replaying the captured schedule must reproduce the original history"
    );
    assert_eq!(r1.history, r2.history, "replay is deterministic");
    assert_eq!(r1.schedule, r2.schedule);

    // A perturbed prefix yields a (possibly) different but equally
    // deterministic execution.
    let mut alt = parsed.clone();
    if alt.0[0] == 0 {
        alt.0.truncate(1);
        alt.0[0] = 1;
    } else {
        alt.0.truncate(1);
        alt.0[0] = 0;
    }
    let a1 = replay(&alt, optimal_2p1c_spec());
    let a2 = replay(&alt, optimal_2p1c_spec());
    assert_eq!(
        a1.history, a2.history,
        "perturbed schedule still deterministic"
    );
}

/// DESIGN.md §14: the obs counters are plain relaxed **host** atomics,
/// not `SimAtomicU64`s — they never pass through the hook seam, so they
/// add no scheduling points and the explorer enumerates byte-for-byte
/// the same schedule tree whether `bq-core/obs` is compiled in or not.
/// The execution count is pinned to a literal and this test runs in both
/// CI lanes (`--features explore` and `--features explore,bq-core/obs`);
/// if instrumentation ever leaks into the explored step sequence, one
/// lane's count drifts off the pin.
#[test]
fn obs_counters_add_no_scheduling_points() {
    let cfg = pinned_cfg(2);
    let mk = || {
        // 3 handles: producer, consumer, and the check's drain handle.
        let q = Arc::new(OptimalQueue::with_capacity_and_threads(2, 3));
        let mut hp = q.register();
        let mut hc = q.register();
        let producer = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                let id = ctx.invoke(Op::Enqueue(7));
                match q.enqueue(&mut hp, 7) {
                    Ok(()) => ctx.ret(id, Ret::EnqOk),
                    Err(_) => ctx.ret(id, Ret::EnqFull),
                }
            }
        };
        let consumer = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                let id = ctx.invoke(Op::Dequeue);
                match q.dequeue(&mut hc) {
                    Some(v) => ctx.ret(id, Ret::DeqVal(v)),
                    None => ctx.ret(id, Ret::DeqEmpty),
                }
            }
        };
        let qc = Arc::clone(&q);
        RunSpec {
            bodies: vec![Box::new(producer), Box::new(consumer)],
            check: Box::new(move |h| {
                // With obs compiled in, every completed execution's
                // counters must reconcile (the conservation law the
                // stress test checks under real threads); without it the
                // snapshot is empty. Either way the schedule tree is
                // identical — that is the point of this test.
                let m = qc.metrics();
                if !m.is_empty() {
                    let att = m.get("enq_attempts").unwrap_or(0);
                    let ok = m.get("enq_success").unwrap_or(0);
                    let full = m.get("enq_full").unwrap_or(0);
                    if att != ok + full {
                        return Err(format!(
                            "enqueue counters do not reconcile: {att} != {ok} + {full}"
                        ));
                    }
                }
                let mut dh = qc.register();
                let mut drained = Vec::new();
                while let Some(v) = qc.dequeue(&mut dh) {
                    drained.push(v);
                }
                conservation(h, &drained)
            }),
        }
    };
    let report = explore(&cfg, mk);
    assert_passed(&report, "obs invariance 1P+1C");
    assert_eq!(
        report.executions, OBS_INVARIANCE_PINNED_EXECUTIONS,
        "execution count drifted: obs instrumentation (or an engine \
         change) altered the explored schedule tree"
    );
}

/// The pin for [`obs_counters_add_no_scheduling_points`]. One literal,
/// asserted identically in the obs-on and obs-off explorer lanes.
/// It read 54 before `OptimalQueue` stopped issuing a helping CAS that a
/// load says will fail: per successful enqueue, the line-40
/// `CAS(enqueues, e, e + 1)` that `complete_op` has already won is now a
/// load that sees `e + 1`. That access alone moved it (measured edit by
/// edit). The bounded scan — per `find_op`, one `next_tid` load added and
/// `T − registered` slot loads gone, here slot 2's load becoming the
/// counter's — leaves it at 54, and so does `try_put` stopping at its
/// first verdict CAS when it finds the cell covered.
/// It read 52 while a descriptor was five words (`seq`, `status`, `e`, `x`,
/// `i`). With `seq` and `status` one word and the cell recomputed: per
/// claim, the `i` store and the `status` store are gone (the claim CAS
/// writes `(seq, undecided)` itself); per `view_packed`, the `i` load is
/// gone and its validating load is of the merged word; per `read_op` of an
/// occupied slot, the separate `status` load is gone. `decide`, `put_op`'s
/// verdict read and `free_desc` are one access each, as before, on the
/// merged word. The 64-byte lanes and hot words move addresses, no access.
const OBS_INVARIANCE_PINNED_EXECUTIONS: u64 = 47;

// ---------------------------------------------------------------------------
// E4/E8 on the shipped counter queues (DESIGN.md §2, §11.4)
// ---------------------------------------------------------------------------

/// Two explored threads each running a fixed operation script on one
/// shipped queue of capacity `c`; the oracle is conservation plus strict
/// FIFO linearizability. The scripts below are `bq_sim::adversary`'s,
/// whose constructions *tell* the chooser where to poise a victim; here
/// the explorer has to find the poising interleaving by itself, in the
/// compiled `CounterQueue` loop.
fn script_spec<Q>(mk: fn(usize) -> Q, c: usize, scripts: [Vec<Op>; 2]) -> RunSpec
where
    Q: ConcurrentQueue + 'static,
    Q::Handle: 'static,
{
    let q = Arc::new(mk(c));
    let bodies = scripts
        .into_iter()
        .map(|script| {
            let q = Arc::clone(&q);
            let mut h = q.register();
            Box::new(move |ctx: &mut bq_sim::explore::Ctx| {
                for op in script {
                    let id = ctx.invoke(op);
                    let ret = match op {
                        Op::Enqueue(v) => match q.enqueue(&mut h, v) {
                            Ok(()) => Ret::EnqOk,
                            Err(_) => Ret::EnqFull,
                        },
                        Op::Dequeue => match q.dequeue(&mut h) {
                            Some(v) => Ret::DeqVal(v),
                            None => Ret::DeqEmpty,
                        },
                    };
                    ctx.ret(id, ret);
                }
            }) as Box<dyn FnOnce(&mut bq_sim::explore::Ctx) + Send>
        })
        .collect();
    RunSpec {
        bodies,
        check: Box::new(move |h| {
            let mut dh = q.register();
            let mut drained = Vec::new();
            while let Some(v) = q.dequeue(&mut dh) {
                drained.push(v);
            }
            conservation(h, &drained)?;
            if check_history(h, c).is_linearizable() {
                Ok(())
            } else {
                Err("history is not linearizable against the FIFO spec".into())
            }
        }),
    }
}

/// `adversary::run_middle_steal` (Figure 3, dequeue side), `C = 4`: T1's
/// first dequeue is the victim — poised on `CAS(a[1], 7, ⊥)` while T0
/// consumes the 7 and refills to `[11, 12, 13, x]`, `x` landing in the slot
/// the victim covers — and its other five are the drain.
fn middle_steal(x: u64) -> [Vec<Op>; 2] {
    use Op::{Dequeue as D, Enqueue as E};
    [
        vec![E(1), E(7), D, D, E(11), E(12), E(13), E(x)],
        vec![D; 6],
    ]
}

/// `adversary::run_enqueue_hole` (Figure 3, enqueue side), `C = 4`: T1's
/// `enq(99)` is poised on `CAS(a[2], ⊥, 99)` after T0's first two
/// enqueues and released a round later into the interior hole; T1 drains.
fn enqueue_hole() -> [Vec<Op>; 2] {
    use Op::{Dequeue as D, Enqueue as E};
    let mut victim = vec![E(99)];
    victim.extend([D; 8]);
    [vec![E(1), E(2), E(3), E(4), D, D, D, E(5), E(6)], victim]
}

/// `adversary::run_two_round_sleep` (the paper's §4 critique), `C = 2`:
/// T0's `enq(99)` is poised on `CAS(a[0], ⊥₀, 99)` on the empty queue,
/// sleeps through T1's two complete fill/empty rounds, fires, and drains.
fn two_round_sleep() -> [Vec<Op>; 2] {
    use Op::{Dequeue as D, Enqueue as E};
    [
        vec![E(99), D, D, D, D],
        vec![E(1), E(2), D, D, E(3), E(4), D, D],
    ]
}

/// `DcssQueue` for two scripted threads plus the oracle's drain handle.
fn dcss3(c: usize) -> DcssQueue {
    DcssQueue::with_capacity_and_threads(c, 3)
}

/// The explorer must have *found* a violation — an oracle rejection, not
/// a panic or a deadlock — after exactly `pinned` executions, and the
/// printed artifact must replay to the same rejection.
fn assert_found(what: &str, pinned: u64, mk: impl Fn() -> RunSpec) {
    let report = explore(&pinned_cfg(2), &mk);
    let failure = report.failure.as_ref().unwrap_or_else(|| {
        panic!(
            "{what}: all {} executions passed, a violation was expected",
            report.executions
        )
    });
    assert!(
        failure.reason.starts_with("oracle rejected"),
        "{what}: expected an oracle rejection, got {}",
        failure.render()
    );
    eprintln!(
        "{what}: found after {} executions ({})\n{}",
        report.executions, failure.reason, failure.schedule
    );
    assert_eq!(report.executions, pinned, "{what}: execution count drifted");
    let parsed: bq_sim::Schedule = failure.schedule.to_string().parse().unwrap();
    let r = replay(&parsed, mk());
    assert_eq!(r.outcome, RunOutcomeKind::Completed);
    let err = r.check.unwrap().unwrap_err();
    assert!(
        failure.reason.ends_with(&err),
        "{what}: artifact replayed to a different rejection: {err}"
    );
}

/// Every execution up to preemption bound 2 must pass, `pinned` of them.
fn assert_all_pass(what: &str, pinned: u64, mk: impl Fn() -> RunSpec) {
    let report = explore(&pinned_cfg(2), mk);
    assert_passed(&report, what);
    eprintln!("{what}: {} executions pass", report.executions);
    assert_eq!(report.executions, pinned, "{what}: execution count drifted");
}

/// E4/E8's middle steal on the shipped types: found on the strawman,
/// found on Listing 2 once a value repeats, harmless for Listing 2 with
/// distinct values and for Listing 4 with repeated ones.
#[test]
fn middle_steal_on_the_shipped_counter_queues() {
    assert_found("NaiveQueue middle steal", MIDDLE_STEAL_PINNED.0, || {
        script_spec(NaiveQueue::with_capacity, 4, middle_steal(7))
    });
    assert_found(
        "DistinctQueue middle steal, repeated value",
        MIDDLE_STEAL_PINNED.1,
        || script_spec(DistinctQueue::with_capacity, 4, middle_steal(7)),
    );
    assert_all_pass(
        "DistinctQueue middle steal, distinct values",
        MIDDLE_STEAL_PINNED.2,
        || script_spec(DistinctQueue::with_capacity, 4, middle_steal(14)),
    );
    assert_all_pass(
        "DcssQueue middle steal, repeated value",
        MIDDLE_STEAL_PINNED.3,
        || script_spec(dcss3, 4, middle_steal(7)),
    );
}

/// The enqueue-into-hole script: the strawman's stale `CAS(⊥ → 99)` lands
/// in the interior hole; Listing 4's DCSS fails its counter comparison.
#[test]
fn enqueue_hole_on_the_shipped_counter_queues() {
    assert_found("NaiveQueue enqueue hole", ENQUEUE_HOLE_PINNED.0, || {
        script_spec(NaiveQueue::with_capacity, 4, enqueue_hole())
    });
    assert_all_pass("DcssQueue enqueue hole", ENQUEUE_HOLE_PINNED.1, || {
        script_spec(dcss3, 4, enqueue_hole())
    });
}

/// The two-round sleep: `⊥_{r mod 2}` recurs and the stale enqueue lands;
/// `⊥_r` never recurs.
#[test]
fn two_round_sleep_on_the_shipped_counter_queues() {
    assert_found("TwoNullQueue two-round sleep", TWO_ROUND_PINNED.0, || {
        script_spec(TwoNullQueue::with_capacity, 2, two_round_sleep())
    });
    assert_all_pass("DistinctQueue two-round sleep", TWO_ROUND_PINNED.1, || {
        script_spec(DistinctQueue::with_capacity, 2, two_round_sleep())
    });
}

/// Teeth for the chooser of `tell`: ending a run while a thread is inside
/// an operation unwinds every body through the abort path and returns the
/// partial history — an invocation with no response — with the oracle
/// not run; the same choices then replay, and run on to completion.
#[test]
fn told_stop_mid_operation_returns_the_partial_history() {
    use Op::{Dequeue as D, Enqueue as E};
    let mk = || script_spec(NaiveQueue::with_capacity, 2, [vec![E(1), D], vec![D]]);
    let mut grants = 0;
    let r = tell(mk(), move |threads: &[ThreadView], _: &History| {
        if grants < 3 {
            grants += 1;
            return Choice::Grant(0);
        }
        // Three accesses into its enqueue (two tail loads and a head
        // load), T0 has announced its slot CAS; T1 has not started.
        let next = threads[0].next.expect("T0 announced its next access");
        assert_eq!(next.kind, simyield::Kind::Cas);
        assert_eq!(threads[1].status, ThreadStatus::Ready);
        assert!(threads[1].next.is_none());
        Choice::Stop
    });
    assert_eq!(r.outcome, RunOutcomeKind::Stopped);
    assert!(r.check.is_none(), "the oracle runs only on completed runs");
    assert_eq!(r.schedule, bq_sim::Schedule(vec![0, 0, 0]));
    let partial = r.history.render();
    assert_eq!(partial, "[T0] invoke #0 enq(1)\n");
    let again = replay(&r.schedule, mk());
    assert_eq!(again.outcome, RunOutcomeKind::Completed);
    assert!(again.history.render().starts_with(&partial));
    assert_eq!(again.check, Some(Ok(())));
}

/// Execution counts of the scenarios above at preemption bound 2, asserted
/// identically in the obs-on and obs-off explorer lanes. A *found* count is
/// the number of executions up to and including the failing one.
/// Middle steal: `(naive found, distinct x=7 found, distinct x=14, dcss)`.
const MIDDLE_STEAL_PINNED: (u64, u64, u64, u64) = (100, 100, 290, 290);
/// Enqueue hole: `(naive found, dcss)`.
const ENQUEUE_HOLE_PINNED: (u64, u64) = (24, 525);
/// Two-round sleep: `(two-null found, distinct)`.
const TWO_ROUND_PINNED: (u64, u64) = (121, 320);

// ---------------------------------------------------------------------------
// Zero-copy grants on the sequenced ring (DESIGN.md §12)
// ---------------------------------------------------------------------------

/// The sequenced ring shares Vyukov's documented relaxation: between a
/// producer's tail claim and its seq-word publish, a consumer behind that
/// slot reports *empty* even if a later enqueue already completed (and
/// symmetrically for *full*). So ring histories are checked two ways:
/// the **full** history against the pool spec (conservation, causality,
/// capacity, no duplicates — refusals admitted), and the history
/// **restricted to successful operations** against the strict FIFO queue
/// spec (values must come out in exactly enqueue order).
fn check_ring_history(h: &History, cap: usize) -> Result<(), String> {
    if !check_history_pool(h, cap).is_linearizable() {
        return Err("ring history breaks the pool spec".into());
    }
    let refused: HashSet<usize> = h
        .events()
        .iter()
        .filter_map(|e| match e {
            HistoryEvent::Return {
                id,
                ret: Ret::EnqFull,
            }
            | HistoryEvent::Return {
                id,
                ret: Ret::DeqEmpty,
            } => Some(id.0),
            _ => None,
        })
        .collect();
    let mut successes = History::new();
    for e in h.events() {
        let id = match e {
            HistoryEvent::Invoke { id, .. } | HistoryEvent::Return { id, .. } => id.0,
        };
        if !refused.contains(&id) {
            successes.push(*e);
        }
    }
    if check_history(&successes, cap).is_linearizable() {
        Ok(())
    } else {
        Err("successful ring ops are not FIFO-linearizable".into())
    }
}

/// A `RelocRing<u64>` of capacity `c`, shared across explored threads.
type RingWorld = RelocBox<RelocRing<u64>>;

fn ring_world(c: usize) -> Arc<RingWorld> {
    Arc::new(RelocBox::new(c))
}

/// The grant acceptance scenario: a producer that **reserves** a slot,
/// gets preempted at every possible point between the claim and the
/// commit (and between the commit's publish stores), racing a plain
/// Vyukov producer, a consumer, and an **aborting** reserver whose grant
/// drops uncommitted. Every completed history must be FIFO-linearizable
/// and conserve elements — in particular, no interleaving may let the
/// consumer observe a reserved-but-uncommitted slot, and the aborted
/// slot must be skipped without wedging or leaking anything.
#[test]
fn ring_grant_reserve_preempt_commit_vs_reader() {
    let mk = || {
        let w = ring_world(2);
        let granting_producer = {
            let w = Arc::clone(&w);
            move |ctx: &mut bq_sim::explore::Ctx| {
                let id = ctx.invoke(Op::Enqueue(11));
                match w.try_reserve(1) {
                    Some(mut g) => {
                        // The preemption window under test: the slot is
                        // claimed (seq consumed by the tail CAS) but not
                        // yet published — every interleaving of the
                        // reader with this gap is explored.
                        g.uninit_slice()[0].write(11);
                        g.commit(1);
                        ctx.ret(id, Ret::EnqOk);
                    }
                    None => ctx.ret(id, Ret::EnqFull),
                };
            }
        };
        let aborting_producer = {
            let w = Arc::clone(&w);
            move |_ctx: &mut bq_sim::explore::Ctx| {
                // Reserve and drop: the slot aborts (seq jumps a round)
                // and consumers must skip it. Logically no operation
                // happened, so nothing is recorded in the history.
                let g = w.try_reserve(1);
                drop(g);
            }
        };
        let move_producer = {
            let w = Arc::clone(&w);
            move |ctx: &mut bq_sim::explore::Ctx| {
                let id = ctx.invoke(Op::Enqueue(22));
                match w.vy_enqueue(22) {
                    Ok(()) => ctx.ret(id, Ret::EnqOk),
                    Err(_) => ctx.ret(id, Ret::EnqFull),
                }
            }
        };
        let consumer = {
            let w = Arc::clone(&w);
            move |ctx: &mut bq_sim::explore::Ctx| {
                for _ in 0..2 {
                    let id = ctx.invoke(Op::Dequeue);
                    match w.vy_dequeue() {
                        Some(v) => ctx.ret(id, Ret::DeqVal(v)),
                        None => ctx.ret(id, Ret::DeqEmpty),
                    }
                }
            }
        };
        let wc = Arc::clone(&w);
        RunSpec {
            bodies: vec![
                Box::new(granting_producer),
                Box::new(aborting_producer),
                Box::new(move_producer),
                Box::new(consumer),
            ],
            check: Box::new(move |h| {
                let mut drained = Vec::new();
                while let Some(v) = wc.vy_dequeue() {
                    drained.push(v);
                }
                for v in h
                    .events()
                    .iter()
                    .filter_map(|e| match e {
                        HistoryEvent::Return {
                            ret: Ret::DeqVal(v),
                            ..
                        } => Some(*v),
                        _ => None,
                    })
                    .chain(drained.iter().copied())
                {
                    if v != 11 && v != 22 {
                        return Err(format!(
                            "observed {v}: an unpublished or aborted slot leaked"
                        ));
                    }
                }
                conservation(h, &drained)?;
                check_ring_history(h, 2)
            }),
        }
    };
    let report = explore(&pinned_cfg(2), mk);
    assert_passed(&report, "RelocRing grant reserve/commit vs reader");
    eprintln!(
        "ring grants: {} executions, {} pruned",
        report.executions, report.pruned
    );
    assert_eq!(
        report.executions, RING_GRANT_PINNED_EXECUTIONS,
        "execution count drifted: RelocRing's claim/resolve no longer \
         issue the access sequence they had when the pin was recorded"
    );
}

/// Read grants under exploration: the consumer borrows the oldest run in
/// place while producers keep publishing. The borrowed values must always
/// be a committed FIFO prefix, and dropping the read grant must free the
/// slots for the producers (no interleaving wedges the ring).
#[test]
fn ring_read_grant_borrows_only_committed_prefixes() {
    let mk = || {
        let w = ring_world(2);
        let producer = |w: Arc<RingWorld>, v: u64| {
            move |ctx: &mut bq_sim::explore::Ctx| {
                let id = ctx.invoke(Op::Enqueue(v));
                match w.vy_enqueue(v) {
                    Ok(()) => ctx.ret(id, Ret::EnqOk),
                    Err(_) => ctx.ret(id, Ret::EnqFull),
                }
            }
        };
        let reading_consumer = {
            let w = Arc::clone(&w);
            move |ctx: &mut bq_sim::explore::Ctx| {
                for _ in 0..2 {
                    let id = ctx.invoke(Op::Dequeue);
                    match w.try_read(1) {
                        Some(g) => {
                            let v = g.slice()[0];
                            // The release (slot free) interleaves with the
                            // producers — explored via the grant's drop.
                            g.release();
                            ctx.ret(id, Ret::DeqVal(v));
                        }
                        None => ctx.ret(id, Ret::DeqEmpty),
                    }
                }
            }
        };
        let wc = Arc::clone(&w);
        RunSpec {
            bodies: vec![
                Box::new(producer(Arc::clone(&w), 31)),
                Box::new(producer(Arc::clone(&w), 32)),
                Box::new(reading_consumer),
            ],
            check: Box::new(move |h| {
                let mut drained = Vec::new();
                while let Some(v) = wc.vy_dequeue() {
                    drained.push(v);
                }
                conservation(h, &drained)?;
                check_ring_history(h, 2)
            }),
        }
    };
    let report = explore(&pinned_cfg(2), mk);
    assert_passed(&report, "RelocRing read grants vs producers");
    eprintln!(
        "ring read grants: {} executions, {} pruned",
        report.executions, report.pruned
    );
    assert_eq!(
        report.executions, RING_READ_GRANT_PINNED_EXECUTIONS,
        "execution count drifted: RelocRing's claim/resolve no longer \
         issue the access sequence they had when the pin was recorded"
    );
}

// ---------------------------------------------------------------------------
// EventCount: announce → snapshot → park vs wakes, spurious bumps, close
// ---------------------------------------------------------------------------

struct EcWorld {
    ec: EventCount,
    flag: SimAtomicU64,
}

/// Two waiters and a publisher interleaved with a spurious
/// generation-bumper: no interleaving may leave a waiter parked past the
/// publish (the deadlock detector is the lost-wake oracle), and the
/// eventcount must end quiescent.
#[test]
fn eventcount_waiters_never_park_past_the_publish() {
    let mk = || {
        let w = Arc::new(EcWorld {
            ec: EventCount::new(),
            flag: SimAtomicU64::new(0),
        });
        let waiter = |w: Arc<EcWorld>| {
            move |_ctx: &mut bq_sim::explore::Ctx| {
                w.ec.wait_until(|| {
                    if w.flag.load(Ordering::SeqCst) == 1 {
                        Some(())
                    } else {
                        None
                    }
                });
            }
        };
        let publisher = {
            let w = Arc::clone(&w);
            move |_ctx: &mut bq_sim::explore::Ctx| {
                w.flag.store(1, Ordering::SeqCst);
                w.ec.wake_all();
            }
        };
        let bumper = {
            let w = Arc::clone(&w);
            move |_ctx: &mut bq_sim::explore::Ctx| {
                // Spurious wake: bumps the generation without publishing.
                w.ec.wake_all();
            }
        };
        let wc = Arc::clone(&w);
        RunSpec {
            bodies: vec![
                Box::new(waiter(Arc::clone(&w))),
                Box::new(publisher),
                Box::new(bumper),
            ],
            check: Box::new(move |_h| {
                let (waiters, sleepers, wakers) = (
                    wc.ec.waiter_count(),
                    wc.ec.sleeper_count(),
                    wc.ec.registered_wakers(),
                );
                if (waiters, sleepers, wakers) != (0, 0, 0) {
                    return Err(format!(
                        "eventcount not quiescent: {waiters} waiters, {sleepers} \
                         sleepers, {wakers} wakers"
                    ));
                }
                Ok(())
            }),
        }
    };
    let report = explore(&pinned_cfg(3), mk);
    assert_passed(&report, "EventCount announce/park protocol");
    eprintln!(
        "EventCount protocol: {} executions, {} pruned",
        report.executions, report.pruned
    );
    assert_eq!(
        report.executions, EVENTCOUNT_PINNED_EXECUTIONS,
        "execution count drifted: the thread wait loop no longer issues \
         the access sequence it had when the pin was recorded"
    );
}

/// The pins for the two wait-stack scenarios, asserted identically in
/// the obs-on and obs-off explorer lanes. Recorded on the one
/// [`EventCount::wait`] loop with its bounded spin (budget 1 under
/// `sim-explore`): every slow-path round issues one more generation
/// load between the re-attempt and the gate lock, and a round whose load
/// sees the generation moved leaves through a `waiters` decrement
/// instead of the lock. Before the spin the loop read 311 and
/// (177, 88, 89) — the values of the separate untimed and timed loops it
/// had replaced; no other access changed. The `sleepers` count moved
/// both pins once more, 373 → 556 and (160, 78, 82) → (164, 78, 86): a
/// parking round increments and decrements it inside the gate around its
/// generation re-check, `register` increments it before its generation
/// load (and a refusal decrements it), `deregister` and the drain
/// decrement it, and the notifier loads it after its bump — taking the
/// gate, and calling `notify_all`, only when it reads non-zero. The
/// notifier's second `waiters` load, after its bump, fed only the `woken`
/// counter; counting from the fast-path load instead removed it, 556 →
/// 481 and (164, 78, 86) → (162, 78, 84).
const EVENTCOUNT_PINNED_EXECUTIONS: u64 = 481;
/// Timed recv vs send: `(executions, timeout-first, wake-first)`. The
/// spin added two wake-first executions (the send's wake landing on the
/// spin's load instead of the locked re-check): (179, 88, 91). Four
/// wake-first executions left when the sender's line-40 CAS became a load
/// (the access named at [`OBS_INVARIANCE_PINNED_EXECUTIONS`]; the bounded
/// scan alone leaves this count where it was, too): (175, 88, 87). The
/// three-word descriptor (same place) took ten timeout-first and five
/// wake-first executions with the sender's two claim stores and the
/// receiver's `i` and `status` loads. The `sleepers` count (above) added
/// four wake-first executions: (164, 78, 86). Dropping the notifier's
/// second `waiters` load (above) removed two: (162, 78, 84).
const TIMED_RECV_PINNED: (u64, usize, usize) = (162, 78, 84);
/// The pins for the two `RelocRing` grant scenarios, likewise asserted in
/// both lanes. Recorded on `RelocRing::claim`, the one scan → claim loop.
/// The six hand-written loops it replaced read 1 894 and 239: on a miss
/// `try_reserve`/`try_read` loaded the first slot's seq word a second
/// time to tell full/empty from a lost race, where `claim` decides from
/// the one load. No other access changed.
const RING_GRANT_PINNED_EXECUTIONS: u64 = 1944;
const RING_READ_GRANT_PINNED_EXECUTIONS: u64 = 167;

/// Teeth: break the protocol on purpose — publish the flag *after* the
/// wake — and the explorer must find the interleaving where the waiter
/// announces, re-attempts (sees no flag), parks, and the wake never
/// comes: a deadlock. The failure artifact must replay to the same
/// deadlock.
#[test]
fn eventcount_teeth_wake_before_publish_is_caught() {
    let mk = || {
        let w = Arc::new(EcWorld {
            ec: EventCount::new(),
            flag: SimAtomicU64::new(0),
        });
        let waiter = {
            let w = Arc::clone(&w);
            move |_ctx: &mut bq_sim::explore::Ctx| {
                w.ec.wait_until(|| {
                    if w.flag.load(Ordering::SeqCst) == 1 {
                        Some(())
                    } else {
                        None
                    }
                });
            }
        };
        let broken_publisher = {
            let w = Arc::clone(&w);
            move |_ctx: &mut bq_sim::explore::Ctx| {
                // BUG (deliberate): wake precedes the publish, so a waiter
                // that snapshots the generation after this wake parks
                // forever.
                w.ec.wake_all();
                w.flag.store(1, Ordering::SeqCst);
            }
        };
        RunSpec {
            bodies: vec![Box::new(waiter), Box::new(broken_publisher)],
            check: Box::new(|_h| Ok(())),
        }
    };
    let report = explore(&cfg(2), mk);
    let failure = report
        .failure
        .as_ref()
        .expect("wake-before-publish must produce a parked-forever waiter");
    assert!(
        failure.reason.contains("deadlock"),
        "expected a deadlock, got: {}",
        failure.render()
    );

    let parsed: bq_sim::Schedule = failure.schedule.to_string().parse().unwrap();
    let r = replay(&parsed, mk());
    assert!(
        matches!(r.outcome, RunOutcomeKind::Deadlock(_)),
        "artifact must replay to the same deadlock, got {:?}",
        r.outcome
    );
}

/// `close()` racing a parked receiver: the shutdown wake must reach the
/// waiter in every interleaving (a swallowed close wake would park the
/// receiver forever — caught as deadlock).
#[test]
fn blocking_close_always_wakes_a_parked_receiver() {
    let mk = || {
        let q: Arc<BlockingQueue<u64, OptimalQueue>> = Arc::new(BlockingQueue::new(
            OptimalQueue::with_capacity_and_threads(2, 2),
        ));
        let mut h = q.register();
        let receiver = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                let id = ctx.invoke(Op::Dequeue);
                match q.recv(&mut h) {
                    Some(v) => ctx.ret(id, Ret::DeqVal(v)),
                    None => ctx.ret(id, Ret::DeqEmpty), // closed-and-drained
                }
            }
        };
        let closer = {
            let q = Arc::clone(&q);
            move |_ctx: &mut bq_sim::explore::Ctx| {
                q.close();
            }
        };
        let qc = Arc::clone(&q);
        RunSpec {
            bodies: vec![Box::new(receiver), Box::new(closer)],
            check: Box::new(move |_h| {
                let ne = qc.not_empty_event();
                if ne.waiter_count() != 0 || ne.sleeper_count() != 0 {
                    return Err("receiver finished but waiter or sleeper count leaked".into());
                }
                Ok(())
            }),
        }
    };
    let report = explore(&cfg(3), mk);
    assert_passed(&report, "close() vs parked receiver");
}

// ---------------------------------------------------------------------------
// Timed waits: the timeout-vs-wake race (DESIGN.md §13.1)
// ---------------------------------------------------------------------------

/// A timed receiver racing one sender. Under exploration the wall clock
/// does not exist — whether the deadline fires is a scheduling choice
/// (`cv_block_timed`) — so the sweep must enumerate BOTH outcomes:
/// executions where the wake wins (the receiver gets the value) and
/// executions where the timeout wins (the value stays behind for the
/// drain). Every completed history must conserve elements either way,
/// and a timed-out receiver must leave the eventcount quiescent (a
/// leaked announce would under-wake the next waiter).
#[test]
fn timed_recv_vs_send_enumerates_both_outcomes() {
    let timeouts = Arc::new(AtomicUsize::new(0));
    let wakes = Arc::new(AtomicUsize::new(0));
    let mk = {
        let timeouts = Arc::clone(&timeouts);
        let wakes = Arc::clone(&wakes);
        move || {
            // Sized for 3 handles: receiver, sender, and the check's
            // drain handle.
            let q: Arc<BlockingQueue<u64, OptimalQueue>> = Arc::new(BlockingQueue::new(
                OptimalQueue::with_capacity_and_threads(2, 3),
            ));
            let mut hr = q.register();
            let mut hp = q.register();
            let receiver = {
                let q = Arc::clone(&q);
                let timeouts = Arc::clone(&timeouts);
                let wakes = Arc::clone(&wakes);
                move |ctx: &mut bq_sim::explore::Ctx| {
                    let id = ctx.invoke(Op::Dequeue);
                    match q.recv_within(&mut hr, Duration::from_millis(5)) {
                        Ok(v) => {
                            wakes.fetch_add(1, Ordering::SeqCst);
                            ctx.ret(id, Ret::DeqVal(v));
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            timeouts.fetch_add(1, Ordering::SeqCst);
                            ctx.ret(id, Ret::DeqEmpty);
                        }
                        Err(RecvTimeoutError::Closed) => unreachable!("never closed"),
                    }
                }
            };
            let sender = {
                let q = Arc::clone(&q);
                move |ctx: &mut bq_sim::explore::Ctx| {
                    let id = ctx.invoke(Op::Enqueue(77));
                    q.send(&mut hp, 77).unwrap();
                    ctx.ret(id, Ret::EnqOk);
                }
            };
            let qc = Arc::clone(&q);
            RunSpec {
                bodies: vec![Box::new(receiver), Box::new(sender)],
                check: Box::new(move |h| {
                    let ne = qc.not_empty_event();
                    if ne.waiter_count() != 0 || ne.sleeper_count() != 0 {
                        return Err("timed receiver leaked its waiter announce".into());
                    }
                    let mut dh = qc.register();
                    let mut drained = Vec::new();
                    while let Ok(v) = qc.try_recv(&mut dh) {
                        drained.push(v);
                    }
                    conservation(h, &drained)
                }),
            }
        }
    };
    let report = explore(&pinned_cfg(2), &mk);
    assert_passed(&report, "timed recv vs send");
    assert!(
        timeouts.load(Ordering::SeqCst) > 0,
        "no execution fired the timeout — cv_block_timed never chose the deadline"
    );
    assert!(
        wakes.load(Ordering::SeqCst) > 0,
        "no execution delivered the wake — the sender never won the race"
    );
    eprintln!(
        "timed recv: {} executions ({} timeout-first, {} wake-first), {} pruned",
        report.executions,
        timeouts.load(Ordering::SeqCst),
        wakes.load(Ordering::SeqCst),
        report.pruned
    );
    assert_eq!(
        (
            report.executions,
            timeouts.load(Ordering::SeqCst),
            wakes.load(Ordering::SeqCst)
        ),
        TIMED_RECV_PINNED,
        "execution count drifted: the timed wait no longer issues the \
         access sequence it had when the pin was recorded"
    );

    // The replay contract extends through the timed path: the same
    // schedule artifact re-runs a timed wait to the identical history
    // (same winner of the race), byte for byte.
    let base = replay(&bq_sim::Schedule::new(), mk());
    assert_eq!(base.outcome, RunOutcomeKind::Completed);
    let parsed: bq_sim::Schedule = base.schedule.to_string().parse().unwrap();
    let r1 = replay(&parsed, mk());
    let r2 = replay(&parsed, mk());
    assert_eq!(r1.history, base.history, "timed replay reproduces history");
    assert_eq!(r1.history, r2.history, "timed replay is deterministic");
}

// ---------------------------------------------------------------------------
// Quarantine vs enqueue (DESIGN.md §13.2)
// ---------------------------------------------------------------------------

/// A shard being quarantined mid-traffic: one worker enqueues while
/// another quarantines shard 0 and then tries to quarantine shard 1 as
/// well (which must be refused — last-healthy rule — in *every*
/// interleaving, since the slot CAS has already consumed the only free
/// slot). No interleaving may lose an element: enqueues that landed in
/// shard 0 before the flag must still drain (dequeues visit quarantined
/// shards), and enqueues after it are rerouted to shard 1.
#[test]
fn quarantine_racing_enqueues_conserves_elements() {
    let mk = || {
        let q = Arc::new(ShardedQueue::<OptimalQueue>::optimal(4, 2, 3));
        let mut hp = q.register();
        let mut hc = q.register();
        let producer = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                for v in [51u64, 52] {
                    let id = ctx.invoke(Op::Enqueue(v));
                    match q.enqueue(&mut hp, v) {
                        Ok(()) => ctx.ret(id, Ret::EnqOk),
                        Err(_) => ctx.ret(id, Ret::EnqFull),
                    }
                }
            }
        };
        let quarantiner = {
            let q = Arc::clone(&q);
            move |_ctx: &mut bq_sim::explore::Ctx| {
                assert!(q.quarantine(0), "one free slot exists: claim succeeds");
                assert!(
                    !q.quarantine(1),
                    "the last healthy shard must never be quarantined"
                );
            }
        };
        let consumer = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                let id = ctx.invoke(Op::Dequeue);
                match q.dequeue(&mut hc) {
                    Some(v) => ctx.ret(id, Ret::DeqVal(v)),
                    None => ctx.ret(id, Ret::DeqEmpty),
                }
            }
        };
        let qc = Arc::clone(&q);
        RunSpec {
            bodies: vec![
                Box::new(producer),
                Box::new(quarantiner),
                Box::new(consumer),
            ],
            check: Box::new(move |h| {
                if qc.quarantined_count() >= qc.shard_count() {
                    return Err("every shard quarantined: zero enqueue targets".into());
                }
                let mut dh = qc.register();
                let mut drained = Vec::new();
                // Dequeues visit quarantined shards too — anything that
                // landed in shard 0 before the flag must come out here.
                while let Some(v) = qc.dequeue(&mut dh) {
                    drained.push(v);
                }
                conservation(h, &drained)
            }),
        }
    };
    let report = explore(&pinned_cfg(2), mk);
    assert_passed(&report, "quarantine vs enqueue");
    eprintln!(
        "quarantine race: {} executions, {} pruned",
        report.executions, report.pruned
    );
    assert_eq!(
        report.executions, QUARANTINE_PINNED_EXECUTIONS,
        "execution count drifted: the sharded enqueue, `quarantine` or \
         Listing 5 no longer issue the access sequence they had when the pin \
         was recorded"
    );
}

/// The pin for [`quarantine_racing_enqueues_conserves_elements`], asserted
/// identically in the obs-on and obs-off explorer lanes.
const QUARANTINE_PINNED_EXECUTIONS: u64 = 4_013;

// ---------------------------------------------------------------------------
// Async cancellation: drop a pending recv future at every yield point
// ---------------------------------------------------------------------------

struct Flag(AtomicBool);

impl Wake for Flag {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn flag_waker() -> Waker {
    Waker::from(Arc::new(Flag(AtomicBool::new(false))))
}

/// The two-waiter lost-wake scenario from `tests/async_cancel.rs`, under
/// exploration instead of sleeps: a doomed `recv` future is polled once
/// and dropped (its deregistration interleaves with everything else), a
/// surviving blocking receiver parks, and one value is sent. In every
/// interleaving the survivor must obtain a value — a cancelled waiter
/// swallowing the wake parks the survivor forever, which the deadlock
/// detector reports with a replayable artifact. Registrations must not
/// leak.
///
/// Pass-only, unlike the two wait-stack scenarios above: this sweep's
/// execution count is not deterministic (10 824 / 11 813 / 11 695 over
/// three runs of one commit), so there is no literal to pin.
#[test]
fn async_recv_cancel_never_swallows_the_wake() {
    let mk = || {
        let q: Arc<AsyncQueue<u64, OptimalQueue>> = Arc::new(AsyncQueue::new(
            OptimalQueue::with_capacity_and_threads(2, 3),
        ));
        let mut hd = q.register();
        let mut hs = q.register();
        let mut hp = q.register();

        let doomed = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                let waker = flag_waker();
                let mut cx = Context::from_waker(&waker);
                let id = ctx.invoke(Op::Dequeue);
                let polled = {
                    let mut fut = std::pin::pin!(q.recv(&mut hd));
                    // Pending → the future is dropped at the end of this
                    // block: cancellation mid-wait. The drop deregisters,
                    // and every placement of that deregistration is
                    // explored.
                    fut.as_mut().poll(&mut cx)
                };
                match polled {
                    Poll::Pending => ctx.ret(id, Ret::DeqEmpty),
                    // The value raced in first: hand it back so the
                    // survivor can finish in this interleaving too.
                    Poll::Ready(Some(v)) => {
                        ctx.ret(id, Ret::DeqVal(v));
                        let id2 = ctx.invoke(Op::Enqueue(v));
                        q.try_send(&mut hd, v).unwrap();
                        ctx.ret(id2, Ret::EnqOk);
                    }
                    Poll::Ready(None) => unreachable!("never closed"),
                }
            }
        };
        let survivor = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                let id = ctx.invoke(Op::Dequeue);
                match q.blocking().recv(&mut hs) {
                    Some(v) => ctx.ret(id, Ret::DeqVal(v)),
                    None => unreachable!("never closed"),
                }
            }
        };
        let sender = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                let id = ctx.invoke(Op::Enqueue(77));
                q.try_send(&mut hp, 77).unwrap();
                ctx.ret(id, Ret::EnqOk);
            }
        };
        let qc = Arc::clone(&q);
        RunSpec {
            bodies: vec![Box::new(doomed), Box::new(survivor), Box::new(sender)],
            check: Box::new(move |h| {
                let ne = qc.blocking().not_empty_event();
                if ne.registered_wakers() != 0 {
                    return Err(format!(
                        "cancelled future leaked {} waker registrations",
                        ne.registered_wakers()
                    ));
                }
                if ne.waiter_count() != 0 || ne.sleeper_count() != 0 {
                    return Err(format!(
                        "leaked waiter count {}, sleeper count {}",
                        ne.waiter_count(),
                        ne.sleeper_count()
                    ));
                }
                // The survivor must have received the (possibly re-sent)
                // value.
                let survivor_got = h.events().iter().any(|e| {
                    matches!(e, HistoryEvent::Invoke { tid: 1, op: Op::Dequeue, id }
                        if h.events().iter().any(|r| matches!(r,
                            HistoryEvent::Return { id: rid, ret: Ret::DeqVal(_) } if rid == id)))
                });
                if !survivor_got {
                    return Err("survivor finished without a value".into());
                }
                Ok(())
            }),
        }
    };
    let report = explore(&cfg(2), mk);
    assert_passed(&report, "async recv cancellation");
    eprintln!(
        "async cancel: {} executions, {} pruned",
        report.executions, report.pruned
    );
}

/// A waker the explorer can see: firing it sets a flag under a
/// `SimMutex` and notifies a `SimCondvar`, which the task body blocks on
/// between polls — so a wake that never fires is a deadlock, not a hang.
struct Latch {
    fired: SimMutex<bool>,
    cv: SimCondvar,
}

impl Wake for Latch {
    fn wake(self: Arc<Self>) {
        *self.fired.lock() = true;
        self.cv.notify_all();
    }
}

impl Latch {
    fn wait(&self) {
        let mut fired = self.fired.lock();
        while !*fired {
            self.cv.wait(&mut fired);
        }
        *fired = false;
    }
}

/// The task half of the protocol, alone: a `recv` future registers its
/// waker and goes `Pending`, a sender publishes one value. In every
/// interleaving the registered waker must fire — the notifier reaches a
/// listed waker only through the gate, which it takes only when it counts
/// a sleeper — and the future, re-polled, must resolve to the value.
/// Pass-only, like the cancellation scenario above.
#[test]
fn registered_task_is_always_woken() {
    let mk = || {
        let q: Arc<AsyncQueue<u64, OptimalQueue>> = Arc::new(AsyncQueue::new(
            OptimalQueue::with_capacity_and_threads(2, 2),
        ));
        let mut hr = q.register();
        let mut hp = q.register();
        let task = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                let latch = Arc::new(Latch {
                    fired: SimMutex::new(false),
                    cv: SimCondvar::new(),
                });
                let waker = Waker::from(Arc::clone(&latch));
                let mut cx = Context::from_waker(&waker);
                let id = ctx.invoke(Op::Dequeue);
                let mut fut = std::pin::pin!(q.recv(&mut hr));
                let v = loop {
                    match fut.as_mut().poll(&mut cx) {
                        Poll::Ready(v) => break v.expect("never closed"),
                        Poll::Pending => latch.wait(),
                    }
                };
                ctx.ret(id, Ret::DeqVal(v));
            }
        };
        let sender = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                let id = ctx.invoke(Op::Enqueue(77));
                q.try_send(&mut hp, 77).unwrap();
                ctx.ret(id, Ret::EnqOk);
            }
        };
        let qc = Arc::clone(&q);
        RunSpec {
            bodies: vec![Box::new(task), Box::new(sender)],
            check: Box::new(move |h| {
                let ne = qc.blocking().not_empty_event();
                let (waiters, sleepers, wakers) = (
                    ne.waiter_count(),
                    ne.sleeper_count(),
                    ne.registered_wakers(),
                );
                if (waiters, sleepers, wakers) != (0, 0, 0) {
                    return Err(format!(
                        "eventcount not quiescent: {waiters} waiters, {sleepers} \
                         sleepers, {wakers} wakers"
                    ));
                }
                conservation(h, &[])
            }),
        }
    };
    let report = explore(&cfg(3), mk);
    assert_passed(&report, "registered task vs sender");
    eprintln!(
        "registered task: {} executions, {} pruned",
        report.executions, report.pruned
    );
}

// ---------------------------------------------------------------------------
// SegmentQueue and ShardedQueue under smaller bounds
// ---------------------------------------------------------------------------

/// One producer, one consumer on the real `SegmentQueue` (Listing 1):
/// FIFO linearizability plus conservation across all interleavings at
/// preemption bound 2.
#[test]
fn segment_queue_1p1c_bound2() {
    let mk = || {
        let q = Arc::new(SegmentQueue::with_capacity_and_segment_size(2, 2));
        let mut hp = q.register();
        let mut hc = q.register();
        let producer = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                for v in [5u64, 6] {
                    let id = ctx.invoke(Op::Enqueue(v));
                    match q.enqueue(&mut hp, v) {
                        Ok(()) => ctx.ret(id, Ret::EnqOk),
                        Err(_) => ctx.ret(id, Ret::EnqFull),
                    }
                }
            }
        };
        let consumer = {
            let q = Arc::clone(&q);
            move |ctx: &mut bq_sim::explore::Ctx| {
                for _ in 0..2 {
                    let id = ctx.invoke(Op::Dequeue);
                    match q.dequeue(&mut hc) {
                        Some(v) => ctx.ret(id, Ret::DeqVal(v)),
                        None => ctx.ret(id, Ret::DeqEmpty),
                    }
                }
            }
        };
        let qc = Arc::clone(&q);
        RunSpec {
            bodies: vec![Box::new(producer), Box::new(consumer)],
            check: Box::new(move |h| {
                let mut dh = qc.register();
                let mut drained = Vec::new();
                while let Some(v) = qc.dequeue(&mut dh) {
                    drained.push(v);
                }
                conservation(h, &drained)?;
                if check_history(h, 2).is_linearizable() {
                    Ok(())
                } else {
                    Err("SegmentQueue history not linearizable".into())
                }
            }),
        }
    };
    let report = explore(&pinned_cfg(2), mk);
    assert_passed(&report, "SegmentQueue 1P+1C");
    eprintln!(
        "SegmentQueue 1P+1C: {} executions, {} pruned",
        report.executions, report.pruned
    );
    assert_eq!(
        report.executions, SEGMENT_PINNED_EXECUTIONS,
        "execution count drifted: `SegmentQueue` no longer issues the access \
         sequence it had when the pin was recorded"
    );
}

/// The pin for [`segment_queue_1p1c_bound2`], asserted identically in the
/// obs-on and obs-off explorer lanes.
const SEGMENT_PINNED_EXECUTIONS: u64 = 29;

/// Two threads on a 2-shard `ShardedQueue<OptimalQueue>`: the scale
/// layer relaxes global FIFO to per-shard FIFO, so completed histories
/// are checked against the pool spec plus conservation and
/// no-duplicate-tokens.
#[test]
fn sharded_queue_2threads_pool_spec_bound2() {
    let mk = || {
        let q = Arc::new(ShardedQueue::<OptimalQueue>::optimal(4, 2, 3));
        let mut h0 = q.register();
        let mut h1 = q.register();
        let worker = |q: Arc<ShardedQueue<OptimalQueue>>, vs: [u64; 2]| {
            move |h: &mut bq_core::ShardedHandle<OptimalQueue>, ctx: &mut bq_sim::explore::Ctx| {
                for v in vs {
                    let id = ctx.invoke(Op::Enqueue(v));
                    match q.enqueue(h, v) {
                        Ok(()) => ctx.ret(id, Ret::EnqOk),
                        Err(_) => ctx.ret(id, Ret::EnqFull),
                    }
                }
                let id = ctx.invoke(Op::Dequeue);
                match q.dequeue(h) {
                    Some(v) => ctx.ret(id, Ret::DeqVal(v)),
                    None => ctx.ret(id, Ret::DeqEmpty),
                }
            }
        };
        let w0 = worker(Arc::clone(&q), [31, 32]);
        let w1 = worker(Arc::clone(&q), [41, 42]);
        let qc = Arc::clone(&q);
        RunSpec {
            bodies: vec![
                Box::new(move |ctx: &mut bq_sim::explore::Ctx| w0(&mut h0, ctx)),
                Box::new(move |ctx: &mut bq_sim::explore::Ctx| w1(&mut h1, ctx)),
            ],
            check: Box::new(move |h| {
                let mut dh = qc.register();
                let mut drained = Vec::new();
                while let Some(v) = qc.dequeue(&mut dh) {
                    drained.push(v);
                }
                conservation(h, &drained)?;
                // No duplicate tokens anywhere in the dequeue stream.
                let mut seen = HashSet::new();
                for e in h.events() {
                    if let HistoryEvent::Return {
                        ret: Ret::DeqVal(v),
                        ..
                    } = e
                    {
                        if !seen.insert(*v) {
                            return Err(format!("token {v} dequeued twice"));
                        }
                    }
                }
                if check_history_pool(h, 4).is_linearizable() {
                    Ok(())
                } else {
                    Err("sharded history broke the pool spec".into())
                }
            }),
        }
    };
    let report = explore(&pinned_cfg(2), mk);
    assert_passed(&report, "ShardedQueue 2-thread pool spec");
    eprintln!(
        "ShardedQueue: {} executions, {} pruned",
        report.executions, report.pruned
    );
    assert_eq!(
        report.executions, SHARDED_PINNED_EXECUTIONS,
        "execution count drifted: the sharded paths or Listing 5 no longer \
         issue the access sequence they had when the pin was recorded"
    );
}

/// The pin for [`sharded_queue_2threads_pool_spec_bound2`], asserted
/// identically in the obs-on and obs-off explorer lanes.
const SHARDED_PINNED_EXECUTIONS: u64 = 148;
