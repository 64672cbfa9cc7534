//! Crash injection: a process is `SIGKILL`ed **at every point in the
//! enqueue write sequence** (before any shared write, and after each of
//! W1 claim CAS / W2 tail-help CAS / W3 value write / W4 publish store)
//! and **at every point in the dequeue access sequence** (before any
//! access, and after each of V1 claim CAS / V2 head-help CAS / V3 value
//! read / V4 release CAS), and the survivors must keep the queue fully
//! operational — no wedge, no lost or duplicated elements beyond the
//! killed op's own fate.
//!
//! The killed op's fate is exactly determined by its kill point (solo
//! producer/consumer, so the path is deterministic): an enqueue
//! linearizes at W4 and at no earlier write, so the injected value must
//! surface **iff** the producer survived past W4; a dequeue linearizes at
//! V1, so the head element must survive **iff** the consumer died before
//! V1. That is the "allowance ∈ [committed, committed+1]" acceptance
//! bound collapsed to an equality.

use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Duration;

use bq_shm::{fork_child, ChildExit, ShmByteRing, ShmQueue};

static FORK_LOCK: Mutex<()> = Mutex::new(());

const INJECTED: u64 = 0xDEAD;
/// Retry budget for single parent-side operations; the protocol is
/// obstruction-free for a lone survivor, so a bounded number of retries
/// (reclaims + helps) must suffice — exhaustion means a wedge.
const RETRY_CAP: usize = 10_000;

fn enqueue_or_wedge(q: &ShmQueue<u64>, h: &mut bq_shm::ShmHandle, v: u64) {
    for _ in 0..RETRY_CAP {
        if q.enqueue(h, v).is_ok() {
            return;
        }
        std::thread::yield_now();
    }
    panic!("enqueue({v}) wedged after a producer was SIGKILLed");
}

fn dequeue_or_wedge(q: &ShmQueue<u64>, h: &mut bq_shm::ShmHandle) -> u64 {
    for _ in 0..RETRY_CAP {
        if let Some(v) = q.dequeue(h) {
            return v;
        }
        std::thread::yield_now();
    }
    panic!("dequeue wedged after a producer was SIGKILLed");
}

#[test]
fn sigkill_at_every_enqueue_write_never_wedges() {
    let _g = FORK_LOCK.lock().unwrap();
    for kill_point in 0..=4u64 {
        let q = ShmQueue::<u64>::create_anon(4).unwrap();
        let seg = q.segment().clone();

        let qc = q.clone();
        let child = fork_child(move || {
            let mut h = qc.register();
            // Tell the parent which liveness slot to flag; +1 so the
            // parent can distinguish "never registered".
            qc.segment()
                .scratch(7)
                .store(h.proc_idx() as u64 + 1, Ordering::SeqCst);
            h.arm_crash_after_writes(kill_point);
            let _ = qc.enqueue(&mut h, INJECTED);
            // Reached only if the gate never fired — a test bug.
            qc.segment().scratch(6).store(1, Ordering::SeqCst);
        })
        .unwrap();

        let end = child
            .wait()
            .unwrap_or_else(|e| panic!("wait failed at kill point {kill_point}: {e}"));
        assert_eq!(
            end,
            ChildExit::Signaled(libc::SIGKILL),
            "kill point {kill_point}: the gate must fire inside the enqueue"
        );
        assert_eq!(seg.scratch(6).load(Ordering::SeqCst), 0);

        // Reaped ⇒ authoritative death flag for the helpers' oracle.
        let slot = seg.scratch(7).load(Ordering::SeqCst);
        assert!(slot > 0, "child registered before arming");
        seg.mark_dead(slot as usize - 1);

        // Survivor: push enough values through to wrap the ring twice,
        // forcing every position (including the orphaned one) to be
        // reclaimed or consumed. One-in/one-out, so the ring never fills
        // even when the injected element is occupying a slot.
        let mut h = q.register();
        let mut out = Vec::new();
        for v in 1..=8u64 {
            enqueue_or_wedge(&q, &mut h, v);
            out.push(dequeue_or_wedge(&q, &mut h));
        }
        // Drain the remainder (the injected element, when it linearized).
        let mut guard = 0;
        while !q.is_empty() {
            out.push(dequeue_or_wedge(&q, &mut h));
            guard += 1;
            assert!(guard <= 4, "queue never drains to empty");
        }

        let injected = out.iter().filter(|&&v| v == INJECTED).count();
        let expected = usize::from(kill_point == 4);
        assert_eq!(
            injected, expected,
            "kill point {kill_point}: enqueue linearizes at W4 and nowhere \
             earlier (got {out:?})"
        );
        let mut rest: Vec<u64> = out.into_iter().filter(|&v| v != INJECTED).collect();
        rest.sort_unstable();
        assert_eq!(
            rest,
            (1..=8).collect::<Vec<_>>(),
            "survivor's elements conserved"
        );
    }
}

#[test]
fn sigkill_at_every_dequeue_access_never_wedges() {
    let _g = FORK_LOCK.lock().unwrap();
    for kill_point in 0..=4u64 {
        let q = ShmQueue::<u64>::create_anon(4).unwrap();
        let seg = q.segment().clone();

        // Pre-fill; the head element is the one the child will claim.
        let mut h = q.register();
        q.enqueue(&mut h, INJECTED).unwrap();
        q.enqueue(&mut h, 101).unwrap();
        q.enqueue(&mut h, 102).unwrap();

        let qc = q.clone();
        let child = fork_child(move || {
            let mut ch = qc.register();
            qc.segment()
                .scratch(7)
                .store(ch.proc_idx() as u64 + 1, Ordering::SeqCst);
            ch.arm_crash_after_writes(kill_point);
            let _ = qc.dequeue(&mut ch);
            // Reached only if the gate never fired — a test bug.
            qc.segment().scratch(6).store(1, Ordering::SeqCst);
        })
        .unwrap();

        let end = child
            .wait()
            .unwrap_or_else(|e| panic!("wait failed at kill point {kill_point}: {e}"));
        assert_eq!(
            end,
            ChildExit::Signaled(libc::SIGKILL),
            "kill point {kill_point}: the gate must fire inside the dequeue"
        );
        assert_eq!(seg.scratch(6).load(Ordering::SeqCst), 0);

        let slot = seg.scratch(7).load(Ordering::SeqCst);
        assert!(slot > 0, "child registered before arming");
        seg.mark_dead(slot as usize - 1);

        // Survivor: wrap the ring twice so every position — including the
        // one the dead consumer may have left CONSUMING — must be
        // reclaimed or recycled. One-in/one-out keeps headroom.
        let mut out = Vec::new();
        for v in 1..=8u64 {
            enqueue_or_wedge(&q, &mut h, v);
            out.push(dequeue_or_wedge(&q, &mut h));
        }
        let mut guard = 0;
        while !q.is_empty() {
            out.push(dequeue_or_wedge(&q, &mut h));
            guard += 1;
            assert!(guard <= 4, "queue never drains to empty");
        }

        let injected = out.iter().filter(|&&v| v == INJECTED).count();
        let expected = usize::from(kill_point == 0);
        assert_eq!(
            injected, expected,
            "kill point {kill_point}: dequeue linearizes at V1 claim and \
             nowhere later (got {out:?})"
        );
        let mut rest: Vec<u64> = out.into_iter().filter(|&v| v != INJECTED).collect();
        rest.sort_unstable();
        assert_eq!(
            rest,
            vec![1, 2, 3, 4, 5, 6, 7, 8, 101, 102],
            "survivor's elements conserved"
        );
    }
}

/// The eager-recovery acceptance test (DESIGN.md §13.3): a producer that
/// also holds a byte-ring endpoint is `SIGKILL`ed at every point in the
/// enqueue write sequence (W0–W4), and ONE `recover()` sweep per
/// structure must restore everything — the orphaned CLAIMED slot
/// reclaimed, the held byte-ring producer endpoint freed — such that the
/// surviving consumer never collides with the victim's leftovers again
/// (measured by the poison counters staying flat through a full wrap of
/// post-sweep traffic).
#[test]
fn one_recover_sweep_cleans_queue_and_endpoint_at_every_kill_point() {
    let _g = FORK_LOCK.lock().unwrap();
    for kill_point in 0..=4u64 {
        let q = ShmQueue::<u64>::create_anon(4).unwrap();
        let seg = q.segment().clone();
        let ring = ShmByteRing::create_anon(256, 32).unwrap();

        let qc = q.clone();
        let child_ring = ring.clone();
        let child = fork_child(move || {
            // Hold a byte-ring endpoint across the death: its Drop (the
            // claim release) must never run.
            let mut tx = child_ring.producer().expect("child claims producer");
            assert!(tx.push(b"held"));
            let mut h = qc.register();
            qc.segment()
                .scratch(7)
                .store(h.proc_idx() as u64 + 1, Ordering::SeqCst);
            h.arm_crash_after_writes(kill_point);
            let _ = qc.enqueue(&mut h, INJECTED);
            std::mem::forget(tx); // unreachable: the gate always fires
        })
        .unwrap();

        assert_eq!(
            child.wait().unwrap(),
            ChildExit::Signaled(libc::SIGKILL),
            "kill point {kill_point}: the gate must fire inside the enqueue"
        );
        let slot = seg.scratch(7).load(Ordering::SeqCst);
        assert!(slot > 0, "child registered before arming");
        seg.mark_dead(slot as usize - 1);

        // ONE sweep each. The queue sweep finds the orphaned CLAIMED slot
        // exactly when the child died inside the claim window (after W1,
        // W2 or W3); at W0 nothing was claimed and at W4 the element was
        // fully published. The ring sweep always frees the one endpoint
        // the child died holding (the pid is gone post-reap, so the
        // oracle confirms).
        let expect_reclaims = usize::from((1..=3).contains(&kill_point));
        assert_eq!(
            q.recover(),
            expect_reclaims,
            "kill point {kill_point}: queue sweep reclaims the orphan iff \
             the death landed inside the claim window"
        );
        assert_eq!(
            ring.recover(),
            1,
            "kill point {kill_point}: the held producer endpoint is freed"
        );
        assert_eq!(q.recover(), 0, "queue sweep is idempotent");
        assert_eq!(ring.recover(), 0, "ring sweep is idempotent");

        // Post-sweep traffic never meets the victim again: wrap the ring
        // twice with the poison counters frozen — any further dead-owner
        // collision would bump them.
        let q_poison = seg.poison_count();
        let ring_poison = ring.segment().poison_count();
        let mut h = q.register();
        let mut got = Vec::new();
        for v in 1..=8u64 {
            enqueue_or_wedge(&q, &mut h, v);
            got.push(dequeue_or_wedge(&q, &mut h));
        }
        while !q.is_empty() {
            got.push(dequeue_or_wedge(&q, &mut h));
        }
        let injected = got.iter().filter(|&&v| v == INJECTED).count();
        assert_eq!(
            injected,
            usize::from(kill_point == 4),
            "kill point {kill_point}: linearization at W4 unchanged by sweeps"
        );
        let mut tx = ring.producer().expect("endpoint claimable post-sweep");
        let mut rx = ring.consumer().unwrap();
        let mut out = Vec::new();
        assert!(rx.pop(&mut out), "pre-death message survives");
        assert_eq!(out, b"held");
        assert!(tx.push(b"successor"));
        assert_eq!(
            seg.poison_count(),
            q_poison,
            "kill point {kill_point}: no lazy reclaim left for the survivor"
        );
        assert_eq!(ring.segment().poison_count(), ring_poison);
    }
}

/// The cross-process observability acceptance test (DESIGN.md §14): the
/// per-process attempt/claim counters live in the *segment*, so a
/// `SIGKILL`ed producer's tallies outlive it and are reported by the
/// snapshot taken after the survivor's `recover()` sweep.
#[test]
fn sigkill_victims_counters_survive_and_report_post_recover() {
    let _g = FORK_LOCK.lock().unwrap();
    let q = ShmQueue::<u64>::create_anon(4).unwrap();
    let seg = q.segment().clone();

    let qc = q.clone();
    let child = fork_child(move || {
        let mut h = qc.register();
        qc.segment()
            .scratch(7)
            .store(h.proc_idx() as u64 + 1, Ordering::SeqCst);
        // Each enqueue passes 5 gates (entry + W1–W4); a budget of 12
        // completes two enqueues and dies after the third one's W2 —
        // inside the claim window, leaving an orphaned CLAIMED slot.
        h.arm_crash_after_writes(12);
        for v in 1..=3u64 {
            let _ = qc.enqueue(&mut h, v);
        }
    })
    .unwrap();

    assert_eq!(child.wait().unwrap(), ChildExit::Signaled(libc::SIGKILL));
    let slot = seg.scratch(7).load(Ordering::SeqCst);
    assert!(slot > 0, "child registered before arming");
    let victim = slot as usize - 1;
    seg.mark_dead(victim);

    assert_eq!(q.recover(), 1, "the third enqueue's orphan is reclaimed");

    // The post-recover snapshot reports the victim's full history even
    // though the process is gone: three attempts, three won claims (the
    // third claim was reclaimed, not un-counted), flagged dead.
    let snap = q.stats_snapshot();
    assert_eq!(snap.get(&format!("proc{victim}.attempts")), Some(3));
    assert_eq!(snap.get(&format!("proc{victim}.claims")), Some(3));
    assert_eq!(snap.get(&format!("proc{victim}.dead")), Some(1));
    assert_eq!(snap.get("poisoned"), Some(1));

    // Only the two linearized elements surface (the third died at W2,
    // before its W4 publish).
    let mut h = q.register();
    assert_eq!(dequeue_or_wedge(&q, &mut h), 1);
    assert_eq!(dequeue_or_wedge(&q, &mut h), 2);
    // The next dequeue helps `head` past the reclaimed position and
    // reports empty — the third value never linearized.
    assert_eq!(q.dequeue(&mut h), None);
    assert!(q.is_empty());
}

/// Mid-stream kill: a producer streaming values is killed at an arbitrary
/// (but deterministic per write count) point; a consumer process drains
/// to empty and the parent checks the consumed multiset is exactly the
/// set of *published* values — distinct, gap-free except possibly the
/// final in-flight op.
#[test]
fn sigkill_mid_stream_loses_at_most_the_in_flight_element() {
    let _g = FORK_LOCK.lock().unwrap();
    for writes_before_kill in [7u64, 12, 21] {
        let q = ShmQueue::<u64>::create_anon(4).unwrap();
        let seg = q.segment().clone();

        let qp = q.clone();
        let producer = fork_child(move || {
            let mut h = qp.register();
            qp.segment()
                .scratch(7)
                .store(h.proc_idx() as u64 + 1, Ordering::SeqCst);
            h.arm_crash_after_writes(writes_before_kill);
            for v in 1..=100u64 {
                while qp.enqueue(&mut h, v).is_err() {
                    // SAFETY: allocation-free yield in a forked child.
                    unsafe {
                        libc::sched_yield();
                    }
                }
            }
        })
        .unwrap();

        assert_eq!(
            producer.wait().unwrap(),
            ChildExit::Signaled(libc::SIGKILL),
            "producer runs out of its write budget mid-stream"
        );
        let slot = seg.scratch(7).load(Ordering::SeqCst);
        assert!(slot > 0);
        seg.mark_dead(slot as usize - 1);

        // Consumer drains after the death: it must reach a stable empty
        // state (reclaiming the orphan if any) without wedging.
        let qc = q.clone();
        let mut consumer = fork_child(move || {
            let mut h = qc.register();
            let seg = qc.segment();
            let mut empties = 0u32;
            while empties < 1_000 {
                match qc.dequeue(&mut h) {
                    Some(v) => {
                        empties = 0;
                        seg.scratch(0).fetch_add(v, Ordering::SeqCst);
                        seg.scratch(1).fetch_add(1, Ordering::SeqCst);
                        // Values arrive in FIFO order ⇒ strictly increasing.
                        let last = seg.scratch(2).load(Ordering::SeqCst);
                        if v <= last {
                            seg.scratch(3).store(1, Ordering::SeqCst); // order violation
                        }
                        seg.scratch(2).store(v, Ordering::SeqCst);
                    }
                    None => empties += 1,
                }
            }
        })
        .unwrap();
        let end = consumer
            .wait_deadline(Duration::from_secs(30))
            .unwrap()
            .expect("consumer wedged draining a crashed producer's queue");
        assert_eq!(end, ChildExit::Exited(0));

        let count = seg.scratch(1).load(Ordering::SeqCst);
        let sum = seg.scratch(0).load(Ordering::SeqCst);
        assert_eq!(seg.scratch(3).load(Ordering::SeqCst), 0, "FIFO order held");
        // Published values are a prefix 1..=count of the stream: FIFO +
        // a producer only advances after EnqOk. The killed op is the only
        // one allowed to vanish, and it is the (count+1)-th.
        assert!(count < 100, "producer died before finishing by design");
        assert_eq!(
            sum,
            count * (count + 1) / 2,
            "consumed exactly the published prefix (writes_before_kill = \
             {writes_before_kill}, count = {count})"
        );
        assert!(q.is_empty());
    }
}
