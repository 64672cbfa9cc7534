//! Fork-based **multi-process** workloads over the `bq-shm` backend —
//! the soak's cross-process pairs and crash rounds.
//!
//! These mirror [`crate::workload`] but place each worker in its own
//! forked *process*: the queue lives in an anonymous `MAP_SHARED`
//! segment, so the only coordination between workers is the shared
//! protocol itself. The times they return include fork and reap; the
//! benchmark's `shm_procs` workload and `shm.*` rungs price the protocol
//! (EXPERIMENTS.md E13).

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bq_shm::{fork_child, ChildExit, FaultPlan, ShmQueue};

use crate::workload::WorkloadResult;

fn yield_now() {
    // SAFETY: sched_yield has no preconditions, and it is allocation-free
    // (forked children of this threaded process must not allocate).
    unsafe {
        libc::sched_yield();
    }
}

/// Producer/consumer pairs across processes: `producers` forked processes
/// each enqueue `per` values, `consumers` forked processes drain them.
/// Wall-clock covers fork-to-reap; ops counts enqueues + dequeues.
///
/// Panics if any child wedges (deadline) or reports failure — this
/// doubles as the liveness check in the soak.
pub fn shm_fork_pairs_throughput(
    c: usize,
    producers: u64,
    consumers: u64,
    per: u64,
) -> WorkloadResult {
    assert!(producers > 0 && consumers > 0);
    assert!(
        (producers * per).is_multiple_of(consumers),
        "consumers must split the stream evenly"
    );
    let q = ShmQueue::<u64>::create_anon(c).expect("anonymous shm segment");

    let start = Instant::now();
    let mut children = Vec::new();
    for p in 0..producers {
        let q = q.clone();
        children.push(
            fork_child(move || {
                let mut h = q.register();
                for i in 0..per {
                    let v = 1 + p * per + i;
                    while q.enqueue(&mut h, v).is_err() {
                        yield_now();
                    }
                }
            })
            .expect("fork producer"),
        );
    }
    let quota = producers * per / consumers;
    for _ in 0..consumers {
        let q = q.clone();
        children.push(
            fork_child(move || {
                let mut h = q.register();
                let seg = q.segment();
                for _ in 0..quota {
                    let v = loop {
                        if let Some(v) = q.dequeue(&mut h) {
                            break v;
                        }
                        yield_now();
                    };
                    seg.scratch(0).fetch_add(v, Ordering::SeqCst);
                }
            })
            .expect("fork consumer"),
        );
    }
    for mut child in children {
        let end = child
            .wait_deadline(Duration::from_secs(120))
            .expect("waitpid")
            .expect("cross-process pairs wedged");
        assert_eq!(end, ChildExit::Exited(0), "child failed");
    }
    let secs = start.elapsed().as_secs_f64();

    let n = producers * per;
    assert_eq!(
        q.segment().scratch(0).load(Ordering::SeqCst),
        n * (n + 1) / 2,
        "element conservation across processes"
    );
    WorkloadResult { ops: 2 * n, secs }
}

/// One crash round: a producer process streaming values is `SIGKILL`ed
/// after `writes_before_kill` shared writes (landing it at an arbitrary
/// point inside some enqueue's write sequence); the parent flags it dead
/// and a consumer process must drain the queue to a stable empty state.
/// Returns the number of elements that were published before the kill.
///
/// Panics if the consumer wedges or conservation breaks — the queue must
/// have consumed exactly the contiguous published prefix of the stream.
pub fn shm_crash_round(writes_before_kill: u64) -> u64 {
    let q = ShmQueue::<u64>::create_anon(8).expect("anonymous shm segment");
    let seg = q.segment().clone();

    let qp = q.clone();
    let producer = fork_child(move || {
        let mut h = qp.register();
        qp.segment()
            .scratch(7)
            .store(h.proc_idx() as u64 + 1, Ordering::SeqCst);
        h.arm_crash_after_writes(writes_before_kill);
        for v in 1..=u64::MAX {
            while qp.enqueue(&mut h, v).is_err() {
                yield_now();
            }
        }
    })
    .expect("fork producer");

    assert_eq!(
        producer.wait().expect("waitpid"),
        ChildExit::Signaled(libc::SIGKILL),
        "the armed producer must die mid-stream"
    );
    let slot = seg.scratch(7).load(Ordering::SeqCst);
    assert!(slot > 0, "producer registered before arming");
    seg.mark_dead(slot as usize - 1);

    let qc = q.clone();
    let mut consumer = fork_child(move || {
        let mut h = qc.register();
        let seg = qc.segment();
        let mut empties = 0u32;
        while empties < 500 {
            match qc.dequeue(&mut h) {
                Some(v) => {
                    empties = 0;
                    seg.scratch(0).fetch_add(v, Ordering::SeqCst);
                    seg.scratch(1).fetch_add(1, Ordering::SeqCst);
                }
                None => empties += 1,
            }
        }
    })
    .expect("fork consumer");
    let end = consumer
        .wait_deadline(Duration::from_secs(60))
        .expect("waitpid")
        .expect("consumer wedged draining a crashed producer's queue");
    assert_eq!(end, ChildExit::Exited(0));

    let count = seg.scratch(1).load(Ordering::SeqCst);
    let sum = seg.scratch(0).load(Ordering::SeqCst);
    assert_eq!(
        sum,
        count * (count + 1) / 2,
        "published prefix must be contiguous (writes_before_kill = {writes_before_kill})"
    );
    assert!(q.is_empty(), "orphaned state must be reclaimed, not wedged");
    count
}

/// One **unified fault round** (DESIGN.md §13.4): the producer executes
/// an entire [`FaultPlan`] — forced refusals consumed at operation
/// entry, injected delays widening the crash windows, and (for plans
/// that kill) a `SIGKILL` landing mid-protocol. The parent then reaps,
/// flags the victim, runs **one** [`ShmQueue::recover`] sweep, and a
/// consumer process drains to stable empty; the contiguous-published-
/// prefix conservation check is the same as [`shm_crash_round`]'s.
/// Returns the number of elements published before the fault.
///
/// `plan.drop_wakes` is a *driver-side* fault with no meaning on the
/// spin-based shm protocol; the soak honors it separately through
/// [`crate::facade::timed_recv_dropped_wake_round`]. Panics on wedge or
/// conservation failure — the caller prints the plan's `plan:v1:`
/// artifact beforehand, so a red soak log replays exactly.
pub fn shm_fault_round(plan: &FaultPlan) -> u64 {
    shm_fault_round_with_stats(plan).0
}

/// [`shm_fault_round`] plus the segment's post-round cross-process
/// metrics snapshot (poison count, per-process attempt/claim/reclaim
/// tallies — DESIGN.md §14). The snapshot is taken *after* the recover
/// sweep and the drain, so it is the round's post-mortem: the dead
/// producer's counters are still in it.
pub fn shm_fault_round_with_stats(plan: &FaultPlan) -> (u64, bq_core::MetricsSnapshot) {
    // Short fault-free streams must fit the capacity: the consumer only
    // forks after the producer is reaped, so nothing drains concurrently.
    const CALM_STREAM: u64 = 6;
    let q = ShmQueue::<u64>::create_anon(8).expect("anonymous shm segment");
    let seg = q.segment().clone();

    let qp = q.clone();
    let plan_c = *plan;
    let producer = fork_child(move || {
        let mut h = qp.register();
        qp.segment()
            .scratch(7)
            .store(h.proc_idx() as u64 + 1, Ordering::SeqCst);
        h.apply_plan(&plan_c);
        let stream = if plan_c.kill_after.is_some() {
            u64::MAX // run until the armed kill fires
        } else {
            CALM_STREAM
        };
        for v in 1..=stream {
            while qp.enqueue(&mut h, v).is_err() {
                yield_now();
            }
        }
    })
    .expect("fork producer");

    let end = producer.wait().expect("waitpid");
    if plan.kill_after.is_some() {
        assert_eq!(
            end,
            ChildExit::Signaled(libc::SIGKILL),
            "an armed producer must die mid-stream"
        );
    } else {
        assert!(end.success(), "fault-free producer exits cleanly");
    }
    let slot = seg.scratch(7).load(Ordering::SeqCst);
    assert!(slot > 0, "producer registered before running its plan");
    seg.mark_dead(slot as usize - 1);

    // One sweep reclaims whatever the victim left claimed: at most its
    // single in-flight enqueue, and exactly nothing for a clean exit.
    let reclaimed = q.recover();
    assert!(
        reclaimed <= 1,
        "a single producer can orphan at most one claim, swept {reclaimed}"
    );
    if plan.kill_after.is_none() {
        assert_eq!(reclaimed, 0, "clean exit left an orphaned claim");
    }

    let qc = q.clone();
    let mut consumer = fork_child(move || {
        let mut h = qc.register();
        let seg = qc.segment();
        let mut empties = 0u32;
        while empties < 500 {
            match qc.dequeue(&mut h) {
                Some(v) => {
                    empties = 0;
                    seg.scratch(0).fetch_add(v, Ordering::SeqCst);
                    seg.scratch(1).fetch_add(1, Ordering::SeqCst);
                }
                None => empties += 1,
            }
        }
    })
    .expect("fork consumer");
    let end = consumer
        .wait_deadline(Duration::from_secs(60))
        .expect("waitpid")
        .expect("consumer wedged draining after the fault round");
    assert_eq!(end, ChildExit::Exited(0));

    let count = seg.scratch(1).load(Ordering::SeqCst);
    let sum = seg.scratch(0).load(Ordering::SeqCst);
    assert_eq!(
        sum,
        count * (count + 1) / 2,
        "published prefix must be contiguous (plan {plan})"
    );
    if plan.kill_after.is_none() {
        assert_eq!(count, CALM_STREAM, "refusals/delays must not drop values");
    }
    assert!(q.is_empty(), "faulted state must be reclaimed, not wedged");
    (count, q.stats_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    static FORK_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn fork_pairs_driver_conserves() {
        let _g = FORK_LOCK.lock().unwrap();
        let r = shm_fork_pairs_throughput(8, 2, 2, 100);
        assert_eq!(r.ops, 400);
    }

    #[test]
    fn crash_round_driver_reports_published_prefix() {
        let _g = FORK_LOCK.lock().unwrap();
        // 5 gate hits per uncontended enqueue (entry + W1..W4): dying
        // after 12 writes lands inside the 3rd enqueue, with 2 published.
        assert_eq!(shm_crash_round(12), 2);
    }

    #[test]
    fn fault_round_runs_calm_and_lethal_plans() {
        let _g = FORK_LOCK.lock().unwrap();
        // Calm plan: refusals and delays but no kill — nothing dropped.
        let calm = FaultPlan {
            refuse_first: 2,
            delay_period: 3,
            delay_micros: 5,
            ..FaultPlan::default()
        };
        assert_eq!(shm_fault_round(&calm), 6);
        // Lethal plan: same gate arithmetic as the crash-round test. The
        // post-round snapshot reports the reclaimed orphan and keeps the
        // dead producer's per-process tallies (3 attempts, 3 won claims).
        let lethal = FaultPlan {
            kill_after: Some(12),
            ..FaultPlan::default()
        };
        let (count, snap) = shm_fault_round_with_stats(&lethal);
        assert_eq!(count, 2);
        assert_eq!(snap.get("poisoned"), Some(1));
        assert_eq!(snap.get("proc0.attempts"), Some(3));
        assert_eq!(snap.get("proc0.claims"), Some(3));
        assert_eq!(snap.get("proc0.dead"), Some(1));
    }
}
