//! The single-writer witness for `ShmQueue`'s per-process counters
//! (DESIGN.md §14.3): a handle ticks its slot's `attempts` and `claims`
//! with a plain load and store, which is exact only while that handle is
//! the slot's one writer. Two handles race on one small queue — on two
//! threads, then in two forked processes — each counting its own
//! operations; afterwards every slot must hold exactly its handle's
//! counts, and no two live handles may share a slot.

use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Duration;

use bq_shm::{fork_child, ChildExit, ShmHandle, ShmQueue};

/// Forky tests share a binary with the std test harness's threads, so
/// they are serialized (see `bq_shm::harness` docs on fork discipline).
static FORK_LOCK: Mutex<()> = Mutex::new(());

/// Rounds per handle; each round is one enqueue and one dequeue attempt.
const ROUNDS: u64 = 20_000;

/// What one handle did, by its own count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tally {
    enqueued: u64,
    dequeued: u64,
}

/// `ROUNDS` rounds of (enqueue, dequeue) on a queue the other handle is
/// hammering too: full and empty answers included, so claims fall short
/// of attempts by an amount only this handle knows. Allocation-free, so
/// it can run in a forked child.
fn run(q: &ShmQueue<u64>, h: &mut ShmHandle, base: u64) -> Tally {
    let mut t = Tally {
        enqueued: 0,
        dequeued: 0,
    };
    for i in 0..ROUNDS {
        if q.enqueue(h, base + i).is_ok() {
            t.enqueued += 1;
        }
        if q.dequeue(h).is_some() {
            t.dequeued += 1;
        }
    }
    t
}

/// Every slot holds exactly its handle's counts, and the queue holds
/// what the two handles put in and did not take out.
fn check(q: &ShmQueue<u64>, handles: [(usize, Tally); 2]) {
    let snap = q.stats_snapshot();
    for (idx, t) in handles {
        assert_eq!(
            snap.get(&format!("proc{idx}.attempts")),
            Some(2 * ROUNDS),
            "slot {idx}: one attempt per call"
        );
        assert_eq!(
            snap.get(&format!("proc{idx}.claims")),
            Some(t.enqueued + t.dequeued),
            "slot {idx}: one claim per element moved"
        );
    }
    let (a, b) = (handles[0].1, handles[1].1);
    assert_eq!(
        (a.enqueued + b.enqueued) - (a.dequeued + b.dequeued),
        q.len() as u64,
        "conservation"
    );
    // No registration lands on a slot a live handle holds.
    assert_ne!(handles[0].0, handles[1].0, "two live handles share a slot");
    let late = q.register().proc_idx();
    assert!(handles.iter().all(|&(idx, _)| idx != late));
}

#[test]
fn two_threads_each_count_exactly_into_their_own_slot() {
    let _g = FORK_LOCK.lock().unwrap();
    let q = ShmQueue::<u64>::create_anon(4).unwrap();
    let workers: Vec<_> = (0..2u64)
        .map(|w| {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut h = q.register();
                let t = run(&q, &mut h, w << 32);
                (h.proc_idx(), t)
            })
        })
        .collect();
    let mut done = workers.into_iter().map(|w| w.join().unwrap());
    check(&q, [done.next().unwrap(), done.next().unwrap()]);
}

#[test]
fn two_processes_each_count_exactly_into_their_own_slot() {
    let _g = FORK_LOCK.lock().unwrap();
    let q = ShmQueue::<u64>::create_anon(4).unwrap();
    // Child `w` reports its slot + 1 and its two tallies in scratch words
    // 3w..3w + 3; the parent compares them with the segment's counters.
    let children: Vec<_> = (0..2usize)
        .map(|w| {
            let q = q.clone();
            fork_child(move || {
                let mut h = q.register();
                let t = run(&q, &mut h, (w as u64) << 32);
                let seg = q.segment();
                seg.scratch(3 * w)
                    .store(h.proc_idx() as u64 + 1, Ordering::SeqCst);
                seg.scratch(3 * w + 1).store(t.enqueued, Ordering::SeqCst);
                seg.scratch(3 * w + 2).store(t.dequeued, Ordering::SeqCst);
            })
            .unwrap()
        })
        .collect();
    for mut child in children {
        let end = child
            .wait_deadline(Duration::from_secs(60))
            .unwrap()
            .expect("child wedged");
        assert_eq!(end, ChildExit::Exited(0));
    }
    let seg = q.segment();
    let report = |w: usize| {
        let idx = seg.scratch(3 * w).load(Ordering::SeqCst);
        assert!(idx > 0, "child {w} reported its slot");
        let t = Tally {
            enqueued: seg.scratch(3 * w + 1).load(Ordering::SeqCst),
            dequeued: seg.scratch(3 * w + 2).load(Ordering::SeqCst),
        };
        (idx as usize - 1, t)
    };
    check(&q, [report(0), report(1)]);
}
