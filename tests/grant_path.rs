//! Property-based tests for the zero-copy grant data path (DESIGN.md
//! §12): arbitrary interleavings of classic move operations
//! (`enqueue`/`dequeue`) and batch operations (`enqueue_many`/
//! `dequeue_many`, which on the concurrent ring are compositions of
//! grants: one per contiguous run, so a batch splits at the wrap edge and
//! a batch dequeue steps over aborted slots) with reserve/commit write
//! grants — including aborted ones — and read grants, checked step by
//! step against a `VecDeque` oracle.
//!
//! The queue under test is `VyukovQueue` (the concurrent ring): a dropped
//! write grant *aborts* its slots (seq jumps a full round) and dequeues
//! skip them, so aborted slots transiently occupy capacity — the oracle
//! checks values and order exactly but treats `Full` as advisory.
//!
//! Every run ends with a full drain, so every sequence also proves
//! conservation: exactly the committed values come out, in FIFO order,
//! and aborted grants leak nothing.

use std::collections::VecDeque;

use membq::baselines::VyukovQueue;
use membq::core::ConcurrentQueue;
use proptest::prelude::*;

/// Smoke-sized case counts under `MEMBQ_SMOKE=1` (CI short path).
fn cases(full: u32) -> u32 {
    let smoke = std::env::var("MEMBQ_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if smoke {
        (full / 4).max(4)
    } else {
        full
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Classic move enqueue of one fresh token.
    Enq,
    /// Classic move dequeue.
    Deq,
    /// Reserve up to `ask` slots, fill and commit the first
    /// `min(commit, granted)` of them (the rest of the run aborts).
    Grant { ask: usize, commit: usize },
    /// Reserve up to `ask` slots and drop the grant without committing.
    GrantAbort { ask: usize },
    /// Read up to `ask` elements in place, then consume them.
    Read { ask: usize },
    /// Batch enqueue of `n` fresh tokens (a prefix is accepted).
    EnqMany { n: usize },
    /// Batch dequeue of up to `max` elements.
    DeqMany { max: usize },
}

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            Just(Op::Enq),
            Just(Op::Deq),
            (1usize..6, 0usize..6).prop_map(|(ask, commit)| Op::Grant { ask, commit }),
            (1usize..6).prop_map(|ask| Op::GrantAbort { ask }),
            (1usize..6).prop_map(|ask| Op::Read { ask }),
            (1usize..9).prop_map(|n| Op::EnqMany { n }),
            (1usize..9).prop_map(|max| Op::DeqMany { max }),
        ],
        1..150,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    /// `VyukovQueue`: moves, batches and grants interleaved. Aborted
    /// write grants burn their slots for one round (capacity is
    /// transiently reduced, so `Full` is advisory), but every value
    /// committed is delivered exactly once, in FIFO order, and dequeues
    /// skip aborted slots without losing anything.
    #[test]
    fn vyukov_grants_match_oracle(cap in 2usize..17, ops in op_strategy()) {
        let q = VyukovQueue::with_capacity(cap);
        let mut h = q.register();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 1u64;
        for op in &ops {
            match *op {
                Op::Enq => {
                    if q.enqueue(&mut h, next).is_ok() {
                        model.push_back(next);
                    }
                    next += 1;
                }
                Op::Deq => {
                    // None ⟹ genuinely empty: dequeues skip aborted
                    // slots, so a published value can't hide behind one.
                    prop_assert_eq!(q.dequeue(&mut h), model.pop_front());
                }
                Op::Grant { ask, commit } => {
                    if let Some(mut g) = q.try_reserve(ask) {
                        let run = g.len();
                        prop_assert!(run >= 1 && run <= ask);
                        let k = commit.min(run);
                        for i in 0..k {
                            g.uninit_slice()[i].write(next + i as u64);
                        }
                        g.commit(k); // publishes k, aborts run - k
                        for i in 0..k {
                            model.push_back(next + i as u64);
                        }
                        next += k as u64;
                    }
                }
                Op::GrantAbort { ask } => {
                    if let Some(g) = q.try_reserve(ask) {
                        drop(g); // aborts the whole run
                    }
                }
                Op::Read { ask } => match q.try_read(ask) {
                    Some(g) => {
                        let run = g.len();
                        prop_assert!(run >= 1 && run <= ask && run <= model.len());
                        for (i, v) in g.slice().iter().enumerate() {
                            prop_assert_eq!(*v, model[i]);
                        }
                        g.release(); // the read grant consumes its whole run
                        for _ in 0..run {
                            model.pop_front();
                        }
                    }
                    None => prop_assert!(ask == 0 || model.is_empty()),
                },
                Op::EnqMany { n } => {
                    // A prefix is accepted; how long is advisory, like
                    // `Full` (aborted slots hold capacity for a round).
                    let vals: Vec<u64> = (next..next + n as u64).collect();
                    let sent = q.enqueue_many(&mut h, &vals);
                    prop_assert!(sent <= n);
                    model.extend(&vals[..sent]);
                    next += n as u64;
                }
                Op::DeqMany { max } => {
                    // Exact: the batch stops early only when empty, so
                    // it crosses the wrap edge and every aborted slot.
                    let mut out = Vec::new();
                    let got = q.dequeue_many(&mut h, max, &mut out);
                    prop_assert_eq!(got, max.min(model.len()));
                    prop_assert_eq!(out, model.drain(..got).collect::<Vec<_>>());
                }
            }
        }
        // Conservation: exactly the committed values drain out, in order;
        // aborted grants left no tokens and no permanently wedged slots.
        while let Some(v) = q.dequeue(&mut h) {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    /// After any interleaving, a drained Vyukov ring is reusable at full
    /// capacity — aborted slots recycle after head passes them, they are
    /// not lost forever.
    #[test]
    fn vyukov_aborts_recycle_capacity(cap in 2usize..9, ops in op_strategy()) {
        let q = VyukovQueue::with_capacity(cap);
        let mut h = q.register();
        let mut next = 1u64;
        for op in &ops {
            match *op {
                Op::Enq => {
                    let _ = q.enqueue(&mut h, next);
                    next += 1;
                }
                Op::Deq => {
                    q.dequeue(&mut h);
                }
                Op::Grant { ask, commit } => {
                    if let Some(mut g) = q.try_reserve(ask) {
                        let k = commit.min(g.len());
                        for i in 0..k {
                            g.uninit_slice()[i].write(next + i as u64);
                        }
                        g.commit(k);
                        next += k as u64;
                    }
                }
                Op::GrantAbort { ask } => {
                    if let Some(g) = q.try_reserve(ask) {
                        drop(g);
                    }
                }
                Op::Read { ask } => {
                    if let Some(g) = q.try_read(ask) {
                        g.release();
                    }
                }
                Op::EnqMany { n } => {
                    let vals: Vec<u64> = (next..next + n as u64).collect();
                    q.enqueue_many(&mut h, &vals);
                    next += n as u64;
                }
                Op::DeqMany { max } => {
                    q.dequeue_many(&mut h, max, &mut Vec::new());
                }
            }
        }
        while q.dequeue(&mut h).is_some() {}
        // Full capacity is available again.
        for i in 0..cap as u64 {
            prop_assert!(q.enqueue(&mut h, 1000 + i).is_ok(), "slot {} of {}", i, cap);
        }
        prop_assert!(q.enqueue(&mut h, 9999).is_err());
        for i in 0..cap as u64 {
            prop_assert_eq!(q.dequeue(&mut h), Some(1000 + i));
        }
    }
}
