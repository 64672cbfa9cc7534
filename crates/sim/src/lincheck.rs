//! A linearizability checker specialized to the bounded-queue
//! specification (Wing & Gong style exhaustive search with memoization).
//!
//! Given a concurrent history of `enqueue`/`dequeue` invocations and
//! responses, the checker searches for a total order that (1) respects the
//! real-time precedence of the history and (2) replays correctly against
//! the sequential bounded queue of Figure 1. Incomplete operations may be
//! assigned an effect or dropped, per the standard completion semantics
//! (§3.2 of the paper: "all complete operations … and a subset of
//! incomplete ones").
//!
//! Histories produced by the adversary experiments are small (tens of
//! operations), for which the exponential search with memoization is
//! instantaneous.

use std::collections::HashSet;
use std::collections::VecDeque;

/// A queue operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `enqueue(value)`.
    Enqueue(u64),
    /// `dequeue()`.
    Dequeue,
}

/// An operation's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ret {
    /// `enqueue` succeeded (`true` in the paper).
    EnqOk,
    /// `enqueue` observed a full queue (`false`).
    EnqFull,
    /// `dequeue` returned an element.
    DeqVal(u64),
    /// `dequeue` observed an empty queue (`⊥`).
    DeqEmpty,
}

/// Identifier of an invoked operation within a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(pub usize);

/// One history event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryEvent {
    /// Operation invocation.
    Invoke {
        /// Operation id.
        id: OpId,
        /// Invoking thread.
        tid: usize,
        /// The operation.
        op: Op,
    },
    /// Operation response.
    Return {
        /// Operation id.
        id: OpId,
        /// The result.
        ret: Ret,
    },
}

/// A recorded concurrent history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    events: Vec<HistoryEvent>,
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        History { events: Vec::new() }
    }

    /// Append an event.
    pub fn push(&mut self, e: HistoryEvent) {
        self.events.push(e);
    }

    /// The raw event sequence.
    pub fn events(&self) -> &[HistoryEvent] {
        &self.events
    }

    /// Render the history in the paper's `enq(v) / deq → v` notation, one
    /// event per line, for experiment reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            match e {
                HistoryEvent::Invoke { id, tid, op } => {
                    let desc = match op {
                        Op::Enqueue(v) => format!("enq({v})"),
                        Op::Dequeue => "deq()".to_string(),
                    };
                    out.push_str(&format!("[T{tid}] invoke #{} {desc}\n", id.0));
                }
                HistoryEvent::Return { id, ret } => {
                    let desc = match ret {
                        Ret::EnqOk => "→ true".to_string(),
                        Ret::EnqFull => "→ false (full)".to_string(),
                        Ret::DeqVal(v) => format!("→ {v}"),
                        Ret::DeqEmpty => "→ ⊥ (empty)".to_string(),
                    };
                    out.push_str(&format!("       return #{} {desc}\n", id.0));
                }
            }
        }
        out
    }
}

/// Internal per-operation record.
#[derive(Debug, Clone, Copy)]
struct OpRec {
    op: Op,
    ret: Option<Ret>,
    invoke_pos: usize,
    return_pos: Option<usize>,
}

/// Outcome of a linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinResult {
    /// A witness linearization order (op ids in linearized sequence).
    Linearizable(Vec<OpId>),
    /// No valid linearization exists.
    NotLinearizable,
}

impl LinResult {
    /// `true` iff linearizable.
    pub fn is_linearizable(&self) -> bool {
        matches!(self, LinResult::Linearizable(_))
    }
}

/// Check a history against the bounded-queue specification with the given
/// capacity.
///
/// # Panics
/// If the history contains more than 63 operations (the search uses a
/// 64-bit chosen-set mask) or malformed invoke/return pairing.
pub fn check_history(history: &History, capacity: usize) -> LinResult {
    let ops = collect_ops(history);
    assert!(ops.len() <= 63, "history too large for the checker");

    let mut searcher = Searcher {
        ops: &ops,
        capacity,
        visited: HashSet::new(),
        order: Vec::new(),
    };
    let complete_mask: u64 = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.ret.is_some())
        .fold(0, |m, (i, _)| m | (1 << i));
    if searcher.dfs(0, &mut VecDeque::new(), complete_mask) {
        LinResult::Linearizable(searcher.order)
    } else {
        LinResult::NotLinearizable
    }
}

fn collect_ops(history: &History) -> Vec<OpRec> {
    let mut ops: Vec<OpRec> = Vec::new();
    let mut index_of_id: Vec<Option<usize>> = Vec::new();
    for (pos, e) in history.events().iter().enumerate() {
        match *e {
            HistoryEvent::Invoke { id, op, .. } => {
                if index_of_id.len() <= id.0 {
                    index_of_id.resize(id.0 + 1, None);
                }
                assert!(index_of_id[id.0].is_none(), "duplicate invoke for {id:?}");
                index_of_id[id.0] = Some(ops.len());
                ops.push(OpRec {
                    op,
                    ret: None,
                    invoke_pos: pos,
                    return_pos: None,
                });
            }
            HistoryEvent::Return { id, ret } => {
                let idx = index_of_id
                    .get(id.0)
                    .copied()
                    .flatten()
                    .expect("return without invoke");
                assert!(ops[idx].ret.is_none(), "duplicate return for {id:?}");
                ops[idx].ret = Some(ret);
                ops[idx].return_pos = Some(pos);
            }
        }
    }
    ops
}

struct Searcher<'a> {
    ops: &'a [OpRec],
    capacity: usize,
    visited: HashSet<(u64, Vec<u64>)>,
    order: Vec<OpId>,
}

impl Searcher<'_> {
    /// DFS over linearization prefixes. `chosen` is the set of already
    /// linearized ops; `queue` the model state; `needed` the ops that must
    /// eventually be chosen (all complete ones).
    fn dfs(&mut self, chosen: u64, queue: &mut VecDeque<u64>, needed: u64) -> bool {
        if chosen & needed == needed {
            return true;
        }
        let key = (chosen, queue.iter().copied().collect::<Vec<_>>());
        if !self.visited.insert(key) {
            return false;
        }
        for (i, rec) in self.ops.iter().enumerate() {
            let bit = 1u64 << i;
            if chosen & bit != 0 {
                continue;
            }
            // Real-time order: `i` may linearize now only if no *unchosen*
            // op returned before `i` was invoked.
            let blocked = self.ops.iter().enumerate().any(|(j, other)| {
                chosen & (1 << j) == 0
                    && j != i
                    && matches!(other.return_pos, Some(rp) if rp < rec.invoke_pos)
            });
            if blocked {
                continue;
            }
            // Pending ops may also simply be dropped — modelled by never
            // choosing them (they are not in `needed`).
            let applied = self.apply(rec, queue);
            match applied {
                Apply::Ok(undo) => {
                    self.order.push(OpId(usize::MAX)); // placeholder, fixed below
                    *self.order.last_mut().unwrap() = self.op_id_of(i);
                    if self.dfs(chosen | bit, queue, needed) {
                        return true;
                    }
                    self.order.pop();
                    self.undo(undo, queue);
                }
                Apply::Mismatch => {}
            }
        }
        false
    }

    fn op_id_of(&self, index: usize) -> OpId {
        // Op ids are assigned in invocation order, identical to `ops` order.
        OpId(index)
    }

    fn apply(&self, rec: &OpRec, queue: &mut VecDeque<u64>) -> Apply {
        match (rec.op, rec.ret) {
            (Op::Enqueue(v), Some(Ret::EnqOk)) => {
                if queue.len() < self.capacity {
                    queue.push_back(v);
                    Apply::Ok(Undo::PopBack)
                } else {
                    Apply::Mismatch
                }
            }
            (Op::Enqueue(_), Some(Ret::EnqFull)) => {
                if queue.len() == self.capacity {
                    Apply::Ok(Undo::None)
                } else {
                    Apply::Mismatch
                }
            }
            (Op::Enqueue(v), None) => {
                // Pending enqueue given an effect: only meaningful if it
                // fits (a pending full-return has no effect and is covered
                // by dropping the op).
                if queue.len() < self.capacity {
                    queue.push_back(v);
                    Apply::Ok(Undo::PopBack)
                } else {
                    Apply::Mismatch
                }
            }
            (Op::Dequeue, Some(Ret::DeqVal(v))) => {
                if queue.front() == Some(&v) {
                    queue.pop_front();
                    Apply::Ok(Undo::PushFront(v))
                } else {
                    Apply::Mismatch
                }
            }
            (Op::Dequeue, Some(Ret::DeqEmpty)) => {
                if queue.is_empty() {
                    Apply::Ok(Undo::None)
                } else {
                    Apply::Mismatch
                }
            }
            (Op::Dequeue, None) => {
                // Pending dequeue given an effect: removes the head (its
                // unseen return can be anything).
                match queue.pop_front() {
                    Some(v) => Apply::Ok(Undo::PushFront(v)),
                    None => Apply::Ok(Undo::None),
                }
            }
            (Op::Enqueue(_), Some(Ret::DeqVal(_) | Ret::DeqEmpty))
            | (Op::Dequeue, Some(Ret::EnqOk | Ret::EnqFull)) => {
                panic!("malformed history: mismatched op/return kinds")
            }
        }
    }

    fn undo(&self, undo: Undo, queue: &mut VecDeque<u64>) {
        match undo {
            Undo::None => {}
            Undo::PopBack => {
                queue.pop_back();
            }
            Undo::PushFront(v) => queue.push_front(v),
        }
    }
}

enum Apply {
    Ok(Undo),
    Mismatch,
}

enum Undo {
    None,
    PopBack,
    PushFront(u64),
}

// ---------------------------------------------------------------------------
// Pool (multiset) specification — the scale layer's relaxation
// ---------------------------------------------------------------------------

/// Check a history against the **pool** (multiset) specification with the
/// given capacity — the contract `ShardedQueue` actually provides
/// (DESIGN.md §8).
///
/// Differences from the strict bounded-queue check:
///
/// * `dequeue` may return **any** element currently in the pool (FIFO
///   order is not enforced — sharding relaxes global FIFO to per-shard
///   FIFO, and per-shard order is not reconstructible from a value
///   history);
/// * `enq → full` and `deq → ⊥` are always admissible: the shard scan is
///   not atomic, so refusals are best-effort under concurrency (the same
///   relaxation the paper notes for Θ(C) industrial rings);
/// * everything else is still enforced — a dequeued value must have an
///   earlier-or-overlapping enqueue (no fabrication), each enqueue's
///   value is consumed at most once (no duplication), a successful
///   enqueue requires pool size < capacity, and real-time precedence is
///   respected.
///
/// # Panics
/// As [`check_history`]: > 63 operations or malformed pairing.
pub fn check_history_pool(history: &History, capacity: usize) -> LinResult {
    let ops = collect_ops(history);
    assert!(ops.len() <= 63, "history too large for the checker");

    let mut searcher = PoolSearcher {
        ops: &ops,
        capacity,
        visited: HashSet::new(),
        order: Vec::new(),
    };
    let complete_mask: u64 = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.ret.is_some())
        .fold(0, |m, (i, _)| m | (1 << i));
    let mut pool = Vec::new();
    if searcher.dfs(0, &mut pool, complete_mask) {
        LinResult::Linearizable(searcher.order)
    } else {
        LinResult::NotLinearizable
    }
}

struct PoolSearcher<'a> {
    ops: &'a [OpRec],
    capacity: usize,
    /// Memo key: (chosen mask, sorted pool contents).
    visited: HashSet<(u64, Vec<u64>)>,
    order: Vec<OpId>,
}

impl PoolSearcher<'_> {
    /// DFS over linearization prefixes; `pool` is kept sorted so the memo
    /// key is canonical.
    fn dfs(&mut self, chosen: u64, pool: &mut Vec<u64>, needed: u64) -> bool {
        if chosen & needed == needed {
            return true;
        }
        if !self.visited.insert((chosen, pool.clone())) {
            return false;
        }
        for (i, rec) in self.ops.iter().enumerate() {
            let bit = 1u64 << i;
            if chosen & bit != 0 {
                continue;
            }
            let blocked = self.ops.iter().enumerate().any(|(j, other)| {
                chosen & (1 << j) == 0
                    && j != i
                    && matches!(other.return_pos, Some(rp) if rp < rec.invoke_pos)
            });
            if blocked {
                continue;
            }
            for effect in self.effects(rec, pool) {
                match effect {
                    PoolEffect::Insert(v) => {
                        let pos = pool.partition_point(|&x| x <= v);
                        pool.insert(pos, v);
                        self.order.push(OpId(i));
                        if self.dfs(chosen | bit, pool, needed) {
                            return true;
                        }
                        self.order.pop();
                        pool.remove(pos);
                    }
                    PoolEffect::Remove(v) => {
                        let pos = pool.partition_point(|&x| x < v);
                        debug_assert_eq!(pool.get(pos), Some(&v));
                        pool.remove(pos);
                        self.order.push(OpId(i));
                        if self.dfs(chosen | bit, pool, needed) {
                            return true;
                        }
                        self.order.pop();
                        pool.insert(pos, v);
                    }
                    PoolEffect::NoOp => {
                        self.order.push(OpId(i));
                        if self.dfs(chosen | bit, pool, needed) {
                            return true;
                        }
                        self.order.pop();
                    }
                }
            }
        }
        false
    }

    /// Admissible effects for linearizing `rec` in the current pool state.
    fn effects(&self, rec: &OpRec, pool: &[u64]) -> Vec<PoolEffect> {
        match (rec.op, rec.ret) {
            (Op::Enqueue(v), Some(Ret::EnqOk)) => {
                if pool.len() < self.capacity {
                    vec![PoolEffect::Insert(v)]
                } else {
                    vec![]
                }
            }
            // Best-effort refusal: always admissible (see fn docs).
            (Op::Enqueue(_), Some(Ret::EnqFull)) => vec![PoolEffect::NoOp],
            (Op::Enqueue(v), None) => {
                if pool.len() < self.capacity {
                    vec![PoolEffect::Insert(v)]
                } else {
                    vec![]
                }
            }
            (Op::Dequeue, Some(Ret::DeqVal(v))) => {
                if pool.contains(&v) {
                    vec![PoolEffect::Remove(v)]
                } else {
                    vec![]
                }
            }
            (Op::Dequeue, Some(Ret::DeqEmpty)) => vec![PoolEffect::NoOp],
            (Op::Dequeue, None) => {
                // A pending dequeue may take any element (its unseen return
                // could be anything) or — when the pool is empty — land on
                // the ⊥ result.
                let mut effects: Vec<PoolEffect> = Vec::new();
                let mut last = None;
                for &v in pool {
                    if last != Some(v) {
                        effects.push(PoolEffect::Remove(v));
                        last = Some(v);
                    }
                }
                effects.push(PoolEffect::NoOp);
                effects
            }
            (Op::Enqueue(_), Some(Ret::DeqVal(_) | Ret::DeqEmpty))
            | (Op::Dequeue, Some(Ret::EnqOk | Ret::EnqFull)) => {
                panic!("malformed history: mismatched op/return kinds")
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum PoolEffect {
    Insert(u64),
    Remove(u64),
    NoOp,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(h: &mut History, id: usize, tid: usize, op: Op) {
        h.push(HistoryEvent::Invoke {
            id: OpId(id),
            tid,
            op,
        });
    }
    fn ret(h: &mut History, id: usize, r: Ret) {
        h.push(HistoryEvent::Return {
            id: OpId(id),
            ret: r,
        });
    }

    #[test]
    fn sequential_history_linearizable() {
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Dequeue);
        ret(&mut h, 1, Ret::DeqVal(1));
        assert!(check_history(&h, 4).is_linearizable());
    }

    #[test]
    fn wrong_fifo_order_rejected() {
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Enqueue(2));
        ret(&mut h, 1, Ret::EnqOk);
        inv(&mut h, 2, 0, Op::Dequeue);
        ret(&mut h, 2, Ret::DeqVal(2)); // LIFO!
        assert_eq!(check_history(&h, 4), LinResult::NotLinearizable);
    }

    #[test]
    fn concurrent_ops_may_reorder() {
        // Two overlapping enqueues, then dequeues can see either order.
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        inv(&mut h, 1, 1, Op::Enqueue(2));
        ret(&mut h, 0, Ret::EnqOk);
        ret(&mut h, 1, Ret::EnqOk);
        inv(&mut h, 2, 0, Op::Dequeue);
        ret(&mut h, 2, Ret::DeqVal(2));
        inv(&mut h, 3, 0, Op::Dequeue);
        ret(&mut h, 3, Ret::DeqVal(1));
        assert!(check_history(&h, 4).is_linearizable());
    }

    #[test]
    fn real_time_order_enforced() {
        // enq(1) completes before enq(2) starts; dequeue must not see 2
        // first.
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 1, Op::Enqueue(2));
        ret(&mut h, 1, Ret::EnqOk);
        inv(&mut h, 2, 0, Op::Dequeue);
        ret(&mut h, 2, Ret::DeqVal(2));
        inv(&mut h, 3, 0, Op::Dequeue);
        ret(&mut h, 3, Ret::DeqVal(1));
        assert_eq!(check_history(&h, 4), LinResult::NotLinearizable);
    }

    #[test]
    fn full_return_requires_full_queue() {
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Enqueue(2));
        ret(&mut h, 1, Ret::EnqFull); // capacity 2, queue has 1 → invalid
        assert_eq!(check_history(&h, 2), LinResult::NotLinearizable);

        let mut h2 = History::new();
        inv(&mut h2, 0, 0, Op::Enqueue(1));
        ret(&mut h2, 0, Ret::EnqOk);
        inv(&mut h2, 1, 0, Op::Enqueue(2));
        ret(&mut h2, 1, Ret::EnqOk);
        inv(&mut h2, 2, 0, Op::Enqueue(3));
        ret(&mut h2, 2, Ret::EnqFull); // now legal
        assert!(check_history(&h2, 2).is_linearizable());
    }

    #[test]
    fn empty_return_requires_empty_queue() {
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Dequeue);
        ret(&mut h, 1, Ret::DeqEmpty);
        assert_eq!(check_history(&h, 4), LinResult::NotLinearizable);
    }

    #[test]
    fn pending_enqueue_can_justify_dequeue() {
        // An incomplete enqueue may take effect: deq → 5 is linearizable
        // if enq(5) is pending.
        let mut h = History::new();
        inv(&mut h, 0, 1, Op::Enqueue(5)); // never returns
        inv(&mut h, 1, 0, Op::Dequeue);
        ret(&mut h, 1, Ret::DeqVal(5));
        assert!(check_history(&h, 4).is_linearizable());
    }

    #[test]
    fn pending_enqueue_can_be_dropped() {
        // An incomplete enqueue may also be ignored: deq → ⊥ stays legal.
        let mut h = History::new();
        inv(&mut h, 0, 1, Op::Enqueue(5)); // never returns
        inv(&mut h, 1, 0, Op::Dequeue);
        ret(&mut h, 1, Ret::DeqEmpty);
        assert!(check_history(&h, 4).is_linearizable());
    }

    #[test]
    fn dequeued_value_needs_a_source() {
        // deq → 9 with no enq(9) anywhere is impossible.
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Dequeue);
        ret(&mut h, 1, Ret::DeqVal(9));
        assert_eq!(check_history(&h, 4), LinResult::NotLinearizable);
    }

    #[test]
    fn failed_enqueue_provides_no_value() {
        // enq(7) → false cannot be the source of deq → 7 (paper: a failed
        // enqueue has no effect).
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Enqueue(7));
        ret(&mut h, 1, Ret::EnqFull);
        inv(&mut h, 2, 0, Op::Dequeue);
        ret(&mut h, 2, Ret::DeqVal(7));
        assert_eq!(check_history(&h, 1), LinResult::NotLinearizable);
    }

    #[test]
    fn render_uses_paper_notation() {
        let mut h = History::new();
        inv(&mut h, 0, 2, Op::Enqueue(7));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Dequeue);
        ret(&mut h, 1, Ret::DeqVal(7));
        let s = h.render();
        assert!(s.contains("enq(7)"));
        assert!(s.contains("deq()"));
        assert!(s.contains("[T2]"));
    }

    #[test]
    fn pool_spec_accepts_non_fifo_order() {
        // The exact history the strict checker rejects in
        // `real_time_order_enforced`: sequential enqueues observed out of
        // order. A sharded queue may legally produce it.
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 1, Op::Enqueue(2));
        ret(&mut h, 1, Ret::EnqOk);
        inv(&mut h, 2, 0, Op::Dequeue);
        ret(&mut h, 2, Ret::DeqVal(2));
        inv(&mut h, 3, 0, Op::Dequeue);
        ret(&mut h, 3, Ret::DeqVal(1));
        assert_eq!(check_history(&h, 4), LinResult::NotLinearizable);
        assert!(check_history_pool(&h, 4).is_linearizable());
    }

    #[test]
    fn pool_spec_still_rejects_fabrication() {
        // No pool relaxation invents values: deq → 9 with no enq(9).
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Dequeue);
        ret(&mut h, 1, Ret::DeqVal(9));
        assert_eq!(check_history_pool(&h, 4), LinResult::NotLinearizable);
    }

    #[test]
    fn pool_spec_still_rejects_duplication() {
        // One enqueue, two dequeues of the same value.
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(7));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Dequeue);
        ret(&mut h, 1, Ret::DeqVal(7));
        inv(&mut h, 2, 0, Op::Dequeue);
        ret(&mut h, 2, Ret::DeqVal(7));
        assert_eq!(check_history_pool(&h, 4), LinResult::NotLinearizable);
    }

    #[test]
    fn pool_spec_still_rejects_causality_violation() {
        // A dequeue that completed before the enqueue was invoked cannot
        // return its value (real-time precedence survives the relaxation).
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Dequeue);
        ret(&mut h, 0, Ret::DeqVal(5));
        inv(&mut h, 1, 1, Op::Enqueue(5));
        ret(&mut h, 1, Ret::EnqOk);
        assert_eq!(check_history_pool(&h, 4), LinResult::NotLinearizable);
    }

    #[test]
    fn pool_spec_enforces_capacity_on_success() {
        // Two successful enqueues into capacity 1 with no dequeue between.
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Enqueue(2));
        ret(&mut h, 1, Ret::EnqOk);
        assert_eq!(check_history_pool(&h, 1), LinResult::NotLinearizable);
    }

    #[test]
    fn pool_spec_admits_spurious_refusals() {
        // Sharded scans make full/empty best-effort: both refusals are
        // admissible even when the pool is neither full nor empty.
        let mut h = History::new();
        inv(&mut h, 0, 0, Op::Enqueue(1));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Enqueue(2));
        ret(&mut h, 1, Ret::EnqFull); // size 1 of 4 — spurious, allowed
        inv(&mut h, 2, 0, Op::Dequeue);
        ret(&mut h, 2, Ret::DeqEmpty); // pool non-empty — spurious, allowed
        inv(&mut h, 3, 0, Op::Dequeue);
        ret(&mut h, 3, Ret::DeqVal(1));
        assert!(check_history_pool(&h, 4).is_linearizable());
        // The strict queue spec rejects the same history.
        assert_eq!(check_history(&h, 4), LinResult::NotLinearizable);
    }

    #[test]
    fn pool_spec_pending_ops_complete_or_drop() {
        // A pending enqueue may justify a dequeue...
        let mut h = History::new();
        inv(&mut h, 0, 1, Op::Enqueue(5)); // never returns
        inv(&mut h, 1, 0, Op::Dequeue);
        ret(&mut h, 1, Ret::DeqVal(5));
        assert!(check_history_pool(&h, 4).is_linearizable());
        // ...and a pending dequeue may absorb an element so a later exact
        // count still works out.
        let mut h2 = History::new();
        inv(&mut h2, 0, 0, Op::Enqueue(1));
        ret(&mut h2, 0, Ret::EnqOk);
        inv(&mut h2, 1, 1, Op::Dequeue); // never returns
        inv(&mut h2, 2, 0, Op::Enqueue(2));
        ret(&mut h2, 2, Ret::EnqOk);
        inv(&mut h2, 3, 0, Op::Dequeue);
        ret(&mut h2, 3, Ret::DeqVal(2));
        inv(&mut h2, 4, 0, Op::Dequeue);
        ret(&mut h2, 4, Ret::DeqEmpty);
        assert!(check_history_pool(&h2, 4).is_linearizable());
    }

    #[test]
    fn the_papers_figure3_history_is_not_linearizable() {
        // The shape of the paper's Figure 3 violation, abstracted:
        // enqueue x_i mid-queue is replaced by y; dequeues observe
        // v1, y, v3 while enq(y) completed... modelled as the middle-steal
        // history from experiment E8 (capacity 4).
        let mut h = History::new();
        // main fills with 11,12,13,7; a poised dequeue steals the 7 from
        // the middle and returns before the drain starts.
        inv(&mut h, 0, 0, Op::Enqueue(11));
        ret(&mut h, 0, Ret::EnqOk);
        inv(&mut h, 1, 0, Op::Enqueue(12));
        ret(&mut h, 1, Ret::EnqOk);
        inv(&mut h, 2, 0, Op::Enqueue(13));
        ret(&mut h, 2, Ret::EnqOk);
        inv(&mut h, 3, 0, Op::Enqueue(7));
        ret(&mut h, 3, Ret::EnqOk);
        inv(&mut h, 4, 1, Op::Dequeue);
        ret(&mut h, 4, Ret::DeqVal(7)); // steals from the middle
        inv(&mut h, 5, 0, Op::Dequeue);
        ret(&mut h, 5, Ret::DeqVal(11));
        assert_eq!(check_history(&h, 4), LinResult::NotLinearizable);
    }
}
