//! The **counter-queue family**: the paper's Listings 2 and 4, the §3
//! strawman and the §4 two-null model are *one* algorithm — the Figure 1
//! ring (`C` value-locations, two positioning counters) driven by one loop
//! pair: snapshot the counters, validate, update the slot, help the
//! counter. The paper changes one line between them: how the slot update
//! is protected against a stale (poised) thread. [`CounterQueue`] is the
//! loop pair, written once; a [`SlotRule`] is that line.
//!
//! | Rule | Queue | Empty slot of round `r` | Slot update |
//! |------|-------|-------------------------|-------------|
//! | [`Unversioned`](crate::naive::Unversioned) | [`NaiveQueue`](crate::NaiveQueue), §3 strawman | `⊥` | CAS |
//! | [`VersionedNull`](crate::distinct::VersionedNull) | [`DistinctQueue`](crate::DistinctQueue), Listing 2 | `⊥_r` | CAS |
//! | `TwoNulls` (`bq-baselines`) | `TwoNullQueue`, Tsigas–Zhang model | `⊥_{r mod 2}` | CAS |
//! | [`CounterGuarded`](crate::dcss_queue::CounterGuarded) | [`DcssQueue`](crate::DcssQueue), Listing 4 | `⊥` | DCSS guarded by the counter |
//!
//! Listing 3 ([`LlScQueue`](crate::LlScQueue)) is deliberately not a rule;
//! DESIGN.md §2 records why. Slots and counters are [`SimAtomicU64`]s, so
//! the schedule explorer (DESIGN.md §11) runs E4/E8's adversary against
//! exactly this code.
//!
//! Positions are 64-bit and compared mod 2⁶⁴. They run through 2⁶⁴ when
//! `C` is a power of two, which divides 2⁶⁴ and so keeps the position →
//! slot map and the rounds continuous; any other capacity is bounded at
//! `2⁶⁴ − C` positions, a `debug_assert!` (DESIGN.md §2).

use std::sync::atomic::Ordering::SeqCst;

use crate::queue::{ConcurrentQueue, Full};
use crate::simx::SimAtomicU64;
use crate::token::{is_token, MAX_TOKEN};
use bq_memtrack::{FootprintBreakdown, MemoryFootprint, OverheadClass};

/// What distinguishes one counter queue from another: the word an empty
/// slot holds, and how a slot update is protected.
pub trait SlotRule: Send + Sync {
    /// Per-thread state the protected update needs (a unit struct for the
    /// CAS rules, the descriptor-pool thread id for DCSS).
    type Handle: Send;

    /// Obtain a handle for the calling thread.
    fn register(&self) -> Self::Handle;

    /// The word an empty slot of round `round` holds. Enqueue position `t`
    /// expects `vacant(t / C)`; dequeue position `h` leaves
    /// `vacant((h + C) / C)` behind, `h + C` taken mod 2⁶⁴ — the round of
    /// the slot's next enqueue. Never a token.
    fn vacant(round: u64) -> u64;

    /// Read a slot. Always returns a token or a vacant word.
    #[inline]
    fn read(&self, slot: &SimAtomicU64) -> u64 {
        slot.load(SeqCst)
    }

    /// Replace `from` by `to` in `slot` on behalf of position `pos` of
    /// `counter`; `true` iff the update took effect. The default is the
    /// plain CAS whose ABA window the paper's lower bound is about.
    #[inline]
    fn update(
        &self,
        _h: &mut Self::Handle,
        slot: &SimAtomicU64,
        from: u64,
        to: u64,
        _counter: &SimAtomicU64,
        _pos: u64,
    ) -> bool {
        slot.compare_exchange(from, to, SeqCst, SeqCst).is_ok()
    }

    /// Add the rows for memory the rule itself owns to `base` (the
    /// element row); the queue appends the two counters.
    fn footprint(&self, base: FootprintBreakdown) -> FootprintBreakdown {
        base
    }
}

/// A bounded queue over `C` slots and two positioning counters whose slot
/// updates are protected by `R` (module docs list the instances). Tokens
/// are non-zero 63-bit words: the top bit belongs to the rule.
pub struct CounterQueue<R: SlotRule> {
    slots: Box<[SimAtomicU64]>,
    /// Total enqueue positions claimed (the paper's `tail`).
    tail: SimAtomicU64,
    /// Total dequeue positions claimed (the paper's `head`).
    head: SimAtomicU64,
    pub(crate) rule: R,
}

impl<R: SlotRule> CounterQueue<R> {
    /// Create a queue of capacity `c > 0` under `rule`. Every slot starts
    /// at `vacant(0)`.
    pub fn with_rule(c: usize, rule: R) -> Self {
        assert!(c > 0, "capacity must be positive");
        CounterQueue {
            slots: (0..c).map(|_| SimAtomicU64::new(R::vacant(0))).collect(),
            tail: SimAtomicU64::new(0),
            head: SimAtomicU64::new(0),
            rule,
        }
    }

    /// The raw word in slot `i` (tests and diagnostics): a token, a vacant
    /// word or, under DCSS, an in-flight descriptor reference.
    pub fn slot_word(&self, i: usize) -> u64 {
        self.slots[i].load(SeqCst)
    }

    /// The addresses of the `C` value-locations, as the explorer's
    /// `simyield::Access::loc` names them: how `bq-sim`'s adversary tells
    /// a slot update from a counter update.
    #[cfg(feature = "sim-explore")]
    pub fn value_cells(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s as *const _ as usize).collect()
    }
}

impl<R: SlotRule + Default> CounterQueue<R> {
    /// Create a queue of capacity `c > 0`.
    pub fn with_capacity(c: usize) -> Self {
        Self::with_rule(c, R::default())
    }
}

impl<R: SlotRule> ConcurrentQueue for CounterQueue<R> {
    type Handle = R::Handle;

    fn register(&self) -> R::Handle {
        self.rule.register()
    }

    fn enqueue(&self, h: &mut R::Handle, v: u64) -> Result<(), Full> {
        assert!(
            is_token(v),
            "counter-queue tokens are non-zero 63-bit words (the top bit is the slot rule's tag)"
        );
        let c = self.slots.len() as u64;
        loop {
            // Read the counters snapshot.
            let t = self.tail.load(SeqCst);
            let hd = self.head.load(SeqCst);
            if t != self.tail.load(SeqCst) {
                continue;
            }
            // Is the queue full?
            if t == hd.wrapping_add(c) {
                return Err(Full(v));
            }
            debug_assert!(
                c.is_power_of_two() || t <= u64::MAX - c,
                "counter-queue positions may pass 2^64 only for a power-of-two capacity (DESIGN.md §2)"
            );
            // Try to insert the element: replace this round's ⊥ with it.
            let slot = &self.slots[(t % c) as usize];
            let done = self
                .rule
                .update(h, slot, R::vacant(t / c), v, &self.tail, t);
            // Increment the counter (helping: losers advance it too).
            let _ = self
                .tail
                .compare_exchange(t, t.wrapping_add(1), SeqCst, SeqCst);
            if done {
                return Ok(());
            }
        }
    }

    fn dequeue(&self, h: &mut R::Handle) -> Option<u64> {
        let c = self.slots.len() as u64;
        loop {
            // Read the counters + element snapshot.
            let t = self.tail.load(SeqCst);
            let hd = self.head.load(SeqCst);
            let slot = &self.slots[(hd % c) as usize];
            let e = self.rule.read(slot);
            if t != self.tail.load(SeqCst) {
                continue;
            }
            // Is the queue empty?
            if t == hd {
                return None;
            }
            // Try to extract: replace the element with the *next* round's
            // ⊥, which is what the enqueuer of position hd + C expects. Any
            // vacant word — this round's or a stale one — is "no element".
            let next = R::vacant(hd.wrapping_add(c) / c);
            let done = is_token(e) && self.rule.update(h, slot, e, next, &self.head, hd);
            // Increment the counter (helping).
            let _ = self
                .head
                .compare_exchange(hd, hd.wrapping_add(1), SeqCst, SeqCst);
            if done {
                return Some(e);
            }
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn max_token(&self) -> u64 {
        MAX_TOKEN
    }

    fn len(&self) -> usize {
        let t = self.tail.load(SeqCst);
        let h = self.head.load(SeqCst);
        // Mod 2^64, and 0 when `head` moved past the `tail` read first.
        (t.wrapping_sub(h) as i64).max(0) as usize
    }
}

impl<R: SlotRule> MemoryFootprint for CounterQueue<R> {
    fn footprint(&self) -> FootprintBreakdown {
        // Vacant words live inside the value-locations (the stolen top
        // bit): beyond the rule's own rows, two counters are all there is.
        self.rule
            .footprint(FootprintBreakdown::with_elements(self.slots.len() * 8))
            .add("head + tail counters", 16, OverheadClass::Counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcssQueue, DistinctQueue, NaiveQueue};
    use std::collections::VecDeque;

    /// `q` with both counters at `pos` and every slot holding the vacant
    /// word its next enqueue position expects.
    fn starting_at<R: SlotRule>(q: CounterQueue<R>, pos: u64) -> CounterQueue<R> {
        let c = q.slots.len() as u64;
        for (i, slot) in q.slots.iter().enumerate() {
            let next = pos.wrapping_add((i as u64 + c - pos % c) % c);
            slot.store(R::vacant(next / c), SeqCst);
        }
        q.tail.store(pos, SeqCst);
        q.head.store(pos, SeqCst);
        q
    }

    /// Two rounds below the wrap: `u64::MAX − 2C`.
    fn edge(c: usize) -> u64 {
        u64::MAX - 2 * c as u64
    }

    /// Enqueue/dequeue pairs enough to carry both counters from `edge(c)`
    /// past 2⁶⁴.
    fn crossing(c: usize) -> Vec<bool> {
        [true, false].repeat(2 * c + 1)
    }

    fn sequential_spec<R: SlotRule>(q: CounterQueue<R>, script: &[bool]) {
        let (c, mut h) = (q.capacity(), q.register());
        let mut model = VecDeque::new();
        let mut next = 1u64;
        for (step, &is_enq) in script.iter().enumerate() {
            if is_enq {
                let accepted = q.enqueue(&mut h, next).is_ok();
                assert_eq!(accepted, model.len() < c, "c={c} step {step}");
                if accepted {
                    model.push_back(next);
                }
                next += 1;
            } else {
                assert_eq!(q.dequeue(&mut h), model.pop_front(), "c={c} step {step}");
            }
            assert_eq!(q.len(), model.len(), "c={c} step {step}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The sequential spec (Figure 1) across 2⁶⁴, under every rule in
        /// this crate, for power-of-two capacities: from two rounds below
        /// the wrap, a crossing and then an arbitrary script behave like a
        /// bounded `VecDeque`, FIFO and `len()` checked at every step.
        #[test]
        fn sequential_spec_across_the_position_wrap(
            k in 0u32..4,
            tail in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..160),
        ) {
            let c = 1usize << k;
            let script = [crossing(c), tail].concat();
            sequential_spec(starting_at(NaiveQueue::with_capacity(c), edge(c)), &script);
            sequential_spec(starting_at(DistinctQueue::with_capacity(c), edge(c)), &script);
            let dcss = DcssQueue::with_capacity_and_threads(c, 1);
            sequential_spec(starting_at(dcss, edge(c)), &script);
        }
    }

    /// Two producers and two consumers on a `DistinctQueue` (`C = 4`)
    /// whose counters start two rounds below 2⁶⁴: every value comes out
    /// exactly once.
    #[test]
    fn position_wrap_conserves_under_contention() {
        let q = starting_at(DistinctQueue::with_capacity(4), edge(4));
        let per = 3_000u64;
        let mut got: Vec<u64> = std::thread::scope(|s| {
            for p in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    for k in 1..=per {
                        while q.enqueue(&mut h, p * per + k).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = &q;
                    s.spawn(move || {
                        let mut h = q.register();
                        let mut mine = Vec::new();
                        while mine.len() < per as usize {
                            match q.dequeue(&mut h) {
                                Some(v) => mine.push(v),
                                None => std::thread::yield_now(),
                            }
                        }
                        mine
                    })
                })
                .collect();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        got.sort_unstable();
        assert_eq!(got, (1..=2 * per).collect::<Vec<_>>());
        assert!(q.tail.load(SeqCst) < edge(4), "the counters crossed 2^64");
    }

    /// A capacity that does not divide 2⁶⁴ has a bound instead: in debug
    /// builds the first enqueue past `2⁶⁴ − C` trips its assert.
    #[test]
    #[cfg(debug_assertions)]
    fn other_capacities_stop_before_the_wrap() {
        let q = starting_at(DistinctQueue::with_capacity(3), edge(3));
        let mut h = q.register();
        let crossed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for v in 1..=2 * 3 + 2 {
                q.enqueue(&mut h, v).ok();
                q.dequeue(&mut h);
            }
        }));
        let msg = crossed.expect_err("the bound must trip");
        let msg = msg.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("power-of-two capacity"), "{msg}");
    }
}
