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
//! the schedule explorer (DESIGN.md §11) runs E4/E8's adversary scripts
//! against exactly this code, not only against its `bq-sim` transcription.

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
    /// `vacant(h / C + 1)` behind. Never a token.
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
            if t == hd + c {
                return Err(Full(v));
            }
            // Try to insert the element: replace this round's ⊥ with it.
            let slot = &self.slots[(t % c) as usize];
            let done = self
                .rule
                .update(h, slot, R::vacant(t / c), v, &self.tail, t);
            // Increment the counter (helping: losers advance it too).
            let _ = self.tail.compare_exchange(t, t + 1, SeqCst, SeqCst);
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
            // ⊥, which is what the round-(hd/C + 1) enqueuer expects. Any
            // vacant word — this round's or a stale one — is "no element".
            let done = is_token(e)
                && self
                    .rule
                    .update(h, slot, e, R::vacant(hd / c + 1), &self.head, hd);
            // Increment the counter (helping).
            let _ = self.head.compare_exchange(hd, hd + 1, SeqCst, SeqCst);
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
        t.saturating_sub(h) as usize
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
