//! **Listing 5 / Appendix A** — the memory-optimal bounded queue with Θ(T)
//! overhead, matching the paper's lower bound.
//!
//! ## Structure
//!
//! * `a` — the `C` value-locations (plain values, `0 = ⊥`).
//! * `enqueues` / `dequeues` — the positioning counters.
//! * `ops` — the **announcement array** of `T` slots holding references to
//!   in-progress `EnqOp` descriptors. Thread `tid` announces in slot `tid`
//!   (the paper probes for an empty slot; the own slot always is one), and
//!   `find_op` scans `0..registered`, the slots of the handles handed out
//!   so far, not all `T` (DESIGN.md §7.2).
//! * `active_op` — the serialization point through which descriptor
//!   verdicts are decided one at a time (with helping).
//! * a pool of **2·T reusable `EnqOp` descriptors** (the Arbel-Raviv/Brown
//!   reuse technique the paper cites): at most `T` descriptors are parked
//!   in `ops` plus at most one claimed per thread. A thread claims from its
//!   own pair `2·tid`, `2·tid + 1` first. A descriptor is three words:
//!   `(seq << 2) | verdict`, `e`, `x` — the cell is `e % C`, not stored.
//!
//! Where the bytes and the padding go: slot `tid` and descriptors `2·tid`,
//! `2·tid + 1` — what thread `tid` writes first — share one 64-byte
//! **lane**, one lane per thread, behind a one-line header in the board's
//! allocation; `enqueues`, `dequeues` and `active_op`, which every thread
//! CASes, get a 64-byte line each inside the queue, and the fields every
//! operation only reads (`a`'s pointer, the board's, `next_tid`) follow on
//! a fourth that no CAS invalidates.
//!
//! Total overhead: `T` lanes + the header line + three padded words =
//! **64·T + 256 bytes** — Θ(T), independent of the capacity `C`, all of it
//! claimed by `footprint()`, padding included (EXPERIMENTS.md E18: smaller
//! than a Vyukov ring's for `C > 8·T`). Time per operation grows with the
//! handles *registered*, not with `T`.
//!
//! ## How it dodges ABA with no per-slot metadata
//!
//! An enqueue never CASes a value-location directly. It *announces* a
//! descriptor binding `(e = enqueues, x)` for cell `i = e % C`; the
//! descriptor becomes
//! `successful` only if, under the `active_op` serialization, no other
//! successful descriptor covers cell `i` and the `enqueues` counter still
//! equals `e`. The covering thread alone writes `a[i]` (in `complete_op`),
//! so a delayed thread can never deposit a stale value: its descriptor's
//! counter check fails instead. Dequeues read through the announcement
//! array (`read_elem`) so they see elements that are still "in flight".
//! `dequeue_many` does the same for a run of positions with one scan and
//! one `dequeues` CAS; `enqueue_many` stays one-by-one, because every
//! position needs a descriptor verdict of its own (DESIGN.md §8.1).
//!
//! ## Deviation from the paper's pseudo-code (documented in DESIGN.md §7)
//!
//! Listing 5 lets a *failed* enqueue attempt unconditionally help
//! `CAS(&enqueues, e, e+1)`. There is an interleaving — the covering thread
//! clears a previous-round descriptor between a rival's `findOp` and its
//! replacement CAS — in which that helping CAS advances the counter although
//! **no** successful descriptor for position `e` exists, breaking the
//! bijection of Lemma A.2 (a dequeue could then observe the previous round's
//! value again). We therefore let a failed attempt help the counter only
//! when it has *evidence*: it observed a successful descriptor with
//! `op.e ≥ e`. Successful attempts and `complete_op` help unconditionally,
//! exactly as in the paper, and every enqueue stuck at counter value `e`
//! necessarily targets cell `e % C` and finds the blocking descriptor there,
//! so lock-freedom (Appendix A.1) is preserved. A regression test for the
//! problematic interleaving lives in the `bq-sim` adversary suite.
//!
//! The helping CAS itself (paper line 40, and the evidence-guarded one of a
//! failed attempt) is preceded by a load and skipped when the counter has
//! already moved — `complete_op` usually got there first, and a CAS that
//! fails is a load that also took the line exclusive.

use std::sync::atomic::Ordering;

use crate::obs::{LocalQueueCounters, MetricsSnapshot, SharedQueueCounters};
use crate::queue::{ConcurrentQueue, Full};
use crate::relocatable::{AnnounceBoard, RelocBox, RelocEnqOp, RelocLayout};
use crate::simx::{SimAtomicU64, SimAtomicUsize};
use crate::token::{is_token, MAX_TOKEN, NULL};
use bq_memtrack::{FootprintBreakdown, MemoryFootprint, OverheadClass};

const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// Verdict states, the low two bits of a descriptor's word.
const ST_UNDECIDED: u64 = 0;
const ST_SUCCESS: u64 = 1;
const ST_FAILURE: u64 = 2;

/// A descriptor's one metadata word, `(seq << 2) | state`: 50 bits. A free
/// descriptor reads `(even seq, ST_UNDECIDED)`.
#[inline]
fn pack_word(seq: u64, state: u64) -> u64 {
    (seq << 2) | state
}

/// The incarnation after `seq`. The counter advances mod 2⁴⁸, so the
/// descriptor's word and the packed refs carry the same value; 2⁴⁸ is
/// even, so the free/live parity survives the wrap. Residual ABA: a thread
/// holding a packed ref across exactly 2⁴⁷ reuses of that one descriptor
/// (DESIGN.md §7.1).
#[inline]
fn next_seq(seq: u64) -> u64 {
    (seq + 1) & SEQ_MASK
}

/// Do positions `a` and `b` name the same cell of a `c`-cell ring
/// (`a % c == b % c`)? Equal positions do, positions less than `c` apart
/// do not; only the rest — a descriptor parked from an earlier round —
/// costs a division.
#[inline]
fn same_cell(a: u64, b: u64, c: u64) -> bool {
    let apart = a.abs_diff(b);
    apart == 0 || (apart >= c && apart.is_multiple_of(c))
}

#[inline]
fn pack_ref(index: usize, seq: u64) -> u64 {
    debug_assert!(seq % 2 == 1, "published incarnations are odd");
    debug_assert!(seq <= SEQ_MASK, "incarnations live in 48 bits");
    ((index as u64) << SEQ_BITS) | seq
}

#[inline]
fn unpack_index(p: u64) -> usize {
    (p >> SEQ_BITS) as usize
}

#[inline]
fn unpack_seq(p: u64) -> u64 {
    p & SEQ_MASK
}

/// A validated snapshot of one descriptor incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpView {
    packed: u64,
    index: usize,
    seq: u64,
    e: u64,
    x: u64,
    /// The verdict as of the validating load. `ST_SUCCESS` and
    /// `ST_FAILURE` are final; `ST_UNDECIDED` may be stale.
    state: u64,
}

/// Outcome of one `apply` attempt (see module docs for why failures are
/// split by whether helping the counter is safe). A failure carries the
/// verdict state its descriptor — back in its owner's hands alone — was
/// left in, which is what the owner's freeing CAS expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The operation took effect at position `e`.
    Success { retained_in_ops: bool },
    /// Failed, but a successful descriptor with `op.e ≥ e` was observed —
    /// helping `CAS(enqueues, e, e+1)` is safe.
    FailHelp(u64),
    /// Failed with no such evidence — do not touch the counter.
    FailNoHelp(u64),
}

/// One of Listing 5's three contended words — `enqueues`, `dequeues`,
/// `active_op` — alone on a 64-byte line, so an RMW on one takes neither of
/// the others nor the queue's read-mostly fields away from another thread
/// (EXPERIMENTS.md E18: 128-byte units and a shared producer line both
/// measured worse on `pairs`).
#[repr(align(64))]
struct HotWord(SimAtomicU64);

impl std::ops::Deref for HotWord {
    type Target = SimAtomicU64;
    fn deref(&self) -> &SimAtomicU64 {
        &self.0
    }
}

/// The memory-optimal bounded queue (paper Listing 5 / Appendix A).
///
/// ```
/// use bq_core::{ConcurrentQueue, OptimalQueue};
/// use bq_memtrack::MemoryFootprint;
///
/// let q = OptimalQueue::with_capacity_and_threads(128, 4);
/// let mut h = q.register();
/// q.enqueue(&mut h, 7).unwrap();
/// assert_eq!(q.dequeue(&mut h), Some(7));
///
/// // The headline property: overhead is independent of the capacity.
/// let big = OptimalQueue::with_capacity_and_threads(128 * 1024, 4);
/// assert_eq!(q.overhead_bytes(), big.overhead_bytes());
/// ```
#[repr(C)] // the three hot lines first, the read-mostly fields on a fourth
pub struct OptimalQueue {
    enqueues: HotWord,
    dequeues: HotWord,
    /// Serialization point for verdicts (packed ref or 0 = ⊥).
    active_op: HotWord,
    /// The `C` value-locations.
    a: Box<[SimAtomicU64]>,
    /// The announcement machinery — the `T`-slot announcement array of
    /// packed descriptor refs (0 = ⊥) plus the pool of `2T` reusable
    /// [`RelocEnqOp`] descriptors, one 64-byte lane per thread — lives in a
    /// relocatable [`AnnounceBoard`] layout in its own allocation
    /// (DESIGN.md §10): descriptor references were already
    /// position-independent packed `(index, seq)` words, so the board
    /// relocates wholesale. Its atomics carry all cross-thread
    /// communication. Its RMWs are `SeqCst`; its writes nobody can race —
    /// a descriptor's `e` and `x`, the free, the pre-mark, the announce and
    /// the failure clean — are `Release` stores (DESIGN.md §7.2–§7.3).
    board: RelocBox<AnnounceBoard>,
    next_tid: SimAtomicUsize,
    /// Observability counter block (DESIGN.md §14). A ZST with `obs`
    /// off; plain `std` relaxed atomics with it on, so the counters are
    /// never explorer scheduling points and never synchronize anything.
    /// Per-operation counts accumulate in the *handle* (plain `u64`s)
    /// and fold in here on handle drop / flush — this shared block is
    /// off the hot path entirely.
    obs: SharedQueueCounters,
    #[cfg(feature = "sim-explore")]
    help: HelpMode,
    #[cfg(feature = "sim-explore")]
    mutant: OrderingMutant,
}

/// How a failed enqueue attempt helps the counter: the one decision in
/// which this queue departs from Listing 5 as printed (module docs,
/// DESIGN.md §7). Only the schedule explorer can select the paper's rule,
/// to replay the Lemma A.2 interleaving against it.
#[cfg(feature = "sim-explore")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelpMode {
    /// Listing 5's line 40: every failed attempt helps `CAS(enqueues, e, e + 1)`.
    PaperFaithful,
    /// Help only after observing a successful descriptor with `op.e ≥ e`
    /// (the shipped rule).
    Evidence,
}

/// A weakened ordering, planted for the schedule explorer's
/// happens-before check to find (DESIGN.md §11.4): each names one access
/// that publishes the `Release` stores of `e`, `x` or a cell to the
/// threads that use what they wrote. Only the explorer can select one;
/// outside it the type only names the access to `site_ord`.
#[cfg_attr(not(feature = "sim-explore"), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingMutant {
    /// The shipped orderings.
    Shipped,
    /// `put_op`'s announce store `Relaxed`: a reader that finds the
    /// descriptor in the slot no longer acquires its `e`/`x` stores.
    RelaxedAnnounce,
    /// `read_op`'s slot load `Relaxed`: the reader no longer acquires the
    /// announce (nor, finding the slot cleared, the cell write-back).
    RelaxedSlotLoad,
    /// `complete_op`'s clearing CAS `Relaxed`: a dequeuer that finds the
    /// slot cleared no longer acquires the cell write-back.
    RelaxedClear,
}

/// Under the explorer, whether the store this thread's last load of `w`
/// returned was published to it (`SimAtomicU64::published`); `true`
/// everywhere else, where the checks that ask compile away.
#[inline]
fn published(w: &SimAtomicU64) -> bool {
    #[cfg(feature = "sim-explore")]
    return w.published();
    #[cfg(not(feature = "sim-explore"))]
    {
        let _ = w;
        true
    }
}

/// Per-thread handle: the thread id into the announcement machinery,
/// plus the handle-local observability accumulator (DESIGN.md §14.1 —
/// a ZST with `obs` off).
#[derive(Debug)]
pub struct OptimalHandle {
    tid: usize,
    obs: LocalQueueCounters,
}

impl OptimalHandle {
    /// Handle on tid 0 without consuming a registration slot. Only sound
    /// under exclusive access (used by `BoxedQueue::drop`). Its counter
    /// accumulator is detached — drain statistics during teardown are
    /// not part of the queue's operational story.
    pub(crate) fn exclusive() -> Self {
        OptimalHandle {
            tid: 0,
            obs: SharedQueueCounters::new().local(),
        }
    }
}

impl OptimalQueue {
    /// Create a queue of capacity `c` serving up to `max_threads` threads.
    pub fn with_capacity_and_threads(c: usize, max_threads: usize) -> Self {
        assert!(c > 0, "capacity must be positive");
        assert!(
            max_threads > 0 && max_threads < (1 << 15),
            "thread bound must be in 1..2^15"
        );
        OptimalQueue {
            board: RelocBox::new(max_threads),
            a: (0..c).map(|_| SimAtomicU64::new(NULL)).collect(),
            enqueues: HotWord(SimAtomicU64::new(0)),
            dequeues: HotWord(SimAtomicU64::new(0)),
            active_op: HotWord(SimAtomicU64::new(0)),
            next_tid: SimAtomicUsize::new(0),
            obs: SharedQueueCounters::new(),
            #[cfg(feature = "sim-explore")]
            help: HelpMode::Evidence,
            #[cfg(feature = "sim-explore")]
            mutant: OrderingMutant::Shipped,
        }
    }

    /// The thread bound `T`.
    pub fn max_threads(&self) -> usize {
        self.board.threads()
    }

    /// The same queue with failed attempts helping the counter by `mode`.
    #[cfg(feature = "sim-explore")]
    pub fn with_help_mode(mut self, mode: HelpMode) -> Self {
        self.help = mode;
        self
    }

    /// The same queue with the planted ordering `mutant`.
    #[cfg(feature = "sim-explore")]
    pub fn with_ordering_mutant(mut self, mutant: OrderingMutant) -> Self {
        self.mutant = mutant;
        self
    }

    /// The ordering of the access `mutant` weakens: `shipped`, or
    /// `Relaxed` when the explorer planted `mutant`.
    #[inline]
    fn site_ord(&self, mutant: OrderingMutant, shipped: Ordering) -> Ordering {
        #[cfg(feature = "sim-explore")]
        if self.mutant == mutant {
            return Ordering::Relaxed;
        }
        let _ = mutant;
        shipped
    }

    /// The addresses of the `C` value-locations and of the `T`
    /// announcement slots, as the explorer's `simyield::Access::loc` names
    /// them: how `bq-sim`'s adversary poises a thread before a write-back
    /// or a replacement CAS.
    #[cfg(feature = "sim-explore")]
    pub fn value_cells_and_slots(&self) -> (Vec<usize>, Vec<usize>) {
        let addr = |w: &SimAtomicU64| w as *const _ as usize;
        let slots = (0..self.board.threads()).map(|i| addr(self.board.op(i)));
        (self.a.iter().map(addr).collect(), slots.collect())
    }

    /// The value-location of position `pos`: `a[pos % C]`.
    fn cell(&self, pos: u64) -> &SimAtomicU64 {
        &self.a[(pos % self.a.len() as u64) as usize]
    }

    /// The descriptor a validated view points at.
    fn desc(&self, view: OpView) -> &RelocEnqOp {
        self.board.desc(view.index).expect("pooled index")
    }

    // ---- descriptor pool -------------------------------------------------

    /// Claim a free descriptor and write incarnation fields for `(e, x)`.
    /// The two stores are `Release`, not `SeqCst`: the announce store (or a
    /// replacement CAS) publishes them to whoever finds the descriptor in
    /// a slot, the `active_op` CAS to whoever finds it there, and `Release`
    /// keeps them after the claim CAS for `view_packed`'s validation
    /// (DESIGN.md §7.3). Always succeeds: at most `T` descriptors are
    /// parked in `ops` and at most one is claimed per other thread, so a
    /// pool of `2T` always has a free entry for the claimant. Thread `tid` tries its own
    /// pair `2·tid`, `2·tid + 1` first — its own lane, where no other
    /// thread starts — and wraps over the whole pool, because both can be
    /// parked in *other* threads' slots (`retained_in_ops`).
    fn claim_desc(&self, tid: usize, e: u64, x: u64) -> OpView {
        let pool = self.board.pool_len();
        let own = 2 * tid;
        loop {
            for index in (own..pool).chain(0..own) {
                let d = self.board.desc(index).expect("pooled index");
                let w = d.word.load(Ordering::SeqCst);
                if (w >> 2) % 2 == 1 {
                    continue; // in use
                }
                let seq = next_seq(w >> 2);
                if d.word
                    .compare_exchange(
                        w,
                        pack_word(seq, ST_UNDECIDED),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_err()
                {
                    continue;
                }
                d.e.store(e, Ordering::Release);
                d.x.store(x, Ordering::Release);
                return OpView {
                    packed: pack_ref(index, seq),
                    index,
                    seq,
                    e,
                    x,
                    state: ST_UNDECIDED,
                };
            }
        }
    }

    /// Return a descriptor to the pool. The caller must be the unique
    /// remover (see the freeing discipline in the module docs), which also
    /// makes it the one thread that knows the verdict `state` the
    /// incarnation ended in: nobody decides a descriptor twice. A plain
    /// `Release` store, not a CAS: while the remover holds the word (odd
    /// `seq`, decided or never shown) no claim and no stale `decide` can
    /// match it, and the next claimant's CAS reads this store, so the
    /// remover's loads of `e`/`x` happen-before the next incarnation's
    /// stores (DESIGN.md §7.2–§7.3).
    fn free_desc(&self, view: OpView, state: u64) {
        let word = &self.desc(view).word;
        debug_assert!(
            word.raw().load(Ordering::Relaxed) == pack_word(view.seq, state),
            "double free of descriptor {}",
            view.index
        );
        word.store(
            pack_word(next_seq(view.seq), ST_UNDECIDED),
            Ordering::Release,
        );
    }

    /// Reconstruct a validated view from a packed reference. `None` means
    /// the incarnation ended (the descriptor was freed, possibly reused).
    /// One load of the descriptor's word both validates the incarnation and
    /// reads its verdict. A view it returns used its `e` and `x` loads, so
    /// under the explorer both must have read published stores.
    fn view_packed(&self, packed: u64) -> Option<OpView> {
        if packed == 0 {
            return None;
        }
        let index = unpack_index(packed);
        let seq = unpack_seq(packed);
        let d = self.board.desc(index)?;
        let e = d.e.load(Ordering::SeqCst);
        let x = d.x.load(Ordering::SeqCst);
        let w = d.word.load(Ordering::SeqCst);
        if w >> 2 != seq {
            return None;
        }
        assert!(
            published(&d.e) && published(&d.x),
            "unpublished read: descriptor {index}'s e/x did not happen-before their loads"
        );
        Some(OpView {
            packed,
            index,
            seq,
            e,
            x,
            state: w & 0b11,
        })
    }

    /// Current verdict of an incarnation: `None` = undecided,
    /// `Some(true/false)` = success/failure. `Some(false)` is also
    /// returned for ended incarnations — which makes this **unsafe to act
    /// on wherever the descriptor may have been freed concurrently**: a
    /// replaced-and-freed descriptor was necessarily *successful*, the
    /// opposite of what this returns (the race of DESIGN.md §7.1).
    /// `read_op`/`put_op`/`complete_op` therefore read the word directly
    /// and handle the ended case explicitly; this helper remains only for
    /// tests on descriptors the caller provably still owns.
    #[cfg(test)]
    fn verdict(&self, view: OpView) -> Option<bool> {
        let w = self.desc(view).word.load(Ordering::SeqCst);
        if w >> 2 != view.seq {
            return Some(false);
        }
        match w & 0b11 {
            ST_SUCCESS => Some(true),
            ST_FAILURE => Some(false),
            _ => None,
        }
    }

    /// CAS the verdict from undecided (idempotent across helpers; stale
    /// helpers fail because the incarnation is in the same word).
    fn decide(&self, view: OpView, success: bool) {
        let to = if success { ST_SUCCESS } else { ST_FAILURE };
        let _ = self.desc(view).word.compare_exchange(
            pack_word(view.seq, ST_UNDECIDED),
            pack_word(view.seq, to),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    // ---- announcement array ----------------------------------------------

    /// The paper's `readOp` (lines 103–106): the descriptor at `ops[slot]`
    /// if it is successful, else `None`.
    fn read_op(&self, slot: usize) -> Option<OpView> {
        loop {
            let p = self
                .board
                .op(slot)
                .load(self.site_ord(OrderingMutant::RelaxedSlotLoad, Ordering::SeqCst));
            if p == 0 {
                return None;
            }
            let Some(view) = self.view_packed(p) else {
                // The incarnation ended between our two loads. A parked
                // descriptor is freed only after being removed from the
                // slot, so the slot has changed — re-read it rather than
                // reporting "no cover" and letting a caller miss the
                // replacement that is already installed.
                continue;
            };
            return (view.state == ST_SUCCESS).then_some(view);
        }
    }

    /// How many announcement slots a scan reads: those of the threads
    /// registered *now*. A slot is only ever filled by its owner or, once
    /// covered, by a replacer (DESIGN.md §7.2), so nothing is parked at or
    /// above the count — which is read fresh in every scan, never cached.
    /// Clamped to `1..=T`: the `exclusive()` handle announces in slot 0 on
    /// a queue nobody registered on, and a refused `register` leaves the
    /// counter above `T`.
    fn scan_bound(&self) -> usize {
        self.next_tid
            .load(Ordering::SeqCst)
            .clamp(1, self.board.threads())
    }

    /// The paper's `findOp` (lines 110–115): a successful operation
    /// covering the cell of position `pos`, with its slot, from the slots
    /// below [`scan_bound`](Self::scan_bound).
    fn find_op(&self, pos: u64) -> Option<(OpView, usize)> {
        let c = self.a.len() as u64;
        for slot in 0..self.scan_bound() {
            if let Some(view) = self.read_op(slot) {
                if same_cell(view.e, pos, c) {
                    return Some((view, slot));
                }
            }
        }
        None
    }

    /// The paper's `EnqOp.tryPut` (lines 12–21): decide the verdict of
    /// `view`, which must be the current `active_op`. Run by the owner and
    /// by helpers.
    fn try_put(&self, view: OpView) {
        // Is there an operation which already covers cell `e % C`?
        if let Some((other, _)) = self.find_op(view.e) {
            if other.packed != view.packed {
                // Decided now, by this CAS or by whoever beat it: the
                // paper's second CAS below could only fail.
                return self.decide(view, false);
            }
        }
        // Has `enqueues` been changed?
        let e_valid = self.enqueues.load(Ordering::SeqCst) == view.e;
        self.decide(view, e_valid);
    }

    /// The paper's `startPutOp` (lines 60–65): acquire the `active_op`
    /// serialization point, helping whoever holds it.
    fn start_put_op(&self, view: OpView) {
        loop {
            let cur = self.active_op.load(Ordering::SeqCst);
            if cur != 0 {
                if let Some(cur_view) = self.view_packed(cur) {
                    // Helping another thread's announced descriptor.
                    self.obs.helps.hit();
                    self.try_put(cur_view);
                }
                let _ = self
                    .active_op
                    .compare_exchange(cur, 0, Ordering::SeqCst, Ordering::SeqCst);
            } else if self
                .active_op
                .compare_exchange(0, view.packed, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }

    /// The paper's `putOp` (lines 45–58): announce `view` in `slot`, decide
    /// its verdict under `active_op`, and report it (on failure the slot is
    /// cleaned). The paper probes for an empty slot; here `slot` is the
    /// caller's own, which is always empty (DESIGN.md §7.2: a thread leaves
    /// `put_op`/`complete_op` only once its clearing write landed, and
    /// nobody else fills an empty slot). So the announcement is a `Release` store,
    /// not a CAS: it heads the release sequence that a replacer's CAS and
    /// the clearing CAS continue (DESIGN.md §7.3).
    fn put_op(&self, slot: usize, view: OpView) -> bool {
        let op = self.board.op(slot);
        // A raw load: the check adds no explorer scheduling point.
        assert!(
            op.raw().load(Ordering::Relaxed) == 0,
            "own announcement slot {slot} is occupied"
        );
        op.store(
            view.packed,
            self.site_ord(OrderingMutant::RelaxedAnnounce, Ordering::Release),
        );
        self.start_put_op(view);
        // The logical addition.
        self.try_put(view);
        // Finished; free `active_op` for the next descriptor.
        let _ = self
            .active_op
            .compare_exchange(view.packed, 0, Ordering::SeqCst, Ordering::SeqCst);
        // Read the verdict. `try_put` always decides before returning, so
        // the only states are FAILURE, SUCCESS, or "incarnation ended". The
        // last one means a *replacer* already removed and freed our
        // descriptor — and replacers only ever remove successful
        // descriptors (`read_op` filters on the verdict) — so an ended
        // incarnation proves the operation took effect and the
        // announcement chain in `slot` is ours to complete. (The window is
        // real: helpers can decide us successful and the queue can wrap all
        // the way back to our cell while we are preempted right here.)
        let w = self.desc(view).word.load(Ordering::SeqCst);
        if w == pack_word(view.seq, ST_FAILURE) {
            // Clean the slot. Unsuccessful descriptors are never replaced
            // or completed by others, so the slot is still ours: a store,
            // which publishes nothing a reader of the empty slot uses.
            debug_assert!(
                op.raw().load(Ordering::Relaxed) == view.packed,
                "foreign clear of an unsuccessful descriptor"
            );
            op.store(0, Ordering::Release);
            return false;
        }
        debug_assert!(
            w >> 2 != view.seq || w & 0b11 == ST_SUCCESS,
            "try_put returned with an undecided verdict"
        );
        true
    }

    /// The paper's `completeOp` (lines 69–73). Only the thread that covered
    /// the cell runs this; it keeps completing replacement descriptors
    /// until its clearing CAS wins, then releases the cell.
    fn complete_op(&self, slot: usize) {
        loop {
            let p = self.board.op(slot).load(Ordering::SeqCst);
            if p == 0 {
                // Unreachable in a correct run: our clearing CAS below is
                // the only legitimate way a covered slot empties.
                debug_assert!(false, "covered slot emptied by someone else");
                return;
            }
            let Some(view) = self.view_packed(p) else {
                // A replacer removed and freed the descriptor between our
                // two loads; the slot already holds its successor — re-read.
                continue;
            };
            // Every descriptor reachable here is successful: ours was
            // decided before `complete_op`, and replacements are pre-marked
            // successful before installation.
            debug_assert_eq!(view.state, ST_SUCCESS);
            // `Release`: the `enqueues` CAS and the clearing CAS below
            // publish it (DESIGN.md §7.3).
            self.cell(view.e).store(view.x, Ordering::Release);
            let _ = self.enqueues.compare_exchange(
                view.e,
                view.e + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            let clear = self.site_ord(OrderingMutant::RelaxedClear, Ordering::SeqCst);
            if self
                .board
                .op(slot)
                .compare_exchange(view.packed, 0, clear, clear)
                .is_ok()
            {
                // We removed it from `ops`; we free it.
                self.free_desc(view, ST_SUCCESS);
                return;
            }
            // A next-round enqueue replaced the descriptor; complete it too.
        }
    }

    /// The paper's `apply` (lines 76–92), by the thread announcing in slot
    /// `tid`.
    fn apply(&self, tid: usize, view: OpView) -> Outcome {
        match self.find_op(view.e) {
            None => {
                // Try to cover the cell ourselves.
                if self.put_op(tid, view) {
                    self.complete_op(tid);
                    Outcome::Success {
                        retained_in_ops: false,
                    }
                } else {
                    // tryPut failed: either the counter moved or a
                    // concurrent descriptor covers the cell.
                    self.failed(view, ST_FAILURE)
                }
            }
            Some((cur, slot)) => {
                if cur.e >= view.e {
                    // A descriptor for this or a later round already exists;
                    // our position is taken (or stale). Helping is safe.
                    return Outcome::FailHelp(ST_UNDECIDED);
                }
                // `cur` is a previous-round operation whose element was
                // already extracted; replace it with ours, pre-marked
                // successful (paper lines 89–92). The mark is a store: the
                // incarnation was just claimed and nobody has been shown
                // it, and the replacement CAS below publishes it.
                let word = &self.desc(view).word;
                debug_assert!(
                    word.raw().load(Ordering::Relaxed) == pack_word(view.seq, ST_UNDECIDED),
                    "pre-mark of a shown descriptor {}",
                    view.index
                );
                word.store(pack_word(view.seq, ST_SUCCESS), Ordering::Release);
                if self
                    .board
                    .op(slot)
                    .compare_exchange(cur.packed, view.packed, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // We removed `cur` from `ops`; we free it. The covering
                    // thread will complete *our* descriptor.
                    self.free_desc(cur, ST_SUCCESS);
                    return Outcome::Success {
                        retained_in_ops: true,
                    };
                }
                // The replacement failed: the covering thread completed and
                // cleared `cur`, or another replacement won.
                self.failed(view, ST_SUCCESS)
            }
        }
    }

    /// A failed attempt whose descriptor ended in `state`: helping the
    /// counter is safe only with observed evidence (module docs).
    fn failed(&self, view: OpView, state: u64) -> Outcome {
        #[cfg(feature = "sim-explore")]
        if self.help == HelpMode::PaperFaithful {
            return Outcome::FailHelp(state);
        }
        match self.find_op(view.e) {
            Some((c2, _)) if c2.e >= view.e => Outcome::FailHelp(state),
            _ => Outcome::FailNoHelp(state),
        }
    }

    /// The helping `CAS(&enqueues, e, e + 1)` of an enqueue that is done
    /// with position `e` (paper lines 40 and 42). `complete_op` has usually
    /// advanced the counter already, so look first: a CAS that fails is a
    /// load at the same point, minus taking the hottest line exclusive to
    /// learn it.
    fn help_enqueues(&self, e: u64) {
        if self.enqueues.load(Ordering::SeqCst) == e {
            let _ = self
                .enqueues
                .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst);
        }
    }

    /// The paper's `readElem` (lines 96–99): look through the announcement
    /// array for an in-flight element destined for the cell of position
    /// `d`; fall back to the array. Also says whether the value was
    /// published to this thread — always, outside the explorer.
    fn read_elem(&self, d: u64) -> (u64, bool) {
        if let Some((view, _)) = self.find_op(d) {
            return (view.x, true);
        }
        let cell = self.cell(d);
        (cell.load(Ordering::SeqCst), published(cell))
    }

    /// `read_elem` for the `k` positions `d..d + k` at once, appended to
    /// `out`: one board scan, in which a successful descriptor whose `e`
    /// falls in the run supplies its `x`, then a load of the cell of every
    /// position the scan did not cover — in that order (DESIGN.md §8.1).
    /// Says whether every cell it loaded read a published value, as
    /// [`read_elem`](Self::read_elem) does.
    fn read_run(&self, d: u64, k: usize, out: &mut Vec<u64>) -> bool {
        let mut all_published = true;
        let base = out.len();
        out.resize(base + k, NULL);
        let run = &mut out[base..];
        for slot in 0..self.scan_bound() {
            if let Some(view) = self.read_op(slot) {
                if let Some(x) = run.get_mut(view.e.wrapping_sub(d) as usize) {
                    *x = view.x;
                }
            }
        }
        for (pos, x) in (d..).zip(run) {
            if *x == NULL {
                let cell = self.cell(pos);
                *x = cell.load(Ordering::SeqCst);
                all_published &= published(cell);
            }
        }
        all_published
    }
}

impl ConcurrentQueue for OptimalQueue {
    type Handle = OptimalHandle;

    fn register(&self) -> OptimalHandle {
        // `SeqCst`: `find_op` bounds its scan by this counter, and a scan
        // that must see this thread's announcement reads the counter after
        // the announcing store, which is after this increment (DESIGN.md §7.2).
        let tid = self.next_tid.fetch_add(1, Ordering::SeqCst);
        assert!(
            tid < self.board.threads(),
            "more threads registered than the queue was sized for (T = {})",
            self.board.threads()
        );
        OptimalHandle {
            tid,
            obs: self.obs.local(),
        }
    }

    fn enqueue(&self, h: &mut OptimalHandle, x: u64) -> Result<(), Full> {
        assert!(
            is_token(x),
            "optimal queue tokens are non-zero 63-bit words"
        );
        let c = self.a.len() as u64;
        h.obs.enq_attempt();
        loop {
            // Read the counters snapshot (paper lines 36–37).
            let e = self.enqueues.load(Ordering::SeqCst);
            let d = self.dequeues.load(Ordering::SeqCst);
            if e != self.enqueues.load(Ordering::SeqCst) {
                h.obs.enq_retry();
                continue;
            }
            // Is the queue full?
            if e == d + c {
                h.obs.enq_full();
                return Err(Full(x));
            }
            // Announce and try to apply (paper line 39).
            let view = self.claim_desc(h.tid, e, x);
            match self.apply(h.tid, view) {
                Outcome::Success { retained_in_ops: _ } => {
                    // Increment the counter (paper line 40). The descriptor
                    // is either already freed (complete_op path) or parked
                    // in `ops` to be freed by its remover — never by us.
                    self.help_enqueues(e);
                    h.obs.enq_success((e + 1).saturating_sub(d));
                    return Ok(());
                }
                Outcome::FailHelp(state) => {
                    self.help_enqueues(e);
                    self.free_desc(view, state);
                    h.obs.enq_retry();
                }
                Outcome::FailNoHelp(state) => {
                    self.free_desc(view, state);
                    h.obs.enq_retry();
                }
            }
        }
    }

    fn dequeue(&self, h: &mut OptimalHandle) -> Option<u64> {
        h.obs.deq_attempt();
        loop {
            // Counters + element snapshot (paper lines 29–31). An empty
            // snapshot needs no element: like `dequeue_many` at `k = 0`, it
            // reads only the two counters (DESIGN.md §8.1).
            let d = self.dequeues.load(Ordering::SeqCst);
            let e = self.enqueues.load(Ordering::SeqCst);
            let (x, x_published) = if e == d {
                (NULL, true)
            } else {
                self.read_elem(d)
            };
            if d != self.dequeues.load(Ordering::SeqCst) {
                h.obs.deq_retry();
                continue;
            }
            // Is the queue empty?
            if e == d {
                h.obs.deq_empty();
                return None;
            }
            debug_assert_ne!(x, NULL, "non-empty position must hold an element");
            if self
                .dequeues
                .compare_exchange(d, d + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                assert!(
                    x_published,
                    "unpublished read: dequeue returned cell {d}'s value"
                );
                h.obs.deq_success();
                return Some(x);
            }
            h.obs.deq_retry();
        }
    }

    /// Dequeues in runs (DESIGN.md §8.1): read `d`, then `e`, and take the
    /// `k = min(max − n, e − d)` positions from `d` — one board scan, then
    /// the cells it did not cover (`read_run`), a re-read of
    /// `dequeues`, one `CAS(d → d + k)`. Every element linearizes at that
    /// CAS. A run that stops short of `max` is followed by another
    /// snapshot, so the call returns short only after one that reads the
    /// queue empty, as the one-by-one default does. `obs` counts elements,
    /// not runs: `k` attempts and successes, and the empty snapshot one
    /// attempt and one empty.
    fn dequeue_many(&self, h: &mut OptimalHandle, max: usize, out: &mut Vec<u64>) -> usize {
        let mut n = 0;
        while n < max {
            let d = self.dequeues.load(Ordering::SeqCst);
            let e = self.enqueues.load(Ordering::SeqCst);
            let k = (e - d).min((max - n) as u64) as usize;
            let base = out.len();
            let run_published = k == 0 || self.read_run(d, k, out);
            if d != self.dequeues.load(Ordering::SeqCst) {
                out.truncate(base);
                h.obs.deq_retry();
                continue;
            }
            if k == 0 {
                h.obs.deq_attempt();
                h.obs.deq_empty();
                break;
            }
            debug_assert!(
                !out[base..].contains(&NULL),
                "non-empty positions must hold elements"
            );
            if self
                .dequeues
                .compare_exchange(d, d + k as u64, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                out.truncate(base);
                h.obs.deq_retry();
                continue;
            }
            assert!(
                run_published,
                "unpublished read: a run from {d} returned a cell's value"
            );
            for _ in 0..k {
                h.obs.deq_attempt();
                h.obs.deq_success();
            }
            n += k;
        }
        n
    }

    fn capacity(&self) -> usize {
        self.a.len()
    }

    fn max_token(&self) -> u64 {
        MAX_TOKEN
    }

    fn len(&self) -> usize {
        let e = self.enqueues.load(Ordering::SeqCst);
        let d = self.dequeues.load(Ordering::SeqCst);
        e.saturating_sub(d) as usize
    }

    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        self.obs.snapshot_into("", &mut snap);
        snap
    }

    fn flush_metrics(&self, h: &mut OptimalHandle) {
        h.obs.flush();
    }
}

impl MemoryFootprint for OptimalQueue {
    /// Every byte the layout allocates or pads: the rows for the board sum
    /// to its allocation, the last two to the three 64-byte lines the
    /// struct holds inline.
    fn footprint(&self) -> FootprintBreakdown {
        let t = self.board.threads();
        let slots = t * std::mem::size_of::<SimAtomicU64>();
        let descs = self.board.pool_len() * std::mem::size_of::<RelocEnqOp>();
        let hdr = AnnounceBoard::HDR_BYTES;
        let line = std::mem::size_of::<HotWord>();
        FootprintBreakdown::with_elements(self.a.len() * 8)
            .add(
                format!("ops announcement array ({t} slots)"),
                slots,
                OverheadClass::Announcement,
            )
            .add(
                format!("2T = {} EnqOp descriptors", 2 * t),
                descs,
                OverheadClass::Descriptors,
            )
            .add(
                format!("lane padding ({t} lanes of 64 bytes)"),
                AnnounceBoard::layout(t).size() - hdr - slots - descs,
                OverheadClass::Other,
            )
            .add(
                "board header (magic, T; one line)",
                hdr,
                OverheadClass::Other,
            )
            .add(
                "enqueues + dequeues counters (a line each)",
                2 * line,
                OverheadClass::Counters,
            )
            .add("active_op word (a line)", line, OverheadClass::Announcement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_fifo() {
        let q = OptimalQueue::with_capacity_and_threads(4, 2);
        let mut h = q.register();
        for v in 1..=4 {
            q.enqueue(&mut h, v).unwrap();
        }
        assert_eq!(q.enqueue(&mut h, 5), Err(Full(5)));
        for v in 1..=4 {
            assert_eq!(q.dequeue(&mut h), Some(v));
        }
        assert_eq!(q.dequeue(&mut h), None);
    }

    #[test]
    fn sequential_wraparound_many_rounds() {
        let q = OptimalQueue::with_capacity_and_threads(3, 2);
        let mut h = q.register();
        for round in 0..500u64 {
            for i in 0..3 {
                q.enqueue(&mut h, 1 + round * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(q.dequeue(&mut h), Some(1 + round * 3 + i));
            }
        }
    }

    #[test]
    fn repeated_values_allowed() {
        let q = OptimalQueue::with_capacity_and_threads(2, 2);
        let mut h = q.register();
        for _ in 0..500 {
            q.enqueue(&mut h, 9).unwrap();
            q.enqueue(&mut h, 9).unwrap();
            assert_eq!(q.dequeue(&mut h), Some(9));
            assert_eq!(q.dequeue(&mut h), Some(9));
        }
    }

    #[test]
    fn interleaved_partial_rounds() {
        let q = OptimalQueue::with_capacity_and_threads(4, 2);
        let mut h = q.register();
        q.enqueue(&mut h, 1).unwrap();
        q.enqueue(&mut h, 2).unwrap();
        assert_eq!(q.dequeue(&mut h), Some(1));
        q.enqueue(&mut h, 3).unwrap();
        q.enqueue(&mut h, 4).unwrap();
        q.enqueue(&mut h, 5).unwrap();
        assert_eq!(q.len(), 4);
        assert_eq!(q.enqueue(&mut h, 6), Err(Full(6)));
        for v in 2..=5 {
            assert_eq!(q.dequeue(&mut h), Some(v));
        }
        assert_eq!(q.dequeue(&mut h), None);
    }

    #[test]
    fn overhead_linear_in_t_constant_in_c() {
        let ovh =
            |c: usize, t: usize| OptimalQueue::with_capacity_and_threads(c, t).overhead_bytes();
        assert_eq!(ovh(64, 4), ovh(1 << 16, 4), "overhead independent of C");
        let t1 = ovh(64, 1);
        let t4 = ovh(64, 4);
        let t16 = ovh(64, 16);
        assert_eq!((t4 - t1) / 3, (t16 - t4) / 12, "uniform per-thread cost");
    }

    #[test]
    fn descriptor_pool_is_2t() {
        let q = OptimalQueue::with_capacity_and_threads(8, 5);
        assert_eq!(q.board.pool_len(), 10);
        assert_eq!(q.board.threads(), 5);
    }

    #[test]
    fn pool_exhaustion_never_happens_sequentially() {
        // A single thread cycling through many operations must keep reusing
        // the same descriptors (no leak: the number of claimed descriptors
        // returns to zero after each op).
        let q = OptimalQueue::with_capacity_and_threads(4, 3);
        let mut h = q.register();
        for v in 1..=10_000u64 {
            q.enqueue(&mut h, v).unwrap();
            assert_eq!(q.dequeue(&mut h), Some(v));
        }
        let claimed = q
            .board
            .descs()
            .filter(|d| (d.word.load(Ordering::SeqCst) >> 2) % 2 == 1)
            .count();
        assert_eq!(claimed, 0, "all descriptors returned to the pool");
    }

    #[test]
    fn concurrent_repeated_values_conserved() {
        let q = Arc::new(OptimalQueue::with_capacity_and_threads(4, 4));
        let per = 2_000u64;
        let producers = 2u64;
        let total = per * producers;
        let mut ths = Vec::new();
        for _ in 0..producers {
            let q = Arc::clone(&q);
            ths.push(std::thread::spawn(move || {
                let mut h = q.register();
                for _ in 0..per {
                    while q.enqueue(&mut h, 7).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut h = q.register();
        let mut got = 0u64;
        while got < total {
            match q.dequeue(&mut h) {
                Some(v) => {
                    assert_eq!(v, 7);
                    got += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        for t in ths {
            t.join().unwrap();
        }
        assert_eq!(q.dequeue(&mut h), None, "exact conservation");
    }

    #[test]
    fn concurrent_distinct_values_conserved_and_ordered() {
        let q = Arc::new(OptimalQueue::with_capacity_and_threads(8, 4));
        let per = 1_500u64;
        let producers = 3u64;
        let total = per * producers;
        let mut ths = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            ths.push(std::thread::spawn(move || {
                let mut h = q.register();
                for i in 0..per {
                    let v = 1 + p * per + i;
                    while q.enqueue(&mut h, v).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut h = q.register();
        let mut seen = std::collections::HashSet::new();
        let mut last_per_producer = vec![0u64; producers as usize];
        while (seen.len() as u64) < total {
            match q.dequeue(&mut h) {
                Some(v) => {
                    assert!(seen.insert(v), "duplicate {v}");
                    let p = ((v - 1) / per) as usize;
                    assert!(
                        v > last_per_producer[p],
                        "per-producer FIFO violated: {v} after {}",
                        last_per_producer[p]
                    );
                    last_per_producer[p] = v;
                }
                None => std::thread::yield_now(),
            }
        }
        for t in ths {
            t.join().unwrap();
        }
        for v in 1..=total {
            assert!(seen.contains(&v), "missing {v}");
        }
        assert!(q.is_empty());
    }

    /// Descriptor `k`'s incarnation counter.
    fn seq_of(q: &OptimalQueue, k: usize) -> u64 {
        q.board.desc(k).unwrap().word.load(Ordering::SeqCst) >> 2
    }

    /// Descriptors in use (odd `seq`).
    fn claimed(q: &OptimalQueue) -> Vec<usize> {
        (0..q.board.pool_len())
            .filter(|&k| seq_of(q, k) % 2 == 1)
            .collect()
    }

    /// Both of a thread's own descriptors parked in *other* threads'
    /// slots (`retained_in_ops`): the claim wraps into the rest of the pool.
    /// Driven sequentially — threads 0 and 2 each cover a cell and stall
    /// just before `complete_op`'s clearing CAS, thread 1 works around them.
    #[test]
    fn claim_falls_back_when_both_own_descriptors_are_parked() {
        let q = OptimalQueue::with_capacity_and_threads(2, 3);
        let _h0 = q.register();
        let mut h1 = q.register();
        let _h2 = q.register();
        for (tid, e, x) in [(0usize, 0u64, 11u64), (2, 1, 22)] {
            let v = q.claim_desc(tid, e, x);
            assert_eq!(v.index, 2 * tid, "own descriptor first");
            assert!(q.put_op(tid, v));
            // `complete_op` up to, not including, its clearing CAS.
            q.a[e as usize].store(x, Ordering::SeqCst);
            q.enqueues
                .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
                .unwrap();
        }
        assert_eq!(q.dequeue(&mut h1), Some(11));
        assert_eq!(q.dequeue(&mut h1), Some(22));
        // Round 1 of both cells: thread 1 replaces in slot 0, then slot 2.
        q.enqueue(&mut h1, 33).unwrap();
        q.enqueue(&mut h1, 44).unwrap();
        assert_eq!(
            claimed(&q),
            [2, 3],
            "thread 1's pair, parked in slots 0 and 2"
        );
        assert_ne!(q.board.op(0).load(Ordering::SeqCst), 0);
        assert_eq!(
            q.board.op(1).load(Ordering::SeqCst),
            0,
            "own slot never used"
        );
        assert_ne!(q.board.op(2).load(Ordering::SeqCst), 0);
        assert_eq!(q.dequeue(&mut h1), Some(33));
        assert_eq!(q.dequeue(&mut h1), Some(44));
        // The third claim finds neither own descriptor free.
        let v = q.claim_desc(1, 4, 55);
        assert_eq!(v.index, 4, "wrapped past the own pair");
        assert_eq!(
            q.apply(1, v),
            Outcome::Success {
                retained_in_ops: true
            }
        );
        q.help_enqueues(4);
        // Threads 0 and 2 resume and complete whatever their slots hold now.
        q.complete_op(0);
        q.complete_op(2);
        assert_eq!(
            claimed(&q),
            [0usize; 0],
            "all descriptors returned to the pool"
        );
        assert_eq!(q.dequeue(&mut h1), Some(55));
        assert_eq!(q.dequeue(&mut h1), None);
    }

    /// A queue nobody registered on (`next_tid` = 0) still scans slot 0,
    /// where the `exclusive()` handle announces.
    #[test]
    fn exclusive_handle_works_with_zero_registrations() {
        let q = OptimalQueue::with_capacity_and_threads(2, 3);
        let mut h = OptimalHandle::exclusive();
        for round in 0..3u64 {
            q.enqueue(&mut h, 1 + round).unwrap();
            q.enqueue(&mut h, 100 + round).unwrap();
            assert_eq!(q.enqueue(&mut h, 9), Err(Full(9)));
            assert_eq!(q.dequeue(&mut h), Some(1 + round));
            assert_eq!(q.dequeue(&mut h), Some(100 + round));
            assert_eq!(q.dequeue(&mut h), None);
        }
        assert_eq!(q.next_tid.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn register_beyond_t_panics_and_leaves_the_queue_usable() {
        let q = OptimalQueue::with_capacity_and_threads(2, 2);
        let mut h0 = q.register();
        let mut h1 = q.register();
        for _ in 0..2 {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.register()))
                .expect_err("a third handle on T = 2");
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert_eq!(
                msg,
                "more threads registered than the queue was sized for (T = 2)"
            );
        }
        // `next_tid` now reads 4 > T: the scan bound is clamped to T.
        q.enqueue(&mut h0, 1).unwrap();
        q.enqueue(&mut h1, 2).unwrap();
        assert_eq!(q.enqueue(&mut h0, 3), Err(Full(3)));
        assert_eq!(q.dequeue(&mut h1), Some(1));
        assert_eq!(q.dequeue(&mut h0), Some(2));
        assert_eq!(q.dequeue(&mut h1), None);
    }

    /// `producers` + `consumers` threads on `q`, each thread registering
    /// when `start(thread index)` returns; distinct values. With `batch >
    /// 1` every other consumer (the first included) takes runs of up to
    /// `batch` through `dequeue_many`. Checks exact conservation and, per
    /// consumer, FIFO order of every producer's values.
    fn mpmc_conserves(
        q: &OptimalQueue,
        producers: u64,
        consumers: u64,
        per: u64,
        batch: usize,
        start: impl Fn(u64, &std::sync::atomic::AtomicU64) + Sync,
    ) {
        use std::sync::atomic::AtomicU64;
        let total = producers * per;
        let taken = AtomicU64::new(0);
        let got: Vec<Vec<u64>> = std::thread::scope(|s| {
            for p in 0..producers {
                let (start, taken) = (&start, &taken);
                s.spawn(move || {
                    start(p, taken);
                    let mut h = q.register();
                    for k in 0..per {
                        while q.enqueue(&mut h, 1 + p * per + k).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let cs: Vec<_> = (0..consumers)
                .map(|c| {
                    let (start, taken) = (&start, &taken);
                    s.spawn(move || {
                        start(producers + c, taken);
                        let mut h = q.register();
                        let mut mine = Vec::new();
                        let max = if c % 2 == 0 { batch } else { 1 };
                        while taken.load(Ordering::SeqCst) < total {
                            let n = if max == 1 {
                                q.dequeue(&mut h).map_or(0, |v| {
                                    mine.push(v);
                                    1
                                })
                            } else {
                                q.dequeue_many(&mut h, max, &mut mine)
                            };
                            if n == 0 {
                                std::thread::yield_now();
                            }
                            taken.fetch_add(n as u64, Ordering::SeqCst);
                        }
                        mine
                    })
                })
                .collect();
            cs.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = Vec::new();
        for mine in &got {
            let mut last = vec![0u64; producers as usize];
            for &v in mine {
                let p = ((v - 1) / per) as usize;
                assert!(
                    v > last[p],
                    "per-producer FIFO violated: {v} after {}",
                    last[p]
                );
                last[p] = v;
            }
            all.extend(mine);
        }
        all.sort_unstable();
        assert_eq!(all, (1..=total).collect::<Vec<_>>(), "exact conservation");
        assert!(q.is_empty());
        assert_eq!(claimed(q), [0usize; 0]);
    }

    /// All `T` handles registered: the bounded scan is the full scan.
    #[test]
    fn full_board_registered_four_threads_working() {
        let q = OptimalQueue::with_capacity_and_threads(4, 8);
        let _idle: Vec<_> = (0..4).map(|_| q.register()).collect();
        mpmc_conserves(&q, 2, 2, 3_000, 1, |_, _| {});
        assert_eq!(q.next_tid.load(Ordering::SeqCst), 8);
    }

    /// Threads that register late, while others are mid-traffic: two start,
    /// six more join one by one as the count of dequeued elements passes
    /// their threshold — every scan bound from 2 to 8 is live at some point.
    /// (Debug builds arm every `debug_assert!` on the path; the own-slot
    /// check in `put_op` is an `assert!` in every build.)
    #[test]
    fn late_registrations_join_a_queue_mid_traffic() {
        let q = OptimalQueue::with_capacity_and_threads(3, 8);
        let (per, order) = (2_000u64, [0u64, 2, 4, 6, 1, 3, 5, 7]);
        // Thread `t` (producers 0..4, consumers 4..8) is the
        // `order[t]`-th to register; the first two (a producer and a
        // consumer) start at once.
        mpmc_conserves(&q, 4, 4, per, 1, |t, taken| {
            let after = order[t as usize].saturating_sub(1) * per / 4;
            while taken.load(Ordering::SeqCst) < after {
                std::thread::yield_now();
            }
        });
        assert_eq!(q.next_tid.load(Ordering::SeqCst), 8);
    }

    /// Runs of `dequeue_many` racing single dequeues and two producers on
    /// a three-cell ring: every run is claimed whole or retried whole.
    #[test]
    fn batch_consumers_race_single_ones() {
        let q = OptimalQueue::with_capacity_and_threads(3, 4);
        mpmc_conserves(&q, 2, 2, 3_000, 3, |_, _| {});
    }

    /// A run whose first element is still in flight: thread 0's descriptor
    /// for position 0 was decided and the counter helped past it, but the
    /// cell was never written. The run takes 11 from the board and 22 from
    /// its cell, and the stalled thread's late write-back changes nothing.
    #[test]
    fn dequeue_many_takes_in_flight_elements_from_the_board() {
        let q = OptimalQueue::with_capacity_and_threads(4, 2);
        let _h0 = q.register();
        let mut h1 = q.register();
        let v = q.claim_desc(0, 0, 11);
        assert!(q.put_op(0, v));
        q.help_enqueues(0);
        q.enqueue(&mut h1, 22).unwrap();
        assert_eq!(q.a[0].load(Ordering::SeqCst), NULL, "cell 0 never written");
        let mut out = vec![7];
        assert_eq!(q.dequeue_many(&mut h1, 8, &mut out), 2);
        assert_eq!(out, [7, 11, 22], "appended after what `out` held");
        q.complete_op(0);
        assert_eq!(q.dequeue_many(&mut h1, 8, &mut out), 0);
        assert_eq!(claimed(&q), [0usize; 0]);
        q.enqueue(&mut h1, 33).unwrap();
        assert_eq!(q.dequeue(&mut h1), Some(33));
    }

    /// An empty queue whose every descriptor's incarnation starts at `seq`
    /// (even = free).
    fn with_descriptor_seq(c: usize, t: usize, seq: u64) -> OptimalQueue {
        assert!(seq.is_multiple_of(2) && seq <= SEQ_MASK);
        let q = OptimalQueue::with_capacity_and_threads(c, t);
        for d in q.board.descs() {
            d.word.store(pack_word(seq, ST_UNDECIDED), Ordering::SeqCst);
        }
        q
    }

    /// The 2⁴⁸ wrap of the descriptor incarnation. The packed refs carry 48
    /// bits of it; the counter used to run on past them, after which
    /// `view_packed` compared a 49-bit `seq` with a 48-bit one and
    /// `read_op` re-read forever (the third reuse from `2⁴⁸ − 6` never
    /// returned). The counter itself wraps now: cross it with FIFO,
    /// full/empty and the pool checked at every step.
    #[test]
    fn descriptor_seq_crosses_two_to_the_48() {
        for c in [1usize, 3] {
            let q = with_descriptor_seq(c, 2, (1 << SEQ_BITS) - 6);
            let mut h = q.register();
            let mut next = 1u64;
            for round in 0..8 {
                for _ in 0..c {
                    q.enqueue(&mut h, next).unwrap();
                    next += 1;
                }
                assert_eq!(q.enqueue(&mut h, 9), Err(Full(9)), "c={c} round {round}");
                for back in (1..=c as u64).rev() {
                    assert_eq!(q.dequeue(&mut h), Some(next - back), "c={c} round {round}");
                }
                assert_eq!(q.dequeue(&mut h), None);
                assert_eq!(claimed(&q), [0usize; 0]);
            }
            let own = seq_of(&q, 0);
            assert!(own < 64, "descriptor 0 wrapped: seq {own}");
        }
    }

    /// 2P + 2C across the wrap: every producer's own descriptors cross it
    /// within its first three enqueues, under contention on a tiny ring.
    #[test]
    fn descriptor_seq_wrap_conserves_under_contention() {
        let q = with_descriptor_seq(2, 4, (1 << SEQ_BITS) - 6);
        mpmc_conserves(&q, 2, 2, 3_000, 1, |_, _| {});
        for d in q.board.descs() {
            assert!(d.word.load(Ordering::SeqCst) >> 2 <= SEQ_MASK);
        }
    }

    /// A helper that read incarnation `s` undecided and was descheduled
    /// across one whole reuse of the descriptor: its verdict CAS names
    /// `(s, undecided)` and cannot land on `s + 2` — here with `s` the last
    /// odd value below 2⁴⁸, so `s + 2` is 1 and the word's high bits wrapped
    /// in between.
    #[test]
    fn stale_decide_cannot_flip_the_next_incarnation_across_the_wrap() {
        let q = with_descriptor_seq(2, 2, (1 << SEQ_BITS) - 2);
        let stale = q.claim_desc(0, 0, 7);
        assert_eq!((stale.index, stale.seq), (0, SEQ_MASK));
        q.free_desc(stale, ST_UNDECIDED);
        assert_eq!(seq_of(&q, 0), 0, "freed across the wrap");
        let live = q.claim_desc(0, 1, 8);
        assert_eq!((live.index, live.seq), (0, 1));
        for success in [true, false] {
            q.decide(stale, success);
            assert_eq!(q.verdict(live), None, "stale decide({success}) landed");
        }
        assert_eq!(q.view_packed(stale.packed), None);
        q.decide(live, false);
        q.decide(stale, true);
        assert_eq!(q.verdict(live), Some(false), "verdicts are final");
        assert_eq!(q.view_packed(live.packed).unwrap().state, ST_FAILURE);
        q.free_desc(live, ST_FAILURE);
        assert_eq!(claimed(&q), [0usize; 0]);
    }

    /// The announcement is a store, not a CAS (DESIGN.md §7.2): the check
    /// the CAS carried stays a release-mode `assert!`, so a ref planted in
    /// the caller's own slot stops the enqueue instead of being
    /// overwritten.
    #[test]
    #[should_panic(expected = "own announcement slot 0 is occupied")]
    fn enqueue_into_an_occupied_own_slot_panics() {
        let q = OptimalQueue::with_capacity_and_threads(4, 2);
        let mut h = q.register();
        let planted = q.claim_desc(1, 0, 7);
        q.board.op(0).store(planted.packed, Ordering::SeqCst);
        let _ = q.enqueue(&mut h, 9);
    }

    /// The free is a store, not a CAS: freeing one incarnation twice would
    /// hand the descriptor to two claimants, and the debug check says so.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double free of descriptor 0")]
    fn second_free_of_one_view_panics() {
        let q = OptimalQueue::with_capacity_and_threads(4, 2);
        let view = q.claim_desc(0, 0, 7);
        q.free_desc(view, ST_UNDECIDED);
        q.free_desc(view, ST_UNDECIDED);
    }

    /// `MAX_TOKEN` through both of a dequeue's sources: the cell
    /// `complete_op` wrote back, and an announced descriptor `read_elem`
    /// finds before the cell is written — one by one and in a run.
    #[test]
    fn max_token_through_the_cell_and_the_descriptor() {
        let q = OptimalQueue::with_capacity_and_threads(2, 2);
        let _h0 = q.register();
        let mut h1 = q.register();
        q.enqueue(&mut h1, MAX_TOKEN).unwrap();
        assert_eq!(q.a[0].load(Ordering::SeqCst), MAX_TOKEN, "written back");
        assert_eq!(q.dequeue(&mut h1), Some(MAX_TOKEN));
        for batch in [false, true] {
            // Thread 0's descriptor for the next position is decided and
            // the counter helped past it; its cell is not written yet and
            // holds no earlier round's value, so only the board has it.
            let e = q.enqueues.load(Ordering::SeqCst);
            q.cell(e).store(NULL, Ordering::SeqCst);
            let v = q.claim_desc(0, e, MAX_TOKEN);
            assert!(q.put_op(0, v));
            q.help_enqueues(e);
            assert_eq!(q.read_elem(e), (MAX_TOKEN, true), "found on the board");
            if batch {
                let mut out = Vec::new();
                assert_eq!(q.dequeue_many(&mut h1, 2, &mut out), 1);
                assert_eq!(out, [MAX_TOKEN]);
            } else {
                assert_eq!(q.dequeue(&mut h1), Some(MAX_TOKEN));
            }
            q.complete_op(0);
            assert_eq!(q.cell(e).load(Ordering::SeqCst), MAX_TOKEN);
        }
        q.enqueue(&mut h1, MAX_TOKEN).unwrap();
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(&mut h1, 2, &mut out), 1);
        assert_eq!(out, [MAX_TOKEN], "a run from the cell");
        assert_eq!(claimed(&q), [0usize; 0]);
    }

    /// The largest thread bound, `2¹⁵ − 1`.
    const T_MAX: usize = (1 << 15) - 1;

    #[test]
    #[should_panic(expected = "thread bound must be in 1..2^15")]
    fn thread_bound_two_to_the_15_is_rejected() {
        OptimalQueue::with_capacity_and_threads(1, 1 << 15);
    }

    /// A queue at `T = 2¹⁵ − 1` with every lane registered, and a handle on
    /// the top lane whose claims land on the pool's last descriptor,
    /// `2T − 1 = 65 533`: its own first one, `2T − 2`, is held (as if
    /// parked in another thread's slot).
    fn top_lane_queue(c: usize) -> (OptimalQueue, OptimalHandle) {
        let q = OptimalQueue::with_capacity_and_threads(c, T_MAX);
        q.next_tid.store(T_MAX, Ordering::SeqCst);
        let held = q.board.desc(2 * T_MAX - 2).unwrap();
        held.word.store(pack_word(1, ST_SUCCESS), Ordering::SeqCst);
        let h = OptimalHandle {
            tid: T_MAX - 1,
            obs: SharedQueueCounters::new().local(),
        };
        (q, h)
    }

    #[test]
    fn top_lane_claims_the_last_descriptor() {
        let (q, h) = top_lane_queue(1);
        assert_eq!(q.board.pool_len(), 2 * T_MAX);
        let v = q.claim_desc(h.tid, 0, 5);
        assert_eq!(v.index, 65_533);
        assert!(v.packed >> 63 == 1, "the index fills bits 48..64");
        assert_eq!((unpack_index(v.packed), unpack_seq(v.packed)), (65_533, 1));
        assert_eq!(q.view_packed(v.packed), Some(v));
        q.free_desc(v, ST_UNDECIDED);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The same spec at the thread bound's edge, from the top lane of
        /// a full board (`top_lane_queue`): every scan reads all `T` slots,
        /// so 8 cases, not 64.
        #[test]
        fn sequential_spec_on_the_top_lane(
            c in 1usize..4,
            script in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..40),
        ) {
            let (q, mut h) = top_lane_queue(c);
            let mut model = std::collections::VecDeque::new();
            let mut next = 1u64;
            for is_enq in script {
                if is_enq {
                    let accepted = q.enqueue(&mut h, next).is_ok();
                    proptest::prop_assert_eq!(accepted, model.len() < c);
                    if accepted {
                        model.push_back(next);
                    }
                    next += 1;
                } else {
                    proptest::prop_assert_eq!(q.dequeue(&mut h), model.pop_front());
                }
            }
            proptest::prop_assert_eq!(seq_of(&q, 2 * T_MAX - 1) % 2, 0, "returned to the pool");
        }
    }

    /// Where the padding went, as addresses on a live queue: `enqueues`,
    /// `dequeues` and `active_op` on three distinct 64-byte lines, and the
    /// fields every operation only reads (`a`, `board`, `next_tid`) on none
    /// of them — a CAS on one hot word invalidates nothing else.
    #[test]
    fn hot_words_sit_on_private_lines() {
        fn line<T>(r: &T) -> usize {
            let at = r as *const T as usize;
            assert_eq!(at / 64, (at + std::mem::size_of::<T>() - 1) / 64);
            at / 64
        }
        let q = Box::new(OptimalQueue::with_capacity_and_threads(8, 3));
        let hot = [line(&q.enqueues), line(&q.dequeues), line(&q.active_op)];
        assert!(hot[0] != hot[1] && hot[1] != hot[2] && hot[0] != hot[2]);
        for cold in [line(&q.a), line(&q.board), line(&q.next_tid)] {
            assert!(!hot.contains(&cold), "a read-mostly field on a hot line");
        }
        assert_eq!(std::mem::align_of::<OptimalQueue>(), 64);
        // The 192 bytes `footprint()` claims for them are these lines.
        assert_eq!(3 * std::mem::size_of::<HotWord>(), 192);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `same_cell` is `e % c == pos % c` without the two divisions:
        /// positions near 0, near each other, rounds apart and at the top
        /// of the `u64` range (ROADMAP item 1(a)'s position edge); `c = 1`
        /// included, where every position is cell 0.
        #[test]
        fn same_cell_is_congruence_mod_c(
            c in 1u64..65,
            region in 0u8..3,
            near in 0u64..200,
            anywhere in proptest::prelude::any::<u64>(),
            gap in 0u64..200,
            rounds in 0u64..4,
        ) {
            let base = match region {
                0 => near,
                1 => u64::MAX - near,
                _ => anywhere,
            };
            for pos in [
                base.saturating_add(gap),
                base.saturating_sub(gap),
                base.saturating_add(rounds * c),
                base.saturating_sub(rounds * c),
            ] {
                proptest::prop_assert_eq!(same_cell(base, pos, c), base % c == pos % c);
                proptest::prop_assert_eq!(same_cell(pos, base, c), base % c == pos % c);
            }
        }

        /// The sequential spec (Figure 1) across the incarnation wrap: an
        /// arbitrary script on a queue whose descriptors start a few
        /// reuses below 2⁴⁸ behaves like a bounded `VecDeque`.
        #[test]
        fn sequential_spec_across_the_seq_wrap(
            c in 1usize..5,
            below in 1u64..8,
            script in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..120),
        ) {
            let q = with_descriptor_seq(c, 2, (1 << SEQ_BITS) - 2 * below);
            let mut h = q.register();
            let mut model = std::collections::VecDeque::new();
            let mut next = 1u64;
            for is_enq in script {
                if is_enq {
                    let accepted = q.enqueue(&mut h, next).is_ok();
                    proptest::prop_assert_eq!(accepted, model.len() < c);
                    if accepted {
                        model.push_back(next);
                    }
                    next += 1;
                } else {
                    proptest::prop_assert_eq!(q.dequeue(&mut h), model.pop_front());
                }
                proptest::prop_assert_eq!(q.len(), model.len());
            }
        }

        /// `dequeue_many` against the same spec: a script of enqueues (0)
        /// and runs of up to 1–4 (the op's value), on rings of 1–4 cells.
        #[test]
        fn dequeue_many_matches_the_sequential_spec(
            c in 1usize..5,
            script in proptest::collection::vec(0usize..5, 1..120),
        ) {
            let q = OptimalQueue::with_capacity_and_threads(c, 1);
            let mut h = q.register();
            let mut model = std::collections::VecDeque::new();
            let mut next = 1u64;
            for op in script {
                if op == 0 {
                    let accepted = q.enqueue(&mut h, next).is_ok();
                    proptest::prop_assert_eq!(accepted, model.len() < c);
                    if accepted {
                        model.push_back(next);
                    }
                    next += 1;
                } else {
                    let mut out = Vec::new();
                    let n = q.dequeue_many(&mut h, op, &mut out);
                    let want: Vec<u64> = (0..op).map_while(|_| model.pop_front()).collect();
                    proptest::prop_assert_eq!(n, want.len());
                    proptest::prop_assert_eq!(out, want);
                }
            }
        }
    }

    #[test]
    fn packing_roundtrip() {
        for &(idx, seq) in &[(0usize, 1u64), (3, 7), (1000, 12345)] {
            let p = pack_ref(idx, seq);
            assert_ne!(p, 0);
            assert_eq!(unpack_index(p), idx);
            assert_eq!(unpack_seq(p), seq);
        }
    }
}
