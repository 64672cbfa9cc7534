//! `ShmQueue<T>` — an N-producer/M-consumer bounded queue whose entire
//! shared state lives inside a [`ShmSegment`], built on the relocatable
//! [`RelocRing`] layout, under a **crash-consistent publication protocol**
//! (DESIGN.md §10.3).
//!
//! ## The protocol
//!
//! The per-slot sequence word of the Vyukov layout is re-encoded as
//!
//! ```text
//! bits 0..=47   round     (the global position the slot serves, mod 2⁴⁸)
//! bits 48..=49  state     FREE → CLAIMED → PUB → CONSUMING → FREE(+C)
//! bits 50..=57  owner     process-table index of the claimant
//! ```
//!
//! so the slot word *names the process that must finish the transition* —
//! that is what makes orphaned operations reclaimable. The linearization
//! points are chosen for crash-consistency: an **enqueue linearizes at its
//! publish CAS (W4)**, a **dequeue at its claim CAS (V1)**. Everything a
//! process does between claiming and publishing is private-until-published,
//! so a death in the window aborts the op cleanly instead of tearing it.
//!
//! `head` and `tail` are full 64-bit positions. A slot's round is
//! compared with them mod 2⁴⁸, and every position the protocol writes
//! back (a help CAS, a reclaim's `FREE(pos + C)`) is rebuilt from the
//! full position the caller read, so the queue runs through the 2⁴⁸ edge
//! (DESIGN.md §10.3).
//!
//! ## Per-write crash-consistency argument (enqueue path)
//!
//! A producer that dies immediately after each shared write leaves:
//!
//! | after | shared state left behind | who recovers, and how |
//! |-------|--------------------------|------------------------|
//! | (none) | nothing | nothing to recover |
//! | W1 claim CAS `FREE(t)→CLAIMED(t,me)` | slot claimed, `tail` possibly still `t` | any producer seeing `round == tail` helps `tail → t+1`; the claim is orphaned (next row) |
//! | W2 tail help CAS `t→t+1` | orphaned `CLAIMED(t,me)` | a consumer reaching `head == t` (or a producer seeing the slot one round later) asks the liveness oracle; dead owner ⇒ reclaim CAS `CLAIMED(t)→FREE(t+C)` + help `head → t+1`. The enqueue never linearized: no element is lost *from the queue* — the value died unpublished with its producer |
//! | W3 value write | same as W2 — the payload bytes are unreachable while the word says `CLAIMED`, so the torn/complete value is never observed | same reclaim as W2 |
//! | W4 publish CAS `CLAIMED→PUB(t,me)` | a fully published element | ordinary dequeues; the producer's death after its linearization point is invisible |
//!
//! The dequeue path mirrors it: death between the claim (V1, linearization)
//! and the release (V4) leaves `CONSUMING(h,me)`; a producer arriving one
//! round later (or any consumer helping `head`) reclaims it to
//! `FREE(h+C)`. The element counts as consumed — the process died *after*
//! its dequeue took effect, exactly as if it died one instruction after
//! returning.
//!
//! ## Why reclaims cannot corrupt
//!
//! Reclaim fires only when the liveness oracle
//! ([`ShmSegment::proc_is_dead`]) answers *dead*, and both its sources
//! (parent-set flag after `waitpid`; `kill(pid,0) == ESRCH`) are one-sided:
//! a process reported dead executes no further instruction. Hence the
//! "delayed W3" hazard — a reclaimed-then-reused slot receiving a stale
//! value write — cannot arise. Defensively, every ownership transition is
//! still a CAS (never a blind store): if the oracle were ever wrong, the
//! wrongly-reclaimed owner's publish/release CAS would fail and the
//! operation retries instead of tearing.
//!
//! ## Element bounds
//!
//! `T:`[`Pod`] — plain old data. `Drop` types are rejected by the `Copy`
//! bound on purpose: destructors cannot be guaranteed to run in a process
//! that can die between any two instructions, so owning types would leak
//! or double-free across the segment. Pointer-bearing types are rejected
//! because a pointer is only meaningful in the address space that wrote it
//! (the segment maps at different addresses in different processes).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bq_core::relocatable::{Pod, RelocRing};

use crate::segment::{ShmBox, ShmSegment};

const ROUND_BITS: u32 = 48;
const ROUND_MASK: u64 = (1 << ROUND_BITS) - 1;
const STATE_SHIFT: u32 = 48;
const OWNER_SHIFT: u32 = 50;

/// Slot states (2 bits at [`STATE_SHIFT`]).
const FREE: u64 = 0;
const CLAIMED: u64 = 1;
const PUB: u64 = 2;
const CONSUMING: u64 = 3;

/// The slot word for full position `pos`: its round is `pos` mod 2⁴⁸.
#[inline]
fn pack(pos: u64, state: u64, owner: usize) -> u64 {
    debug_assert!(state <= 3);
    debug_assert!(owner < 256);
    (pos & ROUND_MASK) | (state << STATE_SHIFT) | ((owner as u64) << OWNER_SHIFT)
}

/// `round − pos` mod 2⁴⁸, sign-extended: how far the slot's round is
/// ahead of (> 0) or behind (< 0) the full position `pos`. Every round a
/// slot can hold is within a few `C` of the positions read beside it,
/// far inside ±2⁴⁷, so the sign is always the true order.
#[inline]
fn delta(round: u64, pos: u64) -> i64 {
    ((round.wrapping_sub(pos) << (64 - ROUND_BITS)) as i64) >> (64 - ROUND_BITS)
}

#[inline]
fn unpack(w: u64) -> (u64, u64, usize) {
    (
        w & ROUND_MASK,
        (w >> STATE_SHIFT) & 0b11,
        (w >> OWNER_SHIFT) as usize & 0xff,
    )
}

/// Layout tag for a `ShmQueue` payload: protocol id + element size, so an
/// attach with a differently-sized `T` is refused at the header check.
pub fn layout_tag<T>() -> u64 {
    0x5348_5131_0000_0000 | std::mem::size_of::<T>() as u64
}

/// Per-process (per-registrant) handle: the owner identity baked into
/// claim words, plus the fault-injection state used by the soak and
/// crash tests (see [`FaultPlan`](crate::FaultPlan)).
///
/// Not `Clone`, and every operation takes it `&mut`: the handle is the
/// only writer of its process-table slot's `attempts` and `claims`
/// words, which is what lets it count with plain stores (DESIGN.md
/// §14.3).
#[derive(Debug)]
pub struct ShmHandle {
    proc_idx: usize,
    faults: crate::fault::FaultState,
}

impl ShmHandle {
    /// This handle's process-table slot.
    pub fn proc_idx(&self) -> usize {
        self.proc_idx
    }

    /// Arm crash injection: the next enqueue or dequeue performs exactly
    /// `n` shared accesses and then `SIGKILL`s the calling process.
    /// Compat wrapper over [`apply_plan`](Self::apply_plan) with a
    /// kill-only plan (used by the crash-injection suite).
    pub fn arm_crash_after_writes(&mut self, n: u64) {
        self.faults.arm_kill(n);
    }

    /// Arm a full [`FaultPlan`](crate::FaultPlan) on this handle: kill
    /// countdown, injected delays, and forced refusals all start fresh.
    /// (`drop_wakes` is driver-side and ignored here.)
    pub fn apply_plan(&mut self, plan: &crate::FaultPlan) {
        self.faults.apply(plan);
    }

    /// The crash/delay gate, called once on operation entry and once
    /// after every protocol step (W1–W4 for enqueue, V1–V4 for dequeue)
    /// the operation performs.
    #[inline]
    fn crash_gate(&mut self) {
        self.faults.gate();
    }
}

/// The shared-memory multi-process bounded queue. See the module docs for
/// the protocol and its crash-consistency argument. Every shared access
/// goes through the segment's atomics under that protocol. `Clone` shares
/// the mapping.
#[derive(Clone)]
pub struct ShmQueue<T: Pod> {
    ring: ShmBox<RelocRing<T>>,
}

impl<T: Pod> ShmQueue<T> {
    /// Create a queue of capacity `c ≥ 2` in a fresh anonymous shared
    /// segment (shared with all future `fork` children).
    pub fn create_anon(c: usize) -> std::io::Result<ShmQueue<T>> {
        ShmBox::create_anon(c, layout_tag::<T>()).map(|ring| ShmQueue { ring })
    }

    /// Create a queue of capacity `c ≥ 2` in a file-backed segment at
    /// `path`, for unrelated processes to [`open_file`](Self::open_file).
    pub fn create_file(path: &std::path::Path, c: usize) -> std::io::Result<ShmQueue<T>> {
        ShmBox::create_file(path, c, layout_tag::<T>()).map(|ring| ShmQueue { ring })
    }

    /// Attach to a published queue segment file created by another
    /// process. A file whose segment or ring header does not check out
    /// (wrong tag, damaged capacity, too short) is `InvalidData`.
    pub fn open_file(path: &std::path::Path) -> std::io::Result<ShmQueue<T>> {
        ShmBox::open_file(path, layout_tag::<T>()).map(|ring| ShmQueue { ring })
    }

    /// The segment this queue lives in (for scratch counters, the process
    /// table, and harness coordination).
    pub fn segment(&self) -> &Arc<ShmSegment> {
        self.ring.segment()
    }

    /// Register the calling process (or thread) in the liveness table and
    /// return its handle. Panics when the table is full.
    pub fn register(&self) -> ShmHandle {
        ShmHandle {
            proc_idx: self.segment().register_self(),
            faults: crate::fault::FaultState::default(),
        }
    }

    /// Cross-process metrics for this queue's segment: the poison count
    /// plus every registered process's attempt/claim/reclaim counters
    /// (DESIGN.md §14). The counters live *in the segment*, so a
    /// `SIGKILL`ed participant's tallies remain readable here — call
    /// after [`recover`](Self::recover) for the post-mortem view.
    /// Always live (not `obs`-gated: segment layout is shared state).
    pub fn stats_snapshot(&self) -> bq_core::MetricsSnapshot {
        self.segment().stats_snapshot()
    }

    /// Capacity `C`.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Occupancy estimate from the counters (exact when quiescent).
    pub fn len(&self) -> usize {
        self.ring.counter_len()
    }

    /// Emptiness estimate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn dead(&self, owner: usize) -> bool {
        self.segment().proc_is_dead(owner)
    }

    /// Reclaim a slot whose owner died mid-transition: CAS the observed
    /// word to `FREE(pos + C)` and help `head` past `pos`, the full
    /// position the observed word's round stands for. Correct for
    /// both orphan kinds (see the table in the module docs): an orphaned
    /// `CLAIMED` never linearized (the position yields no element), an
    /// orphaned `CONSUMING` linearized at its claim (the element is gone).
    /// `by` is the process-table slot of the acting survivor (for the
    /// per-process reclaim counter); `None` from an unregistered caller
    /// (e.g. a bare `recover` sweep) leaves the reclaim unattributed —
    /// the segment-wide poison count records it either way.
    fn reclaim(&self, slot: usize, observed: u64, pos: u64, by: Option<usize>) -> bool {
        let won = self
            .ring
            .seq(slot)
            .compare_exchange(
                observed,
                pack(pos + self.capacity() as u64, FREE, 0),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok();
        if won {
            self.segment().note_poison();
            if let Some(idx) = by {
                self.segment().note_proc_reclaim(idx);
            }
            let _ =
                self.ring
                    .head()
                    .compare_exchange(pos, pos + 1, Ordering::SeqCst, Ordering::SeqCst);
            // Also help `tail` past the position: an owner that died right
            // after its claim CAS (W1) never ran its tail help (W2), and
            // once this slot says `pos + C` nothing else would ever
            // advance `tail` — producers would spin on a position no slot
            // serves. Benign when `tail` already moved (the CAS fails).
            let _ =
                self.ring
                    .tail()
                    .compare_exchange(pos, pos + 1, Ordering::SeqCst, Ordering::SeqCst);
        }
        won
    }

    /// Proactively sweep the whole ring, reclaiming every slot whose
    /// owner the liveness oracle confirms dead — the eager counterpart of
    /// the lazy collision-time reclamation the enqueue/dequeue paths do
    /// (DESIGN.md §13.3). One sweep after a death restores the queue to a
    /// fully clean state: survivors never again collide with the
    /// victim's orphaned claims. Returns the number of slots reclaimed.
    ///
    /// Safe to run concurrently with live traffic and with other sweeps:
    /// every transition is the same dead-owner-guarded CAS the lazy path
    /// uses, so a racing sweep or consumer simply loses the CAS.
    pub fn recover(&self) -> usize {
        let mut reclaimed = 0;
        for slot in 0..self.capacity() {
            // Every in-flight round is within a few `C` of `head`, so
            // `head` rebuilds the slot's full position from its round.
            let hd = self.ring.head().load(Ordering::SeqCst);
            let w = self.ring.seq(slot).load(Ordering::SeqCst);
            let (r, st, owner) = unpack(w);
            if (st == CLAIMED || st == CONSUMING)
                && self.dead(owner)
                // The same verdict-then-CAS as the lazy path; `reclaim`
                // only CASes on the observed word, so a slot a racing
                // survivor already handled is left alone (and uncounted).
                && self.reclaim(slot, w, hd.wrapping_add_signed(delta(r, hd)), None)
            {
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Enqueue `v`; `Err(v)` when full (relaxed, Vyukov-style: a slot
    /// still held by the previous round's consumer reports full).
    ///
    /// Shared writes, in order: **W1** claim CAS, **W2** tail help CAS,
    /// **W3** value write, **W4** publish CAS (the linearization point).
    /// The crash gate in `h` fires after each.
    #[inline]
    pub fn enqueue(&self, h: &mut ShmHandle, v: T) -> Result<(), T> {
        if h.faults.take_refusal() {
            return Err(v); // injected refusal: full, nothing touched
        }
        // Per-process attempt count in the segment (DESIGN.md §14): one
        // tick per real protocol entry, attributed to this handle's slot
        // so it survives the process. Injected refusals stay uncounted —
        // they touch no shared state by contract. The handle is the
        // slot's only writer: a plain store, no locked RMW (§14.3).
        self.segment().note_own_attempt(h.proc_idx);
        h.crash_gate(); // kill point 0: before any shared write
        loop {
            let t = self.ring.tail().load(Ordering::SeqCst);
            let slot = self.ring.slot_of(t);
            let w = self.ring.seq(slot).load(Ordering::SeqCst);
            let (r, st, owner) = unpack(w);
            let d = delta(r, t);
            if d == 0 && st == FREE {
                if self
                    .ring
                    .seq(slot)
                    .compare_exchange(
                        w,
                        pack(t, CLAIMED, h.proc_idx),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    // W1 done: the claim names us; the value is still ours.
                    self.segment().note_own_claim(h.proc_idx);
                    h.crash_gate();
                    let _ = self.ring.tail().compare_exchange(
                        t,
                        t + 1,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    // W2 done (possibly a no-op if a helper beat us).
                    h.crash_gate();
                    // SAFETY: the claim CAS granted us exclusive write
                    // access to this slot's payload for round `t`.
                    unsafe { self.ring.val_write(slot, v) };
                    // W3 done: bytes written, still unreachable (CLAIMED).
                    h.crash_gate();
                    if self
                        .ring
                        .seq(slot)
                        .compare_exchange(
                            pack(t, CLAIMED, h.proc_idx),
                            pack(t, PUB, h.proc_idx),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        // W4 done: linearized.
                        h.crash_gate();
                        return Ok(());
                    }
                    // Publish failed: our claim was reclaimed. Only a
                    // false "dead" verdict can cause this (the oracle
                    // precludes it for live processes); retry defensively
                    // — the enqueue has not happened.
                    continue;
                }
                continue; // lost the claim race
            }
            if d == 0 {
                // Someone claimed round `t` but its tail help hasn't
                // landed; help and retry on the next position.
                let _ =
                    self.ring
                        .tail()
                        .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst);
                continue;
            }
            if d > 0 {
                continue; // stale tail read; reload
            }
            // r < t: the slot still serves round `t - C`.
            let pos = t.wrapping_add_signed(d);
            match st {
                PUB => return Err(v), // element awaiting dequeue: full
                CLAIMED => {
                    if self.dead(owner) {
                        // Orphaned enqueue from the previous round blocks
                        // the slot; reclaim it (it never linearized).
                        self.reclaim(slot, w, pos, Some(h.proc_idx));
                        continue;
                    }
                    return Err(v); // in-flight enqueue: transiently full
                }
                CONSUMING => {
                    if self.dead(owner) {
                        // Orphaned dequeue: it linearized at its claim;
                        // finish its release.
                        self.reclaim(slot, w, pos, Some(h.proc_idx));
                        continue;
                    }
                    return Err(v); // consumer mid-dequeue: transiently full
                }
                _ => continue, // FREE(r<t) is unreachable (claims are monotone)
            }
        }
    }

    /// Dequeue the oldest element; `None` when empty (relaxed: a slot
    /// claimed by an in-flight live producer reports empty).
    ///
    /// Shared accesses, in order: **V1** claim CAS (the linearization
    /// point), **V2** head help CAS, **V3** value read, **V4** release
    /// CAS. The crash gate in `h` fires after each.
    #[inline]
    pub fn dequeue(&self, h: &mut ShmHandle) -> Option<T> {
        if h.faults.take_refusal() {
            return None; // injected refusal: empty, nothing touched
        }
        // Per-process attempt count, as in `enqueue`.
        self.segment().note_own_attempt(h.proc_idx);
        let c = self.capacity() as u64;
        h.crash_gate(); // kill point 0: before any shared access
        loop {
            let hd = self.ring.head().load(Ordering::SeqCst);
            let slot = self.ring.slot_of(hd);
            let w = self.ring.seq(slot).load(Ordering::SeqCst);
            let (r, st, owner) = unpack(w);
            let d = delta(r, hd);
            if d == 0 {
                match st {
                    PUB => {
                        if self
                            .ring
                            .seq(slot)
                            .compare_exchange(
                                w,
                                pack(hd, CONSUMING, h.proc_idx),
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .is_ok()
                        {
                            // V1 done: linearized — the element is ours.
                            self.segment().note_own_claim(h.proc_idx);
                            h.crash_gate();
                            let _ = self.ring.head().compare_exchange(
                                hd,
                                hd + 1,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            );
                            // V2 done (possibly a no-op if a helper beat us).
                            h.crash_gate();
                            // SAFETY: the claim CAS granted us exclusive
                            // read access to the published payload.
                            let v = unsafe { self.ring.val_read(slot) };
                            // V3 done: bytes read, slot still CONSUMING.
                            h.crash_gate();
                            // V4: release. A failure means a (necessarily
                            // false-dead-verdict) reclaim already moved
                            // the slot to exactly this target state; the
                            // value we read stays valid either way.
                            let _ = self.ring.seq(slot).compare_exchange(
                                pack(hd, CONSUMING, h.proc_idx),
                                pack(hd + c, FREE, 0),
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            );
                            // V4 done: slot recycled.
                            h.crash_gate();
                            return Some(v);
                        }
                        continue; // lost the claim race
                    }
                    CLAIMED => {
                        if self.dead(owner) {
                            // Orphaned enqueue at the head: it never
                            // linearized; skip the position.
                            self.reclaim(slot, w, hd, Some(h.proc_idx));
                            continue;
                        }
                        return None; // in-flight enqueue: transiently empty
                    }
                    CONSUMING => {
                        // Another consumer claimed `hd` but its head help
                        // hasn't landed. If it died, release for it.
                        if self.dead(owner) {
                            self.reclaim(slot, w, hd, Some(h.proc_idx));
                        } else {
                            let _ = self.ring.head().compare_exchange(
                                hd,
                                hd + 1,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            );
                        }
                        continue;
                    }
                    _ => return None, // FREE(hd): nothing ever enqueued here — empty
                }
            }
            if d > 0 {
                // Slot already recycled past `hd` (consumed + released)
                // but `head` lags; help it.
                let _ = self.ring.head().compare_exchange(
                    hd,
                    hd + 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                continue;
            }
            // r < hd: stale head read; reload.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        for &(r, st, o) in &[
            (0u64, FREE, 0usize),
            (7, CLAIMED, 3),
            (1 << 40, CONSUMING, 63),
        ] {
            let w = pack(r, st, o);
            assert_eq!(unpack(w), (r, st, o));
        }
        // Initial Vyukov seeding (seq = i) decodes as FREE(i) owner 0.
        assert_eq!(unpack(5), (5, FREE, 0));
        // A stored round orders against full positions across 2⁴⁸.
        let edge = 1u64 << ROUND_BITS;
        assert_eq!(delta(unpack(pack(edge, FREE, 0)).0, edge), 0);
        assert_eq!(delta(unpack(pack(edge + 3, FREE, 0)).0, edge - 1), 4);
        assert_eq!(delta(unpack(pack(edge - 2, PUB, 5)).0, edge + 2), -4);
        assert_eq!(delta(3, 7), -4);
    }

    #[test]
    fn sequential_fifo_and_relaxed_full() {
        let q = ShmQueue::<u64>::create_anon(4).unwrap();
        let mut h = q.register();
        for v in 1..=4 {
            q.enqueue(&mut h, v).unwrap();
        }
        assert_eq!(q.enqueue(&mut h, 5), Err(5));
        for v in 1..=4 {
            assert_eq!(q.dequeue(&mut h), Some(v));
        }
        assert_eq!(q.dequeue(&mut h), None);
    }

    #[test]
    fn wraparound_many_rounds() {
        let q = ShmQueue::<u64>::create_anon(3).unwrap();
        let mut h = q.register();
        for round in 0..300u64 {
            for i in 0..3 {
                q.enqueue(&mut h, round * 3 + i).unwrap();
            }
            assert_eq!(q.len(), 3);
            for i in 0..3 {
                assert_eq!(q.dequeue(&mut h), Some(round * 3 + i));
            }
        }
    }

    #[test]
    fn non_word_pod_elements() {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(C)]
        struct Msg {
            src: u32,
            kind: u32,
            body: [u8; 16],
        }
        // SAFETY: plain integers/bytes, repr(C), Copy — no pointers, no Drop.
        unsafe impl Pod for Msg {}

        let q = ShmQueue::<Msg>::create_anon(2).unwrap();
        let mut h = q.register();
        let m = Msg {
            src: 7,
            kind: 2,
            body: *b"hello, partition",
        };
        q.enqueue(&mut h, m).unwrap();
        assert_eq!(q.dequeue(&mut h), Some(m));
    }

    #[test]
    fn file_backed_attach_sees_same_elements() {
        let dir = std::env::temp_dir().join(format!("membq-shmq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("queue.seg");
        let q = ShmQueue::<u64>::create_file(&path, 8).unwrap();
        let mut h = q.register();
        q.enqueue(&mut h, 11).unwrap();
        q.enqueue(&mut h, 22).unwrap();

        // A second mapping of the same file — different base address,
        // same queue.
        let q2 = ShmQueue::<u64>::open_file(&path).unwrap();
        let mut h2 = q2.register();
        assert_eq!(q2.len(), 2);
        assert_eq!(q2.dequeue(&mut h2), Some(11));
        q2.enqueue(&mut h2, 33).unwrap();
        assert_eq!(q.dequeue(&mut h), Some(22));
        assert_eq!(q.dequeue(&mut h), Some(33));

        // Element-size mismatch is refused at the header.
        assert!(ShmQueue::<u32>::open_file(&path).is_err());
        drop(q);
        drop(q2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn threaded_conservation_in_one_process() {
        let q = ShmQueue::<u64>::create_anon(8).unwrap();
        let per = 3_000u64;
        let producers = 2u64;
        let total = per * producers;
        let mut ths = Vec::new();
        for p in 0..producers {
            let q = q.clone();
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
        while (seen.len() as u64) < total {
            match q.dequeue(&mut h) {
                Some(v) => assert!(seen.insert(v), "duplicate {v}"),
                None => std::thread::yield_now(),
            }
        }
        for t in ths {
            t.join().unwrap();
        }
        assert_eq!(q.dequeue(&mut h), None, "exact conservation");
    }

    #[test]
    fn orphaned_claim_is_reclaimed_not_wedged() {
        // Simulate a death between W1/W2/W3 and W4 without fork: register
        // a ghost "process", hand-craft its orphaned CLAIMED word at the
        // head position, and check both sides recover.
        let q = ShmQueue::<u64>::create_anon(2).unwrap();
        let mut h = q.register();
        let ghost = q.segment().register_proc(u32::MAX - 2); // ESRCH ⇒ dead
                                                             // Ghost claims position 0 (W1) and helps tail (W2), then "dies".
        let w0 = q.ring.seq(0).load(Ordering::SeqCst);
        q.ring
            .seq(0)
            .compare_exchange(
                w0,
                pack(0, CLAIMED, ghost),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .unwrap();
        q.ring
            .tail()
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .unwrap();
        // A live producer continues past the orphan...
        q.enqueue(&mut h, 42).unwrap();
        // ...and a consumer skips the never-linearized position 0 and
        // gets the real element at position 1.
        assert_eq!(q.dequeue(&mut h), Some(42));
        assert_eq!(q.dequeue(&mut h), None);
        // The queue remains fully usable through the reclaimed slot.
        for round in 0..10u64 {
            q.enqueue(&mut h, 100 + round).unwrap();
            assert_eq!(q.dequeue(&mut h), Some(100 + round));
        }
    }

    #[test]
    fn orphaned_consuming_is_released_by_producer() {
        let q = ShmQueue::<u64>::create_anon(2).unwrap();
        let mut h = q.register();
        let ghost = q.segment().register_proc(u32::MAX - 3);
        // Fill both slots, then let the ghost claim the head element's
        // dequeue (V1) and die before releasing (V4).
        q.enqueue(&mut h, 1).unwrap();
        q.enqueue(&mut h, 2).unwrap();
        let w = q.ring.seq(0).load(Ordering::SeqCst);
        q.ring
            .seq(0)
            .compare_exchange(
                w,
                pack(0, CONSUMING, ghost),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .unwrap();
        // The ghost's dequeue linearized: element 1 is gone. A producer
        // wanting the slot for round 2 releases it and succeeds.
        q.enqueue(&mut h, 3).unwrap();
        assert_eq!(q.dequeue(&mut h), Some(2));
        assert_eq!(q.dequeue(&mut h), Some(3));
        assert_eq!(q.dequeue(&mut h), None);
    }

    #[test]
    fn recover_sweep_reclaims_every_orphan_at_once() {
        let q = ShmQueue::<u64>::create_anon(4).unwrap();
        let mut h = q.register();
        let ghost = q.segment().register_proc(u32::MAX - 4); // ESRCH ⇒ dead
        q.enqueue(&mut h, 1).unwrap();
        q.enqueue(&mut h, 2).unwrap();
        // The ghost dies holding two orphans at once: a dequeue of the
        // head element stuck at CONSUMING (died after V1, linearized — 1
        // is gone) and an enqueue claim stuck at CLAIMED with its tail
        // help unperformed (died right after W1 — never linearized).
        let w0 = q.ring.seq(0).load(Ordering::SeqCst);
        q.ring
            .seq(0)
            .compare_exchange(
                w0,
                pack(0, CONSUMING, ghost),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .unwrap();
        let w2 = q.ring.seq(2).load(Ordering::SeqCst);
        q.ring
            .seq(2)
            .compare_exchange(
                w2,
                pack(2, CLAIMED, ghost),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .unwrap();

        // ONE sweep clears both; a second finds nothing left.
        assert_eq!(q.recover(), 2, "both orphans reclaimed in one sweep");
        assert_eq!(q.recover(), 0, "sweep is idempotent");
        assert_eq!(q.segment().poison_count(), 2, "faults were recorded");

        // The survivor sees exactly the still-published element and the
        // queue is fully operational through the reclaimed slots — no
        // collision-time reclamation left to do.
        assert_eq!(q.dequeue(&mut h), Some(2));
        assert_eq!(q.dequeue(&mut h), None);
        for round in 0..12u64 {
            q.enqueue(&mut h, 200 + round).unwrap();
            assert_eq!(q.dequeue(&mut h), Some(200 + round));
        }
        assert_eq!(q.segment().poison_count(), 2, "clean traffic adds none");
    }

    #[test]
    fn injected_refusals_touch_nothing() {
        let q = ShmQueue::<u64>::create_anon(4).unwrap();
        let mut h = q.register();
        q.enqueue(&mut h, 5).unwrap();
        h.apply_plan(&crate::FaultPlan {
            refuse_first: 2,
            ..crate::FaultPlan::default()
        });
        assert_eq!(q.enqueue(&mut h, 6), Err(6), "refusal reports full");
        assert_eq!(q.dequeue(&mut h), None, "refusal reports empty");
        assert_eq!(q.len(), 1, "refusals leave shared state untouched");
        // Budget spent: operations go through again.
        q.enqueue(&mut h, 7).unwrap();
        assert_eq!(q.dequeue(&mut h), Some(5));
        assert_eq!(q.dequeue(&mut h), Some(7));
    }

    #[test]
    fn per_process_counters_attribute_ops_and_survive_the_owner() {
        // The acceptance shape of DESIGN.md §14's cross-process story:
        // a participant's attempt/claim counters live in the segment, so
        // they remain readable after the participant dies, and the
        // survivor's lazy reclaim is attributed to the survivor.
        let q = ShmQueue::<u64>::create_anon(2).unwrap();
        let mut h = q.register();
        let me = h.proc_idx();
        let ghost = q.segment().register_proc(u32::MAX - 5); // ESRCH ⇒ dead

        // The "ghost process" runs one enqueue's W1 by hand (attempt +
        // claim recorded, as the real path would) and dies before W4.
        q.segment().note_proc_attempt(ghost);
        let w0 = q.ring.seq(0).load(Ordering::SeqCst);
        q.ring
            .seq(0)
            .compare_exchange(
                w0,
                pack(0, CLAIMED, ghost),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .unwrap();
        q.segment().note_proc_claim(ghost);
        q.ring
            .tail()
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .unwrap();

        // Survivor traffic: the enqueue lands at position 1; the dequeue
        // hits the orphan at the head and reclaims it (attributed here).
        q.enqueue(&mut h, 9).unwrap();
        assert_eq!(q.dequeue(&mut h), Some(9));

        let snap = q.stats_snapshot();
        // The dead process's tallies survived it, in the segment.
        assert_eq!(snap.get(&format!("proc{ghost}.attempts")), Some(1));
        assert_eq!(snap.get(&format!("proc{ghost}.claims")), Some(1));
        assert_eq!(snap.get(&format!("proc{ghost}.dead")), Some(1));
        // The survivor: one enqueue + one dequeue, both claims won, and
        // the reclaim of the ghost's orphan credited to it.
        assert_eq!(snap.get(&format!("proc{me}.attempts")), Some(2));
        assert_eq!(snap.get(&format!("proc{me}.claims")), Some(2));
        assert_eq!(snap.get(&format!("proc{me}.reclaims")), Some(1));
        assert_eq!(snap.get("poisoned"), Some(1));

        // Injected refusals touch no shared state — counters included.
        h.apply_plan(&crate::FaultPlan {
            refuse_first: 1,
            ..crate::FaultPlan::default()
        });
        assert_eq!(q.dequeue(&mut h), None);
        assert_eq!(
            q.stats_snapshot().get(&format!("proc{me}.attempts")),
            Some(2),
            "a refused op records no attempt"
        );
    }

    /// 2⁴⁸: the first position whose round reads 0 again.
    const EDGE: u64 = 1 << ROUND_BITS;

    /// An empty queue of capacity `c` whose next position is `start`:
    /// `head` = `tail` = `start`, each slot `FREE` for the first round it
    /// serves from there — the state `start` operations would leave, so
    /// the wrap-edge tests need not run 2⁴⁸ of them.
    fn queue_starting_at(c: usize, start: u64) -> ShmQueue<u64> {
        let q = ShmQueue::<u64>::create_anon(c).unwrap();
        for pos in start..start + c as u64 {
            q.ring
                .seq(q.ring.slot_of(pos))
                .store(pack(pos, FREE, 0), Ordering::SeqCst);
        }
        q.ring.head().store(start, Ordering::SeqCst);
        q.ring.tail().store(start, Ordering::SeqCst);
        q
    }

    #[test]
    fn round_wrap_at_two_to_the_48() {
        let c = 4;
        // One element at a time: three pairs below the edge, the pair at
        // 2⁴⁸ (where a 48-bit round used to bleed into the state bits: an
        // empty queue reported full, and an empty dequeue spun), and more
        // beyond it.
        let q = queue_starting_at(c, EDGE - 3);
        let mut h = q.register();
        for v in 0..3 * c as u64 {
            assert_eq!(q.enqueue(&mut h, v), Ok(()), "empty queue refused {v}");
            assert_eq!(q.dequeue(&mut h), Some(v));
        }
        assert_eq!(q.dequeue(&mut h), None);
        assert_eq!(q.ring.head().load(Ordering::SeqCst), EDGE + 9);

        // A full ring straddling the edge: `C` in, relaxed full, FIFO out,
        // twice over.
        let q = queue_starting_at(c, EDGE - 2);
        let mut h = q.register();
        for lap in 0..2u64 {
            for i in 0..c as u64 {
                q.enqueue(&mut h, lap * 10 + i).unwrap();
            }
            assert_eq!(q.len(), c);
            assert_eq!(q.enqueue(&mut h, 99), Err(99));
            for i in 0..c as u64 {
                assert_eq!(q.dequeue(&mut h), Some(lap * 10 + i));
            }
            assert_eq!(q.dequeue(&mut h), None);
        }
    }

    #[test]
    fn orphans_at_the_round_wrap_are_reclaimed() {
        // A ghost dies right after W1 at position 2⁴⁸, before its tail
        // help. The sweep must help `head` and `tail` from the full
        // position: helped from the 48-bit round (0), both CASes miss and
        // producers spin on a position no slot serves.
        let q = queue_starting_at(4, EDGE);
        let mut h = q.register();
        let ghost = q.segment().register_proc(u32::MAX - 6); // ESRCH ⇒ dead
        let slot = q.ring.slot_of(EDGE);
        let w = q.ring.seq(slot).load(Ordering::SeqCst);
        q.ring
            .seq(slot)
            .compare_exchange(
                w,
                pack(EDGE, CLAIMED, ghost),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .unwrap();
        assert_eq!(q.recover(), 1);
        assert_eq!(q.ring.head().load(Ordering::SeqCst), EDGE + 1);
        assert_eq!(q.ring.tail().load(Ordering::SeqCst), EDGE + 1);
        q.enqueue(&mut h, 7).unwrap();
        assert_eq!(q.dequeue(&mut h), Some(7));

        // The lazy path: the ghost claims the dequeue of position 2⁴⁸ − 1
        // (V1) and dies; the producer wanting that slot at 2⁴⁸ + 1 reclaims
        // it to `FREE(2⁴⁸ + 1)`, not to a round that overflows its bits.
        let q = queue_starting_at(2, EDGE - 1);
        let mut h = q.register();
        let ghost = q.segment().register_proc(u32::MAX - 6);
        q.enqueue(&mut h, 1).unwrap();
        q.enqueue(&mut h, 2).unwrap();
        let slot = q.ring.slot_of(EDGE - 1);
        let w = q.ring.seq(slot).load(Ordering::SeqCst);
        q.ring
            .seq(slot)
            .compare_exchange(
                w,
                pack(EDGE - 1, CONSUMING, ghost),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .unwrap();
        q.enqueue(&mut h, 3).unwrap();
        assert_eq!(q.dequeue(&mut h), Some(2));
        assert_eq!(q.dequeue(&mut h), Some(3));
        assert_eq!(q.dequeue(&mut h), None);
        assert_eq!(q.segment().poison_count(), 1);
    }

    #[test]
    fn threaded_conservation_across_the_round_wrap() {
        // One producer, one consumer, a small ring, 2⁴⁸ crossed halfway:
        // every element arrives once, in order, and nothing else does.
        let total = 6_000u64;
        let q = queue_starting_at(4, EDGE - total / 2);
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut h = q.register();
                for v in 1..=total {
                    while q.enqueue(&mut h, v).is_err() {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let mut h = q.register();
        let mut next = 1;
        while next <= total {
            match q.dequeue(&mut h) {
                Some(v) => {
                    assert_eq!(v, next, "FIFO across the wrap");
                    next += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(q.dequeue(&mut h), None, "exact conservation");
        assert_eq!(q.ring.head().load(Ordering::SeqCst), EDGE + total / 2);
    }

    #[test]
    fn live_owner_is_never_reclaimed() {
        // An in-flight CLAIMED slot owned by a *live* process must read as
        // transient full/empty, not get reclaimed.
        let q = ShmQueue::<u64>::create_anon(2).unwrap();
        let mut h = q.register();
        let me = h.proc_idx();
        let w0 = q.ring.seq(0).load(Ordering::SeqCst);
        q.ring
            .seq(0)
            .compare_exchange(w0, pack(0, CLAIMED, me), Ordering::SeqCst, Ordering::SeqCst)
            .unwrap();
        q.ring
            .tail()
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .unwrap();
        // Dequeue at the in-flight position: transiently empty.
        assert_eq!(q.dequeue(&mut h), None);
        // Finish the publication by hand (W3 + W4); now it's visible.
        // SAFETY: we hold the claim made above.
        unsafe { q.ring.val_write(0, 77) };
        q.ring
            .seq(0)
            .compare_exchange(
                pack(0, CLAIMED, me),
                pack(0, PUB, me),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .unwrap();
        assert_eq!(q.dequeue(&mut h), Some(77));
    }
}
