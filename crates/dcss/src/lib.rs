//! # bq-dcss — Double-Compare-Single-Set with recyclable descriptors
//!
//! Section 2.4 of *Memory Bounds for Concurrent Bounded Queues* builds a
//! bounded queue from the DCSS primitive:
//!
//! > `DCSS(&A, expectedA, updateA, &B, expectedB)` checks that the values
//! > located at addresses `A` and `B` equal `expectedA` and `expectedB`,
//! > respectively, updating `A` to `updateA` and returning `true` if the
//! > check succeeds, and returning `false` otherwise.
//!
//! DCSS is not a hardware instruction; following the paper (and Harris,
//! Fraser & Pratt's RDCSS construction), each call installs a **descriptor**
//! into location `A`, preventing updates while the second location is read
//! and letting other threads *help* complete the operation.
//!
//! A naive implementation allocates a fresh descriptor per call (Θ(#ops)
//! memory). The paper cites Arbel-Raviv & Brown's *"Reuse, don't recycle"*
//! (DISC 2017) to bound this: descriptors are **reused**, so only `2·T`
//! descriptors ever exist, giving the Θ(T) overhead of Listing 4. This crate
//! implements that scheme with *weak descriptors*:
//!
//! * Each thread owns two descriptors in a pre-allocated [`DcssArena`] and
//!   alternates between them (hence `2T`).
//! * Every reuse bumps a per-descriptor **sequence number**. References
//!   installed into memory pack `(descriptor index, sequence)` into a single
//!   marked word, so helpers can detect that a descriptor was reused and
//!   abandon stale help — their final CAS carries the exact packed word and
//!   therefore fails harmlessly.
//! * The success/failure verdict is agreed through a per-incarnation status
//!   CAS before anyone removes the descriptor from `A`, so the owner and all
//!   helpers observe one outcome.
//!
//! Values stored through DCSS-managed locations must leave the top bit clear
//! (bit 63 marks descriptor references). This is precisely the
//! "values vs. metadata" bit-stealing trade-off the paper discusses in §2.5.

#![deny(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Marker bit distinguishing packed descriptor references from plain values.
const MARK_BIT: u64 = 1 << 63;
/// Bits reserved for the descriptor index within the packed word.
const INDEX_BITS: u32 = 15;
const INDEX_SHIFT: u32 = 63 - INDEX_BITS; // 48
const INDEX_MASK: u64 = ((1 << INDEX_BITS) - 1) << INDEX_SHIFT;
/// Low bits carry the (truncated) incarnation sequence number.
const SEQ_MASK: u64 = (1 << INDEX_SHIFT) - 1;

/// Maximum number of threads an arena can serve (limited by `INDEX_BITS`;
/// two descriptors per thread).
pub const MAX_THREADS: usize = (1 << INDEX_BITS) / 2;

/// Largest plain value storable in a DCSS-managed location.
pub const MAX_VALUE: u64 = MARK_BIT - 1;

/// Status-word states (packed as `(seq << 2) | state`).
const ST_UNDECIDED: u64 = 0;
const ST_SUCCESS: u64 = 1;
const ST_FAILURE: u64 = 2;

#[inline]
fn pack_ref(index: usize, seq: u64) -> u64 {
    MARK_BIT | ((index as u64) << INDEX_SHIFT) | (seq & SEQ_MASK)
}

#[inline]
fn is_marked(word: u64) -> bool {
    word & MARK_BIT != 0
}

#[inline]
fn unpack_index(word: u64) -> usize {
    ((word & INDEX_MASK) >> INDEX_SHIFT) as usize
}

#[inline]
fn unpack_seq(word: u64) -> u64 {
    word & SEQ_MASK
}

/// One reusable DCSS descriptor.
///
/// `seq` is even while the descriptor is quiescent or being (re)written by
/// its owner, and the packed references embed the even "published" value.
/// Helpers read the fields and then re-validate `seq`; any mismatch means
/// the descriptor was reused and the help attempt must be abandoned.
///
/// Seven words, 56 bytes: one 64-byte line each, so no two descriptors —
/// a thread's own pair included — share one (EXPERIMENTS.md E18).
#[repr(align(64))]
struct Descriptor {
    /// Incarnation number. Publication protocol (owner only):
    /// `seq += 1` (odd: fields unstable) → write fields → `seq += 1`
    /// (even: published).
    seq: AtomicU64,
    /// Verdict for the current incarnation: `(seq << 2) | state`.
    status: AtomicU64,
    addr1: AtomicUsize,
    exp1: AtomicU64,
    new1: AtomicU64,
    addr2: AtomicUsize,
    exp2: AtomicU64,
}

impl Descriptor {
    fn new() -> Self {
        Descriptor {
            seq: AtomicU64::new(0),
            status: AtomicU64::new(0),
            addr1: AtomicUsize::new(0),
            exp1: AtomicU64::new(0),
            new1: AtomicU64::new(0),
            addr2: AtomicUsize::new(0),
            exp2: AtomicU64::new(0),
        }
    }
}

/// Fields of a descriptor snapshot taken by a helper, validated against the
/// incarnation sequence before use.
#[derive(Clone, Copy)]
struct Snapshot {
    addr1: *const AtomicU64,
    exp1: u64,
    new1: u64,
    addr2: *const AtomicU64,
    exp2: u64,
}

/// Outcome of a [`DcssArena::dcss`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcssResult {
    /// Both comparisons matched; `A` now holds the update.
    Success,
    /// `A` matched but `B` did not; `A` was restored to its expected value.
    SecondMismatch,
    /// `A` did not match; carries the value observed at `A`.
    FirstMismatch(u64),
}

impl DcssResult {
    /// `true` iff the DCSS took effect.
    pub fn succeeded(&self) -> bool {
        matches!(self, DcssResult::Success)
    }
}

/// A pre-allocated pool of `2·T` reusable DCSS descriptors.
///
/// All DCSS operations on a set of locations must go through the same arena
/// (helping requires access to the descriptors). The addresses passed to
/// [`dcss`](DcssArena::dcss) / [`read`](DcssArena::read) must remain valid
/// for the arena's lifetime — in this workspace the arena is owned by the
/// queue that owns the locations, which guarantees it.
///
/// ```
/// use std::sync::atomic::AtomicU64;
/// use bq_dcss::DcssArena;
///
/// let arena = DcssArena::new(2);           // serves 2 threads
/// let slot = AtomicU64::new(0);
/// let counter = AtomicU64::new(10);
/// // Store 42 into `slot` only if `counter` is still 10:
/// assert!(arena.dcss(0, &slot, 0, 42, &counter, 10).succeeded());
/// assert_eq!(arena.read(&slot), 42);
/// // Guard moved → the update is refused and `slot` restored:
/// counter.store(11, std::sync::atomic::Ordering::SeqCst);
/// assert!(!arena.dcss(1, &slot, 42, 7, &counter, 10).succeeded());
/// assert_eq!(arena.read(&slot), 42);
/// ```
pub struct DcssArena {
    descriptors: Box<[Descriptor]>,
    /// Per-thread alternation bit selecting which of the thread's two
    /// descriptors the next operation uses. Only the owner thread touches
    /// its entry.
    toggles: Box<[AtomicUsize]>,
    /// Thread-id allocator. Ids are arena-global so that an arena shared
    /// by several queues (the paper's §3.5 system-wide overhead) never
    /// hands the same descriptor pair to two threads.
    next_tid: AtomicUsize,
}

impl DcssArena {
    /// Create an arena serving up to `max_threads` threads
    /// (`2 · max_threads` descriptors, as in the paper).
    ///
    /// # Panics
    /// If `max_threads` is 0 or exceeds [`MAX_THREADS`].
    pub fn new(max_threads: usize) -> Self {
        assert!(
            max_threads > 0 && max_threads <= MAX_THREADS,
            "max_threads must be in 1..={MAX_THREADS}"
        );
        DcssArena {
            descriptors: (0..2 * max_threads).map(|_| Descriptor::new()).collect(),
            toggles: (0..max_threads).map(|_| AtomicUsize::new(0)).collect(),
            next_tid: AtomicUsize::new(0),
        }
    }

    /// Allocate a fresh arena-global thread id.
    ///
    /// # Panics
    /// When more than `max_threads` ids have been handed out.
    pub fn register_tid(&self) -> usize {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        assert!(
            tid < self.toggles.len(),
            "more threads registered than the arena was sized for (T = {})",
            self.toggles.len()
        );
        tid
    }

    /// Number of threads this arena serves.
    pub fn max_threads(&self) -> usize {
        self.toggles.len()
    }

    /// Bytes occupied by the descriptor pool and toggles — the Θ(T)
    /// overhead term of Listing 4.
    pub fn footprint_bytes(&self) -> usize {
        self.descriptors.len() * std::mem::size_of::<Descriptor>()
            + self.toggles.len() * std::mem::size_of::<AtomicUsize>()
    }

    /// Perform `DCSS(addr1, exp1, new1, addr2, exp2)` on behalf of thread
    /// `tid`.
    ///
    /// Following Harris, Fraser & Pratt's RDCSS, the two addresses must lie
    /// in disjoint roles: `addr1` is the *data* location that may
    /// transiently hold descriptors; `addr2` is a *control* location (a
    /// positioning counter in the queues) that is only ever compared and
    /// must never be the target of a DCSS update. In particular
    /// `addr1 ≠ addr2`.
    ///
    /// # Panics
    /// If `tid` is out of range, `addr1` and `addr2` alias, or any of
    /// `exp1`/`new1` uses the descriptor mark bit (values must be
    /// ≤ [`MAX_VALUE`]).
    pub fn dcss(
        &self,
        tid: usize,
        addr1: &AtomicU64,
        exp1: u64,
        new1: u64,
        addr2: &AtomicU64,
        exp2: u64,
    ) -> DcssResult {
        assert!(tid < self.toggles.len(), "tid {tid} out of range");
        assert!(
            !std::ptr::eq(addr1, addr2),
            "RDCSS requires the data and control addresses to be distinct"
        );
        assert!(
            !is_marked(exp1) && !is_marked(new1),
            "values must not use the descriptor mark bit"
        );

        // Select and re-incarnate one of the thread's two descriptors.
        let toggle = self.toggles[tid].fetch_xor(1, Ordering::Relaxed);
        let index = 2 * tid + toggle;
        let d = &self.descriptors[index];

        let s0 = d.seq.load(Ordering::Relaxed);
        debug_assert_eq!(s0 % 2, 0, "descriptor reused while unstable");
        d.seq.store(s0 + 1, Ordering::SeqCst); // fields now unstable
        d.addr1
            .store(addr1 as *const AtomicU64 as usize, Ordering::SeqCst);
        d.exp1.store(exp1, Ordering::SeqCst);
        d.new1.store(new1, Ordering::SeqCst);
        d.addr2
            .store(addr2 as *const AtomicU64 as usize, Ordering::SeqCst);
        d.exp2.store(exp2, Ordering::SeqCst);
        let seq = s0 + 2;
        d.status.store((seq << 2) | ST_UNDECIDED, Ordering::SeqCst);
        d.seq.store(seq, Ordering::SeqCst); // published

        let packed = pack_ref(index, seq);

        // Install the descriptor into addr1.
        loop {
            match addr1.compare_exchange(exp1, packed, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(cur) if is_marked(cur) => {
                    // Another operation is in flight on this location: help
                    // it finish, then retry our install.
                    self.help(cur);
                }
                Err(cur) => {
                    // Plain value mismatch: the DCSS fails on the first
                    // comparison. Retire the incarnation so the descriptor
                    // can be reused immediately.
                    return DcssResult::FirstMismatch(cur);
                }
            }
        }

        // Resolve and remove the descriptor; the verdict is agreed through
        // the status word so every participant sees the same outcome.
        self.complete(packed);
        let st = d.status.load(Ordering::SeqCst);
        debug_assert_eq!(st >> 2, seq, "status overwritten before retirement");
        if st & 0b11 == ST_SUCCESS {
            DcssResult::Success
        } else {
            DcssResult::SecondMismatch
        }
    }

    /// Read a DCSS-managed location, helping (and thereby removing) any
    /// in-flight descriptor first. Always returns a plain value.
    pub fn read(&self, addr: &AtomicU64) -> u64 {
        loop {
            let v = addr.load(Ordering::SeqCst);
            if !is_marked(v) {
                return v;
            }
            self.help(v);
        }
    }

    /// Help the operation behind `packed` finish (public entry point for
    /// code that encounters a marked word through other means).
    fn help(&self, packed: u64) {
        self.complete(packed);
    }

    /// Try to take a validated snapshot of the descriptor behind `packed`.
    /// Returns `None` if the descriptor has been reused (in which case the
    /// packed word has already been removed from its location).
    fn snapshot(&self, packed: u64) -> Option<(&Descriptor, Snapshot)> {
        let index = unpack_index(packed);
        let seq = unpack_seq(packed);
        let d = self.descriptors.get(index)?;
        let snap = Snapshot {
            addr1: d.addr1.load(Ordering::SeqCst) as *const AtomicU64,
            exp1: d.exp1.load(Ordering::SeqCst),
            new1: d.new1.load(Ordering::SeqCst),
            addr2: d.addr2.load(Ordering::SeqCst) as *const AtomicU64,
            exp2: d.exp2.load(Ordering::SeqCst),
        };
        // Validate the incarnation *after* reading the fields: if it still
        // matches, the fields belong to this incarnation.
        if d.seq.load(Ordering::SeqCst) & SEQ_MASK != seq {
            return None;
        }
        Some((d, snap))
    }

    /// Complete the DCSS behind `packed`: agree on a verdict via the status
    /// word, then replace the descriptor reference in `addr1` with the
    /// result. Safe to call concurrently from any number of threads.
    fn complete(&self, packed: u64) {
        let seq = unpack_seq(packed);
        let Some((d, snap)) = self.snapshot(packed) else {
            // Descriptor reused ⇒ this incarnation was fully resolved and
            // removed from memory before retirement; nothing to do.
            return;
        };
        // SAFETY: `snap` was validated against the incarnation, and the
        // arena contract guarantees addresses outlive the arena.
        let addr1 = unsafe { &*snap.addr1 };
        let addr2 = unsafe { &*snap.addr2 };

        let undecided = (seq << 2) | ST_UNDECIDED;
        if d.status.load(Ordering::SeqCst) == undecided {
            let v2 = addr2.load(Ordering::SeqCst);
            let verdict = if v2 == snap.exp2 {
                ST_SUCCESS
            } else {
                ST_FAILURE
            };
            // First CAS wins; all later helpers adopt the agreed verdict.
            let _ = d.status.compare_exchange(
                undecided,
                (seq << 2) | verdict,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        let st = d.status.load(Ordering::SeqCst);
        if st >> 2 != seq {
            // Reused since we validated: already resolved and removed.
            return;
        }
        let result = if st & 0b11 == ST_SUCCESS {
            snap.new1
        } else {
            snap.exp1
        };
        // Unique packed word ⇒ this CAS can only remove *our* incarnation.
        let _ = addr1.compare_exchange(packed, result, Ordering::SeqCst, Ordering::SeqCst);
    }
}

// SAFETY: all shared state is atomic; raw pointers stored in descriptors are
// only dereferenced under the arena's address-validity contract.
unsafe impl Send for DcssArena {}
unsafe impl Sync for DcssArena {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn dcss_success_updates_first_location() {
        let arena = DcssArena::new(2);
        let a = AtomicU64::new(5);
        let b = AtomicU64::new(10);
        let r = arena.dcss(0, &a, 5, 7, &b, 10);
        assert_eq!(r, DcssResult::Success);
        assert_eq!(a.load(Ordering::SeqCst), 7);
        assert_eq!(b.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn dcss_first_mismatch_reports_current() {
        let arena = DcssArena::new(1);
        let a = AtomicU64::new(1);
        let b = AtomicU64::new(2);
        let r = arena.dcss(0, &a, 99, 7, &b, 2);
        assert_eq!(r, DcssResult::FirstMismatch(1));
        assert_eq!(a.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dcss_second_mismatch_restores_first() {
        let arena = DcssArena::new(1);
        let a = AtomicU64::new(5);
        let b = AtomicU64::new(10);
        let r = arena.dcss(0, &a, 5, 7, &b, 11);
        assert_eq!(r, DcssResult::SecondMismatch);
        assert_eq!(a.load(Ordering::SeqCst), 5, "A must be restored");
    }

    #[test]
    fn read_returns_plain_value() {
        let arena = DcssArena::new(1);
        let a = AtomicU64::new(42);
        assert_eq!(arena.read(&a), 42);
    }

    #[test]
    fn descriptors_are_reused_not_allocated() {
        let arena = DcssArena::new(1);
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let before = arena.footprint_bytes();
        for i in 0..10_000u64 {
            assert!(arena.dcss(0, &a, i, i + 1, &b, 0).succeeded());
        }
        assert_eq!(a.load(Ordering::SeqCst), 10_000);
        assert_eq!(
            arena.footprint_bytes(),
            before,
            "descriptor pool size is fixed at 2T"
        );
    }

    #[test]
    fn footprint_is_linear_in_threads() {
        let f1 = DcssArena::new(1).footprint_bytes();
        let f8 = DcssArena::new(8).footprint_bytes();
        let f64 = DcssArena::new(64).footprint_bytes();
        assert!(f8 > f1 && f64 > f8);
        // Linearity: bytes per thread identical across sizes.
        assert_eq!((f8 - f1) / 7, (f64 - f8) / 56);
    }

    #[test]
    #[should_panic(expected = "mark bit")]
    fn rejects_marked_values() {
        let arena = DcssArena::new(1);
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let _ = arena.dcss(0, &a, 0, MARK_BIT | 1, &b, 0);
    }

    #[test]
    fn packing_roundtrip() {
        for &(idx, seq) in &[(0usize, 0u64), (5, 12), (1234, SEQ_MASK), (0x7FFF, 7)] {
            let p = pack_ref(idx, seq);
            assert!(is_marked(p));
            assert_eq!(unpack_index(p), idx);
            assert_eq!(unpack_seq(p), seq & SEQ_MASK);
        }
    }

    /// The DCSS semantics under contention: many threads increment `a` but
    /// only while the guard `b` holds its expected value. Exactly the
    /// successful DCSS count must be reflected in `a`.
    #[test]
    fn concurrent_guarded_increments() {
        let arena = Arc::new(DcssArena::new(8));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let iters = 500;
        let mut handles = Vec::new();
        for tid in 0..8 {
            let (arena, a, b) = (Arc::clone(&arena), Arc::clone(&a), Arc::clone(&b));
            handles.push(std::thread::spawn(move || {
                let mut wins = 0u64;
                for _ in 0..iters {
                    let cur = arena.read(&a);
                    if arena.dcss(tid, &a, cur, cur + 1, &b, 0).succeeded() {
                        wins += 1;
                    }
                    std::thread::yield_now();
                }
                wins
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(
            arena.read(&a),
            total,
            "each success increments exactly once"
        );
        assert!(total > 0);
    }

    /// Guard invalidation mid-flight: once `b` changes, no further DCSS with
    /// the old expected guard may succeed.
    #[test]
    fn guard_change_blocks_success() {
        let arena = Arc::new(DcssArena::new(4));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));

        // Phase 1: guard matches.
        assert!(arena.dcss(0, &a, 0, 1, &b, 0).succeeded());
        // Guard moves.
        b.store(1, Ordering::SeqCst);
        // Phase 2: old-guard DCSS must fail and restore.
        let r = arena.dcss(1, &a, 1, 2, &b, 0);
        assert_eq!(r, DcssResult::SecondMismatch);
        assert_eq!(arena.read(&a), 1);
    }

    /// Readers concurrently help in-flight operations: `read` must never
    /// observe a marked word.
    #[test]
    fn readers_never_see_descriptors() {
        let arena = Arc::new(DcssArena::new(4));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for tid in 0..2 {
            let (arena, a, b, stop) = (
                Arc::clone(&arena),
                Arc::clone(&a),
                Arc::clone(&b),
                Arc::clone(&stop),
            );
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    let cur = arena.read(&a);
                    let _ = arena.dcss(tid, &a, cur, (cur + 1) & MAX_VALUE, &b, 0);
                    i += 1;
                    if i > 20_000 {
                        break;
                    }
                }
            }));
        }
        for _ in 0..50_000 {
            let v = a.load(Ordering::SeqCst);
            if is_marked(v) {
                // A raw load may see a descriptor; `read` must resolve it.
                let r = arena.read(&a);
                assert!(!is_marked(r));
            }
        }
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert!(!is_marked(a.load(Ordering::SeqCst)) || !is_marked(arena.read(&a)));
    }
}
