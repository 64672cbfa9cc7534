//! **Relocatable queue layouts** — the pointer/offset split (DESIGN.md §10).
//!
//! Every hot structure in this module is `#[repr(C)]`, contains **no
//! pointers** (no `Box`, no `Vec`, no `AtomicPtr`), and addresses its own
//! parts purely by *offsets from a base address*. A structure placed into
//! caller-provided memory at one address is therefore byte-for-byte valid
//! at any other address — in particular inside an `mmap`-shared segment
//! that different processes map at different virtual addresses (`bq-shm`),
//! or memcpy'd wholesale.
//!
//! The split is: **shared state** (the `#[repr(C)]` header + trailing
//! arrays, all offset-addressed) vs **view** (a per-process accessor like
//! [`RelocRing`] holding the locally-mapped base pointer). Views are cheap
//! values each process builds from its own mapping; only views hold
//! pointers, and views are never stored in shared memory. A view is not
//! `Clone`: it lives beside the allocation or mapping it addresses, inside
//! its owner, and is lent out by reference — so it cannot outlive the bytes.
//!
//! Three layouts are provided, each placed through the one
//! [`RelocLayout`] path (`layout` / `init_at` / checked `attach`) and
//! owned by [`RelocBox`] on the heap or `bq-shm`'s `ShmBox` in a segment.
//! Every view is `&self`-only over atomics:
//!
//! * [`RelocRing<T>`] — the Vyukov-style sequenced MPMC ring
//!   (`bq-baselines`' `VyukovQueue` wraps `RelocRing<u64>`; `bq-shm`'s
//!   `ShmQueue<T>` reuses the identical layout under a crash-consistent
//!   publication protocol);
//! * [`RelocByteRing`] — an SPSC ring of *bytes* carrying length-prefixed
//!   variable-size messages (pad records at the wrap point), the
//!   descriptor-ring data plane of DESIGN.md §12
//!   ([`byte_ring`](crate::byte_ring) is the heap owner, `bq-shm`'s
//!   `ShmByteRing` the cross-process one);
//! * [`AnnounceBoard`] — the Listing 5 announcement array + the 2·T
//!   reusable [`RelocEnqOp`] descriptor pool, one 64-byte [`BoardLane`]
//!   per thread
//!   ([`OptimalQueue`](crate::OptimalQueue) serves its helping machinery
//!   out of it).
//!
//! ## Zero-copy grants (DESIGN.md §12)
//!
//! The rings no longer force a move through the API boundary: a producer
//! can [`try_reserve`](RelocRing::try_reserve) a run of slots and receive
//! a **write grant** exposing `&mut [MaybeUninit<T>]` over the claimed
//! payload memory, filled in place and published with
//! [`commit`](RingWriteGrant::commit); a consumer can
//! [`try_read`](RelocRing::try_read) a run and receive a **read grant**
//! exposing `&[T]` directly over published slots. Publication stays the
//! seq-word protocol: a write grant owns slots whose sequence word is in
//! the *free-for-round* state, a read grant owns slots in the
//! *published* state, so the two can never alias. Dropping a write grant
//! **aborts**: the slots are marked as-if-consumed (`seq ← pos + C`) and
//! consumers skip them by helping the head forward.
//!
//! To make multi-slot grants contiguous, [`RelocRing`] stores its
//! metadata **structure-of-arrays**: the `C` sequence words form one
//! array (exactly the Θ(C) metadata the paper's lower bound prices) and
//! the `C` payloads another, so a non-wrapping slot run is a contiguous
//! `&[T]`.
//!
//! ## Layout rules (stability contract)
//!
//! 1. `#[repr(C)]` on every shared struct; field order is ABI.
//! 2. No pointer-sized-dependent fields: everything is `u64`/`AtomicU64`
//!    or a `Pod` payload, so 32-/64-bit layouts agree.
//! 3. Contended words are isolated with `#[repr(C, align(128))]`
//!    ([`PadAtomicU64`], [`PadSimAtomicU64`]) — two cache lines, matching
//!    `CachePadded`. The announcement board isolates per *thread*, not per
//!    word, and by one line: a [`BoardLane`] is `#[repr(C, align(64))]`
//!    around the slot and the two descriptors one thread writes first
//!    (EXPERIMENTS.md E18 prices 64 against 128).
//! 4. Each layout starts with a magic word; [`RelocLayout::attach`]
//!    refuses memory that does not carry it, records arguments outside
//!    their range, or is shorter than the layout those arguments imply.
//! 5. Compile-time `size_of`/`align_of`/`offset_of` assertions pin every
//!    struct (this module, bottom); an accidental field reorder is a
//!    compile error, not a live-segment corruption.
//!
//! Ring indexing uses a power-of-two **mask fast path** chosen at
//! construction (`pos & (C-1)` when `C` is a power of two, `pos % C`
//! otherwise); behaviour is identical either way, only the instruction
//! count differs.
//!
//! Element types crossing a segment boundary must be [`Pod`]: `Copy`
//! (hence no `Drop` — a crashed process cannot run destructors, so a
//! type that *needs* dropping can never be crash-safe in shared memory)
//! and free of pointers/references (a pointer is only meaningful in the
//! address space that created it).

use std::alloc::Layout;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::simx::SimAtomicU64;

/// Marker for **plain-old-data** element types that may live in
/// relocatable / shared memory.
///
/// # Safety
///
/// Implementors must guarantee:
///
/// * no pointers, references, or other address-space-local values —
///   the bytes must mean the same thing in every process;
/// * any bit pattern obtained from a *published* slot is a value the
///   type can hold (the protocols never read unpublished slots, so
///   torn writes by a crashed process are never observed);
/// * `Copy` (statically enforced), which also rules out `Drop`: shared
///   segments are reclaimed by `munmap`, never by running destructors,
///   and a process can die between any two instructions.
pub unsafe trait Pod: Copy + Send + 'static {}

// SAFETY: primitive integers/floats have no pointers, no Drop, and
// accept any bit pattern (floats: every pattern is some float).
unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for u128 {}
unsafe impl Pod for usize {}
unsafe impl Pod for i8 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for i128 {}
unsafe impl Pod for isize {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
// SAFETY: an array of Pod is Pod (no padding between elements).
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// Round `n` up to the next multiple of `align` (a power of two).
pub const fn align_up(n: usize, align: usize) -> usize {
    (n + align - 1) & !(align - 1)
}

/// An `AtomicU64` alone on (a pair of) cache lines — the relocatable,
/// `#[repr(C)]` equivalent of `crossbeam_utils::CachePadded<AtomicU64>`.
#[repr(C, align(128))]
pub struct PadAtomicU64(pub AtomicU64);

impl PadAtomicU64 {
    /// A padded atomic starting at `v`.
    pub const fn new(v: u64) -> Self {
        PadAtomicU64(AtomicU64::new(v))
    }
}

/// A [`SimAtomicU64`] alone on (a pair of) cache lines — identical bytes
/// to [`PadAtomicU64`] (`SimAtomicU64` is `#[repr(transparent)]`), but
/// its operations are explorer scheduling points under `sim-explore`.
#[repr(C, align(128))]
pub struct PadSimAtomicU64(pub SimAtomicU64);

impl PadSimAtomicU64 {
    /// A padded atomic starting at `v`.
    pub const fn new(v: u64) -> Self {
        PadSimAtomicU64(SimAtomicU64::new(v))
    }
}

// ---------------------------------------------------------------------------
// RelocBuf — an owned, aligned, zeroed allocation for heap-backed wrappers
// ---------------------------------------------------------------------------

/// An owned, zero-initialized, aligned raw allocation that heap-backed
/// wrappers place relocatable layouts into. This is the *local* half of
/// the pointer/offset split: `RelocBuf` owns the bytes, a view type
/// ([`RelocRing`], [`AnnounceBoard`], …) addresses into them.
pub struct RelocBuf {
    ptr: NonNull<u8>,
    layout: Layout,
}

impl RelocBuf {
    /// Allocate `layout` zeroed. Panics on allocation failure (parity
    /// with `Box`/`Vec`).
    pub fn zeroed(layout: Layout) -> RelocBuf {
        assert!(layout.size() > 0, "zero-sized relocatable layout");
        // SAFETY: size checked non-zero above.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(ptr) else {
            std::alloc::handle_alloc_error(layout);
        };
        RelocBuf { ptr, layout }
    }

    /// Base address of the allocation.
    pub fn base(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Allocation size in bytes.
    pub fn len(&self) -> usize {
        self.layout.size()
    }

    /// `true` iff the allocation is zero bytes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.layout.size() == 0
    }

    /// Byte-for-byte copy into a fresh allocation at a (generally)
    /// different address — the memcpy-relocation primitive. Only sound
    /// for relocatable layouts, which is everything this module defines.
    pub fn duplicate(&self) -> RelocBuf {
        let dup = RelocBuf::zeroed(self.layout);
        // SAFETY: same layout, distinct allocations.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), dup.ptr.as_ptr(), self.layout.size())
        };
        dup
    }
}

impl Drop for RelocBuf {
    fn drop(&mut self) {
        // SAFETY: allocated with exactly this layout in `zeroed`.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) };
    }
}

// SAFETY: RelocBuf is a uniquely-owned byte allocation; sending it (or
// sharing references to it) is as safe as the access discipline of the
// layout placed inside, which `RelocLayout`'s contract vouches for.
unsafe impl Send for RelocBuf {}
unsafe impl Sync for RelocBuf {}

// ---------------------------------------------------------------------------
// RelocLayout — the one placement path; RelocBox — the one heap owner
// ---------------------------------------------------------------------------

/// Why a region was refused: an argument outside its range, a missing
/// magic word, or recorded arguments whose layout does not fit the bytes
/// on offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadLayout(pub &'static str);

impl std::fmt::Display for BadLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for BadLayout {}

/// `base + n · elem` bytes, `None` on overflow: `n` may come from a header
/// another process wrote.
fn span(base: usize, n: usize, elem: usize) -> Option<usize> {
    n.checked_mul(elem)?.checked_add(base)
}

/// Close a checked size computation into a [`Layout`].
fn layout_of(size: Option<usize>, align: usize) -> Result<Layout, BadLayout> {
    size.and_then(|s| Layout::from_size_align(s, align).ok())
        .ok_or(BadLayout("layout does not fit the address space"))
}

/// A header-recorded count as a `usize`.
fn recorded(word: u64) -> Result<usize, BadLayout> {
    usize::try_from(word).map_err(|_| BadLayout("recorded size exceeds the address space"))
}

/// A view over a relocatable layout: how its region is sized, initialized
/// and re-attached to. The two owners — [`RelocBox`] here, `ShmBox` in
/// `bq-shm` — are written once over this trait.
///
/// # Safety
///
/// Implementors guarantee that
///
/// * a view built over `base` addresses only the
///   `try_layout(args)?.size()` bytes starting there;
/// * every *safe* method reachable through `&Self` may be called from
///   several threads at once (it touches atomics only, or reads plain
///   words nothing writes after [`init_at`](Self::init_at)) — this is
///   what lets the owners be `Send + Sync` without an argument of their
///   own;
/// * `try_layout` and `recorded_args` never panic and never read outside
///   the header.
pub unsafe trait RelocLayout: Sized {
    /// What a region is built from and what its header records.
    type Args: Copy;

    /// Size of the fixed header [`recorded_args`](Self::recorded_args)
    /// reads.
    const HDR_BYTES: usize;

    /// Validate `args` and compute the region's layout, with checked
    /// arithmetic throughout.
    fn try_layout(args: Self::Args) -> Result<Layout, BadLayout>;

    /// [`try_layout`](Self::try_layout) for arguments the program chose
    /// itself: panics on invalid ones.
    fn layout(args: Self::Args) -> Layout {
        Self::try_layout(args).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Initialize an empty structure at `base` and return its view.
    ///
    /// # Safety
    ///
    /// `base` must be valid for writes of [`layout`](Self::layout)`(args)`
    /// bytes, aligned to that layout, zeroed, and stay valid for the
    /// view's lifetime; nothing else may be initializing the same region.
    unsafe fn init_at(base: *mut u8, args: Self::Args) -> Self;

    /// Check the magic word and read back the arguments the region was
    /// initialized with.
    ///
    /// # Safety
    ///
    /// `base` must be valid for reads of [`HDR_BYTES`](Self::HDR_BYTES)
    /// bytes and aligned for the header.
    unsafe fn recorded_args(base: *const u8) -> Result<Self::Args, BadLayout>;

    /// The view over an initialized region (no checks).
    ///
    /// # Safety
    ///
    /// As [`init_at`](Self::init_at), and the region must have been
    /// initialized with exactly `args`.
    unsafe fn view(base: *mut u8, args: Self::Args) -> Self;

    /// Attach to a region something else initialized — a byte copy, or
    /// this process's mapping of a segment another process wrote. Refuses
    /// a missing magic word, recorded arguments outside their range, and
    /// a region shorter (or less aligned) than those arguments imply, so
    /// a damaged file is an error here and never a wild pointer later.
    ///
    /// # Safety
    ///
    /// `base` must be valid for reads and writes of `avail_len` bytes,
    /// aligned for the header, and stay valid for the view's lifetime.
    unsafe fn attach(base: *mut u8, avail_len: usize) -> Result<Self, BadLayout> {
        if avail_len < Self::HDR_BYTES {
            return Err(BadLayout("region shorter than the layout's header"));
        }
        let args = Self::recorded_args(base)?;
        let layout = Self::try_layout(args)?;
        if layout.size() > avail_len || !(base as usize).is_multiple_of(layout.align()) {
            return Err(BadLayout(
                "region shorter or less aligned than its recorded layout",
            ));
        }
        Ok(Self::view(base, args))
    }
}

/// A relocatable layout in a heap allocation of its own: a [`RelocBuf`]
/// plus the view addressing it. Derefs to the view.
pub struct RelocBox<V: RelocLayout> {
    view: V,
    /// Keeps the bytes `view` addresses alive.
    _buf: RelocBuf,
}

impl<V: RelocLayout> RelocBox<V> {
    /// Allocate and initialize an empty structure. Panics on invalid
    /// `args` (see the view's [`RelocLayout::try_layout`]).
    pub fn new(args: V::Args) -> Self {
        let buf = RelocBuf::zeroed(V::layout(args));
        // SAFETY: `buf` is a fresh zeroed allocation of exactly
        // `layout(args)`, owned by the box for as long as the view.
        let view = unsafe { V::init_at(buf.base(), args) };
        RelocBox { view, _buf: buf }
    }
}

impl<V: RelocLayout> std::ops::Deref for RelocBox<V> {
    type Target = V;
    fn deref(&self) -> &V {
        &self.view
    }
}

// SAFETY: `buf` is uniquely owned and outlives `view`, whose pointers
// target it; `RelocLayout`'s contract makes every safe `&V` method
// thread-safe, and the view's `unsafe` methods carry their own.
unsafe impl<V: RelocLayout> Send for RelocBox<V> {}
unsafe impl<V: RelocLayout> Sync for RelocBox<V> {}

// ---------------------------------------------------------------------------
// RelocRing<T> — the Vyukov-style sequenced MPMC ring, relocatable (SoA)
// ---------------------------------------------------------------------------

/// `C - 1` if `c` is a power of two, else the 0 sentinel selecting the
/// `%` slow path. `c ≥ 1` everywhere this is used, so a real mask is
/// never 0 confusable only for `c == 1`, where `pos & 0 == pos % 1`.
const fn mask_of(c: u64) -> u64 {
    if c.is_power_of_two() {
        c - 1
    } else {
        0
    }
}

/// Header of the sequenced ring: magic + capacity, then the two
/// cache-padded positioning counters. The `C` sequence words follow
/// immediately; the `C` payloads follow at the next
/// `max(align_of::<T>(), 128)` boundary (structure-of-arrays, so a
/// non-wrapping slot run is contiguous payload memory — the grant API
/// depends on this).
#[repr(C, align(128))]
pub struct RingHdr {
    /// [`RING_MAGIC`].
    pub magic: u64,
    /// Capacity `C`.
    pub capacity: u64,
    /// Producer counter (cache-padded).
    pub tail: PadSimAtomicU64,
    /// Consumer counter (cache-padded).
    pub head: PadSimAtomicU64,
}

/// Magic word identifying an initialized [`RelocRing`] region.
pub const RING_MAGIC: u64 = 0x4d42_5153_4551_5232; // "MBQSEQR2"

/// View over a sequenced MPMC ring placed in caller-provided memory.
///
/// The view is per-process: each process (or each heap owner) builds
/// its own from its mapping of the shared bytes via
/// [`attach`](RelocLayout::attach). The plain Vyukov protocol is provided as
/// the `vy_*` methods and the [`try_reserve`](Self::try_reserve) /
/// [`try_read`](Self::try_read) grants; `bq-shm` drives the same layout
/// under its crash-consistent protocol through the raw accessors.
///
/// ### Seq-word states (capacity `C`, absolute position `pos`)
///
/// | `seq(pos mod C)`   | meaning                                      |
/// |--------------------|----------------------------------------------|
/// | `pos`              | free — claimable by the round-`pos` producer |
/// | `pos + 1`          | published — claimable by the consumer        |
/// | `pos + C`          | consumed **or aborted** (free next round)    |
///
/// Every operation is the private `claim` (scan a run of slots in the
/// state its end of the ring takes, win it with one CAS on that end's
/// counter) followed by `resolve` (store each slot's next state). An
/// aborted write grant and a released read grant are the same `resolve`:
/// both move their slots to `pos + C`. A consumer whose head points at an
/// aborted slot helps the head past it.
pub struct RelocRing<T: Pod> {
    hdr: NonNull<RingHdr>,
    seqs: NonNull<SimAtomicU64>,
    vals: NonNull<T>,
    cap: u64,
    /// `C - 1` when `C` is a power of two, else 0 (mod fallback).
    mask: u64,
    _pd: PhantomData<T>,
}

// SAFETY: the view addresses the header, the `C` seq words and the `C`
// payloads of `try_layout(c)`; its safe `&self` methods touch shared
// state through atomics only (payload access is `unsafe` or behind a
// grant's claim).
unsafe impl<T: Pod> RelocLayout for RelocRing<T> {
    /// Capacity `C ≥ 2` (the sequence encoding needs at least two slots;
    /// see `VyukovQueue::with_capacity`).
    type Args = usize;
    const HDR_BYTES: usize = std::mem::size_of::<RingHdr>();

    fn try_layout(c: usize) -> Result<Layout, BadLayout> {
        if c < 2 {
            return Err(BadLayout("sequenced rings require capacity >= 2"));
        }
        let vals = span(Self::HDR_BYTES, c, std::mem::size_of::<u64>())
            .and_then(|end| end.checked_next_multiple_of(Self::vals_align()));
        layout_of(
            vals.and_then(|off| span(off, c, std::mem::size_of::<T>())),
            std::mem::align_of::<RingHdr>().max(std::mem::align_of::<T>()),
        )
    }

    /// An empty ring: slot `i` gets sequence word `i` (Vyukov's "free for
    /// round `i`"); payloads stay as handed over (zeroed).
    unsafe fn init_at(base: *mut u8, c: usize) -> RelocRing<T> {
        let _ = Self::layout(c);
        base.cast::<RingHdr>().write(RingHdr {
            magic: RING_MAGIC,
            capacity: c as u64,
            tail: PadSimAtomicU64::new(0),
            head: PadSimAtomicU64::new(0),
        });
        let ring = Self::view(base, c);
        for i in 0..c {
            ring.seqs.as_ptr().add(i).write(SimAtomicU64::new(i as u64));
        }
        ring
    }

    unsafe fn recorded_args(base: *const u8) -> Result<usize, BadLayout> {
        let hdr = base.cast::<RingHdr>();
        if (*hdr).magic != RING_MAGIC {
            return Err(BadLayout("not a RelocRing region"));
        }
        recorded((*hdr).capacity)
    }

    unsafe fn view(base: *mut u8, c: usize) -> RelocRing<T> {
        RelocRing {
            hdr: NonNull::new_unchecked(base.cast()),
            seqs: NonNull::new_unchecked(base.add(Self::HDR_BYTES).cast()),
            vals: NonNull::new_unchecked(base.add(Self::vals_offset(c)).cast()),
            cap: c as u64,
            mask: mask_of(c as u64),
            _pd: PhantomData,
        }
    }
}

impl<T: Pod> RelocRing<T> {
    /// Payload array alignment: its own cache-line pair, and at least
    /// `T`-aligned.
    fn vals_align() -> usize {
        std::mem::align_of::<T>().max(128)
    }

    /// Payload array offset, after the seq array (`c` already validated).
    fn vals_offset(c: usize) -> usize {
        align_up(
            Self::HDR_BYTES + c * std::mem::size_of::<u64>(),
            Self::vals_align(),
        )
    }

    fn hdr(&self) -> &RingHdr {
        // SAFETY: view invariant.
        unsafe { self.hdr.as_ref() }
    }

    /// Slot index of absolute position `pos` — mask fast path when the
    /// capacity is a power of two.
    #[inline]
    pub fn slot_of(&self, pos: u64) -> usize {
        if self.mask != 0 {
            (pos & self.mask) as usize
        } else {
            (pos % self.cap) as usize
        }
    }

    /// Capacity `C`.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// The producer counter.
    pub fn tail(&self) -> &SimAtomicU64 {
        &self.hdr().tail.0
    }

    /// The consumer counter.
    pub fn head(&self) -> &SimAtomicU64 {
        &self.hdr().head.0
    }

    /// The sequence word of slot `i` (`i < C`).
    pub fn seq(&self, i: usize) -> &SimAtomicU64 {
        debug_assert!(i < self.capacity());
        // SAFETY: bounds checked above; seq array is C entries.
        unsafe { &*self.seqs.as_ptr().add(i) }
    }

    /// Write slot `i`'s payload.
    ///
    /// # Safety
    ///
    /// Caller must hold exclusive round-ownership of slot `i` per the
    /// governing protocol (e.g. won the claiming CAS for this round).
    pub unsafe fn val_write(&self, i: usize, v: T) {
        debug_assert!(i < self.capacity());
        self.vals.as_ptr().add(i).write(v);
    }

    /// Read slot `i`'s payload.
    ///
    /// # Safety
    ///
    /// Caller must hold round-ownership of slot `i` and the payload must
    /// have been published per the governing protocol.
    pub unsafe fn val_read(&self, i: usize) -> T {
        debug_assert!(i < self.capacity());
        self.vals.as_ptr().add(i).read()
    }

    /// Occupancy estimate from the counters (exact when quiescent).
    pub fn counter_len(&self) -> usize {
        let t = self.tail().load(Ordering::SeqCst);
        let h = self.head().load(Ordering::SeqCst);
        t.saturating_sub(h) as usize
    }

    // -- the one claim loop and the one resolve loop ------------------------

    /// Claim up to `n ≥ 1` slots at one end of the ring: `counter` is the
    /// tail with `ready == 0` (slots whose seq word reads `pos + i`, free)
    /// or the head with `ready == 1` (`pos + i + 1`, published). Scans a
    /// run that stops at the wrap edge, so it is contiguous memory, and
    /// takes it with one CAS on `counter`. `None` is the relaxed
    /// full/empty report: the first slot still carries an earlier state.
    ///
    /// Orderings: the seq `Acquire` load pairs with [`resolve`]'s
    /// `Release` store, so the claimant sees the payload written (or
    /// read out) before the slot reached this state. The counters are
    /// `Relaxed`: they only arbitrate who owns a run; a stale read costs
    /// a retry, never a wrong claim, because the seq scan is re-done.
    ///
    /// [`resolve`]: Self::resolve
    #[inline(always)]
    fn claim(&self, counter: &SimAtomicU64, ready: u64, n: usize) -> Option<(u64, usize)> {
        debug_assert!(n >= 1);
        let mut pos = counter.load(Ordering::Relaxed);
        loop {
            let slot0 = self.slot_of(pos);
            let limit = n.min(self.capacity() - slot0);
            let (mut m, mut seq) = (0usize, 0u64);
            while m < limit {
                seq = self.seq(slot0 + m).load(Ordering::Acquire);
                if seq != pos + m as u64 + ready {
                    break;
                }
                m += 1;
            }
            if m > 0 {
                if counter
                    .compare_exchange(pos, pos + m as u64, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return Some((pos, m));
                }
            } else if seq < pos + ready {
                return None;
            } else if ready == 1 && seq >= pos + self.cap {
                // At head position `pos`, `seq ≥ pos + C` means the
                // round-`pos` writer aborted (a consumer stores `pos + C`
                // only *after* moving the head past `pos`): help the head
                // over it. Fails benignly if another thread already did.
                let _ =
                    counter.compare_exchange(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed);
            }
            pos = counter.load(Ordering::Relaxed);
        }
    }

    /// Resolve a claimed run `pos .. pos + len`: the first `k` slots move
    /// to `pos + i + 1` (published), the rest to `pos + i + C` (consumed
    /// or aborted — free next round). `Release`, pairing with
    /// [`claim`](Self::claim)'s `Acquire`.
    #[inline(always)]
    fn resolve(&self, pos: u64, len: usize, k: usize) {
        let slot0 = self.slot_of(pos);
        for i in 0..len {
            let step = if i < k { 1 } else { self.cap };
            self.seq(slot0 + i)
                .store(pos + i as u64 + step, Ordering::Release);
        }
    }

    // -- the plain Vyukov protocol over this layout ------------------------

    /// Vyukov `enqueue`: claim the tail round, write the payload, publish
    /// the slot. May report full spuriously under concurrency (the
    /// design's documented relaxation).
    pub fn vy_enqueue(&self, v: T) -> Result<(), T> {
        let Some((pos, _)) = self.claim(self.tail(), 0, 1) else {
            return Err(v);
        };
        // SAFETY: winning the tail CAS grants exclusive write access to
        // this slot for this round.
        unsafe { self.val_write(self.slot_of(pos), v) };
        self.resolve(pos, 1, 1);
        Ok(())
    }

    /// Vyukov `dequeue`: the mirror of [`vy_enqueue`](Self::vy_enqueue).
    /// Skips slots whose writer aborted its grant (see the state table on
    /// [`RelocRing`]).
    pub fn vy_dequeue(&self) -> Option<T> {
        let (pos, _) = self.claim(self.head(), 1, 1)?;
        // SAFETY: winning the head CAS grants exclusive read access for
        // this round.
        let v = unsafe { self.val_read(self.slot_of(pos)) };
        self.resolve(pos, 1, 0);
        Some(v)
    }

    /// Batch enqueue of a prefix of `vs`: one write grant per contiguous
    /// run (DESIGN.md §8.1's slot-run fast path — one CAS per run, two
    /// when the batch straddles the wrap edge). Stops at the first full
    /// report.
    pub fn vy_enqueue_many(&self, vs: &[T]) -> usize {
        let mut done = 0usize;
        while done < vs.len() {
            let Some(mut g) = self.try_reserve(vs.len() - done) else {
                break;
            };
            let n = g.len();
            for (slot, v) in g.uninit_slice().iter_mut().zip(&vs[done..]) {
                slot.write(*v);
            }
            g.commit(n);
            done += n;
        }
        done
    }

    /// Batch dequeue of up to `max` elements into `out`: one read grant
    /// per contiguous run. Stops at the first empty report.
    pub fn vy_dequeue_many(&self, max: usize, out: &mut Vec<T>) -> usize {
        let mut done = 0usize;
        while done < max {
            let Some(g) = self.try_read(max - done) else {
                break;
            };
            out.extend_from_slice(&g);
            done += g.len();
        }
        done
    }

    // -- zero-copy grants over the same protocol ---------------------------

    /// Reserve up to `n` slots for an in-place write: claim a run of free
    /// slots from the tail and hand it out as a [`RingWriteGrant`]. The
    /// run never wraps, so the grant's payload memory is contiguous.
    /// Returns `None` when the ring is full (same relaxed report as
    /// [`vy_enqueue`](Self::vy_enqueue)) or `n == 0`.
    pub fn try_reserve(&self, n: usize) -> Option<RingWriteGrant<'_, T>> {
        if n == 0 {
            return None;
        }
        let (pos, len) = self.claim(self.tail(), 0, n)?;
        Some(RingWriteGrant {
            ring: self,
            pos,
            len,
        })
    }

    /// Claim up to `n` published slots for an in-place read: claim a run
    /// of published slots from the head and hand it out as a
    /// [`RingReadGrant`] borrowing `&[T]` directly over the slot memory.
    /// The run never wraps. Returns `None` when the ring is empty (same
    /// relaxed report as [`vy_dequeue`](Self::vy_dequeue)) or `n == 0`.
    pub fn try_read(&self, n: usize) -> Option<RingReadGrant<'_, T>> {
        if n == 0 {
            return None;
        }
        let (pos, len) = self.claim(self.head(), 1, n)?;
        Some(RingReadGrant {
            ring: self,
            pos,
            len,
        })
    }
}

/// A claimed, contiguous, not-yet-published run of slots in a
/// [`RelocRing`] (rounds `pos .. pos + len`, all in the *free* seq-word
/// state and owned exclusively by this grant — the claiming tail CAS is
/// what makes the `&mut` payload slice sound).
///
/// Fill [`uninit_slice`](Self::uninit_slice) in place, then
/// [`commit`](Self::commit) a prefix: committed slots are published
/// (`seq ← pos + i + 1`), the rest are **aborted** (`seq ← pos + i + C`,
/// as if consumed — consumers skip them). Dropping the grant aborts
/// every slot, so a panicking producer never wedges the ring.
pub struct RingWriteGrant<'a, T: Pod> {
    ring: &'a RelocRing<T>,
    pos: u64,
    len: usize,
}

impl<T: Pod> RingWriteGrant<'_, T> {
    /// Number of claimed slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the grant is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absolute position of the first claimed slot.
    pub fn start(&self) -> u64 {
        self.pos
    }

    /// The claimed payload memory, to be filled in place.
    pub fn uninit_slice(&mut self) -> &mut [MaybeUninit<T>] {
        let slot0 = self.ring.slot_of(self.pos);
        // SAFETY: try_reserve bounded the run to not wrap, so
        // vals[slot0 .. slot0+len] is in bounds; the claiming CAS gave
        // this grant exclusive round-ownership of exactly those slots
        // (no other producer can claim them until the seq words move,
        // which only commit/drop does).
        unsafe {
            std::slice::from_raw_parts_mut(
                self.ring.vals.as_ptr().add(slot0).cast::<MaybeUninit<T>>(),
                self.len,
            )
        }
    }

    /// Publish the first `k ≤ len` slots (they must have been
    /// initialized through [`uninit_slice`](Self::uninit_slice)) and
    /// abort the rest.
    pub fn commit(self, k: usize) {
        assert!(k <= self.len, "commit beyond reservation");
        self.ring.resolve(self.pos, self.len, k);
        std::mem::forget(self); // seq words already resolved; skip Drop
    }
}

impl<T: Pod> Drop for RingWriteGrant<'_, T> {
    fn drop(&mut self) {
        // Abort every claimed slot: as-if-consumed, so consumers help
        // the head past them (never published, never read).
        self.ring.resolve(self.pos, self.len, 0);
    }
}

/// A claimed, contiguous run of published slots in a [`RelocRing`]
/// (rounds `pos .. pos + len`, claimed from the head by one CAS),
/// borrowing the elements in place as `&[T]`.
///
/// The slots return to the free pool when the grant is dropped (or via
/// the explicit [`release`](Self::release)); unlike the sequential
/// ring's grant, a claimed MPMC run cannot be un-claimed, so the whole
/// grant is always consumed.
pub struct RingReadGrant<'a, T: Pod> {
    ring: &'a RelocRing<T>,
    pos: u64,
    len: usize,
}

impl<T: Pod> RingReadGrant<'_, T> {
    /// Number of claimed elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the grant is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absolute position of the first claimed slot.
    pub fn start(&self) -> u64 {
        self.pos
    }

    /// The claimed elements, oldest first.
    pub fn slice(&self) -> &[T] {
        let slot0 = self.ring.slot_of(self.pos);
        // SAFETY: the head CAS claimed exactly these published slots;
        // their seq words hold pos+i+1 until this grant resolves them,
        // so no producer can touch the payload while the borrow lives.
        unsafe { std::slice::from_raw_parts(self.ring.vals.as_ptr().add(slot0), self.len) }
    }

    /// Consume the grant (equivalent to dropping it).
    pub fn release(self) {}
}

impl<T: Pod> std::ops::Deref for RingReadGrant<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.slice()
    }
}

impl<T: Pod> Drop for RingReadGrant<'_, T> {
    fn drop(&mut self) {
        self.ring.resolve(self.pos, self.len, 0);
    }
}

// ---------------------------------------------------------------------------
// RelocByteRing — SPSC variable-length byte ring (length-prefixed records)
// ---------------------------------------------------------------------------

/// Header of the byte ring: magic + geometry + the SPSC role-claim words
/// (used by `bq-shm` to hand out at most one producer and one consumer
/// per segment), then the two cache-padded byte counters. `capacity`
/// data bytes follow immediately.
#[repr(C, align(128))]
pub struct ByteRingHdr {
    /// [`BYTE_RING_MAGIC`].
    pub magic: u64,
    /// Data capacity in bytes (a multiple of 8).
    pub capacity: u64,
    /// Maximum message length in bytes.
    pub max_msg: u64,
    /// Producer role claim: 0 = free, else claimant pid (`bq-shm`).
    pub prod_claim: SimAtomicU64,
    /// Consumer role claim: 0 = free, else claimant pid (`bq-shm`).
    pub cons_claim: SimAtomicU64,
    /// Bytes ever published (cache-padded, monotonic).
    pub tail: PadSimAtomicU64,
    /// Bytes ever consumed (cache-padded, monotonic).
    pub head: PadSimAtomicU64,
}

/// Magic word identifying an initialized [`RelocByteRing`] region.
pub const BYTE_RING_MAGIC: u64 = 0x4d42_5142_5954_4531; // "MBQBYTE1"

/// Record header flag: this record is wrap padding, not a message.
pub const BYTE_PAD_BIT: u64 = 1 << 63;

/// Record header mask extracting the payload length in bytes.
pub const BYTE_LEN_MASK: u64 = 0xFFFF_FFFF;

/// Bytes occupied by a record carrying a `len`-byte message: an 8-byte
/// header word plus the payload padded to the next 8-byte boundary (so
/// every record header is 8-aligned).
pub const fn byte_record_size(len: usize) -> usize {
    8 + align_up(len, 8)
}

/// View over an SPSC ring of **bytes** carrying length-prefixed
/// variable-size messages — the descriptor-ring data plane (DESIGN.md
/// §12; ARINC 653 queuing-port semantics, DESIGN.md §10.4).
///
/// ### Record format
///
/// Every record starts at an 8-byte boundary with one `u64` header:
/// bit 63 ([`BYTE_PAD_BIT`]) marks wrap padding, the low 32 bits
/// ([`BYTE_LEN_MASK`]) give the body length. A message record's body is
/// the message, padded to 8 bytes ([`byte_record_size`]); a pad record's
/// body is dead space inserted when a message would wrap (records never
/// wrap, so a message is always one contiguous `&[u8]`).
///
/// `tail`/`head` are *monotonic byte counters* (position mod capacity is
/// the ring offset); construction requires
/// `2 · byte_record_size(max_msg) ≤ capacity`, which guarantees an empty
/// ring always has room for a maximum-size message plus the worst-case
/// pad in front of it — a producer loop can never be permanently stuck.
///
/// ### Concurrency & crash consistency
///
/// Strictly one producer and one consumer (the `unsafe` on the methods
/// is that contract; [`byte_ring`](crate::byte_ring) enforces it with
/// unique endpoint values, `bq-shm` with the claim words). The producer
/// writes body + header *then* publishes with a `Release` store of
/// `tail`; the consumer `Acquire`-loads `tail`, so a producer dying
/// before the `tail` store leaves a torn record invisible forever. The
/// consumer advances `head` (`Release`) only after it is done with the
/// bytes; a consumer dying mid-read redelivers the message to its
/// successor.
pub struct RelocByteRing {
    hdr: NonNull<ByteRingHdr>,
    data: NonNull<u8>,
    cap: u64,
    max_msg: u64,
}

// SAFETY: the view addresses the header and the `capacity` data bytes
// behind it; its safe `&self` methods touch atomics only (the data-plane
// methods are `unsafe` on the SPSC contract).
unsafe impl RelocLayout for RelocByteRing {
    /// `(capacity in data bytes, maximum message length)`.
    type Args = (usize, usize);
    const HDR_BYTES: usize = std::mem::size_of::<ByteRingHdr>();

    /// The progress bound `2 · record(max_msg) ≤ capacity` makes the
    /// wrap-pad worst case (pad shorter than a record, then the record
    /// itself) always fit an empty ring.
    fn try_layout((cap_bytes, max_msg): (usize, usize)) -> Result<Layout, BadLayout> {
        if cap_bytes == 0 || !cap_bytes.is_multiple_of(8) {
            return Err(BadLayout("capacity must be a positive multiple of 8"));
        }
        if max_msg == 0 {
            return Err(BadLayout("max message length must be positive"));
        }
        if max_msg as u64 > BYTE_LEN_MASK {
            return Err(BadLayout(
                "max message length exceeds the 32-bit record header",
            ));
        }
        if 2 * byte_record_size(max_msg) > cap_bytes {
            return Err(BadLayout(
                "capacity must hold two maximum-size records (wrap-pad progress bound)",
            ));
        }
        layout_of(
            span(Self::HDR_BYTES, cap_bytes, 1),
            std::mem::align_of::<ByteRingHdr>(),
        )
    }

    unsafe fn init_at(base: *mut u8, args: (usize, usize)) -> RelocByteRing {
        let _ = Self::layout(args);
        base.cast::<ByteRingHdr>().write(ByteRingHdr {
            magic: BYTE_RING_MAGIC,
            capacity: args.0 as u64,
            max_msg: args.1 as u64,
            prod_claim: SimAtomicU64::new(0),
            cons_claim: SimAtomicU64::new(0),
            tail: PadSimAtomicU64::new(0),
            head: PadSimAtomicU64::new(0),
        });
        Self::view(base, args)
    }

    unsafe fn recorded_args(base: *const u8) -> Result<(usize, usize), BadLayout> {
        let hdr = base.cast::<ByteRingHdr>();
        if (*hdr).magic != BYTE_RING_MAGIC {
            return Err(BadLayout("not a RelocByteRing region"));
        }
        Ok((recorded((*hdr).capacity)?, recorded((*hdr).max_msg)?))
    }

    unsafe fn view(base: *mut u8, (cap_bytes, max_msg): (usize, usize)) -> RelocByteRing {
        RelocByteRing {
            hdr: NonNull::new_unchecked(base.cast()),
            data: NonNull::new_unchecked(base.add(Self::HDR_BYTES)),
            cap: cap_bytes as u64,
            max_msg: max_msg as u64,
        }
    }
}

impl RelocByteRing {
    fn hdr(&self) -> &ByteRingHdr {
        // SAFETY: view invariant.
        unsafe { self.hdr.as_ref() }
    }

    /// Data capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.cap as usize
    }

    /// Maximum message length in bytes.
    pub fn max_msg(&self) -> usize {
        self.max_msg as usize
    }

    /// The producer byte counter (bytes ever published).
    pub fn tail(&self) -> &SimAtomicU64 {
        &self.hdr().tail.0
    }

    /// The consumer byte counter (bytes ever consumed).
    pub fn head(&self) -> &SimAtomicU64 {
        &self.hdr().head.0
    }

    /// The producer role-claim word (`bq-shm`'s endpoint handout).
    pub fn prod_claim(&self) -> &SimAtomicU64 {
        &self.hdr().prod_claim
    }

    /// The consumer role-claim word (`bq-shm`'s endpoint handout).
    pub fn cons_claim(&self) -> &SimAtomicU64 {
        &self.hdr().cons_claim
    }

    /// Bytes currently in flight (published, not yet consumed) —
    /// includes record headers and wrap padding.
    pub fn bytes_used(&self) -> usize {
        let t = self.tail().load(Ordering::SeqCst);
        let h = self.head().load(Ordering::SeqCst);
        // `head`, read second, may have passed the `tail` read first; the
        // ring never holds more than `cap`, so a larger difference is that
        // race and reads as empty.
        let used = t.wrapping_sub(h);
        if used > self.cap {
            0
        } else {
            used as usize
        }
    }

    /// Record header word at byte offset `off` (8-aligned, in bounds).
    unsafe fn header_read(&self, off: u64) -> u64 {
        debug_assert!(off.is_multiple_of(8) && off < self.cap);
        self.data.as_ptr().add(off as usize).cast::<u64>().read()
    }

    /// Write the record header word at byte offset `off`.
    unsafe fn header_write(&self, off: u64, word: u64) {
        debug_assert!(off.is_multiple_of(8) && off < self.cap);
        self.data
            .as_ptr()
            .add(off as usize)
            .cast::<u64>()
            .write(word);
    }

    /// Reserve space for one message of up to `len ≤ max_msg` bytes,
    /// inserting a wrap-pad record first if needed. Returns `None` when
    /// the ring lacks room (exact: SPSC counters are never stale to
    /// their owner).
    ///
    /// # Safety
    ///
    /// Caller must be the ring's unique producer (SPSC discipline).
    pub unsafe fn producer_grant(&self, len: usize) -> Option<ByteWriteGrant<'_>> {
        assert!(len as u64 <= self.max_msg, "message exceeds max_msg");
        let rec = byte_record_size(len) as u64;
        let mut t = self.tail().load(Ordering::Relaxed);
        let h = self.head().load(Ordering::Acquire);
        let free = self.cap - t.wrapping_sub(h);
        let mut off = t % self.cap;
        let room = self.cap - off; // contiguous bytes to the wrap point

        // Offsets are `counter % cap`, which stays continuous across the
        // counters' 2⁶⁴ wrap only when `cap` divides 2⁶⁴: a ring whose
        // capacity is not a power of two carries at most 2⁶⁴ bytes in its
        // lifetime (DESIGN.md §12.2). `t` advances by at most `room + rec`.
        debug_assert!(
            self.cap.is_power_of_two() || t.checked_add(room + rec).is_some(),
            "byte ring of capacity {} would carry its 2^64th byte",
            self.cap
        );
        if rec > room {
            // The record will not fit before the wrap: lay down a pad
            // record covering the remainder and start at offset 0.
            if free < room + rec {
                return None;
            }
            self.header_write(off, BYTE_PAD_BIT | (room - 8));
            t = t.wrapping_add(room);
            self.tail().store(t, Ordering::Release);
            off = 0;
        } else if free < rec {
            return None;
        }
        Some(ByteWriteGrant {
            ring: self,
            pos: t,
            off,
            len,
        })
    }

    /// Copy-convenience producer: grant + memcpy + commit. Returns
    /// `false` when the ring lacks room.
    ///
    /// # Safety
    ///
    /// Caller must be the ring's unique producer (SPSC discipline).
    pub unsafe fn producer_push(&self, msg: &[u8]) -> bool {
        match self.producer_grant(msg.len()) {
            Some(mut g) => {
                g.buf()[..msg.len()].copy_from_slice(msg);
                g.commit(msg.len());
                true
            }
            None => false,
        }
    }

    /// Borrow the oldest published message in place, transparently
    /// skipping wrap-pad records. Returns `None` when the ring is empty.
    ///
    /// # Safety
    ///
    /// Caller must be the ring's unique consumer (SPSC discipline).
    pub unsafe fn consumer_read(&self) -> Option<ByteReadGrant<'_>> {
        loop {
            let h = self.head().load(Ordering::Relaxed);
            let t = self.tail().load(Ordering::Acquire);
            if h == t {
                return None;
            }
            let off = h % self.cap;
            let word = self.header_read(off);
            let body = word & BYTE_LEN_MASK;
            if word & BYTE_PAD_BIT != 0 {
                // Wrap padding: consume it and look again at offset 0.
                self.head()
                    .store(h.wrapping_add(8 + body), Ordering::Release);
                continue;
            }
            return Some(ByteReadGrant {
                ring: self,
                pos: h,
                off,
                len: body as usize,
            });
        }
    }

    /// Copy-convenience consumer: read grant + extend `out` + release.
    /// Returns `false` when the ring is empty.
    ///
    /// # Safety
    ///
    /// Caller must be the ring's unique consumer (SPSC discipline).
    pub unsafe fn consumer_pop(&self, out: &mut Vec<u8>) -> bool {
        match self.consumer_read() {
            Some(g) => {
                out.extend_from_slice(g.msg());
                true
            }
            None => false,
        }
    }
}

/// Reserved space for one variable-length message in a
/// [`RelocByteRing`]. Fill [`buf`](Self::buf) in place, then
/// [`commit`](Self::commit) the bytes actually used (`≤` the reserved
/// length — a shorter commit publishes a shorter record). Dropping the
/// grant aborts for free: the tail was never advanced past any wrap pad
/// already laid down, so the space is simply reused.
pub struct ByteWriteGrant<'a> {
    ring: &'a RelocByteRing,
    pos: u64,
    /// `pos mod capacity`, the record's offset in the data bytes.
    off: u64,
    len: usize,
}

impl ByteWriteGrant<'_> {
    /// Reserved message capacity in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff zero bytes were reserved (legal: empty messages are
    /// valid records).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The reserved message bytes, to be filled in place.
    pub fn buf(&mut self) -> &mut [u8] {
        let off = self.off as usize;
        // SAFETY: producer_grant guaranteed [off+8, off+8+len) is in
        // bounds (the record never wraps) and unpublished; the unique-
        // producer contract makes this grant the only writer.
        unsafe { std::slice::from_raw_parts_mut(self.ring.data.as_ptr().add(off + 8), self.len) }
    }

    /// Publish the first `used ≤ len` filled bytes as one message.
    pub fn commit(self, used: usize) {
        assert!(used <= self.len, "commit beyond reservation");
        // SAFETY: same bounds as `buf`; header word precedes the body.
        unsafe { self.ring.header_write(self.off, used as u64) };
        let end = self.pos.wrapping_add(byte_record_size(used) as u64);
        self.ring.tail().store(end, Ordering::Release);
    }
}

/// One borrowed, in-place message from a [`RelocByteRing`]. The bytes
/// stay valid until the grant is dropped (or explicitly
/// [`release`](Self::release)d), which is what advances the consumer
/// counter — a consumer crashing mid-read redelivers the message.
pub struct ByteReadGrant<'a> {
    ring: &'a RelocByteRing,
    pos: u64,
    /// `pos mod capacity`, the record's offset in the data bytes.
    off: u64,
    len: usize,
}

impl ByteReadGrant<'_> {
    /// Message length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the message is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The message bytes, in place in the ring.
    pub fn msg(&self) -> &[u8] {
        let off = self.off as usize;
        // SAFETY: the record at pos was published (tail Acquire) and
        // never wraps; head stays behind it until this grant drops, so
        // the producer cannot reuse the bytes while the borrow lives.
        unsafe { std::slice::from_raw_parts(self.ring.data.as_ptr().add(off + 8), self.len) }
    }

    /// Consume the grant (equivalent to dropping it).
    pub fn release(self) {}
}

impl std::ops::Deref for ByteReadGrant<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.msg()
    }
}

impl Drop for ByteReadGrant<'_> {
    fn drop(&mut self) {
        let end = self.pos.wrapping_add(byte_record_size(self.len) as u64);
        self.ring.head().store(end, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// AnnounceBoard — the Listing 5 announcement array + descriptor pool
// ---------------------------------------------------------------------------

/// Header of the announcement board: magic + thread bound `T`, alone on
/// the first 64-byte line. The `T` [`BoardLane`]s follow with no slack.
#[repr(C, align(64))]
pub struct BoardHdr {
    /// [`BOARD_MAGIC`].
    pub magic: u64,
    /// Thread bound `T`.
    pub threads: u64,
}

/// Magic word identifying an initialized [`AnnounceBoard`] region.
pub const BOARD_MAGIC: u64 = 0x4d42_5141_4e4e_4f31; // "MBQANNO1"

/// One reusable `EnqOp` descriptor (paper Listing 5, lines 1–21) in
/// relocatable form: three atomics, no pointers — descriptor *references*
/// are packed `(index, seq)` words, so they too are position-independent.
/// The target cell is not cached: it is `e % C`.
///
/// `e` and `x` are written only between the claim and the publication of
/// an incarnation, so a reader that re-validates `word`'s incarnation
/// after reading them observes a consistent one.
#[repr(C)]
pub struct RelocEnqOp {
    /// `(seq << 2) | state`: the incarnation counter (even = free, odd =
    /// live) and the paper's `successful: Bool?` in one word, so one load
    /// validates a reference and reads its verdict, and a stale helper's
    /// verdict CAS fails after reuse.
    pub word: SimAtomicU64,
    /// The `enqueues` value this operation is bound to.
    pub e: SimAtomicU64,
    /// The element being inserted.
    pub x: SimAtomicU64,
}

/// Everything thread `tid` writes first, on one 64-byte line of its own:
/// the announcement slot `ops[tid]` and descriptors `2·tid`, `2·tid + 1`
/// of the pool — the slot it announces in and the pair it claims from
/// before any other (DESIGN.md §7.2). A scanner reading `tid`'s
/// announcement takes one line; no two threads' lanes share one.
#[repr(C, align(64))]
pub struct BoardLane {
    /// Announcement slot: a packed descriptor reference or 0 = ⊥.
    pub op: SimAtomicU64,
    /// Descriptors `2·tid` and `2·tid + 1`.
    pub descs: [RelocEnqOp; 2],
    _spare: u64,
}

/// View over the Listing 5 helping machinery — `T` lanes holding the
/// `T`-slot announcement array and the `2T`-descriptor pool — placed in
/// caller-provided memory. [`OptimalQueue`](crate::OptimalQueue) owns one
/// in a [`RelocBox`]; a future shared-memory optimal queue places the same
/// bytes in a segment.
pub struct AnnounceBoard {
    lanes: NonNull<BoardLane>,
    /// `T`, as recorded in the header when the view was built.
    threads: usize,
}

// SAFETY: the view addresses the `T` lanes behind the header of
// `try_layout(t)`; every word it hands out is an atomic.
unsafe impl RelocLayout for AnnounceBoard {
    /// Thread bound `T > 0`.
    type Args = usize;
    const HDR_BYTES: usize = std::mem::size_of::<BoardHdr>();

    fn try_layout(t: usize) -> Result<Layout, BadLayout> {
        if t == 0 {
            return Err(BadLayout("thread bound must be positive"));
        }
        layout_of(
            span(Self::HDR_BYTES, t, std::mem::size_of::<BoardLane>()),
            std::mem::align_of::<BoardLane>(),
        )
    }

    /// An empty board: announcement slots ⊥ (0), all descriptors free
    /// (even `seq`) — the zeroed region as handed over, plus the header.
    unsafe fn init_at(base: *mut u8, t: usize) -> AnnounceBoard {
        let _ = Self::layout(t);
        base.cast::<BoardHdr>().write(BoardHdr {
            magic: BOARD_MAGIC,
            threads: t as u64,
        });
        Self::view(base, t)
    }

    unsafe fn recorded_args(base: *const u8) -> Result<usize, BadLayout> {
        let hdr = base.cast::<BoardHdr>();
        if (*hdr).magic != BOARD_MAGIC {
            return Err(BadLayout("not an AnnounceBoard region"));
        }
        recorded((*hdr).threads)
    }

    unsafe fn view(base: *mut u8, t: usize) -> AnnounceBoard {
        AnnounceBoard {
            lanes: NonNull::new_unchecked(base.add(Self::HDR_BYTES).cast()),
            threads: t,
        }
    }
}

impl AnnounceBoard {
    /// Thread bound `T` (= announcement slot count).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Descriptor pool size (`2T`).
    pub fn pool_len(&self) -> usize {
        2 * self.threads
    }

    /// Thread `tid`'s lane, `None` for `tid ≥ T` — the one bounds check
    /// (a compare against the cached `T`) behind `op` and `desc`.
    fn lane(&self, tid: usize) -> Option<&BoardLane> {
        // SAFETY: `tid < T`, and the view addresses `T` lanes.
        (tid < self.threads).then(|| unsafe { &*self.lanes.as_ptr().add(tid) })
    }

    /// Announcement slot `i`, holding a packed descriptor reference or
    /// 0 = ⊥.
    ///
    /// # Panics
    /// If `i ≥ T`, in every build.
    pub fn op(&self, i: usize) -> &SimAtomicU64 {
        match self.lane(i) {
            Some(lane) => &lane.op,
            None => panic!("announcement slot {i} of {}", self.threads),
        }
    }

    /// Descriptor `i` of the pool (`i < 2T`): the `i % 2`-th of lane
    /// `i / 2`.
    pub fn desc(&self, i: usize) -> Option<&RelocEnqOp> {
        self.lane(i / 2).map(|lane| &lane.descs[i % 2])
    }

    /// Iterate over the descriptor pool.
    pub fn descs(&self) -> impl Iterator<Item = &RelocEnqOp> + '_ {
        (0..self.pool_len()).map(move |i| self.desc(i).expect("in bounds"))
    }
}

// ---------------------------------------------------------------------------
// Layout stability: compile-time pins (DESIGN.md §10 rule 5)
// ---------------------------------------------------------------------------

const _: () = {
    use std::mem::{align_of, offset_of, size_of};

    // PadAtomicU64 / PadSimAtomicU64: one unit of contention isolation.
    assert!(size_of::<PadAtomicU64>() == 128);
    assert!(align_of::<PadAtomicU64>() == 128);
    assert!(size_of::<PadSimAtomicU64>() == 128);
    assert!(align_of::<PadSimAtomicU64>() == 128);

    // RingHdr: magic+capacity share the first padded unit; the counters
    // get one each.
    assert!(size_of::<RingHdr>() == 384);
    assert!(align_of::<RingHdr>() == 128);
    assert!(offset_of!(RingHdr, magic) == 0);
    assert!(offset_of!(RingHdr, capacity) == 8);
    assert!(offset_of!(RingHdr, tail) == 128);
    assert!(offset_of!(RingHdr, head) == 256);

    // ByteRingHdr: geometry + claims in the first padded unit, then the
    // two byte counters.
    assert!(size_of::<ByteRingHdr>() == 384);
    assert!(align_of::<ByteRingHdr>() == 128);
    assert!(offset_of!(ByteRingHdr, magic) == 0);
    assert!(offset_of!(ByteRingHdr, capacity) == 8);
    assert!(offset_of!(ByteRingHdr, max_msg) == 16);
    assert!(offset_of!(ByteRingHdr, prod_claim) == 24);
    assert!(offset_of!(ByteRingHdr, cons_claim) == 32);
    assert!(offset_of!(ByteRingHdr, tail) == 128);
    assert!(offset_of!(ByteRingHdr, head) == 256);

    // BoardHdr, one line; a three-word descriptor; one lane per thread:
    // slot + own descriptor pair + 8 spare bytes = exactly one line. (The
    // header and `RelocEnqOp` were a 128-byte unit each, and the
    // descriptor five words, until the incarnation and verdict words
    // merged and the cached cell index left.)
    assert!(size_of::<BoardHdr>() == 64);
    assert!(align_of::<BoardHdr>() == 64);
    assert!(size_of::<RelocEnqOp>() == 24);
    assert!(align_of::<RelocEnqOp>() == 8);
    assert!(offset_of!(RelocEnqOp, word) == 0);
    assert!(offset_of!(RelocEnqOp, e) == 8);
    assert!(offset_of!(RelocEnqOp, x) == 16);
    assert!(size_of::<BoardLane>() == 64);
    assert!(align_of::<BoardLane>() == 64);
    assert!(offset_of!(BoardLane, op) == 0);
    assert!(offset_of!(BoardLane, descs) == 8);
};

#[cfg(test)]
#[path = "relocatable_tests.rs"]
mod tests;
