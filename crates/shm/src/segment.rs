//! `mmap`-backed shared segments with a versioned header and a process
//! liveness table — the substrate `ShmQueue` places its relocatable
//! layout into (DESIGN.md §10.2).
//!
//! A segment is `SegHdr` followed (at the next 128-byte boundary) by a
//! caller-defined **payload** whose layout is identified by a `layout_tag`
//! in the header. Attaching (`open_file`, or implicitly after `fork`)
//! validates magic, version, tag and length before any payload access, so
//! a stale or foreign file can never be misread as a queue.
//!
//! Two backings:
//!
//! * [`ShmSegment::create_anon`] — `MAP_SHARED | MAP_ANONYMOUS`. The
//!   mapping is *shared, not copied,* across `fork`, and stays at the same
//!   virtual address in the child, so a child may keep using views built
//!   by the parent. This is the backing the fork harness and all tests
//!   use.
//! * [`ShmSegment::create_file`] / [`ShmSegment::open_file`] — a mapped
//!   file, for unrelated processes; the open path is where relocation
//!   actually happens (each process gets a different base address and
//!   rebuilds its views from it, which only works because payloads are
//!   relocatable).

use std::fs::OpenOptions;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bq_core::relocatable::{align_up, PadAtomicU64, RelocLayout};

/// Magic word identifying a membq shared segment ("MBQSHSEG").
pub const SHM_MAGIC: u64 = 0x4d42_5153_4853_4547;
/// Header format version; bumped on any layout change. Version 2 widened
/// [`ProcSlot`] with the heartbeat/lease words of the health monitor
/// (DESIGN.md §13); version 3 widened it again with the per-process
/// operation counters (attempts/claims/reclaims — DESIGN.md §14), which
/// live in the segment so they survive the owner's death and can be
/// reported by a post-`recover` snapshot. The counters are always
/// present (a segment layout cannot depend on a cargo feature: every
/// attached process must agree on the framing byte-for-byte).
pub const SHM_VERSION: u64 = 3;
/// Process-table size. 8 bits of owner index are packed into queue
/// sequence words, but 64 keeps the header compact.
pub const MAX_PROCS: usize = 64;
/// Number of general-purpose scratch counters in the header (used by the
/// fork harness and workloads for cross-process coordination).
pub const SCRATCH_WORDS: usize = 8;

/// One entry of the process liveness table.
///
/// `pid` doubles as the allocation latch (0 = free, CAS to claim). `dead`
/// is the **authoritative** death flag: the parent sets it after `waitpid`
/// has reaped the process, at which point the process provably executes no
/// further instruction. The `kill(pid, 0) == ESRCH` probe in
/// [`ShmSegment::proc_is_dead`] is a secondary signal with the same
/// one-sided guarantee (ESRCH is only returned once the process is gone;
/// a zombie — dead but unreaped — still reports alive, and a recycled pid
/// reports alive): both sources may be *late* about a death but never
/// report a live process dead, which is what the queue's reclaim safety
/// argument needs (DESIGN.md §10.3).
///
/// `heartbeat`/`lease_ns` form the **suspicion** layer on top
/// (DESIGN.md §13): a process that promised to [`beat`](ShmSegment::beat)
/// within its lease and has not is *suspected* — worth probing and worth
/// a [`recover`](crate::ShmQueue::recover) sweep — but never treated as
/// dead on that evidence alone. Only the two one-sided sources above
/// authorize a reclaim; the lease merely decides *when to ask them*.
#[repr(C)]
pub struct ProcSlot {
    /// Registered pid (0 = slot free).
    pub pid: AtomicU64,
    /// 1 once the process is known reaped.
    pub dead: AtomicU64,
    /// Last `CLOCK_MONOTONIC` heartbeat, in nanoseconds (set at
    /// registration, refreshed by [`ShmSegment::beat`]).
    pub heartbeat: AtomicU64,
    /// Promised heartbeat interval in nanoseconds (0 = no lease: the
    /// process opted out of suspicion, e.g. short-lived registrants).
    pub lease_ns: AtomicU64,
    /// Queue operations attempted by this process (DESIGN.md §14).
    /// Statistics only — `Relaxed`, read by nothing in the protocols —
    /// but stored here rather than in process memory so the count
    /// survives a SIGKILL and tells the post-mortem how far the victim
    /// got. In a slot a [`ShmHandle`](crate::ShmHandle) holds, the
    /// handle is the only writer (DESIGN.md §14.3) and counts with a
    /// plain load and store; a byte ring's per-pid slot has several
    /// writers and counts with `fetch_add`.
    pub attempts: AtomicU64,
    /// Slot transitions this process won: enqueue claims (W1) and
    /// dequeue claims (V1) alike. Written like `attempts`: by the
    /// holding handle alone, or with `fetch_add` in a byte ring's slot.
    pub claims: AtomicU64,
    /// Dead-owner reclaims this process performed as a *survivor*
    /// (lazy reclaims and `recover` sweeps). Always `fetch_add`: off the
    /// hot path.
    pub reclaims: AtomicU64,
    /// Reserved (keeps the slot a power-of-two 64 bytes; always 0 in
    /// version 3).
    pub reserved: AtomicU64,
}

/// Segment header: identification words, scratch counters, process table.
/// The payload follows at [`payload_offset`](ShmSegment::payload_offset).
#[repr(C, align(128))]
pub struct SegHdr {
    /// [`SHM_MAGIC`].
    pub magic: u64,
    /// [`SHM_VERSION`].
    pub version: u64,
    /// Total mapping length in bytes (header + payload).
    pub total_len: u64,
    /// Caller-defined payload layout identifier.
    pub layout_tag: u64,
    /// 0 while the creator initializes the payload, 1 once ready.
    /// `open_file` refuses segments still at 0.
    pub init: AtomicU64,
    /// Count of fault-containment events observed in this segment: each
    /// dead-owner reclaim (lazy or via a `recover` sweep) and each stolen
    /// byte-ring endpoint bumps it. Monotone; survivors read it to learn
    /// the segment has seen deaths (DESIGN.md §13).
    pub poisoned: AtomicU64,
    /// Coordination counters for harnesses/workloads, one cache-line pair
    /// each so cross-process counting does not false-share.
    pub scratch: [PadAtomicU64; SCRATCH_WORDS],
    /// The liveness table.
    pub procs: [ProcSlot; MAX_PROCS],
}

/// An owned mapping of a shared segment.
///
/// Dropping unmaps this process's view; the underlying shared pages live
/// until every mapping is gone (and the file, if any, is removed).
pub struct ShmSegment {
    base: *mut u8,
    len: usize,
}

// SAFETY: the mapping is shared memory by construction; all cross-process
// coordination goes through the atomics stored inside it. The struct
// itself only carries the base pointer and length.
unsafe impl Send for ShmSegment {}
unsafe impl Sync for ShmSegment {}

impl ShmSegment {
    /// Byte offset of the payload behind the header.
    pub fn payload_offset() -> usize {
        align_up(std::mem::size_of::<SegHdr>(), 128)
    }

    /// Total segment length for a payload of `payload_len` bytes, rounded
    /// up to the page size.
    pub fn total_len(payload_len: usize) -> usize {
        align_up(Self::payload_offset() + payload_len, 4096)
    }

    /// Map `total` shared read-write bytes: of `fd`, or of nothing (`fd`
    /// −1) with `MAP_ANONYMOUS` in `flags`.
    fn map(total: usize, flags: libc::c_int, fd: libc::c_int) -> std::io::Result<ShmSegment> {
        // SAFETY: a plain mapping request; the result is checked below.
        let base = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                total,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED | flags,
                fd,
                0,
            )
        };
        if base == libc::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        Ok(ShmSegment {
            base: base.cast::<u8>(),
            len: total,
        })
    }

    /// Write the identification words of a fresh, zeroed mapping. Zeroed
    /// scratch/procs/init are already the correct initial state.
    fn init_header(self, layout_tag: u64) -> ShmSegment {
        // SAFETY: the mapping is `self.len` ≥ `size_of::<SegHdr>()` bytes
        // (`total_len` adds the payload offset) and not yet shared.
        unsafe {
            let hdr = self.base.cast::<SegHdr>();
            (*hdr).magic = SHM_MAGIC;
            (*hdr).version = SHM_VERSION;
            (*hdr).total_len = self.len as u64;
            (*hdr).layout_tag = layout_tag;
        }
        self
    }

    /// Create an anonymous shared segment with room for `payload_len`
    /// payload bytes, tagged `layout_tag`. The mapping (and everything in
    /// it) is shared with all future `fork` children.
    pub fn create_anon(payload_len: usize, layout_tag: u64) -> std::io::Result<ShmSegment> {
        let seg = Self::map(Self::total_len(payload_len), libc::MAP_ANONYMOUS, -1)?;
        Ok(seg.init_header(layout_tag))
    }

    /// Create a file-backed segment at `path` (truncating any previous
    /// content). Mark it [`publish`](Self::publish)ed once the payload is
    /// initialized so `open_file` in other processes can proceed.
    pub fn create_file(
        path: &Path,
        payload_len: usize,
        layout_tag: u64,
    ) -> std::io::Result<ShmSegment> {
        let total = Self::total_len(payload_len);
        let f = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        // SAFETY: valid fd from the line above.
        if unsafe { libc::ftruncate(f.as_raw_fd(), total as libc::off_t) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Self::map(total, 0, f.as_raw_fd())?.init_header(layout_tag))
    }

    /// Map an existing published segment file, validating the header
    /// (magic, version, tag, recorded length) before returning.
    pub fn open_file(path: &Path, layout_tag: u64) -> std::io::Result<ShmSegment> {
        let f = OpenOptions::new().read(true).write(true).open(path)?;
        let total = f.metadata()?.len() as usize;
        if total < std::mem::size_of::<SegHdr>() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "segment file shorter than its header",
            ));
        }
        let seg = Self::map(total, 0, f.as_raw_fd())?;
        let hdr = seg.hdr();
        let bad = |what: &str| {
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("not a membq segment: bad {what}"),
            ))
        };
        if hdr.magic != SHM_MAGIC {
            return bad("magic");
        }
        if hdr.version != SHM_VERSION {
            return bad("version");
        }
        if hdr.layout_tag != layout_tag {
            return bad("layout tag");
        }
        if hdr.total_len as usize != total {
            return bad("recorded length");
        }
        if hdr.init.load(Ordering::Acquire) != 1 {
            return bad("init flag (payload not published)");
        }
        Ok(seg)
    }

    /// Mark the payload initialized (Release-published to openers).
    pub fn publish(&self) {
        self.hdr().init.store(1, Ordering::Release);
    }

    fn hdr(&self) -> &SegHdr {
        // SAFETY: the header is written by every constructor before the
        // segment is returned.
        unsafe { &*self.base.cast::<SegHdr>() }
    }

    /// The payload layout tag recorded in the header.
    pub fn layout_tag(&self) -> u64 {
        self.hdr().layout_tag
    }

    /// Base address of the payload region in this process's mapping.
    pub fn payload_ptr(&self) -> *mut u8 {
        // SAFETY: payload_offset < len by construction.
        unsafe { self.base.add(Self::payload_offset()) }
    }

    /// Payload capacity in bytes.
    pub fn payload_len(&self) -> usize {
        self.len - Self::payload_offset()
    }

    /// Total mapping length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false (segments cannot be empty).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scratch counter `i` (`i <` [`SCRATCH_WORDS`]).
    pub fn scratch(&self, i: usize) -> &AtomicU64 {
        &self.hdr().scratch[i].0
    }

    // -- the process liveness table --------------------------------------

    /// Register process `pid` in the table, returning its slot index.
    /// Panics when all [`MAX_PROCS`] slots are taken.
    pub fn register_proc(&self, pid: u32) -> usize {
        assert!(pid != 0, "pid 0 cannot be registered");
        for (i, slot) in self.hdr().procs.iter().enumerate() {
            if slot
                .pid
                .compare_exchange(0, pid as u64, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                slot.dead.store(0, Ordering::Release);
                slot.lease_ns.store(0, Ordering::Release);
                slot.attempts.store(0, Ordering::Release);
                slot.claims.store(0, Ordering::Release);
                slot.reclaims.store(0, Ordering::Release);
                slot.heartbeat.store(monotonic_ns(), Ordering::Release);
                return i;
            }
        }
        panic!("process table full ({MAX_PROCS} slots)");
    }

    /// Register the **calling** process.
    pub fn register_self(&self) -> usize {
        // SAFETY: getpid has no preconditions.
        self.register_proc(unsafe { libc::getpid() } as u32)
    }

    /// The slot already registered to the calling pid (and not flagged
    /// dead), or a fresh registration. Role-based structures (the byte
    /// ring's claimed endpoints) attribute their counters through this so
    /// repeated claims in one process share one table slot instead of
    /// consuming one per claim.
    pub fn find_or_register_self(&self) -> usize {
        // SAFETY: getpid has no preconditions.
        let me = unsafe { libc::getpid() } as u64;
        for (i, slot) in self.hdr().procs.iter().enumerate() {
            if slot.pid.load(Ordering::Acquire) == me && slot.dead.load(Ordering::Acquire) == 0 {
                return i;
            }
        }
        self.register_self()
    }

    /// The pid registered in slot `idx` (0 = free).
    pub fn proc_pid(&self, idx: usize) -> u32 {
        self.hdr().procs[idx].pid.load(Ordering::Acquire) as u32
    }

    /// Authoritatively mark slot `idx` dead. Call only once the process
    /// is known to execute no further instruction (e.g. after `waitpid`
    /// reaped it) — the queue's reclaim safety rests on this.
    pub fn mark_dead(&self, idx: usize) {
        self.hdr().procs[idx].dead.store(1, Ordering::Release);
    }

    /// Is the process in slot `idx` dead?
    ///
    /// True iff the authoritative flag is set **or** the pid probe
    /// (`kill(pid, 0)`) reports `ESRCH`. Both sources are one-sided: they
    /// may lag a real death (zombie, recycled pid ⇒ "alive") but never
    /// report a live process dead, so a reclaim triggered by this answer
    /// can never race a future write from the owner.
    pub fn proc_is_dead(&self, idx: usize) -> bool {
        let slot = &self.hdr().procs[idx];
        if slot.dead.load(Ordering::Acquire) == 1 {
            return true;
        }
        let pid = slot.pid.load(Ordering::Acquire);
        if pid == 0 {
            return false; // unregistered slot: nothing to reclaim from
        }
        // SAFETY: signal 0 probes existence without delivering anything.
        let r = unsafe { libc::kill(pid as libc::pid_t, 0) };
        // SAFETY: errno location is always valid on this thread.
        r == -1 && unsafe { *libc::__errno_location() } == libc::ESRCH
    }

    // -- the heartbeat / lease suspicion layer ---------------------------

    /// Refresh slot `idx`'s heartbeat to "now" (`CLOCK_MONOTONIC`). Cheap
    /// enough to call from a worker's main loop; a process that took a
    /// lease and stops beating becomes a *suspect*, never more.
    pub fn beat(&self, idx: usize) {
        self.hdr().procs[idx]
            .heartbeat
            .store(monotonic_ns(), Ordering::Release);
    }

    /// Take (or change) slot `idx`'s heartbeat lease: the process promises
    /// to [`beat`](Self::beat) at least every `lease`. Also beats, so the
    /// lease never starts expired. A zero lease opts back out.
    pub fn set_lease(&self, idx: usize, lease: Duration) {
        let slot = &self.hdr().procs[idx];
        slot.heartbeat.store(monotonic_ns(), Ordering::Release);
        slot.lease_ns.store(
            lease.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Release,
        );
    }

    /// Has slot `idx` broken its heartbeat lease? **Suspicion only**: a
    /// stalled-but-live process (SIGSTOP, long GC, scheduler starvation)
    /// expires its lease too, so an expired lease authorizes nothing by
    /// itself — it tells monitors to run [`proc_is_dead`](Self::proc_is_dead)
    /// and, if that confirms, a `recover` sweep. Always false without a
    /// lease or for a free slot.
    pub fn lease_expired(&self, idx: usize) -> bool {
        let slot = &self.hdr().procs[idx];
        if slot.pid.load(Ordering::Acquire) == 0 {
            return false;
        }
        let lease = slot.lease_ns.load(Ordering::Acquire);
        if lease == 0 {
            return false;
        }
        monotonic_ns().saturating_sub(slot.heartbeat.load(Ordering::Acquire)) > lease
    }

    /// Slots whose lease has expired *and* whose death the authoritative
    /// oracle confirms — the worklist a health monitor feeds to
    /// `recover`. The lease filter keeps the sweep from probing every
    /// registered pid on every tick; the oracle keeps it sound.
    pub fn confirmed_suspects(&self) -> Vec<usize> {
        (0..MAX_PROCS)
            .filter(|&i| self.lease_expired(i) && self.proc_is_dead(i))
            .collect()
    }

    // -- the per-process operation counters (DESIGN.md §14) --------------

    /// Count one queue-operation attempt by the process in slot `idx`.
    /// `Relaxed`: a pure statistic, read by no protocol decision, living
    /// in the segment only so it survives the owner's death. Crate-only,
    /// so that nothing outside it can write a slot a
    /// [`ShmHandle`](crate::ShmHandle) counts into with plain stores.
    pub(crate) fn note_proc_attempt(&self, idx: usize) {
        self.hdr().procs[idx]
            .attempts
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Count one successful slot/record claim by slot `idx`.
    pub(crate) fn note_proc_claim(&self, idx: usize) {
        self.hdr().procs[idx].claims.fetch_add(1, Ordering::Relaxed);
    }

    /// [`note_proc_attempt`](Self::note_proc_attempt) for a caller that
    /// is the word's **only writer**: the [`ShmHandle`](crate::ShmHandle)
    /// that registered slot `idx` (DESIGN.md §14.3).
    #[inline]
    pub(crate) fn note_own_attempt(&self, idx: usize) {
        tick_single_writer(&self.hdr().procs[idx].attempts);
    }

    /// [`note_proc_claim`](Self::note_proc_claim) for the slot's only
    /// writer, as in [`note_own_attempt`](Self::note_own_attempt).
    #[inline]
    pub(crate) fn note_own_claim(&self, idx: usize) {
        tick_single_writer(&self.hdr().procs[idx].claims);
    }

    /// Count one dead-owner reclaim performed *by* slot `idx` (the
    /// survivor doing the cleanup, not the victim).
    pub fn note_proc_reclaim(&self, idx: usize) {
        self.hdr().procs[idx]
            .reclaims
            .fetch_add(1, Ordering::Relaxed);
    }

    /// `(attempts, claims, reclaims)` recorded by slot `idx` — readable
    /// by any attached process, including after the slot's owner died.
    pub fn proc_stats(&self, idx: usize) -> (u64, u64, u64) {
        let slot = &self.hdr().procs[idx];
        (
            slot.attempts.load(Ordering::Relaxed),
            slot.claims.load(Ordering::Relaxed),
            slot.reclaims.load(Ordering::Relaxed),
        )
    }

    /// Cross-process aggregation (DESIGN.md §14): one snapshot covering
    /// every *registered* slot (`procN.attempts/claims/reclaims`, plus a
    /// `procN.dead` marker) and the segment-wide poison count. Unlike
    /// the in-process counter blocks this is **not** feature-gated: the
    /// counters are part of the shm layout, so they are always live.
    pub fn stats_snapshot(&self) -> bq_core::MetricsSnapshot {
        let mut snap = bq_core::MetricsSnapshot::new();
        snap.push("poisoned", self.poison_count());
        for i in 0..MAX_PROCS {
            if self.proc_pid(i) == 0 {
                continue;
            }
            let (attempts, claims, reclaims) = self.proc_stats(i);
            snap.push(format!("proc{i}.attempts"), attempts);
            snap.push(format!("proc{i}.claims"), claims);
            snap.push(format!("proc{i}.reclaims"), reclaims);
            snap.push(format!("proc{i}.dead"), u64::from(self.proc_is_dead(i)));
        }
        snap
    }

    // -- the poison counter ----------------------------------------------

    /// Record one fault-containment event (dead-owner reclaim, stolen
    /// endpoint) in the segment header.
    pub fn note_poison(&self) {
        self.hdr().poisoned.fetch_add(1, Ordering::AcqRel);
    }

    /// Number of fault-containment events recorded in this segment since
    /// creation. Zero means no survivor ever had to clean up after a
    /// death here.
    pub fn poison_count(&self) -> u64 {
        self.hdr().poisoned.load(Ordering::Acquire)
    }
}

/// Add one to a counter that has a single writer: a `Relaxed` load and
/// store, not a locked RMW. With one writer nothing can land between the
/// two, so the count stays exact — and, being in the segment, survives
/// the writer.
#[inline]
fn tick_single_writer(word: &AtomicU64) {
    word.store(
        word.load(Ordering::Relaxed).wrapping_add(1),
        Ordering::Relaxed,
    );
}

/// `CLOCK_MONOTONIC` in nanoseconds — the heartbeat clock. Monotonic (so
/// never jumps backwards on wall-clock changes) and, on Linux, consistent
/// across all processes of the machine, which is what a cross-process
/// lease comparison needs.
fn monotonic_ns() -> u64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: valid timespec pointer; CLOCK_MONOTONIC always exists.
    unsafe {
        libc::clock_gettime(libc::CLOCK_MONOTONIC, &mut ts);
    }
    (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64
}

impl Drop for ShmSegment {
    fn drop(&mut self) {
        // SAFETY: base/len are exactly the mapping created in a
        // constructor; unmapping this process's view cannot invalidate
        // other processes' mappings of the same pages.
        unsafe {
            libc::munmap(self.base.cast::<libc::c_void>(), self.len);
        }
    }
}

/// A relocatable layout living in a segment's payload: the mapping plus
/// this process's view of it — the segment-side twin of
/// [`RelocBox`](bq_core::relocatable::RelocBox), and the one place
/// `bq-shm` initializes or attaches a view. Derefs to the view; `Clone`
/// shares the mapping (for handing to threads and `fork` children).
pub struct ShmBox<V: RelocLayout> {
    seg: Arc<ShmSegment>,
    view: V,
}

impl<V: RelocLayout> ShmBox<V> {
    /// Initialize an empty structure in a fresh anonymous segment tagged
    /// `layout_tag` (shared with all future `fork` children). Panics on
    /// invalid `args`, like the heap constructors.
    pub fn create_anon(args: V::Args, layout_tag: u64) -> std::io::Result<Self> {
        Self::create(args, |len| ShmSegment::create_anon(len, layout_tag))
    }

    /// Initialize an empty structure in a file-backed segment at `path`,
    /// for unrelated processes to [`open_file`](Self::open_file).
    pub fn create_file(path: &Path, args: V::Args, layout_tag: u64) -> std::io::Result<Self> {
        Self::create(args, |len| ShmSegment::create_file(path, len, layout_tag))
    }

    fn create(
        args: V::Args,
        segment: impl FnOnce(usize) -> std::io::Result<ShmSegment>,
    ) -> std::io::Result<Self> {
        let layout = V::layout(args);
        let seg = segment(layout.size())?;
        assert!(
            (seg.payload_ptr() as usize).is_multiple_of(layout.align()),
            "layout is more aligned than a segment payload"
        );
        // SAFETY: the payload of a segment we just created is zeroed, at
        // least `layout.size()` bytes, aligned (checked above), not yet
        // published to anyone, and mapped for as long as `seg`.
        let view = unsafe { V::init_at(seg.payload_ptr(), args) };
        seg.publish();
        Ok(ShmBox {
            seg: Arc::new(seg),
            view,
        })
    }

    /// Attach to a published segment file another process created. This
    /// is the relocation path: the mapping lands at a different base
    /// address here and the view is rebuilt from it. The bytes crossed a
    /// process boundary, so they go through the checked
    /// [`attach`](RelocLayout::attach): a damaged header is
    /// `ErrorKind::InvalidData`.
    pub fn open_file(path: &Path, layout_tag: u64) -> std::io::Result<Self> {
        Self::attach(Arc::new(ShmSegment::open_file(path, layout_tag)?))
    }

    fn attach(seg: Arc<ShmSegment>) -> std::io::Result<Self> {
        // SAFETY: the payload is `payload_len` mapped bytes, valid for as
        // long as `seg`, which the box keeps alive beside the view.
        let view = unsafe { V::attach(seg.payload_ptr(), seg.payload_len()) }
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(ShmBox { seg, view })
    }

    /// The segment the structure lives in.
    pub fn segment(&self) -> &Arc<ShmSegment> {
        &self.seg
    }
}

impl<V: RelocLayout> std::ops::Deref for ShmBox<V> {
    type Target = V;
    fn deref(&self) -> &V {
        &self.view
    }
}

impl<V: RelocLayout> Clone for ShmBox<V> {
    fn clone(&self) -> Self {
        Self::attach(Arc::clone(&self.seg)).expect("the header this box attached to is intact")
    }
}

// SAFETY: `seg` keeps the mapping the view's pointers target alive;
// `RelocLayout`'s contract makes every safe `&V` method thread-safe (and
// process-safe: shared state is atomics inside the mapping), and the
// view's `unsafe` methods carry their own.
unsafe impl<V: RelocLayout> Send for ShmBox<V> {}
unsafe impl<V: RelocLayout> Sync for ShmBox<V> {}

const _: () = {
    use std::mem::{align_of, offset_of, size_of};
    // Identification words first, then padded scratch, then the table —
    // pinned so independently-built binaries agree on the framing.
    assert!(align_of::<SegHdr>() == 128);
    assert!(offset_of!(SegHdr, magic) == 0);
    assert!(offset_of!(SegHdr, version) == 8);
    assert!(offset_of!(SegHdr, total_len) == 16);
    assert!(offset_of!(SegHdr, layout_tag) == 24);
    assert!(offset_of!(SegHdr, init) == 32);
    assert!(offset_of!(SegHdr, poisoned) == 40);
    assert!(offset_of!(SegHdr, scratch) == 128);
    assert!(offset_of!(SegHdr, procs) == 128 + SCRATCH_WORDS * 128);
    assert!(size_of::<ProcSlot>() == 64);
    assert!(offset_of!(ProcSlot, heartbeat) == 16);
    assert!(offset_of!(ProcSlot, lease_ns) == 24);
    assert!(offset_of!(ProcSlot, attempts) == 32);
    assert!(offset_of!(ProcSlot, claims) == 40);
    assert!(offset_of!(ProcSlot, reclaims) == 48);
    assert!(size_of::<SegHdr>() == 128 + SCRATCH_WORDS * 128 + MAX_PROCS * 64);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anon_segment_header_and_payload() {
        let seg = ShmSegment::create_anon(1000, 42).unwrap();
        assert_eq!(seg.layout_tag(), 42);
        assert!(seg.payload_len() >= 1000);
        assert_eq!(seg.payload_ptr() as usize % 128, 0, "payload aligned");
        // Payload starts zeroed.
        // SAFETY: in-bounds read of the fresh mapping.
        let first = unsafe { seg.payload_ptr().cast::<u64>().read() };
        assert_eq!(first, 0);
        seg.scratch(3).store(99, Ordering::SeqCst);
        assert_eq!(seg.scratch(3).load(Ordering::SeqCst), 99);
    }

    #[test]
    fn proc_table_register_and_liveness() {
        let seg = ShmSegment::create_anon(64, 1).unwrap();
        let me = seg.register_self();
        assert!(!seg.proc_is_dead(me), "calling process is alive");
        // A bogus (but never-allocated) pid reads as dead via ESRCH.
        let ghost = seg.register_proc(u32::MAX - 1);
        assert_ne!(me, ghost);
        assert!(seg.proc_is_dead(ghost));
        // The authoritative flag works without any probe.
        let flagged = seg.register_proc(seg.proc_pid(me));
        assert!(!seg.proc_is_dead(flagged));
        seg.mark_dead(flagged);
        assert!(seg.proc_is_dead(flagged));
    }

    #[test]
    fn lease_expiry_is_suspicion_not_death() {
        let seg = ShmSegment::create_anon(64, 1).unwrap();
        let me = seg.register_self();
        // No lease taken: never suspect, regardless of heartbeat age.
        assert!(!seg.lease_expired(me));
        // A microscopic lease expires almost immediately...
        seg.set_lease(me, Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(seg.lease_expired(me), "broken lease raises suspicion");
        // ...but a live process is never *dead* on that evidence.
        assert!(!seg.proc_is_dead(me));
        assert!(
            seg.confirmed_suspects().is_empty(),
            "suspicion without oracle confirmation reclaims nothing"
        );
        // Beating renews the lease window.
        seg.set_lease(me, Duration::from_secs(3600));
        assert!(!seg.lease_expired(me));

        // A ghost (ESRCH pid) with a broken lease is a confirmed suspect.
        let ghost = seg.register_proc(u32::MAX - 7);
        seg.set_lease(ghost, Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(seg.confirmed_suspects(), vec![ghost]);
    }

    #[test]
    fn proc_counters_live_in_the_segment_and_survive_death_flags() {
        let seg = ShmSegment::create_anon(64, 1).unwrap();
        let me = seg.register_self();
        seg.note_proc_attempt(me);
        seg.note_proc_attempt(me);
        seg.note_proc_claim(me);
        // A ghost producer: counters written "by" it stay readable after
        // it is known dead — the SIGKILL-survival property at slot level.
        let ghost = seg.register_proc(u32::MAX - 3);
        seg.note_proc_attempt(ghost);
        seg.note_proc_claim(ghost);
        assert!(seg.proc_is_dead(ghost));
        seg.note_proc_reclaim(me); // the survivor cleaned up
        assert_eq!(seg.proc_stats(me), (2, 1, 1));
        assert_eq!(seg.proc_stats(ghost), (1, 1, 0));
        let snap = seg.stats_snapshot();
        assert_eq!(snap.get(&format!("proc{ghost}.attempts")), Some(1));
        assert_eq!(snap.get(&format!("proc{ghost}.dead")), Some(1));
        assert_eq!(snap.get(&format!("proc{me}.reclaims")), Some(1));
        assert_eq!(snap.get("poisoned"), Some(0));
    }

    #[test]
    fn poison_counter_counts_monotonically() {
        let seg = ShmSegment::create_anon(64, 1).unwrap();
        assert_eq!(seg.poison_count(), 0, "fresh segment has seen no faults");
        seg.note_poison();
        seg.note_poison();
        assert_eq!(seg.poison_count(), 2);
    }

    #[test]
    fn file_segment_round_trip_and_validation() {
        let dir = std::env::temp_dir().join(format!("membq-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");

        let seg = ShmSegment::create_file(&path, 256, 7).unwrap();
        // Not yet published: openers must refuse.
        assert!(ShmSegment::open_file(&path, 7).is_err());
        // SAFETY: in-bounds write.
        unsafe { seg.payload_ptr().cast::<u64>().write(0xAB) };
        seg.publish();

        let other = ShmSegment::open_file(&path, 7).unwrap();
        // SAFETY: in-bounds read of the second mapping.
        let v = unsafe { other.payload_ptr().cast::<u64>().read() };
        assert_eq!(v, 0xAB, "both mappings see the same pages");

        // Wrong tag and truncated file are rejected.
        assert!(ShmSegment::open_file(&path, 8).is_err());
        std::fs::write(dir.join("short.bin"), b"tiny").unwrap();
        assert!(ShmSegment::open_file(&dir.join("short.bin"), 7).is_err());

        drop(seg);
        drop(other);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
