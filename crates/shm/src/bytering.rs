//! **Cross-process variable-length byte ring** — a
//! [`RelocByteRing`](bq_core::relocatable::RelocByteRing) served out of an
//! `mmap`-shared [`ShmSegment`], carrying length-prefixed messages between
//! one producer *process* and one consumer *process* with zero copies on
//! either side (DESIGN.md §12; the ARINC 653 queuing-port shape of
//! §10.4, now with real payload bytes instead of token words).
//!
//! ## Role claiming
//!
//! The byte ring is strictly SPSC, and across processes ownership cannot
//! be a Rust `&mut`: the producer/consumer roles are handed out through
//! two **claim words** in the ring header. [`ShmByteRing::producer`]
//! CASes the word from 0 to the caller's pid; a second claim from a
//! *live* pid is refused, while a claim word held by a **dead** process
//! (`kill(pid, 0) == ESRCH`) is stolen — the successor process resumes
//! exactly where the victim's last published counter left it.
//!
//! ## Crash consistency
//!
//! The record protocol makes the two crash windows benign (the argument
//! is spelled out in DESIGN.md §12.3):
//!
//! * producer dies before its `tail` release-store → the torn record is
//!   after `tail`, invisible to every consumer forever; the successor
//!   producer overwrites it;
//! * consumer dies before its `head` release-store → the message is
//!   still between `head` and `tail`; the successor consumer reads it
//!   again (at-least-once on the consumer side, never lost).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bq_core::relocatable::{ByteReadGrant, ByteWriteGrant, RelocByteRing};
use bq_core::SimAtomicU64;

use crate::segment::{ShmBox, ShmSegment};

/// Layout tag for a byte-ring payload ("SHQ2" + "BYTE"): geometry lives
/// in the ring header itself, so the tag only names the protocol.
pub const BYTE_RING_LAYOUT_TAG: u64 = 0x5348_5132_4259_5445;

/// A role claim was refused because the role is already held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoleHeld {
    /// Pid of the live holder.
    pub pid: u32,
}

impl std::fmt::Display for RoleHeld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "byte-ring role already held by live process {}",
            self.pid
        )
    }
}

impl std::error::Error for RoleHeld {}

/// `kill(pid, 0) == ESRCH`: no such process. (A pid that merely belongs
/// to another user reports `EPERM` — alive, so not stealable.)
fn pid_is_dead(pid: u32) -> bool {
    // SAFETY: signal 0 performs no delivery, only the existence check.
    let r = unsafe { libc::kill(pid as libc::pid_t, 0) };
    r == -1 && std::io::Error::last_os_error().raw_os_error() == Some(libc::ESRCH)
}

/// Claim a role word: 0 → pid, or steal from a dead holder. The retry
/// loop only continues on lost CAS races, each of which means another
/// claimant made progress — but it still backs off (spin → yield) so a
/// pile-up of claimants after a death converges instead of thrashing the
/// claim line. `Ok(true)` means the claim was a *steal* from a dead
/// holder (the caller attributes the reclaim — DESIGN.md §14).
fn claim_role(word: &SimAtomicU64) -> Result<bool, RoleHeld> {
    let me = std::process::id() as u64;
    let mut backoff = bq_core::retry::Backoff::new();
    loop {
        let cur = word.load(Ordering::SeqCst);
        if cur == 0 {
            if word
                .compare_exchange(0, me, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(false);
            }
            backoff.snooze();
            continue; // raced; re-read
        }
        if cur != me && pid_is_dead(cur as u32) {
            if word
                .compare_exchange(cur, me, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(true);
            }
            backoff.snooze();
            continue;
        }
        // Held by ourselves (double claim) or by a live process.
        return Err(RoleHeld { pid: cur as u32 });
    }
}

/// Release a role word if we still hold it (benign no-op otherwise —
/// e.g. a successor already stole it from our dead pid record).
fn release_role(word: &SimAtomicU64) {
    let me = std::process::id() as u64;
    let _ = word.compare_exchange(me, 0, Ordering::SeqCst, Ordering::SeqCst);
}

/// A variable-length SPSC byte ring in an `mmap`-shared segment. `Clone`
/// shares the mapping (for handing to `fork` children); the producer and
/// consumer **roles** are claimed separately via [`producer`]/[`consumer`]
/// (at most one live holder each, enforced across processes).
///
/// [`producer`]: Self::producer
/// [`consumer`]: Self::consumer
#[derive(Clone)]
pub struct ShmByteRing {
    ring: ShmBox<RelocByteRing>,
}

impl ShmByteRing {
    /// Create a byte ring with `cap_bytes` data bytes (multiple of 8,
    /// holding at least two maximum-size records) carrying messages up
    /// to `max_msg` bytes, in a fresh anonymous shared segment (shared
    /// with all future `fork` children).
    pub fn create_anon(cap_bytes: usize, max_msg: usize) -> std::io::Result<ShmByteRing> {
        ShmBox::create_anon((cap_bytes, max_msg), BYTE_RING_LAYOUT_TAG)
            .map(|ring| ShmByteRing { ring })
    }

    /// Create a byte ring in a file-backed segment at `path`, for
    /// unrelated processes to [`open_file`](Self::open_file).
    pub fn create_file(
        path: &std::path::Path,
        cap_bytes: usize,
        max_msg: usize,
    ) -> std::io::Result<ShmByteRing> {
        ShmBox::create_file(path, (cap_bytes, max_msg), BYTE_RING_LAYOUT_TAG)
            .map(|ring| ShmByteRing { ring })
    }

    /// Attach to a published byte-ring segment file created by another
    /// process. A file whose segment or ring header does not check out
    /// (wrong tag, geometry outside its range, too short) is
    /// `InvalidData`.
    pub fn open_file(path: &std::path::Path) -> std::io::Result<ShmByteRing> {
        ShmBox::open_file(path, BYTE_RING_LAYOUT_TAG).map(|ring| ShmByteRing { ring })
    }

    /// The segment this ring lives in (scratch counters, process table).
    pub fn segment(&self) -> &Arc<ShmSegment> {
        self.ring.segment()
    }

    /// Data capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.ring.capacity_bytes()
    }

    /// Maximum message length in bytes.
    pub fn max_msg(&self) -> usize {
        self.ring.max_msg()
    }

    /// Bytes currently in flight (records + wrap padding).
    pub fn bytes_used(&self) -> usize {
        self.ring.bytes_used()
    }

    /// Claim the producer role for the calling process. Fails with the
    /// holder's pid while the role is held by a live process; a dead
    /// holder's claim is stolen.
    pub fn producer(&self) -> Result<ShmByteProducer, RoleHeld> {
        let stole = claim_role(self.ring.prod_claim())?;
        let proc_idx = self.note_role_claim(stole);
        Ok(ShmByteProducer {
            ring: self.clone(),
            proc_idx,
        })
    }

    /// Claim the consumer role for the calling process (same contract as
    /// [`producer`](Self::producer)).
    pub fn consumer(&self) -> Result<ShmByteConsumer, RoleHeld> {
        let stole = claim_role(self.ring.cons_claim())?;
        let proc_idx = self.note_role_claim(stole);
        Ok(ShmByteConsumer {
            ring: self.clone(),
            proc_idx,
        })
    }

    /// Attribute a won role claim (and, for a steal from a dead holder,
    /// the implied reclaim) to the calling process's table slot, so the
    /// tallies survive this process like the queue's do (DESIGN.md §14).
    fn note_role_claim(&self, stole: bool) -> usize {
        let idx = self.segment().find_or_register_self();
        self.segment().note_proc_claim(idx);
        if stole {
            self.segment().note_proc_reclaim(idx);
        }
        idx
    }

    /// Cross-process metrics for this ring's segment — the byte-ring
    /// mirror of [`ShmQueue::stats_snapshot`](crate::ShmQueue::stats_snapshot).
    pub fn stats_snapshot(&self) -> bq_core::MetricsSnapshot {
        self.segment().stats_snapshot()
    }

    /// Proactively release every endpoint whose holder the pid oracle
    /// confirms dead, so successors claim without first colliding with
    /// the stale holder (the eager counterpart of the lazy steal in the
    /// claim path — same verdict, same CAS, just not deferred to the
    /// next claimant). Each freed endpoint is recorded in the segment's
    /// poison counter. Returns how many endpoints were freed.
    pub fn recover(&self) -> usize {
        let mut freed = 0;
        for word in [self.ring.prod_claim(), self.ring.cons_claim()] {
            let cur = word.load(Ordering::SeqCst);
            if cur != 0
                && pid_is_dead(cur as u32)
                && word
                    .compare_exchange(cur, 0, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                self.segment().note_poison();
                freed += 1;
            }
        }
        freed
    }
}

/// The claimed producer role of a [`ShmByteRing`]. Releases the claim
/// word on drop; a crashed holder is stolen from via the pid liveness
/// check instead. The endpoint is the unique producer by claim-word
/// contract: moving it between threads moves the role with it.
pub struct ShmByteProducer {
    ring: ShmByteRing,
    proc_idx: usize,
}

impl ShmByteProducer {
    /// Reserve in-place space for one message of up to `len ≤ max_msg`
    /// bytes (`None` when the ring lacks room). Fill and `commit(used)`;
    /// dropping the grant aborts.
    pub fn try_grant(&mut self, len: usize) -> Option<ByteWriteGrant<'_>> {
        self.ring.segment().note_proc_attempt(self.proc_idx);
        // SAFETY: holding the claimed endpoint is the single-producer
        // discipline the ring op requires.
        unsafe { self.ring.ring.producer_grant(len) }
    }

    /// Copy-convenience enqueue. `false` when the ring lacks room.
    pub fn push(&mut self, msg: &[u8]) -> bool {
        self.ring.segment().note_proc_attempt(self.proc_idx);
        // SAFETY: as in `try_grant`.
        unsafe { self.ring.ring.producer_push(msg) }
    }

    /// The underlying ring (counters, geometry).
    pub fn ring(&self) -> &ShmByteRing {
        &self.ring
    }

    /// This endpoint's process-table slot (counter attribution).
    pub fn proc_idx(&self) -> usize {
        self.proc_idx
    }
}

impl Drop for ShmByteProducer {
    fn drop(&mut self) {
        release_role(self.ring.ring.prod_claim());
    }
}

/// The claimed consumer role of a [`ShmByteRing`] (mirror of
/// [`ShmByteProducer`]).
pub struct ShmByteConsumer {
    ring: ShmByteRing,
    proc_idx: usize,
}

impl ShmByteConsumer {
    /// Borrow the oldest message in place (`None` when empty). The ring
    /// space is reclaimed when the grant drops — a process dying with a
    /// live grant redelivers the message to its successor.
    pub fn try_read(&mut self) -> Option<ByteReadGrant<'_>> {
        self.ring.segment().note_proc_attempt(self.proc_idx);
        // SAFETY: holding the claimed endpoint is the single-consumer
        // discipline the ring op requires.
        unsafe { self.ring.ring.consumer_read() }
    }

    /// Copy-convenience dequeue appending to `out`. `false` when empty.
    pub fn pop(&mut self, out: &mut Vec<u8>) -> bool {
        self.ring.segment().note_proc_attempt(self.proc_idx);
        // SAFETY: as in `try_read`.
        unsafe { self.ring.ring.consumer_pop(out) }
    }

    /// The underlying ring (counters, geometry).
    pub fn ring(&self) -> &ShmByteRing {
        &self.ring
    }

    /// This endpoint's process-table slot (counter attribution).
    pub fn proc_idx(&self) -> usize {
        self.proc_idx
    }
}

impl Drop for ShmByteConsumer {
    fn drop(&mut self) {
        release_role(self.ring.ring.cons_claim());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_roundtrip_and_role_exclusion() {
        let ring = ShmByteRing::create_anon(4096, 512).unwrap();
        let mut tx = ring.producer().unwrap();
        // The role is exclusive while held...
        let held = match ring.producer() {
            Err(e) => e,
            Ok(_) => panic!("second producer claim must be refused"),
        };
        assert_eq!(
            held,
            RoleHeld {
                pid: std::process::id()
            }
        );
        let mut rx = ring.consumer().unwrap();
        assert!(tx.push(b"ping"));
        {
            let g = rx.try_read().unwrap();
            assert_eq!(&*g, b"ping");
        }
        assert!(rx.try_read().is_none());
        // ...and released on drop.
        drop(tx);
        let _tx2 = ring.producer().unwrap();
    }

    #[test]
    fn file_backed_attach_round_trips() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bq_byte_ring_{}.seg", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ring = ShmByteRing::create_file(&path, 1024, 128).unwrap();
        let mut tx = ring.producer().unwrap();
        assert!(tx.push(b"over the file"));

        let attached = ShmByteRing::open_file(&path).unwrap();
        assert_eq!(attached.capacity_bytes(), 1024);
        assert_eq!(attached.max_msg(), 128);
        let mut rx = attached.consumer().unwrap();
        let mut out = Vec::new();
        assert!(rx.pop(&mut out));
        assert_eq!(out, b"over the file");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dead_holder_claim_is_stolen() {
        let ring = ShmByteRing::create_anon(256, 32).unwrap();
        // Plant a pid that certainly does not exist: pid_max on Linux
        // defaults well below this, and kill(, 0) then reports ESRCH.
        ring.ring.prod_claim().store(0x3FFF_FF17, Ordering::SeqCst);
        let mut tx = ring.producer().expect("dead holder must be stolen from");
        // The steal is attributed to the stealer's table slot, and the
        // endpoint's data-plane ops count as its attempts.
        let me = tx.proc_idx();
        assert!(tx.push(b"x"));
        assert!(tx.push(b"y"));
        let snap = ring.stats_snapshot();
        assert_eq!(snap.get(&format!("proc{me}.claims")), Some(1));
        assert_eq!(snap.get(&format!("proc{me}.reclaims")), Some(1));
        assert_eq!(snap.get(&format!("proc{me}.attempts")), Some(2));
    }

    #[test]
    fn recover_frees_both_dead_endpoints_in_one_sweep() {
        let ring = ShmByteRing::create_anon(256, 32).unwrap();
        // Both roles held by pids that cannot exist (ESRCH ⇒ dead).
        ring.ring.prod_claim().store(0x3FFF_FF19, Ordering::SeqCst);
        ring.ring.cons_claim().store(0x3FFF_FF1A, Ordering::SeqCst);
        assert_eq!(ring.recover(), 2, "one sweep frees both endpoints");
        assert_eq!(ring.recover(), 0, "sweep is idempotent");
        assert_eq!(ring.segment().poison_count(), 2, "faults recorded");
        // Successors claim cleanly — no steal collision left.
        assert_eq!(ring.ring.prod_claim().load(Ordering::SeqCst), 0);
        let mut tx = ring.producer().unwrap();
        let mut rx = ring.consumer().unwrap();
        assert!(tx.push(b"clean"));
        let mut out = Vec::new();
        assert!(rx.pop(&mut out));
        assert_eq!(out, b"clean");
    }
}
