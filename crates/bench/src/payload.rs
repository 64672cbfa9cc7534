//! **Experiment E15 workload** — the zero-copy payload path.
//!
//! One producer streams 4 KiB messages to one consumer three ways over
//! the same relocatable ring machinery:
//!
//! * **move** — the conventional data path: build the message in a local
//!   buffer, `vy_enqueue` copies it into the ring slot, `vy_dequeue`
//!   copies it back out before the consumer can look at it;
//! * **grant** — the zero-copy path of DESIGN.md §12: `try_reserve`
//!   hands the producer the slot bytes to fill **in place**, `try_read`
//!   lends the consumer the slot bytes to checksum in place — the
//!   payload is written once and read once, never copied;
//! * **byte-ring** — the variable-length byte ring's grants, paying a
//!   per-record length header instead of fixed slots.
//!
//! Every message is filled with a seq-derived pattern and the consumer
//! keeps a running checksum, so the runs *prove* they moved the bytes
//! they claim to have moved (a zero-copy path that loses data would be
//! very fast indeed). Producer and consumer are the two threads of one
//! `measure::run_threads` cell: the ring is built and both are parked at
//! the barrier before the clock starts.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use bq_core::byte_ring;
use bq_core::relocatable::{RelocBox, RelocRing};

use crate::measure::run_threads;

/// Message size for E15 — io_uring-register-buffer territory: big enough
/// that copies dominate protocol cost, small enough to stay cache-warm.
pub const PAYLOAD_BYTES: usize = 4096;

/// The fixed-size message type carried by the slot rings.
pub type Payload = [u8; PAYLOAD_BYTES];

/// Result of one payload run.
#[derive(Debug, Clone, Copy)]
pub struct PayloadResult {
    /// Messages transferred.
    pub msgs: u64,
    /// Wall-clock seconds.
    pub secs: f64,
}

impl PayloadResult {
    /// Throughput in MiB/s of payload actually delivered.
    pub fn mibps(&self) -> f64 {
        self.msgs as f64 * PAYLOAD_BYTES as f64 / self.secs / (1024.0 * 1024.0)
    }

    /// Messages per second, in thousands.
    pub fn kmsgs(&self) -> f64 {
        self.msgs as f64 / self.secs / 1e3
    }
}

/// Message `i`'s fill byte (non-zero so lost messages can't checksum as
/// all-zero slots).
#[inline]
fn fill_byte(i: u64) -> u8 {
    (i as u8) | 1
}

/// Word-granular wrapping checksum — cheap enough not to drown the copy
/// cost the experiment isolates, strong enough to catch lost/torn
/// messages.
#[inline]
fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = 0u64;
    for w in bytes.chunks_exact(8) {
        sum = sum.wrapping_add(u64::from_le_bytes(w.try_into().unwrap()));
    }
    sum
}

fn expected_total(msgs: u64) -> u64 {
    let mut total = 0u64;
    for i in 0..msgs {
        let word = u64::from_le_bytes([fill_byte(i); 8]);
        total = total.wrapping_add(word.wrapping_mul((PAYLOAD_BYTES / 8) as u64));
    }
    total
}

/// The conventional move path: two full payload copies per message
/// (local buffer → slot on enqueue, slot → local buffer on dequeue).
pub fn payload_pairs_move(slots: usize, msgs: u64) -> PayloadResult {
    let ring = RelocBox::<RelocRing<Payload>>::new(slots);
    let total = AtomicU64::new(0);
    let elapsed = run_threads(2, |tid| {
        let (ring, total) = (&ring, &total);
        move || {
            if tid == 0 {
                for i in 0..msgs {
                    let mut m: Payload = [fill_byte(i); PAYLOAD_BYTES];
                    while let Err(back) = ring.vy_enqueue(m) {
                        m = back;
                        std::thread::yield_now();
                    }
                }
                return;
            }
            let (mut sum, mut seen) = (0u64, 0u64);
            while seen < msgs {
                match ring.vy_dequeue() {
                    Some(m) => {
                        sum = sum.wrapping_add(checksum(&m));
                        seen += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            total.store(sum, Ordering::Relaxed);
        }
    });
    let total = total.into_inner();
    assert_eq!(total, expected_total(msgs), "move path lost payload bytes");
    PayloadResult {
        msgs,
        secs: elapsed.as_secs_f64(),
    }
}

/// The zero-copy grant path: the payload is written once (into the slot)
/// and read once (from the slot); no copies.
pub fn payload_pairs_grant(slots: usize, msgs: u64) -> PayloadResult {
    let ring = RelocBox::<RelocRing<Payload>>::new(slots);
    let total = AtomicU64::new(0);
    let elapsed = run_threads(2, |tid| {
        let (ring, total) = (&ring, &total);
        move || {
            if tid == 0 {
                let mut i = 0u64;
                while i < msgs {
                    let Some(mut g) = ring.try_reserve((msgs - i) as usize) else {
                        std::thread::yield_now();
                        continue;
                    };
                    let n = g.len();
                    for (k, slot) in g.uninit_slice().iter_mut().enumerate() {
                        // Fill the slot in place — this is the whole point.
                        slot.write([fill_byte(i + k as u64); PAYLOAD_BYTES]);
                    }
                    g.commit(n);
                    i += n as u64;
                }
                return;
            }
            let (mut sum, mut seen) = (0u64, 0u64);
            while seen < msgs {
                let Some(g) = ring.try_read((msgs - seen) as usize) else {
                    std::thread::yield_now();
                    continue;
                };
                for m in g.slice() {
                    sum = sum.wrapping_add(checksum(m));
                }
                seen += g.len() as u64;
                g.release();
            }
            total.store(sum, Ordering::Relaxed);
        }
    });
    let total = total.into_inner();
    assert_eq!(total, expected_total(msgs), "grant path lost payload bytes");
    PayloadResult {
        msgs,
        secs: elapsed.as_secs_f64(),
    }
}

/// The byte ring's grant path: zero-copy like `grant`, plus a per-record
/// length header (the price of variable-size messages).
pub fn payload_pairs_bytering(slots: usize, msgs: u64) -> PayloadResult {
    // Match the slot rings' capacity in *messages*: each record is
    // 8 + PAYLOAD_BYTES bytes, both multiples of 8 so records never pad.
    let (tx, rx) = byte_ring(slots * (8 + PAYLOAD_BYTES), PAYLOAD_BYTES);
    // Each endpoint goes to the one thread that uses it.
    let (tx, rx) = (Mutex::new(Some(tx)), Mutex::new(Some(rx)));
    let total = AtomicU64::new(0);
    let elapsed = run_threads(2, |tid| {
        let mut tx = (tid == 0).then(|| tx.lock().take().expect("one producer"));
        let mut rx = (tid == 1).then(|| rx.lock().take().expect("one consumer"));
        let total = &total;
        move || {
            if let Some(tx) = tx.as_mut() {
                for i in 0..msgs {
                    loop {
                        if let Some(mut g) = tx.try_grant(PAYLOAD_BYTES) {
                            g.buf().fill(fill_byte(i));
                            g.commit(PAYLOAD_BYTES);
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                return;
            }
            let rx = rx.as_mut().expect("thread 1 consumes");
            let (mut sum, mut seen) = (0u64, 0u64);
            while seen < msgs {
                match rx.try_read() {
                    Some(g) => {
                        sum = sum.wrapping_add(checksum(&g));
                        seen += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            total.store(sum, Ordering::Relaxed);
        }
    });
    let total = total.into_inner();
    assert_eq!(total, expected_total(msgs), "byte ring lost payload bytes");
    PayloadResult {
        msgs,
        secs: elapsed.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The checksum asserts inside each driver are the real test: a lost,
    // duplicated, or torn message fails the run.

    #[test]
    fn move_path_conserves_payload() {
        let r = payload_pairs_move(8, 300);
        assert_eq!(r.msgs, 300);
        assert!(r.mibps() > 0.0);
    }

    #[test]
    fn grant_path_conserves_payload() {
        let r = payload_pairs_grant(8, 300);
        assert_eq!(r.msgs, 300);
        assert!(r.kmsgs() > 0.0);
    }

    #[test]
    fn byte_ring_path_conserves_payload() {
        let r = payload_pairs_bytering(8, 300);
        assert_eq!(r.msgs, 300);
    }

    #[test]
    fn non_pow2_slot_count_works_on_all_paths() {
        // S1 cross-check at the workload level: the modulo slow path
        // delivers the same bytes as the mask fast path.
        for f in [
            payload_pairs_move,
            payload_pairs_grant,
            payload_pairs_bytering,
        ] {
            let r = f(7, 100);
            assert_eq!(r.msgs, 100);
        }
    }
}
