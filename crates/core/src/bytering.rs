//! **Heap-backed variable-length byte ring** — unique SPSC endpoints
//! over a [`RelocByteRing`] (DESIGN.md §12).
//!
//! [`byte_ring`] allocates the relocatable layout on the heap and hands
//! out exactly one [`ByteProducer`] and one [`ByteConsumer`]. The
//! endpoints are `!Clone` and their methods take `&mut self`, so the
//! strictly-one-producer / strictly-one-consumer contract the raw
//! `unsafe` ring ops demand is enforced by ownership: holding the
//! endpoint *is* holding the role. (`bq-shm`'s `ShmByteRing` enforces
//! the same contract across processes with the header claim words.)
//!
//! Messages travel zero-copy in both directions: the producer fills a
//! [`ByteWriteGrant`] in place and the consumer borrows each message as
//! a [`ByteReadGrant`] (`&[u8]` straight over the ring memory). The
//! copy-convenience `push`/`pop` wrappers exist for callers that want
//! the simple thing.

use std::sync::Arc;

use crate::relocatable::{ByteReadGrant, ByteWriteGrant, RelocBox, RelocByteRing};

/// What the two endpoints share. The SPSC protocol synchronizes them
/// through the ring's tail/head atomics (Release/Acquire pairs); the
/// unique endpoints guarantee at most one thread on each side.
struct Shared {
    ring: RelocBox<RelocByteRing>,
    /// Highest `bytes_used` observed at a producer publication
    /// (DESIGN.md §14); a ZST no-op with `obs` off.
    used_hwm: crate::obs::Counter,
}

/// The unique producing endpoint of a [`byte_ring`].
pub struct ByteProducer {
    shared: Arc<Shared>,
}

/// The unique consuming endpoint of a [`byte_ring`].
pub struct ByteConsumer {
    shared: Arc<Shared>,
}

/// Build a heap-backed SPSC byte ring with `cap_bytes` data bytes
/// (multiple of 8) carrying messages up to `max_msg` bytes, and return
/// its two unique endpoints.
///
/// Panics on invalid geometry: `cap_bytes` must hold two maximum-size
/// records (`2 · byte_record_size(max_msg) ≤ cap_bytes`) so a producer
/// retry loop can always make progress on an empty ring.
pub fn byte_ring(cap_bytes: usize, max_msg: usize) -> (ByteProducer, ByteConsumer) {
    let shared = Arc::new(Shared {
        ring: RelocBox::new((cap_bytes, max_msg)),
        used_hwm: crate::obs::Counter::new(),
    });
    (
        ByteProducer {
            shared: Arc::clone(&shared),
        },
        ByteConsumer { shared },
    )
}

impl ByteProducer {
    /// Data capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.shared.ring.capacity_bytes()
    }

    /// Maximum message length in bytes.
    pub fn max_msg(&self) -> usize {
        self.shared.ring.max_msg()
    }

    /// Reserve in-place space for one message of up to `len ≤ max_msg`
    /// bytes. `None` when the ring lacks room. Fill the grant's buffer
    /// and `commit(used)`; dropping it aborts.
    pub fn try_grant(&mut self, len: usize) -> Option<ByteWriteGrant<'_>> {
        // SAFETY: `&mut self` on the unique producer endpoint is the
        // single-producer discipline the ring op requires.
        let g = unsafe { self.shared.ring.producer_grant(len) };
        if cfg!(feature = "obs") && g.is_some() {
            // The reservation is not in `bytes_used` until the commit,
            // so count the full reserved record here (an upper bound
            // when the grant commits fewer than `len` bytes).
            let reserved = crate::relocatable::byte_record_size(len);
            self.shared
                .used_hwm
                .record_max((self.shared.ring.bytes_used() + reserved) as u64);
        }
        g
    }

    /// Copy-convenience enqueue of one message. `false` when the ring
    /// lacks room.
    pub fn push(&mut self, msg: &[u8]) -> bool {
        // SAFETY: as in `try_grant`.
        let ok = unsafe { self.shared.ring.producer_push(msg) };
        if cfg!(feature = "obs") && ok {
            self.shared
                .used_hwm
                .record_max(self.shared.ring.bytes_used() as u64);
        }
        ok
    }

    /// Bytes currently in flight (records + wrap padding).
    pub fn bytes_used(&self) -> usize {
        self.shared.ring.bytes_used()
    }

    /// Highest `bytes_used` ever observed at a publication — the ring's
    /// occupancy high-watermark (DESIGN.md §14). Always 0 with `obs` off.
    pub fn bytes_used_hwm(&self) -> u64 {
        self.shared.used_hwm.get()
    }
}

impl ByteConsumer {
    /// Data capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.shared.ring.capacity_bytes()
    }

    /// Maximum message length in bytes.
    pub fn max_msg(&self) -> usize {
        self.shared.ring.max_msg()
    }

    /// Borrow the oldest message in place (`None` when empty). The ring
    /// space is reclaimed when the grant drops.
    pub fn try_read(&mut self) -> Option<ByteReadGrant<'_>> {
        // SAFETY: `&mut self` on the unique consumer endpoint is the
        // single-consumer discipline the ring op requires.
        unsafe { self.shared.ring.consumer_read() }
    }

    /// Copy-convenience dequeue appending the oldest message to `out`.
    /// `false` when the ring is empty.
    pub fn pop(&mut self, out: &mut Vec<u8>) -> bool {
        // SAFETY: as in `try_read`.
        unsafe { self.shared.ring.consumer_pop(out) }
    }

    /// Bytes currently in flight (records + wrap padding).
    pub fn bytes_used(&self) -> usize {
        self.shared.ring.bytes_used()
    }
}

impl bq_memtrack::MemoryFootprint for ByteProducer {
    fn footprint(&self) -> bq_memtrack::FootprintBreakdown {
        // The data bytes are the element storage; the only overhead is
        // the fixed header (counters + geometry + claims). Record
        // headers/padding live *inside* the data bytes — they are the
        // price of variable-size messages, not queue metadata.
        bq_memtrack::FootprintBreakdown::with_elements(self.shared.ring.capacity_bytes()).add(
            "byte ring header",
            std::mem::size_of::<crate::relocatable::ByteRingHdr>(),
            bq_memtrack::OverheadClass::Counters,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_roundtrip_across_threads() {
        let (mut tx, mut rx) = byte_ring(4096, 512);
        let sender = std::thread::spawn(move || {
            for i in 0..1000u32 {
                let len = (i % 512) as usize + 1;
                let msg = vec![(i % 251) as u8; len];
                while !tx.push(&msg) {
                    std::hint::spin_loop();
                }
            }
        });
        let mut seen = 0u32;
        while seen < 1000 {
            if let Some(g) = rx.try_read() {
                let len = (seen % 512) as usize + 1;
                assert_eq!(g.len(), len);
                assert!(g.iter().all(|&b| b == (seen % 251) as u8));
                seen += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        sender.join().unwrap();
        assert!(rx.try_read().is_none());
    }

    #[test]
    fn zero_copy_grant_path_roundtrip() {
        let (mut tx, mut rx) = byte_ring(256, 64);
        {
            let mut g = tx.try_grant(64).unwrap();
            g.buf()[..5].copy_from_slice(b"hello");
            g.commit(5);
        }
        {
            let g = rx.try_read().unwrap();
            assert_eq!(&*g, b"hello");
        }
        assert_eq!(rx.bytes_used(), 0);
        // The occupancy high-watermark survives the drain (obs only).
        if cfg!(feature = "obs") {
            assert!(tx.bytes_used_hwm() > 0, "publication raised the HWM");
        } else {
            assert_eq!(tx.bytes_used_hwm(), 0, "obs off: no recording");
        }
    }

    #[test]
    fn footprint_is_header_plus_data() {
        use bq_memtrack::MemoryFootprint;
        let (tx, _rx) = byte_ring(1024, 64);
        assert_eq!(tx.element_bytes(), 1024);
        assert_eq!(tx.overhead_bytes(), 384);
    }
}
