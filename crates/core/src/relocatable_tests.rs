use super::*;

#[test]
fn vy_ring_fifo_and_relaxed_full() {
    let buf = RelocBuf::zeroed(RelocRing::<u64>::layout(4));
    // SAFETY: buf satisfies layout(4).
    let r = unsafe { RelocRing::<u64>::init_at(buf.base(), 4) };
    for v in 1..=4 {
        r.vy_enqueue(v).unwrap();
    }
    assert_eq!(r.vy_enqueue(5), Err(5));
    for v in 1..=4 {
        assert_eq!(r.vy_dequeue(), Some(v));
    }
    assert_eq!(r.vy_dequeue(), None);
}

#[test]
fn vy_ring_batch_runs_wrap() {
    let buf = RelocBuf::zeroed(RelocRing::<u64>::layout(4));
    // SAFETY: buf satisfies layout(4).
    let r = unsafe { RelocRing::<u64>::init_at(buf.base(), 4) };
    assert_eq!(r.vy_enqueue_many(&[1, 2, 3, 4, 5]), 4);
    let mut out = Vec::new();
    assert_eq!(r.vy_dequeue_many(2, &mut out), 2);
    assert_eq!(r.vy_enqueue_many(&[5, 6]), 2);
    assert_eq!(r.vy_dequeue_many(10, &mut out), 4);
    assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
}

#[test]
fn vy_ring_survives_memcpy_relocation_mid_state() {
    let buf = RelocBuf::zeroed(RelocRing::<u64>::layout(8));
    // SAFETY: buf satisfies layout(8).
    let r = unsafe { RelocRing::<u64>::init_at(buf.base(), 8) };
    for v in 1..=6 {
        r.vy_enqueue(v).unwrap();
    }
    r.vy_dequeue().unwrap();
    let copy = buf.duplicate();
    // SAFETY: byte-identical initialized region.
    let r2 = unsafe { RelocRing::<u64>::attach(copy.base(), copy.len()).unwrap() };
    assert_eq!(r2.counter_len(), 5);
    let mut out = Vec::new();
    assert_eq!(r2.vy_dequeue_many(8, &mut out), 5);
    assert_eq!(out, vec![2, 3, 4, 5, 6]);
}

#[test]
fn vy_ring_nonword_pod_payload() {
    // A 3-word Pod payload exercises the generic SoA layout.
    let buf = RelocBuf::zeroed(RelocRing::<[u64; 3]>::layout(2));
    // SAFETY: buf satisfies layout(2).
    let r = unsafe { RelocRing::<[u64; 3]>::init_at(buf.base(), 2) };
    r.vy_enqueue([1, 2, 3]).unwrap();
    r.vy_enqueue([4, 5, 6]).unwrap();
    assert_eq!(r.vy_dequeue(), Some([1, 2, 3]));
    assert_eq!(r.vy_dequeue(), Some([4, 5, 6]));
    assert_eq!(r.vy_dequeue(), None);
}

#[test]
fn vy_ring_pow2_and_non_pow2_capacities_behave_identically() {
    // S1: the mask fast path (pow2) and the `%` path (non-pow2) must
    // produce exactly the same observable behaviour over several rounds
    // of wraparound, including relaxed-full and empty reports.
    for &(c_pow2, c_mod) in &[(4usize, 5usize), (8, 7), (2, 3)] {
        let run = |c: usize| -> Vec<Option<u64>> {
            let buf = RelocBuf::zeroed(RelocRing::<u64>::layout(c));
            // SAFETY: buf satisfies layout(c).
            let r = unsafe { RelocRing::<u64>::init_at(buf.base(), c) };
            let mut log = Vec::new();
            let mut next = 0u64;
            // Same op sequence regardless of capacity: enqueue bursts
            // beyond capacity, drain fully, repeat across the wrap.
            for _ in 0..6 {
                loop {
                    match r.vy_enqueue(next) {
                        Ok(()) => {
                            log.push(Some(next));
                            next += 1;
                        }
                        Err(_) => {
                            log.push(None);
                            break;
                        }
                    }
                }
                while let Some(v) = r.vy_dequeue() {
                    log.push(Some(v));
                }
                log.push(None);
            }
            log
        };
        // Behaviour depends only on capacity, and the *shape* is FIFO
        // order both ways; compare each against a plain model.
        for &c in &[c_pow2, c_mod] {
            let log = run(c);
            // Reconstruct: every burst enqueues exactly c items then a
            // full report, then dequeues the same c items then empty.
            let mut iter = log.iter();
            let mut expect = 0u64;
            for _ in 0..6 {
                for _ in 0..c {
                    assert_eq!(iter.next(), Some(&Some(expect)));
                    expect += 1;
                }
                assert_eq!(iter.next(), Some(&None), "full at exactly C");
                for v in expect - c as u64..expect {
                    assert_eq!(iter.next(), Some(&Some(v)));
                }
                assert_eq!(iter.next(), Some(&None), "empty after drain");
            }
        }
    }
}

#[test]
fn vy_ring_write_grant_commit_publishes_in_place() {
    let buf = RelocBuf::zeroed(RelocRing::<u64>::layout(8));
    // SAFETY: buf satisfies layout(8).
    let r = unsafe { RelocRing::<u64>::init_at(buf.base(), 8) };
    let mut g = r.try_reserve(3).unwrap();
    assert_eq!(g.len(), 3);
    for (i, s) in g.uninit_slice().iter_mut().enumerate() {
        s.write(100 + i as u64);
    }
    g.commit(3);
    assert_eq!(r.vy_dequeue(), Some(100));
    {
        let rg = r.try_read(8).unwrap();
        assert_eq!(rg.slice(), &[101, 102]);
    }
    assert_eq!(r.vy_dequeue(), None);
}

#[test]
fn vy_ring_partial_commit_aborts_the_tail_of_the_run() {
    let buf = RelocBuf::zeroed(RelocRing::<u64>::layout(4));
    // SAFETY: buf satisfies layout(4).
    let r = unsafe { RelocRing::<u64>::init_at(buf.base(), 4) };
    let mut g = r.try_reserve(4).unwrap();
    assert_eq!(g.len(), 4);
    g.uninit_slice()[0].write(1);
    g.commit(1); // slots 1..4 aborted
    assert_eq!(r.vy_dequeue(), Some(1));
    // The aborted slots are skipped, not delivered.
    assert_eq!(r.vy_dequeue(), None);
    // And the ring is usable for a full next round.
    for v in 10..14 {
        r.vy_enqueue(v).unwrap();
    }
    let mut out = Vec::new();
    assert_eq!(r.vy_dequeue_many(8, &mut out), 4);
    assert_eq!(out, vec![10, 11, 12, 13]);
}

#[test]
fn vy_ring_dropped_grant_aborts_and_batch_dequeue_skips() {
    let buf = RelocBuf::zeroed(RelocRing::<u64>::layout(4));
    // SAFETY: buf satisfies layout(4).
    let r = unsafe { RelocRing::<u64>::init_at(buf.base(), 4) };
    r.vy_enqueue(1).unwrap();
    {
        let _g = r.try_reserve(2).unwrap(); // dropped: rounds 1,2 aborted
    }
    r.vy_enqueue(2).unwrap(); // lands at round 3
    let mut out = Vec::new();
    // Batch dequeue must deliver 1 and 2, skipping the aborted rounds.
    assert_eq!(r.vy_dequeue_many(4, &mut out), 2);
    assert_eq!(out, vec![1, 2]);
    assert_eq!(r.counter_len(), 0);
}

#[test]
fn vy_ring_read_grant_frees_slots_on_drop() {
    let buf = RelocBuf::zeroed(RelocRing::<u64>::layout(2));
    // SAFETY: buf satisfies layout(2).
    let r = unsafe { RelocRing::<u64>::init_at(buf.base(), 2) };
    r.vy_enqueue(1).unwrap();
    r.vy_enqueue(2).unwrap();
    {
        let g = r.try_read(2).unwrap();
        assert_eq!(&*g, &[1, 2]);
        // While the grant lives the slots are not yet reusable.
        assert_eq!(r.vy_enqueue(3), Err(3));
    }
    // Dropped: both slots free again.
    r.vy_enqueue(3).unwrap();
    assert_eq!(r.vy_dequeue(), Some(3));
}

#[test]
fn byte_ring_round_trips_variable_sizes() {
    let buf = RelocBuf::zeroed(RelocByteRing::layout((256, 64)));
    // SAFETY: buf satisfies layout(256).
    let r = unsafe { RelocByteRing::init_at(buf.base(), (256, 64)) };
    let msgs: &[&[u8]] = &[b"a", b"hello world", b"", &[0xAB; 64]];
    for m in msgs {
        // SAFETY: single-threaded test = unique producer.
        assert!(unsafe { r.producer_push(m) });
    }
    for m in msgs {
        // SAFETY: single-threaded test = unique consumer.
        let g = unsafe { r.consumer_read() }.unwrap();
        assert_eq!(g.msg(), *m);
    }
    // SAFETY: as above.
    assert!(unsafe { r.consumer_read() }.is_none());
    assert_eq!(r.bytes_used(), 0);
}

#[test]
fn byte_ring_pads_at_the_wrap_point() {
    let buf = RelocBuf::zeroed(RelocByteRing::layout((64, 24)));
    // SAFETY: buf satisfies layout(64).
    let r = unsafe { RelocByteRing::init_at(buf.base(), (64, 24)) };
    // Fill/drain cycles force records across the wrap repeatedly; every
    // message must come back intact and in order.
    let mut sent = 0u8;
    let mut got = 0u8;
    for round in 0..40 {
        let len = (round % 24) + 1;
        let msg: Vec<u8> = (0..len)
            .map(|_| {
                sent = sent.wrapping_add(1);
                sent
            })
            .collect();
        // SAFETY: single-threaded SPSC.
        while !unsafe { r.producer_push(&msg) } {
            let g = unsafe { r.consumer_read() }.unwrap();
            for b in g.msg() {
                got = got.wrapping_add(1);
                assert_eq!(*b, got);
            }
        }
    }
    // SAFETY: single-threaded SPSC.
    while let Some(g) = unsafe { r.consumer_read() } {
        for b in g.msg() {
            got = got.wrapping_add(1);
            assert_eq!(*b, got);
        }
    }
    assert_eq!(got, sent, "every byte delivered exactly once, in order");
}

#[test]
fn byte_ring_grant_abort_and_short_commit() {
    let buf = RelocBuf::zeroed(RelocByteRing::layout((128, 32)));
    // SAFETY: buf satisfies layout(128).
    let r = unsafe { RelocByteRing::init_at(buf.base(), (128, 32)) };
    {
        // SAFETY: single-threaded SPSC.
        let _g = unsafe { r.producer_grant(32) }.unwrap();
        // Dropped without commit: nothing published.
    }
    // SAFETY: as above.
    assert!(unsafe { r.consumer_read() }.is_none());
    {
        // SAFETY: as above.
        let mut g = unsafe { r.producer_grant(32) }.unwrap();
        g.buf()[..3].copy_from_slice(b"abc");
        g.commit(3); // short commit publishes a 3-byte record
    }
    // SAFETY: as above.
    let g = unsafe { r.consumer_read() }.unwrap();
    assert_eq!(&*g, b"abc");
}

#[test]
fn byte_ring_reports_full_exactly() {
    let buf = RelocBuf::zeroed(RelocByteRing::layout((64, 24)));
    // SAFETY: buf satisfies layout(64).
    let r = unsafe { RelocByteRing::init_at(buf.base(), (64, 24)) };
    // 4 records of record_size(8) = 16 bytes fill the 64-byte ring.
    for i in 0..4u64 {
        // SAFETY: single-threaded SPSC.
        assert!(unsafe { r.producer_push(&i.to_le_bytes()) });
    }
    // SAFETY: as above.
    assert!(!unsafe { r.producer_push(&5u64.to_le_bytes()) });
    let g = unsafe { r.consumer_read() }.unwrap();
    assert_eq!(&*g, &0u64.to_le_bytes());
    g.release();
    // SAFETY: as above.
    assert!(unsafe { r.producer_push(&5u64.to_le_bytes()) });
}

#[test]
fn byte_ring_survives_memcpy_relocation() {
    let buf = RelocBuf::zeroed(RelocByteRing::layout((128, 32)));
    // SAFETY: buf satisfies layout(128).
    let r = unsafe { RelocByteRing::init_at(buf.base(), (128, 32)) };
    // SAFETY: single-threaded SPSC.
    unsafe {
        assert!(r.producer_push(b"first"));
        assert!(r.producer_push(b"second"));
        r.consumer_read().unwrap().release();
    }
    let copy = buf.duplicate();
    // SAFETY: byte-identical initialized region.
    let r2 = unsafe { RelocByteRing::attach(copy.base(), copy.len()).unwrap() };
    // SAFETY: single-threaded SPSC on the relocated copy.
    let g = unsafe { r2.consumer_read() }.unwrap();
    assert_eq!(&*g, b"second");
}

/// An empty byte ring whose two byte counters both start at `pos` (a
/// multiple of 8, as every record boundary is).
fn byte_ring_starting_at(cap: usize, max_msg: usize, pos: u64) -> RelocBox<RelocByteRing> {
    let r = RelocBox::<RelocByteRing>::new((cap, max_msg));
    r.tail().store(pos, Ordering::SeqCst);
    r.head().store(pos, Ordering::SeqCst);
    r
}

/// Push and pop messages of 1…`max_msg` bytes from 40 bytes below 2⁶⁴
/// through the counters' wrap and a few laps past it, one or two
/// messages resident, every byte checked in order.
fn cross_the_byte_counter_edge(r: &RelocByteRing) {
    let (mut sent, mut got) = (0u8, 0u8);
    let mut check = |g: ByteReadGrant<'_>| {
        for b in g.msg() {
            got = got.wrapping_add(1);
            assert_eq!(*b, got);
        }
    };
    for round in 0..60 {
        let len = round % r.max_msg() + 1;
        let msg: Vec<u8> = (0..len)
            .map(|_| {
                sent = sent.wrapping_add(1);
                sent
            })
            .collect();
        // SAFETY: single-threaded SPSC.
        while !unsafe { r.producer_push(&msg) } {
            assert!(r.bytes_used() > 0, "refused on an empty ring");
            check(unsafe { r.consumer_read() }.unwrap());
        }
        assert!(r.bytes_used() <= r.capacity_bytes());
        if round % 2 == 1 {
            check(unsafe { r.consumer_read() }.unwrap());
        }
    }
    // SAFETY: single-threaded SPSC.
    while let Some(g) = unsafe { r.consumer_read() } {
        check(g);
    }
    assert_eq!(got, sent, "every byte delivered exactly once, in order");
    assert_eq!(r.bytes_used(), 0);
    let (h, t) = (
        r.head().load(Ordering::SeqCst),
        r.tail().load(Ordering::SeqCst),
    );
    assert_eq!(h, t);
}

const BYTE_EDGE: u64 = u64::MAX - 39;

#[test]
fn byte_ring_counters_cross_two_to_the_64_at_a_power_of_two_capacity() {
    let r = byte_ring_starting_at(64, 24, BYTE_EDGE);
    cross_the_byte_counter_edge(&r);
    assert!(
        r.tail().load(Ordering::SeqCst) < 4096,
        "the counters wrapped"
    );
    // Both ends on opposite sides of the edge at once: a producer thread
    // streams sequence-numbered messages to this thread across it.
    let r = byte_ring_starting_at(64, 24, BYTE_EDGE);
    let n = 2_000u64;
    std::thread::scope(|s| {
        let r = &r;
        s.spawn(move || {
            for i in 0..n {
                // SAFETY: this thread is the only producer.
                while !unsafe { r.producer_push(&i.to_le_bytes()[..(i % 8 + 1) as usize]) } {
                    std::thread::yield_now();
                }
            }
        });
        for i in 0..n {
            let g = loop {
                // SAFETY: this thread is the only consumer.
                match unsafe { r.consumer_read() } {
                    Some(g) => break g,
                    None => std::thread::yield_now(),
                }
            };
            assert_eq!(*g, i.to_le_bytes()[..(i % 8 + 1) as usize]);
        }
    });
    assert_eq!(r.bytes_used(), 0);
}

/// A capacity that does not divide 2⁶⁴ cannot cross the edge: the offset
/// `counter % cap` would jump. The stated bound trips in a debug build
/// on the grant that would cross it, after every earlier message arrived
/// intact.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "would carry its 2^64th byte")]
fn byte_ring_counters_stop_at_two_to_the_64_at_other_capacities() {
    let r = byte_ring_starting_at(96, 24, BYTE_EDGE);
    cross_the_byte_counter_edge(&r);
}

#[test]
#[should_panic(expected = "wrap-pad progress bound")]
fn byte_ring_rejects_too_small_capacity() {
    let _ = RelocBox::<RelocByteRing>::new((32, 32));
}

#[test]
fn board_round_trips_and_relocates() {
    let buf = RelocBuf::zeroed(AnnounceBoard::layout(3));
    // SAFETY: buf satisfies layout(3).
    let b = unsafe { AnnounceBoard::init_at(buf.base(), 3) };
    assert_eq!(b.threads(), 3);
    assert_eq!(b.pool_len(), 6);
    b.op(1).store(77, Ordering::SeqCst);
    b.desc(4).unwrap().x.store(42, Ordering::SeqCst);
    assert!(b.desc(6).is_none());

    let copy = buf.duplicate();
    // SAFETY: byte-identical initialized region.
    let b2 = unsafe { AnnounceBoard::attach(copy.base(), copy.len()).unwrap() };
    assert_eq!(b2.op(1).load(Ordering::SeqCst), 77);
    assert_eq!(b2.desc(4).unwrap().x.load(Ordering::SeqCst), 42);
    assert_eq!(b2.op(0).load(Ordering::SeqCst), 0);
    assert_eq!(b2.descs().count(), 6);
}

/// `op` is a safe `pub fn` over a raw-pointer add: the bounds check is an
/// `assert!`, so this holds under `cargo test --release` too (it was a
/// `debug_assert!`, and `op(T)` read past the board in release builds).
#[test]
#[should_panic(expected = "announcement slot 3 of 3")]
fn board_op_out_of_bounds_panics_in_every_build() {
    let b = RelocBox::<AnnounceBoard>::new(3);
    let _ = b.op(3);
}

/// What the lane promises, as addresses: lane `k` is the 64 bytes at
/// `base + 64 + 64·k`, and `op(k)`, `desc(2k)`, `desc(2k + 1)` all lie
/// inside it — so no two threads' first-touched words share a line, and a
/// scanner reading thread `k`'s announcement and its descriptor takes one.
#[test]
fn board_lane_holds_a_threads_slot_and_descriptor_pair() {
    let t = 5;
    let buf = RelocBuf::zeroed(AnnounceBoard::layout(t));
    // SAFETY: buf satisfies layout(t).
    let b = unsafe { AnnounceBoard::init_at(buf.base(), t) };
    let base = buf.base() as usize;
    assert_eq!(base % 64, 0);
    assert_eq!(buf.len(), 64 + 64 * t, "header line + T lanes, no slack");
    let addr = |r: &SimAtomicU64| r as *const SimAtomicU64 as usize;
    for k in 0..t {
        let lane = base + 64 + 64 * k;
        assert_eq!(addr(b.op(k)), lane, "slot {k} opens its lane");
        for (j, d) in [b.desc(2 * k).unwrap(), b.desc(2 * k + 1).unwrap()]
            .into_iter()
            .enumerate()
        {
            assert_eq!(addr(&d.word), lane + 8 + 24 * j);
            assert_eq!(addr(&d.e), lane + 16 + 24 * j);
            assert_eq!(addr(&d.x), lane + 24 + 24 * j);
            assert!(addr(&d.x) + 8 <= lane + 64, "descriptor inside lane {k}");
        }
    }
    assert!(b.desc(2 * t).is_none());
}

#[test]
fn layouts_are_contiguous_and_aligned() {
    // SoA: 384-byte header, 8 seq words (64 B) padded to the 128-byte
    // payload boundary, then 8 u64 payloads.
    let l = RelocRing::<u64>::layout(8);
    assert_eq!(l.size(), 384 + 128 + 64);
    assert_eq!(l.align(), 128);
    let b = AnnounceBoard::layout(4);
    // One 64-byte header line + 4 lanes of 64 (slot, two three-word
    // descriptors, 8 spare bytes), no slack. Was 256 + 8 * 128 while every
    // five-word descriptor sat alone behind `align(128)`.
    assert_eq!(b.size(), 64 + 4 * 64);
    assert_eq!(b.align(), 64);
    // Byte ring: 384-byte header + the data bytes.
    assert_eq!(RelocByteRing::layout((256, 64)).size(), 384 + 256);
}

#[test]
fn byte_record_sizes() {
    assert_eq!(byte_record_size(0), 8);
    assert_eq!(byte_record_size(1), 16);
    assert_eq!(byte_record_size(8), 16);
    assert_eq!(byte_record_size(9), 24);
    assert_eq!(byte_record_size(4096), 8 + 4096);
}

#[test]
fn align_up_rounds_correctly() {
    assert_eq!(align_up(0, 128), 0);
    assert_eq!(align_up(1, 128), 128);
    assert_eq!(align_up(128, 128), 128);
    assert_eq!(align_up(129, 64), 192);
}
