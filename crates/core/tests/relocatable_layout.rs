//! Layout-stability property tests for the relocatable structures
//! (DESIGN.md §10): for every relocatable struct, addressing a field by
//! **offset from the segment base** and addressing it by **reference
//! through the view** must agree — and must keep agreeing after the
//! bytes are memcpy'd to a different base address.
//!
//! The compile-time size/align/offset pins live next to the definitions
//! (`bq_core::relocatable`'s `const` assertion block); these tests cover
//! what static assertions cannot: arbitrary capacities, arbitrary
//! operation sequences, and actual relocation.

use bq_core::relocatable::{align_up, AnnounceBoard, RelocBuf, RelocLayout, RelocRing};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `RelocRing` (Vyukov layout): per-slot sequence words and values
    /// read back identically through a relocated view.
    #[test]
    fn vyukov_ring_state_survives_relocation(
        cap_pow in 1u32..6,
        script in prop::collection::vec((any::<bool>(), any::<u64>()), 0..96),
    ) {
        let cap = 1usize << cap_pow;
        let buf = RelocBuf::zeroed(RelocRing::<u64>::layout(cap));
        // SAFETY: buf sized by the matching layout, exclusively owned.
        let ring = unsafe { RelocRing::<u64>::init_at(buf.base(), cap) };
        let mut model = std::collections::VecDeque::new();
        for (is_enq, v) in script {
            if is_enq {
                if ring.vy_enqueue(v).is_ok() {
                    model.push_back(v);
                }
            } else {
                prop_assert_eq!(ring.vy_dequeue(), model.pop_front());
            }
        }

        let moved = buf.duplicate();
        // SAFETY: complete image at the new base.
        let ring2 = unsafe { RelocRing::<u64>::attach(moved.base(), moved.len()).unwrap() };
        prop_assert_eq!(ring2.capacity(), cap);
        prop_assert_eq!(ring2.counter_len(), model.len());
        while let Some(expect) = model.pop_front() {
            prop_assert_eq!(ring2.vy_dequeue(), Some(expect));
        }
        prop_assert_eq!(ring2.vy_dequeue(), None);
    }

    /// `AnnounceBoard`: `word`/`e`/`x` of every descriptor and every slot,
    /// written through one view, are read back, offset-addressed, through
    /// a view over relocated bytes.
    #[test]
    fn announce_board_state_survives_relocation(
        threads in 1usize..12,
        salt in any::<u64>(),
        stores in prop::collection::vec((any::<u64>(), any::<u64>()), 0..32),
    ) {
        use std::sync::atomic::Ordering;

        let buf = RelocBuf::zeroed(AnnounceBoard::layout(threads));
        // SAFETY: buf sized by the matching layout, exclusively owned.
        let board = unsafe { AnnounceBoard::init_at(buf.base(), threads) };
        // Every word of the board distinct: a descriptor field resolved to
        // its neighbour's offset, or to a slot's, reads the wrong value.
        let fill = |k: usize| salt.wrapping_add(k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut model: Vec<[u64; 3]> = (0..board.pool_len())
            .map(|d| [fill(3 * d), fill(3 * d + 1), fill(3 * d + 2)])
            .collect();
        for (which, v) in stores {
            let d = (which % board.pool_len() as u64) as usize;
            model[d] = [v, v.wrapping_mul(3), v.wrapping_mul(5)];
        }
        for (d, &[word, e, x]) in model.iter().enumerate() {
            let desc = board.desc(d).unwrap();
            desc.word.store(word, Ordering::SeqCst);
            desc.e.store(e, Ordering::SeqCst);
            desc.x.store(x, Ordering::SeqCst);
        }
        for s in 0..threads {
            board.op(s).store(s as u64 + 7, Ordering::SeqCst);
        }

        let moved = buf.duplicate();
        // SAFETY: complete image at the new base.
        let board2 = unsafe { AnnounceBoard::attach(moved.base(), moved.len()).unwrap() };
        prop_assert_eq!(board2.threads(), threads);
        prop_assert_eq!(board2.pool_len(), 2 * threads);
        for (d, &[word, e, x]) in model.iter().enumerate() {
            let desc = board2.desc(d).unwrap();
            prop_assert_eq!(desc.word.load(Ordering::SeqCst), word);
            prop_assert_eq!(desc.e.load(Ordering::SeqCst), e);
            prop_assert_eq!(desc.x.load(Ordering::SeqCst), x);
        }
        for s in 0..threads {
            prop_assert_eq!(board2.op(s).load(Ordering::SeqCst), s as u64 + 7);
        }
    }

    /// `align_up` is the layout glue everywhere offsets are computed:
    /// result is aligned, minimal, and identity on aligned input.
    #[test]
    fn align_up_is_minimal_and_idempotent(x in 0usize..1 << 40, pow in 0u32..12) {
        let a = 1usize << pow;
        let r = align_up(x, a);
        prop_assert_eq!(r % a, 0);
        prop_assert!(r >= x);
        prop_assert!(r - x < a, "minimal: no full alignment step skipped");
        prop_assert_eq!(align_up(r, a), r);
    }
}
