//! Numerical verification of every asymptotic overhead claim in the paper
//! (the table in DESIGN.md §2), using the structural accounting from
//! `bq-memtrack`. These are the pass/fail versions of the E1–E9 tables.

use membq::bench_registry::QueueKind;

fn overhead(kind: QueueKind, c: usize, t: usize) -> usize {
    kind.build(c, t).footprint().overhead_bytes()
}

/// Overhead is flat in `C` (ratio 1 across a 256× capacity range).
fn assert_flat_in_c(kind: QueueKind) {
    let lo = overhead(kind, 64, 8);
    let hi = overhead(kind, 64 * 256, 8);
    assert_eq!(lo, hi, "{}: overhead must not depend on C", kind.name());
}

/// Overhead grows linearly in `T` with a uniform per-thread cost.
fn assert_linear_in_t(kind: QueueKind) {
    let t1 = overhead(kind, 1024, 1);
    let t8 = overhead(kind, 1024, 8);
    let t64 = overhead(kind, 1024, 64);
    assert!(
        t8 > t1 && t64 > t8,
        "{}: overhead must grow with T",
        kind.name()
    );
    let per_a = (t8 - t1) / 7;
    let per_b = (t64 - t8) / 56;
    assert_eq!(
        per_a,
        per_b,
        "{}: per-thread cost must be uniform",
        kind.name()
    );
}

/// Overhead grows linearly in `C`.
fn assert_linear_in_c(kind: QueueKind) {
    let c1 = overhead(kind, 1 << 8, 8);
    let c2 = overhead(kind, 1 << 10, 8);
    let c3 = overhead(kind, 1 << 12, 8);
    let per_a = (c2 - c1) / ((1 << 10) - (1 << 8));
    let per_b = (c3 - c2) / ((1 << 12) - (1 << 10));
    assert!(c3 > c2 && c2 > c1, "{}", kind.name());
    assert_eq!(
        per_a,
        per_b,
        "{}: per-slot cost must be uniform",
        kind.name()
    );
}

#[test]
fn figure1_and_strawman_are_constant() {
    // E1: the sequential design's footprint (also the strawman's).
    assert_flat_in_c(QueueKind::Naive);
    assert_eq!(overhead(QueueKind::Naive, 1024, 1), 16);
}

#[test]
fn listing2_distinct_is_constant() {
    // E3.
    assert_flat_in_c(QueueKind::Distinct);
    for t in [1, 8, 64] {
        assert_eq!(overhead(QueueKind::Distinct, 1024, t), 16);
    }
}

#[test]
fn listing3_llsc_counters_constant_tags_linear() {
    // E5: conceptual overhead (counters) is constant; the emulation's tag
    // bytes are per-slot and reported as such.
    let q_small = QueueKind::LlSc.build(64, 1);
    let q_large = QueueKind::LlSc.build(1 << 14, 1);
    let counters = |q: &dyn membq::bench_registry::DynQueue| {
        q.footprint()
            .class_bytes(membq::memtrack::OverheadClass::Counters)
    };
    assert_eq!(counters(&*q_small), counters(&*q_large));
    let tags = |q: &dyn membq::bench_registry::DynQueue| {
        q.footprint()
            .class_bytes(membq::memtrack::OverheadClass::PerSlotMetadata)
    };
    assert_eq!(tags(&*q_large) / tags(&*q_small), (1 << 14) / 64);
}

#[test]
fn listing4_dcss_is_theta_t() {
    // E6.
    assert_flat_in_c(QueueKind::Dcss);
    assert_linear_in_t(QueueKind::Dcss);
}

#[test]
fn listing5_optimal_is_theta_t() {
    // E7 — the headline: the memory-optimal queue's overhead is linear in
    // T and independent of C, matching the Θ(T) lower bound.
    assert_flat_in_c(QueueKind::Optimal);
    assert_linear_in_t(QueueKind::Optimal);
}

#[test]
fn listing5_constant_is_one_line_per_thread() {
    // E18 — the constant in Θ(T), which E6/E7 never checked: 64 bytes per
    // thread (an announcement slot, two three-word descriptors, 8 spare
    // bytes: one cache line), flat in C. It was 264 = 8 + 2 × 128.
    use membq::core::OptimalQueue;
    use membq::prelude::MemoryFootprint;
    let ovh = |c: usize, t: usize| OptimalQueue::with_capacity_and_threads(c, t).overhead_bytes();
    for c in [1usize, 64, 1024, 1 << 16] {
        assert_eq!((ovh(c, 64) - ovh(c, 3)) / 61, 64, "C = {c}");
        assert_eq!((ovh(c, 64) - ovh(c, 3)) % 61, 0, "C = {c}");
    }
    // And the part that does not grow: three hot words on a line each plus
    // the board's header line.
    assert_eq!(ovh(1024, 64) - 64 * 64, 3 * 64 + 64);
}

#[test]
fn listing5_crosses_a_vyukov_ring_near_eight_slots_per_thread() {
    // E18 — where "memory-optimal" starts to be the smaller queue, computed
    // from the two `overhead_bytes()`, not hard-coded: 64·T + 256 against
    // the ring's 8·C + 256 crosses at C = 8·T (it was C > 33·T − 29).
    use membq::baselines::VyukovQueue;
    use membq::core::OptimalQueue;
    use membq::prelude::MemoryFootprint;
    for t in [16usize, 64] {
        let optimal = |c: usize| OptimalQueue::with_capacity_and_threads(c, t).overhead_bytes();
        let ring = |c: usize| VyukovQueue::with_capacity(c).overhead_bytes();
        let (above, below) = (8 * t + 64, 8 * t - 64);
        assert!(
            optimal(above) < ring(above),
            "T = {t}, C = {above}: {} vs {}",
            optimal(above),
            ring(above)
        );
        assert!(
            optimal(below) >= ring(below),
            "T = {t}, C = {below}: {} vs {}",
            optimal(below),
            ring(below)
        );
    }
}

#[test]
fn per_slot_designs_are_theta_c() {
    // E9: Vyukov / SCQ-style pay per slot.
    assert_linear_in_c(QueueKind::Vyukov);
    assert_linear_in_c(QueueKind::Scq);
}

#[test]
fn michael_scott_is_theta_n() {
    // E9: MS pays per *element present*, not per slot.
    let q = QueueKind::Ms.build(4096, 1);
    let empty = q.footprint().overhead_bytes();
    for v in 1..=2048u64 {
        assert!(q.enqueue(0, v));
    }
    let half = q.footprint().overhead_bytes();
    for v in 1..=2048u64 {
        assert!(q.enqueue(0, 10_000 + v));
    }
    let full = q.footprint().overhead_bytes();
    assert!(half >= empty + 2048 * 8, "node linkage per element");
    assert!(full >= half + 2048 * 8);
    // And it shrinks back as elements leave (reclamation works).
    for _ in 0..4096 {
        q.dequeue(0).unwrap();
    }
    let drained = q.footprint().overhead_bytes();
    assert!(drained < half, "overhead must shrink after draining");
}

#[test]
fn e9_ordering_holds_at_reference_point() {
    // The paper's qualitative ordering at C = 1024, T = 8:
    // Θ(1) designs < Θ(T) designs < Θ(C) designs (C ≫ T).
    let theta1 = overhead(QueueKind::Distinct, 1024, 8);
    let theta_t = overhead(QueueKind::Optimal, 1024, 8).max(overhead(QueueKind::Dcss, 1024, 8));
    let theta_c = overhead(QueueKind::Vyukov, 1024, 8).min(overhead(QueueKind::Scq, 1024, 8));
    assert!(theta1 < theta_t, "Θ(1) < Θ(T): {theta1} vs {theta_t}");
    assert!(
        theta_t < theta_c,
        "Θ(T) < Θ(C) when C ≫ T: {theta_t} vs {theta_c}"
    );
}

#[test]
fn sharded_optimal_is_theta_s_t() {
    // The scale layer's headline claim (DESIGN.md §8): composing S
    // Listing 5 shards multiplies the Θ(T) overhead by S and nothing
    // else — flat in C, linear in T, and exactly S sub-queue overheads
    // plus the constant shard directory.
    use membq::core::{OptimalQueue, ShardedQueue};
    use membq::prelude::MemoryFootprint;

    // Flat in C (registry kind, fixed S = 4).
    assert_flat_in_c(QueueKind::ShardedOptimal);
    // Linear in T with a uniform per-thread cost.
    assert_linear_in_t(QueueKind::ShardedOptimal);

    // The structural breakdown, numerically: S × ovh(OptimalQueue(C/S, T))
    // plus the 24-byte directory (boxed-slice fat pointer + tid counter),
    // at several (S, T) points.
    for (c, s, t) in [(1024usize, 4usize, 8usize), (4096, 8, 4), (256, 2, 16)] {
        let sharded = ShardedQueue::<OptimalQueue>::optimal(c, s, t);
        let single = OptimalQueue::with_capacity_and_threads(c / s, t);
        assert_eq!(
            sharded.overhead_bytes(),
            s * single.overhead_bytes() + 24,
            "S={s}, T={t}: Θ(S·T) breakdown must be exactly S sub-queue overheads + directory"
        );
        assert_eq!(
            sharded.element_bytes(),
            c * 8,
            "element storage stays exactly C value-locations"
        );
        // The per-thread slope of the composition is S × the single
        // queue's slope.
        let single_hi = OptimalQueue::with_capacity_and_threads(c / s, 2 * t);
        let sharded_hi = ShardedQueue::<OptimalQueue>::optimal(c, s, 2 * t);
        assert_eq!(
            sharded_hi.overhead_bytes() - sharded.overhead_bytes(),
            s * (single_hi.overhead_bytes() - single.overhead_bytes()),
            "per-thread cost multiplies by S"
        );
    }

    // Per-class accounting survives the aggregation: S announcement
    // arrays and S descriptor pools.
    let sharded = ShardedQueue::<OptimalQueue>::optimal(1024, 4, 8);
    let single = OptimalQueue::with_capacity_and_threads(256, 8);
    for class in [
        membq::memtrack::OverheadClass::Announcement,
        membq::memtrack::OverheadClass::Descriptors,
        membq::memtrack::OverheadClass::Counters,
    ] {
        assert_eq!(
            sharded.footprint().class_bytes(class),
            4 * single.footprint().class_bytes(class),
            "{class}: class bytes must scale by S"
        );
    }
}

#[test]
fn sharded_ordering_extends_e9_table() {
    // Where the composition sits in the E9 ordering, S = 4, T = 8: above
    // the plain Θ(T) queue (S× its overhead) at any C, and below the Θ(C)
    // designs once C clears the S·T working set (at C = 1024 the two are
    // within ~1% of each other — the honest crossover; by C = 16384 the
    // Θ(C) row is ~60× larger while the sharded row has not moved).
    for c in [1024usize, 16384] {
        let theta_t = overhead(QueueKind::Optimal, c, 8);
        let theta_st = overhead(QueueKind::ShardedOptimal, c, 8);
        assert!(theta_t < theta_st, "Θ(T) < Θ(S·T): {theta_t} vs {theta_st}");
    }
    assert_eq!(
        overhead(QueueKind::ShardedOptimal, 1024, 8),
        overhead(QueueKind::ShardedOptimal, 16384, 8),
        "sharded overhead is flat in C"
    );
    let theta_st = overhead(QueueKind::ShardedOptimal, 16384, 8);
    let theta_c = overhead(QueueKind::Vyukov, 16384, 8);
    assert!(
        theta_st < theta_c,
        "Θ(S·T) < Θ(C) when C ≫ S·T: {theta_st} vs {theta_c}"
    );
}

#[test]
fn segment_queue_tradeoff_in_k() {
    // E2 (pass/fail form): at steady state, K too small pays headers;
    // the √C choice beats both extremes on total overhead under churn is
    // covered by the k_sweep binary; here we check the header term scales
    // as C/K.
    use membq::core::SegmentQueue;
    use membq::prelude::*;
    let c = 1 << 12;
    let fill = |k: usize| {
        let q = SegmentQueue::with_capacity_and_segment_size(c, k);
        let mut h = q.register();
        for v in 1..=c as u64 {
            q.enqueue(&mut h, v).unwrap();
        }
        (q.segments_live(), q.overhead_bytes())
    };
    let (segs_small_k, ovh_small_k) = fill(8);
    let (segs_big_k, ovh_big_k) = fill(1024);
    assert!(segs_small_k >= c / 8, "C/K segments live when filled");
    assert!(segs_big_k <= c / 1024 + 1);
    assert!(
        ovh_small_k > ovh_big_k,
        "many small segments cost more headers: {ovh_small_k} vs {ovh_big_k}"
    );
}
