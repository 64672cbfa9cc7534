//! Pinned regression schedules (DESIGN.md §11): historical bugs encoded
//! as replayable [`Schedule`] artifacts driven through the neutral
//! machine-schedule runner. Each fixture must **flag the pre-fix model
//! variant** and **pass the shipped code path** — so the schedule itself
//! is the regression test, independent of the choreography that first
//! produced it. Runs in tier-1 (no features required).

use std::collections::VecDeque;

use bq_sim::algos::optimal_model::{HelpMode, OptimalModel};
use bq_sim::explore::MachinePlan;
use bq_sim::{
    check_history, run_machine_schedule, token_domain_violations, Access, LocKind, Op, Ret,
    RunOutcome, Schedule, Sim, SimMemory,
};

const STEPS: usize = 10_000;

// ---------------------------------------------------------------------------
// Recording harness: replays the original adversary choreography while
// logging every primitive step, to derive (and cross-check) the pinned
// schedule.
// ---------------------------------------------------------------------------

struct Rec<Q: bq_sim::machine::SimQueue> {
    sim: Sim<Q>,
    steps: Vec<usize>,
}

impl<Q: bq_sim::machine::SimQueue> Rec<Q> {
    fn step(&mut self, tid: usize) -> RunOutcome {
        self.steps.push(tid);
        self.sim.step(tid)
    }

    fn run_to_completion(&mut self, tid: usize) -> Ret {
        for _ in 0..STEPS {
            if let RunOutcome::Completed(r) = self.step(tid) {
                return r;
            }
        }
        panic!("thread {tid} did not complete");
    }

    fn run_op(&mut self, tid: usize, op: Op) -> Ret {
        self.sim.invoke(tid, op);
        self.run_to_completion(tid)
    }

    fn run_until(&mut self, tid: usize, mut pred: impl FnMut(&Access, &SimMemory) -> bool) {
        for _ in 0..STEPS {
            let a = self.sim.pending_access(tid);
            if pred(&a, &self.sim.mem) {
                return;
            }
            self.step(tid);
        }
        panic!("thread {tid} never reached its poise point");
    }
}

// ---------------------------------------------------------------------------
// PR-1 regression: the Lemma A.2 descriptor-verdict race
// ---------------------------------------------------------------------------

/// The pinned interleaving of the Lemma A.2 descriptor-verdict race
/// (DESIGN.md §7(1)): thread 1's enqueue is paused before its stale
/// array write-back, a helper pushes the counter, the element leaves
/// through the announcement, thread 2 is paused on its replacement CAS —
/// and the release order makes the paper-faithful helping discipline
/// count a position that holds no successful descriptor, resurrecting a
/// dequeued value.
///
/// Derived from the original adversary choreography by
/// [`derive_lemma_a2_schedule`]; `lemma_a2_schedule_is_stable` asserts
/// the two never drift apart.
const LEMMA_A2_SCHEDULE: &str = "sched:v1:1,1,1,1,1,1,1,3,3,3,3,3,3,3,3,0,0,0,0,0,2,2,2,2,\
                                 1,1,1,1,2,2,2,2,2,0,0,0,0,0,0,0,0,0,0,0";

/// Thread op plans matching the pinned schedule: T0 dequeues (the
/// through-announcement read plus the drain), T1 is the stalled victim
/// V, T2 is the poised second enqueuer Z, T3 the helper.
fn lemma_a2_plan() -> MachinePlan {
    vec![
        VecDeque::from([Op::Dequeue, Op::Dequeue, Op::Dequeue]),
        VecDeque::from([Op::Enqueue(10)]),
        VecDeque::from([Op::Enqueue(20)]),
        VecDeque::from([Op::Enqueue(99)]),
    ]
}

/// Re-run the PR-1 choreography step by step, recording every scheduled
/// primitive, and return (schedule, rendered history).
fn derive_lemma_a2_schedule() -> (Schedule, String) {
    let mut mem = SimMemory::new();
    let q = OptimalModel::new(HelpMode::PaperFaithful, 1, &mut mem);
    let ops_loc = q.ops_loc();
    let mut rec = Rec {
        sim: Sim::new(q, mem, 4),
        steps: Vec::new(),
    };

    // (1) V logically enqueues 10, poised before the array write-back.
    rec.sim.invoke(1, Op::Enqueue(10));
    rec.run_until(1, |a, m| {
        a.is_update() && m.kind(a.target()) == LocKind::Value
    });

    // (2) helper observes the descriptor and pushes the counter to 1.
    assert_eq!(rec.run_op(3, Op::Enqueue(99)), Ret::EnqFull);

    // (3) the element is consumed through the announcement.
    assert_eq!(rec.run_op(0, Op::Dequeue), Ret::DeqVal(10));

    // (4) Z reaches its previous-round replacement CAS and is poised.
    rec.sim.invoke(2, Op::Enqueue(20));
    rec.run_until(
        2,
        |a, _| matches!(a, Access::Cas { loc, exp, .. } if *loc == ops_loc && *exp != 0),
    );

    // (5) V completes: stale write-back, slot cleared.
    rec.run_to_completion(1);

    // (6) Z resumes into the unsound counter help.
    rec.run_to_completion(2);

    // Drain: the resurrected 10 comes back out — the double dequeue.
    let mut drains = 0;
    for _ in 0..3 {
        drains += 1;
        if rec.run_op(0, Op::Dequeue) == Ret::DeqEmpty {
            break;
        }
    }
    assert_eq!(
        drains + 1,
        lemma_a2_plan()[0].len(),
        "drain count drifted from the pinned plan"
    );
    (Schedule(rec.steps), rec.sim.history().render())
}

fn lemma_a2_model(mode: HelpMode) -> (OptimalModel, SimMemory) {
    let mut mem = SimMemory::new();
    let q = OptimalModel::new(mode, 1, &mut mem);
    (q, mem)
}

/// The derivation choreography and the pinned artifact must agree — if
/// the model's step structure changes, this fails and the constant needs
/// re-pinning (consciously).
#[test]
fn lemma_a2_schedule_is_stable() {
    let (derived, _) = derive_lemma_a2_schedule();
    assert_eq!(
        derived.to_string(),
        LEMMA_A2_SCHEDULE,
        "the Lemma A.2 choreography no longer produces the pinned schedule"
    );
}

/// Replaying the pinned schedule through the neutral runner reproduces
/// the double dequeue on the pre-fix (paper-faithful) helping variant:
/// the checker flags it.
#[test]
fn lemma_a2_pinned_schedule_flags_the_prefix_model() {
    let schedule: Schedule = LEMMA_A2_SCHEDULE.parse().unwrap();
    let (q, mem) = lemma_a2_model(HelpMode::PaperFaithful);
    let h = run_machine_schedule(q, mem, 4, &schedule, &lemma_a2_plan(), STEPS);
    assert!(
        !check_history(&h, 1).is_linearizable(),
        "the pinned schedule must exhibit the PR-1 bug on the pre-fix model:\n{}",
        h.render()
    );

    // Byte-for-byte: the neutral runner reproduces the choreography's
    // exact history from the artifact alone.
    let (_, choreography_history) = derive_lemma_a2_schedule();
    assert_eq!(h.render(), choreography_history);
}

/// The identical schedule on the shipped (evidence-based) helping
/// discipline stays linearizable — the fix holds on the exact
/// historical interleaving.
#[test]
fn lemma_a2_pinned_schedule_passes_the_shipped_model() {
    let schedule: Schedule = LEMMA_A2_SCHEDULE.parse().unwrap();
    let (q, mem) = lemma_a2_model(HelpMode::Evidence);
    let h = run_machine_schedule(q, mem, 4, &schedule, &lemma_a2_plan(), STEPS);
    assert!(
        check_history(&h, 1).is_linearizable(),
        "the shipped helping discipline regressed on the pinned PR-1 schedule:\n{}",
        h.render()
    );
}

// ---------------------------------------------------------------------------
// PR-2 regression: the bit-63 token-domain collision
// ---------------------------------------------------------------------------

/// The pre-fix pipeline packing (examples/pipeline.rs before PR-2): a
/// 16-bit checksum at bit 48 lets bit 63 escape into the token domain,
/// colliding with the DCSS descriptor mark.
fn pack_prefix(sum: u64, id: u64) -> u64 {
    (sum & 0xFFFF) << 48 | id
}

/// The shipped packing: 15 checksum bits, bit 63 always clear.
fn pack_shipped(sum: u64, id: u64) -> u64 {
    (sum & 0x7FFF) << 48 | id
}

/// The pinned producer/consumer interleaving for the token-domain
/// fixture — handy alternation, no derivation needed: what matters is
/// that enqueues and dequeues overlap.
const BIT63_SCHEDULE: &str = "sched:v1:0,0,1,0,0,1,1,0,1,0,0,1,1,1,0,1,0,1,1,0,1,1";

fn bit63_plan(pack: fn(u64, u64) -> u64) -> MachinePlan {
    // Checksums with bit 15 set are exactly the PR-2 trigger.
    let vs: Vec<u64> = (1..=3u64).map(|id| pack(0x8000 + id, id)).collect();
    vec![
        VecDeque::from([Op::Enqueue(vs[0]), Op::Enqueue(vs[1]), Op::Enqueue(vs[2])]),
        VecDeque::from([Op::Dequeue, Op::Dequeue, Op::Dequeue]),
    ]
}

/// The pre-fix packing pushes bit-63 values through the queue; the
/// token-domain invariant must flag every one of them, on both the
/// enqueue and the dequeue side.
#[test]
fn bit63_pinned_schedule_flags_the_prefix_packing() {
    let schedule: Schedule = BIT63_SCHEDULE.parse().unwrap();
    let mut mem = SimMemory::new();
    let q = bq_sim::algos::counter_queue::naive(2, &mut mem);
    let h = run_machine_schedule(q, mem, 2, &schedule, &bit63_plan(pack_prefix), STEPS);
    let violations = token_domain_violations(&h);
    assert!(
        !violations.is_empty(),
        "pre-fix packing must violate the token domain:\n{}",
        h.render()
    );
    assert!(
        violations.iter().any(|v| v.contains("enqueue")),
        "{violations:?}"
    );
}

/// The shipped packing survives the identical schedule with a clean
/// token domain and a linearizable history.
#[test]
fn bit63_pinned_schedule_passes_the_shipped_packing() {
    let schedule: Schedule = BIT63_SCHEDULE.parse().unwrap();
    let mut mem = SimMemory::new();
    let q = bq_sim::algos::counter_queue::naive(2, &mut mem);
    let h = run_machine_schedule(q, mem, 2, &schedule, &bit63_plan(pack_shipped), STEPS);
    assert_eq!(
        token_domain_violations(&h),
        Vec::<String>::new(),
        "shipped packing regressed into the token domain:\n{}",
        h.render()
    );
    assert!(check_history(&h, 2).is_linearizable());
}

/// The shipped examples still use the 15-bit packing — guard the source
/// so the 0xFFFF mask cannot quietly come back.
#[test]
fn shipped_examples_use_the_15bit_checksum_mask() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for f in ["examples/pipeline.rs", "examples/async_pipeline.rs"] {
        let src = std::fs::read_to_string(format!("{root}/{f}")).unwrap();
        assert!(
            src.contains("& 0x7FFF) << 48"),
            "{f}: shipped checksum packing changed"
        );
        assert!(
            !src.contains("& 0xFFFF) << 48"),
            "{f}: the pre-fix 16-bit checksum mask is back"
        );
    }
}

// ---------------------------------------------------------------------------
// Determinism audit: nothing on an explored or replayed path may consult
// wall clocks or ambient randomness
// ---------------------------------------------------------------------------

/// Source scan over `bq-sim`: schedules must replay bit-identically, so
/// no wall-clock reads or entropy-seeded RNGs anywhere in the crate.
#[test]
fn sim_crate_has_no_wallclock_or_ambient_randomness() {
    let src_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
    let banned = [
        "Instant::now",
        "SystemTime::now",
        "thread_rng",
        "from_entropy",
        "rand::random",
    ];
    let mut stack = vec![std::path::PathBuf::from(src_dir)];
    let mut scanned = 0;
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                for b in banned {
                    assert!(
                        !src.contains(b),
                        "{}: uses {b} — explored/replayed paths must be deterministic",
                        path.display()
                    );
                }
                scanned += 1;
            }
        }
    }
    assert!(scanned >= 10, "scan found only {scanned} source files");
}
