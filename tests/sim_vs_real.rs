//! Cross-validation: the simulator ports in `bq-sim` and the real
//! implementations in `bq-core` are *the same algorithms*; an identical
//! sequential operation script must produce identical results on both.
//!
//! This ties the adversary experiments (run against the sim ports) to the
//! shipped library: a divergence here would mean the executions the
//! lower-bound experiment certifies are about a different algorithm than
//! the one users run.

use membq::bench_registry::QueueKind;
use membq::sim::algos::{dcss, distinct, naive, two_null, Flavor};
use membq::sim::{Op, Ret, Sim, SimMemory};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum ScriptOp {
    Enq,
    Deq,
}

fn script() -> impl Strategy<Value = Vec<ScriptOp>> {
    prop::collection::vec(
        prop_oneof![Just(ScriptOp::Enq), Just(ScriptOp::Deq)],
        1..120,
    )
}

fn run_pair(flavor: Flavor, kind: QueueKind, cap: usize, ops: &[ScriptOp]) {
    let mut mem = SimMemory::new();
    let sq = match flavor {
        Flavor::Naive => naive(cap, &mut mem),
        Flavor::Distinct => distinct(cap, &mut mem),
        Flavor::Dcss => dcss(cap, &mut mem),
        Flavor::TwoNull => two_null(cap, &mut mem),
    };
    let mut sim = Sim::new(sq, mem, 1);
    let real = kind.build(cap, 1);

    let mut next = 1u64;
    for (i, op) in ops.iter().enumerate() {
        match op {
            ScriptOp::Enq => {
                let v = next;
                next += 1;
                let sim_ret = sim.run_op(0, Op::Enqueue(v), 10_000);
                let real_ok = real.enqueue(0, v);
                assert_eq!(
                    matches!(sim_ret, Ret::EnqOk),
                    real_ok,
                    "{kind:?} step {i}: enqueue outcome diverged"
                );
            }
            ScriptOp::Deq => {
                let sim_ret = sim.run_op(0, Op::Dequeue, 10_000);
                let real_got = real.dequeue(0);
                let sim_got = match sim_ret {
                    Ret::DeqVal(v) => Some(v),
                    Ret::DeqEmpty => None,
                    _ => unreachable!(),
                };
                assert_eq!(sim_got, real_got, "{kind:?} step {i}: dequeue diverged");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sim_ports_agree_with_real_implementations(ops in script(), cap in 1usize..6) {
        run_pair(Flavor::Naive, QueueKind::Naive, cap, &ops);
        run_pair(Flavor::Distinct, QueueKind::Distinct, cap, &ops);
        run_pair(Flavor::Dcss, QueueKind::Dcss, cap, &ops);
        run_pair(Flavor::TwoNull, QueueKind::TwoNull, cap, &ops);
    }
}

#[test]
fn sim_ports_agree_on_wraparound() {
    let ops: Vec<ScriptOp> = (0..60)
        .map(|i| {
            if i % 2 == 0 {
                ScriptOp::Enq
            } else {
                ScriptOp::Deq
            }
        })
        .collect();
    for cap in [1usize, 2, 3] {
        run_pair(Flavor::Naive, QueueKind::Naive, cap, &ops);
        run_pair(Flavor::Distinct, QueueKind::Distinct, cap, &ops);
        run_pair(Flavor::Dcss, QueueKind::Dcss, cap, &ops);
        run_pair(Flavor::TwoNull, QueueKind::TwoNull, cap, &ops);
    }
}
