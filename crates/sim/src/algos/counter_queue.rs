//! The shared step-machine skeleton for the counter-based queues
//! (naive / Listing 2 / Listing 4). See the module docs in [`super`].

use crate::machine::{Access, Op, OpMachine, Ret, SimQueue, Status};
use crate::mem::{Loc, LocKind, SimMemory};

/// Top bit marks versioned nulls (Listing 2), mirroring `bq_core::token`.
pub const TAG_BIT: u64 = 1 << 63;

/// `⊥_round` for Listing 2.
pub const fn versioned_null(round: u64) -> u64 {
    TAG_BIT | round
}

/// Slot-update protection flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Plain CAS, single `⊥ = 0` — the unsound constant-overhead strawman.
    Naive,
    /// Versioned nulls (Listing 2): slot cycles `⊥_r → v → ⊥_{r+1}`.
    Distinct,
    /// Two alternating nulls `⊥_{r mod 2}` — the Tsigas–Zhang scheme the
    /// paper's §4 critiques (ABA window reopens after two rounds).
    TwoNull,
    /// DCSS guarded by the positioning counter (Listing 4).
    Dcss,
}

/// A simulated counter-based bounded queue instance.
pub struct CounterQueue {
    flavor: Flavor,
    name: &'static str,
    c: usize,
    head: Loc,
    tail: Loc,
    slots: Loc,
}

impl CounterQueue {
    /// Lay out the queue in `mem`: `C` value-locations plus two metadata
    /// counters.
    pub fn new(flavor: Flavor, name: &'static str, c: usize, mem: &mut SimMemory) -> Self {
        assert!(c > 0);
        let init = match flavor {
            Flavor::Distinct | Flavor::TwoNull => versioned_null(0),
            _ => 0,
        };
        let slots = mem.alloc_array(LocKind::Value, c, init);
        let tail = mem.alloc(LocKind::Metadata, 0);
        let head = mem.alloc(LocKind::Metadata, 0);
        CounterQueue {
            flavor,
            name,
            c,
            head,
            tail,
            slots,
        }
    }
}

impl SimQueue for CounterQueue {
    fn name(&self) -> &'static str {
        self.name
    }

    fn capacity(&self) -> usize {
        self.c
    }

    fn make(&self, op: Op) -> Box<dyn OpMachine> {
        Box::new(Machine {
            flavor: self.flavor,
            c: self.c as u64,
            head: self.head,
            tail: self.tail,
            slots: self.slots,
            op,
            state: State::ReadTail,
        })
    }

    fn value_locations(&self) -> Vec<Loc> {
        (0..self.c).map(|i| Loc(self.slots.0 + i)).collect()
    }
}

/// The unsound constant-overhead strawman.
pub fn naive(c: usize, mem: &mut SimMemory) -> CounterQueue {
    CounterQueue::new(Flavor::Naive, "naive-O(1)", c, mem)
}

/// Listing 2 (distinct elements + versioned nulls).
pub fn distinct(c: usize, mem: &mut SimMemory) -> CounterQueue {
    CounterQueue::new(Flavor::Distinct, "listing2-distinct", c, mem)
}

/// Listing 4 (DCSS primitive).
pub fn dcss(c: usize, mem: &mut SimMemory) -> CounterQueue {
    CounterQueue::new(Flavor::Dcss, "listing4-dcss", c, mem)
}

/// Tsigas–Zhang two-null model (paper §4).
pub fn two_null(c: usize, mem: &mut SimMemory) -> CounterQueue {
    CounterQueue::new(Flavor::TwoNull, "tsigas-zhang-2null", c, mem)
}

#[derive(Debug, Clone, Copy)]
enum State {
    /// Read `tail` (both operations start here).
    ReadTail,
    /// Read `head`.
    ReadHead { t: u64 },
    /// Dequeue only: read the slot at `head % C`.
    ReadSlot { t: u64, h: u64 },
    /// Re-read `tail` for snapshot validation.
    Validate { t: u64, h: u64, e: u64 },
    /// Attempt the slot update.
    UpdateSlot { t: u64, h: u64, e: u64 },
    /// Help the operation counter forward.
    BumpCounter { t: u64, h: u64, e: u64, done: bool },
}

struct Machine {
    flavor: Flavor,
    c: u64,
    head: Loc,
    tail: Loc,
    slots: Loc,
    op: Op,
    state: State,
}

impl Machine {
    fn slot(&self, index: u64) -> Loc {
        Loc(self.slots.0 + (index % self.c) as usize)
    }

    /// The slot-update access for this flavor/op.
    fn update_access(&self, t: u64, h: u64, e: u64) -> Access {
        match (self.op, self.flavor) {
            (Op::Enqueue(v), Flavor::Naive) => Access::Cas {
                loc: self.slot(t),
                exp: 0,
                new: v,
            },
            (Op::Enqueue(v), Flavor::Distinct) => Access::Cas {
                loc: self.slot(t),
                exp: versioned_null(t / self.c),
                new: v,
            },
            (Op::Enqueue(v), Flavor::TwoNull) => Access::Cas {
                loc: self.slot(t),
                exp: versioned_null((t / self.c) & 1),
                new: v,
            },
            (Op::Enqueue(v), Flavor::Dcss) => Access::Dcss {
                loc1: self.slot(t),
                exp1: 0,
                new1: v,
                loc2: self.tail,
                exp2: t,
            },
            (Op::Dequeue, Flavor::Naive) => Access::Cas {
                loc: self.slot(h),
                exp: e,
                new: 0,
            },
            (Op::Dequeue, Flavor::Distinct) => Access::Cas {
                loc: self.slot(h),
                exp: e,
                new: versioned_null(h / self.c + 1),
            },
            (Op::Dequeue, Flavor::TwoNull) => Access::Cas {
                loc: self.slot(h),
                exp: e,
                new: versioned_null((h / self.c + 1) & 1),
            },
            (Op::Dequeue, Flavor::Dcss) => Access::Dcss {
                loc1: self.slot(h),
                exp1: e,
                new1: 0,
                loc2: self.head,
                exp2: h,
            },
        }
    }

    /// Does the dequeue skip its slot CAS for this observed element?
    /// (The paper's `done := e != ⊥… && CAS` short-circuit; like the real
    /// `DistinctQueue` we treat *any* versioned null as "no element", so a
    /// stale null can never be returned as a value.)
    fn deq_skips_update(&self, _h: u64, e: u64) -> bool {
        match self.flavor {
            Flavor::Naive | Flavor::Dcss => e == 0,
            Flavor::Distinct | Flavor::TwoNull => e & TAG_BIT != 0,
        }
    }

    /// Was the slot update successful, given the primitive's observation?
    fn update_succeeded(&self, observed: u64, t: u64, h: u64, e: u64) -> bool {
        match (self.op, self.flavor) {
            // CAS observation is the old value: success iff it matched.
            (Op::Enqueue(_), Flavor::Naive) => observed == 0,
            (Op::Enqueue(_), Flavor::Distinct) => observed == versioned_null(t / self.c),
            (Op::Enqueue(_), Flavor::TwoNull) => observed == versioned_null((t / self.c) & 1),
            (Op::Dequeue, Flavor::Naive | Flavor::Distinct | Flavor::TwoNull) => {
                let _ = h;
                observed == e
            }
            // DCSS observation is a success flag.
            (_, Flavor::Dcss) => observed == 1,
        }
    }
}

impl OpMachine for Machine {
    fn next_access(&self) -> Access {
        match self.state {
            State::ReadTail => Access::Read(self.tail),
            State::ReadHead { .. } => Access::Read(self.head),
            State::ReadSlot { h, .. } => Access::Read(self.slot(h)),
            State::Validate { .. } => Access::Read(self.tail),
            State::UpdateSlot { t, h, e } => self.update_access(t, h, e),
            State::BumpCounter { t, h, .. } => match self.op {
                Op::Enqueue(_) => Access::Cas {
                    loc: self.tail,
                    exp: t,
                    new: t + 1,
                },
                Op::Dequeue => Access::Cas {
                    loc: self.head,
                    exp: h,
                    new: h + 1,
                },
            },
        }
    }

    fn apply(&mut self, observed: u64) -> Status {
        match self.state {
            State::ReadTail => {
                self.state = State::ReadHead { t: observed };
                Status::Running
            }
            State::ReadHead { t } => {
                let h = observed;
                self.state = match self.op {
                    Op::Dequeue => State::ReadSlot { t, h },
                    Op::Enqueue(_) => State::Validate { t, h, e: 0 },
                };
                Status::Running
            }
            State::ReadSlot { t, h } => {
                self.state = State::Validate { t, h, e: observed };
                Status::Running
            }
            State::Validate { t, h, e } => {
                if observed != t {
                    self.state = State::ReadTail;
                    return Status::Running;
                }
                match self.op {
                    Op::Enqueue(_) => {
                        if t == h + self.c {
                            return Status::Done(Ret::EnqFull);
                        }
                        self.state = State::UpdateSlot { t, h, e };
                    }
                    Op::Dequeue => {
                        if t == h {
                            return Status::Done(Ret::DeqEmpty);
                        }
                        if self.deq_skips_update(h, e) {
                            self.state = State::BumpCounter {
                                t,
                                h,
                                e,
                                done: false,
                            };
                        } else {
                            self.state = State::UpdateSlot { t, h, e };
                        }
                    }
                }
                Status::Running
            }
            State::UpdateSlot { t, h, e } => {
                let done = self.update_succeeded(observed, t, h, e);
                self.state = State::BumpCounter { t, h, e, done };
                Status::Running
            }
            State::BumpCounter { e, done, .. } => {
                if done {
                    match self.op {
                        Op::Enqueue(_) => Status::Done(Ret::EnqOk),
                        Op::Dequeue => Status::Done(Ret::DeqVal(e)),
                    }
                } else {
                    self.state = State::ReadTail;
                    Status::Running
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Sim;
    use crate::lincheck::check_history;
    use crate::machine::Ret;

    fn sim_of(flavor: Flavor, c: usize, threads: usize) -> Sim<CounterQueue> {
        let mut mem = SimMemory::new();
        let q = match flavor {
            Flavor::Naive => naive(c, &mut mem),
            Flavor::Distinct => distinct(c, &mut mem),
            Flavor::TwoNull => two_null(c, &mut mem),
            Flavor::Dcss => dcss(c, &mut mem),
        };
        Sim::new(q, mem, threads)
    }

    #[test]
    fn all_flavors_sequential_fifo() {
        for flavor in [
            Flavor::Naive,
            Flavor::Distinct,
            Flavor::TwoNull,
            Flavor::Dcss,
        ] {
            let mut sim = sim_of(flavor, 3, 1);
            assert_eq!(sim.fill(0, &[10, 20, 30], 100), vec![Ret::EnqOk; 3]);
            assert_eq!(sim.run_op(0, Op::Enqueue(40), 100), Ret::EnqFull);
            assert_eq!(
                sim.empty(0, 4, 100),
                vec![
                    Ret::DeqVal(10),
                    Ret::DeqVal(20),
                    Ret::DeqVal(30),
                    Ret::DeqEmpty
                ],
                "flavor {flavor:?}"
            );
        }
    }

    #[test]
    fn all_flavors_wraparound() {
        for flavor in [
            Flavor::Naive,
            Flavor::Distinct,
            Flavor::TwoNull,
            Flavor::Dcss,
        ] {
            let mut sim = sim_of(flavor, 2, 1);
            for round in 0..10u64 {
                let a = 100 + round * 2;
                let b = 101 + round * 2;
                assert_eq!(sim.fill(0, &[a, b], 200), vec![Ret::EnqOk; 2]);
                assert_eq!(
                    sim.empty(0, 2, 200),
                    vec![Ret::DeqVal(a), Ret::DeqVal(b)],
                    "flavor {flavor:?} round {round}"
                );
            }
        }
    }

    #[test]
    fn interleaved_round_robin_histories_linearizable() {
        // Two threads interleaved step-by-step; the recorded history must
        // check out for the *sound* flavors under distinct values.
        for flavor in [Flavor::Distinct, Flavor::Dcss] {
            let mut sim = sim_of(flavor, 2, 2);
            for next in 1u64..=6 {
                sim.invoke(0, Op::Enqueue(next));
                sim.invoke(1, Op::Dequeue);
                // Round-robin stepping until both complete.
                let mut done0 = false;
                let mut done1 = false;
                while !done0 || !done1 {
                    if !done0 {
                        done0 = matches!(sim.step(0), crate::controller::RunOutcome::Completed(_));
                    }
                    if !done1 {
                        done1 = matches!(sim.step(1), crate::controller::RunOutcome::Completed(_));
                    }
                }
            }
            let res = check_history(sim.history(), 2);
            assert!(
                res.is_linearizable(),
                "flavor {flavor:?} produced a non-linearizable history:\n{}",
                sim.history().render()
            );
        }
    }

    #[test]
    fn value_location_census() {
        // E8's location counting: all three layouts use exactly C
        // value-locations and 2 metadata counters in the simulator (the
        // real Listing 4 additionally spends Θ(T) descriptor metadata,
        // measured in bq-dcss).
        let mut mem = SimMemory::new();
        let q = distinct(8, &mut mem);
        assert_eq!(q.value_locations().len(), 8);
        assert_eq!(mem.value_location_count(), 8);
        assert_eq!(mem.metadata_location_count(), 2);
    }

    #[test]
    fn distinct_nulls_advance_per_round() {
        let mut sim = sim_of(Flavor::Distinct, 2, 1);
        sim.fill(0, &[1, 2], 100);
        sim.empty(0, 2, 100);
        let slot0 = sim.queue.value_locations()[0];
        assert_eq!(sim.mem.peek(slot0), versioned_null(1));
    }
}
