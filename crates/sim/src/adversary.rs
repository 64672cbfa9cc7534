//! The lower-bound adversary (E4 / E8) and Theorem 3.12's Step 1, played
//! on the shipped queues.
//!
//! Theorem 3.12 of the paper says a linearizable, obstruction-free,
//! value-independent bounded queue over read/write/CAS needs Ω(T) extra
//! value-locations. The proof poises processes just before CASes on
//! value-locations (Definition 3.5) and replays fill/empty procedures
//! (Definition 3.6) so that one poised CAS lands in the middle of the
//! queue (Figure 3).
//!
//! A [`Construction`] is one such choreography, told to the explorer's
//! chooser ([`tell`]): a shipped `bq-core` queue, one operation plan per
//! thread, and a list of phases — run this thread until it has returned
//! so many operations, until it is poised before an access the phase
//! names, or until it finishes. The schedule the run takes is a
//! `sched:v1:` artifact that [`replay`](crate::explore::replay) re-runs
//! byte for byte.
//!
//! The constructions: Figure 3's [`middle_steal`] and [`enqueue_hole`],
//! the §4 [`two_round_sleep`], Lemma 3.7's [`solo_with_poised_victim`],
//! the Lemma A.2 interleaving of DESIGN.md §7 ([`lemma_a2`]) and
//! Theorem 3.12's [`step1`], whose [`CatchReport`] is the census.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use bq_baselines::TwoNullQueue;
use bq_core::{
    ConcurrentQueue, CounterQueue, DcssQueue, DistinctQueue, FootprintBreakdown, HelpMode,
    MemoryFootprint, NaiveQueue, OptimalQueue, SlotRule,
};
use simyield::{Access, Kind};

use crate::explore::{tell, Choice, Ctx, RunResult, RunSpec, ThreadStatus, ThreadView};
use crate::lincheck::{check_history, History, HistoryEvent, LinResult, Op, Ret};

/// A shipped queue of the counter family (`bq_core::counter`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// `NaiveQueue`: the Θ(1) strawman, one unversioned `⊥`.
    Naive,
    /// `DistinctQueue`: Listing 2, a versioned `⊥` per round.
    Distinct,
    /// `TwoNullQueue`: the Tsigas–Zhang model, `⊥_{r mod 2}`.
    TwoNull,
    /// `DcssQueue`: Listing 4, slot updates guarded by the counter.
    Dcss,
}

impl Algo {
    /// The four, in report order.
    pub const ALL: [Algo; 4] = [Algo::Naive, Algo::Distinct, Algo::TwoNull, Algo::Dcss];
}

/// The queue a construction runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// A counter-family queue.
    Counter(Algo),
    /// `OptimalQueue` (Listing 5) with the given counter-helping rule.
    Optimal(HelpMode),
}

impl Subject {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Subject::Counter(Algo::Naive) => "naive-O(1)",
            Subject::Counter(Algo::Distinct) => "listing2-distinct",
            Subject::Counter(Algo::TwoNull) => "tsigas-zhang-2null",
            Subject::Counter(Algo::Dcss) => "listing4-dcss",
            Subject::Optimal(HelpMode::PaperFaithful) => "listing5 (paper-faithful help)",
            Subject::Optimal(HelpMode::Evidence) => "listing5 (evidence help)",
        }
    }
}

/// How long a phase runs its thread. Every phase also ends when the
/// thread finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Until {
    /// Until it has returned this many operations in all.
    Returned(usize),
    /// Until its next access updates a value-location (Definition 3.5).
    PoisedOnValue,
    /// Until its next access is a CAS from a vacant word on a
    /// value-location no earlier phase is poised on (Step 1).
    PoisedOnFreshCell,
    /// Until its next access is a CAS that replaces a descriptor in an
    /// announcement slot (`OptimalQueue`).
    PoisedOnReplacement,
    /// Until its body returns.
    Finished,
}

impl Until {
    /// Is a thread announcing `a` poised where this phase stops it?
    /// `cells` and `slots` are the queue's value-locations and announcement
    /// slots, `earlier` the ends of the phases before this one.
    fn poised_at(self, a: &Access, cells: &[usize], slots: &[usize], earlier: &[PhaseEnd]) -> bool {
        let cas = a.kind == Kind::Cas;
        match self {
            Until::PoisedOnValue => a.kind != Kind::Load && cells.contains(&a.loc),
            Until::PoisedOnFreshCell => {
                let vacant = a.operand == 0 || a.operand >> 63 == 1;
                let covered = (earlier.iter()).any(|e| e.poised.is_some_and(|p| p.loc == a.loc));
                cas && cells.contains(&a.loc) && vacant && !covered
            }
            Until::PoisedOnReplacement => cas && slots.contains(&a.loc) && a.operand != 0,
            Until::Returned(_) | Until::Finished => false,
        }
    }
}

/// A told execution on a shipped queue.
#[derive(Debug, Clone)]
pub struct Construction {
    /// Scenario name.
    pub scenario: &'static str,
    /// The queue.
    pub subject: Subject,
    /// Its capacity `C`.
    pub capacity: usize,
    /// Thread `t` performs `plans[t]` in order.
    pub plans: Vec<Vec<Op>>,
    /// After its plan, thread 0 dequeues until the queue reads empty.
    pub drain: bool,
    /// `(thread, until)`, run in order; when they run out the run stops.
    pub phases: Vec<(usize, Until)>,
}

/// What a phase ended on.
#[derive(Debug, Clone, Copy)]
pub struct PhaseEnd {
    /// The access its thread is poised before, for a poise that hit.
    pub poised: Option<Access>,
    /// History events recorded when it ended.
    pub events: usize,
}

/// One told run of a [`Construction`].
#[derive(Debug)]
pub struct Told {
    /// Outcome, schedule artifact and history.
    pub run: RunResult,
    /// One entry per phase that ended, in order.
    pub ends: Vec<PhaseEnd>,
    /// The queue's `footprint()`.
    pub footprint: FootprintBreakdown,
    /// Addresses of its value-locations, in slot order.
    pub cells: Vec<usize>,
}

struct World {
    spec: RunSpec,
    footprint: FootprintBreakdown,
    cells: Vec<usize>,
    slots: Vec<usize>,
}

fn world<Q>(cells: Vec<usize>, slots: Vec<usize>, q: Q, c: &Construction) -> World
where
    Q: ConcurrentQueue + MemoryFootprint + Send + Sync + 'static,
    Q::Handle: Send + 'static,
{
    let footprint = q.footprint();
    let q = Arc::new(q);
    let bodies = c
        .plans
        .iter()
        .enumerate()
        .map(|(t, plan)| {
            let (q, plan, drain) = (Arc::clone(&q), plan.clone(), c.drain && t == 0);
            let mut h = q.register();
            Box::new(move |ctx: &mut Ctx| {
                let mut run = |op| {
                    ctx.pause(); // a phase may end between two operations
                    let id = ctx.invoke(op);
                    let ret = match op {
                        Op::Enqueue(v) => match q.enqueue(&mut h, v) {
                            Ok(()) => Ret::EnqOk,
                            Err(_) => Ret::EnqFull,
                        },
                        Op::Dequeue => q.dequeue(&mut h).map_or(Ret::DeqEmpty, Ret::DeqVal),
                    };
                    ctx.ret(id, ret);
                    ret
                };
                for op in plan {
                    run(op);
                }
                while drain && run(Op::Dequeue) != Ret::DeqEmpty {}
            }) as Box<dyn FnOnce(&mut Ctx) + Send>
        })
        .collect();
    let check = Box::new(|_: &History| Ok(()));
    World {
        spec: RunSpec { bodies, check },
        footprint,
        cells,
        slots,
    }
}

/// A counter-family queue's world: its value-locations are its slots.
fn counter<R: SlotRule + 'static>(q: CounterQueue<R>, c: &Construction) -> World {
    world(q.value_cells(), vec![], q, c)
}

/// The results of thread `tid`'s operations that have returned, in order.
pub fn returns(h: &History, tid: usize) -> Vec<Ret> {
    let mut mine = HashSet::new();
    let mut out = Vec::new();
    for e in h.events() {
        match *e {
            HistoryEvent::Invoke { id, tid: t, .. } if t == tid => drop(mine.insert(id)),
            HistoryEvent::Return { id, ret } if mine.contains(&id) => out.push(ret),
            _ => {}
        }
    }
    out
}

impl Construction {
    fn world(&self) -> World {
        let (c, t) = (self.capacity, self.plans.len());
        match self.subject {
            Subject::Counter(Algo::Naive) => counter(NaiveQueue::with_capacity(c), self),
            Subject::Counter(Algo::Distinct) => counter(DistinctQueue::with_capacity(c), self),
            Subject::Counter(Algo::TwoNull) => counter(TwoNullQueue::with_capacity(c), self),
            Subject::Counter(Algo::Dcss) => {
                counter(DcssQueue::with_capacity_and_threads(c, t), self)
            }
            Subject::Optimal(mode) => {
                let q = OptimalQueue::with_capacity_and_threads(c, t).with_help_mode(mode);
                let (cells, slots) = q.value_cells_and_slots();
                world(cells, slots, q, self)
            }
        }
    }

    /// Tell the explorer this construction's schedule.
    pub fn run(&self) -> Told {
        let World {
            spec,
            footprint,
            cells,
            slots,
        } = self.world();
        let ends = Arc::new(Mutex::new(Vec::new()));
        let (phases, log, known) = (self.phases.clone(), Arc::clone(&ends), cells.clone());
        let mut at = 0;
        let chooser = move |threads: &[ThreadView], h: &History| loop {
            let Some(&(tid, until)) = phases.get(at) else {
                return Choice::Stop;
            };
            let mut log = log.lock().expect("only the chooser writes the log");
            let poised = threads[tid]
                .next
                .filter(|a| until.poised_at(a, &known, &slots, &log));
            let ended = poised.is_some()
                || threads[tid].status == ThreadStatus::Finished
                || matches!(until, Until::Returned(n) if returns(h, tid).len() >= n);
            if !ended {
                return Choice::Grant(tid);
            }
            log.push(PhaseEnd {
                poised,
                events: h.events().len(),
            });
            at += 1;
        };
        let run = tell(spec, chooser);
        let ends = std::mem::take(&mut *ends.lock().expect("the run is over"));
        Told {
            run,
            ends,
            footprint,
            cells,
        }
    }

    /// Run it and check the history against the FIFO specification.
    ///
    /// # Panics
    /// If a victim finished instead of reaching its poise point.
    pub fn report(&self) -> AdversaryReport {
        let told = self.run();
        for ((tid, until), end) in self.phases.iter().zip(&told.ends) {
            let poise = !matches!(until, Until::Returned(_) | Until::Finished);
            assert!(
                !poise || end.poised.is_some(),
                "{}: T{tid} finished before reaching its poise point",
                self.scenario
            );
        }
        let history = told.run.history;
        AdversaryReport {
            algorithm: self.subject.name(),
            scenario: self.scenario,
            verdict: check_history(&history, self.capacity),
            value_locations: told.footprint.element_bytes / 8,
            metadata_locations: told.footprint.overhead_bytes() / 8,
            schedule: told.run.schedule.to_string(),
            history,
        }
    }
}

/// Outcome of one adversary run against one queue.
#[derive(Debug, Clone)]
pub struct AdversaryReport {
    /// Queue name.
    pub algorithm: &'static str,
    /// Scenario name.
    pub scenario: &'static str,
    /// The recorded concurrent history.
    pub history: History,
    /// Checker verdict.
    pub verdict: LinResult,
    /// Value-locations, from `footprint()`: the element bytes in words.
    pub value_locations: usize,
    /// Metadata-locations, from `footprint()`: the overhead bytes in words.
    pub metadata_locations: usize,
    /// The told schedule, as a replayable `sched:v1:` artifact.
    pub schedule: String,
}

impl AdversaryReport {
    /// `true` iff the recorded execution is linearizable.
    pub fn linearizable(&self) -> bool {
        self.verdict.is_linearizable()
    }

    /// Render a human-readable report block.
    pub fn render(&self) -> String {
        format!(
            "algorithm: {}\nscenario:  {}\nvalue-locations: {} | metadata-locations: {}\n\
             schedule: {}\nhistory:\n{}verdict: {}\n",
            self.algorithm,
            self.scenario,
            self.value_locations,
            self.metadata_locations,
            self.schedule,
            self.history.render(),
            if self.linearizable() {
                "LINEARIZABLE"
            } else {
                "NOT LINEARIZABLE"
            }
        )
    }
}

use Op::{Dequeue as D, Enqueue as E};
use Until::{Finished, PoisedOnValue, Returned};

/// The **middle-steal** construction (Figure 3, dequeue side), `C = 4`:
/// T1's dequeue is poised on `CAS(a[1], 7, ⊥)`; T0 consumes the 7 and
/// refills so that slot 1 again holds a 7 — now the *newest* element,
/// behind 11, 12, 13 — and the poised CAS is released.
pub fn middle_steal(algo: Algo) -> Construction {
    Construction {
        scenario: "middle-steal (poised dequeue CAS, repeated value)",
        subject: Subject::Counter(algo),
        capacity: 4,
        plans: vec![vec![E(1), E(7), D, D, E(11), E(12), E(13), E(7)], vec![D]],
        drain: true,
        phases: vec![
            (0, Returned(3)),
            (1, PoisedOnValue),
            (0, Returned(8)),
            (1, Finished),
            (0, Finished),
        ],
    }
}

/// The **enqueue-into-hole** construction (Figure 3, enqueue side),
/// `C = 4`: T1's `enq(99)` is poised on `CAS(a[2], ⊥, 99)`; a round later
/// slot 2 is a mid-queue hole, and the released CAS plants 99 there.
pub fn enqueue_hole(algo: Algo) -> Construction {
    Construction {
        scenario: "enqueue-into-hole (poised enqueue CAS into interior ⊥)",
        subject: Subject::Counter(algo),
        capacity: 4,
        plans: vec![
            vec![E(1), E(2), E(3), E(4), D, D, D, E(5), E(6)],
            vec![E(99)],
        ],
        drain: true,
        phases: vec![
            (0, Returned(2)),
            (1, PoisedOnValue),
            (0, Returned(9)),
            (1, Finished),
            (0, Finished),
        ],
    }
}

/// The **two-round sleep** construction, `C = 2`: T1's `enq(99)` is
/// poised on `CAS(a[0], ⊥₀, 99)` on the empty queue, T0 runs two complete
/// fill/empty rounds, and the poised CAS is released. Listing 2's
/// unbounded versions close exactly this window.
pub fn two_round_sleep(algo: Algo) -> Construction {
    Construction {
        scenario: "two-round sleep (poised enqueue across two null cycles)",
        subject: Subject::Counter(algo),
        capacity: 2,
        plans: vec![vec![E(1), E(2), D, D, E(3), E(4), D, D], vec![E(99)]],
        drain: true,
        phases: vec![
            (1, PoisedOnValue),
            (0, Returned(8)),
            (1, Finished),
            (0, Finished),
        ],
    }
}

/// The **Lemma A.2 interleaving** (DESIGN.md §7) on `OptimalQueue`,
/// `C = 1`, four threads:
///
/// 1. V (T1) decides its `enq(10)` successful and is poised before the
///    write-back of `a[0]` in `complete_op`;
/// 2. a helper's `enq(99)` (T3) sees V's descriptor, helps the counter to
///    1 and reports full;
/// 3. T0's dequeue returns 10 *through the announcement*;
/// 4. Z's `enq(20)` (T2) finds V's previous-round descriptor and is
///    poised on its replacement CAS;
/// 5. V completes: write-back, failed counter CAS, slot cleared;
/// 6. Z's replacement CAS fails. Under [`HelpMode::PaperFaithful`] Z helps
///    the counter to 2 anyway, with no successful descriptor for position
///    1, and reports full; T0's drain then reads the written-back 10 — a
///    double dequeue. Under [`HelpMode::Evidence`] Z finds no evidence,
///    retries and enqueues 20.
pub fn lemma_a2(mode: HelpMode) -> Construction {
    Construction {
        scenario: "Lemma A.2 interleaving (counter help without a descriptor)",
        subject: Subject::Optimal(mode),
        capacity: 1,
        plans: vec![vec![D], vec![E(10)], vec![E(20)], vec![E(99)]],
        drain: true,
        phases: vec![
            (1, PoisedOnValue),
            (3, Finished),
            (0, Returned(1)),
            (2, Until::PoisedOnReplacement),
            (1, Finished),
            (2, Finished),
            (0, Finished),
        ],
    }
}

/// Lemma 3.7 in miniature, `C = 4`: with T1's `enq(1000)` poised on a
/// value-location CAS, T0 enqueues 21–24 and dequeues four times, solo;
/// then T1 is released.
pub fn solo_with_poised_victim(algo: Algo) -> Construction {
    Construction {
        scenario: "solo fill/empty beside a poised victim (Lemma 3.7)",
        subject: Subject::Counter(algo),
        capacity: 4,
        plans: vec![vec![E(21), E(22), E(23), E(24), D, D, D, D], vec![E(1000)]],
        drain: false,
        phases: vec![(1, PoisedOnValue), (0, Finished), (1, Finished)],
    }
}

/// Theorem 3.12's **Step 1** on a queue of capacity `c`: threads
/// `1..=catchers` in turn enqueue up to `c` fresh values each, until
/// poised before a CAS from `⊥` on a value-location no earlier catcher
/// covers. Thread 0 — the proof's free process — then runs `free`, and
/// the catchers are released.
pub fn step1(algo: Algo, c: usize, catchers: usize, free: Vec<Op>) -> Construction {
    let fresh = |t: usize| -> Vec<Op> { (1..=c as u64).map(|k| E(1000 * t as u64 + k)).collect() };
    let mut phases: Vec<_> = (1..=catchers)
        .map(|t| (t, Until::PoisedOnFreshCell))
        .collect();
    phases.extend((0..=catchers).map(|t| (t, Finished)));
    Construction {
        scenario: "Theorem 3.12 Step 1 (catching census)",
        subject: Subject::Counter(algo),
        capacity: c,
        plans: std::iter::once(free)
            .chain((1..=catchers).map(fresh))
            .collect(),
        drain: false,
        phases,
    }
}

/// The Step 1 census of a [`step1`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatchReport {
    /// Processes the procedure tried to catch.
    pub attempted: usize,
    /// Processes poised before a fresh value-location CAS.
    pub caught: usize,
    /// The distinct value-locations (slot indices) they cover.
    pub covered: Vec<usize>,
    /// Enqueues the catchers completed before the census ended: the
    /// proof's partial fills.
    pub completed_enqueues: usize,
}

impl CatchReport {
    /// Was everyone caught, each on a distinct location, as Step 1
    /// requires?
    pub fn step1_holds(&self) -> bool {
        self.caught == self.attempted && self.covered.len() == self.caught
    }
}

impl Told {
    /// The census of a [`step1`] run with `catchers` catchers.
    pub fn census(&self, catchers: usize) -> CatchReport {
        let ends = &self.ends[..catchers];
        let mut covered: Vec<usize> = (ends.iter().filter_map(|e| e.poised))
            .map(|a| {
                self.cells
                    .iter()
                    .position(|&c| c == a.loc)
                    .expect("a value cell")
            })
            .collect();
        covered.sort_unstable();
        covered.dedup();
        let h = &self.run.history.events()[..ends.last().map_or(0, |e| e.events)];
        let catcher_enq: HashSet<_> = (h.iter())
            .filter_map(|e| match *e {
                HistoryEvent::Invoke {
                    id,
                    tid,
                    op: Op::Enqueue(_),
                } if tid > 0 => Some(id),
                _ => None,
            })
            .collect();
        let completed_enqueues = (h.iter())
            .filter(|e| matches!(e, HistoryEvent::Return { id, .. } if catcher_enq.contains(id)))
            .count();
        CatchReport {
            attempted: catchers,
            caught: ends.iter().filter(|e| e.poised.is_some()).count(),
            covered,
            completed_enqueues,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{replay, RunOutcomeKind};

    fn lin(c: Construction) -> bool {
        let r = c.report();
        eprintln!("{}", r.render());
        r.linearizable()
    }

    #[test]
    fn middle_steal_breaks_the_strawman() {
        assert!(!lin(middle_steal(Algo::Naive)));
    }

    #[test]
    fn middle_steal_breaks_listing2_under_duplicates() {
        // E4: Listing 2 is correct only for distinct elements; the
        // adversary reuses value 7 and the Figure 3 violation appears.
        assert!(!lin(middle_steal(Algo::Distinct)));
        assert!(!lin(middle_steal(Algo::TwoNull)));
    }

    #[test]
    fn middle_steal_harmless_for_dcss() {
        // The poised DCSS fails its counter comparison.
        assert!(lin(middle_steal(Algo::Dcss)));
    }

    #[test]
    fn enqueue_hole_breaks_the_strawman() {
        assert!(!lin(enqueue_hole(Algo::Naive)));
    }

    #[test]
    fn enqueue_hole_harmless_for_listing2_and_dcss() {
        // The versioned null defeats the stale enqueue CAS (its expected
        // ⊥₀ is gone); the DCSS counter guard does the same.
        for algo in [Algo::Distinct, Algo::TwoNull, Algo::Dcss] {
            assert!(lin(enqueue_hole(algo)), "{algo:?}");
        }
    }

    #[test]
    fn two_round_sleep_breaks_tsigas_zhang_and_naive() {
        // The paper §4: "if one process becomes asleep for two rounds …
        // waking up it can incorrectly place the element into the queue."
        assert!(!lin(two_round_sleep(Algo::TwoNull)));
        assert!(!lin(two_round_sleep(Algo::Naive)));
    }

    #[test]
    fn two_round_sleep_harmless_with_unbounded_versions_or_dcss() {
        for algo in [Algo::Distinct, Algo::Dcss] {
            assert!(lin(two_round_sleep(algo)), "{algo:?}");
        }
    }

    #[test]
    fn lemma_a2_paper_faithful_help_is_unsound() {
        // DESIGN.md §7: the paper's unconditional line-40 help admits a
        // double dequeue on the shipped layout.
        let r = lemma_a2(HelpMode::PaperFaithful).report();
        assert!(!r.linearizable(), "{}", r.render());
        let tens = (r.history.events().iter())
            .filter(|e| {
                matches!(
                    e,
                    HistoryEvent::Return {
                        ret: Ret::DeqVal(10),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(tens, 2, "10 leaves twice:\n{}", r.render());
    }

    #[test]
    fn lemma_a2_evidence_help_is_sound() {
        assert!(lin(lemma_a2(HelpMode::Evidence)));
    }

    #[test]
    fn poised_victims_do_not_block_others() {
        for algo in Algo::ALL {
            let told = solo_with_poised_victim(algo).run();
            assert_eq!(told.run.outcome, RunOutcomeKind::Completed);
            let mut want = vec![Ret::EnqOk; 4];
            want.extend([21, 22, 23, 24].map(Ret::DeqVal));
            assert_eq!(returns(&told.run.history, 0), want, "{algo:?}");
        }
    }

    #[test]
    fn report_renders() {
        let s = middle_steal(Algo::Naive).report().render();
        assert!(s.contains("NOT LINEARIZABLE"));
        assert!(s.contains("value-locations: 4"));
        assert!(s.contains("enq(11)"));
        assert!(s.contains("schedule: sched:v1:"));
    }

    #[test]
    fn step1_holds_when_c_exceeds_catchers_and_fails_below() {
        // The theorem's hypothesis T/2 < C: with C = 32 and 6 catchers,
        // everyone is poised on a cell of their own; each catcher after the
        // first passes exactly one covered cell (the tail front, whose
        // poised owner has not fired) first — 5 completed enqueues.
        for algo in Algo::ALL {
            let r = step1(algo, 32, 6, vec![]).run().census(6);
            assert!(r.step1_holds(), "{algo:?}: {r:?}");
            assert_eq!(r.completed_enqueues, 5, "{algo:?}");
            // With C = 4 later catchers run out of uncovered cells.
            let r = step1(algo, 4, 6, vec![]).run().census(6);
            assert!(!r.step1_holds(), "{algo:?}: {r:?}");
            assert_eq!(r.covered, vec![0, 1, 2, 3], "{algo:?}: only C cells");
        }
    }

    #[test]
    fn queue_still_serves_the_free_thread() {
        // Obstruction-freedom around the whole census (Lemma 3.7 again):
        // thread 0 fills and empties five after six catchers are poised.
        let mut free: Vec<Op> = (1..=5).map(E).collect();
        free.extend([D; 5]);
        let told = step1(Algo::Dcss, 32, 6, free).run();
        assert!(told.census(6).step1_holds());
        let t0 = returns(&told.run.history, 0);
        assert_eq!(t0[..5], [Ret::EnqOk; 5]);
        // The catchers' partial fills sit in front of ours: any 5 values.
        assert!(
            t0[5..].iter().all(|r| matches!(r, Ret::DeqVal(_))),
            "{t0:?}"
        );
    }

    /// Every construction's `sched:v1:` artifact replays to its history,
    /// byte for byte.
    #[test]
    fn every_told_schedule_replays_byte_for_byte() {
        let mut all: Vec<Construction> = vec![
            lemma_a2(HelpMode::PaperFaithful),
            lemma_a2(HelpMode::Evidence),
        ];
        for algo in Algo::ALL {
            all.extend([
                middle_steal(algo),
                enqueue_hole(algo),
                two_round_sleep(algo),
            ]);
            all.extend([
                solo_with_poised_victim(algo),
                step1(algo, 32, 6, vec![]),
                step1(algo, 4, 6, vec![]),
            ]);
        }
        for c in &all {
            let told = c.run();
            assert_eq!(
                told.run.outcome,
                RunOutcomeKind::Completed,
                "{}",
                c.scenario
            );
            let text = told.run.schedule.to_string();
            assert!(text.starts_with("sched:v1:"));
            let again = replay(&told.run.schedule, c.world().spec);
            assert_eq!(
                again.schedule, told.run.schedule,
                "{:?} {}",
                c.subject, c.scenario
            );
            assert_eq!(again.history.render(), told.run.history.render(), "{text}");
        }
    }
}
