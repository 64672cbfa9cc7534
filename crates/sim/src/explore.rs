//! The **schedule explorer** (DESIGN.md §11): bounded enumeration of
//! thread interleavings with replayable failure artifacts.
//!
//! Two layers live here:
//!
//! * **Unconditional** (always compiled): the serializable [`Schedule`]
//!   artifact, the token-domain invariant
//!   ([`token_domain_violations`]), and a deterministic
//!   [`run_machine_schedule`] runner that drives the step-machine models
//!   (`Sim`) from a pinned `Schedule` — this is what the regression
//!   fixtures in `tests/regressions.rs` replay in tier-1 runs.
//! * **Feature `explore`**: the loom/CHESS-style engine that runs the
//!   *real* `bq-core` algorithms on cooperative OS threads, enumerating
//!   interleavings by iterative preemption bounding with state-hash
//!   pruning. Every shared access in `bq-core` (under its `sim-explore`
//!   feature) calls back through the `simyield` seam, which is where the
//!   engine suspends and resumes threads.
//!
//! ## The schedule artifact
//!
//! A [`Schedule`] is the full choice list of an execution: entry `k` is
//! the thread granted the `k`-th scheduling point. Any failing execution
//! prints its schedule; feeding the same string back (via
//! [`Schedule::from_str`](std::str::FromStr) + `replay`) re-runs that
//! exact interleaving and must reproduce the same history byte for byte
//! — asserted by the replay-determinism test.
//!
//! ## Bounds and honesty
//!
//! The engine explores *sequentially consistent* interleavings only: it
//! cannot reorder the effects of a single thread the way real weak
//! memory can. The `bq-core` sites that ship weaker orderings
//! (`RelocRing::claim`/`resolve`, the byte ring) are therefore checked
//! under a stronger model than the one they run under, and `spsc.rs` is
//! not instrumented at all; DESIGN.md §11.4 lists them. Preemption bounding
//! (Musuvathi & Qadeer's iterative context bounding) is exhaustive *up
//! to the bound*; state-hash pruning and the conflict filter are
//! heuristics on top — hash collisions can in principle drop distinct
//! states, and independent-access commutation with the default policy
//! tail is not a full DPOR proof. Both are always on; `Report` counts
//! what each skipped. Spin loops of lock-free (not wait-free) operations
//! are cut by a large grant slice: a forced round-robin switch that
//! keeps enumeration finite and is *not* charged to the preemption
//! budget (reported per execution instead).

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use crate::controller::Sim;
use crate::lincheck::History;
use crate::machine::{Op, SimQueue};

// ---------------------------------------------------------------------------
// Schedule — the replayable artifact
// ---------------------------------------------------------------------------

/// A serialized interleaving: the thread id chosen at every scheduling
/// point, in order. `Display` renders the replay artifact; `FromStr`
/// parses it back.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule(pub Vec<usize>);

/// Version tag of the artifact text format.
const SCHED_TAG: &str = "sched:v1:";

impl Schedule {
    /// Empty schedule (pure default-policy execution).
    pub fn new() -> Self {
        Schedule(Vec::new())
    }

    /// Number of pinned choices.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff no choices are pinned.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{SCHED_TAG}")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let body = s
            .trim()
            .strip_prefix(SCHED_TAG)
            .ok_or_else(|| format!("schedule artifact must start with {SCHED_TAG:?}"))?;
        if body.is_empty() {
            return Ok(Schedule::new());
        }
        body.split(',')
            .map(|t| t.trim().parse::<usize>().map_err(|e| format!("{t:?}: {e}")))
            .collect::<Result<Vec<_>, _>>()
            .map(Schedule)
    }
}

// ---------------------------------------------------------------------------
// Token-domain invariant (the PR-2 bit-63 class)
// ---------------------------------------------------------------------------

/// Check every value flowing through a history against the queue token
/// domain (non-zero 63-bit words, `bq_core::token`): returns one
/// description per violation. This is the invariant the PR-2 bit-63
/// collision broke — a 16-bit checksum field packed at bit 48 could set
/// bit 63, colliding with the DCSS descriptor mark and escaping the
/// token domain.
pub fn token_domain_violations(h: &History) -> Vec<String> {
    use crate::lincheck::HistoryEvent;
    use crate::machine::Ret;
    let ok = |v: u64| v != 0 && v < (1u64 << 63);
    let mut out = Vec::new();
    for e in h.events() {
        match e {
            HistoryEvent::Invoke {
                id,
                op: Op::Enqueue(v),
                ..
            } if !ok(*v) => {
                out.push(format!(
                    "op #{}: enqueue value {v:#x} outside 1..2^63",
                    id.0
                ));
            }
            HistoryEvent::Return {
                id,
                ret: Ret::DeqVal(v),
            } if !ok(*v) => {
                out.push(format!(
                    "op #{}: dequeued value {v:#x} outside 1..2^63",
                    id.0
                ));
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Machine-level schedule runner (unconditional; used by regressions)
// ---------------------------------------------------------------------------

/// Per-thread operation plan for [`run_machine_schedule`]: thread `t`
/// performs `plan[t]` in order, invoking the next operation lazily at its
/// first scheduled step after going idle.
pub type MachinePlan = Vec<VecDeque<Op>>;

/// Drive a step-machine simulation from a pinned [`Schedule`].
///
/// Entry `k` of the schedule executes one primitive of that thread,
/// invoking its next planned operation first if it is idle. Schedule
/// entries for threads that are idle with an exhausted plan are skipped.
/// After the schedule is consumed, every thread is run to completion in
/// thread-id order (the deterministic completion tail), so the returned
/// history is complete. Panics if a thread fails to finish within
/// `max_tail_steps` — machine models are obstruction-free, so that marks
/// a progress bug, not a long schedule.
pub fn run_machine_schedule<Q: SimQueue>(
    queue: Q,
    mem: crate::mem::SimMemory,
    threads: usize,
    schedule: &Schedule,
    plan: &MachinePlan,
    max_tail_steps: usize,
) -> History {
    assert_eq!(plan.len(), threads, "one op list per thread");
    let mut sim = Sim::new(queue, mem, threads);
    let mut plan: MachinePlan = plan.clone();
    for &tid in &schedule.0 {
        assert!(tid < threads, "schedule names thread {tid} of {threads}");
        if !sim.is_busy(tid) {
            match plan[tid].pop_front() {
                Some(op) => {
                    sim.invoke(tid, op);
                }
                None => continue, // plan exhausted: nothing to step
            }
        }
        sim.step(tid);
    }
    // Deterministic completion tail.
    for (tid, ops) in plan.iter_mut().enumerate() {
        loop {
            if sim.is_busy(tid) {
                sim.run_to_completion(tid, max_tail_steps);
            }
            match ops.pop_front() {
                Some(op) => {
                    sim.invoke(tid, op);
                }
                None => break,
            }
        }
    }
    sim.history().clone()
}

// ---------------------------------------------------------------------------
// The real-code exploration engine (feature `explore`)
// ---------------------------------------------------------------------------

#[cfg(feature = "explore")]
pub use engine::{
    explore, replay, Ctx, ExploreConfig, Failure, Recorder, Report, RunOutcomeKind, RunResult,
    RunSpec,
};

#[cfg(feature = "explore")]
mod engine {
    use super::Schedule;
    use crate::controller::OpId;
    use crate::lincheck::{History, HistoryEvent};
    use crate::machine::{Op, Ret};
    use std::collections::{HashMap, HashSet};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::rc::Rc;
    use std::sync::mpsc;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

    /// The one exploration bound callers choose.
    #[derive(Debug, Clone)]
    pub struct ExploreConfig {
        /// Maximum number of *preemptions* per execution (switching away
        /// from a thread that could have continued). Forced switches —
        /// the previous thread blocked or finished — are free, as in
        /// iterative context bounding.
        pub preemption_bound: usize,
    }

    impl Default for ExploreConfig {
        fn default() -> Self {
            ExploreConfig {
                preemption_bound: 2,
            }
        }
    }

    /// Maximum scheduling points per execution; beyond it the execution
    /// is truncated (counted in [`Report::truncated`], never checked).
    const DEPTH_BOUND: usize = 5_000;
    /// Forced round-robin switch after this many consecutive steps of one
    /// thread under the default policy (spin-loop cutter; free of budget,
    /// counted in [`Report::sliced`]).
    const GRANT_SLICE: usize = 300;
    /// Hard cap on executions ([`Report::hit_execution_cap`] says whether
    /// it stopped the sweep).
    const MAX_EXECUTIONS: u64 = 1_000_000;

    /// Records the concurrent history of one explored execution. Bodies
    /// log invocations/returns through [`Ctx`]; the oracle reads the
    /// result. Event order is schedule-deterministic because a body only
    /// runs between its grant and its next yield point.
    #[derive(Clone, Default)]
    pub struct Recorder(Arc<Mutex<RecInner>>);

    #[derive(Default)]
    struct RecInner {
        hist: History,
        next: usize,
    }

    impl Recorder {
        fn lock(&self) -> MutexGuard<'_, RecInner> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Snapshot the recorded history.
        pub fn history(&self) -> History {
            self.lock().hist.clone()
        }
    }

    /// Per-thread context handed to an explored body.
    pub struct Ctx {
        /// This body's thread id (index into the schedule's choices).
        pub tid: usize,
        rec: Recorder,
    }

    impl Ctx {
        /// Record an operation invocation.
        pub fn invoke(&mut self, op: Op) -> OpId {
            let mut r = self.rec.lock();
            let id = OpId(r.next);
            r.next += 1;
            let tid = self.tid;
            r.hist.push(HistoryEvent::Invoke { id, tid, op });
            id
        }

        /// Record an operation response.
        pub fn ret(&mut self, id: OpId, ret: Ret) {
            self.rec.lock().hist.push(HistoryEvent::Return { id, ret });
        }
    }

    /// A thread body run under the explorer's control.
    pub type Body = Box<dyn FnOnce(&mut Ctx) + Send>;
    /// A post-execution oracle over the recorded history.
    pub type Check = Box<dyn FnOnce(&History) -> Result<(), String>>;

    /// One execution's worth of world + bodies + oracle, built fresh per
    /// execution by the `mk` closure passed to [`explore`]/[`replay`].
    pub struct RunSpec {
        /// One body per thread; bodies capture their own handles and an
        /// `Arc` of the world.
        pub bodies: Vec<Body>,
        /// Post-execution oracle over the recorded history (runs on the
        /// controller thread after all bodies finished; typically closes
        /// over the world `Arc` for invariant checks — conservation,
        /// waiter counts — beyond the history itself).
        pub check: Check,
    }

    /// A failing interleaving, replayable from `schedule`.
    #[derive(Debug, Clone)]
    pub struct Failure {
        /// The full choice list of the failing execution — the artifact.
        pub schedule: Schedule,
        /// What went wrong (oracle message, deadlock description, panic).
        pub reason: String,
        /// The recorded history, rendered.
        pub history: String,
    }

    impl Failure {
        /// The printable artifact block CI greps for.
        pub fn render(&self) -> String {
            format!(
                "=== EXPLORER FAILURE ===\nreason: {}\nschedule artifact (replayable):\n{}\nhistory:\n{}=== END FAILURE ===\n",
                self.reason, self.schedule, self.history
            )
        }
    }

    /// Exploration summary.
    #[derive(Debug, Default)]
    pub struct Report {
        /// Executions actually run.
        pub executions: u64,
        /// Children skipped by the visited-state heuristic.
        pub pruned: u64,
        /// Children skipped by the conflict (persistent-set) filter.
        pub por_skipped: u64,
        /// Executions cut by the depth bound (not oracle-checked).
        pub truncated: u64,
        /// Executions in which the grant slice forced at least one free
        /// switch (spin cutting happened; those interleavings carry
        /// uncharged switches).
        pub sliced: u64,
        /// `true` iff `max_executions` stopped the sweep early.
        pub hit_execution_cap: bool,
        /// First failing interleaving, if any.
        pub failure: Option<Failure>,
    }

    impl Report {
        /// `true` iff no failing interleaving was found.
        pub fn passed(&self) -> bool {
            self.failure.is_none()
        }
    }

    /// How a single (replayed) execution ended.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum RunOutcomeKind {
        /// All bodies finished; oracle ran.
        Completed,
        /// Some threads were permanently blocked (lost wake / deadlock).
        Deadlock(String),
        /// Depth bound cut the execution.
        DepthExceeded,
        /// A body (or queue code) panicked.
        Panicked(String),
        /// A pinned choice named a thread that was not runnable —
        /// nondeterminism or a foreign schedule.
        Diverged(String),
    }

    /// Result of [`replay`].
    #[derive(Debug)]
    pub struct RunResult {
        /// How the execution ended.
        pub outcome: RunOutcomeKind,
        /// Full choice list actually taken (equals the requested prefix
        /// followed by default-policy choices).
        pub schedule: Schedule,
        /// Rendered history (byte-comparable across replays).
        pub history: String,
        /// Oracle verdict (`None` when the oracle did not run).
        pub check: Option<Result<(), String>>,
    }

    // -- engine internals --------------------------------------------------

    /// Panic payload used to unwind explored threads on abort.
    struct AbortExecution;

    fn install_quiet_abort_hook() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<AbortExecution>().is_some() {
                    return; // expected unwind of an explored thread
                }
                prev(info);
            }));
        });
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TStatus {
        NotStarted,
        Ready,
        BlockedMutex(u32),
        BlockedCv(u32),
        Finished,
    }

    /// One scheduling point of the recorded trace.
    #[derive(Debug, Clone)]
    struct TraceStep {
        tid: usize,
        /// Bitmask of threads that were runnable at this point.
        enabled: u64,
        /// Thread that ran the previous step (`usize::MAX` at step 0).
        prev: usize,
        /// State hash before this step executed (visited-set key).
        hash_before: u64,
        /// Cumulative preemptions through this choice inclusive.
        cum_cost: usize,
        /// Snapshot of every thread's announced pending access — `(loc,
        /// is_write)`, `None` when unknown — taken at choice time. Index
        /// `tid` is the access this step executed; the others feed the
        /// conflict filter during child generation.
        pend: Vec<Option<(u32, bool)>>,
    }

    struct Inner {
        prefix: Vec<usize>,
        statuses: Vec<TStatus>,
        /// Pending grant per thread: set by the chooser, consumed by the
        /// grantee right before it executes one access.
        grant: Vec<bool>,
        trace: Vec<TraceStep>,
        last: usize,
        slice_run: usize,
        cum_cost: usize,
        sliced: bool,
        abort: bool,
        outcome: Option<RunOutcomeKind>,
        /// Address → dense location id, by first touch.
        locs: HashMap<usize, u32>,
        /// Last written value per location id (shadow memory).
        shadow: Vec<u64>,
        shadow_hash: u64,
        /// Per-thread executed-access counts — a program-counter proxy.
        /// The state hash folds these *instead of* observation digests so
        /// that different histories reaching the same (memory, thread
        /// positions) point collide and prune each other, CHESS-style.
        pcs: Vec<u64>,
        /// Notify epoch per condvar location id.
        cv_epoch: HashMap<u32, u64>,
        /// Per-thread announced (loc, epoch) between cv_announce and
        /// cv_block.
        cv_ann: Vec<Option<(u32, u64)>>,
        /// Per-thread announced next access (loc, is_write); `None`
        /// while unknown (start gate, or freshly woken from a condvar).
        pending: Vec<Option<(u32, bool)>>,
    }

    impl Inner {
        fn new(threads: usize, prefix: Vec<usize>) -> Self {
            Inner {
                prefix,
                statuses: vec![TStatus::NotStarted; threads],
                grant: vec![false; threads],
                trace: Vec::new(),
                last: usize::MAX,
                slice_run: 0,
                cum_cost: 0,
                sliced: false,
                abort: false,
                outcome: None,
                locs: HashMap::new(),
                shadow: Vec::new(),
                shadow_hash: 0,
                pcs: vec![0; threads],
                cv_epoch: HashMap::new(),
                cv_ann: vec![None; threads],
                pending: vec![None; threads],
            }
        }

        fn intern(&mut self, addr: usize) -> u32 {
            let next = self.locs.len() as u32;
            let id = *self.locs.entry(addr).or_insert(next);
            if id as usize >= self.shadow.len() {
                self.shadow.resize(id as usize + 1, 0);
            }
            id
        }

        fn enabled_mask(&self) -> u64 {
            let mut m = 0u64;
            for (t, s) in self.statuses.iter().enumerate() {
                if *s == TStatus::Ready {
                    m |= 1 << t;
                }
            }
            m
        }

        fn all_finished(&self) -> bool {
            self.statuses.iter().all(|s| *s == TStatus::Finished)
        }

        fn state_hash(&self) -> u64 {
            let mut h = self.shadow_hash;
            for (t, pc) in self.pcs.iter().enumerate() {
                h = mix(h, mix(t as u64 + 1, *pc));
            }
            for (t, s) in self.statuses.iter().enumerate() {
                let tag = match s {
                    TStatus::NotStarted => 1,
                    TStatus::Ready => 2,
                    TStatus::BlockedMutex(l) => 3 | ((*l as u64) << 8),
                    TStatus::BlockedCv(l) => 4 | ((*l as u64) << 8),
                    TStatus::Finished => 5,
                };
                h = mix(h, mix(t as u64 + 101, tag));
            }
            h
        }

        fn set_abort(&mut self, outcome: RunOutcomeKind) {
            if !self.abort {
                self.abort = true;
                self.outcome = Some(outcome);
            }
        }

        /// Pick and grant the next runner. Caller notifies the condvar.
        fn choose_and_grant(&mut self) {
            if self.abort {
                return;
            }
            let pos = self.trace.len();
            if pos >= DEPTH_BOUND {
                self.set_abort(RunOutcomeKind::DepthExceeded);
                return;
            }
            let enabled = self.enabled_mask();
            if enabled == 0 {
                if !self.all_finished() {
                    let stuck: Vec<String> = self
                        .statuses
                        .iter()
                        .enumerate()
                        .filter_map(|(t, s)| match s {
                            TStatus::BlockedMutex(l) => Some(format!("T{t} on mutex loc{l}")),
                            TStatus::BlockedCv(l) => Some(format!("T{t} on condvar loc{l}")),
                            _ => None,
                        })
                        .collect();
                    self.set_abort(RunOutcomeKind::Deadlock(format!(
                        "no runnable thread; parked past a missed wake: [{}]",
                        stuck.join(", ")
                    )));
                }
                return;
            }
            let prev = self.last;
            let prev_enabled = prev != usize::MAX && (enabled >> prev) & 1 == 1;
            let chosen = if pos < self.prefix.len() {
                let p = self.prefix[pos];
                if (enabled >> p) & 1 != 1 {
                    self.set_abort(RunOutcomeKind::Diverged(format!(
                        "schedule names T{p} at step {pos}, but it is not runnable \
                         (status {:?})",
                        self.statuses.get(p)
                    )));
                    return;
                }
                p
            } else if prev_enabled && self.slice_run < GRANT_SLICE {
                prev
            } else {
                // Round-robin: first enabled thread after `prev`.
                if prev_enabled {
                    self.sliced = true; // slice fired: free forced switch
                }
                let n = self.statuses.len();
                let start = if prev == usize::MAX {
                    0
                } else {
                    (prev + 1) % n
                };
                (0..n)
                    .map(|i| (start + i) % n)
                    .find(|t| (enabled >> t) & 1 == 1)
                    .expect("enabled mask is non-empty")
            };
            let forced_by_slice = pos >= self.prefix.len() && prev_enabled && chosen != prev;
            let cost = if pos == 0 || chosen == prev || !prev_enabled || forced_by_slice {
                0
            } else {
                1
            };
            self.cum_cost += cost;
            let hash_before = self.state_hash();
            let pend = self.pending.clone();
            self.trace.push(TraceStep {
                tid: chosen,
                enabled,
                prev,
                hash_before,
                cum_cost: self.cum_cost,
                pend,
            });
            self.slice_run = if chosen == prev {
                self.slice_run + 1
            } else {
                1
            };
            self.last = chosen;
            self.grant[chosen] = true;
        }
    }

    struct Exec {
        m: Mutex<Inner>,
        cv: Condvar,
    }

    impl Exec {
        fn lock(&self) -> MutexGuard<'_, Inner> {
            self.m.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    fn mix(a: u64, b: u64) -> u64 {
        // splitmix64 finalizer over the pair.
        let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn abort_panic() -> ! {
        std::panic::panic_any(AbortExecution)
    }

    /// The per-thread simyield hook: every method runs on the explored
    /// thread itself.
    struct ExploreHook {
        exec: Arc<Exec>,
        tid: usize,
    }

    impl ExploreHook {
        /// Wait inside `g` until this thread holds a grant (or abort).
        /// Returns with the grant still set.
        fn wait_for_grant<'a>(
            &self,
            exec: &'a Exec,
            mut g: MutexGuard<'a, Inner>,
        ) -> MutexGuard<'a, Inner> {
            loop {
                if g.abort {
                    drop(g);
                    abort_panic();
                }
                if g.grant[self.tid] {
                    return g;
                }
                g = exec.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    impl simyield::Hook for ExploreHook {
        fn before(&self, a: &simyield::Access) {
            if std::thread::panicking() {
                return;
            }
            let exec = Arc::clone(&self.exec);
            let mut g = exec.lock();
            if g.abort {
                drop(g);
                abort_panic();
            }
            let lid = g.intern(a.loc);
            g.pending[self.tid] = Some((lid, !matches!(a.kind, simyield::Kind::Load)));
            if g.grant[self.tid] {
                // Pending grant from the start gate or a block wake-up:
                // consume it and execute without a new choice.
                g.grant[self.tid] = false;
                return;
            }
            g.choose_and_grant();
            exec.cv.notify_all();
            let mut g = self.wait_for_grant(&exec, g);
            g.grant[self.tid] = false;
        }

        fn after(&self, a: &simyield::Access, observed: u64) {
            if std::thread::panicking() {
                return;
            }
            let mut g = self.exec.lock();
            let lid = g.intern(a.loc);
            let old = g.shadow[lid as usize];
            let new = match a.kind {
                simyield::Kind::Load => old,
                simyield::Kind::Store => a.operand,
                simyield::Kind::Cas => {
                    if observed == a.operand {
                        a.operand2
                    } else {
                        old
                    }
                }
                simyield::Kind::FetchAdd => observed.wrapping_add(a.operand),
                simyield::Kind::LockAcq => old,
            };
            if new != old {
                g.shadow_hash ^= mix(lid as u64 + 1, old) ^ mix(lid as u64 + 1, new);
                g.shadow[lid as usize] = new;
            }
            g.pcs[self.tid] += 1;
        }

        fn block_mutex(&self, loc: usize) {
            if std::thread::panicking() {
                return;
            }
            let exec = Arc::clone(&self.exec);
            let mut g = exec.lock();
            if g.abort {
                drop(g);
                abort_panic();
            }
            let lid = g.intern(loc);
            g.statuses[self.tid] = TStatus::BlockedMutex(lid);
            // Next access on wake-up is the lock retry.
            g.pending[self.tid] = Some((lid, true));
            g.choose_and_grant();
            exec.cv.notify_all();
            // Keep the grant set: it is consumed at the retry's before().
            let _g = self.wait_for_grant(&exec, g);
        }

        fn mutex_released(&self, loc: usize) {
            // Runs inside guard drop, possibly during unwind: must not
            // suspend and must not panic. It must still wake blocked
            // contenders (so they can observe an abort and unwind too).
            let mut g = self.exec.lock();
            let lid = g.intern(loc);
            for s in g.statuses.iter_mut() {
                if *s == TStatus::BlockedMutex(lid) {
                    *s = TStatus::Ready;
                }
            }
            self.exec.cv.notify_all();
        }

        fn cv_announce(&self, loc: usize) {
            if std::thread::panicking() {
                return;
            }
            let mut g = self.exec.lock();
            let lid = g.intern(loc);
            let ep = *g.cv_epoch.get(&lid).unwrap_or(&0);
            g.cv_ann[self.tid] = Some((lid, ep));
        }

        fn cv_block(&self, loc: usize) {
            if std::thread::panicking() {
                return;
            }
            let exec = Arc::clone(&self.exec);
            let mut g = exec.lock();
            if g.abort {
                drop(g);
                abort_panic();
            }
            let (lid, ep) = g.cv_ann[self.tid].take().unwrap_or_else(|| {
                let lid = g.intern(loc);
                let ep = *g.cv_epoch.get(&lid).unwrap_or(&0);
                (lid, ep)
            });
            if *g.cv_epoch.get(&lid).unwrap_or(&0) != ep {
                // A notify landed in the unlock→wait window: the announce
                // recorded us, so we are not allowed to sleep through it.
                return;
            }
            g.statuses[self.tid] = TStatus::BlockedCv(lid);
            // What runs on wake-up is the cooperative re-lock of the
            // associated mutex, whose location this hook cannot know yet.
            g.pending[self.tid] = None;
            g.choose_and_grant();
            exec.cv.notify_all();
            let _g = self.wait_for_grant(&exec, g);
            // Grant stays set; the cooperative re-lock's before() uses it.
        }

        fn cv_block_timed(&self, loc: usize) -> bool {
            if std::thread::panicking() {
                return true;
            }
            let exec = Arc::clone(&self.exec);
            let mut g = exec.lock();
            if g.abort {
                drop(g);
                abort_panic();
            }
            let (lid, ep) = g.cv_ann[self.tid].take().unwrap_or_else(|| {
                let lid = g.intern(loc);
                let ep = *g.cv_epoch.get(&lid).unwrap_or(&0);
                (lid, ep)
            });
            if *g.cv_epoch.get(&lid).unwrap_or(&0) != ep {
                // A notify landed in the unlock→wait window: as in
                // cv_block, the announce recorded us, so this counts as
                // a wake — never a timeout.
                return true;
            }
            // Unlike cv_block the thread STAYS Ready: its deadline makes
            // it runnable at any moment, so suspending it would
            // manufacture deadlocks the wall clock would break in a real
            // run. This is just a scheduling point; when the scheduler
            // next grants us, the epoch decides the outcome — advanced
            // means some notify woke us first, unchanged means the
            // scheduler chose to fire the timeout. Both orders of a
            // timeout-vs-wake race are thus enumerated as ordinary
            // scheduling choices.
            g.pending[self.tid] = None;
            g.choose_and_grant();
            exec.cv.notify_all();
            let g = self.wait_for_grant(&exec, g);
            let woke = *g.cv_epoch.get(&lid).unwrap_or(&0) != ep;
            drop(g);
            // Grant stays set; the cooperative re-lock's before() uses it.
            woke
        }

        fn cv_notify(&self, loc: usize) {
            if std::thread::panicking() {
                return;
            }
            let mut g = self.exec.lock();
            let lid = g.intern(loc);
            *g.cv_epoch.entry(lid).or_insert(0) += 1;
            for s in g.statuses.iter_mut() {
                if *s == TStatus::BlockedCv(lid) {
                    *s = TStatus::Ready;
                }
            }
            self.exec.cv.notify_all();
        }
    }

    // -- worker pool -------------------------------------------------------

    type Job = Box<dyn FnOnce() + Send>;

    struct Pool {
        txs: Vec<mpsc::Sender<Job>>,
        handles: Vec<std::thread::JoinHandle<()>>,
    }

    impl Pool {
        fn new(n: usize) -> Pool {
            let mut txs = Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for i in 0..n {
                let (tx, rx) = mpsc::channel::<Job>();
                txs.push(tx);
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("explore-w{i}"))
                        .spawn(move || {
                            while let Ok(job) = rx.recv() {
                                job();
                            }
                        })
                        .expect("spawn explorer worker"),
                );
            }
            Pool { txs, handles }
        }

        fn submit(&self, i: usize, job: Job) {
            self.txs[i].send(job).expect("explorer worker alive");
        }
    }

    impl Drop for Pool {
        fn drop(&mut self) {
            self.txs.clear();
            for h in self.handles.drain(..) {
                let _ = h.join();
            }
        }
    }

    // -- one execution -----------------------------------------------------

    struct ExecResult {
        outcome: RunOutcomeKind,
        trace: Vec<TraceStep>,
        history: History,
        sliced: bool,
        check: Option<Result<(), String>>,
    }

    fn run_one(pool: &Pool, prefix: &[usize], spec: RunSpec) -> ExecResult {
        install_quiet_abort_hook();
        let threads = spec.bodies.len();
        assert!((1..=64).contains(&threads), "1..=64 explored threads");
        let rec = Recorder::default();
        let exec = Arc::new(Exec {
            m: Mutex::new(Inner::new(threads, prefix.to_vec())),
            cv: Condvar::new(),
        });
        for (tid, body) in spec.bodies.into_iter().enumerate() {
            let exec = Arc::clone(&exec);
            let rec = rec.clone();
            pool.submit(
                tid,
                Box::new(move || {
                    let hook = Rc::new(ExploreHook {
                        exec: Arc::clone(&exec),
                        tid,
                    });
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        simyield::with_hook(hook, || {
                            // Start gate: arrive, wait for the first grant
                            // (consumed by the body's first yield point).
                            {
                                let mut g = exec.lock();
                                g.statuses[tid] = TStatus::Ready;
                                exec.cv.notify_all();
                                loop {
                                    if g.abort {
                                        drop(g);
                                        abort_panic();
                                    }
                                    if g.grant[tid] {
                                        break;
                                    }
                                    g = exec.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                                }
                            }
                            let mut ctx = Ctx { tid, rec };
                            body(&mut ctx);
                        })
                    }));
                    let mut g = exec.lock();
                    g.statuses[tid] = TStatus::Finished;
                    g.grant[tid] = false;
                    if let Err(payload) = result {
                        if payload.downcast_ref::<AbortExecution>().is_none() {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".into());
                            g.set_abort(RunOutcomeKind::Panicked(msg));
                        }
                    }
                    if !g.abort && !g.all_finished() {
                        g.choose_and_grant();
                    }
                    exec.cv.notify_all();
                }),
            );
        }

        // Kick-off: wait for all arrivals, then make the initial choice.
        {
            let mut g = exec.lock();
            while g.statuses.contains(&TStatus::NotStarted) {
                g = exec.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            g.choose_and_grant();
            exec.cv.notify_all();
        }
        // Wait for the execution to finish.
        let (outcome, trace, sliced) = {
            let mut g = exec.lock();
            while !g.all_finished() {
                g = exec.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            (
                g.outcome.take().unwrap_or(RunOutcomeKind::Completed),
                std::mem::take(&mut g.trace),
                g.sliced,
            )
        };
        let history = rec.history();
        let check = if outcome == RunOutcomeKind::Completed {
            Some((spec.check)(&history))
        } else {
            None
        };
        ExecResult {
            outcome,
            trace,
            history,
            sliced,
            check,
        }
    }

    // -- the DFS over schedule prefixes ------------------------------------

    /// Enumerate interleavings of the scenario produced by `mk`, up to
    /// the configured preemption bound, feeding every completed
    /// execution's history to the spec's oracle. Stops at the first
    /// failure (deadlock, oracle rejection, panic, divergence) and
    /// returns its replayable [`Failure`] artifact in the report.
    pub fn explore(cfg: &ExploreConfig, mut mk: impl FnMut() -> RunSpec) -> Report {
        let mut report = Report::default();
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        let mut visited: HashSet<(u64, usize, usize)> = HashSet::new();
        let mut pool: Option<Pool> = None;

        while let Some(prefix) = stack.pop() {
            if report.executions >= MAX_EXECUTIONS {
                report.hit_execution_cap = true;
                break;
            }
            let spec = mk();
            let pool = pool.get_or_insert_with(|| Pool::new(spec.bodies.len()));
            let r = run_one(pool, &prefix, spec);
            report.executions += 1;
            if r.sliced {
                report.sliced += 1;
            }
            let schedule = Schedule(r.trace.iter().map(|s| s.tid).collect());
            let fail_reason = match &r.outcome {
                RunOutcomeKind::Completed => match r.check.as_ref() {
                    Some(Err(msg)) => Some(format!("oracle rejected the execution: {msg}")),
                    _ => None,
                },
                RunOutcomeKind::Deadlock(d) => Some(format!("deadlock: {d}")),
                RunOutcomeKind::Panicked(m) => Some(format!("panic in explored code: {m}")),
                RunOutcomeKind::Diverged(m) => Some(format!("schedule divergence: {m}")),
                RunOutcomeKind::DepthExceeded => {
                    report.truncated += 1;
                    None
                }
            };
            if let Some(reason) = fail_reason {
                report.failure = Some(Failure {
                    schedule,
                    reason,
                    history: r.history.render(),
                });
                break;
            }
            // Children: insert one more preemption at each later position.
            for k in prefix.len()..r.trace.len() {
                let step = &r.trace[k];
                let cum_before = if k == 0 { 0 } else { r.trace[k - 1].cum_cost };
                for alt in 0..64usize {
                    if (step.enabled >> alt) & 1 != 1 || alt == step.tid {
                        continue;
                    }
                    let prev_enabled =
                        step.prev != usize::MAX && (step.enabled >> step.prev) & 1 == 1;
                    let cost = if k == 0 || alt == step.prev || !prev_enabled {
                        0
                    } else {
                        1
                    };
                    let c = cum_before + cost;
                    if c > cfg.preemption_bound {
                        continue;
                    }
                    // Persistent-set-style conflict filter: branch to
                    // `alt` only where the executed access and `alt`'s
                    // announced next access conflict (same location, at
                    // least one write). Threads whose pending access is
                    // unknown (not yet scheduled, or just woken from a
                    // condvar) branch unconditionally.
                    let independent = match (step.pend[step.tid], step.pend[alt]) {
                        (Some((l1, w1)), Some((l2, w2))) => l1 != l2 || !(w1 || w2),
                        _ => false,
                    };
                    if independent {
                        report.por_skipped += 1;
                        continue;
                    }
                    // State-hash visited set.
                    if !visited.insert((step.hash_before, alt, c)) {
                        report.pruned += 1;
                        continue;
                    }
                    let mut child: Vec<usize> = r.trace[..k].iter().map(|s| s.tid).collect();
                    child.push(alt);
                    stack.push(child);
                }
            }
        }
        report
    }

    /// Re-run one pinned interleaving (e.g. a printed failure artifact)
    /// and report how it ended, with the rendered history for
    /// byte-for-byte comparison.
    pub fn replay(schedule: &Schedule, spec: RunSpec) -> RunResult {
        let pool = Pool::new(spec.bodies.len());
        let r = run_one(&pool, &schedule.0, spec);
        RunResult {
            outcome: r.outcome,
            schedule: Schedule(r.trace.iter().map(|s| s.tid).collect()),
            history: r.history.render(),
            check: r.check,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::counter_queue::naive;
    use crate::lincheck::check_history;
    use crate::machine::Ret;
    use crate::mem::SimMemory;

    #[test]
    fn schedule_round_trips_through_text() {
        let s = Schedule(vec![0, 1, 2, 0, 1]);
        let text = s.to_string();
        assert_eq!(text, "sched:v1:0,1,2,0,1");
        assert_eq!(text.parse::<Schedule>().unwrap(), s);
        let empty = Schedule::new();
        assert_eq!(empty.to_string().parse::<Schedule>().unwrap(), empty);
        assert!("bogus".parse::<Schedule>().is_err());
        assert!("sched:v1:1,x".parse::<Schedule>().is_err());
    }

    #[test]
    fn token_domain_flags_bit63_and_zero() {
        use crate::controller::OpId;
        use crate::lincheck::HistoryEvent;
        let mut h = History::new();
        h.push(HistoryEvent::Invoke {
            id: OpId(0),
            tid: 0,
            op: Op::Enqueue(1 << 63),
        });
        h.push(HistoryEvent::Return {
            id: OpId(0),
            ret: Ret::EnqOk,
        });
        h.push(HistoryEvent::Invoke {
            id: OpId(1),
            tid: 1,
            op: Op::Dequeue,
        });
        h.push(HistoryEvent::Return {
            id: OpId(1),
            ret: Ret::DeqVal(0),
        });
        let v = token_domain_violations(&h);
        assert_eq!(v.len(), 2, "{v:?}");
        let mut ok = History::new();
        ok.push(HistoryEvent::Invoke {
            id: OpId(0),
            tid: 0,
            op: Op::Enqueue((1 << 63) - 1),
        });
        assert!(token_domain_violations(&ok).is_empty());
    }

    #[test]
    fn machine_schedule_runner_is_deterministic_and_complete() {
        let mk = || {
            let mut mem = SimMemory::new();
            let q = naive(2, &mut mem);
            (q, mem)
        };
        let plan: MachinePlan = vec![
            VecDeque::from([Op::Enqueue(1), Op::Dequeue]),
            VecDeque::from([Op::Enqueue(2)]),
        ];
        let sched = Schedule(vec![0, 0, 1, 0, 1, 1, 0, 0]);
        let (q1, m1) = mk();
        let h1 = run_machine_schedule(q1, m1, 2, &sched, &plan, 10_000);
        let (q2, m2) = mk();
        let h2 = run_machine_schedule(q2, m2, 2, &sched, &plan, 10_000);
        assert_eq!(
            h1.render(),
            h2.render(),
            "identical schedule, identical history"
        );
        // Complete: every op invoked and returned.
        assert_eq!(h1.events().len(), 6);
        assert!(check_history(&h1, 2).is_linearizable());
    }

    #[test]
    fn machine_schedule_skips_idle_threads_with_empty_plans() {
        let mut mem = SimMemory::new();
        let q = naive(2, &mut mem);
        // Thread 1 has no ops; scheduling it is a harmless skip.
        let plan: MachinePlan = vec![VecDeque::from([Op::Enqueue(5)]), VecDeque::new()];
        let sched = Schedule(vec![1, 1, 0, 1, 0]);
        let h = run_machine_schedule(q, mem, 2, &sched, &plan, 10_000);
        assert_eq!(h.events().len(), 2);
        assert!(check_history(&h, 2).is_linearizable());
    }
}
