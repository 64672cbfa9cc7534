//! The **schedule explorer** (DESIGN.md §11): bounded enumeration of
//! thread interleavings with replayable failure artifacts.
//!
//! Two layers live here:
//!
//! * **Unconditional** (always compiled): the serializable [`Schedule`]
//!   artifact and the token-domain invariant
//!   ([`token_domain_violations`]).
//! * **Feature `explore`**: the loom/CHESS-style engine that runs the
//!   *real* `bq-core` algorithms on cooperative OS threads. Every shared
//!   access in `bq-core` (under its `sim-explore` feature) calls back
//!   through the `simyield` seam, which is where the engine suspends and
//!   resumes threads. A scheduling choice comes from one of three
//!   sources: a schedule prefix (`replay`, and the DFS of `explore`,
//!   which enumerates interleavings by iterative preemption bounding with
//!   state-hash pruning), a `Chooser` closure that is *told* the
//!   schedule (`tell`: the adversary of `bq_sim::adversary` poises
//!   threads before the accesses it names), or the default policy.
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
//! memory can. Over those interleavings it keeps happens-before vector
//! clocks from each access's `Ordering` (FastTrack's, over SC runs), and
//! `simyield::published` asks whether the store a thread's last load
//! returned had already happened-before that load — a use-site check
//! that `OptimalQueue` asserts. No load ever returns an older store, so a
//! validating load is still checked under SC, and the `bq-core` sites
//! that ship weaker orderings without such a check
//! (`RelocRing::claim`/`resolve`, the byte ring) are checked under a
//! stronger model than the one they run under; `spsc.rs` is not
//! instrumented at all. DESIGN.md §11.4 lists them. Preemption bounding
//! (Musuvathi & Qadeer's iterative context bounding) is exhaustive *up
//! to the bound*; state-hash pruning and the conflict filter are
//! heuristics on top — hash collisions can in principle drop distinct
//! states, and independent-access commutation with the default policy
//! tail is not a full DPOR proof. Both are always on; `Report` counts
//! what each skipped. Spin loops of lock-free (not wait-free) operations
//! are cut by a large grant slice: a forced round-robin switch that
//! keeps enumeration finite and is *not* charged to the preemption
//! budget (reported per execution instead).

use std::fmt;
use std::str::FromStr;

use crate::lincheck::{History, HistoryEvent, Op, Ret};

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
// The real-code exploration engine (feature `explore`)
// ---------------------------------------------------------------------------

#[cfg(feature = "explore")]
pub use engine::{
    explore, replay, tell, Choice, Chooser, Ctx, ExploreConfig, Failure, Recorder, Report,
    RunOutcomeKind, RunResult, RunSpec, ThreadStatus, ThreadView,
};

#[cfg(feature = "explore")]
mod engine {
    use super::Schedule;
    use crate::lincheck::{History, HistoryEvent, Op, OpId, Ret};
    use std::cell::Cell;
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

        /// A scheduling point that touches no shared word, announced as a
        /// load of this context: a [`Chooser`] sees the thread between two
        /// operations, before the next one is invoked.
        pub fn pause(&mut self) {
            let a = simyield::Access::new(simyield::Kind::Load, self as *const Ctx as usize, 0, 0);
            simyield::before(&a);
            simyield::after(&a, 0);
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
        /// A pinned or told choice named a thread that was not runnable —
        /// nondeterminism or a foreign schedule.
        Diverged(String),
        /// The chooser of [`tell`] ended the run: threads still inside
        /// their bodies unwound, and the history is partial.
        Stopped,
    }

    /// A thread's state at a scheduling point, as a [`Chooser`] sees it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ThreadStatus {
        /// May be granted the next step.
        Ready,
        /// Waiting for a mutex release or a condvar notification.
        Blocked,
        /// Its body returned.
        Finished,
    }

    /// One thread at a scheduling point, as a [`Chooser`] sees it.
    #[derive(Debug, Clone, Copy)]
    pub struct ThreadView {
        /// Whether it may be granted.
        pub status: ThreadStatus,
        /// The access it executes when granted next; `None` before its
        /// first access and right after a condvar wake.
        pub next: Option<simyield::Access>,
    }

    /// A told scheduling decision.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Choice {
        /// Run this thread's announced access.
        Grant(usize),
        /// End the run here ([`RunOutcomeKind::Stopped`]).
        Stop,
    }

    /// The third source of scheduling choices, beside a schedule prefix
    /// and the default policy: called at every scheduling point with
    /// every thread's view and the history recorded so far.
    pub type Chooser = Box<dyn FnMut(&[ThreadView], &History) -> Choice + Send>;

    /// Result of [`replay`] and [`tell`].
    #[derive(Debug)]
    pub struct RunResult {
        /// How the execution ended.
        pub outcome: RunOutcomeKind,
        /// Full choice list actually taken (the requested prefix followed
        /// by default-policy choices, or the told choices).
        pub schedule: Schedule,
        /// The recorded history (`render()` is byte-comparable across
        /// replays).
        pub history: History,
        /// Oracle verdict (`None` when the oracle did not run).
        pub check: Option<Result<(), String>>,
    }

    // -- engine internals --------------------------------------------------

    /// Panic payload used to unwind explored threads on abort.
    struct AbortExecution;

    thread_local! {
        /// Set while an explorer worker runs explored code. A panic there
        /// is either an abort unwind or a verdict the engine reports in
        /// its `Failure` artifact, so the default report is not printed.
        static IN_EXPLORED_CODE: Cell<bool> = const { Cell::new(false) };
        /// `file:line` of the last panic in explored code on this thread,
        /// carried into its `Panicked` verdict.
        static PANICKED_AT: Cell<Option<String>> = const { Cell::new(None) };
    }

    fn install_quiet_panic_hook() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !IN_EXPLORED_CODE.with(Cell::get) {
                    return prev(info);
                }
                let at = info
                    .location()
                    .map(|l| format!("{}:{}", l.file(), l.line()));
                PANICKED_AT.with(|p| p.set(at));
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

    /// Happens-before over the explored interleaving (FastTrack's vector
    /// clocks, Flanagan & Freund, PLDI 2009): a clock per thread, and per
    /// location the clock its release sequence carries and the epoch
    /// `(thread, clock)` of its last store. Every access updates them by
    /// its `Ordering`; a plain load also records whether the store it
    /// returned already happened-before it, which is what
    /// [`simyield::published`] answers. Nothing here is a scheduling point
    /// or enters the state hash, so no execution count depends on it.
    struct Clocks {
        /// Vector clock per thread; entry `t` of thread `t`'s starts at 1.
        threads: Vec<Vec<u32>>,
        /// Per location id: the clock of its release sequence, empty when
        /// none is running (a relaxed plain store ended it, or no release
        /// store was seen). A mutex's is its last unlock's.
        rel: Vec<Vec<u32>>,
        /// Per location id: the epoch of the last store the explorer saw;
        /// `None` for a value written before exploration (set-up), which
        /// happened-before every explored access.
        last: Vec<Option<(usize, u32)>>,
        /// Per thread and location id: did its last plain load return a
        /// store that happened-before it? Absent reads `true`.
        seen: Vec<Vec<bool>>,
    }

    fn acquires(o: std::sync::atomic::Ordering) -> bool {
        use std::sync::atomic::Ordering::*;
        matches!(o, Acquire | AcqRel | SeqCst)
    }

    fn releases(o: std::sync::atomic::Ordering) -> bool {
        use std::sync::atomic::Ordering::*;
        matches!(o, Release | AcqRel | SeqCst)
    }

    fn join(into: &mut [u32], from: &[u32]) {
        for (a, b) in into.iter_mut().zip(from) {
            *a = (*a).max(*b);
        }
    }

    impl Clocks {
        fn new(threads: usize) -> Self {
            Clocks {
                threads: (0..threads)
                    .map(|t| {
                        let mut c = vec![0; threads];
                        c[t] = 1;
                        c
                    })
                    .collect(),
                rel: Vec::new(),
                last: Vec::new(),
                seen: vec![Vec::new(); threads],
            }
        }

        fn grow(&mut self, lid: u32) {
            let n = lid as usize + 1;
            if self.last.len() < n {
                self.rel.resize(n, Vec::new());
                self.last.resize(n, None);
            }
        }

        /// Thread `t` ran access `a` on location `lid` and observed
        /// `observed` (the convention of `simyield::Hook::after`).
        fn access(&mut self, t: usize, lid: u32, a: &simyield::Access, observed: u64) {
            use simyield::Kind;
            self.grow(lid);
            let l = lid as usize;
            let (reads, writes, ord) = match a.kind {
                Kind::Load => (true, false, a.ord),
                Kind::Store => (false, true, a.ord),
                Kind::Cas if observed == a.operand => (true, true, a.ord),
                Kind::Cas => (true, false, a.ord_fail),
                Kind::FetchAdd => (true, true, a.ord),
                Kind::LockAcq if observed == 1 => (true, false, a.ord),
                Kind::LockAcq => (false, false, a.ord_fail),
            };
            if a.kind == Kind::Load {
                // Only a plain load can return an older store: an RMW reads
                // the latest one by atomicity.
                let ok = self.last[l].is_none_or(|(w, c)| c <= self.threads[t][w]);
                let seen = &mut self.seen[t];
                if seen.len() <= l {
                    seen.resize(l + 1, true);
                }
                seen[l] = ok;
            }
            if reads && acquires(ord) {
                join(&mut self.threads[t], &self.rel[l]);
            }
            if writes {
                self.last[l] = Some((t, self.threads[t][t]));
                let (rel, vc) = (&mut self.rel[l], &self.threads[t]);
                if releases(ord) {
                    if reads && !rel.is_empty() {
                        // An RMW continues the release sequence it reads.
                        join(rel, vc);
                    } else {
                        rel.clear();
                        rel.extend_from_slice(vc);
                    }
                    self.threads[t][t] += 1;
                } else if !reads {
                    // A relaxed plain store ends the release sequence; a
                    // relaxed RMW continues it unchanged.
                    rel.clear();
                }
            }
        }

        /// Thread `t` unlocked the mutex `lid`: the next lock acquires it.
        fn unlock(&mut self, t: usize, lid: u32) {
            self.grow(lid);
            let rel = &mut self.rel[lid as usize];
            rel.clear();
            rel.extend_from_slice(&self.threads[t]);
            self.threads[t][t] += 1;
        }

        fn published(&self, t: usize, lid: u32) -> bool {
            self.seen[t].get(lid as usize).copied().unwrap_or(true)
        }
    }

    struct Inner {
        prefix: Vec<usize>,
        chooser: Option<Chooser>,
        rec: Recorder,
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
        /// Per-thread announced next access and its location id; `None`
        /// while unknown (start gate, or freshly woken from a condvar).
        pending: Vec<Option<(u32, simyield::Access)>>,
        /// Happens-before clocks, for `simyield::published`.
        hb: Clocks,
    }

    impl Inner {
        fn new(
            threads: usize,
            prefix: Vec<usize>,
            chooser: Option<Chooser>,
            rec: Recorder,
        ) -> Self {
            Inner {
                prefix,
                chooser,
                rec,
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
                hb: Clocks::new(threads),
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
            } else if self.chooser.is_some() {
                let views: Vec<ThreadView> = (self.statuses.iter().zip(&self.pending))
                    .map(|(s, p)| ThreadView {
                        status: match s {
                            TStatus::NotStarted | TStatus::Ready => ThreadStatus::Ready,
                            TStatus::BlockedMutex(_) | TStatus::BlockedCv(_) => {
                                ThreadStatus::Blocked
                            }
                            TStatus::Finished => ThreadStatus::Finished,
                        },
                        next: p.map(|(_, a)| a),
                    })
                    .collect();
                let chooser = self.chooser.as_mut().expect("checked above");
                let choice = chooser(&views, &self.rec.lock().hist);
                match choice {
                    Choice::Grant(t) if (enabled >> t) & 1 == 1 => t,
                    Choice::Grant(t) => {
                        self.set_abort(RunOutcomeKind::Diverged(format!(
                            "chooser granted T{t} at step {pos}, but it is not runnable"
                        )));
                        return;
                    }
                    Choice::Stop => {
                        self.set_abort(RunOutcomeKind::Stopped);
                        return;
                    }
                }
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
            let pend = (self.pending.iter())
                .map(|p| p.map(|(l, a)| (l, !matches!(a.kind, simyield::Kind::Load))))
                .collect();
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
            g.pending[self.tid] = Some((lid, *a));
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
            g.hb.access(self.tid, lid, a, observed);
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
            let retry = simyield::Access::new(simyield::Kind::LockAcq, loc, 0, 0);
            g.pending[self.tid] = Some((lid, retry));
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
            g.hb.unlock(self.tid, lid);
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

        fn published(&self, loc: usize) -> bool {
            let g = self.exec.lock();
            let lid = g.locs.get(&loc).copied();
            lid.is_none_or(|lid| g.hb.published(self.tid, lid))
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

    fn run_one(
        pool: &Pool,
        prefix: &[usize],
        chooser: Option<Chooser>,
        spec: RunSpec,
    ) -> ExecResult {
        install_quiet_panic_hook();
        let threads = spec.bodies.len();
        assert!((1..=64).contains(&threads), "1..=64 explored threads");
        let rec = Recorder::default();
        let inner = Inner::new(threads, prefix.to_vec(), chooser, rec.clone());
        let exec = Arc::new(Exec {
            m: Mutex::new(inner),
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
                    IN_EXPLORED_CODE.with(|e| e.set(true));
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
                    IN_EXPLORED_CODE.with(|e| e.set(false));
                    let panicked_at = PANICKED_AT.with(Cell::take);
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
                            let msg = match panicked_at {
                                Some(at) => format!("{msg} (at {at})"),
                                None => msg,
                            };
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
            let r = run_one(pool, &prefix, None, spec);
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
                RunOutcomeKind::Stopped => unreachable!("explore tells no chooser"),
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
        run_one(&pool, &schedule.0, None, spec).into()
    }

    /// Run `spec` once with `chooser` making every scheduling choice — a
    /// schedule that is *told*, where [`explore`] enumerates. The result's
    /// schedule is the artifact that [`replay`] re-runs; the oracle runs
    /// only if every body finished.
    pub fn tell(
        spec: RunSpec,
        chooser: impl FnMut(&[ThreadView], &History) -> Choice + Send + 'static,
    ) -> RunResult {
        let pool = Pool::new(spec.bodies.len());
        run_one(&pool, &[], Some(Box::new(chooser)), spec).into()
    }

    impl From<ExecResult> for RunResult {
        fn from(r: ExecResult) -> RunResult {
            RunResult {
                outcome: r.outcome,
                schedule: Schedule(r.trace.iter().map(|s| s.tid).collect()),
                history: r.history,
                check: r.check,
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::Clocks;
        use simyield::{Access, Kind};
        use std::sync::atomic::Ordering::{self, Acquire, Relaxed, Release};

        const DATA: u32 = 0;
        const FLAG: u32 = 1;

        fn step(c: &mut Clocks, t: usize, lid: u32, kind: Kind, ord: Ordering, seen: u64) {
            let a = Access::new(kind, lid as usize, 1, 2).ordered(ord, ord);
            c.access(t, lid, &a, seen);
        }

        /// Message passing: thread 0 stores the data `Relaxed`, then the
        /// flag with `publish`; thread 2 runs `between` on the flag, if
        /// anything; thread 1 loads the flag with `take`, then the data.
        fn data_published(publish: Ordering, between: Option<Kind>, take: Ordering) -> bool {
            let mut c = Clocks::new(3);
            step(&mut c, 0, DATA, Kind::Store, Relaxed, 1);
            step(&mut c, 0, FLAG, Kind::Store, publish, 1);
            if let Some(kind) = between {
                step(&mut c, 2, FLAG, kind, Relaxed, 1);
            }
            step(&mut c, 1, FLAG, Kind::Load, take, 1);
            step(&mut c, 1, DATA, Kind::Load, Relaxed, 1);
            c.published(1, DATA)
        }

        #[test]
        fn release_acquire_publishes_and_relaxed_does_not() {
            assert!(data_published(Release, None, Acquire));
            assert!(!data_published(Relaxed, None, Acquire));
            assert!(!data_published(Release, None, Relaxed));
        }

        #[test]
        fn an_rmw_continues_the_release_sequence_and_a_plain_store_ends_it() {
            assert!(data_published(Release, Some(Kind::FetchAdd), Acquire));
            assert!(!data_published(Release, Some(Kind::Store), Acquire));
        }

        /// The load's own acquire does not count: the first `Acquire` load
        /// of a `Release` store from another thread is unpublished, a
        /// second load after it is, and a thread's own store always is.
        #[test]
        fn a_load_is_judged_before_its_own_acquire() {
            let mut c = Clocks::new(2);
            step(&mut c, 0, DATA, Kind::Store, Release, 1);
            assert!(c.published(1, DATA), "nothing loaded yet");
            step(&mut c, 1, DATA, Kind::Load, Acquire, 1);
            assert!(!c.published(1, DATA));
            step(&mut c, 1, DATA, Kind::Load, Acquire, 1);
            assert!(c.published(1, DATA));
            step(&mut c, 0, DATA, Kind::Load, Relaxed, 1);
            assert!(c.published(0, DATA));
        }

        #[test]
        fn an_unlock_publishes_to_the_next_lock() {
            const LOCK: u32 = 2;
            let mut c = Clocks::new(2);
            step(&mut c, 0, DATA, Kind::Store, Relaxed, 1);
            c.unlock(0, LOCK);
            step(&mut c, 1, LOCK, Kind::LockAcq, Acquire, 1);
            step(&mut c, 1, DATA, Kind::Load, Relaxed, 1);
            assert!(c.published(1, DATA));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use crate::lincheck::OpId;
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
}
