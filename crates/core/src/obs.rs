//! Always-cheap observability: relaxed-atomic counter blocks, metrics
//! snapshots, and a binary trace ring (DESIGN.md §14).
//!
//! The paper's claims are *overhead* claims, and ROADMAP item 3
//! (adaptive shard count, contention-aware stealing) is blocked on
//! "observed CAS-failure or refusal rates" — this module is that signal
//! surface. Three layers:
//!
//! 1. **Counter blocks** ([`QueueCounters`], [`WaitCounters`],
//!    [`ShardCounters`]) — cache-padded groups of `Relaxed` atomics
//!    embedded in the hot structures. A private storage word is the one
//!    type with an on and an off form (with the queue's shared block): an
//!    `AtomicU64` with the `obs` feature on, a ZST with no storage off.
//!    The rest is written once over it, so off, every type here is a ZST
//!    and the instrumented code compiles to exactly the uninstrumented
//!    code (the same zero-cost contract as `simx`, asserted by the tests
//!    at the bottom). Hot paths accumulate in a [`LocalQueueCounters`]
//!    carried by the per-thread handle (plain adds) and fold into the
//!    shared [`SharedQueueCounters`] block on handle drop, on an explicit
//!    `flush_metrics`, or every [`LOCAL_FLUSH_PERIOD`] calls — so `obs`
//!    *on* costs no atomic RMW per operation either (the E17 budget,
//!    DESIGN.md §14.5).
//! 2. **[`MetricsSnapshot`]** — a cold-path, always-compiled view:
//!    ordered `(name, value)` pairs with delta arithmetic, a `Display`
//!    table, and serde-shim JSON. Reachable from every queue via
//!    [`ConcurrentQueue::metrics`](crate::ConcurrentQueue::metrics).
//! 3. **[`TraceRing`]** — fixed-size binary events in a bounded deque
//!    that drops the oldest, dumped as a replayable `trace:v1:` artifact
//!    when a harness round fails. Events are stamped from a
//!    process-local monotonic counter — never a wall clock — and stamp
//!    0 under `sim-explore` so explored schedules stay deterministic.
//!
//! ## Why `Relaxed` ordering is enough (and required)
//!
//! Counters are *statistics*, not synchronization: no protocol decision
//! reads them (the one functional counter, the shard quarantine refusal
//! count, stays `SeqCst` in `sharded.rs` and is merely *reported* here).
//! `Relaxed` increments cannot create happens-before edges, so turning
//! `obs` on cannot mask or introduce a memory-ordering bug in the
//! algorithms it observes. For the same reason the counters use plain
//! `std` atomics rather than the `simx` wrappers: they must not become
//! scheduling points, so the §11 explorer enumerates *identical*
//! execution sets (and state hashes) with the feature on or off.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use word::{SharedBlock, Word};

// ---------------------------------------------------------------------------
// Counter — one relaxed u64 over the one storage word with two forms
// ---------------------------------------------------------------------------

/// `obs` on: a relaxed `AtomicU64`. Shared counters use it atomically; a
/// handle's own tallies reach it through `&mut` (`get_mut`), which is
/// plain memory, so they stay one register-width add.
#[cfg(feature = "obs")]
mod word {
    use super::{AtomicU64, QueueCounters};

    /// A queue's shared block: each handle holds a clone of the `Arc`.
    pub(super) type SharedBlock = std::sync::Arc<QueueCounters>;
    #[derive(Debug, Default)]
    pub(super) struct Word(AtomicU64);
    impl Word {
        pub(super) const ON: bool = true;
        pub(super) const fn new() -> Word {
            Word(AtomicU64::new(0))
        }
        #[inline(always)]
        pub(super) fn shared(&self) -> Option<&AtomicU64> {
            Some(&self.0)
        }
        #[inline(always)]
        pub(super) fn local(&mut self) -> Option<&mut u64> {
            Some(self.0.get_mut())
        }
    }
}

/// `obs` off: a ZST with no storage, so every recording method folds away.
#[cfg(not(feature = "obs"))]
mod word {
    use super::{AtomicU64, QueueCounters};

    /// Nothing to share: a clone is a fresh empty (ZST) block.
    #[derive(Debug, Default)]
    pub(super) struct SharedBlock(QueueCounters);
    impl Clone for SharedBlock {
        fn clone(&self) -> SharedBlock {
            SharedBlock::default()
        }
    }
    impl std::ops::Deref for SharedBlock {
        type Target = QueueCounters;
        fn deref(&self) -> &QueueCounters {
            &self.0
        }
    }
    #[derive(Debug, Default)]
    pub(super) struct Word;
    impl Word {
        pub(super) const ON: bool = false;
        pub(super) const fn new() -> Word {
            Word
        }
        #[inline(always)]
        pub(super) fn shared(&self) -> Option<&AtomicU64> {
            None
        }
        #[inline(always)]
        pub(super) fn local(&mut self) -> Option<&mut u64> {
            None
        }
    }
}

/// A single relaxed event counter. With `obs` off this is a ZST and all
/// methods are no-ops.
#[derive(Debug, Default)]
pub struct Counter(Word);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(Word::new())
    }

    /// Count one event.
    #[inline]
    pub fn hit(&self) {
        self.add(1);
    }

    /// Count `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(a) = self.0.shared().filter(|_| n != 0) {
            a.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise the recorded high-watermark to `v` if it is higher.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if let Some(a) = self.0.shared() {
            a.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (always 0 with `obs` off).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.shared().map_or(0, |a| a.load(Ordering::Relaxed))
    }

    // A handle's own tallies: plain adds and read-and-zeroes.
    #[inline]
    fn bump(&mut self) -> u64 {
        self.0.local().map_or(0, |n| {
            *n += 1;
            *n
        })
    }
    #[inline]
    fn take(&mut self) -> u64 {
        self.0.local().map_or(0, std::mem::take)
    }
}

/// Append `counters` to `snap` under `prefix`. With `obs` off nothing is
/// appended (no fabricated zeros).
fn push_counters(prefix: &str, snap: &mut MetricsSnapshot, counters: &[(&str, &Counter)]) {
    if Word::ON {
        for (name, c) in counters {
            snap.push(format!("{prefix}{name}"), c.get());
        }
    }
}

// ---------------------------------------------------------------------------
// Hist32 — a log2-bucket histogram
// ---------------------------------------------------------------------------

/// Number of log2 buckets in [`Hist32`]: bucket `i` counts values whose
/// bit length is `i` (bucket 0 holds the value 0, bucket 31 saturates).
pub const HIST_BUCKETS: usize = 32;

/// A log2-bucket histogram of `u64` samples (park latencies in
/// nanoseconds). With `obs` off this is a ZST and recording is a no-op.
#[derive(Debug, Default)]
pub struct Hist32 {
    buckets: [Counter; HIST_BUCKETS],
}

/// Bucket index for a sample: its bit length, saturated to the last
/// bucket. 0 → 0, 1 → 1, 2..3 → 2, 4..7 → 3, …
pub fn hist_bucket(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

impl Hist32 {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist32::default()
    }

    /// Record one sample. With `obs` off not even the bucket index is
    /// computed.
    #[inline]
    pub fn record(&self, v: u64) {
        if Word::ON {
            self.buckets[hist_bucket(v)].hit();
        }
    }

    /// Bucket counts, index = bit length of the sample (all zero with
    /// `obs` off).
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].get())
    }
}

// ---------------------------------------------------------------------------
// Counter blocks — one cache-padded group per hot structure
// ---------------------------------------------------------------------------

/// Per-queue operation counters: attached to the algorithm structs
/// (`OptimalQueue`, `ShardedQueue`) behind the `obs` feature. The block
/// is padded to its own cache-line pair so the statistics traffic never
/// shares a line with protocol words.
///
/// Invariant (asserted by `tests/obs_conservation.rs`): every `enqueue`
/// call ends as exactly one of success/full, and every `dequeue` call as
/// one of success/empty, so
/// `enq_attempts == enq_success + enq_full` and
/// `deq_attempts == deq_success + deq_empty`. Retries and helps count
/// *extra* loop iterations and are not part of the identity.
#[cfg_attr(feature = "obs", repr(align(128)))]
#[derive(Debug, Default)]
pub struct QueueCounters {
    /// `enqueue` calls entered.
    pub enq_attempts: Counter,
    /// `enqueue` calls that returned `Ok`.
    pub enq_success: Counter,
    /// `enqueue` calls refused with `Full`.
    pub enq_full: Counter,
    /// Extra enqueue loop iterations (failed CAS / stale counter reload).
    pub enq_retries: Counter,
    /// `dequeue` calls entered.
    pub deq_attempts: Counter,
    /// `dequeue` calls that returned an element.
    pub deq_success: Counter,
    /// `dequeue` calls that observed empty.
    pub deq_empty: Counter,
    /// Extra dequeue loop iterations (failed CAS on `dequeues`).
    pub deq_retries: Counter,
    /// Descriptor-helping steps performed on *another* thread's
    /// operation (Listing 5's `start_put_op` scan).
    pub helps: Counter,
    /// Highest occupancy ever observed at an enqueue linearization.
    pub occupancy_hwm: Counter,
}

impl QueueCounters {
    /// A zeroed block.
    pub fn new() -> Self {
        QueueCounters::default()
    }

    /// Append this block's counters to `snap` under `prefix`. With `obs`
    /// off nothing is appended (no fabricated zeros).
    pub fn snapshot_into(&self, prefix: &str, snap: &mut MetricsSnapshot) {
        let counters = [
            ("enq_attempts", &self.enq_attempts),
            ("enq_success", &self.enq_success),
            ("enq_full", &self.enq_full),
            ("enq_retries", &self.enq_retries),
            ("deq_attempts", &self.deq_attempts),
            ("deq_success", &self.deq_success),
            ("deq_empty", &self.deq_empty),
            ("deq_retries", &self.deq_retries),
            ("helps", &self.helps),
            ("occupancy_hwm", &self.occupancy_hwm),
        ];
        push_counters(prefix, snap, &counters);
    }
}

// ---------------------------------------------------------------------------
// SharedQueueCounters / LocalQueueCounters — the hot-path split
// ---------------------------------------------------------------------------

/// Shared ownership of a queue's [`QueueCounters`] block. The queue
/// embeds one of these; every handle's [`LocalQueueCounters`] holds a
/// clone, so a handle outliving its registration scope can still fold
/// its deltas in safely. Derefs to the block for cold-path reads
/// (`snapshot_into`) and for the rare counters recorded without a
/// handle in scope (`helps`). With `obs` off this is a ZST that derefs
/// to a static empty block.
#[derive(Debug, Clone, Default)]
pub struct SharedQueueCounters(SharedBlock);

impl SharedQueueCounters {
    /// A zeroed shared block.
    pub fn new() -> Self {
        SharedQueueCounters::default()
    }

    /// Start a handle-local accumulator bound to this block.
    pub fn local(&self) -> LocalQueueCounters {
        LocalQueueCounters {
            shared: self.clone(),
            since_flush: Counter::new(),
            enq_attempts: Counter::new(),
            enq_success: Counter::new(),
            enq_full: Counter::new(),
            enq_retries: Counter::new(),
            deq_attempts: Counter::new(),
            deq_success: Counter::new(),
            deq_empty: Counter::new(),
            deq_retries: Counter::new(),
            occupancy_hwm: Counter::new(),
        }
    }
}

impl std::ops::Deref for SharedQueueCounters {
    type Target = QueueCounters;
    fn deref(&self) -> &QueueCounters {
        &self.0
    }
}

/// Handle-local accumulation folds into the shared block at least every
/// this many `enqueue`/`dequeue` calls, bounding how stale a snapshot
/// taken while handles are live can be. (Exact totals are guaranteed
/// once handles are dropped or `flush_metrics` has run.)
pub const LOCAL_FLUSH_PERIOD: u64 = 1024;

/// The hot half of [`QueueCounters`]: tallies carried by the per-thread
/// handle, so recording an operation is one plain add — no atomic RMW,
/// no shared cache line. Deltas fold into the [`SharedQueueCounters`]
/// block (where `metrics()` reads) on drop, on
/// [`flush`](LocalQueueCounters::flush), and every [`LOCAL_FLUSH_PERIOD`]
/// operations. With `obs` off this is a ZST and does nothing.
#[derive(Debug, Default)]
pub struct LocalQueueCounters {
    shared: SharedQueueCounters,
    since_flush: Counter,
    enq_attempts: Counter,
    enq_success: Counter,
    enq_full: Counter,
    enq_retries: Counter,
    deq_attempts: Counter,
    deq_success: Counter,
    deq_empty: Counter,
    deq_retries: Counter,
    occupancy_hwm: Counter,
}

impl LocalQueueCounters {
    #[inline]
    fn tick(&mut self) {
        if self.since_flush.bump() >= LOCAL_FLUSH_PERIOD {
            self.flush();
        }
    }

    /// An `enqueue` call was entered.
    #[inline]
    pub fn enq_attempt(&mut self) {
        self.enq_attempts.bump();
        self.tick();
    }

    /// An `enqueue` linearized at the given occupancy (post-increment).
    #[inline]
    pub fn enq_success(&mut self, occupancy: u64) {
        self.enq_success.bump();
        if let Some(hwm) = self.occupancy_hwm.0.local() {
            *hwm = (*hwm).max(occupancy);
        }
    }

    /// An `enqueue` was refused with `Full`.
    #[inline]
    pub fn enq_full(&mut self) {
        self.enq_full.bump();
    }

    /// An extra enqueue loop iteration (failed CAS / stale reload).
    #[inline]
    pub fn enq_retry(&mut self) {
        self.enq_retries.bump();
    }

    /// A `dequeue` call was entered.
    #[inline]
    pub fn deq_attempt(&mut self) {
        self.deq_attempts.bump();
        self.tick();
    }

    /// A `dequeue` returned an element.
    #[inline]
    pub fn deq_success(&mut self) {
        self.deq_success.bump();
    }

    /// A `dequeue` observed empty.
    #[inline]
    pub fn deq_empty(&mut self) {
        self.deq_empty.bump();
    }

    /// An extra dequeue loop iteration (failed CAS on `dequeues`).
    #[inline]
    pub fn deq_retry(&mut self) {
        self.deq_retries.bump();
    }

    /// Fold the accumulated deltas into the shared block and zero the
    /// locals. Relaxed `fetch_add`s — cold by construction.
    pub fn flush(&mut self) {
        let s: &QueueCounters = &self.shared;
        s.enq_attempts.add(self.enq_attempts.take());
        s.enq_success.add(self.enq_success.take());
        s.enq_full.add(self.enq_full.take());
        s.enq_retries.add(self.enq_retries.take());
        s.deq_attempts.add(self.deq_attempts.take());
        s.deq_success.add(self.deq_success.take());
        s.deq_empty.add(self.deq_empty.take());
        s.deq_retries.add(self.deq_retries.take());
        s.occupancy_hwm.record_max(self.occupancy_hwm.take());
        self.since_flush.take();
    }
}

/// Only the `obs` build has deltas to lose, so only it has drop glue.
#[cfg(feature = "obs")]
impl Drop for LocalQueueCounters {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Waiter-subsystem counters: one block per [`EventCount`](crate::EventCount)
/// (DESIGN.md §9), covering both the thread (blocking) and task (async)
/// clients.
#[cfg_attr(feature = "obs", repr(align(128)))]
#[derive(Debug, Default)]
pub struct WaitCounters {
    /// OS-thread parks (one per actual `cond.wait`).
    pub thread_parks: Counter,
    /// Thread wait rounds that the bounded spin ended: the generation
    /// moved inside the budget, so the round took no lock and no park.
    pub spin_wakes: Counter,
    /// Task-waker registrations that went pending (async parks).
    pub task_parks: Counter,
    /// `wake_all` calls that found announced waiters.
    pub wakes: Counter,
    /// Waiters actually woken/drained by those calls.
    pub woken: Counter,
    /// Wakes after which the waiter's re-attempt still failed.
    pub spurious_wakes: Counter,
    /// Timed waits that ended by deadline expiry.
    pub timeout_expiries: Counter,
    /// Park latency (ns from first park to wait completion), log2
    /// buckets. Timestamp-free (all samples 0) under `sim-explore`.
    pub park_ns: Hist32,
}

impl WaitCounters {
    /// A zeroed block.
    pub fn new() -> Self {
        WaitCounters::default()
    }

    /// Append this block's counters (and histogram buckets with nonzero
    /// counts, as `{prefix}park_ns_p2_{bits}`) to `snap` under `prefix`.
    /// With `obs` off nothing is appended.
    pub fn snapshot_into(&self, prefix: &str, snap: &mut MetricsSnapshot) {
        let counters = [
            ("thread_parks", &self.thread_parks),
            ("spin_wakes", &self.spin_wakes),
            ("task_parks", &self.task_parks),
            ("wakes", &self.wakes),
            ("woken", &self.woken),
            ("spurious_wakes", &self.spurious_wakes),
            ("timeout_expiries", &self.timeout_expiries),
        ];
        push_counters(prefix, snap, &counters);
        for (bits, n) in self.park_ns.buckets().into_iter().enumerate() {
            if n != 0 {
                snap.push(format!("{prefix}park_ns_p2_{bits}"), n);
            }
        }
    }
}

/// Scale-layer counters: one block per `ShardedQueue`. Per-shard
/// *refusal* counts are not duplicated here — the quarantine health
/// counter in `sharded.rs` is the one refusal mechanism (DESIGN.md §14)
/// and the snapshot reads it directly.
#[cfg_attr(feature = "obs", repr(align(128)))]
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Operations served by a non-home shard (work stealing).
    pub steals: Counter,
    /// Rotation-scan hops past the home shard (contention signal).
    pub rotations: Counter,
    /// Shards quarantined.
    pub quarantines: Counter,
}

impl ShardCounters {
    /// A zeroed block.
    pub fn new() -> Self {
        ShardCounters::default()
    }

    /// Append this block's counters to `snap` under `prefix`. With `obs`
    /// off nothing is appended.
    pub fn snapshot_into(&self, prefix: &str, snap: &mut MetricsSnapshot) {
        let counters = [
            ("steals", &self.steals),
            ("rotations", &self.rotations),
            ("quarantines", &self.quarantines),
        ];
        push_counters(prefix, snap, &counters);
    }
}

// ---------------------------------------------------------------------------
// MetricsSnapshot — the cold-path view (always compiled)
// ---------------------------------------------------------------------------

/// An ordered set of named counter readings: the uniform currency every
/// layer reports in — queue blocks, eventcounts, shard health, shm
/// per-process stats. Always compiled (it costs nothing until taken);
/// with `obs` off the in-process sources simply contribute zeros or
/// nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Append a reading. Names repeat at the caller's peril; `get`
    /// returns the first match.
    pub fn push(&mut self, name: impl Into<String>, value: u64) {
        self.entries.push((name.into(), value));
    }

    /// The reading for `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// All readings, in insertion order.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// No readings at all?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Delta arithmetic: this snapshot minus `earlier`, per name
    /// (saturating; names absent from `earlier` count from zero).
    /// High-watermark entries are still point-in-time values after a
    /// delta, but monotone counters become rates over the interval.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for (name, v) in &self.entries {
            let base = earlier.get(name).unwrap_or(0);
            out.push(name.clone(), v.saturating_sub(base));
        }
        out
    }

    /// Render as a JSON object (sibling of the `BENCH_*.json` artifacts;
    /// also available through the serde shim's `Serialize`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        serde::Serialize::write_json(self, &mut out);
        out
    }
}

impl serde::Serialize for MetricsSnapshot {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (name, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::escape_str(name, out);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push('}');
    }
}

impl fmt::Display for MetricsSnapshot {
    /// A two-column `name  value` table, insertion-ordered.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, v) in &self.entries {
            writeln!(f, "{name:<width$}  {v}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Trace ring — fixed-size binary events in a bounded deque
// ---------------------------------------------------------------------------

/// Trace event kinds recorded by the harnesses. A `u8` namespace; the
/// codec carries unknown kinds through unchanged, so harnesses can add
/// private kinds without breaking `trace:v1:` parsing.
pub mod trace_kind {
    /// A harness round started; `arg` = round number.
    pub const ROUND_START: u8 = 1;
    /// A fault plan was derived; `arg` = its seed.
    pub const PLAN_SEED: u8 = 2;
    /// A round completed; `arg` = operations/publications observed.
    pub const ROUND_OK: u8 = 3;
    /// An oracle or round failed; `arg` = round number.
    pub const FAIL: u8 = 4;
    /// A metrics snapshot was taken; `arg` = its entry count.
    pub const SNAPSHOT: u8 = 5;
}

/// Size of one encoded trace event: kind (1) + arg (8 LE) + stamp (8 LE).
pub const TRACE_EVENT_BYTES: usize = 17;

/// One fixed-size binary trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind (see [`trace_kind`]).
    pub kind: u8,
    /// Kind-specific argument.
    pub arg: u64,
    /// Process-local monotonic stamp (0 under `sim-explore`: explored
    /// schedules must not observe recording order).
    pub stamp: u64,
}

impl TraceEvent {
    /// Encode as [`TRACE_EVENT_BYTES`] little-endian bytes.
    pub fn encode(&self) -> [u8; TRACE_EVENT_BYTES] {
        let mut b = [0u8; TRACE_EVENT_BYTES];
        b[0] = self.kind;
        b[1..9].copy_from_slice(&self.arg.to_le_bytes());
        b[9..17].copy_from_slice(&self.stamp.to_le_bytes());
        b
    }

    /// Decode from [`TRACE_EVENT_BYTES`] bytes.
    pub fn decode(b: &[u8; TRACE_EVENT_BYTES]) -> TraceEvent {
        TraceEvent {
            kind: b[0],
            arg: u64::from_le_bytes(b[1..9].try_into().unwrap()),
            stamp: u64::from_le_bytes(b[9..17].try_into().unwrap()),
        }
    }
}

/// Next monotonic stamp. A process-local counter, never a wall clock:
/// artifacts must replay identically and sim builds must stay
/// deterministic (stamp 0 there).
fn next_stamp() -> u64 {
    static STAMP: AtomicU64 = AtomicU64::new(1);
    if cfg!(feature = "sim-explore") {
        return 0;
    }
    STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A bounded binary trace recorder: a deque of the most recent events
/// that drops the oldest when full, behind one mutex (recording happens
/// on harness control paths, not inside queue operations). Always
/// compiled — the hot-path cost question belongs to the counter blocks.
#[derive(Debug)]
pub struct TraceRing {
    events: parking_lot::Mutex<VecDeque<TraceEvent>>,
    cap: usize,
}

impl TraceRing {
    /// A ring holding the `events` most recent events (at least one).
    pub fn with_capacity(events: usize) -> TraceRing {
        let cap = events.max(1);
        TraceRing {
            events: parking_lot::Mutex::new(VecDeque::with_capacity(cap)),
            cap,
        }
    }

    /// Record one event, stamped; evicts the oldest event if full.
    pub fn record(&self, kind: u8, arg: u64) {
        let stamp = next_stamp();
        let mut events = self.events.lock();
        if events.len() == self.cap {
            events.pop_front();
        }
        events.push_back(TraceEvent { kind, arg, stamp });
    }

    /// Drain every recorded event, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.events.lock().drain(..).collect()
    }

    /// Drain and render the replayable one-line artifact.
    pub fn dump(&self) -> String {
        render_trace(&self.drain())
    }
}

/// Render events as the `trace:v1:` one-line hex artifact.
pub fn render_trace(events: &[TraceEvent]) -> String {
    let mut s = String::with_capacity(9 + events.len() * TRACE_EVENT_BYTES * 2);
    s.push_str("trace:v1:");
    for ev in events {
        for byte in ev.encode() {
            use fmt::Write;
            write!(s, "{byte:02x}").expect("write to String");
        }
    }
    s
}

/// A `trace:v1:` artifact failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadTrace(String);

impl fmt::Display for BadTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad trace artifact: {}", self.0)
    }
}

impl std::error::Error for BadTrace {}

/// Parse a `trace:v1:` artifact back into events. Round-trip contract:
/// `render_trace(&parse_trace(s)?) == s` for every valid artifact.
pub fn parse_trace(s: &str) -> Result<Vec<TraceEvent>, BadTrace> {
    let body = s
        .strip_prefix("trace:v1:")
        .ok_or_else(|| BadTrace(format!("missing trace:v1: prefix in {:?}", s.get(..32))))?;
    if body.len() % (TRACE_EVENT_BYTES * 2) != 0 {
        return Err(BadTrace(format!(
            "body length {} is not a multiple of {} hex chars",
            body.len(),
            TRACE_EVENT_BYTES * 2
        )));
    }
    let nibble = |c: u8| -> Result<u8, BadTrace> {
        (c as char)
            .to_digit(16)
            .map(|d| d as u8)
            .ok_or_else(|| BadTrace(format!("non-hex character {:?}", c as char)))
    };
    let raw = body.as_bytes();
    let mut events = Vec::with_capacity(body.len() / (TRACE_EVENT_BYTES * 2));
    for chunk in raw.chunks_exact(TRACE_EVENT_BYTES * 2) {
        let mut b = [0u8; TRACE_EVENT_BYTES];
        for (i, pair) in chunk.chunks_exact(2).enumerate() {
            b[i] = (nibble(pair[0])? << 4) | nibble(pair[1])?;
        }
        events.push(TraceEvent::decode(&b));
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_display_json() {
        let mut a = MetricsSnapshot::new();
        a.push("enq_attempts", 10);
        a.push("enq_success", 7);
        let mut b = MetricsSnapshot::new();
        b.push("enq_attempts", 25);
        b.push("enq_success", 19);
        b.push("helps", 3);
        let d = b.delta(&a);
        assert_eq!(d.get("enq_attempts"), Some(15));
        assert_eq!(d.get("enq_success"), Some(12));
        assert_eq!(d.get("helps"), Some(3), "absent-in-earlier counts from 0");
        assert_eq!(
            b.to_json(),
            r#"{"enq_attempts":25,"enq_success":19,"helps":3}"#
        );
        let table = b.to_string();
        assert!(table.contains("enq_attempts  25"), "{table}");
        assert!(MetricsSnapshot::new().is_empty());
    }

    #[test]
    fn hist_buckets_are_bit_lengths() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(1023), 10);
        assert_eq!(hist_bucket(1024), 11);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn trace_artifact_round_trips_byte_identically() {
        let ring = TraceRing::with_capacity(64);
        ring.record(trace_kind::ROUND_START, 0);
        ring.record(trace_kind::PLAN_SEED, 0xDEAD_BEEF);
        ring.record(trace_kind::ROUND_OK, 42);
        ring.record(trace_kind::FAIL, 7);
        let dump = ring.dump();
        assert!(dump.starts_with("trace:v1:"), "{dump}");
        let events = parse_trace(&dump).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].kind, trace_kind::PLAN_SEED);
        assert_eq!(events[1].arg, 0xDEAD_BEEF);
        // The acceptance contract: parse → replay-print is byte-identical.
        assert_eq!(render_trace(&events), dump);
    }

    #[test]
    fn trace_ring_drops_oldest_on_overflow() {
        let ring = TraceRing::with_capacity(4);
        for i in 0..64 {
            ring.record(trace_kind::ROUND_OK, i);
        }
        let events = ring.drain();
        assert!(!events.is_empty(), "recent window survives");
        assert!(events.len() < 64, "old events were evicted");
        // The survivors are the most recent args, contiguous and in order.
        let args: Vec<u64> = events.iter().map(|e| e.arg).collect();
        let first = args[0];
        let expect: Vec<u64> = (first..64).collect();
        assert_eq!(args, expect, "survivors are the newest suffix");
        assert_eq!(*args.last().unwrap(), 63);
    }

    #[test]
    fn malformed_trace_artifacts_are_rejected() {
        for bad in [
            "trace:v2:00",
            "00",
            "trace:v1:0",                                  // odd / short
            "trace:v1:zz000000000000000000000000000000zz", // non-hex, right length
        ] {
            assert!(parse_trace(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(parse_trace("trace:v1:").unwrap(), vec![]);
    }

    /// The zero-cost contract, mirroring `simx::layout_is_transparent`:
    /// with `obs` off every counter type is a ZST, so embedding the
    /// blocks in the queue structs changes neither size nor layout.
    #[cfg(not(feature = "obs"))]
    #[test]
    fn obs_off_counter_blocks_are_zero_sized() {
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<Hist32>(), 0);
        assert_eq!(std::mem::size_of::<QueueCounters>(), 0);
        assert_eq!(std::mem::size_of::<WaitCounters>(), 0);
        assert_eq!(std::mem::size_of::<ShardCounters>(), 0);
        assert_eq!(std::mem::size_of::<SharedQueueCounters>(), 0);
        assert_eq!(std::mem::size_of::<LocalQueueCounters>(), 0);
        assert!(!std::mem::needs_drop::<LocalQueueCounters>());
        assert!(!std::mem::needs_drop::<SharedQueueCounters>());
        let c = Counter::new();
        c.hit();
        c.add(5);
        c.record_max(9);
        assert_eq!(c.get(), 0, "no-op recording with obs off");
        let shared = SharedQueueCounters::new();
        let mut local = shared.local();
        local.enq_attempt();
        local.flush();
        let mut snap = MetricsSnapshot::new();
        shared.snapshot_into("", &mut snap);
        assert!(snap.is_empty(), "obs off: nothing recorded, nothing read");
    }

    /// Handle-local deltas become visible in the shared block on an
    /// explicit flush, on drop, and automatically after
    /// `LOCAL_FLUSH_PERIOD` operations — and never sooner than one of
    /// those (the visibility half of the hot-path-split contract).
    #[cfg(feature = "obs")]
    #[test]
    fn local_counters_fold_into_shared_on_flush_drop_and_period() {
        let shared = SharedQueueCounters::new();
        let mut local = shared.local();
        local.enq_attempt();
        local.enq_success(3);
        assert_eq!(shared.enq_success.get(), 0, "unflushed locals invisible");
        local.flush();
        assert_eq!(shared.enq_attempts.get(), 1);
        assert_eq!(shared.enq_success.get(), 1);
        assert_eq!(shared.occupancy_hwm.get(), 3);

        // Drop folds the tail in.
        let mut local2 = shared.local();
        local2.deq_attempt();
        local2.deq_empty();
        drop(local2);
        assert_eq!(shared.deq_attempts.get(), 1);
        assert_eq!(shared.deq_empty.get(), 1);

        // The periodic fold: after LOCAL_FLUSH_PERIOD attempts the
        // shared block has caught up without an explicit flush.
        let mut local3 = shared.local();
        for _ in 0..LOCAL_FLUSH_PERIOD {
            // Outcome recorded before the attempt tick: the periodic
            // fold fires inside `enq_attempt`, so this order makes the
            // final iteration's outcome part of the folded batch.
            local3.enq_full();
            local3.enq_attempt();
        }
        assert_eq!(shared.enq_attempts.get(), 1 + LOCAL_FLUSH_PERIOD);
        assert_eq!(shared.enq_full.get(), LOCAL_FLUSH_PERIOD);
    }

    /// With `obs` on the blocks live on their own cache-line pairs.
    #[cfg(feature = "obs")]
    #[test]
    fn obs_on_counter_blocks_are_padded_and_count() {
        assert_eq!(std::mem::align_of::<QueueCounters>(), 128);
        assert_eq!(std::mem::align_of::<WaitCounters>(), 128);
        assert_eq!(std::mem::align_of::<ShardCounters>(), 128);
        let c = Counter::new();
        c.hit();
        c.add(5);
        c.record_max(9);
        assert_eq!(c.get(), 9, "record_max saw 6 < 9");
        let h = Hist32::new();
        h.record(0);
        h.record(1000);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[10], 1);
        let q = QueueCounters::new();
        q.enq_attempts.add(3);
        let mut snap = MetricsSnapshot::new();
        q.snapshot_into("q.", &mut snap);
        assert_eq!(snap.get("q.enq_attempts"), Some(3));
        assert_eq!(snap.get("q.deq_empty"), Some(0));
    }
}
