//! The **waiter subsystem**: a reusable eventcount that parks OS threads
//! *and* async tasks on the same wake generations. The announce →
//! snapshot → re-attempt → park protocol is not queue-specific, so it
//! lives here once: [`BlockingQueue`](crate::BlockingQueue) and
//! [`AsyncQueue`](crate::AsyncQueue) are thin clients of one
//! [`EventCount`] per wait direction.
//!
//! ## The protocol
//!
//! An eventcount separates the *condition* ("the queue has space") from
//! the *notification* ("a transition that could create space happened").
//! The condition is re-checked by the waiter itself; the eventcount only
//! guarantees that no notification is lost between the waiter's last
//! failed check and its going to sleep:
//!
//! 1. a waiter **announces** itself (`waiters += 1`, or for a task:
//!    registers its waker in the list under the gate lock, which also
//!    bumps `waiters`), snapshots the **generation**, **re-attempts** the
//!    operation, and only then parks — a thread first **spins** on the
//!    generation for a bounded budget (below), then parks only if the
//!    generation is still unchanged under the gate lock; a task simply
//!    returns `Pending`, its waker already registered;
//! 2. a notifier that completes a state transition checks `waiters`;
//!    when non-zero it bumps the generation, and only if a **sleeper** is
//!    counted — a thread inside the gate for its locked re-check and
//!    park, or a registered waker — does it take the gate lock, drain
//!    and wake every registered waker, and notify the condvar.
//!
//! If the transition lands before the waiter's announcement, the
//! waiter's re-attempt (which follows the announcement) observes it. If
//! it lands after, the notifier is guaranteed to see `waiters > 0` and
//! bump the generation. A spinning thread sees the bump and needs
//! nothing else. A sleeper counts itself in `sleepers` *before* it loads
//! the generation, and the notifier loads `sleepers` *after* its bump —
//! a Dekker pair, all `SeqCst` — so either the sleeper sees the bump and
//! does not sleep, or the notifier sees the sleeper and takes the gate,
//! which a thread holds until the moment it sleeps and a registration
//! holds until its waker is in the list. Either way no wake is lost, no
//! wait polls on a timer, the uncontended notifier fast path is one
//! atomic load (`waiters == 0`), and a wake that finds only spinners is
//! one `fetch_add` and two loads: no lock, no condvar syscall.
//!
//! ## Spin, then park
//!
//! Between the announced re-attempt and the park, a thread watches the
//! generation word for at most `SPIN_BUDGET` iterations — about as long
//! as one park + wake hop costs, the classic bound. The spinner is
//! already announced, so a notifier that lands in the window *must* bump
//! the word being watched; when it does, the waiter un-announces and
//! goes round again (announce → snapshot → re-attempt) without touching
//! the gate lock or the condvar. When the budget runs out, the locked
//! re-check and the park follow exactly as before, so every ordering
//! argument above still holds: the spin only adds reads of a word the
//! protocol already reads. A spinner is announced but not a sleeper, so
//! the notifier that ends its spin skips the gate too: a hand-off
//! between two *running* threads costs a cache-line transfer, not two
//! futex sleeps and not a lock and a syscall on the notifier's side. The
//! spin watches the word rather than calling `attempt` again: an attempt
//! is a queue operation (for a boxed send, an allocation) that contends
//! with the very peer being waited for. Tasks never spin — an executor
//! thread has other tasks to run.
//!
//! A wait may carry a [`TimeLimit`]. It is a *parameter* of the one
//! thread loop ([`EventCount::wait`]), not a second loop: the limit
//! decides only which condvar wait the park step is, and a waiter whose
//! deadline fires makes one final attempt before reporting expiry. The
//! clock is read only on the way into a park, i.e. *after* that round's
//! spin: a deadline can be overshot by at most one budget (≈ 15 µs), and
//! a relative timeout starts counting when the first spin has run out.
//! (As before the spin, a round that a wake ends re-checks the
//! condition, not the clock: the deadline is looked at when a round
//! reaches the park.)
//!
//! Wakes are deliberately **broadcast** (notify-all + drain-all-wakers):
//! a woken waiter that no longer wants the event — e.g. a cancelled
//! `recv` future dropped mid-wait — can therefore never have swallowed a
//! wake another waiter needed. The cost is thundering-herd re-attempts
//! under heavy waiting, which the bounded-queue façades accept for the
//! stronger cancellation-safety guarantee.
//!
//! The waiter list is a flat `Vec<(id, Waker)>` under the gate lock
//! rather than an intrusive linked list: entries exist only while a task
//! is between registration and wake/cancel, so the list length is
//! bounded by the number of concurrently waiting tasks, and removal is
//! an O(waiting) scan + `swap_remove` — negligible next to the park it
//! replaces, with no `unsafe` pinning contract.

use std::sync::atomic::Ordering;
use std::task::Waker;
use std::time::{Duration, Instant};

use crate::obs::{MetricsSnapshot, WaitCounters};
use crate::simx::{SimAtomicU64, SimAtomicUsize, SimCondvar, SimMutex};

/// Identifies one registered waker within an [`EventCount`]'s waiter
/// list. Returned by [`EventCount::register`]; pass it back to
/// [`EventCount::deregister`] when the wait is cancelled or satisfied.
/// Ids are never reused, so deregistering after the waker was already
/// drained by a wake is a harmless no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaiterId(u64);

/// Async waiter list: lives under the gate lock. See module docs for why
/// this is a flat vec rather than an intrusive list.
struct WaiterList {
    next_id: u64,
    entries: Vec<(u64, Waker)>,
}

/// A wake-generation eventcount parking both threads and tasks.
///
/// One `EventCount` represents one *direction* of waiting (e.g. "not
/// full" or "not empty"); the thing waited for is expressed as the
/// caller's `attempt` closure / poll body, not stored here.
pub struct EventCount {
    gate: SimMutex<WaiterList>,
    cond: SimCondvar,
    /// Wake generation: bumped (without the gate) on every notification
    /// that finds `waiters > 0`.
    generation: SimAtomicU64,
    /// Number of waiters between announcement and un-announcement —
    /// threads in their re-attempt, spin or park, plus registered
    /// wakers. Zero means a wake has nobody to tell.
    waiters: SimAtomicUsize,
    /// The part of `waiters` the generation bump alone does not reach:
    /// threads inside the gate for the locked re-check and park, plus
    /// registered wakers. Zero means a wake needs no gate and no condvar.
    sleepers: SimAtomicUsize,
    /// Waiter statistics (DESIGN.md §14); a ZST with `obs` off. Purely
    /// observational: nothing in the protocol above reads it.
    obs: WaitCounters,
}

/// Whether [`ParkTimer`] reads the clock: only with `obs` on, and never
/// under `sim-explore`.
const PARK_CLOCK: bool = cfg!(all(feature = "obs", not(feature = "sim-explore")));

/// Lazily-armed park-latency timer: the clock is read only when a park
/// actually happens, and only when [`PARK_CLOCK`] is set — so the
/// success path stays clock-free (the E16 property) and explored
/// schedules stay deterministic (samples are 0 there). Otherwise it is
/// never armed, and the optimizer deletes it.
struct ParkTimer {
    start: Option<Instant>,
}

impl ParkTimer {
    fn new() -> ParkTimer {
        ParkTimer { start: None }
    }

    /// Called at the first actual park.
    #[inline]
    fn arm(&mut self) {
        if PARK_CLOCK && self.start.is_none() {
            self.start = Some(Instant::now());
        }
    }

    /// Nanoseconds since the first park (0 when never armed).
    #[inline]
    fn elapsed_ns(&self) -> u64 {
        match self.start {
            Some(s) if PARK_CLOCK => s.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            _ => 0,
        }
    }
}

/// Iterations (one generation load + one CPU relax hint each) a thread
/// watches the generation before parking: ≈ 15 µs at the 14–16
/// ns/iteration measured on the reference host, about the cost of the
/// park + wake hop it can save (DESIGN.md §9.1 has the sweep). Under
/// `sim-explore` the budget is 1, so the explorer enumerates both exits
/// of the spin while the schedule tree stays bounded.
const SPIN_BUDGET: u32 = if cfg!(feature = "sim-explore") {
    1
} else {
    1024
};

impl EventCount {
    /// A fresh eventcount at generation 0 with no waiters.
    pub fn new() -> Self {
        EventCount {
            gate: SimMutex::new(WaiterList {
                next_id: 0,
                entries: Vec::new(),
            }),
            cond: SimCondvar::new(),
            generation: SimAtomicU64::new(0),
            waiters: SimAtomicUsize::new(0),
            sleepers: SimAtomicUsize::new(0),
            obs: WaitCounters::new(),
        }
    }

    /// Append this eventcount's waiter statistics to `snap` under
    /// `prefix` (DESIGN.md §14). Nothing is appended with `obs` off.
    pub fn snapshot_into(&self, prefix: &str, snap: &mut MetricsSnapshot) {
        self.obs.snapshot_into(prefix, snap);
    }

    /// Current wake generation. A waiter snapshots this before its final
    /// re-attempt; a changed value means a wake has been published since.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Notifier half: publish a wake to every current waiter. Call after
    /// completing a state transition that could satisfy this direction.
    ///
    /// Fast path: one atomic load when nobody is waiting; the bump alone
    /// when every waiter is spinning.
    pub fn wake_all(&self) {
        let waiters = self.waiters.load(Ordering::SeqCst);
        if waiters == 0 {
            return;
        }
        self.obs.wakes.hit();
        self.generation.fetch_add(1, Ordering::SeqCst);
        // Everyone announced when `waiters` was loaded (spinners, parked
        // threads, listed wakers) is woken by the bump or the broadcast
        // below. The count reuses that load: a counter makes no access
        // of its own (DESIGN.md §14.5).
        self.obs.woken.add(waiters as u64);
        // The notifier half of the Dekker pair: a sleeper that loaded the
        // generation before the bump counted itself first, so it is seen
        // here, and it holds the gate until it sleeps or is listed.
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let drained: Vec<Waker> = {
            let mut list = self.gate.lock();
            if list.entries.is_empty() {
                Vec::new()
            } else {
                // Each drained waker leaves the announced state, so both
                // counts drop here (its owner must not double-decrement:
                // `deregister` only acts on present entries).
                let n = list.entries.len();
                self.waiters.fetch_sub(n, Ordering::SeqCst);
                self.sleepers.fetch_sub(n, Ordering::SeqCst);
                list.entries.drain(..).map(|(_, w)| w).collect()
            }
        };
        self.cond.notify_all();
        // Wakers run arbitrary executor code — never under the gate lock.
        for w in drained {
            w.wake();
        }
    }

    /// Thread-parking waiter half, the **one wait loop**: run `attempt`
    /// until it returns `Some(r)` or `limit` passes, parking between
    /// failed attempts with the announce → snapshot → re-attempt →
    /// spin → park-if-unchanged protocol. Returns `None` on expiry —
    /// after one final attempt, so a transition racing the deadline is
    /// still taken, never dropped on the floor.
    ///
    /// The limit decides one step only: which condvar wait the park is.
    /// Every instrumented access around it is the same with and without
    /// a deadline, and a relative [`Timeout`](TimeLimit::Timeout) is
    /// pinned to the clock at the **first park** (after that round's
    /// spin), so an operation that succeeds without parking never reads
    /// it (the E16 property).
    pub fn wait<R>(
        &self,
        mut limit: TimeLimit,
        mut attempt: impl FnMut() -> Option<R>,
    ) -> Option<R> {
        if let Some(r) = attempt() {
            return Some(r);
        }
        let mut timer = ParkTimer::new();
        let mut parked = false;
        let result = loop {
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let gen = self.generation.load(Ordering::SeqCst);
            // Re-attempt after announcing: closes the race with a
            // notifier that read `waiters` before our increment. An
            // attempt that unwinds un-announces through the guard; every
            // other exit below does it itself.
            let announced = Unannounce(&self.waiters);
            let retried = attempt();
            std::mem::forget(announced);
            if let Some(r) = retried {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                break Some(r);
            }
            if parked {
                // We were woken (or skipped a park on a stale generation)
                // and the condition is still false.
                self.obs.spurious_wakes.hit();
            }
            // Spin, then park: we are announced, so any notifier from
            // here on must bump the word we watch. A bump inside the
            // budget ends the round with no gate lock and no sleep.
            let mut spins = 0;
            while spins < SPIN_BUDGET && self.generation.load(Ordering::SeqCst) == gen {
                std::hint::spin_loop();
                spins += 1;
            }
            if spins < SPIN_BUDGET {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                self.obs.spin_wakes.hit();
                continue;
            }
            // The single place the clock is read, and only at the first
            // park: later rounds find the limit already pinned.
            let deadline = limit.deadline();
            let woke = {
                let mut guard = self.gate.lock();
                // The sleeper half of the Dekker pair: counted before the
                // re-check, so a notifier whose bump this load misses
                // sees us and waits for the gate, which we hold until
                // the condvar has us.
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                let woke = if self.generation.load(Ordering::SeqCst) != gen {
                    true
                } else {
                    self.obs.thread_parks.hit();
                    timer.arm();
                    parked = true;
                    match deadline {
                        Some(at) => self.cond.wait_deadline(&mut guard, at),
                        None => {
                            self.cond.wait(&mut guard);
                            true
                        }
                    }
                };
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                woke
            };
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            if !woke {
                // Deadline fired: one final attempt, then report expiry.
                self.obs.timeout_expiries.hit();
                break attempt();
            }
        };
        if parked {
            self.obs.park_ns.record(timer.elapsed_ns());
        }
        result
    }

    /// [`wait`](Self::wait) with no limit: parks until `attempt` succeeds.
    pub fn wait_until<R>(&self, attempt: impl FnMut() -> Option<R>) -> R {
        self.wait(TimeLimit::Forever, attempt)
            .expect("a wait without a limit ends only when the attempt succeeds")
    }

    /// Task-parking announcement: register `waker` against generation
    /// `gen` (a value previously read via [`generation`](Self::generation)).
    ///
    /// Returns `None` — without registering — when the generation has
    /// already moved past `gen`: a wake was published since the caller's
    /// snapshot, so it should re-attempt its operation instead of
    /// sleeping. On `Some(id)`, the waker is in the list and counted in
    /// `waiters` and `sleepers`; the caller must make **one more
    /// attempt** before returning `Pending` (the announce-then-re-attempt
    /// step of the protocol), and must [`deregister`](Self::deregister)
    /// on success or cancellation.
    pub fn register(&self, gen: u64, waker: &Waker) -> Option<WaiterId> {
        let mut list = self.gate.lock();
        // Counted before the stale-snapshot check, the parking thread's
        // rule: a notifier whose bump the load misses takes the gate
        // after the waker is listed. (For a task the re-attempt after
        // `register` covers that wake as well; DESIGN.md §9.1.)
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.generation.load(Ordering::SeqCst) != gen {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        let id = list.next_id;
        list.next_id += 1;
        list.entries.push((id, waker.clone()));
        self.waiters.fetch_add(1, Ordering::SeqCst);
        self.obs.task_parks.hit();
        Some(WaiterId(id))
    }

    /// Remove a registered waker (wait satisfied without a wake, or the
    /// future was dropped mid-wait). No-op if a wake already drained it —
    /// ids are unique forever, so this can never remove a later waiter.
    pub fn deregister(&self, id: WaiterId) {
        let mut list = self.gate.lock();
        if let Some(pos) = list.entries.iter().position(|(i, _)| *i == id.0) {
            list.entries.swap_remove(pos);
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Number of currently registered (not yet woken) wakers.
    /// Instrumentation/tests: the cancellation-safety suite asserts this
    /// returns to zero after dropping pending futures.
    pub fn registered_wakers(&self) -> usize {
        self.gate.lock().entries.len()
    }

    /// Number of announced waiters (threads + tasks) not yet un-parked.
    pub fn waiter_count(&self) -> usize {
        self.waiters.load(Ordering::SeqCst)
    }

    /// Number of counted sleepers: threads inside the gate for the
    /// locked re-check and park, plus registered wakers. Tests: every
    /// quiescence check that reads [`waiter_count`](Self::waiter_count)
    /// reads this too.
    #[doc(hidden)]
    pub fn sleeper_count(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }
}

/// Un-announces one waiter when dropped: armed around the announced
/// re-attempt, so an `attempt` that unwinds does not leave `waiters`
/// raised for the eventcount's life. The normal path disarms it with
/// `mem::forget` and un-announces where the protocol says.
struct Unannounce<'a>(&'a SimAtomicUsize);

impl Drop for Unannounce<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Default for EventCount {
    fn default() -> Self {
        EventCount::new()
    }
}

/// How long a wait may run — the one time-limit type of the waiting
/// stack, taken by [`EventCount::wait`] and by every `*_within` method of
/// both façades (an `Instant` or a `Duration` converts into it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeLimit {
    /// No limit: wait until the operation completes or the queue closes.
    Forever,
    /// Give up at this instant.
    Deadline(Instant),
    /// Give up this long after the **first park**: an operation that
    /// never parks never reads the clock.
    Timeout(Duration),
}

impl TimeLimit {
    /// The instant this limit expires at; `None` for `Forever`. The
    /// first call pins a `Timeout` in place to `Deadline(now + d)` — the
    /// only clock read a limit ever causes.
    pub fn deadline(&mut self) -> Option<Instant> {
        if let TimeLimit::Timeout(d) = *self {
            *self = TimeLimit::Deadline(Instant::now() + d);
        }
        match *self {
            TimeLimit::Deadline(at) => Some(at),
            _ => None,
        }
    }
}

impl From<Instant> for TimeLimit {
    fn from(deadline: Instant) -> Self {
        TimeLimit::Deadline(deadline)
    }
}

impl From<Duration> for TimeLimit {
    fn from(timeout: Duration) -> Self {
        TimeLimit::Timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::task::Wake;

    struct Flag(AtomicBool);

    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    fn flag_waker() -> (Arc<Flag>, Waker) {
        let f = Arc::new(Flag(AtomicBool::new(false)));
        (Arc::clone(&f), Waker::from(Arc::clone(&f)))
    }

    #[test]
    fn wake_with_no_waiters_is_free_and_bumps_nothing() {
        let ec = EventCount::new();
        let g = ec.generation();
        ec.wake_all();
        assert_eq!(ec.generation(), g, "no waiters: no generation bump");
    }

    #[test]
    fn register_then_wake_calls_waker_and_drains() {
        let ec = EventCount::new();
        let (flag, waker) = flag_waker();
        let gen = ec.generation();
        let id = ec.register(gen, &waker).expect("fresh generation");
        assert_eq!(ec.registered_wakers(), 1);
        assert_eq!(ec.waiter_count(), 1);
        ec.wake_all();
        assert!(flag.0.load(Ordering::SeqCst), "waker fired");
        assert_eq!(ec.registered_wakers(), 0, "drained");
        assert_eq!(ec.waiter_count(), 0);
        // Late deregister of an already-drained id is a no-op.
        ec.deregister(id);
        assert_eq!(ec.waiter_count(), 0);
    }

    #[test]
    fn stale_generation_refuses_registration() {
        let ec = EventCount::new();
        let (flag, waker) = flag_waker();
        let gen = ec.generation();
        // Need an announced waiter for the wake to bump the generation.
        let id = ec.register(gen, &waker).unwrap();
        ec.wake_all();
        assert!(
            ec.register(gen, &waker).is_none(),
            "a wake was published since the snapshot: caller must re-attempt"
        );
        assert_eq!(ec.registered_wakers(), 0);
        ec.deregister(id);
        // A fresh snapshot registers fine.
        let id2 = ec.register(ec.generation(), &waker).unwrap();
        ec.deregister(id2);
        assert_eq!(ec.waiter_count(), 0);
        let _ = flag;
    }

    #[test]
    fn deregister_removes_exactly_one_waiter() {
        let ec = EventCount::new();
        let (_f1, w1) = flag_waker();
        let (f2, w2) = flag_waker();
        let id1 = ec.register(ec.generation(), &w1).unwrap();
        let _id2 = ec.register(ec.generation(), &w2).unwrap();
        assert_eq!(ec.registered_wakers(), 2);
        ec.deregister(id1);
        assert_eq!(ec.registered_wakers(), 1);
        assert_eq!(ec.waiter_count(), 1);
        // The remaining waiter still gets woken (a cancelled waiter never
        // swallows a wake: broadcasting is part of the contract).
        ec.wake_all();
        assert!(f2.0.load(Ordering::SeqCst));
        assert_eq!(ec.waiter_count(), 0);
    }

    #[test]
    fn threads_and_tasks_share_one_generation() {
        let ec = Arc::new(EventCount::new());
        let go = Arc::new(AtomicBool::new(false));
        let (flag, waker) = flag_waker();
        ec.register(ec.generation(), &waker).unwrap();
        let t = {
            let ec = Arc::clone(&ec);
            let go = Arc::clone(&go);
            std::thread::spawn(move || {
                ec.wait_until(|| go.load(Ordering::SeqCst).then_some(()));
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        go.store(true, Ordering::SeqCst);
        ec.wake_all();
        t.join().unwrap();
        assert!(
            flag.0.load(Ordering::SeqCst),
            "the same wake that unparked the thread fired the waker"
        );
        assert_eq!(ec.waiter_count(), 0);
    }

    #[test]
    fn wait_until_immediate_success_never_announces() {
        let ec = EventCount::new();
        assert_eq!(ec.wait_until(|| Some(7)), 7);
        assert_eq!(ec.waiter_count(), 0);
    }

    #[test]
    fn wait_until_timeout_expires_and_reattempts_once() {
        let ec = EventCount::new();
        let mut calls = 0u32;
        let start = Instant::now();
        let r = ec.wait(Duration::from_millis(30).into(), || {
            calls += 1;
            None::<()>
        });
        assert!(r.is_none(), "condition never became true");
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(calls >= 3, "initial, post-announce, and final attempts");
        assert_eq!(ec.waiter_count(), 0);
    }

    #[test]
    fn wait_until_deadline_tolerates_spurious_wakes() {
        // A wake that satisfies nothing (the condition stays false) must
        // neither return a bogus success nor wedge the loop: the waiter
        // re-parks and eventually times out.
        let ec = Arc::new(EventCount::new());
        let t = {
            let ec = Arc::clone(&ec);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_millis(80);
                ec.wait(deadline.into(), || None::<()>)
            })
        };
        while ec.waiter_count() == 0 {
            std::thread::yield_now();
        }
        ec.wake_all(); // spurious: nothing changed
        assert!(t.join().unwrap().is_none(), "timed out despite the wake");
        assert_eq!(ec.waiter_count(), 0);
    }

    /// DESIGN.md §14: the waiter statistics observe the protocol without
    /// participating in it.
    #[cfg(feature = "obs")]
    #[test]
    fn wait_statistics_count_parks_timeouts_and_registrations() {
        let ec = EventCount::new();
        // A task registration is a task park.
        let (_f, w) = flag_waker();
        let id = ec.register(ec.generation(), &w).unwrap();
        ec.deregister(id);
        // A timed wait that never succeeds parks and expires.
        let r = ec.wait(Duration::from_millis(5).into(), || None::<()>);
        assert!(r.is_none());
        let mut snap = MetricsSnapshot::new();
        ec.snapshot_into("ec.", &mut snap);
        assert_eq!(snap.get("ec.task_parks"), Some(1));
        assert_eq!(snap.get("ec.timeout_expiries"), Some(1));
        assert!(snap.get("ec.thread_parks").unwrap() >= 1);
        // The park latency histogram recorded exactly the parked waits.
        let hist_total: u64 = snap
            .entries()
            .iter()
            .filter(|(n, _)| n.starts_with("ec.park_ns_p2_"))
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(hist_total, 1, "one completed parked wait, one sample");
    }

    fn snapshot(ec: &EventCount) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        ec.snapshot_into("ec.", &mut snap);
        snap
    }

    /// CPU time this thread has consumed so far.
    fn thread_cpu() -> Duration {
        let mut ts = libc::timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the thread CPU clock is readable");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }

    #[test]
    fn spin_is_bounded_a_hopeless_wait_parks_and_burns_no_cpu() {
        let ec = EventCount::new();
        let (start, cpu_start) = (Instant::now(), thread_cpu());
        let r = ec.wait(Duration::from_millis(50).into(), || None::<()>);
        let (waited, burnt) = (start.elapsed(), thread_cpu() - cpu_start);
        assert!(r.is_none(), "condition never became true");
        assert!(
            waited >= Duration::from_millis(50),
            "returned at {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(5),
            "woke far too late: {waited:?}"
        );
        assert!(
            burnt < Duration::from_millis(5),
            "a 50 ms wait spent {burnt:?} on the CPU: the spin is not bounded"
        );
        assert_eq!(ec.waiter_count(), 0);
        if cfg!(feature = "obs") {
            let snap = snapshot(&ec);
            assert!(snap.get("ec.thread_parks").unwrap() >= 1, "{snap}");
            assert_eq!(snap.get("ec.spin_wakes"), Some(0), "{snap}");
        }
    }

    #[test]
    fn wake_caught_by_the_spin_unannounces_without_parking() {
        // The announced re-attempt publishes a wake itself, so the spin's
        // first load is guaranteed to see the generation moved: the round
        // must leave through the spin, un-announced, and go round again.
        let ec = EventCount::new();
        let mut calls = 0;
        let r = ec.wait_until(|| {
            calls += 1;
            if calls == 2 {
                assert_eq!(ec.waiter_count(), 1, "re-attempt runs announced");
                ec.wake_all();
            }
            (calls == 3).then_some(calls)
        });
        assert_eq!(r, 3, "initial, announced, and post-spin attempts");
        assert_eq!(ec.waiter_count(), 0, "the spin exit un-announced");
        let gen = ec.generation();
        ec.wake_all();
        assert_eq!(ec.generation(), gen, "nobody announced: one-load path");
        if cfg!(feature = "obs") {
            let snap = snapshot(&ec);
            assert_eq!(snap.get("ec.spin_wakes"), Some(1), "{snap}");
            assert_eq!(snap.get("ec.thread_parks"), Some(0), "{snap}");
            assert_eq!(snap.get("ec.spurious_wakes"), Some(0), "{snap}");
        }
    }

    #[test]
    fn wake_to_a_spinner_alone_skips_the_gate() {
        // The announced re-attempt is a waiter with `waiters` 1 and
        // `sleepers` 0. While it holds the gate, a wake from another
        // thread must still return — it bumps and leaves — and the spin
        // that follows sees the bump.
        let ec = EventCount::new();
        let mut calls = 0;
        ec.wait_until(|| {
            calls += 1;
            if calls == 2 {
                assert_eq!((ec.waiter_count(), ec.sleeper_count()), (1, 0));
                let gen = ec.generation();
                let gate = ec.gate.lock();
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::scope(|s| {
                    s.spawn(|| {
                        ec.wake_all();
                        tx.send(()).unwrap();
                    });
                    let returned = rx.recv_timeout(Duration::from_secs(10));
                    drop(gate);
                    returned.expect("wake_all waited for a gate no sleeper needed");
                });
                assert_eq!(ec.generation(), gen + 1, "the bump was published");
            }
            (calls == 3).then_some(())
        });
        assert_eq!((ec.waiter_count(), ec.sleeper_count()), (0, 0));
    }

    /// Every way out of the sleeper count gives back what it took.
    #[test]
    fn sleepers_return_to_zero_after_every_exit() {
        type Case = fn(&EventCount);
        let cases: [(&str, Case); 6] = [
            ("spin exit", |ec| {
                let mut calls = 0;
                ec.wait_until(|| {
                    calls += 1;
                    if calls == 2 {
                        ec.wake_all();
                    }
                    (calls == 3).then_some(())
                });
            }),
            ("park, then a wake", |ec| {
                let go = AtomicBool::new(false);
                std::thread::scope(|s| {
                    s.spawn(|| ec.wait_until(|| go.load(Ordering::SeqCst).then_some(())));
                    while ec.sleeper_count() == 0 {
                        std::thread::yield_now();
                    }
                    go.store(true, Ordering::SeqCst);
                    ec.wake_all();
                });
            }),
            ("park, then a timeout", |ec| {
                assert!(ec
                    .wait(Duration::from_millis(5).into(), || None::<()>)
                    .is_none());
            }),
            ("refused register", |ec| {
                let (_f, w) = flag_waker();
                let gen = ec.generation();
                let id = ec.register(gen, &w).unwrap();
                ec.wake_all();
                assert!(ec.register(gen, &w).is_none(), "stale snapshot");
                ec.deregister(id);
            }),
            ("deregister", |ec| {
                let (_f, w) = flag_waker();
                let id = ec.register(ec.generation(), &w).unwrap();
                assert_eq!(ec.sleeper_count(), 1);
                ec.deregister(id);
            }),
            ("drain by wake_all", |ec| {
                let (f, w) = flag_waker();
                ec.register(ec.generation(), &w).unwrap();
                ec.wake_all();
                assert!(f.0.load(Ordering::SeqCst), "the drain woke it");
            }),
        ];
        for (name, run) in cases {
            let ec = EventCount::new();
            run(&ec);
            assert_eq!(
                (
                    ec.waiter_count(),
                    ec.sleeper_count(),
                    ec.registered_wakers()
                ),
                (0, 0, 0),
                "{name}"
            );
        }
    }

    #[test]
    fn wait_until_deadline_takes_a_late_transition_over_timeout() {
        // The final post-timeout attempt: a transition racing the
        // deadline is still taken, never dropped on the floor.
        let ec = EventCount::new();
        let mut first = true;
        let r = ec.wait(Instant::now().into(), || {
            if first {
                first = false;
                None
            } else {
                Some(42)
            }
        });
        assert_eq!(r, Some(42));
    }
}
