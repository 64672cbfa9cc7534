//! The yield-point seam between the production queue code and the
//! `bq-sim` schedule explorer.
//!
//! Under the `sim-explore` feature, `bq-core` routes every shared atomic
//! access (and every lock/condvar transition of the waiter subsystem)
//! through the free functions in this crate **before and after** executing
//! the real operation. Each call consults a **thread-local** hook:
//!
//! * no hook installed (every production thread, every test outside the
//!   explorer): the call is a single thread-local check and returns
//!   immediately — behavior is unchanged;
//! * hook installed (a thread the explorer controls): the hook gets a
//!   chance to *pause the thread right here* and hand execution to another
//!   thread, which is exactly the capability a loom-style interleaving
//!   explorer needs ("poising" a thread before a primitive, in the
//!   vocabulary of the paper's Definition 3.5).
//!
//! The crate is dependency-free and carries no scheduling logic of its
//! own; the controller lives in `bq_sim::explore`. Keeping the seam in a
//! shim-level crate lets both `bq-core` and (potentially) other vendored
//! shims call into it without a dependency cycle on `bq-sim`.

#![deny(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering;

/// What kind of shared-memory primitive is about to run / just ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Atomic load; `observed` in [`Hook::after`] is the value read.
    Load,
    /// Atomic store of `operand`.
    Store,
    /// `compare_exchange(operand, operand2)`; `observed` is the old value
    /// (success iff `observed == operand`).
    Cas,
    /// `fetch_add(operand)` (subtraction encodes as two's-complement);
    /// `observed` is the old value.
    FetchAdd,
    /// Lock acquisition attempt on a mutex.
    LockAcq,
}

/// One shared access, identified by the primitive's address (`loc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Primitive kind.
    pub kind: Kind,
    /// Stable-within-an-execution identity: the address of the atomic /
    /// lock. The explorer normalizes this to a dense id by first touch.
    pub loc: usize,
    /// First operand (stored value / CAS expected / add delta).
    pub operand: u64,
    /// Second operand (CAS replacement), 0 otherwise.
    pub operand2: u64,
    /// The memory ordering the access runs with; a CAS's ordering when it
    /// succeeds, a lock acquisition's (`Acquire`) when it takes the lock.
    pub ord: Ordering,
    /// A CAS's ordering when it fails, a lock acquisition's when it does
    /// not take the lock; `ord` for every other kind.
    pub ord_fail: Ordering,
}

impl Access {
    /// An access with `SeqCst` orderings; [`ordered`](Self::ordered) sets
    /// others.
    pub fn new(kind: Kind, loc: usize, operand: u64, operand2: u64) -> Self {
        Access {
            kind,
            loc,
            operand,
            operand2,
            ord: Ordering::SeqCst,
            ord_fail: Ordering::SeqCst,
        }
    }

    /// The same access with orderings `ord` and, for a failing CAS,
    /// `ord_fail`.
    pub fn ordered(self, ord: Ordering, ord_fail: Ordering) -> Self {
        Access {
            ord,
            ord_fail,
            ..self
        }
    }
}

/// The explorer-side controller interface. All methods are called on the
/// explored thread itself; `before`, `block_mutex` and `cv_block` may
/// cooperatively suspend the calling thread until the scheduler grants it
/// the next step.
pub trait Hook {
    /// Called immediately before a shared access executes. This is the
    /// scheduling point: the hook may park the thread and run others.
    fn before(&self, a: &Access);

    /// Called immediately after the access, with the observed value
    /// (loaded value / CAS old value / RMW old value; the stored value
    /// for stores). The thread still holds the run token; no suspension.
    fn after(&self, a: &Access, observed: u64);

    /// The thread failed to acquire the mutex at `loc` (some suspended
    /// thread holds it). Suspend until a release makes a retry sensible.
    fn block_mutex(&self, loc: usize);

    /// The thread released the mutex at `loc` (runs inside guard drop —
    /// must not suspend and must not panic).
    fn mutex_released(&self, loc: usize);

    /// The thread is about to release the mutex and wait on condvar
    /// `loc`: record it as a waiter *before* the unlock so a notify in
    /// the unlock–wait window is not lost. Does not suspend.
    fn cv_announce(&self, loc: usize);

    /// Suspend until condvar `loc` is notified (or immediately return if
    /// a notification arrived since [`cv_announce`](Hook::cv_announce)).
    fn cv_block(&self, loc: usize);

    /// Timed variant of [`cv_block`](Hook::cv_block): the wait may end
    /// either because condvar `loc` was notified (return `true`) or
    /// because the deadline fired (return `false`). Under exploration
    /// there is no wall clock — whether the timeout fires is a
    /// *scheduling choice*, so the explorer can enumerate both the
    /// wake-first and the timeout-first interleavings. The default
    /// implementation degrades to an untimed block (timeouts never
    /// fire), which keeps old hooks source-compatible.
    fn cv_block_timed(&self, loc: usize) -> bool {
        self.cv_block(loc);
        true
    }

    /// `notify_all` on condvar `loc`. Does not suspend.
    fn cv_notify(&self, loc: usize);

    /// Did the store this thread's last load of `loc` returned already
    /// happen-before that load, not counting the load's own acquire? A
    /// `false` means a weaker execution than the explored one could have
    /// returned an older value. Not a scheduling point; the default (a
    /// hook that tracks no clocks) answers `true`.
    fn published(&self, loc: usize) -> bool {
        let _ = loc;
        true
    }
}

thread_local! {
    static HOOK: RefCell<Option<Rc<dyn Hook>>> = const { RefCell::new(None) };
}

/// Is a hook installed on the current thread?
#[inline]
pub fn hooked() -> bool {
    HOOK.with(|h| h.borrow().is_some())
}

fn current() -> Option<Rc<dyn Hook>> {
    HOOK.with(|h| h.borrow().clone())
}

/// Install `hook` on the current thread for the duration of `f`
/// (restored on unwind, so a panicking explored body cannot leak its
/// hook into the worker's next job).
pub fn with_hook<R>(hook: Rc<dyn Hook>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Rc<dyn Hook>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            HOOK.with(|h| *h.borrow_mut() = prev);
        }
    }
    let prev = HOOK.with(|h| h.borrow_mut().replace(hook));
    let _restore = Restore(prev);
    f()
}

/// Pre-access scheduling point. No-op without a hook.
#[inline]
pub fn before(a: &Access) {
    if let Some(h) = current() {
        h.before(a);
    }
}

/// Post-access observation report. No-op without a hook.
#[inline]
pub fn after(a: &Access, observed: u64) {
    if let Some(h) = current() {
        h.after(a, observed);
    }
}

/// Mutex acquisition failed; cooperatively wait for a release.
#[inline]
pub fn block_mutex(loc: usize) {
    if let Some(h) = current() {
        h.block_mutex(loc);
    }
}

/// Mutex released (called from guard drop).
#[inline]
pub fn mutex_released(loc: usize) {
    if let Some(h) = current() {
        h.mutex_released(loc);
    }
}

/// Announce intent to wait on a condvar (before the unlock).
#[inline]
pub fn cv_announce(loc: usize) {
    if let Some(h) = current() {
        h.cv_announce(loc);
    }
}

/// Cooperatively wait for a condvar notification.
#[inline]
pub fn cv_block(loc: usize) {
    if let Some(h) = current() {
        h.cv_block(loc);
    }
}

/// Cooperatively wait for a condvar notification *or* a timeout chosen
/// by the scheduler; `true` means notified, `false` means the deadline
/// fired. Without a hook this returns `true` immediately (the caller
/// falls back to its real timed wait).
#[inline]
pub fn cv_block_timed(loc: usize) -> bool {
    match current() {
        Some(h) => h.cv_block_timed(loc),
        None => true,
    }
}

/// Broadcast a condvar notification to explored waiters.
#[inline]
pub fn cv_notify(loc: usize) {
    if let Some(h) = current() {
        h.cv_notify(loc);
    }
}

/// The happens-before query of [`Hook::published`] for `loc`: `true`
/// without a hook.
#[inline]
pub fn published(loc: usize) -> bool {
    match current() {
        Some(h) => h.published(loc),
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct Counting(Cell<usize>);
    impl Hook for Counting {
        fn before(&self, _a: &Access) {
            self.0.set(self.0.get() + 1);
        }
        fn after(&self, _a: &Access, _o: u64) {}
        fn block_mutex(&self, _l: usize) {}
        fn mutex_released(&self, _l: usize) {}
        fn cv_announce(&self, _l: usize) {}
        fn cv_block(&self, _l: usize) {}
        fn cv_notify(&self, _l: usize) {}
    }

    #[test]
    fn no_hook_is_a_noop() {
        assert!(!hooked());
        before(&Access::new(Kind::Load, 1, 0, 0));
        after(&Access::new(Kind::Load, 1, 0, 0), 7);
        assert!(published(1));
    }

    #[test]
    fn orderings_default_to_seqcst() {
        let a = Access::new(Kind::Cas, 3, 1, 2);
        assert_eq!((a.ord, a.ord_fail), (Ordering::SeqCst, Ordering::SeqCst));
        let r = a.ordered(Ordering::Release, Ordering::Relaxed);
        assert_eq!((r.ord, r.ord_fail), (Ordering::Release, Ordering::Relaxed));
        assert_eq!((r.kind, r.loc, r.operand, r.operand2), (Kind::Cas, 3, 1, 2));
    }

    #[test]
    fn with_hook_installs_and_restores() {
        let h = Rc::new(Counting(Cell::new(0)));
        let h2 = Rc::clone(&h);
        with_hook(h2, || {
            assert!(hooked());
            before(&Access::new(Kind::Store, 2, 5, 0));
            before(&Access::new(Kind::Cas, 2, 5, 6));
        });
        assert!(!hooked());
        assert_eq!(h.0.get(), 2);
    }

    #[test]
    fn hook_restored_on_unwind() {
        let h: Rc<dyn Hook> = Rc::new(Counting(Cell::new(0)));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_hook(Rc::clone(&h), || panic!("boom"));
        }));
        assert!(r.is_err());
        assert!(!hooked(), "hook must not leak past an unwinding scope");
    }
}
