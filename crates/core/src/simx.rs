//! Schedule-exploration instrumentation layer (DESIGN.md §11).
//!
//! The types here are drop-in stand-ins for the `std::sync::atomic` types
//! and the `parking_lot` lock/condvar that `bq-core`'s concurrent
//! algorithms use on their **shared** hot paths. They come in two builds:
//!
//! * default (no `sim-explore` feature): `#[inline]` pass-throughs — the
//!   wrappers compile to exactly the underlying primitive, and
//!   `#[repr(transparent)]` keeps every relocatable layout byte-stable;
//! * with the `sim-explore` feature: every operation is bracketed by
//!   `simyield` hook calls, and the `simyield::Access` it reports carries
//!   the operation's `Ordering` (both of a CAS's). On threads without an
//!   installed hook
//!   (everything outside the explorer) the bracket is one thread-local
//!   check; on explorer-controlled threads it is a cooperative
//!   scheduling point, which is how `bq_sim::explore` enumerates
//!   interleavings of the *real* queue code.
//!
//! Only shared-communication primitives are instrumented. Deliberately
//! uninstrumented (documented honest limits, DESIGN.md §11.4): the epoch
//! reclamation engine's internal atomics, diagnostic counters (e.g.
//! `SegmentQueue`'s allocation statistics), and `register()`'s thread-id
//! counter (registration happens in scenario setup, not in explored
//! bodies).

#![allow(clippy::needless_return)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use parking_lot::{Condvar as PlCondvar, Mutex as PlMutex, MutexGuard as PlMutexGuard};

#[cfg(feature = "sim-explore")]
use simyield::{Access, Kind};

/// Run `$run` (which yields `(result, observed)`) bracketed as one
/// explorer step of kind `$kind` with operands `$op1`, `$op2` and orderings
/// `$ord` (a CAS's `$fail` when it fails).
macro_rules! bracketed {
    ($self:ident, $kind:ident, $op1:expr, $op2:expr, $ord:expr, $fail:expr, $run:expr) => {{
        #[cfg(feature = "sim-explore")]
        {
            let a = Access::new(
                Kind::$kind,
                &$self.0 as *const _ as usize,
                $op1 as u64,
                $op2 as u64,
            )
            .ordered($ord, $fail);
            simyield::before(&a);
            let (ret, observed) = $run;
            simyield::after(&a, observed);
            return ret;
        }
        #[cfg(not(feature = "sim-explore"))]
        {
            let _ = ($op1, $op2, $ord, $fail);
            let (ret, _observed) = $run;
            ret
        }
    }};
}

/// An `AtomicU64` whose operations are explorer scheduling points.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct SimAtomicU64(AtomicU64);

impl SimAtomicU64 {
    /// New atomic holding `v`.
    pub const fn new(v: u64) -> Self {
        SimAtomicU64(AtomicU64::new(v))
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, o: Ordering) -> u64 {
        bracketed!(self, Load, 0u64, 0u64, o, o, {
            let v = self.0.load(o);
            (v, v)
        })
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, v: u64, o: Ordering) {
        bracketed!(self, Store, v, 0u64, o, o, {
            self.0.store(v, o);
            ((), v)
        })
    }

    /// Compare-and-exchange; `Ok(old)` / `Err(actual)` like std.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        bracketed!(self, Cas, current, new, success, failure, {
            let r = self.0.compare_exchange(current, new, success, failure);
            let old = match r {
                Ok(v) | Err(v) => v,
            };
            (r, old)
        })
    }

    /// Weak compare-and-exchange; may fail spuriously like std's.
    ///
    /// Under exploration it runs the *strong* variant: schedule replay
    /// must be deterministic, and a scheduling point already separates
    /// the read from the write, so spurious failure would only add
    /// schedules the strong CAS covers.
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        bracketed!(self, Cas, current, new, success, failure, {
            let r = if cfg!(feature = "sim-explore") {
                self.0.compare_exchange(current, new, success, failure)
            } else {
                self.0.compare_exchange_weak(current, new, success, failure)
            };
            let old = match r {
                Ok(v) | Err(v) => v,
            };
            (r, old)
        })
    }

    /// Atomic add returning the previous value.
    #[inline]
    pub fn fetch_add(&self, v: u64, o: Ordering) -> u64 {
        bracketed!(self, FetchAdd, v, 0u64, o, o, {
            let old = self.0.fetch_add(v, o);
            (old, old)
        })
    }

    /// Atomic subtract returning the previous value.
    #[inline]
    pub fn fetch_sub(&self, v: u64, o: Ordering) -> u64 {
        bracketed!(self, FetchAdd, v.wrapping_neg(), 0u64, o, o, {
            let old = self.0.fetch_sub(v, o);
            (old, old)
        })
    }

    /// The explorer's happens-before query (`simyield::published`): did
    /// the store this thread's last load of `self` returned happen-before
    /// that load, not counting the load's own acquire? Not a scheduling
    /// point; `true` on a thread the explorer does not control.
    #[cfg(feature = "sim-explore")]
    #[inline]
    pub fn published(&self) -> bool {
        simyield::published(&self.0 as *const _ as usize)
    }

    /// Non-atomic read through exclusive access (not a scheduling point).
    #[inline]
    pub fn get_mut(&mut self) -> &mut u64 {
        self.0.get_mut()
    }

    /// The wrapped atomic, as an operand of a primitive built from several
    /// raw accesses (`bq-dcss`) that the caller brackets as one step with
    /// [`read_step`](Self::read_step) / [`update_step`](Self::update_step).
    #[inline]
    pub fn raw(&self) -> &AtomicU64 {
        &self.0
    }

    /// A compound **read** of this location as one explorer step: `f` may
    /// issue any number of raw accesses and returns the value read.
    #[inline]
    pub fn read_step(&self, f: impl FnOnce(&AtomicU64) -> u64) -> u64 {
        bracketed!(
            self,
            Load,
            0u64,
            0u64,
            Ordering::SeqCst,
            Ordering::SeqCst,
            {
                let v = f(&self.0);
                (v, v)
            }
        )
    }

    /// A compound **conditional update** `current → new` of this location
    /// as one explorer step: `f` performs it with raw accesses and says
    /// whether it took effect. The explorer sees a CAS that observed
    /// `current` on success and something else on failure.
    #[inline]
    pub fn update_step(&self, current: u64, new: u64, f: impl FnOnce(&AtomicU64) -> bool) -> bool {
        bracketed!(
            self,
            Cas,
            current,
            new,
            Ordering::SeqCst,
            Ordering::SeqCst,
            {
                let ok = f(&self.0);
                (ok, if ok { current } else { !current })
            }
        )
    }
}

/// An `AtomicUsize` whose operations are explorer scheduling points.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct SimAtomicUsize(AtomicUsize);

impl SimAtomicUsize {
    /// New atomic holding `v`.
    pub const fn new(v: usize) -> Self {
        SimAtomicUsize(AtomicUsize::new(v))
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, o: Ordering) -> usize {
        bracketed!(self, Load, 0u64, 0u64, o, o, {
            let v = self.0.load(o);
            (v, v as u64)
        })
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, v: usize, o: Ordering) {
        bracketed!(self, Store, v as u64, 0u64, o, o, {
            self.0.store(v, o);
            ((), v as u64)
        })
    }

    /// Atomic add returning the previous value.
    #[inline]
    pub fn fetch_add(&self, v: usize, o: Ordering) -> usize {
        bracketed!(self, FetchAdd, v as u64, 0u64, o, o, {
            let old = self.0.fetch_add(v, o);
            (old, old as u64)
        })
    }

    /// Atomic subtract returning the previous value.
    #[inline]
    pub fn fetch_sub(&self, v: usize, o: Ordering) -> usize {
        bracketed!(self, FetchAdd, (v as u64).wrapping_neg(), 0u64, o, o, {
            let old = self.0.fetch_sub(v, o);
            (old, old as u64)
        })
    }

    /// Compare-and-exchange; `Ok(old)` / `Err(actual)` like std.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        bracketed!(self, Cas, current as u64, new as u64, success, failure, {
            let r = self.0.compare_exchange(current, new, success, failure);
            let old = match r {
                Ok(v) | Err(v) => v,
            };
            (r, old as u64)
        })
    }
}

/// An `AtomicBool` whose operations are explorer scheduling points.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct SimAtomicBool(AtomicBool);

impl SimAtomicBool {
    /// New atomic holding `v`.
    pub const fn new(v: bool) -> Self {
        SimAtomicBool(AtomicBool::new(v))
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, o: Ordering) -> bool {
        bracketed!(self, Load, 0u64, 0u64, o, o, {
            let v = self.0.load(o);
            (v, v as u64)
        })
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, v: bool, o: Ordering) {
        bracketed!(self, Store, v as u64, 0u64, o, o, {
            self.0.store(v, o);
            ((), v as u64)
        })
    }
}

/// A mutex whose acquisition is an explorer scheduling point and whose
/// waiting is cooperative (a suspended lock-holder can never wedge the
/// explored world: contenders block *in the explorer*, not on the OS).
pub struct SimMutex<T> {
    inner: PlMutex<T>,
}

impl<T> SimMutex<T> {
    /// New mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        SimMutex {
            inner: PlMutex::new(value),
        }
    }

    #[cfg(feature = "sim-explore")]
    fn loc(&self) -> usize {
        self as *const _ as usize
    }

    /// The cooperative acquisition under exploration: announce a
    /// `LockAcq`, try the lock, and block in the explorer (not on the OS)
    /// until the holder releases, as often as it takes.
    #[cfg(feature = "sim-explore")]
    fn lock_explored(&self) -> PlMutexGuard<'_, T> {
        loop {
            let a = Access::new(Kind::LockAcq, self.loc(), 0, 0)
                .ordered(Ordering::Acquire, Ordering::Relaxed);
            simyield::before(&a);
            if let Some(g) = self.inner.try_lock() {
                simyield::after(&a, 1);
                return g;
            }
            simyield::after(&a, 0);
            simyield::block_mutex(self.loc());
        }
    }

    /// Acquire the mutex.
    #[inline]
    pub fn lock(&self) -> SimMutexGuard<'_, T> {
        #[cfg(feature = "sim-explore")]
        if simyield::hooked() {
            return SimMutexGuard {
                mx: self,
                inner: Some(self.lock_explored()),
                hooked: true,
            };
        }
        SimMutexGuard {
            mx: self,
            inner: Some(self.inner.lock()),
            hooked: false,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// RAII guard for [`SimMutex`]; releases (and notifies the explorer of
/// the release) on drop.
pub struct SimMutexGuard<'a, T> {
    mx: &'a SimMutex<T>,
    inner: Option<PlMutexGuard<'a, T>>,
    hooked: bool,
}

impl<T> std::ops::Deref for SimMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for SimMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for SimMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            #[cfg(feature = "sim-explore")]
            if self.hooked {
                simyield::mutex_released(self.mx.loc());
            }
        }
        let _ = self.hooked; // silence unused-field warning without the feature
        let _ = self.mx;
    }
}

/// A condvar whose wait is cooperative under exploration (see
/// [`SimMutex`]); delegates to `parking_lot` otherwise.
pub struct SimCondvar {
    inner: PlCondvar,
}

impl SimCondvar {
    /// New condvar.
    pub const fn new() -> Self {
        SimCondvar {
            inner: PlCondvar::new(),
        }
    }

    #[cfg(feature = "sim-explore")]
    fn loc(&self) -> usize {
        self as *const _ as usize
    }

    /// Block until notified, releasing the guard's mutex while waiting.
    /// Spurious wakeups are possible in both builds; callers re-check
    /// their condition in a loop (the eventcount protocol does).
    pub fn wait<T>(&self, guard: &mut SimMutexGuard<'_, T>) {
        #[cfg(feature = "sim-explore")]
        if guard.hooked {
            // Announce *before* unlocking so a notify landing in the
            // unlock→wait window is recorded, not lost — the same
            // reasoning as the eventcount's own announce step.
            simyield::cv_announce(self.loc());
            drop(guard.inner.take());
            simyield::mutex_released(guard.mx.loc());
            simyield::cv_block(self.loc());
            guard.inner = Some(guard.mx.lock_explored());
            return;
        }
        self.inner
            .wait(guard.inner.as_mut().expect("guard holds the lock"));
    }

    /// Block until notified or until `deadline` passes, releasing the
    /// guard's mutex while waiting. Returns `true` when (possibly
    /// spuriously) notified, `false` when the deadline fired. A deadline
    /// at or before now returns `false` without sleeping.
    ///
    /// Under exploration the wall clock does not exist: whether the
    /// timeout fires is a *scheduling choice* (`simyield::cv_block_timed`),
    /// so the explorer enumerates both the wake-first and the
    /// timeout-first interleavings of a timed wait.
    pub fn wait_deadline<T>(
        &self,
        guard: &mut SimMutexGuard<'_, T>,
        deadline: std::time::Instant,
    ) -> bool {
        #[cfg(feature = "sim-explore")]
        if guard.hooked {
            // Same unlock→wait window reasoning as `wait`; the
            // deadline itself is delegated to the scheduler.
            simyield::cv_announce(self.loc());
            drop(guard.inner.take());
            simyield::mutex_released(guard.mx.loc());
            let woke = simyield::cv_block_timed(self.loc());
            guard.inner = Some(guard.mx.lock_explored());
            return woke;
        }
        let timeout = deadline.saturating_duration_since(std::time::Instant::now());
        if timeout.is_zero() {
            return false;
        }
        let res = self
            .inner
            .wait_for(guard.inner.as_mut().expect("guard holds the lock"), timeout);
        !res.timed_out()
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        #[cfg(feature = "sim-explore")]
        if simyield::hooked() {
            simyield::cv_notify(self.loc());
        }
        self.inner.notify_all();
    }
}

impl Default for SimCondvar {
    fn default() -> Self {
        SimCondvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomics_pass_through() {
        let a = SimAtomicU64::new(5);
        assert_eq!(a.load(Ordering::SeqCst), 5);
        a.store(9, Ordering::SeqCst);
        assert_eq!(a.fetch_add(1, Ordering::SeqCst), 9);
        assert_eq!(a.fetch_sub(2, Ordering::SeqCst), 10);
        assert_eq!(
            a.compare_exchange(8, 3, Ordering::SeqCst, Ordering::SeqCst),
            Ok(8)
        );
        assert_eq!(
            a.compare_exchange(8, 4, Ordering::SeqCst, Ordering::SeqCst),
            Err(3)
        );
        let b = SimAtomicBool::new(false);
        b.store(true, Ordering::SeqCst);
        assert!(b.load(Ordering::SeqCst));
        let u = SimAtomicUsize::new(1);
        assert_eq!(u.fetch_add(2, Ordering::SeqCst), 1);
        assert_eq!(u.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn layout_is_transparent() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<SimAtomicU64>(), size_of::<AtomicU64>());
        assert_eq!(align_of::<SimAtomicU64>(), align_of::<AtomicU64>());
        assert_eq!(size_of::<SimAtomicBool>(), 1);
    }

    #[test]
    fn mutex_and_condvar_delegate_without_hook() {
        let m = SimMutex::new(3);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 4);
        // A notified wait returns.
        let cv = std::sync::Arc::new(SimCondvar::new());
        let mx = std::sync::Arc::new(SimMutex::new(false));
        let (cv2, mx2) = (std::sync::Arc::clone(&cv), std::sync::Arc::clone(&mx));
        let t = std::thread::spawn(move || {
            let mut g = mx2.lock();
            while !*g {
                cv2.wait(&mut g);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        *mx.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }
}
