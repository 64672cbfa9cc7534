//! Offline stand-in for the `libc` crate: only the raw OS surface the
//! `bq-shm` crate needs — shared-memory mapping (`mmap`/`munmap`/
//! `ftruncate`), process control (`fork`/`waitpid`/`kill`/`getpid`/
//! `_exit`) and `errno` access. Declarations match the real crate's
//! Linux definitions, so swapping in the real `libc` is a one-line
//! manifest edit (DESIGN.md §6).
//!
//! Everything here is a direct FFI declaration against the platform C
//! library the Rust standard library already links; the shim adds no
//! code of its own beyond the `WIF*` status macros, which glibc defines
//! as C macros and the real `libc` crate re-implements as `const fn`s
//! exactly as done here.

#![deny(missing_docs)]
#![allow(non_camel_case_types)]
// The W* status macros keep their C names, as in the real crate.
#![allow(non_snake_case)]

/// C `int`.
pub type c_int = i32;
/// C `unsigned int`.
pub type c_uint = u32;
/// C `long`.
pub type c_long = i64;
/// C `void` (opaque).
pub type c_void = core::ffi::c_void;
/// POSIX `size_t`.
pub type size_t = usize;
/// POSIX `ssize_t`.
pub type ssize_t = isize;
/// POSIX `off_t` (64-bit on the supported targets).
pub type off_t = i64;
/// POSIX `pid_t`.
pub type pid_t = i32;
/// POSIX `time_t` (64-bit on the supported targets).
pub type time_t = i64;
/// POSIX `clockid_t` (Linux: a plain int).
pub type clockid_t = c_int;

/// `struct timespec` — seconds + nanoseconds, as `clock_gettime` and
/// `nanosleep` consume it.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct timespec {
    /// Whole seconds.
    pub tv_sec: time_t,
    /// Nanoseconds in `0..1_000_000_000`.
    pub tv_nsec: c_long,
}

/// `PROT_READ`: pages may be read.
pub const PROT_READ: c_int = 0x1;
/// `PROT_WRITE`: pages may be written.
pub const PROT_WRITE: c_int = 0x2;
/// `MAP_SHARED`: updates are visible to other processes mapping the
/// same region — the whole point of this crate's existence.
pub const MAP_SHARED: c_int = 0x0001;
/// `MAP_ANONYMOUS`: not backed by a file; combined with `MAP_SHARED`
/// the region is inherited — still shared, not copied — across `fork`.
pub const MAP_ANONYMOUS: c_int = 0x0020;
/// `mmap` failure sentinel.
pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// `SIGKILL`.
pub const SIGKILL: c_int = 9;
/// `ESRCH`: no such process (the liveness probe's "dead" answer).
pub const ESRCH: c_int = 3;
/// `waitpid` flag: return immediately if no child has exited.
pub const WNOHANG: c_int = 1;
/// `CLOCK_MONOTONIC`: the non-settable since-boot clock the heartbeat
/// lease comparisons use (consistent across processes on one machine).
pub const CLOCK_MONOTONIC: clockid_t = 1;
/// `CLOCK_THREAD_CPUTIME_ID`: CPU time consumed by the calling thread —
/// how a test tells a bounded spin from a busy wait.
pub const CLOCK_THREAD_CPUTIME_ID: clockid_t = 3;

extern "C" {
    /// Map memory. See `mmap(2)`.
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    /// Unmap memory. See `munmap(2)`.
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    /// Resize a file. See `ftruncate(2)`.
    pub fn ftruncate(fd: c_int, length: off_t) -> c_int;
    /// Create a child process. See `fork(2)`.
    pub fn fork() -> pid_t;
    /// Wait for a child. See `waitpid(2)`.
    pub fn waitpid(pid: pid_t, status: *mut c_int, options: c_int) -> pid_t;
    /// Send a signal (`sig = 0` probes existence). See `kill(2)`.
    pub fn kill(pid: pid_t, sig: c_int) -> c_int;
    /// Calling process id. See `getpid(2)`.
    pub fn getpid() -> pid_t;
    /// Exit without running atexit handlers or flushing stdio — the
    /// only correct way out of a forked child of a threaded parent.
    pub fn _exit(status: c_int) -> !;
    /// Yield the CPU. See `sched_yield(2)`.
    pub fn sched_yield() -> c_int;
    /// Read a clock. See `clock_gettime(2)`.
    pub fn clock_gettime(clk_id: clockid_t, tp: *mut timespec) -> c_int;
    /// High-resolution sleep (allocation-free, fork-child safe). See
    /// `nanosleep(2)`.
    pub fn nanosleep(req: *const timespec, rem: *mut timespec) -> c_int;
    /// Address of the thread-local `errno`.
    #[link_name = "__errno_location"]
    pub fn __errno_location() -> *mut c_int;
}

/// Did the child exit normally? (glibc's `WIFEXITED`.)
#[must_use]
pub const fn WIFEXITED(status: c_int) -> bool {
    (status & 0x7f) == 0
}

/// Exit code of a normally-exited child (glibc's `WEXITSTATUS`).
#[must_use]
pub const fn WEXITSTATUS(status: c_int) -> c_int {
    (status >> 8) & 0xff
}

/// Was the child terminated by a signal? (glibc's `WIFSIGNALED`.)
#[must_use]
pub const fn WIFSIGNALED(status: c_int) -> bool {
    ((status & 0x7f) + 1) >> 1 > 0
}

/// Terminating signal number (glibc's `WTERMSIG`).
#[must_use]
pub const fn WTERMSIG(status: c_int) -> c_int {
    status & 0x7f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymous_shared_mapping_round_trips() {
        unsafe {
            let p = mmap(
                core::ptr::null_mut(),
                4096,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS,
                -1,
                0,
            );
            assert_ne!(p, MAP_FAILED);
            let w = p as *mut u64;
            w.write(0xDEAD_BEEF);
            assert_eq!(w.read(), 0xDEAD_BEEF);
            assert_eq!(munmap(p, 4096), 0);
        }
    }

    #[test]
    fn self_is_alive_per_kill_probe() {
        unsafe {
            assert_eq!(kill(getpid(), 0), 0);
        }
    }

    #[test]
    fn monotonic_clock_advances() {
        let read = || unsafe {
            let mut ts = timespec {
                tv_sec: 0,
                tv_nsec: 0,
            };
            assert_eq!(clock_gettime(CLOCK_MONOTONIC, &mut ts), 0);
            ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
        };
        let a = read();
        let req = timespec {
            tv_sec: 0,
            tv_nsec: 1_000_000, // 1 ms
        };
        unsafe {
            nanosleep(&req, core::ptr::null_mut());
        }
        let b = read();
        assert!(b > a, "CLOCK_MONOTONIC moved across a nanosleep");
    }

    #[test]
    fn wait_macros_decode_glibc_layout() {
        // status 0x0900 = exited with code 9; 0x0009 = killed by SIGKILL.
        assert!(WIFEXITED(0x0900));
        assert_eq!(WEXITSTATUS(0x0900), 9);
        assert!(!WIFSIGNALED(0x0900));
        assert!(WIFSIGNALED(0x0009));
        assert_eq!(WTERMSIG(0x0009), SIGKILL);
        assert!(!WIFEXITED(0x0009));
    }
}
