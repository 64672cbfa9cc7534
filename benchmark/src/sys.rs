//! The few system calls the benchmark needs beyond the libc shim: CPU
//! affinity (the shim lacks it, so it is declared here), the monotonic and
//! thread-CPU clocks as plain nanosecond counts, and a zeroed region that
//! is either heap memory or a `MAP_SHARED` mapping forked children write to.

use std::sync::OnceLock;

use membq::shm::ShmSegment;

extern "C" {
    fn sched_setscheduler(pid: libc::pid_t, policy: i32, param: *const i32) -> i32;
    fn sched_setaffinity(pid: libc::pid_t, cpusetsize: libc::size_t, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: libc::pid_t, cpusetsize: libc::size_t, mask: *mut u64) -> i32;
}

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;
const CLOCK_THREAD_CPUTIME_ID: libc::clockid_t = 3;

/// The CPUs this process may run on, read once from the start-up affinity
/// mask. Call before the first [`pin_to`]: a pinned thread's own mask holds
/// one CPU, and children inherit it.
pub fn startup_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; CPU_SET_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        (0..CPU_SET_WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Pin the calling thread (or forked child: no allocation happens here) to
/// `cpu`. Panics when the kernel refuses, because an unpinned worker makes
/// every number of the run bimodal.
pub fn pin_to(cpu: usize) {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity to cpu {cpu} failed");
}

fn clock_ns(clock: libc::clockid_t) -> u64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer; both clock ids exist on Linux.
    unsafe { libc::clock_gettime(clock, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `CLOCK_MONOTONIC` in nanoseconds: one time base for threads and forked
/// children alike.
#[inline]
pub fn now_ns() -> u64 {
    clock_ns(libc::CLOCK_MONOTONIC)
}

/// CPU time the calling thread has consumed, user plus system, in
/// nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// A zeroed, 8-aligned run of `u64` words: heap memory for threads, an
/// anonymous `MAP_SHARED` segment (mapped before the fork) for child
/// processes, which must not allocate. Writers hold raw pointers into it, so
/// the owner keeps it alive until they have been joined.
pub struct Region {
    ptr: *mut u64,
    words: usize,
    // Whichever backs the region, kept only to be dropped with it.
    _heap: Option<Box<[u64]>>,
    _shared: Option<ShmSegment>,
}

// SAFETY: a region is plain memory; every user partitions it so that no two
// threads or processes touch the same word at once without an atomic.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    pub fn heap(words: usize) -> Region {
        let mut mem = vec![0u64; words].into_boxed_slice();
        Region {
            ptr: mem.as_mut_ptr(),
            words,
            _heap: Some(mem),
            _shared: None,
        }
    }

    pub fn shared(words: usize) -> Region {
        const TAG: u64 = 0x6d62_715f_6265_6e63; // "mbq_benc"
        let seg = ShmSegment::create_anon(words.max(1) * 8, TAG).expect("anonymous shared mapping");
        Region {
            ptr: seg.payload_ptr().cast(),
            words,
            _heap: None,
            _shared: Some(seg),
        }
    }

    // The recorder is the only user of the raw view, and the plain build
    // compiles it out.
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    pub fn ptr(&self) -> *mut u64 {
        self.ptr
    }

    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The region as atomics, for words several writers share.
    pub fn atomics(&self) -> &[std::sync::atomic::AtomicU64] {
        // SAFETY: the region is `words` initialized, 8-aligned u64s that live
        // as long as `self`; `AtomicU64` has the same layout as `u64`.
        unsafe { std::slice::from_raw_parts(self.ptr.cast(), self.words) }
    }
}

/// Keep every CPU of the start-up mask from going idle for the rest of the
/// process: one thread per CPU spins at `SCHED_IDLE` priority, so it runs
/// only while no worker wants the CPU and is preempted the moment one wakes.
///
/// This is for the workloads whose workers park (`handoff`, `paced`). On a
/// virtual machine an idle vCPU halts, and waking a halted vCPU goes through
/// the hypervisor at a cost that drifts with the host — the same commit read
/// `handoff` at 27.3 k round trips/s ± 3 % one hour and 22.3 k ± 13 % the
/// next. With the CPUs kept awake a wake-up is the guest kernel's alone. The
/// spinners are not load: worker CPU time is read per thread.
pub fn keep_cpus_awake() {
    const SCHED_IDLE: i32 = 5;
    for &cpu in startup_cpus() {
        std::thread::spawn(move || {
            pin_to(cpu);
            let priority = 0i32; // the only value SCHED_IDLE accepts
                                 // SAFETY: pid 0 names the calling thread and `priority` is a
                                 // valid `sched_param` (a single int) for the call's duration.
            if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
                // Spinning at normal priority would take the CPU from the
                // workers; better to leave the vCPU to halt.
                eprintln!("warning: SCHED_IDLE refused; cpu {cpu} may halt while workers park");
                return;
            }
            loop {
                std::hint::spin_loop();
            }
        });
    }
}
