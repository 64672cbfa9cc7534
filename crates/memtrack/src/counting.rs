//! A counting global allocator.
//!
//! [`TrackingAlloc`] wraps [`std::alloc::System`] and maintains global
//! counters for every allocation and deallocation. It is designed for the
//! overhead experiments: install it as the `#[global_allocator]` of a bench
//! binary, then wrap queue construction in an [`AllocScope`] to obtain the
//! exact number of heap bytes the queue pinned down.
//!
//! The counters use relaxed atomics: they are statistics, not
//! synchronization. `peak_bytes` is maintained with a CAS loop so it is exact
//! even under concurrent allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);
static FREED_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static FREED_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static PEAK_LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// A drop-in replacement for the system allocator that counts every
/// allocation. Install with:
///
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: bq_memtrack::TrackingAlloc = bq_memtrack::TrackingAlloc;
/// ```
pub struct TrackingAlloc;

impl TrackingAlloc {
    fn on_alloc(size: usize) {
        ALLOCATED_BYTES.fetch_add(size, Ordering::Relaxed);
        ALLOCATED_BLOCKS.fetch_add(1, Ordering::Relaxed);
        let live = live_bytes();
        let mut peak = PEAK_LIVE_BYTES.load(Ordering::Relaxed);
        while live > peak {
            match PEAK_LIVE_BYTES.compare_exchange_weak(
                peak,
                live,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => peak = cur,
            }
        }
    }

    fn on_dealloc(size: usize) {
        FREED_BYTES.fetch_add(size, Ordering::Relaxed);
        FREED_BLOCKS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`; the bookkeeping touches only
// private atomics and never the returned memory.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// Number of heap bytes currently live (allocated minus freed).
///
/// Saturates at zero if freed momentarily overtakes allocated due to relaxed
/// counter reads interleaving.
pub fn live_bytes() -> usize {
    let a = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let f = FREED_BYTES.load(Ordering::Relaxed);
    a.saturating_sub(f)
}

/// Number of heap blocks currently live.
pub fn live_blocks() -> usize {
    let a = ALLOCATED_BLOCKS.load(Ordering::Relaxed);
    let f = FREED_BLOCKS.load(Ordering::Relaxed);
    a.saturating_sub(f)
}

/// Immutable snapshot of the global allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Total bytes ever allocated.
    pub allocated_bytes: usize,
    /// Total bytes ever freed.
    pub freed_bytes: usize,
    /// Total allocation calls.
    pub allocated_blocks: usize,
    /// Total deallocation calls.
    pub freed_blocks: usize,
    /// Highest observed live-byte count.
    pub peak_live_bytes: usize,
}

impl AllocStats {
    /// Take a snapshot of the global counters now.
    pub fn snapshot() -> Self {
        AllocStats {
            allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
            freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
            allocated_blocks: ALLOCATED_BLOCKS.load(Ordering::Relaxed),
            freed_blocks: FREED_BLOCKS.load(Ordering::Relaxed),
            peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Live bytes in this snapshot.
    pub fn live_bytes(&self) -> usize {
        self.allocated_bytes.saturating_sub(self.freed_bytes)
    }

    /// Live blocks in this snapshot.
    pub fn live_blocks(&self) -> usize {
        self.allocated_blocks.saturating_sub(self.freed_blocks)
    }
}

/// Measures the heap delta across a region of code.
///
/// Typical use in an overhead experiment:
///
/// ```ignore
/// let scope = AllocScope::begin();
/// let queue = OptimalQueue::with_capacity_and_threads(1024, 8);
/// let delta = scope.live_delta(); // bytes the queue construction pinned
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AllocScope {
    start: AllocStats,
}

impl AllocScope {
    /// Start measuring from the current counter values.
    pub fn begin() -> Self {
        AllocScope {
            start: AllocStats::snapshot(),
        }
    }

    /// Bytes that became live since `begin` and are still live.
    pub fn live_delta(&self) -> usize {
        AllocStats::snapshot()
            .live_bytes()
            .saturating_sub(self.start.live_bytes())
    }

    /// Blocks that became live since `begin` and are still live.
    pub fn live_blocks_delta(&self) -> usize {
        AllocStats::snapshot()
            .live_blocks()
            .saturating_sub(self.start.live_blocks())
    }

    /// Total bytes allocated (including already freed ones) since `begin`.
    pub fn allocated_delta(&self) -> usize {
        AllocStats::snapshot().allocated_bytes - self.start.allocated_bytes
    }

    /// Total allocation calls since `begin`.
    pub fn allocated_blocks_delta(&self) -> usize {
        AllocStats::snapshot().allocated_blocks - self.start.allocated_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: the tracking allocator is not installed as the global allocator
    // in unit tests (that would affect every test in the binary); here we
    // exercise the counter arithmetic directly.

    /// The counters are process-global and `cargo test` runs tests on
    /// parallel threads: tests that compare two snapshots hold this.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn counters() -> std::sync::MutexGuard<'static, ()> {
        COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn alloc_counters_accumulate() {
        let _serial = counters();
        let before = AllocStats::snapshot();
        TrackingAlloc::on_alloc(128);
        TrackingAlloc::on_alloc(64);
        TrackingAlloc::on_dealloc(64);
        let after = AllocStats::snapshot();
        assert_eq!(after.allocated_bytes - before.allocated_bytes, 192);
        assert_eq!(after.freed_bytes - before.freed_bytes, 64);
        assert_eq!(after.allocated_blocks - before.allocated_blocks, 2);
        assert_eq!(after.freed_blocks - before.freed_blocks, 1);
    }

    #[test]
    fn peak_is_monotone() {
        let _serial = counters();
        let p0 = AllocStats::snapshot().peak_live_bytes;
        TrackingAlloc::on_alloc(1 << 20);
        let p1 = AllocStats::snapshot().peak_live_bytes;
        assert!(p1 >= p0);
        TrackingAlloc::on_dealloc(1 << 20);
        let p2 = AllocStats::snapshot().peak_live_bytes;
        assert!(p2 >= p1, "peak never decreases");
    }

    #[test]
    fn scope_live_delta_saturates() {
        let _serial = counters();
        let scope = AllocScope::begin();
        // Freeing more than allocating inside the scope must not underflow.
        TrackingAlloc::on_alloc(16);
        TrackingAlloc::on_dealloc(16);
        assert_eq!(scope.live_delta(), 0);
    }

    #[test]
    fn stats_live_helpers() {
        let s = AllocStats {
            allocated_bytes: 100,
            freed_bytes: 40,
            allocated_blocks: 10,
            freed_blocks: 4,
            peak_live_bytes: 77,
        };
        assert_eq!(s.live_bytes(), 60);
        assert_eq!(s.live_blocks(), 6);
    }
}
