//! Integration test installing the counting allocator for real: verifies
//! that `AllocScope` observes actual heap traffic of this test binary.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use bq_memtrack::{AllocScope, AllocStats, TrackingAlloc};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// `TrackingAlloc`'s counters are process-global and `live_delta` is
/// signed, so a `drop` on another thread lands inside a test's scope
/// window (observed: "an 80 KB vector must be visible: 79932"). Every
/// test holds this lock for its whole body, which keeps the three tests
/// out of each other's windows.
static SERIAL: Mutex<()> = Mutex::new(());

/// Take [`SERIAL`], then wait for the process to go quiet. The lock alone
/// left 6 failures in 1 500 runs: the harness frees the previous test's
/// bookkeeping (and spawns the next test thread) just as the lock changes
/// hands. That traffic only follows a test start or end, so it is over
/// once the counters have stood still for a scheduling quantum.
fn serial() -> MutexGuard<'static, ()> {
    // A failed assert in one test must not fail the others on the poison.
    let guard = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let mut seen = AllocStats::snapshot();
    loop {
        std::thread::sleep(Duration::from_millis(2));
        let now = AllocStats::snapshot();
        if now == seen {
            return guard;
        }
        seen = now;
    }
}

#[test]
fn scope_observes_real_allocations() {
    let _serial = serial();
    let scope = AllocScope::begin();
    let v: Vec<u64> = (0..10_000).collect();
    assert!(
        scope.live_delta() >= 10_000 * 8,
        "an 80 KB vector must be visible: {}",
        scope.live_delta()
    );
    drop(v);
    // After the drop the delta returns to (near) zero.
    assert!(scope.live_delta() < 1024);
}

#[test]
fn scope_counts_blocks() {
    let _serial = serial();
    let scope = AllocScope::begin();
    let mut boxes = Vec::new();
    for i in 0..100u64 {
        boxes.push(Box::new(i));
    }
    assert!(scope.allocated_blocks_delta() >= 100);
    assert!(scope.live_blocks_delta() >= 100);
    drop(boxes);
    assert!(scope.live_blocks_delta() < 100);
}

#[test]
fn queue_construction_is_measurable() {
    // The overhead experiments rely on this: building a structure shows up
    // as a live delta of at least its structural size.
    let _serial = serial();
    let scope = AllocScope::begin();
    let slots: Box<[u64]> = vec![0u64; 4096].into_boxed_slice();
    assert!(scope.live_delta() >= 4096 * 8);
    drop(slots);
}
