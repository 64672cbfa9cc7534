//! Spin, then park (DESIGN.md §9.1), measured by the system's own waiter
//! statistics: a hand-off between two *running* threads is caught by the
//! spin in [`EventCount::wait`](bq_core::EventCount::wait), so a
//! ping-pong that used to sleep twice per round trip (almost) never parks.
//!
//! A test binary of its own on purpose: the property holds when the two
//! threads have a core each, and a sibling test running beside them on a
//! 2-core host takes one away (the pair then settles into parking — the
//! wake hop outlasts the budget — which is the parent's behaviour, not a
//! failure of the spin).
#![cfg(feature = "obs")]

use bq_core::{BlockingQueue, OptimalQueue};

fn make() -> BlockingQueue<u64, OptimalQueue> {
    BlockingQueue::new(OptimalQueue::with_capacity_and_threads(2, 2))
}

const TRIPS: u64 = 10_000;

/// One ping-pong of `TRIPS` round trips over two fresh queues; returns
/// how many of its `2 * TRIPS` waits parked.
fn parks_in_one_ping_pong() -> u64 {
    let (ping, pong) = (make(), make());
    std::thread::scope(|s| {
        s.spawn(|| {
            let (mut rx, mut tx) = (ping.register(), pong.register());
            while let Some(v) = ping.recv(&mut rx) {
                pong.send(&mut tx, v).unwrap();
            }
        });
        let (mut tx, mut rx) = (ping.register(), pong.register());
        for i in 0..TRIPS {
            ping.send(&mut tx, i).unwrap();
            assert_eq!(pong.recv(&mut rx), Some(i));
        }
        ping.close();
    });
    let (ping, pong) = (ping.metrics(), pong.metrics());
    let parked = pong.get("not_empty.thread_parks").unwrap();
    let spun = pong.get("not_empty.spin_wakes").unwrap();
    let failed = pong.get("deq_empty").unwrap();
    // Every failed attempt on `pong` (one receiver, never closed) either
    // opened one of the TRIPS waits or ended a round — and a round ends
    // through the spin or through a park. (Slack: the one uncounted exit,
    // a wake caught by the locked re-check.)
    let exits = spun + parked;
    assert!(exits > 0 && exits <= failed, "{pong}");
    assert!(failed - exits <= TRIPS + TRIPS / 100, "{pong}");
    eprintln!(
        "pong: {failed} failed attempts = {} waits opened + {exits} rounds ended ({spun} by the spin)",
        failed - exits
    );
    ping.get("not_empty.thread_parks").unwrap() + parked
}

#[test]
fn ping_pong_between_running_threads_spins_instead_of_parking() {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return;
    }
    // Without the spin every attempt parks twice per trip. With it, a
    // pair that keeps its two cores almost never parks; one that loses a
    // core to a noisy neighbour for a while does, so the bound is asked
    // of the best of a few attempts, not of each.
    let mut parks = Vec::new();
    for _ in 0..5 {
        parks.push(parks_in_one_ping_pong());
        if parks.last().is_some_and(|&p| p < 2 * TRIPS / 100) {
            return;
        }
    }
    panic!("parks per {} waits, every attempt: {parks:?}", 2 * TRIPS);
}
