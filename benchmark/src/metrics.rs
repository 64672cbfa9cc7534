//! Every metric the benchmark emits: name, unit, and which direction is
//! better. `BENCHMARK.json` lists the same names; the self-test checks that
//! the two agree, and `compare` reads the regression bounds from there.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `compare` takes the direction from `BENCHMARK.json`, as it takes the
    /// bound; the self-test holds the two to each other.
    #[cfg_attr(not(test), allow(dead_code))]
    pub higher_is_better: bool,
}

const fn up(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

const fn down(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

/// Workload names, in the order they run.
pub const WORKLOADS: [&str; 7] = [
    "solo",
    "pairs",
    "pipeline",
    "handoff",
    "paced",
    "io_ring",
    "shm_procs",
];

/// Measured by the plain build, on every workload.
pub const END_TO_END: [Metric; 7] = [
    up("items_per_s", "items/s"),
    up("payload_mib_per_s", "MiB/s"),
    down("latency_p50_us", "us"),
    down("cpu_ns_per_item", "ns"),
    down("overhead_bytes", "bytes"),
    up("ok_share", "share"),
    down("setup_s", "s"),
];

/// Measured by the traced build: the layer ladder first (the same on every
/// workload's traced run), then the in-workload metrics, which read 0 on a
/// workload that never calls into that layer.
pub const PER_LAYER: [Metric; 87] = [
    // -- ladder: controls no change to the queues should move ------------
    down("harness.loop_ns", "ns"),
    down("harness.clock_ns", "ns"),
    down("harness.span_ns", "ns"),
    down("baselines.mutex_ring.ns_per_op", "ns"),
    // -- ladder: token queues ---------------------------------------------
    down("optimal.ns_per_op", "ns"),
    down("optimal.T64.ns_per_op", "ns"),
    down("optimal.scan_ns_per_T", "ns"),
    down("distinct.ns_per_op", "ns"),
    down("segment.ns_per_op", "ns"),
    down("dcss_queue.ns_per_op", "ns"),
    down("llsc_queue.ns_per_op", "ns"),
    down("spsc.ns_per_op", "ns"),
    // -- ladder: the layers stacked on the optimal queue -------------------
    down("sharded.ns_per_op", "ns"),
    down("sharded.tax_ns", "ns"),
    down("sharded.batch32.ns_per_item", "ns"),
    down("boxed.ns_per_op", "ns"),
    down("boxed.tax_ns", "ns"),
    down("boxed.allocs_per_item", "count"),
    down("blocking.ns_per_op", "ns"),
    down("blocking.tax_ns", "ns"),
    down("async_queue.ns_per_op", "ns"),
    down("async_queue.tax_ns", "ns"),
    down("event.wake_all.idle_ns", "ns"),
    down("event.wake_all.us_at_1e2", "us"),
    down("event.wake_all.us_at_1e3", "us"),
    down("event.wake_all.us_at_1e4", "us"),
    // -- ladder: relocatable rings, byte rings, shared memory --------------
    down("relocatable.ring.ns_per_op", "ns"),
    down("relocatable.grant32.ns_per_item", "ns"),
    down("bytering.push_pop.ns_per_msg", "ns"),
    down("bytering.grant.ns_per_msg", "ns"),
    down("shm.queue.ns_per_op", "ns"),
    down("shm.tax_ns", "ns"),
    down("shm.bytering.ns_per_msg", "ns"),
    // -- ladder: the paper's axis, exact -------------------------------------
    down("memtrack.distinct.overhead_bytes", "bytes"),
    down("memtrack.optimal.bytes_per_T", "bytes"),
    down("memtrack.optimal.bytes_per_C", "bytes"),
    down("memtrack.dcss_queue.bytes_per_T", "bytes"),
    down("memtrack.segment.overhead_bytes", "bytes"),
    down("memtrack.sharded4_optimal.overhead_bytes", "bytes"),
    down("memtrack.vyukov.bytes_per_C", "bytes"),
    down("memtrack.shm.queue.bytes_per_C", "bytes"),
    down("memtrack.optimal.alloc_minus_claimed_bytes", "bytes"),
    // -- in-workload: solo, pairs --------------------------------------------
    down("optimal.enqueue.ns_p50", "ns"),
    down("optimal.enqueue.ns_p99", "ns"),
    down("optimal.dequeue.ns_p50", "ns"),
    down("optimal.dequeue.ns_p99", "ns"),
    down("optimal.refused_share", "share"),
    down("optimal.retries_per_op", "count"),
    down("optimal.helps_per_op", "count"),
    // -- in-workload: pipeline -----------------------------------------------
    down("blocking.send_all.ns_p50", "ns"),
    down("blocking.recv_many.ns_p50", "ns"),
    up("blocking.recv_many.fill_ratio", "share"),
    down("event.parks_per_kitem", "count"),
    down("event.spurious_wakes_per_kitem", "count"),
    down("sharded.steals_per_kitem", "count"),
    down("queue_wait_ns_p50", "ns"),
    down("producer.busy_share", "share"),
    down("consumer.busy_share", "share"),
    // -- in-workload: handoff ------------------------------------------------
    down("blocking.send.ns_p50", "ns"),
    down("blocking.recv.ns_p50", "ns"),
    down("event.parks_per_item", "count"),
    down("event.wakes_per_item", "count"),
    down("event.spurious_wakes_per_item", "count"),
    // -- in-workload: paced --------------------------------------------------
    down("async_queue.try_send.ns_p50", "ns"),
    down("event.task_parks_per_item", "count"),
    up("event.items_per_wake", "count"),
    down("queue_depth_p99", "count"),
    down("generator.late_p99_us", "us"),
    down("latency_p999_us", "us"),
    // -- in-workload: io_ring ------------------------------------------------
    down("distinct.enqueue.ns_p50", "ns"),
    down("distinct.dequeue.ns_p50", "ns"),
    down("distinct.refused_share", "share"),
    down("bytering.try_grant.ns_p50", "ns"),
    down("bytering.try_read.ns_p50", "ns"),
    down("bytering.refused_share", "share"),
    down("bytering.bytes_used_hwm", "bytes"),
    down("spins_per_item", "count"),
    // -- in-workload: shm_procs ----------------------------------------------
    down("shm.queue.enqueue.ns_p50", "ns"),
    down("shm.queue.dequeue.ns_p50", "ns"),
    down("shm.queue.refused_share", "share"),
    down("shm.yields_per_item", "count"),
    down("shm.attempts_per_item", "count"),
    down("shm.fork_s", "s"),
    // -- in-workload: every workload -------------------------------------------
    down("latency_p99_us", "us"),
    down("allocs_per_item", "count"),
    down("fail_share", "share"),
    down("trace.overhead_pct", "%"),
];

/// The unit of a metric this file lists. Panics on a name it does not: a
/// workload emitting an undeclared metric is a bug in the benchmark.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"))
        .unit
}
