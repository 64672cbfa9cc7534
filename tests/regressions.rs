//! Regression fixtures that run in every tier-1 test run (no explorer
//! feature needed): historical bugs pinned against the **shipped** code, and
//! source scans that keep them from coming back. The Lemma A.2 fixture needs
//! the explorer and lives with the adversary (`bq_sim::adversary`, DESIGN.md
//! §7), where every told construction's schedule is replayed byte for byte.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bq_core::{ConcurrentQueue, NaiveQueue};
use bq_sim::{
    check_history, token_domain_violations, History, HistoryEvent, Op, OpId, Ret, Schedule,
};

// ---------------------------------------------------------------------------
// The bit-63 token-domain collision
// ---------------------------------------------------------------------------

/// The pre-fix pipeline packing (`examples/pipeline.rs` before the fix): a
/// 16-bit checksum at bit 48 lets bit 63 escape into the token domain,
/// colliding with the DCSS descriptor mark.
fn pack_prefix(sum: u64, id: u64) -> u64 {
    (sum & 0xFFFF) << 48 | id
}

/// The shipped packing: 15 checksum bits, bit 63 always clear.
fn pack_shipped(sum: u64, id: u64) -> u64 {
    (sum & 0x7FFF) << 48 | id
}

/// The pinned producer/consumer interleaving for the token-domain
/// fixture, one entry per *operation*: T0 enqueues three packed values,
/// T1 dequeues three times, overlapping in this order.
const BIT63_SCHEDULE: &str = "sched:v1:0,1,0,0,1,1";

/// Run the pinned interleaving on the shipped `NaiveQueue` (`C = 2`),
/// recording into `h`. Checksums with bit 15 set are exactly the trigger.
fn run_bit63(pack: fn(u64, u64) -> u64, h: &mut History) {
    let schedule: Schedule = BIT63_SCHEDULE.parse().unwrap();
    let vs: Vec<u64> = (1..=3u64).map(|id| pack(0x8000 + id, id)).collect();
    let mut plan = [
        VecDeque::from([Op::Enqueue(vs[0]), Op::Enqueue(vs[1]), Op::Enqueue(vs[2])]),
        VecDeque::from([Op::Dequeue, Op::Dequeue, Op::Dequeue]),
    ];
    let q = NaiveQueue::with_capacity(2);
    let mut handle = q.register();
    for (n, &tid) in schedule.0.iter().enumerate() {
        let op = plan[tid]
            .pop_front()
            .expect("the schedule matches the plan");
        let id = OpId(n);
        h.push(HistoryEvent::Invoke { id, tid, op });
        let ret = match op {
            Op::Enqueue(v) => match q.enqueue(&mut handle, v) {
                Ok(()) => Ret::EnqOk,
                Err(_) => Ret::EnqFull,
            },
            Op::Dequeue => q.dequeue(&mut handle).map_or(Ret::DeqEmpty, Ret::DeqVal),
        };
        h.push(HistoryEvent::Return { id, ret });
    }
}

/// The pre-fix packing hands the shipped queue a bit-63 word: its token
/// assert refuses it, and the token-domain invariant flags the enqueue.
#[test]
fn bit63_pinned_schedule_flags_the_prefix_packing() {
    let mut h = History::new();
    let err = catch_unwind(AssertUnwindSafe(|| run_bit63(pack_prefix, &mut h)))
        .expect_err("the shipped queue must refuse a bit-63 word");
    let msg = (err.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("63-bit"), "unexpected panic: {msg}");
    let violations = token_domain_violations(&h);
    assert!(
        violations.iter().any(|v| v.contains("enqueue")),
        "{violations:?}\n{}",
        h.render()
    );
}

/// The shipped packing survives the identical schedule with a clean
/// token domain and a linearizable history.
#[test]
fn bit63_pinned_schedule_passes_the_shipped_packing() {
    let mut h = History::new();
    run_bit63(pack_shipped, &mut h);
    assert_eq!(
        token_domain_violations(&h),
        Vec::<String>::new(),
        "shipped packing regressed into the token domain:\n{}",
        h.render()
    );
    assert!(check_history(&h, 2).is_linearizable(), "{}", h.render());
}

/// The shipped examples still use the 15-bit packing — guard the source
/// so the 0xFFFF mask cannot quietly come back.
#[test]
fn shipped_examples_use_the_15bit_checksum_mask() {
    let root = env!("CARGO_MANIFEST_DIR");
    for f in ["examples/pipeline.rs", "examples/async_pipeline.rs"] {
        let src = std::fs::read_to_string(format!("{root}/{f}")).unwrap();
        assert!(
            src.contains("& 0x7FFF) << 48"),
            "{f}: shipped checksum packing changed"
        );
        assert!(
            !src.contains("& 0xFFFF) << 48"),
            "{f}: the pre-fix 16-bit checksum mask is back"
        );
    }
}

// ---------------------------------------------------------------------------
// Determinism audit: nothing on an explored or replayed path may consult
// wall clocks or ambient randomness
// ---------------------------------------------------------------------------

/// Source scan over `bq-sim`: schedules must replay bit-identically, so
/// no wall-clock reads or entropy-seeded RNGs anywhere in the crate.
#[test]
fn sim_crate_has_no_wallclock_or_ambient_randomness() {
    let src_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/sim/src");
    let banned = [
        "Instant::now",
        "SystemTime::now",
        "thread_rng",
        "from_entropy",
        "rand::random",
    ];
    let mut stack = vec![std::path::PathBuf::from(src_dir)];
    let mut scanned = 0;
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                for b in banned {
                    assert!(
                        !src.contains(b),
                        "{}: uses {b} — explored/replayed paths must be deterministic",
                        path.display()
                    );
                }
                scanned += 1;
            }
        }
    }
    assert!(scanned >= 4, "scan found only {scanned} source files");
}

// ---------------------------------------------------------------------------
// The explorer's pin table (DESIGN.md §11.2)
// ---------------------------------------------------------------------------

/// The integers of a pin literal or a table cell, in order: `11_272`,
/// `(139, 66, 73)` and `11 272` (digits grouped by spaces) all read as
/// one number per comma-separated part.
fn pin_numbers(text: &str) -> Vec<u64> {
    text.trim_matches(|c: char| c == '(' || c == ')' || c.is_whitespace())
        .split(',')
        .map(|part| {
            let digits: String = part
                .chars()
                .filter(|c| !c.is_whitespace() && *c != '_')
                .collect();
            digits
                .parse()
                .unwrap_or_else(|_| panic!("not a pin number: {part:?}"))
        })
        .collect()
}

/// Every `*_PINNED` constant in `explore_real.rs` has one row in DESIGN.md
/// §11.2's pin table and every row names a constant, with the same
/// numbers: the cells' when full and smoke agree, else `(full, smoke)`.
/// `MUTANT_PINNED` is a table of its own and is cited by name.
#[test]
fn pin_table_matches_the_explorer_constants() {
    let root = env!("CARGO_MANIFEST_DIR");
    let read = |f: &str| std::fs::read_to_string(format!("{root}/{f}")).unwrap();
    let is_pin = |name: &str| name.ends_with("_PINNED") || name.ends_with("_PINNED_EXECUTIONS");

    let mut pins = std::collections::BTreeMap::new();
    for line in read("crates/sim/tests/explore_real.rs").lines() {
        let Some(rest) = line.strip_prefix("const ") else {
            continue;
        };
        let name = &rest[..rest.find(':').unwrap()];
        if is_pin(name) {
            let value = rest[rest.find('=').unwrap() + 1..].trim_end_matches(';');
            let numbers = (name != "MUTANT_PINNED").then(|| pin_numbers(value));
            assert!(
                pins.insert(name.to_string(), numbers).is_none(),
                "{name} twice"
            );
        }
    }
    assert!(pins.len() >= 10, "found only {} pins", pins.len());

    let design = read("DESIGN.md");
    let mut rows = std::collections::BTreeMap::new();
    for line in design.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let [_, name, _, full, smoke, _] = cells[..] else {
            continue;
        };
        let Some(name) = name.strip_prefix('`').and_then(|n| n.strip_suffix('`')) else {
            continue;
        };
        if is_pin(name) {
            assert!(
                rows.insert(name.to_string(), (full, smoke)).is_none(),
                "{name} twice"
            );
        }
    }

    for (name, numbers) in &pins {
        let (full, smoke) = rows
            .get(name)
            .unwrap_or_else(|| panic!("{name} has no row in DESIGN.md §11.2's pin table"));
        let Some(numbers) = numbers else {
            continue;
        };
        let (full, smoke) = (pin_numbers(full), pin_numbers(smoke));
        let expect = if full == smoke {
            full
        } else {
            [full, smoke].concat()
        };
        assert_eq!(
            numbers, &expect,
            "{name}: explore_real.rs and DESIGN.md §11.2's pin table differ"
        );
    }
    for name in rows.keys() {
        assert!(
            pins.contains_key(name),
            "DESIGN.md §11.2 pins {name}, which explore_real.rs does not define"
        );
    }
}
