//! `compare a.json b.json`: apply the bounds of `BENCHMARK.json` to two
//! result files, `a` the baseline and `b` the candidate. One row per
//! workload × end-to-end metric:
//!
//! * `ok` — `b`'s median is no worse than `a`'s by more than the bound;
//! * `regressed` — it is worse by more than the bound, and `b`'s cells lie
//!   wholly on the worse side of `a`'s;
//! * `unresolved` — the medians breach the bound but the cells' min–max
//!   ranges overlap, so the spread cannot carry the verdict either way.
//!
//! Exits 1 when any row regressed or is missing. Smoke results are
//! non-binding: they are compared and printed, and the exit code stays 0.

use std::path::Path;

use crate::json::{self, Value};

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

struct Reading {
    value: f64,
    min: f64,
    max: f64,
}

fn reading(doc: &Value, workload: &str, metric: &str) -> Option<Reading> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let or_value = |k| m.get(k).and_then(Value::as_f64).unwrap_or(value);
    Some(Reading {
        value,
        min: or_value("min"),
        max: or_value("max"),
    })
}

/// The verdict on one row, with how much worse `b` is as a share of `a`.
fn verdict(a: &Reading, b: &Reading, higher_is_better: bool, bound: f64) -> (&'static str, f64) {
    let worse = if higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    let overlap = a.min <= b.max && b.min <= a.max;
    let word = if worse.is_nan() || worse <= bound {
        "ok"
    } else if overlap {
        "unresolved"
    } else {
        "regressed"
    };
    (word, worse)
}

pub fn run(root: &Path, a_path: &Path, b_path: &Path) -> i32 {
    let spec_path = root.join("..").join("BENCHMARK.json");
    let (spec, a, b) = match (load(&spec_path), load(a_path), load(b_path)) {
        (Ok(s), Ok(a), Ok(b)) => (s, a, b),
        (s, a, b) => {
            for e in [s.err(), a.err(), b.err()].into_iter().flatten() {
                eprintln!("compare: {e}");
            }
            return 2;
        }
    };
    let smoke = [&a, &b].iter().any(|d| {
        d.get("meta")
            .and_then(|m| m.get("smoke"))
            .and_then(Value::as_bool)
            == Some(true)
    });
    println!(
        "{:<10} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    let mut bad = 0;
    for w in spec.get("workloads").map_or(&[][..], Value::as_arr) {
        let workload = w.get("name").and_then(Value::as_str).unwrap_or("?");
        for m in spec.get("end_to_end").map_or(&[][..], Value::as_arr) {
            let metric = m.get("name").and_then(Value::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let (Some(ra), Some(rb)) =
                (reading(&a, workload, metric), reading(&b, workload, metric))
            else {
                println!(
                    "{workload:<10} {metric:<18} {:>14} {:>14} {:>8} {bound:>7}  missing",
                    "-", "-", "-"
                );
                bad += 1;
                continue;
            };
            let (word, worse) = verdict(&ra, &rb, higher, bound);
            bad += usize::from(word == "regressed");
            println!(
                "{workload:<10} {metric:<18} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}%  {word}",
                ra.value,
                rb.value,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if smoke {
        println!("smoke results are non-binding: verdicts above do not count");
        return 0;
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, min: f64, max: f64) -> Reading {
        Reading { value, min, max }
    }

    #[test]
    fn verdicts_follow_bound_and_overlap() {
        // Throughput down 5 % against a 10 % bound.
        assert_eq!(
            verdict(&r(100.0, 95.0, 105.0), &r(95.0, 90.0, 99.0), true, 0.1).0,
            "ok"
        );
        // Down 20 %, ranges apart.
        assert_eq!(
            verdict(&r(100.0, 95.0, 105.0), &r(80.0, 78.0, 83.0), true, 0.1).0,
            "regressed"
        );
        // Down 20 %, but the cells overlap.
        assert_eq!(
            verdict(&r(100.0, 70.0, 105.0), &r(80.0, 60.0, 90.0), true, 0.1).0,
            "unresolved"
        );
        // Latency up 20 % is worse; down 20 % is not.
        assert_eq!(
            verdict(&r(10.0, 9.9, 10.1), &r(12.0, 11.9, 12.1), false, 0.1).0,
            "regressed"
        );
        assert_eq!(
            verdict(&r(10.0, 9.9, 10.1), &r(8.0, 7.9, 8.1), false, 0.1).0,
            "ok"
        );
        // An exact metric with a tiny bound: any growth regresses.
        assert_eq!(
            verdict(
                &r(816.0, 816.0, 816.0),
                &r(824.0, 824.0, 824.0),
                false,
                0.001
            )
            .0,
            "regressed"
        );
    }
}
