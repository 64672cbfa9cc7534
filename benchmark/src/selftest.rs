//! `cargo test` in this package runs the benchmark's one command in
//! `--smoke` mode and checks that what it emits is what `BENCHMARK.json`
//! declares: every workload, every metric exactly once per workload, each
//! with its unit, names and counts inside the driver's limits, and both JSON
//! outputs (the result file and the driver's last line) parsing.
//!
//! Smoke numbers check plumbing, not performance; the result file marks them
//! (`meta.smoke`) and `compare` treats them as non-binding.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use crate::json::{self, Value};
use crate::metrics;

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn spec() -> Value {
    let text = std::fs::read_to_string(package_dir().join("../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs share `out/` and the two CPUs, so they take turns.
static ONE_RUN_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `run.sh` from the repository root, as the driver does.
fn run_sh(args: &[&str], env: &[(&str, &str)]) -> Output {
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    Command::new("bash")
        .arg(package_dir().join("run.sh"))
        .args(args)
        .envs(env.iter().copied())
        .current_dir(package_dir().join(".."))
        .output()
        .expect("start run.sh")
}

/// [`run_sh`] for a run that must succeed; its standard output.
fn run_ok(args: &[&str]) -> String {
    let out = run_sh(args, &[]);
    assert!(
        out.status.success(),
        "run.sh {args:?} ended with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn names_of(list: &Value) -> Vec<String> {
    list.as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// `group` must hold exactly the metrics `declared` lists, each once, each
/// with the declared unit and a numeric value.
fn check_group(context: &str, group: &Value, declared: &Value) {
    let emitted: Vec<&str> = group.entries().iter().map(|(n, _)| n.as_str()).collect();
    for m in declared.as_arr() {
        let name = m.get("name").and_then(Value::as_str).expect("name");
        let unit = m.get("unit").and_then(Value::as_str).expect("unit");
        let hits = emitted.iter().filter(|n| **n == name).count();
        assert_eq!(hits, 1, "{context}: {name} emitted {hits} times");
        let got = group.get(name).expect("present");
        assert_eq!(
            got.get("unit").and_then(Value::as_str),
            Some(unit),
            "{context}: unit of {name}"
        );
        assert!(!unit.is_empty(), "{context}: {name} carries no unit");
        let value = got.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: {name} has no numeric value"
        );
    }
    assert_eq!(
        emitted.len(),
        declared.as_arr().len(),
        "{context}: undeclared metrics in {emitted:?}"
    );
}

#[test]
fn spec_is_inside_the_limits_and_matches_the_metric_tables() {
    let spec = spec();
    let keys: Vec<&str> = spec.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let (workloads, e2e, layer) = (
        spec.get("workloads").expect("workloads"),
        spec.get("end_to_end").expect("end_to_end"),
        spec.get("per_layer").expect("per_layer"),
    );
    assert!((2..=8).contains(&workloads.as_arr().len()));
    assert!((1..=16).contains(&e2e.as_arr().len()));
    assert!((1..=128).contains(&layer.as_arr().len()));
    assert_eq!(names_of(workloads), metrics::WORKLOADS);

    // One name, one use, across all three lists.
    let mut all = [names_of(workloads), names_of(e2e), names_of(layer)].concat();
    assert!(
        all.iter().all(|n| valid_name(n)),
        "a name breaks [A-Za-z0-9_.-]{{1,64}}"
    );
    all.sort();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "a name is used twice");

    for w in workloads.as_arr() {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "why of {w:?}"
        );
    }
    for (declared, table) in [
        (e2e, &metrics::END_TO_END[..]),
        (layer, &metrics::PER_LAYER[..]),
    ] {
        assert_eq!(declared.as_arr().len(), table.len());
        for (d, m) in declared.as_arr().iter().zip(table) {
            let field = |k| d.get(k).and_then(Value::as_str).expect("field");
            assert_eq!(field("name"), m.name);
            assert_eq!(field("unit"), m.unit, "unit of {}", m.name);
            assert_eq!(
                field("better") == "higher",
                m.higher_is_better,
                "direction of {}",
                m.name
            );
        }
    }
    for m in e2e.as_arr() {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {m:?}");
    }
    assert!(names_of(e2e).contains(&"setup_s".to_string()));
}

#[test]
fn smoke_run_emits_every_declared_metric_once_per_workload() {
    let spec = spec();
    let out =
        std::env::temp_dir().join(format!("membq-benchmark-smoke-{}.json", std::process::id()));
    let args = ["--smoke", "--out", out.to_str().expect("utf-8 path")];
    run_ok(&args); // builds, if nothing has yet
    let started = std::time::Instant::now();
    let stdout = run_ok(&args);
    assert!(
        started.elapsed().as_secs() < 10,
        "a smoke run takes under 10 s"
    );
    let result = json::parse(&std::fs::read_to_string(&out).expect("result file"))
        .expect("result file parses");
    let _ = std::fs::remove_file(&out);

    let meta = result.get("meta").expect("meta");
    assert_eq!(
        meta.get("smoke").and_then(Value::as_bool),
        Some(true),
        "smoke runs are marked"
    );
    for key in ["git_sha", "rustc", "nproc", "seed", "seconds"] {
        assert!(meta.get(key).is_some(), "provenance lacks {key}");
    }
    assert!(
        stdout.contains("non-binding"),
        "the printed table marks smoke numbers"
    );

    let workloads = result.get("workloads").expect("workloads");
    assert_eq!(
        workloads.entries().len(),
        spec.get("workloads").expect("list").as_arr().len()
    );
    for name in names_of(spec.get("workloads").expect("list")) {
        let w = workloads
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            w.get("correct").and_then(Value::as_bool),
            Some(true),
            "{name} verified its output"
        );
        check_group(
            &name,
            w.get("end_to_end").expect("end_to_end"),
            spec.get("end_to_end").expect("list"),
        );
        check_group(
            &name,
            w.get("per_layer").expect("per_layer"),
            spec.get("per_layer").expect("list"),
        );
        assert!(!w.get("cpus_pinned").expect("cpus").as_arr().is_empty());
        let control = w.get("control").expect("control readings");
        assert!(control.get("baselines.mutex_ring.ns_per_op").is_some());
        let trace_file = w
            .get("trace_file")
            .and_then(Value::as_str)
            .expect("trace file");
        for line in std::fs::read_to_string(trace_file)
            .expect("trace file")
            .lines()
        {
            let span = json::parse(line).expect("span parses");
            assert_eq!(
                span.get("workload").and_then(Value::as_str),
                Some(name.as_str())
            );
        }
    }
}

/// The form the driver uses: one workload, one trace level, the result as
/// the last line of standard output.
#[test]
fn driver_form_prints_the_result_object_last() {
    let spec = spec();
    for (trace, group) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run_ok(&[
            "--workload",
            "handoff",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
            "--trace",
            trace,
        ]);
        let last = stdout.lines().last().expect("output");
        let line = json::parse(last).expect("last line parses");
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert!(line
            .get("attempted")
            .and_then(Value::as_f64)
            .is_some_and(|n| n >= 1.0 && n.fract() == 0.0));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = line.get("metrics").expect("metrics");
        check_group(
            &format!("--trace {trace}"),
            metrics,
            spec.get(group).expect("list"),
        );
        for (_, m) in metrics.entries() {
            let keys: Vec<&str> = m.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }
}

/// A panicked worker and a worker that never finishes must both end the run
/// non-zero, promptly, with no result line and the workload recorded as
/// failed as a whole — never a partner left spinning at the barrier.
#[test]
fn watchdog_turns_a_panic_or_a_hang_into_a_failed_run() {
    for (fault, said) in [("panic", "panicked: injected fault"), ("hang", "watchdog")] {
        let out_file = std::env::temp_dir().join(format!(
            "membq-benchmark-{fault}-{}.json",
            std::process::id()
        ));
        let started = std::time::Instant::now();
        let out = run_sh(
            &[
                "--workload",
                "pairs",
                "--smoke",
                "--trace",
                "0",
                "--out",
                out_file.to_str().expect("utf-8 path"),
            ],
            &[("MEMBQ_BENCH_FAULT", fault)],
        );
        assert_eq!(out.status.code(), Some(2), "{fault}: exit code");
        assert!(started.elapsed().as_secs() < 30, "{fault}: ended promptly");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(said), "{fault}: stderr says why: {stderr}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
        let result = json::parse(&std::fs::read_to_string(&out_file).expect("result file"))
            .expect("result file parses");
        let _ = std::fs::remove_file(&out_file);
        let pairs = result
            .get("workloads")
            .and_then(|w| w.get("pairs"))
            .expect("pairs");
        assert_eq!(pairs.get("correct").and_then(Value::as_bool), Some(false));
        let ok_share = pairs.get("end_to_end").and_then(|e| e.get("ok_share"));
        assert_eq!(
            ok_share
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(0.0)
        );
    }
}

/// Outside a checkout — only `BENCHMARK.json` and the benchmark's own
/// directory — the command must fail without printing a result.
#[test]
fn bare_directory_fails_without_a_result() {
    let bare = std::env::temp_dir().join(format!("membq-benchmark-bare-{}", std::process::id()));
    let copy = |from: &Path, to: &Path| {
        std::fs::create_dir_all(to.parent().expect("parent")).expect("mkdir");
        std::fs::copy(from, to).expect("copy");
    };
    copy(
        &package_dir().join("../BENCHMARK.json"),
        &bare.join("BENCHMARK.json"),
    );
    for file in ["Cargo.toml", "Cargo.lock", "run.sh", "src/main.rs"] {
        copy(
            &package_dir().join(file),
            &bare.join("benchmark").join(file),
        );
    }
    let out = Command::new("bash")
        .arg("benchmark/run.sh")
        .args([
            "--workload",
            "solo",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(&bare)
        .env("CARGO_TARGET_DIR", ".bench_build")
        .output()
        .expect("start run.sh");
    let _ = std::fs::remove_dir_all(&bare);
    assert!(
        !out.status.success(),
        "must exit non-zero without the repository"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("\"metrics\""),
        "must not print a result"
    );
}
