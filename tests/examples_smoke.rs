//! Smoke-run every example with tiny parameters (`MEMBQ_SMOKE=1`) so the
//! examples cannot silently rot: `cargo test` builds all example targets
//! before running integration tests, and this test executes each produced
//! binary and requires a clean exit.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Every example under `examples/` (kept in sync by the count assertion
/// against the source directory below).
const EXAMPLES: &[&str] = &[
    "quickstart",
    "io_ring",
    "overhead_report",
    "pipeline",
    "async_pipeline",
    "task_scheduler",
    "multi_process",
    "observatory",
];

/// `target/<profile>/examples`, derived from this test binary's own path
/// (`target/<profile>/deps/<name>-<hash>`).
fn examples_dir() -> PathBuf {
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop(); // strip test binary name -> deps/
    p.pop(); // strip deps/ -> profile dir
    p.push("examples");
    p
}

#[test]
fn example_list_is_complete() {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut on_disk: Vec<String> = std::fs::read_dir(src)
        .expect("examples dir")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_string)
        })
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = EXAMPLES.iter().map(|s| s.to_string()).collect();
    listed.sort();
    assert_eq!(
        listed, on_disk,
        "tests/examples_smoke.rs EXAMPLES list is out of sync with examples/"
    );
}

#[test]
fn every_example_runs_clean_with_tiny_parameters() {
    let dir = examples_dir();
    for name in EXAMPLES {
        let path = dir.join(name);
        assert!(
            path.exists(),
            "example binary {name} not found at {} — run through `cargo test`, \
             which builds example targets first",
            path.display()
        );
        let start = Instant::now();
        let out = Command::new(&path)
            .env("MEMBQ_SMOKE", "1")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn example {name}: {e}"));
        assert!(
            out.status.success(),
            "example {name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        println!(
            "example {name}: ok in {:.2}s",
            start.elapsed().as_secs_f64()
        );
    }
}
