//! Run metadata stamped into every `BENCH_*.json` artifact, so archived
//! CI artifacts form a **performance trajectory**: each measurement is
//! attributable to a commit, a host width, and a workload size.
//!
//! Numbers without provenance rot instantly — a table produced under
//! `MEMBQ_SMOKE=1` on a 1-core CI runner must never be compared against
//! a full-size run on a wide box as if they were the same experiment.
//! Stamping `git_sha`/`smoke`/`host_cores` into the artifact makes the
//! comparison keys part of the data.

use serde::Serialize;

/// Provenance for one benchmark-binary run.
#[derive(Serialize, Clone, Debug)]
pub struct RunMeta {
    /// Short commit hash of the workspace (`git rev-parse --short HEAD`,
    /// falling back to `GITHUB_SHA`, then `"unknown"` outside a repo).
    pub git_sha: String,
    /// Whether the run used the tiny `MEMBQ_SMOKE=1` workload sizes —
    /// smoke numbers check plumbing, not performance.
    pub smoke: bool,
    /// `available_parallelism` on the host. On a 1-core host every
    /// multi-worker column measures contention under preemption, not
    /// parallel speedup (the tables repeat this caveat inline).
    pub host_cores: usize,
}

/// The shape of every `BENCH_*.json` file: provenance + rows. (Manual
/// `Serialize` impl: the vendored derive handles non-generic structs
/// only.)
pub struct BenchDoc<'a, R: Serialize> {
    /// Run provenance.
    pub meta: &'a RunMeta,
    /// The experiment's measurements.
    pub rows: &'a [R],
}

impl<R: Serialize> Serialize for BenchDoc<'_, R> {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"meta\":");
        self.meta.write_json(out);
        out.push_str(",\"rows\":");
        self.rows.write_json(out);
        out.push('}');
    }
}

/// The workspace-wide smoke-mode convention: `MEMBQ_SMOKE` set, non-empty
/// and not `"0"`.
pub fn smoke_mode() -> bool {
    std::env::var("MEMBQ_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn git_sha() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
    {
        if out.status.success() {
            let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !sha.is_empty() {
                return sha;
            }
        }
    }
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha.chars().take(12).collect();
        }
    }
    "unknown".to_string()
}

/// Collect this run's provenance (reads the smoke convention itself).
pub fn run_meta() -> RunMeta {
    RunMeta {
        git_sha: git_sha(),
        smoke: smoke_mode(),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Serialize `{meta, rows}` to `path` (pretty JSON, the artifact format).
pub fn write_bench_json<R: Serialize>(path: &str, meta: &RunMeta, rows: &[R]) {
    let doc = BenchDoc { meta, rows };
    let json = serde_json::to_string_pretty(&doc).expect("serialize bench doc");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Append one compact line to `BENCH_trajectory.jsonl` — the long-lived
/// per-commit summary CI archives next to the full tables. `summary` is
/// the experiment's headline numbers (small, hand-picked).
pub fn append_trajectory(meta: &RunMeta, experiment: &str, summary: &[(&str, f64)]) {
    use std::io::Write;
    let mut line = String::from("{\"git_sha\":");
    meta.git_sha.write_json(&mut line);
    line.push_str(",\"smoke\":");
    meta.smoke.write_json(&mut line);
    line.push_str(",\"host_cores\":");
    meta.host_cores.write_json(&mut line);
    line.push_str(",\"experiment\":");
    experiment.write_json(&mut line);
    for (key, v) in summary {
        line.push(',');
        serde::escape_str(key, &mut line);
        line.push(':');
        v.write_json(&mut line);
    }
    line.push('}');
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_trajectory.jsonl")
        .expect("open BENCH_trajectory.jsonl");
    writeln!(f, "{line}").expect("append BENCH_trajectory.jsonl");
}

// -- minimal JSON field extraction ---------------------------------------
//
// The vendored serde shim serializes only, so the few places that read
// bench artifacts back (the E17 two-pass comparison, `trajectory_check`)
// extract flat `"key": value` fields textually. Good enough for the
// machine-written one-level documents these tools consume; not a JSON
// parser.

/// First numeric value for `key` in a flat JSON text.
pub fn json_f64(text: &str, key: &str) -> Option<f64> {
    let rest = json_raw(text, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// First string value for `key` in a flat JSON text (no escape handling:
/// the writers only emit plain identifiers here).
pub fn json_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = json_raw(text, key)?.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// First boolean value for `key` in a flat JSON text.
pub fn json_bool(text: &str, key: &str) -> Option<bool> {
    let rest = json_raw(text, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn json_raw<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    Some(text[at..].trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_extraction_reads_what_the_writers_emit() {
        let line =
            "{\"git_sha\":\"abc\",\"smoke\":true,\"experiment\":\"E17\",\"overhead_pct\":-1.25e0}";
        assert_eq!(json_str(line, "experiment"), Some("E17"));
        assert_eq!(json_bool(line, "smoke"), Some(true));
        assert_eq!(json_f64(line, "overhead_pct"), Some(-1.25));
        assert_eq!(json_f64(line, "missing"), None);
        assert_eq!(json_str(line, "smoke"), None, "non-string value");
    }

    #[test]
    fn meta_has_all_provenance_fields() {
        let m = run_meta();
        assert!(!m.git_sha.is_empty());
        assert!(m.host_cores >= 1);
        // A commit hash in a checkout; `git_sha()`'s documented fallback
        // in a tree copied without `.git` (a tarball, the benchmark
        // driver's build directory).
        assert!(
            m.git_sha == "unknown" || m.git_sha.chars().all(|c| c.is_ascii_hexdigit()),
            "expected a commit hash or \"unknown\", got {}",
            m.git_sha
        );
    }

    #[test]
    fn bench_doc_serializes_meta_and_rows() {
        let m = RunMeta {
            git_sha: "abc123".into(),
            smoke: true,
            host_cores: 1,
        };
        let doc = BenchDoc {
            meta: &m,
            rows: &[1.5f64, 2.0],
        };
        let s = serde_json::to_string(&doc).unwrap();
        assert_eq!(
            s,
            "{\"meta\":{\"git_sha\":\"abc123\",\"smoke\":true,\"host_cores\":1},\"rows\":[1.5,2]}"
        );
    }
}
