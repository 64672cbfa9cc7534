//! Run metadata stamped into every `BENCH_*.json` artifact, so archived
//! CI artifacts form a **performance trajectory**: each measurement is
//! attributable to a commit, a host width, and a workload size.
//!
//! Numbers without provenance rot instantly — a table produced under
//! `MEMBQ_SMOKE=1` on a small CI runner must never be compared against
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
    /// `available_parallelism` on the host. With fewer cores than a
    /// row has threads, the row measures contention under preemption,
    /// not parallel speedup (EXPERIMENTS.md keys its hardware note on
    /// this field).
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

#[cfg(test)]
mod tests {
    use super::*;

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
