//! The orchestrator role: start the worker processes, merge what they
//! measured, print every metric by name with its unit, and write the same as
//! JSON with the run's provenance.
//!
//! Each workload runs in a worker process of its own, so a workload that
//! hangs or panics takes only itself down (the worker's watchdog ends it
//! non-zero) and every workload starts from a fresh allocator and fresh
//! threads. End-to-end metrics come from the plain build only; the traced
//! build (`--traced-bin`) gives the per-layer metrics, and the plain build's
//! reading of the same workload is handed to it so it can report
//! `trace.overhead_pct`.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, obj, Value};
use crate::workloads::PlainRef;
use crate::{metrics, Args, PLAIN_CELLS, TRACED_CELLS};

/// Workers run with glibc's per-thread malloc cache off. With it on, the
/// `boxed` layer's pattern — one thread allocates every item, another frees
/// it — is bistable: a `pipeline` process settles at either 1.6 or 2.2 M
/// items/s and stays there, whichever commit it runs. Off, every process
/// reads the same. It is a setting of the benchmark, the same for every
/// commit measured.
const ALLOCATOR_ENV: (&str, &str) = ("GLIBC_TUNABLES", "glibc.malloc.tcache_count=0");

/// Run one worker process to completion and read back its result file.
fn run_worker(
    bin: &Path,
    name: &str,
    args: &Args,
    cells: usize,
    plain_ref: Option<PlainRef>,
    out_dir: &Path,
) -> Result<Value, String> {
    let traced = plain_ref.is_some();
    let result = out_dir.join(format!(
        "worker-{name}-{}.json",
        if traced { "traced" } else { "plain" }
    ));
    let _ = std::fs::remove_file(&result);
    let mut cmd = Command::new(bin);
    cmd.env(ALLOCATOR_ENV.0, ALLOCATOR_ENV.1)
        .args(["--worker", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--cells", &cells.to_string()])
        .arg("--root")
        .arg(&args.root)
        .arg("--result")
        .arg(&result);
    if let Some(r) = plain_ref {
        cmd.args(["--ref-items-per-s", &r.items_per_s.to_string()])
            .args(["--ref-latency-p50-us", &r.latency_p50_us.to_string()]);
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    if !status.success() {
        return Err(format!("worker ended with {status}"));
    }
    let text = std::fs::read_to_string(&result).map_err(|e| format!("no worker result: {e}"))?;
    json::parse(&text)
}

fn metric_value(doc: &Value, group: &str, name: &str) -> Option<f64> {
    doc.get(group)?.get(name)?.get("value")?.as_f64()
}

/// The trimmed standard output of a command, `None` if it failed or said
/// nothing.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// `(key, from[key])`, for copying a field of a worker's result.
fn field(from: &Value, key: &str) -> Result<(String, Value), String> {
    let value = from.get(key).cloned();
    Ok((
        key.to_string(),
        value.ok_or(format!("worker result lacks {key}"))?,
    ))
}

/// One workload: the plain worker, then the traced one. `Err` carries the
/// reason the workload failed as a whole.
fn run_workload(name: &str, args: &Args, exe: &Path, out_dir: &Path) -> Result<Value, String> {
    let want_plain = args.trace != Some(true);
    let want_traced = args.trace != Some(false);
    // A traced-only run still needs the plain build's reading, from as many
    // cells as the traced run takes.
    let plain_cells = if want_plain {
        PLAIN_CELLS
    } else {
        TRACED_CELLS
    };
    let plain = run_worker(exe, name, args, plain_cells, None, out_dir)?;
    let mut doc = Vec::new();
    let mut counted = &plain;
    let traced;
    if want_traced {
        let bin = args
            .traced_bin
            .as_deref()
            .ok_or("a traced run needs --traced-bin (run.sh builds and passes it)")?;
        let value = |m| metric_value(&plain, "end_to_end", m).ok_or("plain result lacks a metric");
        let plain_ref = PlainRef {
            items_per_s: value("items_per_s")?,
            latency_p50_us: value("latency_p50_us")?,
        };
        traced = run_worker(bin, name, args, TRACED_CELLS, Some(plain_ref), out_dir)?;
        if !want_plain {
            counted = &traced;
        }
    } else {
        traced = Value::Null;
    }
    for key in ["correct", "attempted", "failed", "cpus_pinned", "control"] {
        doc.push(field(counted, key)?);
    }
    if want_plain {
        doc.push(field(&plain, "end_to_end")?);
    }
    if want_traced {
        doc.push(field(&traced, "per_layer")?);
        doc.push(field(&traced, "trace_file")?);
        if want_plain {
            doc.push(("traced_control".into(), field(&traced, "control")?.1));
        }
    }
    Ok(Value::Obj(doc))
}

fn print_group(title: &str, group: Option<&Value>) {
    let Some(group) = group else { return };
    println!("  {title}");
    for (name, m) in group.entries() {
        let num = |k| m.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        print!("    {name:<44} {:>14.6} {unit:<8}", num("value"));
        if num("n") > 1.0 {
            print!(
                " min {:.6}  max {:.6}  n={}",
                num("min"),
                num("max"),
                num("n")
            );
        }
        println!();
    }
}

pub fn run(args: &Args) -> i32 {
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => metrics::WORKLOADS.to_vec(),
        one => match metrics::WORKLOADS.iter().find(|w| **w == one) {
            Some(w) => vec![w],
            None => {
                eprintln!(
                    "unknown workload {one}; one of: {}",
                    metrics::WORKLOADS.join(" ")
                );
                return 64;
            }
        },
    };
    let exe = std::env::current_exe().expect("own path");
    let out_dir = args.root.join("out");
    std::fs::create_dir_all(&out_dir).expect("create out/");

    let mut workloads = Vec::new();
    let mut broken = false;
    for name in &names {
        let doc = run_workload(name, args, &exe, &out_dir).unwrap_or_else(|reason| {
            // The workload failed as a whole: every item counts as failed.
            eprintln!("FAILED {name}: {reason}");
            broken = true;
            let whole =
                |v: f64, unit| obj([("value", Value::from(v)), ("unit", Value::from(unit))]);
            obj([
                ("correct", Value::Bool(false)),
                ("error", Value::from(reason)),
                ("attempted", Value::from(1u64)),
                ("failed", Value::from(1u64)),
                ("end_to_end", obj([("ok_share", whole(0.0, "share"))])),
                ("per_layer", obj([("fail_share", whole(1.0, "share"))])),
            ])
        });
        println!(
            "{name}{}",
            if args.smoke {
                "  (smoke: numbers are non-binding)"
            } else {
                ""
            }
        );
        print_group("end to end (plain build)", doc.get("end_to_end"));
        print_group("per layer (traced build)", doc.get("per_layer"));
        workloads.push((name.to_string(), doc));
    }

    // One workload at one trace level is the driver's form: the last line of
    // standard output is the result object. A run that broke prints none.
    let driver_line = match (&workloads[..], args.trace) {
        ([(_, doc)], Some(traced)) if !broken => {
            let group = if traced { "per_layer" } else { "end_to_end" };
            let pick = |from: &Value, k| from.get(k).cloned().unwrap_or(Value::Null);
            let metrics = doc.get(group).map_or(&[][..], Value::entries).iter();
            Some(obj([
                ("correct", pick(doc, "correct")),
                ("attempted", pick(doc, "attempted")),
                ("failed", pick(doc, "failed")),
                (
                    "metrics",
                    obj(metrics.map(|(name, m)| {
                        let pair = obj([("value", pick(m, "value")), ("unit", pick(m, "unit"))]);
                        (name.clone(), pair)
                    })),
                ),
            ]))
        }
        _ => None,
    };

    let repo = args.root.parent().unwrap_or(Path::new(".")).to_path_buf();
    let sha = command_line("git", &["rev-parse", "--short=12", "HEAD"], &repo);
    // Uncommitted changes on top of `git_sha`? (The benchmark's own commit is
    // measured before it exists.) Null outside a git checkout.
    let dirty = sha.as_ref().map_or(Value::Null, |_| {
        Value::Bool(command_line("git", &["status", "--porcelain"], &repo).is_some())
    });
    let unknown = || "unknown".to_string();
    let result = obj([
        ("schema", Value::from("membq-benchmark/1")),
        (
            "meta",
            obj([
                ("git_sha", Value::from(sha.unwrap_or_else(unknown))),
                ("git_dirty", dirty),
                (
                    "rustc",
                    Value::from(
                        command_line("rustc", &["--version"], &repo).unwrap_or_else(unknown),
                    ),
                ),
                (
                    "worker_env",
                    Value::from(format!("{}={}", ALLOCATOR_ENV.0, ALLOCATOR_ENV.1)),
                ),
                (
                    "nproc",
                    Value::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
                ),
                ("seed", Value::from(args.seed)),
                ("seconds", Value::from(args.seconds)),
                // Smoke numbers check plumbing, not performance.
                ("smoke", Value::from(args.smoke)),
                ("plain_cells", Value::from(PLAIN_CELLS)),
                ("traced_cells", Value::from(TRACED_CELLS)),
            ]),
        ),
        ("workloads", Value::Obj(workloads)),
    ]);
    let out: PathBuf = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("result.json"));
    std::fs::write(&out, result.pretty()).expect("write result file");
    println!("result file: {}", out.display());
    if let Some(line) = driver_line {
        println!("{}", line.compact());
    }
    if broken {
        2
    } else {
        0
    }
}
