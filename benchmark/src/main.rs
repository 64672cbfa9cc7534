//! The membq benchmark: seven workloads over the queue stack, measured from
//! outside through the public surface the examples use. See README.md.
//!
//! One binary, three roles:
//!
//! * **orchestrator** (default): for each selected workload, start a worker
//!   process of the plain build for the end-to-end metrics and a worker of
//!   the traced build (`--traced-bin`) for the per-layer metrics, then print
//!   every metric by name with its unit and write the same as JSON;
//! * **worker** (`--worker <workload>`): pin, set up, run the cells, check
//!   the outputs, and write one workload's result. A worker measures and
//!   never orchestrates; the orchestrator never measures;
//! * **`compare a.json b.json`**: apply the bounds of `BENCHMARK.json` to two
//!   result files.

mod compare;
mod crew;
mod json;
mod ladder;
mod metrics;
mod orchestrate;
#[cfg(test)]
mod selftest;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;

use json::{obj, Value};
use stats::Stat;
use workloads::{Outcome, Params, PlainRef};

#[cfg(feature = "trace")]
#[global_allocator]
static GLOBAL: membq::memtrack::TrackingAlloc = membq::memtrack::TrackingAlloc;

/// `--seconds` when the command line gives none.
const DEFAULT_SECONDS: f64 = 10.0;
/// `--smoke` runs every workload at this many "seconds": plumbing, not
/// performance.
const SMOKE_SECONDS: f64 = 0.02;
pub const PLAIN_CELLS: usize = 7;
pub const TRACED_CELLS: usize = 3;

/// The command line, for every role.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// `Some(false)` = `--trace 0`, `Some(true)` = `--trace 1`, `None` = both.
    pub trace: Option<bool>,
    pub smoke: bool,
    pub out: Option<PathBuf>,
    /// The benchmark's own directory (`BENCHMARK.json` is beside it).
    pub root: PathBuf,
    pub traced_bin: Option<PathBuf>,
    // -- worker role ---------------------------------------------------------
    pub worker: Option<String>,
    pub cells: Option<usize>,
    pub result: Option<PathBuf>,
    pub plain_ref: Option<PlainRef>,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n\
         \x20      run.sh compare <a.json> <b.json>\n\
         workloads: {}",
        metrics::WORKLOADS.join(" ")
    );
    std::process::exit(64)
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: "all".into(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        out: None,
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        traced_bin: None,
        worker: None,
        cells: None,
        result: None,
        plain_ref: None,
    };
    let (mut ref_rate, mut ref_p50) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        fn num<T: std::str::FromStr>(s: String) -> T {
            s.parse().unwrap_or_else(|_| usage())
        }
        match flag.as_str() {
            "--workload" => a.workload = val(),
            "--seed" => a.seed = num(val()),
            "--seconds" => a.seconds = num(val()),
            "--trace" => {
                a.trace = match val().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(val().into()),
            "--root" => a.root = val().into(),
            "--traced-bin" => a.traced_bin = Some(val().into()),
            "--worker" => a.worker = Some(val()),
            "--cells" => a.cells = Some(num(val())),
            "--result" => a.result = Some(val().into()),
            "--ref-items-per-s" => ref_rate = Some(num(val())),
            "--ref-latency-p50-us" => ref_p50 = Some(num(val())),
            _ => usage(),
        }
    }
    if let (Some(items_per_s), Some(latency_p50_us)) = (ref_rate, ref_p50) {
        a.plain_ref = Some(PlainRef {
            items_per_s,
            latency_p50_us,
        });
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        usage();
    }
    if a.smoke {
        a.seconds = SMOKE_SECONDS;
    }
    a
}

fn stat_json(s: &Stat) -> Value {
    obj([
        ("value", Value::from(s.median())),
        ("unit", Value::from(s.unit)),
        ("min", Value::from(s.min())),
        ("max", Value::from(s.max())),
        ("n", Value::from(s.cells.len())),
        ("cells", Value::from(s.cells.clone())),
    ])
}

fn stats_json(stats: &[(&'static str, Stat)]) -> Value {
    obj(stats.iter().map(|(n, s)| (*n, stat_json(s))))
}

/// The worker role: measure the ladder (the controls alone in the plain
/// build) and one workload, and write the result where the orchestrator
/// asked.
fn worker(args: &Args, name: &str) {
    let traced = cfg!(feature = "trace");
    let cpus = sys::startup_cpus();
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        cells: args
            .cells
            .unwrap_or(if traced { TRACED_CELLS } else { PLAIN_CELLS }),
        plain_ref: args.plain_ref,
    };
    // The controls come first, on a pinned thread of their own, in every
    // result: a reader can tell a host shift from a code shift.
    let pairs = ladder::pairs_for(args.seconds);
    let mut per_layer = ladder::on_pinned_thread(move || {
        if traced {
            ladder::full(pairs)
        } else {
            ladder::controls(pairs)
        }
    });
    let control: Vec<(&'static str, Stat)> = per_layer
        .iter()
        .filter(|(n, _)| ladder::CONTROLS.contains(n))
        .cloned()
        .collect();

    let outcome: Outcome = match name {
        "solo" => workloads::token::solo(&p),
        "pairs" => workloads::token::pairs(&p),
        "pipeline" => workloads::pipeline::run(&p),
        "handoff" => workloads::handoff::run(&p),
        "paced" => workloads::paced::run(&p),
        "io_ring" => workloads::io_ring::run(&p),
        "shm_procs" => workloads::shm_procs::run(&p),
        _ => usage(),
    };
    per_layer.extend(outcome.per_layer.iter().cloned());

    let mut doc = vec![
        ("workload", Value::from(name)),
        ("traced", Value::from(traced)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("correct", Value::from(outcome.incorrect == 0)),
        ("cells", Value::from(p.cells)),
        // Worker i is pinned to the i-th CPU of the start-up mask.
        ("cpus_pinned", Value::from(cpus[..outcome.workers].to_vec())),
        ("control", stats_json(&control)),
        ("end_to_end", stats_json(&outcome.end_to_end)),
    ];
    if traced {
        // A layer this workload never calls reads 0.
        let all: Vec<(&'static str, Stat)> = metrics::PER_LAYER
            .iter()
            .map(|m| {
                let found = per_layer.iter().find(|(n, _)| *n == m.name);
                (
                    m.name,
                    found.map_or(Stat::exact(m.unit, 0.0), |(_, s)| s.clone()),
                )
            })
            .collect();
        doc.push(("per_layer", stats_json(&all)));
        let path = args.root.join("out").join(format!("trace-{name}.jsonl"));
        std::fs::create_dir_all(path.parent().expect("out dir")).expect("create out/");
        std::fs::write(&path, trace::to_jsonl(name, &outcome.spans)).expect("write trace file");
        doc.push(("trace_file", Value::from(path.display().to_string())));
    }
    let text = obj(doc).pretty();
    match &args.result {
        Some(path) => std::fs::write(path, text).expect("write worker result"),
        None => print!("{text}"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b, rest @ ..] = argv.as_slice() else {
            usage()
        };
        let args = parse_args(rest);
        std::process::exit(compare::run(&args.root, a.as_ref(), b.as_ref()));
    }
    let args = parse_args(&argv);
    match args.worker.clone() {
        Some(name) => worker(&args, &name),
        None => std::process::exit(orchestrate::run(&args)),
    }
}
