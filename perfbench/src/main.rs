//! The aji benchmark: seeded, single-client, closed-loop workloads over
//! the public APIs of `aji`, `aji-oracle` and `aji-serve`, with every
//! op's output checked.
//!
//! ```text
//! perfbench --workload population|oracle|daemon
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is 0 when every check passed, 1 when one failed, 2 on a
//! usage or set-up error. See README.md for the workloads and metrics.

mod corpus;
mod daemon;
mod pipeline;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use aji_support::Json;

use stats::{Latencies, Tally};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What one workload run measured.
pub struct Outcome {
    /// Each set-up's duration in seconds.
    pub setup_s: Vec<f64>,
    /// Latencies of the timed ops (the traced ones in a traced run).
    pub lat: Latencies,
    pub tally: Tally,
    /// Peak resident set of the process doing the work, in KiB.
    pub peak_rss_kb: u64,
    /// Per-layer metrics, in a traced run.
    pub layers: Option<BTreeMap<&'static str, f64>>,
}

const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in BENCHMARK.json order. A layer a workload
/// does not reach reports 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("parser.parse_ms", "ms"),
    ("parser.files", "count"),
    ("pta.scopes_ms", "ms"),
    ("pta.baseline_ms", "ms"),
    ("pta.extended_ms", "ms"),
    ("pta.cells", "count"),
    ("pta.tokens", "count"),
    ("pta.propagations", "count"),
    ("pta.solve_rounds", "count"),
    ("approx.worklist_ms", "ms"),
    ("approx.steps", "count"),
    ("approx.items", "count"),
    ("approx.aborted_ratio", "ratio"),
    ("approx.hints", "count"),
    ("approx.coverage", "ratio"),
    ("interp.realm_ms", "ms"),
    ("interp.realm_probe_ms", "ms"),
    ("interp.realms", "count"),
    ("interp.dynamic_ms", "ms"),
    ("interp.dynamic_steps", "count"),
    ("oracle.diff_ms", "ms"),
    ("oracle.triage_ms", "ms"),
    ("oracle.spurious_ms", "ms"),
    ("oracle.missed", "count"),
    ("oracle.spurious", "count"),
    ("serve.rtt_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.parse_hit_ratio", "ratio"),
    ("serve.hint_hit_ratio", "ratio"),
    ("serve.response_hit_ratio", "ratio"),
    ("serve.invalidations", "count"),
    ("support.json_parse_ms", "ms"),
    ("support.json_emit_ms", "ms"),
    ("support.frame_kb", "KB"),
    ("core.vuln_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.op_ms", "ms"),
    ("core.overhead_pct", "%"),
    ("core.traced_ops", "count"),
];

/// The traced run's own end-to-end figures: mean op time traced and the
/// tracing overhead against the untraced ops of the same run.
pub fn insert_core(m: &mut BTreeMap<&'static str, f64>, traced: &Latencies, untraced: &Latencies) {
    m.insert("core.op_ms", traced.mean());
    let overhead = if untraced.mean() > 0.0 {
        (traced.mean() / untraced.mean() - 1.0) * 100.0
    } else {
        0.0
    };
    m.insert("core.overhead_pct", overhead);
    m.insert("core.traced_ops", traced.count() as f64);
}

/// Scratch space for sockets and span files: under the build directory,
/// as a path relative to the working directory where possible (Unix
/// socket paths are limited to about 100 bytes).
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| target.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(target)
        .join("perfbench-run");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
    }
    dir
}

/// Writes a traced run's spans once, at the end of the run.
pub fn write_spans(workload: &str, sp: &spans::Spans) {
    let path = work_dir().join(format!("spans-{workload}.jsonl"));
    match sp.write_jsonl(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, socket] = args.as_slice() {
        if flag == "--serve" {
            return daemon::serve_mode(socket);
        }
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload population|oracle|daemon --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let (seed, secs, trace) = (cli.seed, cli.seconds, cli.trace);
    let outcome = match cli.workload.as_str() {
        "population" => Ok(pipeline::run(
            pipeline::Kind::Population,
            seed,
            secs,
            trace,
            start,
        )),
        "oracle" => Ok(pipeline::run(
            pipeline::Kind::Oracle,
            seed,
            secs,
            trace,
            start,
        )),
        "daemon" => daemon::run(seed, secs, trace, start),
        other => Err(format!("unknown workload '{other}'")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    report(&cli.workload, &outcome)
}

fn report(workload: &str, o: &Outcome) -> ExitCode {
    let metrics: Vec<(&str, f64, &str)> = match &o.layers {
        None => {
            let values = [
                stats::median(&o.setup_s).unwrap_or(0.0),
                o.lat.ops_per_s(),
                o.lat.p50(),
                o.lat.p90(),
                o.peak_rss_kb as f64 / 1024.0,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect()
        }
        Some(layers) => PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
    };
    for (name, value, unit) in &metrics {
        println!("{workload}: {name} = {value:.4} {unit}");
    }
    println!(
        "{workload}: {} timed ops over {} keys, set-ups {:?} s, fail_rate = {} ({} of {} ops failed)",
        o.lat.count(),
        o.lat.keys(),
        o.setup_s,
        o.tally.fail_rate(),
        o.tally.failed,
        o.tally.attempted
    );
    let correct = o.tally.failed == 0 && o.lat.count() > 0;
    let doc = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(o.tally.attempted as f64)),
        ("failed", Json::Num(o.tally.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        let v = if value.is_finite() { value } else { 0.0 };
                        (
                            name.to_string(),
                            Json::obj(vec![
                                ("value", Json::Num(v)),
                                ("unit", Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{doc}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
