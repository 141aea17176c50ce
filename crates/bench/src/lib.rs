//! Experiment harness for the *aji* reproduction — and the shared
//! **parallel corpus-evaluation driver** every experiment binary runs on.
//!
//! The paper's evaluation (§5) repeats the same shape six times: load a
//! corpus (`aji_corpus::table1_benchmarks` or `full_population`), run the
//! pipeline on every project, report per-project rows and corpus-level
//! summaries. This crate centralises that shape:
//!
//! * [`run_corpus`] — fan [`aji::run_benchmark`] over a corpus on scoped
//!   worker threads ([`aji_support::par::map`]), preserving project order.
//! * [`run_corpus_map`] — the generic variant for binaries that run
//!   something other than the full pipeline per project (`table1` only
//!   parses, `ablations` runs six analysis modes on one shared parse).
//! * [`split_results`] / [`failures_json`] — the uniform error path:
//!   split successes from `(name, error)` failures and report them;
//!   [`collect_reports`] prints each failure as `name: error` on stderr.
//! * [`CorpusCli`] / [`exit_code`] — the uniform command line
//!   (`--threads N`, `--json`, `AJI_THREADS`) and exit codes
//!   (0 = all projects succeeded, 1 = some failed, 2 = bad usage).
//! * [`corpus_metrics_json`] — the deterministic (timing-free) corpus
//!   report used by `--json` output and the determinism tests.
//!
//! # Determinism
//!
//! Parallel output is **byte-identical to serial output** apart from
//! wall-clock fields. Three properties make that hold:
//!
//! 1. [`aji_support::par::map`] returns results in input order, whatever
//!    the thread interleaving;
//! 2. every analysis in the pipeline is deterministic for a fixed corpus
//!    (seeded corpus generation, `BTreeMap`-ordered solvers);
//! 3. observability data is collected into a **fresh [`aji_obs::Registry`]
//!    per worker** and folded into the caller's registry with
//!    [`aji_obs::Registry::absorb`] — a commutative, order-insensitive
//!    merge — *after* all workers finish, in project order.
//!
//! Timings (`*_seconds` on [`aji::BenchmarkReport`], span `total_ns`) are
//! the one nondeterministic residue; [`corpus_metrics_json`] excludes
//! them, which is what the byte-identity tests compare. See
//! BENCHMARKS.md for the full methodology.
//!
//! The experiment binaries live under `src/bin/` (one per table/figure of
//! the paper — see DESIGN.md's experiment index). Performance is measured
//! end to end by `perfbench` (see BENCHMARKS.md), not by micro-benchmarks.
//!
//! # Example
//!
//! ```
//! use aji::PipelineOptions;
//! use aji_bench::{collect_reports, run_corpus};
//!
//! let projects: Vec<_> = aji_corpus::pattern_projects().into_iter().take(2).collect();
//! let results = run_corpus(projects, &PipelineOptions::default(), 2);
//! assert_eq!(results.len(), 2);
//! let (reports, failures) = collect_reports(results);
//! assert_eq!((reports.len(), failures), (2, 0));
//! ```

#![warn(missing_docs)]

use aji::{run_benchmark, BenchmarkReport, PipelineError, PipelineOptions};
use aji_ast::Project;
use aji_support::Json;
use std::fmt;
use std::process::ExitCode;
use std::sync::Arc;

pub mod diff;

/// Outcome of running one corpus project: the project name plus either the
/// payload produced for it or the error that stopped it.
///
/// Produced by [`run_corpus`] (where `R` is [`BenchmarkReport`] and `E` is
/// [`PipelineError`]) and [`run_corpus_map`] (any `R`/`E`). The name is
/// kept outside the `Result` so failures can still be attributed.
#[derive(Debug)]
pub struct ProjectResult<R = BenchmarkReport, E = PipelineError> {
    /// `Project::name` of the corpus entry.
    pub name: String,
    /// What the per-project function returned.
    pub outcome: Result<R, E>,
}

/// Runs the full [`aji::run_benchmark`] pipeline over a corpus on up to
/// `threads` scoped worker threads, returning per-project results **in
/// input order**.
///
/// `threads == 0` means "use available parallelism" (capped at 8), the
/// [`aji_support::par::map`] convention; pass
/// [`CorpusCli::from_env`]'s `threads` to honour `--threads`/`AJI_THREADS`.
///
/// If observability collection is active on the calling thread (`AJI_OBS`,
/// [`aji_obs::force_enable`], or an enclosing [`aji_obs::scoped`] region),
/// each worker collects into its own registry and the driver folds all of
/// them into the caller's registry in project order once the fan-out
/// completes — so counters, histograms and span aggregates are identical
/// whatever `threads` is. See the crate docs for why.
///
/// # Example
///
/// ```
/// use aji::PipelineOptions;
/// use aji_bench::run_corpus;
///
/// let projects: Vec<_> = aji_corpus::pattern_projects().into_iter().take(3).collect();
/// let serial = run_corpus(projects.clone(), &PipelineOptions::default(), 1);
/// let parallel = run_corpus(projects, &PipelineOptions::default(), 3);
/// let names = |rs: &[aji_bench::ProjectResult]| -> Vec<String> {
///     rs.iter().map(|r| r.name.clone()).collect()
/// };
/// assert_eq!(names(&serial), names(&parallel)); // input order, not finish order
/// ```
pub fn run_corpus(
    projects: Vec<Project>,
    opts: &PipelineOptions,
    threads: usize,
) -> Vec<ProjectResult> {
    run_corpus_map(projects, threads, |p| run_benchmark(p, opts))
}

/// Generic corpus fan-out: applies `f` to every project on up to `threads`
/// scoped worker threads, preserving input order and merging per-worker
/// observability data deterministically (see [`run_corpus`]).
///
/// This is what experiment binaries that do *not* run the full pipeline
/// build on: `table1` parses and counts functions, `ablations` runs six
/// analysis configurations against one shared parse and hint set.
///
/// When collection is active, a `corpus.projects` counter records the
/// corpus size and each worker's events land under the caller's registry.
///
/// # Example
///
/// ```
/// use aji_bench::run_corpus_map;
/// use std::sync::Arc;
///
/// let reg = Arc::new(aji_obs::Registry::new());
/// let projects: Vec<_> = aji_corpus::pattern_projects().into_iter().take(3).collect();
/// let results = aji_obs::scoped(&reg, || {
///     run_corpus_map(projects, 2, |p| {
///         aji_parser::parse_project(p).map(|parsed| parsed.modules.len())
///     })
/// });
/// assert!(results.iter().all(|r| r.outcome.is_ok()));
/// assert_eq!(reg.report().counter("corpus.projects"), Some(3));
/// ```
pub fn run_corpus_map<R, E, F>(
    projects: Vec<Project>,
    threads: usize,
    f: F,
) -> Vec<ProjectResult<R, E>>
where
    R: Send,
    E: Send,
    F: Fn(&Project) -> Result<R, E> + Sync,
{
    // TLS-scoped registries are per-thread: workers spawned below do NOT
    // see the caller's scope, so capture it here and merge explicitly.
    let parent = aji_obs::current_registry();
    let n = projects.len();
    let raw = aji_support::par::map(projects, threads, |project| {
        let name = project.name.clone();
        if let Some(parent) = &parent {
            // `new_like` inherits the parent's flight-recorder config with
            // a fresh ring, so each project's trace fills identically no
            // matter which worker runs it.
            let reg = Arc::new(aji_obs::Registry::new_like(parent));
            let outcome = aji_obs::scoped(&reg, || f(&project));
            (name, outcome, Some(reg.report()))
        } else {
            (name, f(&project), None)
        }
    });
    if let Some(parent) = &parent {
        // Input order; `absorb` is commutative for counters and appends
        // trace events per project, so this matches a serial run no
        // matter how the workers interleaved.
        for (_, _, obs) in &raw {
            if let Some(obs) = obs {
                parent.absorb(obs);
            }
        }
        aji_obs::counter_add("corpus.projects", n as u64);
        aji_obs::record_peak_rss();
    }
    raw.into_iter()
        .map(|(name, outcome, _)| ProjectResult { name, outcome })
        .collect()
}

/// Splits corpus results into successful payloads and `(name, error)`
/// pairs, both in input (corpus) order — the shape every corpus report
/// keeps its failures in (see [`failures_json`]).
pub fn split_results<R, E: fmt::Display>(
    results: impl IntoIterator<Item = ProjectResult<R, E>>,
) -> (Vec<R>, Vec<(String, String)>) {
    let mut ok = Vec::new();
    let mut errors = Vec::new();
    for r in results {
        match r.outcome {
            Ok(payload) => ok.push(payload),
            Err(e) => errors.push((r.name, e.to_string())),
        }
    }
    (ok, errors)
}

/// A corpus report's failures: one `{"name", "error"}` object per
/// `(name, error)` pair, in order.
#[must_use]
pub fn failures_json(errors: &[(String, String)]) -> Json {
    Json::Arr(errors.iter().map(|(n, e)| failure_json(n, e)).collect())
}

fn failure_json(name: &str, error: &str) -> Json {
    Json::obj(vec![
        ("name", Json::Str(name.to_string())),
        ("error", Json::Str(error.to_string())),
    ])
}

/// Splits corpus results into successful payloads and a failure count,
/// printing each failure as `name: error` on stderr — the uniform
/// error-handling path shared by every experiment binary.
///
/// Successes keep their input (corpus) order.
pub fn collect_reports<R, E: fmt::Display>(results: Vec<ProjectResult<R, E>>) -> (Vec<R>, usize) {
    let (ok, errors) = split_results(results);
    for (name, e) in &errors {
        eprintln!("{name}: {e}");
    }
    (ok, errors.len())
}

/// The profile a corpus binary prints at exit when collection is on
/// (`AJI_OBS=1`): everything absorbed from its workers, rendered as text.
/// `None` when collection is off.
pub fn exit_profile() -> Option<String> {
    if !aji_obs::enabled() {
        return None;
    }
    let reg = aji_obs::current_registry()?;
    Some(aji_obs::render_text(
        &reg.report(),
        &aji_obs::RenderOptions::default(),
    ))
}

/// The uniform experiment-binary exit code: success only if every corpus
/// project succeeded.
///
/// This is also where a corpus binary prints its [`exit_profile`], on
/// stderr, so stdout (and `--json` output) stays byte-identical.
///
/// (Usage errors exit with code 2 from [`CorpusCli::from_env`] before any
/// work starts.)
pub fn exit_code(failures: usize) -> ExitCode {
    if let Some(text) = exit_profile() {
        eprint!("{text}");
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs the corpus in **daemon (thin-client) mode**: one `analyze`
/// request per project against a running `aji-serve` daemon, fanned out
/// over up to `threads` client threads, results **in corpus order**.
///
/// Each request carries the project inline (`Project::to_json`), so the
/// daemon needs no corpus of its own, and opens a fresh connection
/// ([`aji_support::wire::request`]) — responses depend only on request
/// content, never on connection interleaving, which is what keeps daemon
/// runs byte-identical at any client thread count. The success payload is
/// the daemon's `result` field, which is exactly the project's
/// [`BenchmarkReport::metrics_json`] — so [`daemon_metrics_json`] over
/// these results matches [`corpus_metrics_json`] over a local run
/// byte-for-byte (`tests/daemon_determinism.rs` pins this).
///
/// `dynamic` selects the dynamic-call-graph pipeline
/// ([`PipelineOptions::with_dynamic_cg`]), as `table2` needs.
pub fn run_corpus_daemon(
    projects: Vec<Project>,
    socket: &str,
    threads: usize,
    dynamic: bool,
) -> Vec<ProjectResult<Json, String>> {
    aji_support::par::map(projects, threads, |project| {
        let name = project.name.clone();
        let mut pairs = vec![
            ("op".to_string(), Json::Str("analyze".into())),
            ("project".to_string(), project.to_json()),
        ];
        if dynamic {
            pairs.push(("dynamic".to_string(), Json::Bool(true)));
        }
        let outcome = match aji_support::wire::request(socket, &Json::Obj(pairs)) {
            Ok(resp) if resp.get("ok") == Some(&Json::Bool(true)) => resp
                .get("result")
                .cloned()
                .ok_or_else(|| "daemon response frame has no result".to_string()),
            Ok(resp) => Err(resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("daemon error frame without message")
                .to_string()),
            Err(e) => Err(format!("daemon request failed: {e}")),
        };
        ProjectResult { name, outcome }
    })
}

/// The daemon-mode twin of [`corpus_metrics_json`]: success payloads are
/// embedded as-is (they already are `metrics_json` objects), failures
/// become `{"name", "error"}` entries in place.
pub fn daemon_metrics_json(results: &[ProjectResult<Json, String>]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|r| match &r.outcome {
                Ok(payload) => payload.clone(),
                Err(e) => failure_json(&r.name, e),
            })
            .collect(),
    )
}

/// Wraps a per-project metrics array ([`corpus_metrics_json`] or
/// [`daemon_metrics_json`]) in the §5 vulnerability summary the `vulns`
/// text report prints: total and reachable vulnerability counts plus
/// total reachable functions, aggregated from the entries (entries with
/// an `"error"` field count only toward `failures`). The `vulns --json`
/// and `vulns --daemon` paths both print this object, so the
/// machine-readable output carries the same reach totals as the table —
/// the bare array used to return before computing them.
#[must_use]
pub fn vulns_corpus_json(metrics: &Json) -> Json {
    let empty = Vec::new();
    let entries = metrics.as_arr().unwrap_or(&empty);
    let num = |entry: &Json, outer: &str, inner: &str| -> f64 {
        entry
            .get(outer)
            .and_then(|o| o.get(inner))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let (mut total, mut reach_b, mut reach_x) = (0.0, 0.0, 0.0);
    let (mut funcs_b, mut funcs_x) = (0.0, 0.0);
    let mut failures = 0usize;
    for entry in entries {
        if entry.get("error").is_some() {
            failures += 1;
            continue;
        }
        total += num(entry, "vulns", "total");
        reach_b += num(entry, "vulns", "reachable_baseline");
        reach_x += num(entry, "vulns", "reachable_extended");
        funcs_b += num(entry, "baseline", "reachable_functions");
        funcs_x += num(entry, "extended", "reachable_functions");
    }
    Json::obj(vec![
        ("projects", Json::Num((entries.len() - failures) as f64)),
        ("failures", Json::Num(failures as f64)),
        (
            "vulns",
            Json::obj(vec![
                ("total", Json::Num(total)),
                ("reachable_baseline", Json::Num(reach_b)),
                ("reachable_extended", Json::Num(reach_x)),
            ]),
        ),
        (
            "reachable_functions",
            Json::obj(vec![
                ("baseline", Json::Num(funcs_b)),
                ("extended", Json::Num(funcs_x)),
            ]),
        ),
        ("per_project", metrics.clone()),
    ])
}

/// The shared `--daemon SOCKET` code path of the experiment binaries:
/// runs [`run_corpus_daemon`], prints [`daemon_metrics_json`] (the same
/// deterministic report `--json` prints for a local run), and returns
/// the uniform [`exit_code`].
pub fn run_daemon_mode(
    projects: Vec<Project>,
    socket: &str,
    threads: usize,
    dynamic: bool,
) -> ExitCode {
    let results = run_corpus_daemon(projects, socket, threads, dynamic);
    let failures = results.iter().filter(|r| r.outcome.is_err()).count();
    for r in &results {
        if let Err(e) = &r.outcome {
            eprintln!("{}: {e}", r.name);
        }
    }
    println!("{}", daemon_metrics_json(&results));
    exit_code(failures)
}

/// The **deterministic** corpus-level report: one entry per project, in
/// corpus order — [`BenchmarkReport::metrics_json`] for successes (which
/// excludes the nondeterministic wall-clock fields), `{"name", "error"}`
/// for failures.
///
/// Two runs over the same corpus print byte-identical text whatever the
/// thread count; `tests/corpus_determinism.rs` asserts exactly that.
pub fn corpus_metrics_json<E: fmt::Display>(
    results: &[ProjectResult<BenchmarkReport, E>],
) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|r| match &r.outcome {
                Ok(report) => report.metrics_json(),
                Err(e) => failure_json(&r.name, &e.to_string()),
            })
            .collect(),
    )
}

/// The command-line options every corpus binary shares.
///
/// * `--threads N` — worker threads; `0` means "use available
///   parallelism" (capped at 8, the [`aji_support::par::map`] convention).
///   Defaults to the `AJI_THREADS` environment variable via
///   [`aji_support::par::threads_from_env`], so
///   `AJI_THREADS=4 cargo run --bin fig4_7` and
///   `cargo run --bin fig4_7 -- --threads 4` are equivalent (the flag
///   wins when both are given).
/// * `--json` — print the deterministic [`corpus_metrics_json`] report
///   instead of the human-readable table (only on binaries that produce
///   [`BenchmarkReport`]s).
/// * `--daemon SOCKET` — thin-client mode: send each project to a running
///   `aji-serve` daemon instead of analyzing locally, and print the same
///   deterministic JSON report ([`run_daemon_mode`]). Gated like `--json`:
///   only binaries whose corpus output is a [`BenchmarkReport`] stream
///   accept it.
///
/// # Example
///
/// ```
/// use aji_bench::CorpusCli;
///
/// let cli = CorpusCli::parse(["--threads".into(), "4".into(), "--json".into()], true).unwrap();
/// assert_eq!((cli.threads, cli.json), (4, true));
/// let cli = CorpusCli::parse(["--daemon".into(), "/tmp/aji.sock".into()], true).unwrap();
/// assert_eq!(cli.daemon.as_deref(), Some("/tmp/aji.sock"));
/// assert!(CorpusCli::parse(["--bogus".into()], true).is_err());
/// assert!(CorpusCli::parse(["--json".into()], false).is_err()); // not supported here
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCli {
    /// Worker-thread count for [`run_corpus`] / [`run_corpus_map`]
    /// (`0` = auto).
    pub threads: usize,
    /// Emit the deterministic JSON report instead of the table.
    pub json: bool,
    /// `aji-serve` socket path for thin-client mode ([`run_daemon_mode`]).
    pub daemon: Option<String>,
}

impl CorpusCli {
    /// Parses an argument list (without the program name).
    ///
    /// `json_supported` gates the `--json` and `--daemon` flags: binaries
    /// whose output is not a [`BenchmarkReport`] corpus reject them up
    /// front rather than silently ignoring them.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags, a missing or
    /// non-numeric `--threads` value, a missing `--daemon` socket path, or
    /// `--json`/`--daemon` where unsupported.
    pub fn parse<I>(args: I, json_supported: bool) -> Result<CorpusCli, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut cli = CorpusCli {
            threads: aji_support::par::threads_from_env(),
            json: false,
            daemon: None,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--threads" => {
                    let v = it.next().ok_or("--threads expects a number")?;
                    cli.threads = v
                        .parse()
                        .map_err(|_| format!("invalid --threads value: {v}"))?;
                }
                "--json" if json_supported => cli.json = true,
                "--json" => return Err("--json is not supported by this binary".to_string()),
                "--daemon" if json_supported => {
                    cli.daemon = Some(it.next().ok_or("--daemon expects a socket path")?);
                }
                "--daemon" => {
                    return Err("--daemon is not supported by this binary".to_string())
                }
                other => match (other.strip_prefix("--threads="), other.strip_prefix("--daemon=")) {
                    (Some(v), _) => {
                        cli.threads = v
                            .parse()
                            .map_err(|_| format!("invalid --threads value: {v}"))?;
                    }
                    (None, Some(v)) if json_supported => cli.daemon = Some(v.to_string()),
                    (None, Some(_)) => {
                        return Err("--daemon is not supported by this binary".to_string())
                    }
                    (None, None) => return Err(format!("unknown argument: {other}")),
                },
            }
        }
        Ok(cli)
    }

    /// Parses the process arguments, handling `--help` (exit 0) and usage
    /// errors (message + usage on stderr, exit 2) itself so every binary's
    /// `main` reduces to `let cli = CorpusCli::from_env("name", true);`.
    pub fn from_env(bin: &str, json_supported: bool) -> CorpusCli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", Self::usage(bin, json_supported));
            std::process::exit(0);
        }
        match Self::parse(args, json_supported) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("{bin}: {e}");
                eprintln!("{}", Self::usage(bin, json_supported));
                std::process::exit(2);
            }
        }
    }

    fn usage(bin: &str, json_supported: bool) -> String {
        let json_line = if json_supported {
            "\n  --json           print the deterministic corpus report as JSON\
             \n  --daemon SOCKET  send projects to a running aji-serve daemon\n                   (implies JSON output; see DAEMON.md)"
        } else {
            ""
        };
        format!(
            "usage: {bin} [--threads N]{}\n\n  --threads N      worker threads (0 = auto, capped at 8); \
             defaults to $AJI_THREADS{json_line}",
            if json_supported {
                " [--json] [--daemon SOCKET]"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn vulns_corpus_json_aggregates_totals_and_skips_failures() {
        let metrics = Json::parse(
            r#"[
              {"name":"a","baseline":{"reachable_functions":7},"extended":{"reachable_functions":25},
               "vulns":{"total":2,"reachable_baseline":1,"reachable_extended":2}},
              {"name":"b","error":"boom"},
              {"name":"c","baseline":{"reachable_functions":3},"extended":{"reachable_functions":4}}
            ]"#,
        )
        .unwrap();
        let wrapped = vulns_corpus_json(&metrics);
        assert_eq!(wrapped.get("projects").and_then(Json::as_f64), Some(2.0));
        assert_eq!(wrapped.get("failures").and_then(Json::as_f64), Some(1.0));
        let vulns = wrapped.get("vulns").unwrap();
        assert_eq!(vulns.get("total").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            vulns.get("reachable_baseline").and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            vulns.get("reachable_extended").and_then(Json::as_f64),
            Some(2.0)
        );
        let funcs = wrapped.get("reachable_functions").unwrap();
        assert_eq!(funcs.get("baseline").and_then(Json::as_f64), Some(10.0));
        assert_eq!(funcs.get("extended").and_then(Json::as_f64), Some(29.0));
        // The per-project entries ride along unchanged.
        assert_eq!(wrapped.get("per_project"), Some(&metrics));
    }

    #[test]
    fn cli_parses_threads_and_json() {
        let cli = CorpusCli::parse(args(&["--threads", "3", "--json"]), true).unwrap();
        assert_eq!(
            cli,
            CorpusCli { threads: 3, json: true, daemon: None }
        );
        let cli = CorpusCli::parse(args(&["--threads=2"]), false).unwrap();
        assert_eq!(
            cli,
            CorpusCli { threads: 2, json: false, daemon: None }
        );
    }

    #[test]
    fn cli_parses_daemon_socket() {
        let cli = CorpusCli::parse(args(&["--daemon", "/tmp/a.sock"]), true).unwrap();
        assert_eq!(cli.daemon.as_deref(), Some("/tmp/a.sock"));
        let cli = CorpusCli::parse(args(&["--daemon=/tmp/b.sock"]), true).unwrap();
        assert_eq!(cli.daemon.as_deref(), Some("/tmp/b.sock"));
    }

    #[test]
    fn cli_rejects_bad_input() {
        assert!(CorpusCli::parse(args(&["--threads"]), true).is_err());
        assert!(CorpusCli::parse(args(&["--threads", "x"]), true).is_err());
        assert!(CorpusCli::parse(args(&["--wat"]), true).is_err());
        assert!(CorpusCli::parse(args(&["--json"]), false).is_err());
        assert!(CorpusCli::parse(args(&["--daemon"]), true).is_err());
        assert!(CorpusCli::parse(args(&["--daemon", "/tmp/a.sock"]), false).is_err());
        assert!(CorpusCli::parse(args(&["--daemon=/tmp/a.sock"]), false).is_err());
    }

    #[test]
    fn daemon_metrics_json_embeds_payloads_and_errors_in_place() {
        let results = vec![
            ProjectResult::<Json, String> {
                name: "good".to_string(),
                outcome: Ok(Json::obj(vec![("name", Json::Str("good".into()))])),
            },
            ProjectResult::<Json, String> {
                name: "bad".to_string(),
                outcome: Err("socket gone".to_string()),
            },
        ];
        let json = daemon_metrics_json(&results).to_string();
        assert_eq!(
            json,
            r#"[{"name":"good"},{"name":"bad","error":"socket gone"}]"#
        );
    }

    #[test]
    fn daemon_requests_against_a_dead_socket_fail_cleanly_in_order() {
        let projects: Vec<Project> =
            aji_corpus::pattern_projects().into_iter().take(3).collect();
        let names: Vec<String> = projects.iter().map(|p| p.name.clone()).collect();
        let results = run_corpus_daemon(projects, "/nonexistent/aji.sock", 2, false);
        let got: Vec<String> = results.iter().map(|r| r.name.clone()).collect();
        assert_eq!(got, names);
        assert!(results.iter().all(|r| r.outcome.is_err()));
    }

    #[test]
    fn corpus_map_preserves_order_and_attributes_failures() {
        let mut projects = aji_corpus::pattern_projects();
        projects.truncate(4);
        let names: Vec<String> = projects.iter().map(|p| p.name.clone()).collect();
        let results = run_corpus_map(projects, 4, |p| {
            if p.name.len() % 2 == 0 {
                Err(format!("odd one out: {}", p.name))
            } else {
                Ok(p.module_count())
            }
        });
        let got: Vec<String> = results.iter().map(|r| r.name.clone()).collect();
        assert_eq!(got, names);
        let (ok, failures) = collect_reports(results);
        assert_eq!(ok.len() + failures, 4);
    }

    #[test]
    fn obs_merge_is_thread_count_invariant() {
        let slice = |n: usize| -> Vec<Project> {
            aji_corpus::pattern_projects().into_iter().take(n).collect()
        };
        let run = |threads: usize| {
            let reg = Arc::new(aji_obs::Registry::new());
            let results = aji_obs::scoped(&reg, || {
                run_corpus(slice(3), &PipelineOptions::default(), threads)
            });
            (corpus_metrics_json(&results).to_string(), reg.report())
        };
        let (serial_json, serial_obs) = run(1);
        let (parallel_json, parallel_obs) = run(3);
        assert_eq!(serial_json, parallel_json);
        assert_eq!(serial_obs.counters, parallel_obs.counters);
        let counts = |r: &aji_obs::ObsReport| -> Vec<(String, u64)> {
            r.spans.iter().map(|s| (s.path.clone(), s.count)).collect()
        };
        assert_eq!(counts(&serial_obs), counts(&parallel_obs));
    }

    #[test]
    fn corpus_json_reports_failures_in_place() {
        let results = vec![ProjectResult::<BenchmarkReport, String> {
            name: "broken".to_string(),
            outcome: Err("nope".to_string()),
        }];
        let json = corpus_metrics_json(&results).to_string();
        assert!(json.contains("\"error\":\"nope\""), "{json}");
    }
}
