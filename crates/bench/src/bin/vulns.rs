//! The §5 vulnerability reachability study: how many functions with
//! known (synthetic) vulnerabilities in dependencies are reachable in the
//! baseline vs extended call graphs, plus total reachable functions.
//!
//! Run with `cargo run --release -p aji-bench --bin vulns`.
//! Accepts the shared corpus flags (`--threads N`, `AJI_THREADS`,
//! `--json` for the deterministic corpus report, `--daemon SOCKET` to
//! send projects to a running `aji-serve` daemon instead of analyzing
//! locally — same JSON output; see DAEMON.md); see BENCHMARKS.md.

use aji::PipelineOptions;
use aji_bench::{
    collect_reports, corpus_metrics_json, daemon_metrics_json, exit_code, run_corpus,
    run_corpus_daemon, vulns_corpus_json, CorpusCli,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = CorpusCli::from_env("vulns", true);
    let projects = aji_corpus::table1_benchmarks();
    if let Some(socket) = cli.daemon.clone() {
        // Same summary wrapper as the local `--json` path, so thin-client
        // and local machine-readable output stay byte-identical.
        let results = run_corpus_daemon(projects, &socket, cli.threads, false);
        let failures = results.iter().filter(|r| r.outcome.is_err()).count();
        for r in &results {
            if let Err(e) = &r.outcome {
                eprintln!("{}: {e}", r.name);
            }
        }
        println!("{}", vulns_corpus_json(&daemon_metrics_json(&results)));
        return exit_code(failures);
    }
    let results = run_corpus(projects, &PipelineOptions::default(), cli.threads);

    if cli.json {
        let failures = results.iter().filter(|r| r.outcome.is_err()).count();
        println!("{}", vulns_corpus_json(&corpus_metrics_json(&results)));
        return exit_code(failures);
    }
    let (reports, failures) = collect_reports(results);

    println!("== Vulnerability reachability (cf. paper §5) ==");
    println!(
        "{:<22} {:>6} {:>10} {:>10}",
        "benchmark", "vulns", "reachB", "reachX"
    );
    let mut total = 0usize;
    let mut reach_b = 0usize;
    let mut reach_x = 0usize;
    let mut funcs_b = 0usize;
    let mut funcs_x = 0usize;
    for report in &reports {
        funcs_b += report.baseline.reachable_functions;
        funcs_x += report.extended.reachable_functions;
        if let Some(v) = &report.vulns {
            println!(
                "{:<22} {:>6} {:>10} {:>10}",
                report.name, v.total, v.reachable_baseline, v.reachable_extended
            );
            total += v.total;
            reach_b += v.reachable_baseline;
            reach_x += v.reachable_extended;
        }
    }
    println!();
    println!("== Summary ==");
    println!(
        "vulnerabilities: {total} total; reachable {reach_b} (baseline) -> {reach_x} (extended)   (paper: 447 total; 52 -> 55)"
    );
    println!("total reachable functions: {funcs_b} -> {funcs_x}   (paper: 42661 -> 53805)");
    exit_code(failures)
}
