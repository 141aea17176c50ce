//! Table 3: running times of the baseline static analysis, approximate
//! interpretation, and the extended static analysis, per benchmark.
//!
//! Run with `cargo run --release -p aji-bench --bin table3`.
//! Accepts the shared corpus flags (`--threads N`, `AJI_THREADS`,
//! `--json` for the deterministic corpus report, `--daemon SOCKET` to
//! send projects to a running `aji-serve` daemon instead of analyzing
//! locally — same JSON output; see DAEMON.md); see BENCHMARKS.md.
//! The extended analysis extends the baseline's constraint graph, so the
//! `extended` column is the hint delta alone; the ratio line compares a
//! from-scratch extended analysis (`baseline + extended`) with the
//! baseline, as the paper does.
//! Note the wall-clock columns here are per-phase and remain meaningful
//! under `--threads N > 1` (each project's phases run on one worker), but
//! they are not byte-reproducible; `--json` reports only the
//! deterministic metrics.

use aji::PipelineOptions;
use aji_bench::{collect_reports, corpus_metrics_json, exit_code, run_corpus, CorpusCli};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = CorpusCli::from_env("table3", true);
    let projects = aji_corpus::table1_benchmarks();
    if let Some(socket) = cli.daemon.clone() {
        return aji_bench::run_daemon_mode(projects, &socket, cli.threads, false);
    }
    let results = run_corpus(projects, &PipelineOptions::default(), cli.threads);

    if cli.json {
        let failures = results.iter().filter(|r| r.outcome.is_err()).count();
        println!("{}", corpus_metrics_json(&results));
        return exit_code(failures);
    }
    let (reports, failures) = collect_reports(results);

    println!("== Table 3: running times (seconds) ==");
    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "benchmark", "baseline", "approx", "extended"
    );
    let mut tb = Vec::new();
    let mut ta = Vec::new();
    let mut tx = Vec::new();
    for report in &reports {
        println!(
            "{:<22} {:>12.4} {:>12.4} {:>12.4}",
            report.name, report.baseline_seconds, report.approx_seconds, report.extended_seconds
        );
        tb.push(report.baseline_seconds);
        ta.push(report.approx_seconds);
        tx.push(report.extended_seconds);
    }
    println!();
    println!("== Summary ==");
    println!(
        "totals: baseline {:.3}s, approx {:.3}s, extended {:.3}s",
        tb.iter().sum::<f64>(),
        ta.iter().sum::<f64>(),
        tx.iter().sum::<f64>()
    );
    println!(
        "extended/baseline time ratio avg: {:.2}x (paper: <1.1x for 76/141, >2x for 20/141)",
        avg_ratio(&tb, &tx)
    );
    exit_code(failures)
}

/// Mean of `(baseline + extended) / baseline`: the cost of a
/// from-scratch extended analysis relative to the baseline.
fn avg_ratio(base: &[f64], ext: &[f64]) -> f64 {
    let mut rs = Vec::new();
    for (b, x) in base.iter().zip(ext) {
        if *b > 0.0 {
            rs.push((b + x) / b);
        }
    }
    if rs.is_empty() {
        0.0
    } else {
        rs.iter().sum::<f64>() / rs.len() as f64
    }
}
