//! Figures 4–7 (and the §5 headline numbers): per-benchmark call edges,
//! reachable functions, resolved and monomorphic call sites, for the
//! baseline and the extended analysis, over the full 141-project
//! population. Also prints the hint-count and pre-analysis-coverage
//! statistics reported in §5.
//!
//! Run with `cargo run --release -p aji-bench --bin fig4_7`.
//! Accepts the shared corpus flags (`--threads N`, `AJI_THREADS`,
//! `--json` for the deterministic corpus report, `--daemon SOCKET` to
//! send projects to a running `aji-serve` daemon instead of analyzing
//! locally — same JSON output; see DAEMON.md); see BENCHMARKS.md.

use aji::{BenchmarkReport, PipelineOptions};
use aji_bench::{collect_reports, corpus_metrics_json, exit_code, run_corpus, CorpusCli};
use std::process::ExitCode;

struct Row {
    name: String,
    base_edges: usize,
    ext_edges: usize,
    base_reach: usize,
    ext_reach: usize,
    base_resolved: f64,
    ext_resolved: f64,
    base_mono: f64,
    ext_mono: f64,
    hints: usize,
    coverage: f64,
    approx_secs: f64,
}

fn row_of(r: &BenchmarkReport) -> Row {
    Row {
        name: r.name.clone(),
        base_edges: r.baseline.call_edges,
        ext_edges: r.extended.call_edges,
        base_reach: r.baseline.reachable_functions,
        ext_reach: r.extended.reachable_functions,
        base_resolved: r.baseline.resolved_pct(),
        ext_resolved: r.extended.resolved_pct(),
        base_mono: r.baseline.monomorphic_pct(),
        ext_mono: r.extended.monomorphic_pct(),
        hints: r.hint_count,
        coverage: r.approx_stats.coverage(),
        approx_secs: r.approx_seconds,
    }
}

fn main() -> ExitCode {
    let cli = CorpusCli::from_env("fig4_7", true);
    let projects = aji_corpus::full_population();
    let n = projects.len();
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
    let rows: Vec<Row> = reports.iter().map(row_of).collect();

    println!("== Figures 4-7: per-benchmark metrics ({n} programs) ==");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7} {:>6} {:>8}",
        "benchmark",
        "edgeB",
        "edgeX",
        "reachB",
        "reachX",
        "resB%",
        "resX%",
        "monoB%",
        "monoX%",
        "hints",
        "cov%",
        "approx-s"
    );
    let mut sorted: Vec<&Row> = rows.iter().collect();
    sorted.sort_by_key(|r| r.base_edges);
    for r in &sorted {
        println!(
            "{:<22} {:>7} {:>7} {:>7} {:>7} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>7} {:>6.1} {:>8.3}",
            r.name,
            r.base_edges,
            r.ext_edges,
            r.base_reach,
            r.ext_reach,
            r.base_resolved,
            r.ext_resolved,
            r.base_mono,
            r.ext_mono,
            r.hints,
            r.coverage * 100.0,
            r.approx_secs
        );
    }

    // §5 headline averages (relative increases, averaged per benchmark as
    // in the paper).
    let mut edge_incr = Vec::new();
    let mut reach_incr = Vec::new();
    let mut resolved_delta = Vec::new();
    let mut mono_delta = Vec::new();
    for r in &rows {
        if r.base_edges > 0 {
            edge_incr
                .push(100.0 * (r.ext_edges as f64 - r.base_edges as f64) / r.base_edges as f64);
        }
        if r.base_reach > 0 {
            reach_incr
                .push(100.0 * (r.ext_reach as f64 - r.base_reach as f64) / r.base_reach as f64);
        }
        resolved_delta.push(r.ext_resolved - r.base_resolved);
        mono_delta.push(r.ext_mono - r.base_mono);
    }
    let mut hints: Vec<usize> = rows.iter().map(|r| r.hints).collect();
    hints.sort_unstable();
    let coverage_avg = avg(&rows.iter().map(|r| r.coverage * 100.0).collect::<Vec<_>>());
    let approx_times: Vec<f64> = rows.iter().map(|r| r.approx_secs).collect();

    println!();
    println!("== Summary (cf. paper §5) ==");
    println!(
        "avg extra call edges:        {:+.1}%   (paper: +55.1%)",
        avg(&edge_incr)
    );
    println!(
        "avg extra reachable funcs:   {:+.1}%   (paper: +21.8%)",
        avg(&reach_incr)
    );
    println!(
        "avg resolved call sites:     {:+.1}pp  (paper: +17.7pp)",
        avg(&resolved_delta)
    );
    println!(
        "avg monomorphic call sites:  {:+.1}pp  (paper: -1.5pp)",
        avg(&mono_delta)
    );
    println!(
        "hints per program:           min {} / median {} / max {}   (paper: 0 / 1492 / 15036)",
        hints.first().unwrap_or(&0),
        hints.get(hints.len() / 2).unwrap_or(&0),
        hints.last().unwrap_or(&0)
    );
    println!(
        "functions visited by approx: {:.1}%   (paper: 60%)",
        coverage_avg
    );
    println!(
        "approx interpretation time:  min {:.3}s / avg {:.3}s / max {:.3}s   (paper: 0.6s-51s, avg 4.5s)",
        approx_times.iter().cloned().fold(f64::INFINITY, f64::min),
        avg(&approx_times),
        approx_times.iter().cloned().fold(0.0, f64::max)
    );
    exit_code(failures)
}

fn avg(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
