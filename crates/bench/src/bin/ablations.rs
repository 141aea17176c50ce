//! Ablation study over the corpus:
//!
//! * \[DPW\]-only vs \[DPR\]-only vs both (the paper disables \[DPR\] for one
//!   OOM case in Table 2);
//! * the §4 *non-relational* alternative to \[DPW\], quantifying the
//!   precision it loses;
//! * the §6 proxy-read extension.
//!
//! Each project is parsed **once**, approximately interpreted **once**
//! and its baseline solved **once**: all six analysis modes share that
//! parse and hint set (they differ only in [`AnalysisOptions`]), and each
//! hinted mode extends its own clone of the solved baseline
//! [`ConstraintGraph`]. The hinted modes cannot share one graph: they do
//! not form a chain (`dpw-only` and `dpr-only` diverge, and
//! `nonrelational` drops \[DPW\]).
//!
//! Run with `cargo run --release -p aji-bench --bin ablations`.
//! Accepts the shared corpus flags (`--threads N`, `AJI_THREADS`); see
//! BENCHMARKS.md.

use aji_approx::{approximate_interpret_parsed, ApproxOptions};
use aji_bench::{collect_reports, exit_code, run_corpus_map, CorpusCli};
use aji_pta::{AnalysisOptions, CgMetrics, ConstraintGraph};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = CorpusCli::from_env("ablations", false);
    let projects = aji_corpus::table1_benchmarks();
    let n = projects.len();

    let hinted: Vec<(&str, AnalysisOptions)> = vec![
        (
            "dpw-only",
            AnalysisOptions {
                use_read_hints: false,
                use_module_hints: false,
                ..AnalysisOptions::extended()
            },
        ),
        (
            "dpr-only",
            AnalysisOptions {
                use_write_hints: false,
                use_module_hints: false,
                ..AnalysisOptions::extended()
            },
        ),
        ("extended", AnalysisOptions::extended()),
        ("nonrelational", AnalysisOptions::nonrelational()),
        ("with-proxy-reads", AnalysisOptions::with_proxy_reads()),
    ];

    let names: Vec<&str> = std::iter::once("baseline")
        .chain(hinted.iter().map(|(name, _)| *name))
        .collect();

    // Per project: one parse, one approximate interpretation, one baseline
    // solve, then one clone of the solved graph per hinted mode.
    let results = run_corpus_map(projects, cli.threads, |p| {
        let parsed = aji_parser::parse_project(p).map_err(|e| format!("parse error: {e}"))?;
        let approx = approximate_interpret_parsed(p, &parsed, &ApproxOptions::default());
        let mut graph = ConstraintGraph::build(p, &parsed);
        let baseline = graph.extend(None, &AnalysisOptions::baseline());
        let mut metrics = vec![CgMetrics::of(&baseline.call_graph)];
        for (_, opts) in &hinted {
            let analysis = graph.clone().extend(Some(&approx.hints), opts);
            metrics.push(CgMetrics::of(&analysis.call_graph));
        }
        Ok::<_, String>(metrics)
    });
    let (per_project, failures) = collect_reports(results);

    println!("== Ablations over {n} benchmarks ==");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "mode", "edges", "reach", "resolved%", "mono%", "targets/site"
    );
    for (i, name) in names.iter().enumerate() {
        let mut edges = 0usize;
        let mut reach = 0usize;
        let mut resolved = 0usize;
        let mut mono = 0usize;
        let mut sites = 0usize;
        for metrics in &per_project {
            let m = &metrics[i];
            edges += m.call_edges;
            reach += m.reachable_functions;
            resolved += m.resolved_sites;
            mono += m.monomorphic_sites;
            sites += m.total_sites;
        }
        println!(
            "{:<18} {:>10} {:>10} {:>9.1} {:>9.1} {:>12.3}",
            name,
            edges,
            reach,
            100.0 * resolved as f64 / sites.max(1) as f64,
            100.0 * mono as f64 / sites.max(1) as f64,
            edges as f64 / resolved.max(1) as f64
        );
    }
    println!();
    println!("expected shape:");
    println!("  edges:        baseline < dpw-only < extended; dpr-only adds little on its own");
    println!("  targets/site: nonrelational > extended at equal coverage — the §4 relational");
    println!("                rule is strictly more precise (see also aji-pta's ablation tests,");
    println!("                where one shared write site goes from 3 to 9 edges)");
    println!("  note: the non-relational mode only covers syntactic `o[k] = v` sites, not the");
    println!("        defineProperty/assign natives, so its absolute edge count is lower here");
    println!("  with-proxy-reads == extended on this corpus (no proxy-base reads with known keys)");
    exit_code(failures)
}
