//! The paper's motivating example (Figure 1): an Express-like web
//! framework whose API is assembled by a merge-descriptors mixin and a
//! dynamically built HTTP-verb method table. The baseline analysis misses
//! the `app.get(...)` and `app.listen(...)` call edges; approximate
//! interpretation recovers them.
//!
//! Run with `cargo run --example express_motivating`.

use aji::{run_benchmark, PipelineOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let project = aji_corpus::pattern_projects()
        .into_iter()
        .find(|p| p.name == "webframe-app")
        .expect("webframe pattern project");

    println!(
        "project `{}` — {} modules, {} packages",
        project.name,
        project.module_count(),
        project.package_count()
    );
    println!();

    let report = run_benchmark(&project, &PipelineOptions::with_dynamic_cg())?;

    // Locate the interesting call sites in index.js (file 0).
    println!("call sites in the application module (index.js):");
    let src = &project.files[0].src;
    for (loc, targets) in report.extended_call_graph.site_targets.iter() {
        if loc.file.0 != 0 {
            continue;
        }
        let line = src.lines().nth(loc.line as usize - 1).unwrap_or("");
        let baseline_targets = report
            .baseline_call_graph
            .site_targets
            .get(loc)
            .map(|t| t.len())
            .unwrap_or(0);
        println!(
            "  line {:>2}: {:<55} baseline {} callee(s), extended {} callee(s)",
            loc.line,
            line.trim(),
            baseline_targets,
            targets.len()
        );
    }

    println!();
    println!("metrics:");
    println!(
        "  call edges            {:>4} -> {:>4}",
        report.baseline.call_edges, report.extended.call_edges
    );
    println!(
        "  reachable functions   {:>4} -> {:>4}",
        report.baseline.reachable_functions, report.extended.reachable_functions
    );
    if let Some(acc) = &report.accuracy {
        println!(
            "  recall vs dynamic CG  {:>5.1}% -> {:>5.1}%   (paper's motivating case: 40.1% -> 98.0%)",
            acc.baseline.recall_pct(),
            acc.extended.recall_pct()
        );
        println!(
            "  per-call precision    {:>5.1}% -> {:>5.1}%",
            acc.baseline.precision_pct(),
            acc.extended.precision_pct()
        );
    }
    Ok(())
}
