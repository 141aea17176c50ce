//! Producing a dynamic call graph (the NodeProf stand-in): run a
//! project's test driver under the concrete interpreter with the
//! call-graph tracer, then measure static-analysis recall against it.
//!
//! Run with `cargo run --example dynamic_callgraph`.

use aji::dynamic_call_graph;
use aji_approx::{approximate_interpret, ApproxOptions};
use aji_interp::InterpOptions;
use aji_pta::{analyze, Accuracy, AnalysisOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let project = aji_corpus::pattern_projects()
        .into_iter()
        .find(|p| p.name == "queue-app")
        .expect("task queue project");

    println!(
        "running test driver `{}` under the instrumented interpreter...",
        project.test_driver.clone().unwrap()
    );
    let dyn_edges = dynamic_call_graph(&project, &InterpOptions::default()).expect("interpreter");
    println!("dynamic call graph: {} edges", dyn_edges.len());
    for (site, callee) in dyn_edges.iter().take(10) {
        println!(
            "  f{}:{}:{} -> f{}:{}:{}",
            site.file.0, site.line, site.col, callee.file.0, callee.line, callee.col
        );
    }
    if dyn_edges.len() > 10 {
        println!("  ... and {} more", dyn_edges.len() - 10);
    }

    let baseline = analyze(&project, None, &AnalysisOptions::baseline())?;
    let hints = approximate_interpret(&project, &ApproxOptions::default())?.hints;
    let extended = analyze(&project, Some(&hints), &AnalysisOptions::extended())?;

    let acc_b = Accuracy::compare(&baseline.call_graph, &dyn_edges);
    let acc_x = Accuracy::compare(&extended.call_graph, &dyn_edges);
    println!();
    println!(
        "recall:    baseline {:>5.1}%  extended {:>5.1}%",
        acc_b.recall_pct(),
        acc_x.recall_pct()
    );
    println!(
        "precision: baseline {:>5.1}%  extended {:>5.1}%",
        acc_b.precision_pct(),
        acc_x.precision_pct()
    );
    println!("hints used: {}", hints.len());
    Ok(())
}
