//! `AJI_PTA_ABLATE=dpw` must disable \[DPW\] on the path that extends a
//! shared constraint graph, not only in a from-scratch analysis: the
//! pipelines all take that path, and the soundness oracle's regression
//! test relies on the switch.
//!
//! Kept as a **single test function** in its own binary:
//! `AJI_PTA_ABLATE` is process-global and tests within one binary may
//! run concurrently.

use aji_approx::{approximate_interpret_parsed, ApproxOptions};
use aji_pta::{analyze_parsed, AnalysisOptions, ConstraintGraph};

#[test]
fn dpw_ablation_disables_write_hints_when_extending() {
    let project = aji_corpus::pattern_projects()
        .into_iter()
        .find(|p| p.name == "webframe-app")
        .expect("pattern project");
    let parsed = aji_parser::parse_project(&project).expect("parse");
    let hints = approximate_interpret_parsed(&project, &parsed, &ApproxOptions::default()).hints;
    assert!(
        !hints.writes.is_empty(),
        "the project must have write hints"
    );
    let no_writes = AnalysisOptions {
        use_write_hints: false,
        ..AnalysisOptions::extended()
    };
    let chained = || {
        let mut graph = ConstraintGraph::build(&project, &parsed);
        graph.extend(None, &AnalysisOptions::baseline());
        graph.extend(Some(&hints), &AnalysisOptions::extended())
    };
    let healthy = chained();
    let without = analyze_parsed(&project, &parsed, Some(&hints), &no_writes);
    assert_ne!(
        healthy.call_graph, without.call_graph,
        "[DPW] must matter on this project"
    );

    std::env::set_var("AJI_PTA_ABLATE", "dpw");
    let ablated = chained();
    std::env::remove_var("AJI_PTA_ABLATE");

    assert_eq!(ablated.call_graph, without.call_graph);
    assert_eq!(
        ablated.hints_applied + hints.writes.len(),
        healthy.hints_applied
    );
}
