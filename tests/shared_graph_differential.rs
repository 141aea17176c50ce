//! The shared constraint graph is an optimisation, not a new analysis:
//! extending the baseline fixpoint must give exactly what a from-scratch
//! `analyze_parsed` gives under the same hints and options.
//!
//! Every (cell, token) pair propagates once, so not only the call graphs
//! but the cell, token and propagation totals must agree; the graph path
//! just splits the propagations between the baseline solve and the hint
//! delta.

use aji_approx::{approximate_interpret_parsed, ApproxOptions, Hints};
use aji_ast::Project;
use aji_parser::ParsedProject;
use aji_pta::{analyze_parsed, Analysis, AnalysisOptions, ConstraintGraph};

/// The 14 pattern projects plus one generated project of each size class.
fn corpus() -> Vec<Project> {
    let mut out = aji_corpus::pattern_projects();
    for cfg in aji_corpus::population_configs(4, aji_corpus::CORPUS_SEED) {
        out.push(aji_corpus::generate(&cfg));
    }
    out
}

fn assert_same(name: &str, what: &str, graph: &Analysis, scratch: &Analysis) {
    assert_eq!(
        graph.call_graph, scratch.call_graph,
        "{name} {what}: call graphs"
    );
    let (g, s) = (&graph.solver_stats, &scratch.solver_stats);
    assert_eq!(g.cells, s.cells, "{name} {what}: cells");
    assert_eq!(g.tokens, s.tokens, "{name} {what}: tokens");
    assert_eq!(
        g.propagations, s.propagations,
        "{name} {what}: propagations"
    );
    assert_eq!(
        graph.hints_applied, scratch.hints_applied,
        "{name} {what}: hints applied"
    );
}

fn prepare(project: &Project) -> (ParsedProject, Hints) {
    let parsed = aji_parser::parse_project(project).expect("corpus projects parse");
    let hints = approximate_interpret_parsed(project, &parsed, &ApproxOptions::default()).hints;
    (parsed, hints)
}

#[test]
fn extending_the_baseline_matches_a_from_scratch_solve() {
    let configs = [
        ("extended", AnalysisOptions::extended()),
        ("proxy-reads", AnalysisOptions::with_proxy_reads()),
        ("nonrelational", AnalysisOptions::nonrelational()),
    ];
    for project in corpus() {
        let (parsed, hints) = prepare(&project);
        let scratch_base = analyze_parsed(&project, &parsed, None, &AnalysisOptions::baseline());
        for (what, opts) in &configs {
            let mut graph = ConstraintGraph::build(&project, &parsed);
            let base = graph.extend(None, &AnalysisOptions::baseline());
            assert_same(&project.name, "baseline", &base, &scratch_base);
            let extended = graph.extend(Some(&hints), opts);
            let scratch = analyze_parsed(&project, &parsed, Some(&hints), opts);
            assert_same(&project.name, what, &extended, &scratch);
            assert!(
                extended.solver_stats.propagations >= base.solver_stats.propagations,
                "{}: totals only grow",
                project.name
            );
        }
    }
}

#[test]
fn a_three_step_chain_matches_a_from_scratch_solve() {
    // aji-quant's chain: baseline, extended, then proxy reads on top.
    for project in corpus() {
        let (parsed, hints) = prepare(&project);
        let mut graph = ConstraintGraph::build(&project, &parsed);
        graph.extend(None, &AnalysisOptions::baseline());
        graph.extend(Some(&hints), &AnalysisOptions::extended());
        let proxy = graph.extend(Some(&hints), &AnalysisOptions::with_proxy_reads());
        let scratch = analyze_parsed(
            &project,
            &parsed,
            Some(&hints),
            &AnalysisOptions::with_proxy_reads(),
        );
        assert_same(&project.name, "chain", &proxy, &scratch);
    }
}

#[test]
fn every_ablation_mode_on_a_clone_matches_a_from_scratch_solve() {
    // `ablations`' hinted modes do not form one chain, so each extends
    // its own clone of the solved baseline.
    let modes = [
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
        ("proxy-reads", AnalysisOptions::with_proxy_reads()),
    ];
    for project in corpus() {
        let (parsed, hints) = prepare(&project);
        let mut graph = ConstraintGraph::build(&project, &parsed);
        let base = graph.extend(None, &AnalysisOptions::baseline());
        for (what, opts) in &modes {
            let on_clone = graph.clone().extend(Some(&hints), opts);
            let scratch = analyze_parsed(&project, &parsed, Some(&hints), opts);
            assert_same(&project.name, what, &on_clone, &scratch);
        }
        // Extending the clones left the source graph at the baseline: it
        // re-solves to the same fixpoint and still takes any mode.
        let again = graph.extend(None, &AnalysisOptions::baseline());
        assert_same(&project.name, "source baseline", &again, &base);
        let (what, opts) = &modes[1];
        let source = graph.extend(Some(&hints), opts);
        let scratch = analyze_parsed(&project, &parsed, Some(&hints), opts);
        assert_same(&project.name, what, &source, &scratch);
    }
}

#[test]
#[should_panic(expected = "write hints are already applied")]
fn a_graph_cannot_be_narrowed() {
    let project = aji_corpus::pattern_projects().remove(0);
    let (parsed, hints) = prepare(&project);
    let mut graph = ConstraintGraph::build(&project, &parsed);
    graph.extend(Some(&hints), &AnalysisOptions::extended());
    graph.extend(Some(&hints), &AnalysisOptions::nonrelational());
}
