//! Cross-crate integration tests: the full pipeline on the corpus, the
//! invariants the experiments rely on, and determinism guarantees.

use aji::{run_benchmark, PipelineOptions};
use aji_approx::{approximate_interpret, ApproxOptions};
use aji_pta::{analyze, AnalysisOptions, CgMetrics};

#[test]
fn every_pattern_project_completes_the_pipeline() {
    for project in aji_corpus::pattern_projects() {
        let report = run_benchmark(&project, &PipelineOptions::default())
            .unwrap_or_else(|e| panic!("{} failed: {e}", project.name));
        assert!(
            report.extended.call_edges >= report.baseline.call_edges,
            "{}: hints must never remove edges",
            project.name
        );
        assert!(
            report.extended.reachable_functions >= report.baseline.reachable_functions,
            "{}: hints must never reduce reachability",
            project.name
        );
    }
}

#[test]
fn pattern_projects_gain_edges_from_hints() {
    // Each hand-written pattern embodies a dynamic idiom, so all but the
    // purely-static ones must gain call edges from hints.
    let mut gained = 0;
    let mut total = 0;
    for project in aji_corpus::pattern_projects() {
        let report = run_benchmark(&project, &PipelineOptions::default()).unwrap();
        total += 1;
        if report.extended.call_edges > report.baseline.call_edges {
            gained += 1;
        }
    }
    assert!(
        gained * 10 >= total * 8,
        "only {gained}/{total} pattern projects gained edges"
    );
}

#[test]
fn recall_never_decreases_and_typically_improves() {
    let mut improved = 0;
    let mut measured = 0;
    for project in aji_corpus::pattern_projects() {
        let report = run_benchmark(&project, &PipelineOptions::with_dynamic_cg()).unwrap();
        let Some(acc) = report.accuracy else { continue };
        if acc.dynamic_edges == 0 {
            continue;
        }
        measured += 1;
        assert!(
            acc.extended.recall_pct() + 1e-9 >= acc.baseline.recall_pct(),
            "{}: recall decreased {} -> {}",
            project.name,
            acc.baseline.recall_pct(),
            acc.extended.recall_pct()
        );
        if acc.extended.recall_pct() > acc.baseline.recall_pct() {
            improved += 1;
        }
    }
    assert!(measured >= 10, "too few measurable projects");
    assert!(improved >= measured / 2, "{improved}/{measured} improved");
}

#[test]
fn baseline_resolves_root_relative_requires_like_the_interpreter() {
    // `require('/lib/x')` in a/b.js names the root's lib/x.js. The
    // interpreter and the analysis resolve it with the same function, so
    // the baseline finds every dynamic edge without any module hint.
    let mut project = aji_ast::Project::new("rooted-require");
    project.add_file("index.js", "require('./a/b').go();");
    project.add_file(
        "a/b.js",
        "exports.go = function() { require('/lib/x').run(); };",
    );
    project.add_file("lib/x.js", "exports.run = function() { return 1; };");
    let report = run_benchmark(&project, &PipelineOptions::with_dynamic_cg()).unwrap();
    let dynamic = aji::dynamic_call_graph(&project, &aji_interp::InterpOptions::default()).unwrap();
    assert_eq!(dynamic.len(), 2, "{dynamic:?}");
    for edge in &dynamic {
        assert!(
            report.baseline_call_graph.edges.contains(edge),
            "baseline misses dynamic edge {edge:?}"
        );
    }
    assert_eq!(report.accuracy.unwrap().baseline.matched_edges, 2);
}

#[test]
fn baseline_follows_a_var_declared_in_a_nested_block() {
    // `var g` inside the `if` block binds the function's hoisted `g`, in
    // the interpreter and the analysis alike, so the call `g()` after the
    // block reaches `h` in the baseline without any hint.
    let mut project = aji_ast::Project::new("block-var");
    project.add_file(
        "index.js",
        "function h() { return 1; }\n\
         function f(c) { if (c) { var g = h; } g(); }\n\
         f(true);",
    );
    let report = run_benchmark(&project, &PipelineOptions::with_dynamic_cg()).unwrap();
    let dynamic = aji::dynamic_call_graph(&project, &aji_interp::InterpOptions::default()).unwrap();
    assert_eq!(dynamic.len(), 2, "{dynamic:?}");
    for edge in &dynamic {
        assert!(
            report.baseline_call_graph.edges.contains(edge),
            "baseline misses dynamic edge {edge:?}"
        );
    }
    assert_eq!(report.accuracy.unwrap().baseline.matched_edges, 2);
}

#[test]
fn hints_are_deterministic() {
    let project = aji_corpus::pattern_projects()
        .into_iter()
        .find(|p| p.name == "webframe-app")
        .unwrap();
    let a = approximate_interpret(&project, &ApproxOptions::default()).unwrap();
    let b = approximate_interpret(&project, &ApproxOptions::default()).unwrap();
    assert_eq!(a.hints.writes, b.hints.writes);
    assert_eq!(a.hints.reads, b.hints.reads);
    assert_eq!(a.hints.modules, b.hints.modules);
}

#[test]
fn analysis_is_deterministic() {
    let project = aji_corpus::generate(&aji_corpus::GenConfig::small("det-e2e", 11));
    let h = approximate_interpret(&project, &ApproxOptions::default())
        .unwrap()
        .hints;
    let a = analyze(&project, Some(&h), &AnalysisOptions::extended()).unwrap();
    let b = analyze(&project, Some(&h), &AnalysisOptions::extended()).unwrap();
    assert_eq!(a.call_graph.edges, b.call_graph.edges);
    assert_eq!(
        a.call_graph.reachable_functions,
        b.call_graph.reachable_functions
    );
}

#[test]
fn interpreter_and_analysis_agree_on_locations() {
    // The hint pipeline only works if the interpreter's parse and the
    // analysis' parse assign identical locations. Verify through a
    // project whose hints all land.
    let mut project = aji_ast::Project::new("loc-agreement");
    project.add_file(
        "index.js",
        "var t = {};\n\
         var k = 'a';\n\
         t[k] = function tagged() {};\n\
         t.a();",
    );
    let h = approximate_interpret(&project, &ApproxOptions::default())
        .unwrap()
        .hints;
    assert_eq!(h.writes.len(), 1);
    let analysis = analyze(&project, Some(&h), &AnalysisOptions::extended()).unwrap();
    assert!(analysis.hints_applied >= 1);
    // The edge from line 4 to the function on line 3 requires exact loc
    // agreement between the two parses.
    assert!(analysis
        .call_graph
        .edges
        .iter()
        .any(|(cs, f)| cs.line == 4 && f.line == 3));
}

#[test]
fn ablation_write_hints_only() {
    // Table 2's `*` case: [DPR] disabled, [DPW] only.
    let mut project = aji_ast::Project::new("ablation");
    project.add_file(
        "index.js",
        "var t = { inner: function stored() {} };\n\
         var k1 = 'inner';\n\
         var f = t[k1];\n\
         f();\n\
         var api = {};\n\
         api[k1] = function written() {};\n\
         api.inner();",
    );
    let h = approximate_interpret(&project, &ApproxOptions::default())
        .unwrap()
        .hints;
    let w_only = AnalysisOptions {
        use_read_hints: false,
        use_module_hints: false,
        ..AnalysisOptions::extended()
    };
    let r_only = AnalysisOptions {
        use_write_hints: false,
        use_module_hints: false,
        ..AnalysisOptions::extended()
    };
    let aw = analyze(&project, Some(&h), &w_only).unwrap();
    let ar = analyze(&project, Some(&h), &r_only).unwrap();
    // Write-only recovers api.inner() (line 7 → line 6) but not f() (line
    // 4 → line 1's stored).
    assert!(aw
        .call_graph
        .edges
        .iter()
        .any(|(cs, f)| cs.line == 7 && f.line == 6));
    assert!(!aw
        .call_graph
        .edges
        .iter()
        .any(|(cs, f)| cs.line == 4 && f.line == 1));
    // Read-only recovers f() but not api.inner().
    assert!(ar
        .call_graph
        .edges
        .iter()
        .any(|(cs, f)| cs.line == 4 && f.line == 1));
    assert!(!ar
        .call_graph
        .edges
        .iter()
        .any(|(cs, f)| cs.line == 7 && f.line == 6));
}

#[test]
fn generated_population_sample_runs_end_to_end() {
    // Keep this quick: a few representatives of each size class.
    let projects: Vec<_> = aji_corpus::full_population()
        .into_iter()
        .step_by(20)
        .collect();
    for project in projects {
        let report = run_benchmark(&project, &PipelineOptions::with_dynamic_cg())
            .unwrap_or_else(|e| panic!("{} failed: {e}", project.name));
        assert!(report.extended.call_edges >= report.baseline.call_edges);
        if let Some(acc) = report.accuracy {
            assert!(acc.extended.recall_pct() + 1e-9 >= acc.baseline.recall_pct());
        }
    }
}

#[test]
fn hint_reuse_across_applications() {
    // §6: hints inferred for a library can be reused by another
    // application of the same library. Simulate by merging hints from a
    // library-only project into an application analysis.
    let mut lib_only = aji_ast::Project::new("lib-only");
    lib_only.add_file("index.js", "module.exports = require('veneer');");
    lib_only.add_file(
        "node_modules/veneer/index.js",
        "var api = {};\n\
         ['alpha', 'beta'].forEach(function(m) {\n\
         api[m] = function impl() { return m; };\n\
         });\n\
         module.exports = api;",
    );
    let lib_hints = approximate_interpret(&lib_only, &ApproxOptions::default())
        .unwrap()
        .hints;

    // The application shares the library file *verbatim and at the same
    // file index ordering*, so locations coincide.
    let mut app = aji_ast::Project::new("app");
    app.add_file("index.js", "var v = require('veneer');\nv.alpha();");
    app.add_file(
        "node_modules/veneer/index.js",
        lib_only
            .file("node_modules/veneer/index.js")
            .unwrap()
            .src
            .clone(),
    );
    // Without hints the call is unresolved.
    let base = analyze(&app, None, &AnalysisOptions::baseline()).unwrap();
    assert!(!base
        .call_graph
        .edges
        .iter()
        .any(|(cs, _)| cs.line == 2 && cs.file.index() == 0));
    // With the *library's* hints, it resolves.
    let with = analyze(&app, Some(&lib_hints), &AnalysisOptions::extended()).unwrap();
    assert!(
        with.call_graph
            .edges
            .iter()
            .any(|(cs, f)| cs.file.index() == 0
                && cs.line == 2
                && f.file.index() == 1
                && f.line == 3),
        "edges: {:?}",
        with.call_graph.edges
    );
}

#[test]
fn metrics_totals_are_consistent() {
    for project in aji_corpus::pattern_projects().into_iter().take(5) {
        let report = run_benchmark(&project, &PipelineOptions::default()).unwrap();
        for m in [&report.baseline, &report.extended] {
            assert!(m.resolved_sites <= m.total_sites);
            assert!(m.monomorphic_sites <= m.total_sites);
            assert!(m.reachable_functions <= m.total_functions);
            assert_eq!(
                CgMetrics::of(&report.extended_call_graph).call_edges,
                report.extended.call_edges
            );
        }
    }
}
