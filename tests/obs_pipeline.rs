//! End-to-end observability: running the pipeline under a scoped registry
//! yields a span tree covering every phase with nonzero counters from all
//! four layers (parser, interpreter, approx worklist, pta solver), and the
//! per-run `ObsReport` round-trips through `BenchmarkReport` JSON.

use aji::{run_benchmark, PipelineOptions};
use aji_ast::Project;
use aji_obs::{ObsReport, Registry};
use aji_support::Json;
use std::sync::Arc;

/// The crate doc example: a dynamic method table only the extended
/// analysis resolves — exercises hints, proxy reads and forced calls.
fn doc_example() -> Project {
    let mut p = Project::new("obs-demo");
    p.add_file(
        "index.js",
        "var api = {};\n\
         ['go', 'stop'].forEach(function(m) { api[m] = function() { return m; }; });\n\
         api.go();\n\
         api.stop();",
    );
    p.test_driver = Some("index.js".to_string());
    p
}

#[test]
fn pipeline_obs_covers_all_phases() {
    let reg = Arc::new(Registry::new());
    let report = aji_obs::scoped(&reg, || {
        run_benchmark(&doc_example(), &PipelineOptions::with_dynamic_cg())
    })
    .expect("pipeline runs");
    let obs = report.obs.as_ref().expect("scoped registry => obs report");

    // The span tree covers every phase of the pipeline.
    for name in [
        "pipeline",
        "parse",
        "approx-interp",
        "baseline-pta",
        "extended-pta",
        "dynamic-cg",
        "resolve-scopes",
        "generate",
        "apply-hints",
        "solve",
        "extract-cg",
        "worklist",
    ] {
        let s = obs
            .span_named(name)
            .unwrap_or_else(|| panic!("span {name} missing"));
        assert!(s.count > 0, "span {name} never closed");
    }
    // Phase spans nest under the pipeline root.
    let solve = obs.span_named("solve").unwrap();
    assert!(
        solve.path.starts_with("pipeline/"),
        "solve should nest under pipeline, got {}",
        solve.path
    );

    // Every layer recorded work.
    for counter in [
        "parser.files",
        "parser.tokens",
        "parser.nodes",
        "interp.steps",
        "approx.iterations",
        "approx.write_hints",
        "pta.propagations",
        "pta.cells",
        "pta.hints_applied",
    ] {
        assert!(
            obs.counter(counter).unwrap_or(0) > 0,
            "counter {counter} should be nonzero"
        );
    }

    // The seconds fields come from the same guards as the span tree.
    assert!(report.total_seconds > 0.0);
    assert!(
        report.baseline_seconds + report.approx_seconds + report.extended_seconds
            <= report.total_seconds
    );

    // The per-run report was absorbed into the enclosing registry.
    let outer = reg.report();
    assert_eq!(outer.counter("interp.steps"), obs.counter("interp.steps"));

    // Full JSON round-trip through the BenchmarkReport "obs" field.
    let doc = Json::parse(&report.to_json().to_string()).expect("report JSON parses");
    let obs_json = doc.get("obs").expect("obs field present");
    let back = ObsReport::from_json_str(&obs_json.to_string()).expect("obs reparses");
    assert_eq!(&back, obs);
}

#[test]
fn obs_off_means_no_report_and_same_results() {
    if aji_obs::enabled() {
        return; // AJI_OBS set in the environment; nothing to assert.
    }
    let on = {
        let reg = Arc::new(Registry::new());
        aji_obs::scoped(&reg, || {
            run_benchmark(&doc_example(), &PipelineOptions::default())
        })
        .unwrap()
    };
    let off = run_benchmark(&doc_example(), &PipelineOptions::default()).unwrap();
    assert!(off.obs.is_none(), "no registry active => no obs report");
    assert!(off.total_seconds > 0.0, "timings survive without obs");
    // Collection must not change analysis results.
    assert_eq!(off.baseline.call_edges, on.baseline.call_edges);
    assert_eq!(off.extended.call_edges, on.extended.call_edges);
    assert_eq!(off.hint_count, on.hint_count);
    assert_eq!(off.hints, on.hints);
}

#[test]
fn failed_runs_keep_their_profile() {
    let mut broken = Project::new("obs-broken");
    broken.add_file("index.js", "var = ;");
    let reg = Arc::new(Registry::new());
    let results = aji_obs::scoped(&reg, || {
        aji_bench::run_corpus(vec![doc_example(), broken], &PipelineOptions::default(), 1)
    });
    assert!(results[0].outcome.is_ok());
    assert!(
        results[1].outcome.is_err(),
        "the broken project must fail to parse"
    );

    // The failed run's spans are absorbed like the good run's.
    let obs = reg.report();
    assert_eq!(obs.counter("corpus.projects"), Some(2));
    assert_eq!(obs.span_named("pipeline").expect("pipeline span").count, 2);
    assert_eq!(obs.span_named("parse").expect("parse span").count, 2);
}
