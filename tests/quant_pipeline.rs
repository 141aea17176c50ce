//! Workspace-level regression tests for `aji-quant`: determinism of the
//! counterfactual cause ranking and the property-access finder, plus the
//! finder's recall guarantee against generator-injected typos.
//!
//! The determinism contract matches the rest of the workspace: reports
//! are byte-identical across thread counts and across reruns
//! (`scripts/check-hermetic.sh` re-checks the same property end-to-end
//! through the `aji-quant` binary).

use aji_corpus::{generate_with_manifest, GenConfig, InjectedTypo};
use aji_oracle::OracleOptions;
use aji_quant::{evaluate, find_anomalies, rank_corpus, FinderOptions};
use aji_support::check::property;

/// A small mixed corpus: hand-written patterns plus typo-seeded
/// generated projects (with their manifests), mirroring what the
/// `aji-quant` binary runs.
fn mixed_corpus(
    typo_count: usize,
    base_seed: u64,
) -> (Vec<aji_ast::Project>, Vec<(String, Vec<InjectedTypo>)>) {
    let mut projects: Vec<_> = aji_corpus::pattern_projects().into_iter().take(6).collect();
    let mut manifests = Vec::new();
    for (i, mut cfg) in aji_corpus::population_configs(typo_count, base_seed)
        .into_iter()
        .enumerate()
    {
        cfg.name = format!("typo-{i:03}");
        cfg.typo_injections = 2 + i % 3;
        let (p, typos) = generate_with_manifest(&cfg);
        manifests.push((p.name.clone(), typos));
        projects.push(p);
    }
    (projects, manifests)
}

#[test]
fn ranking_json_is_thread_invariant_and_repeatable() {
    let (projects, _) = mixed_corpus(3, 41);
    let opts = OracleOptions::default();
    let mk = |threads: usize| {
        rank_corpus(projects.clone(), &opts, threads)
            .to_json()
            .to_string()
    };
    let serial = mk(1);
    let parallel = mk(4);
    assert_eq!(
        serial, parallel,
        "cause ranking must be byte-identical across thread counts"
    );
    let again = mk(1);
    assert_eq!(serial, again, "cause ranking must be rerun-stable");
}

#[test]
fn finder_report_is_thread_invariant_and_repeatable() {
    let (projects, _) = mixed_corpus(3, 41);
    let opts = FinderOptions::default();
    let mk = |threads: usize| {
        find_anomalies(projects.clone(), &opts, threads)
            .to_json()
            .to_string()
    };
    let serial = mk(1);
    let parallel = mk(4);
    assert_eq!(
        serial, parallel,
        "finder report must be byte-identical across thread counts"
    );
    let again = mk(1);
    assert_eq!(serial, again, "finder report must be rerun-stable");
}

#[test]
fn finder_recovers_injected_typos_at_default_threshold() {
    // The ≥90%-recall guarantee, as a property over generator seeds and
    // layout knobs: every case builds a few typo-seeded projects and
    // checks the finder recovers at least 90% of the manifest at the
    // default threshold.
    property("quant::finder_recall").cases(6).run(|tc| {
        let base_seed = tc.choice(1 << 16);
        let mut projects = Vec::new();
        let mut manifests = Vec::new();
        for i in 0..3usize {
            let mut cfg = GenConfig::small(format!("prop-{i}"), base_seed ^ (i as u64) << 8);
            cfg.typo_injections = 2 + tc.int_in(0..3usize);
            cfg.use_mixin = tc.bool();
            cfg.use_emitter = tc.bool();
            cfg.methods_per_lib = 2 + tc.int_in(0..6usize);
            let (p, typos) = generate_with_manifest(&cfg);
            manifests.push((p.name.clone(), typos));
            projects.push(p);
        }
        let report = find_anomalies(projects, &FinderOptions::default(), 2);
        let eval = evaluate(&report, &manifests);
        aji_support::prop_assert!(
            eval.recall_pct >= 90.0,
            "recall {}% below 90% (injected {}, recovered {})",
            eval.recall_pct,
            eval.injected,
            eval.recovered
        );
        // Measured precision comes along for free: flagged candidates in
        // the generated projects are either injected typos or nothing.
        aji_support::prop_assert!(
            eval.precision_pct >= eval.recall_pct.min(90.0) || eval.flagged == 0,
            "precision {}% collapsed (flagged {})",
            eval.precision_pct,
            eval.flagged
        );
        Ok(())
    });
}

#[test]
fn evaluate_counts_partial_recovery() {
    // evaluate() arithmetic on a hand-built report: one of two injected
    // typos flagged, plus one false positive.
    let mk = |project: &str, prop: &str, confidence: f64| aji_quant::Candidate {
        project: project.to_string(),
        site: "test/driver.js:1:1".to_string(),
        prop: prop.to_string(),
        nearest: Some("op0".to_string()),
        confidence,
        support: 10,
        count: 1,
    };
    let report = aji_quant::FinderReport {
        candidates: vec![
            mk("a", "opx", 1.0),
            mk("a", "other", 1.0),
            mk("a", "opq", 0.5), // below threshold: not flagged
        ],
        threshold: 0.9,
        errors: Vec::new(),
    };
    let typo = |prop: &str| InjectedTypo {
        path: "test/driver.js".to_string(),
        lib: 0,
        prop: prop.to_string(),
        original: "op0".to_string(),
    };
    let manifests = vec![("a".to_string(), vec![typo("opx"), typo("opq")])];
    let eval = evaluate(&report, &manifests);
    assert_eq!(eval.injected, 2);
    assert_eq!(eval.flagged, 2);
    assert_eq!(eval.recovered, 1);
    assert_eq!(eval.true_positives, 1);
    assert!((eval.recall_pct - 50.0).abs() < 1e-9);
    assert!((eval.precision_pct - 50.0).abs() < 1e-9);
}
