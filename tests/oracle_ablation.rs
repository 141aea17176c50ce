//! The oracle's reason to exist: catch a soundness regression.
//!
//! Turning \[DPW\] off through `FuzzOptions.oracle.analysis` keeps every
//! other hint rule and still *collects* `H_W`, but no longer applies it —
//! the shape of a real regression in the write-hint rule. This test
//! asserts the full oracle loop catches it: the fuzzer flags findings,
//! every finding is triaged as a `dynamic-write` cause with
//! `hint_covered` set, and the first finding shrinks to a smaller
//! reproducer that still exhibits the miss. The same seeds with the
//! default options then fuzz clean.

use aji_oracle::{run_fuzz, Cause, FuzzOptions, OracleOptions};
use aji_pta::AnalysisOptions;

#[test]
fn dpw_ablation_is_caught_triaged_and_shrunk() {
    let healthy_opts = FuzzOptions {
        seed: 1,
        cases: 8,
        threads: 2,
        max_shrunk: 1,
        max_shrink_runs: 150,
        ..FuzzOptions::default()
    };
    let ablated_opts = FuzzOptions {
        oracle: OracleOptions {
            analysis: AnalysisOptions {
                use_write_hints: false,
                ..AnalysisOptions::extended()
            },
            ..OracleOptions::default()
        },
        ..healthy_opts.clone()
    };

    // Phase 1: ablated. The fuzzer must catch the regression.
    let ablated = run_fuzz(&ablated_opts);

    assert!(
        !ablated.clean(),
        "disabling [DPW] must produce findings:\n{}",
        ablated.summary_text()
    );
    assert!(ablated.errors.is_empty(), "no pipeline errors expected");

    // Triage: every finding is a hint-covered dynamic-write miss — the
    // callee was installed by a dynamic write, a write hint names it, and
    // the site consumes the property statically. That is precisely what
    // [DPW] recovers, so its absence is the root cause.
    for f in &ablated.findings {
        assert!(!f.missed.is_empty());
        for m in &f.missed {
            assert_eq!(
                m.cause,
                Cause::DynamicWrite,
                "expected dynamic-write cause for {} -> {}, got {:?} ({})",
                m.site_display,
                m.callee_display,
                m.cause,
                m.detail
            );
            assert!(m.hint_covered, "findings are hint-covered by definition");
        }
    }
    let hist: std::collections::BTreeMap<_, _> = ablated.causes.iter().copied().collect();
    assert!(
        hist["dynamic-write"] > 0,
        "histogram must attribute misses to dynamic-write"
    );

    // Shrinking: the first finding carries a reproducer that still fails,
    // with a choice sequence no larger than the original.
    let first = &ablated.findings[0];
    let shrunk = first
        .shrunk
        .as_ref()
        .expect("first finding must be shrunk (max_shrunk = 1)");
    assert!(
        !shrunk.missed.is_empty(),
        "the shrunk reproducer must still miss a hint-covered edge"
    );
    assert!(shrunk.missed.iter().all(|m| m.cause == Cause::DynamicWrite));
    assert!(shrunk.choices.len() <= first.choices.len());
    assert!(
        shrunk.choices <= first.choices,
        "shrinking never increases the choice sequence"
    );
    assert!(shrunk.source.contains("// ==== "), "reproducer carries source");
    assert!(shrunk.files > 0 && shrunk.shrink_runs > 0);

    // Phase 2: healthy. The same seeds come back clean — the findings
    // above were the ablation, not the generator.
    let healthy = run_fuzz(&healthy_opts);
    assert!(
        healthy.clean(),
        "healthy build must fuzz clean:\n{}",
        healthy.summary_text()
    );
    assert_eq!(healthy.seed, 1);
    assert!(healthy.cases_run > 0);
}
