//! Golden report and determinism tests for the differential oracle.
//!
//! * the pattern-corpus report is pinned edge-for-edge (golden values):
//!   hints strictly improve recall on every dynamic-idiom project and
//!   never lose an edge anywhere;
//! * the fuzzer's JSON report is invariant under `--threads` and
//!   repeatable for a fixed seed (property-tested over seeds).

use aji_oracle::{run_fuzz, run_oracle, run_oracle_corpus, FuzzOptions, OracleOptions};
use aji_support::check::property;

/// Pattern projects built around a dynamic idiom the hints recover —
/// recall with hints must be *strictly* greater than baseline on each.
/// (`model-app` is static-idiom, `i18n-app` is pure dynamic-require;
/// hints cannot improve those two.)
const DYNAMIC_IDIOM_PROJECTS: &[&str] = &[
    "webframe-app",
    "pubsub-app",
    "plugin-host",
    "validator-app",
    "evalapi-app",
    "middleware-app",
    "config-app",
    "di-app",
    "queue-app",
    "template-app",
    "rest-app",
    "logger-app",
];

#[test]
fn pattern_corpus_golden_report() {
    let corpus = run_oracle_corpus(aji_corpus::pattern_projects(), &OracleOptions::default(), 2);
    assert!(corpus.errors.is_empty(), "errors: {:?}", corpus.errors);
    assert_eq!(corpus.projects.len(), 14);

    // Golden corpus totals. These pin the oracle's edge arithmetic: if a
    // pipeline change legitimately moves them, re-run
    // `aji-oracle --patterns --json` and update.
    let (dynamic, missed, recovered, spurious) = corpus.totals();
    assert_eq!(
        (dynamic, missed, recovered, spurious),
        (143, 10, 52, 4),
        "corpus edge totals changed"
    );
    // The 4 spurious edges are all in middleware-app and share one root
    // cause: aji-pta's name-based listener-registration model ("on" /
    // "once" / "addListener" in `method_model`) records a call edge from
    // each `pipeline.on('phase', fn)` registration site to its own
    // callback argument. The model exists so listeners on *opaque*
    // emitters still count as called, but hookline's `on` is plain user
    // code and the read hint at its `fns[j](ctx)` dispatch loop already
    // recovers the true edges — so the registration-site edges are pure
    // over-approximation. They appear in the baseline graph too (no hint
    // involvement), i.e. a deliberate precision trade in the static
    // model, not a hint-application bug; the pinned histogram below keeps
    // them named.
    assert_eq!(
        corpus.spurious_histogram(),
        vec![
            ("listener-model", 4),
            ("callback-model", 0),
            ("dot-dispatch", 0),
            ("static-imprecision", 0),
            ("hint-imprecision", 0),
        ],
        "spurious-cause histogram changed"
    );
    // The missed-cause histogram, pinned the same way: the 10 residual
    // misses split across four documented limits of the approach (none is
    // hint-covered — see the findings assertion below). If a triage or
    // pipeline change legitimately moves these, re-run
    // `aji-oracle --patterns --json` and update both pins together.
    assert_eq!(
        corpus.histogram(),
        vec![
            ("dynamic-read", 1),
            ("dynamic-write", 3),
            ("eval-api", 0),
            ("dynamic-require", 2),
            ("higher-order-proxy", 0),
            ("budget-exhausted", 0),
            ("unknown", 4),
        ],
        "missed-cause histogram changed"
    );
    let (base, ext) = corpus.recall();
    assert!(base > 56.0 && base < 57.0, "baseline recall {base}");
    assert!(ext > 92.0 && ext < 94.0, "extended recall {ext}");

    for p in &corpus.projects {
        // Hints are monotone: everything the baseline matched, the
        // extended analysis matches too.
        assert!(
            p.diff.extended.matched_edges >= p.diff.baseline.matched_edges,
            "{}: extended lost an edge the baseline had",
            p.name
        );
        // Strict improvement on every dynamic-idiom project.
        if DYNAMIC_IDIOM_PROJECTS.contains(&p.name.as_str()) {
            assert!(
                p.diff.extended.matched_edges > p.diff.baseline.matched_edges,
                "{}: hints recovered nothing (baseline {}, extended {})",
                p.name,
                p.diff.baseline.matched_edges,
                p.diff.extended.matched_edges
            );
            assert!(!p.diff.recovered.is_empty());
        }
        // A healthy build has no hint-covered misses anywhere.
        assert!(
            p.findings().is_empty(),
            "{}: unexpected unsoundness finding",
            p.name
        );
        // Histograms account for every miss / spurious edge, no double
        // counting.
        let hist_total: usize = p.histogram().iter().map(|&(_, n)| n).sum();
        assert_eq!(hist_total, p.missed.len(), "{}: histogram mismatch", p.name);
        let sp_total: usize = p.spurious_histogram().iter().map(|&(_, n)| n).sum();
        assert_eq!(
            sp_total,
            p.spurious.len(),
            "{}: spurious histogram mismatch",
            p.name
        );
        assert_eq!(
            p.spurious.len(),
            p.diff.spurious.len(),
            "{}: every spurious edge is triaged",
            p.name
        );
    }
}

#[test]
fn oracle_accuracy_matches_the_dynamic_pipeline() {
    for p in aji_corpus::pattern_projects() {
        let oracle = run_oracle(&p, &OracleOptions::default()).expect("oracle runs");
        let report = aji::run_benchmark(&p, &aji::PipelineOptions::with_dynamic_cg())
            .expect("pipeline runs");
        let acc = report.accuracy.expect("dynamic run requested");
        assert_eq!(oracle.diff.baseline, acc.baseline, "{}: baseline", p.name);
        assert_eq!(oracle.diff.extended, acc.extended, "{}: extended", p.name);
        assert_eq!(oracle.diff.dynamic_edges, acc.dynamic_edges, "{}", p.name);
    }
}

#[test]
fn pattern_report_is_thread_invariant() {
    let opts = OracleOptions::default();
    let serial = run_oracle_corpus(aji_corpus::pattern_projects(), &opts, 1);
    let parallel = run_oracle_corpus(aji_corpus::pattern_projects(), &opts, 4);
    assert_eq!(
        serial.to_json().to_string(),
        parallel.to_json().to_string(),
        "pattern oracle report must be byte-identical across thread counts"
    );
}

#[test]
fn fuzz_report_is_thread_invariant_and_repeatable() {
    property("oracle::fuzz_determinism").cases(3).run(|tc| {
        let seed = tc.choice(1 << 20);
        let mk = |threads: usize| {
            run_fuzz(&FuzzOptions {
                seed,
                cases: 8,
                threads,
                max_shrunk: 0, // determinism of the scan, not the shrinker
                ..FuzzOptions::default()
            })
            .to_json()
            .to_string()
        };
        let serial = mk(1);
        let parallel = mk(4);
        aji_support::prop_assert_eq!(&serial, &parallel);
        let again = mk(1);
        aji_support::prop_assert_eq!(&serial, &again);
        Ok(())
    });
}
