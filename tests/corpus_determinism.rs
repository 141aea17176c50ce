//! Thread-count invariance of the shared corpus driver.
//!
//! `aji_bench::run_corpus` promises that parallel output is byte-identical
//! to serial output apart from wall-clock fields (see the `aji-bench`
//! crate docs and BENCHMARKS.md). This test pins that promise on a fixed
//! (seeded, deterministic) corpus slice:
//!
//! * the deterministic corpus report (`corpus_metrics_json`, which every
//!   binary's `--json` mode prints) must be **byte-identical** between
//!   `threads = 1` and `threads = 4`;
//! * the observability data absorbed into the caller's registry must
//!   agree on every counter, every histogram bucket, and every span path
//!   and hit count — only span *durations* may differ.

use aji::PipelineOptions;
use aji_bench::{corpus_metrics_json, run_corpus};
use aji_obs::ObsReport;
use std::sync::Arc;

/// A fixed slice of the seeded corpus: all 14 hand-written pattern
/// projects plus 2 generated ones — small enough for a test, varied
/// enough to exercise every pipeline phase (some projects carry
/// vulnerability annotations and test drivers).
fn corpus_slice() -> Vec<aji_ast::Project> {
    aji_corpus::table1_benchmarks()
        .into_iter()
        .take(16)
        .collect()
}

/// Runs the slice through `run_corpus` under a scoped registry and
/// returns (deterministic corpus report bytes, absorbed obs snapshot).
fn run(threads: usize) -> (String, ObsReport) {
    let reg = Arc::new(aji_obs::Registry::new());
    let results = aji_obs::scoped(&reg, || {
        run_corpus(corpus_slice(), &PipelineOptions::default(), threads)
    });
    assert!(
        results.iter().all(|r| r.outcome.is_ok()),
        "corpus slice must analyze cleanly"
    );
    (corpus_metrics_json(&results).to_string(), reg.report())
}

#[test]
fn reports_are_byte_identical_across_thread_counts() {
    let (serial, _) = run(1);
    let (parallel, _) = run(4);
    assert_eq!(serial, parallel);
}

#[test]
fn absorbed_obs_is_thread_count_invariant() {
    let (_, serial) = run(1);
    let (_, parallel) = run(4);
    assert_eq!(serial.counters, parallel.counters, "counters must agree");
    assert_eq!(
        serial.histograms, parallel.histograms,
        "histogram buckets must agree"
    );
    // Span durations are wall-clock and may differ; paths and hit counts
    // may not.
    let shape = |r: &ObsReport| -> Vec<(String, u64)> {
        r.spans.iter().map(|s| (s.path.clone(), s.count)).collect()
    };
    assert_eq!(
        shape(&serial),
        shape(&parallel),
        "span tree shape must agree"
    );
    assert_eq!(
        serial.counter("corpus.projects"),
        Some(corpus_slice().len() as u64)
    );
}

#[test]
fn results_keep_corpus_order() {
    let expected: Vec<String> = corpus_slice().iter().map(|p| p.name.clone()).collect();
    let results = run_corpus(corpus_slice(), &PipelineOptions::default(), 4);
    let got: Vec<String> = results.iter().map(|r| r.name.clone()).collect();
    assert_eq!(got, expected);
}
