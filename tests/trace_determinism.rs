//! Flight-recorder determinism contract.
//!
//! A recorder in deterministic mode (`TraceConfig::deterministic`: zeroed
//! wall clocks, profile on) must produce **byte-identical** trace streams
//! and Chrome exports:
//!
//! * between `threads = 1` and `threads = 4` corpus runs — per-project
//!   registries created with `Registry::new_like` fill their rings
//!   identically regardless of which worker runs them, and
//!   `Registry::absorb` appends the events in corpus order; and
//! * between reruns of the same corpus at the same thread count.
//!
//! A third test pins the recorder-**off** contract: installing no recorder
//! leaves every counter and span of a plain observed run unchanged (the
//! profiler and all trace hooks stay dormant).

use aji::PipelineOptions;
use aji_bench::run_corpus;
use aji_obs::{ObsReport, TraceConfig};
use std::sync::Arc;

/// A fixed slice of the pattern corpus, varied enough to exercise the
/// interpreter (dynamic runs and budget trips), the approx pass (hints)
/// and the analyses.
fn corpus_slice() -> Vec<aji_ast::Project> {
    aji_corpus::pattern_projects().into_iter().take(8).collect()
}

/// Runs the slice with a deterministic flight recorder installed and
/// returns the absorbed observability snapshot.
fn run_recorded(threads: usize) -> ObsReport {
    let reg = Arc::new(aji_obs::Registry::new());
    reg.install_recorder(TraceConfig::deterministic());
    let results = aji_obs::scoped(&reg, || {
        run_corpus(corpus_slice(), &PipelineOptions::default(), threads)
    });
    assert!(
        results.iter().all(|r| r.outcome.is_ok()),
        "corpus slice must analyze cleanly"
    );
    reg.report()
}

/// The deterministic byte streams compared: the trace JSON and its Chrome
/// export (which must also be stable, since it is what CI archives).
fn trace_bytes(report: &ObsReport) -> (String, String) {
    let trace = report.trace.as_ref().expect("recorder was installed");
    assert!(
        !trace.events.is_empty(),
        "the corpus run must record events"
    );
    use aji_support::ToJson;
    (
        trace.to_json().to_string(),
        trace.to_chrome_trace().to_string(),
    )
}

#[test]
fn deterministic_traces_are_byte_identical_across_thread_counts() {
    let serial = run_recorded(1);
    let parallel = run_recorded(4);
    assert_eq!(trace_bytes(&serial), trace_bytes(&parallel));
    // The step-attributed profile rides the same guarantee: profiler
    // counters are summed per project and absorbed in corpus order.
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(serial.gauges_deterministic(), parallel.gauges_deterministic());
}

#[test]
fn deterministic_traces_are_byte_identical_across_reruns() {
    let first = run_recorded(2);
    let second = run_recorded(2);
    assert_eq!(trace_bytes(&first), trace_bytes(&second));
}

/// Strips wall-clock-dependent gauges (peak RSS grows monotonically over
/// a process's life, so two in-process runs can differ).
trait DeterministicGauges {
    fn gauges_deterministic(&self) -> Vec<(String, u64)>;
}

impl DeterministicGauges for ObsReport {
    fn gauges_deterministic(&self) -> Vec<(String, u64)> {
        self.gauges
            .iter()
            .filter(|g| !g.name.contains("rss"))
            .map(|g| (g.name.clone(), g.value))
            .collect()
    }
}

#[test]
fn recorder_off_runs_are_unaffected() {
    let run_plain = || {
        let reg = Arc::new(aji_obs::Registry::new());
        let results = aji_obs::scoped(&reg, || {
            run_corpus(corpus_slice(), &PipelineOptions::default(), 2)
        });
        assert!(results.iter().all(|r| r.outcome.is_ok()));
        reg.report()
    };
    let off = run_plain();
    assert!(off.trace.is_none(), "no recorder, no trace");
    assert!(
        off.counters.iter().all(|c| !c.name.starts_with("profile.")),
        "no recorder, no profiler counters"
    );

    // The recorded run's plain counters must agree exactly with the
    // unrecorded run's on every shared name: tracing is observation, not
    // perturbation. (The recorded run adds profile.* counters on top.)
    let on = run_recorded(2);
    for c in &off.counters {
        assert_eq!(
            on.counter(&c.name),
            Some(c.value),
            "counter {} must be unchanged by the recorder",
            c.name
        );
    }
    let spans = |r: &ObsReport| -> Vec<(String, u64)> {
        r.spans.iter().map(|s| (s.path.clone(), s.count)).collect()
    };
    assert_eq!(spans(&off), spans(&on), "span shape must be unchanged");
}
