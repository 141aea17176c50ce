//! `AJI_OBS=1` on a corpus binary: the profile absorbed from every worker
//! is rendered for stderr at exit, and the corpus report on stdout is
//! byte-identical to a run with collection off.
//!
//! Kept as a **single test function** in its own binary: turning
//! collection on is process-global and tests within one binary may run
//! concurrently.

use aji::PipelineOptions;
use aji_bench::{corpus_metrics_json, exit_profile, run_corpus};

#[test]
fn obs_on_prints_the_absorbed_profile_and_keeps_the_report() {
    let projects: Vec<_> = aji_corpus::pattern_projects().into_iter().take(3).collect();
    let report = |projects| {
        let results = run_corpus(projects, &PipelineOptions::default(), 2);
        corpus_metrics_json(&results).to_string()
    };

    // `AJI_OBS` may already be set in the environment running the tests.
    let env_on = aji_obs::enabled();
    let off = report(projects.clone());
    if !env_on {
        assert_eq!(exit_profile(), None, "collection is off by default");
    }

    aji_obs::force_enable();
    let on = report(projects);
    assert_eq!(on, off, "collection must not change the corpus report");

    let profile = exit_profile().expect("collection is on");
    for needle in [
        "spans (wall clock):",
        "pipeline",
        "approx-interp",
        "interp.steps",
    ] {
        assert!(profile.contains(needle), "missing {needle}:\n{profile}");
    }
}
