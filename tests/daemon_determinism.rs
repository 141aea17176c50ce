//! Determinism gates for the `aji-serve` daemon (PR9): a daemon answer
//! must be **byte-identical** to a local batch run, whether the store is
//! cold, warm, freshly invalidated, or reloaded from a snapshot — and at
//! any client thread count.
//!
//! The final property test is the strongest form of the contract: over
//! random edit sequences against a project (edits interleaved with
//! invalidations), the daemon's answer after every step must equal a
//! from-scratch [`aji::run_benchmark`] on the current project text.
//! Cache keys embed a digest of full project content, so a stale answer
//! is a key-collision or bookkeeping bug — exactly what this hunts.

use aji::{run_benchmark, PipelineOptions};
use aji_ast::Project;
use aji_serve::{Engine, EngineOptions};
use aji_support::check::{property, TestCase};
use aji_support::{prop_assert_eq, Json};

/// The small corpus slice the socket tests fan out over.
fn corpus() -> Vec<Project> {
    aji_corpus::pattern_projects().into_iter().take(5).collect()
}

/// The deterministic local baseline the daemon must reproduce.
fn local_report(projects: Vec<Project>) -> String {
    let results = aji_bench::run_corpus(projects, &PipelineOptions::default(), 1);
    aji_bench::corpus_metrics_json(&results).to_string()
}

fn analyze_frame(project: &Project) -> Json {
    Json::obj(vec![
        ("op", Json::Str("analyze".into())),
        ("project", project.to_json()),
    ])
}

/// The `result` payload of an in-process analyze, as printed text.
fn engine_analyze(engine: &mut Engine, project: &Project) -> String {
    let (resp, _) = engine.handle(&analyze_frame(project));
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "analyze failed for {}: {resp}",
        project.name
    );
    resp.get("result").expect("result").to_string()
}

/// What a scratch pipeline says about `project` right now.
fn scratch_answer(project: &Project) -> String {
    run_benchmark(project, &PipelineOptions::default())
        .unwrap_or_else(|e| panic!("{}: {e}", project.name))
        .metrics_json()
        .to_string()
}

#[cfg(unix)]
mod socket {
    use super::*;
    use aji_support::wire;
    use std::os::unix::net::UnixListener;

    fn temp_socket(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("aji-daemon-det-{tag}-{}.sock", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    }

    /// In-process daemon; the engine lives inside the thread (not `Send`).
    fn spawn_daemon(path: &str) -> std::thread::JoinHandle<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path).unwrap();
        std::thread::spawn(move || {
            let mut engine = Engine::new(EngineOptions::default());
            aji_serve::serve(&listener, &mut engine).unwrap();
        })
    }

    fn daemon_report(projects: Vec<Project>, socket: &str, threads: usize) -> String {
        let results = aji_bench::run_corpus_daemon(projects, socket, threads, false);
        assert!(
            results.iter().all(|r| r.outcome.is_ok()),
            "daemon run had failures"
        );
        aji_bench::daemon_metrics_json(&results).to_string()
    }

    fn request(socket: &str, frame: &Json) -> Json {
        let resp = wire::request(socket, frame).expect("request");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        resp
    }

    fn stat(resp: &Json, key: &str) -> f64 {
        resp.get("result")
            .and_then(|r| r.get("store"))
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("stats frame missing store.{key}: {resp}"))
    }

    #[test]
    fn cold_warm_and_invalidated_daemon_runs_match_local_batch_byte_for_byte() {
        let projects = corpus();
        let n = projects.len() as f64;
        let local = local_report(projects.clone());

        let path = temp_socket("cold-warm");
        let daemon = spawn_daemon(&path);

        // Cold pass, serial clients.
        let cold = daemon_report(projects.clone(), &path, 1);
        assert_eq!(cold, local, "cold daemon run must match the local batch");

        // Warm pass, four client threads: answers must not depend on
        // connection interleaving, and must all come from the response
        // layer.
        let warm = daemon_report(projects.clone(), &path, 4);
        assert_eq!(warm, local, "warm daemon run must match the local batch");
        let stats = request(&path, &Json::obj(vec![("op", Json::Str("stats".into()))]));
        assert_eq!(stat(&stats, "response_misses"), n);
        assert_eq!(stat(&stats, "response_hits"), n);

        // Invalidate one module of one project: the next pass recomputes
        // that project (one more miss) and still matches the local batch.
        let victim = &projects[0];
        let victim_file = victim.files[0].path.clone();
        let resp = request(
            &path,
            &Json::obj(vec![
                ("op", Json::Str("invalidate".into())),
                ("name", Json::Str(victim.name.clone())),
                ("path", Json::Str(victim_file)),
            ]),
        );
        let modules = resp
            .get("result")
            .and_then(|r| r.get("modules"))
            .and_then(Json::as_f64)
            .expect("invalidate result counts evicted modules");
        assert_eq!(modules, 1.0, "exactly the edited file's parse is evicted");

        let after = daemon_report(projects.clone(), &path, 4);
        assert_eq!(after, local, "post-invalidate run must match the local batch");
        let stats = request(&path, &Json::obj(vec![("op", Json::Str("stats".into()))]));
        assert_eq!(stat(&stats, "response_misses"), n + 1.0);
        assert_eq!(stat(&stats, "invalidations"), 1.0);

        request(&path, &Json::obj(vec![("op", Json::Str("shutdown".into()))]));
        daemon.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn snapshot_reload_preserves_answers_byte_for_byte() {
    let store = std::env::temp_dir().join(format!(
        "aji-daemon-det-store-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let opts = || EngineOptions {
        store_path: Some(store.clone()),
        ..EngineOptions::default()
    };
    let projects = corpus();

    let mut first = Engine::new(opts());
    let cold: Vec<String> = projects.iter().map(|p| engine_analyze(&mut first, p)).collect();
    let (resp, _) = first.handle(&Json::obj(vec![("op", Json::Str("save".into()))]));
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    drop(first);

    // A fresh engine over the snapshot answers from the response layer,
    // byte-identically.
    let mut second = Engine::new(opts());
    let warm: Vec<String> = projects.iter().map(|p| engine_analyze(&mut second, p)).collect();
    assert_eq!(cold, warm);
    assert_eq!(second.store().stats().response_hits, projects.len() as u64);
    assert_eq!(second.store().stats().response_misses, 0);
    let _ = std::fs::remove_file(&store);
}

/// Applies one random, parse-safe edit to a random file of `project`.
fn random_edit(tc: &mut TestCase, project: &mut Project, step: usize) {
    let i = tc.int_in(0usize..project.files.len());
    let file = &mut project.files[i];
    match tc.int_in(0u8..3) {
        // Append a new top-level binding (new nodes at the end).
        0 => file.src.push_str(&format!("\nvar aji_edit_{step} = {};", tc.int_in(0u64..100))),
        // Prepend one (shifts every node id in the file).
        1 => file.src = format!("var aji_pre_{step} = {};\n{}", tc.int_in(0u64..100), file.src),
        // Rewrite the file wholesale.
        _ => file.src = format!("var aji_only_{step} = {};", tc.int_in(0u64..100)),
    }
}

#[test]
fn random_edit_sequences_never_yield_stale_answers() {
    property("daemon_random_edits_never_stale").cases(8).run(|tc| {
        let projects = aji_corpus::pattern_projects();
        let pick = tc.int_in(0usize..projects.len());
        let mut project = projects[pick].clone();
        let mut engine = Engine::new(EngineOptions::default());

        // Cold answer for the pristine project.
        prop_assert_eq!(engine_analyze(&mut engine, &project), scratch_answer(&project));

        let steps = tc.int_in(2usize..5);
        for step in 0..steps {
            random_edit(tc, &mut project, step);
            // Sometimes also evict explicitly — eviction must never
            // change an answer, only cache hit-rates.
            if tc.bool() {
                let path = project.files[tc.int_in(0usize..project.files.len())].path.clone();
                let (resp, _) = engine.handle(&Json::obj(vec![
                    ("op", Json::Str("invalidate".into())),
                    ("name", Json::Str(project.name.clone())),
                    ("path", Json::Str(path)),
                ]));
                assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
            }
            prop_assert_eq!(
                engine_analyze(&mut engine, &project),
                scratch_answer(&project)
            );
            // And the immediate re-ask is warm yet identical.
            let before = engine.store().stats().response_hits;
            prop_assert_eq!(
                engine_analyze(&mut engine, &project),
                scratch_answer(&project)
            );
            prop_assert_eq!(engine.store().stats().response_hits, before + 1);
        }
        Ok(())
    });
}
