//! Stack-safety regression tests: left-associative chains.
//!
//! The parser builds `1+1+…+1` and `o.a.a….a` in loops, so its recursion
//! guard never sees them, while every later walker recurses once per
//! link. A 5,000-term chain used to overflow a 2 MiB thread — the stack
//! size of a `par::map` corpus worker — and abort the whole process. The
//! parser's chain budget now rejects such files with a parse error, and
//! chains inside the budget walk safely on the same small stack.

use aji::{run_benchmark, PipelineOptions};
use aji_ast::Project;
use aji_oracle::{run_oracle, OracleOptions};
use aji_serve::{Engine, EngineOptions};
use aji_support::Json;

/// The stack size of a default spawned thread, and of corpus workers.
const SMALL_STACK: usize = 2 << 20;

/// A project whose test driver requires a module holding one long chain.
fn chain_project(head: &str, link: &str, n: usize) -> Project {
    let mut src = format!("var o = {{ a: null }};\nvar x = {head}");
    for _ in 0..n {
        src.push_str(link);
    }
    src.push_str(";\nmodule.exports = x;\n");
    let mut p = Project::new("deep-chain");
    p.add_file("chain.js", &src);
    p.add_file(
        "index.js",
        "var c = require('./chain.js');\nmodule.exports = c;\n",
    );
    p.test_driver = Some("index.js".to_string());
    p
}

/// Runs `f` on a fresh 2 MiB thread. A stack overflow aborts the test
/// process, so merely returning proves the pipeline stayed on its stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

fn assert_rejected(head: &'static str, link: &'static str) {
    let p = chain_project(head, link, 50_000);
    let p2 = p.clone();
    let bench = on_small_stack(move || run_benchmark(&p, &PipelineOptions::default()).err());
    let oracle = on_small_stack(move || run_oracle(&p2, &OracleOptions::default()).err());
    for e in [bench.map(|e| e.to_string()), oracle.map(|e| e.to_string())] {
        let e = e.expect("a 50,000-link chain is a parse error");
        assert!(e.contains("chain too long"), "{e}");
    }
}

#[test]
fn fifty_thousand_term_sum_is_a_clean_error() {
    assert_rejected("1", "+1");
}

#[test]
fn fifty_thousand_link_member_chain_is_a_clean_error() {
    assert_rejected("o", ".a");
}

/// The daemon is single-threaded, so a crash would take every client
/// down: a 50,000-link file must come back as an error frame, and the
/// same engine must go on answering.
#[test]
fn daemon_answers_a_deep_chain_with_an_error_and_keeps_serving() {
    let frame = |p: &Project| {
        Json::obj(vec![
            ("op", Json::Str("analyze".into())),
            ("project", p.to_json()),
        ])
    };
    let deep = frame(&chain_project("1", "+1", 50_000));
    let fine = frame(&chain_project("1", "+1", 10));
    let (deep_ok, fine_ok) = on_small_stack(move || {
        let mut engine = Engine::new(EngineOptions::default());
        let ok = |resp: Json| resp.get("ok").cloned();
        let deep_ok = ok(engine.handle(&deep).0);
        let fine_ok = ok(engine.handle(&fine).0);
        (deep_ok, fine_ok)
    });
    assert_eq!(deep_ok, Some(Json::Bool(false)));
    assert_eq!(fine_ok, Some(Json::Bool(true)));
}

#[test]
fn chains_at_the_budget_run_on_a_small_stack() {
    for (head, link) in [("1", "+1"), ("o", ".a")] {
        let p = chain_project(head, link, 200);
        let p2 = p.clone();
        let report = on_small_stack(move || run_benchmark(&p, &PipelineOptions::default()));
        report.unwrap_or_else(|e| panic!("{link} chain: {e}"));
        let oracle = on_small_stack(move || run_oracle(&p2, &OracleOptions::default()));
        oracle.unwrap_or_else(|e| panic!("{link} chain: {e}"));
    }
}
