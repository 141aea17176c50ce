//! `InterpOptions::max_string_len` bounds the strings a run builds.
//!
//! Without it a 60-byte file that doubles a string forty times asks for a
//! terabyte and aborts the whole process. These tests set a 1 KiB cap and
//! double twenty times, so unfixed code builds a 2 Mi-char string and
//! fails by assertion, not by exhausting the machine.

use aji::{run_benchmark, PipelineOptions};
use aji_approx::ApproxOptions;
use aji_ast::Project;
use aji_interp::{BudgetKind, Interp, InterpOptions, JsError, NoopTracer};
use aji_obs::Registry;
use aji_oracle::{run_oracle, OracleOptions};
use std::sync::Arc;

/// The stack size of a default spawned thread, and of corpus workers.
const SMALL_STACK: usize = 2 << 20;

const CAP: usize = 1 << 10;

const DOUBLINGS: &str = "var s = 'ab';\n\
                         for (var i = 0; i < 20; i++) { s = s + s; }\n\
                         module.exports = s.length;\n";

fn project() -> Project {
    let mut p = Project::new("string-doublings");
    p.add_file("index.js", DOUBLINGS);
    p.test_driver = Some("index.js".to_string());
    p
}

fn capped(base: InterpOptions) -> InterpOptions {
    InterpOptions {
        max_string_len: CAP,
        ..base
    }
}

/// Runs `f` on a 2 MiB thread under a fresh registry and returns its
/// result with the run's `interp.budget_exhaustions` count.
fn counting_exhaustions<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> (T, u64) {
    std::thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(move || {
            let reg = Arc::new(Registry::new());
            let out = aji_obs::scoped(&reg, f);
            let trips = reg
                .report()
                .counter("interp.budget_exhaustions")
                .unwrap_or(0);
            (out, trips)
        })
        .expect("spawn")
        .join()
        .expect("no panic")
}

#[test]
fn default_cap_lets_megabyte_strings_through() {
    let p = project();
    let mut interp = Interp::new(&p).expect("parse");
    let n = interp.run_module("index.js").expect("runs");
    assert_eq!(interp.to_string_public(&n), (2u64 << 20).to_string());
}

#[test]
fn a_direct_run_stops_at_the_cap() {
    let ((tripped, err), trips) = counting_exhaustions(|| {
        let p = project();
        let opts = capped(InterpOptions::default());
        let mut interp = Interp::with_options(&p, opts, Box::new(NoopTracer)).expect("parse");
        let err = interp.run_module("index.js").map(|_| ()).unwrap_err();
        (
            matches!(err, JsError::Budget(BudgetKind::StringLength)),
            err.to_string(),
        )
    });
    assert!(tripped, "{err}");
    assert_eq!(trips, 1);
}

#[test]
fn string_builtins_check_the_cap() {
    let cases = [
        "var s = 'x'.repeat(2000);",
        "var s = 'x'.padStart(2000);",
        "var s = 'x'.padEnd(Infinity, 'ab');",
        "var s = ''.concat('x'.repeat(600), 'y'.repeat(600));",
        "var a = []; for (var i = 0; i < 300; i++) { a.push('abcd'); } var s = a.join('-');",
        "var h = 'x'.repeat(600); var s = `${h}${h}`;",
        "var s = 'x'.repeat(600); s += s;",
    ];
    for src in cases {
        let mut p = Project::new("builtin");
        p.add_file("index.js", src);
        let opts = capped(InterpOptions::default());
        let mut interp = Interp::with_options(&p, opts, Box::new(NoopTracer)).expect("parse");
        let out = interp.run_module("index.js").map(|_| ());
        assert!(
            matches!(out, Err(JsError::Budget(BudgetKind::StringLength))),
            "{src}: {out:?}"
        );
    }
}

#[test]
fn the_pipeline_stops_at_the_cap() {
    let (report, trips) = counting_exhaustions(|| {
        let opts = PipelineOptions {
            approx: ApproxOptions {
                interp: capped(InterpOptions::approx_defaults()),
            },
            dynamic_interp: capped(InterpOptions::default()),
            ..PipelineOptions::with_dynamic_cg()
        };
        run_benchmark(&project(), &opts).map(|r| r.metrics_json())
    });
    assert!(report.is_ok(), "the pipeline still reports: {report:?}");
    assert!(
        trips >= 2,
        "both the approximate and the dynamic run trip the cap ({trips})"
    );
}

#[test]
fn the_oracle_stops_at_the_cap() {
    let (oracle, trips) = counting_exhaustions(|| {
        let opts = OracleOptions {
            approx: ApproxOptions {
                interp: capped(InterpOptions::approx_defaults()),
            },
            dynamic_interp: capped(InterpOptions::default()),
            ..OracleOptions::default()
        };
        run_oracle(&project(), &opts).map(|o| o.to_json())
    });
    assert!(oracle.is_ok(), "the oracle still reports: {oracle:?}");
    assert!(
        trips >= 2,
        "both the approximate and the dynamic run trip the cap ({trips})"
    );
}
