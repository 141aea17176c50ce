//! Fuzz-style robustness tests (ported from proptest to the in-tree
//! `aji-support` check harness): randomly generated (syntactically valid)
//! programs must never panic any pipeline stage — the concrete
//! interpreter, the approximate interpreter, or the static analysis —
//! and the hint rules must stay monotone.

use aji_approx::{approximate_interpret, ApproxOptions};
use aji_ast::Project;
use aji_interp::{Interp, InterpOptions, NoopTracer};
use aji_pta::{analyze, AnalysisOptions};
use aji_support::check::{property, TestCase};
use aji_support::prop_assert;

const KEYWORDS: &[&str] = &[
    "var",
    "let",
    "const",
    "function",
    "return",
    "if",
    "else",
    "while",
    "do",
    "for",
    "in",
    "new",
    "delete",
    "typeof",
    "void",
    "instanceof",
    "this",
    "null",
    "true",
    "false",
    "class",
    "extends",
    "super",
    "try",
    "catch",
    "finally",
    "throw",
    "switch",
    "case",
    "default",
    "break",
    "continue",
    "debugger",
    "of",
    "get",
    "set",
    "static",
    "async",
    "await",
    "yield",
    "arguments",
    "eval",
    "undefined",
    "NaN",
    "Infinity",
];

fn ident(tc: &mut TestCase) -> String {
    let first = tc.char_in("abcdefghijklmnopqrstuvwxyz");
    let rest = tc.string_of("abcdefghijklmnopqrstuvwxyz0123456789", 0..5);
    let mut s = format!("{first}{rest}");
    if KEYWORDS.contains(&s.as_str()) {
        s.push('9');
    }
    s
}

fn expr(tc: &mut TestCase, depth: u32) -> String {
    if depth == 0 || tc.ratio(1, 4) {
        return match tc.int_in(0u32..8) {
            0 => tc.int_in(0u32..1000).to_string(),
            1 => format!("'{}'", tc.string_of("abcdefghijklmnopqrstuvwxyz", 0..7)),
            2 => "true".to_string(),
            3 => "null".to_string(),
            4 => "undefined".to_string(),
            5 => "{}".to_string(),
            6 => "[]".to_string(),
            _ => ident(tc),
        };
    }
    let d = depth - 1;
    match tc.int_in(0u32..9) {
        0 => format!("({} + {})", expr(tc, d), expr(tc, d)),
        1 => format!("({})[{}]", expr(tc, d), expr(tc, d)),
        2 => format!("({}).{}", expr(tc, d), ident(tc)),
        3 => {
            let f = ident(tc);
            let args = tc.vec_of(0..3, |t| expr(t, d)).join(", ");
            format!("{f}({args})")
        }
        4 => format!("(typeof {})", expr(tc, d)),
        5 => format!("(function({}) {{ return {}; }})", ident(tc), expr(tc, d)),
        6 => format!("({} ? {} : {})", expr(tc, d), expr(tc, d), expr(tc, d)),
        7 => format!("[{}]", tc.vec_of(0..3, |t| expr(t, d)).join(", ")),
        _ => format!("({{ {}: {} }})", ident(tc), expr(tc, d)),
    }
}

fn stmt(tc: &mut TestCase) -> String {
    match tc.int_in(0u32..7) {
        0 => format!("var {} = {};", ident(tc), expr(tc, 3)),
        1 => format!("sink({});", expr(tc, 3)),
        2 => format!("if ({}) {{ sink({}); }}", expr(tc, 3), expr(tc, 3)),
        3 => format!("function {}() {{ return {}; }}", ident(tc), expr(tc, 3)),
        4 => {
            let o = expr(tc, 3);
            format!("tbl[{o}] = {}; var {} = tbl[{o}];", expr(tc, 3), ident(tc))
        }
        5 => format!(
            "try {{ sink({}); }} catch (err0) {{ sink({}); }}",
            expr(tc, 3),
            expr(tc, 3)
        ),
        _ => {
            let x = ident(tc);
            format!(
                "for (var {x} = 0; {x} < 2; {x}++) {{ sink({}); }}",
                expr(tc, 3)
            )
        }
    }
}

fn program(tc: &mut TestCase) -> String {
    let stmts = tc.vec_of(1..5, stmt);
    format!(
        "var tbl = {{}};\nfunction sink(x) {{ return x; }}\n{}",
        stmts.join("\n")
    )
}

fn tiny_budgets() -> InterpOptions {
    InterpOptions {
        max_steps: 200_000,
        max_stack: 24,
        max_loop_iters: 500,
        ..InterpOptions::default()
    }
}

#[test]
fn concrete_interpreter_never_panics() {
    property("concrete_interpreter_never_panics")
        .cases(96)
        .run(|tc| {
            let src = program(tc);
            let mut p = Project::new("fuzz");
            p.add_file("index.js", src);
            let mut interp =
                Interp::with_options(&p, tiny_budgets(), Box::new(NoopTracer)).expect("parse");
            // Runtime errors (unbound names etc.) are fine; panics are
            // not (a panic fails this #[test] directly).
            let _ = interp.run_module("index.js");
            Ok(())
        });
}

#[test]
fn approx_interpreter_never_panics() {
    property("approx_interpreter_never_panics")
        .cases(96)
        .run(|tc| {
            let src = program(tc);
            let mut p = Project::new("fuzz");
            p.add_file("index.js", src);
            let opts = ApproxOptions {
                interp: InterpOptions {
                    approx: true,
                    ..tiny_budgets()
                },
            };
            let _ = approximate_interpret(&p, &opts).expect("approx");
            Ok(())
        });
}

#[test]
fn full_pipeline_never_panics_and_is_monotone() {
    property("full_pipeline_never_panics_and_is_monotone")
        .cases(96)
        .run(|tc| {
            let src = program(tc);
            let mut p = Project::new("fuzz");
            p.add_file("index.js", src.clone());
            let opts = ApproxOptions {
                interp: InterpOptions {
                    approx: true,
                    ..tiny_budgets()
                },
            };
            let hints = approximate_interpret(&p, &opts).expect("approx").hints;
            let base = analyze(&p, None, &AnalysisOptions::baseline()).expect("baseline");
            let ext = analyze(&p, Some(&hints), &AnalysisOptions::extended()).expect("extended");
            // Hint rules only add tokens, so the extended call graph is a
            // superset of the baseline's.
            for e in &base.call_graph.edges {
                prop_assert!(
                    ext.call_graph.edges.contains(e),
                    "extended lost edge {e:?}\nprogram:\n{src}"
                );
            }
            // The non-relational mode must also be a superset of baseline.
            let non = analyze(&p, Some(&hints), &AnalysisOptions::nonrelational()).expect("nonrel");
            for e in &base.call_graph.edges {
                prop_assert!(non.call_graph.edges.contains(e));
            }
            Ok(())
        });
}
