//! Property-based parser tests (ported from proptest to the in-tree
//! `aji-support` check harness): generated programs must parse, and
//! `print ∘ parse` must be a fixpoint (printing is stable and loses no
//! structure, and every number literal keeps its value).

use aji_ast::print::print_module;
use aji_ast::{FileId, NodeIdGen};
use aji_support::check::{property, TestCase};
use aji_support::{prop_assert, prop_assert_eq};

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
];

fn ident(tc: &mut TestCase) -> String {
    let first = tc.char_in("abcdefghijklmnopqrstuvwxyz");
    let rest = tc.string_of("abcdefghijklmnopqrstuvwxyz0123456789_", 0..6);
    let mut s = format!("{first}{rest}");
    if KEYWORDS.contains(&s.as_str()) {
        // Suffixing always de-keywords the name (no keyword extends
        // another by one letter here).
        s.push('x');
    }
    s
}

/// Number literals whose printing once lost their value or failed to
/// parse, with every spelling the lexer reads.
const NUMBER_EDGES: &[&str] = &[
    "1e20",
    "1e21",
    "1e-7",
    "5e-324",
    "1.7976931348623157e308",
    "1e999",
    "0x1fffffffffffffffff",
    "0o17",
    "0b101",
    "1_000",
    "010",
    ".5",
    "5.",
];

fn literal(tc: &mut TestCase) -> String {
    match tc.int_in(0u32..7) {
        0 => tc.int_in(0u32..100_000).to_string(),
        6 => tc.pick(NUMBER_EDGES).to_string(),
        1 => format!(
            "'{}'",
            tc.string_of(
                "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.-",
                0..10
            )
        ),
        2 => "true".to_string(),
        3 => "false".to_string(),
        4 => "null".to_string(),
        _ => "this".to_string(),
    }
}

fn expr(tc: &mut TestCase, depth: u32) -> String {
    if depth == 0 || tc.ratio(1, 4) {
        return if tc.bool() { literal(tc) } else { ident(tc) };
    }
    let d = depth - 1;
    match tc.int_in(0u32..13) {
        0 => {
            let a = expr(tc, d);
            let b = expr(tc, d);
            let op = *tc.pick(&["+", "-", "*", "===", "<", "&&", "||"]);
            format!("({a} {op} {b})")
        }
        1 => format!("({}).{}", expr(tc, d), ident(tc)),
        // Dynamic member access (the paper's favorite construct).
        2 => format!("({})[{}]", expr(tc, d), expr(tc, d)),
        3 => {
            let f = ident(tc);
            let args = tc_join(tc, d, 0..3);
            format!("{f}({args})")
        }
        4 => format!("({} ? {} : {})", expr(tc, d), expr(tc, d), expr(tc, d)),
        5 => format!("(!{})", expr(tc, d)),
        6 => format!("(typeof {})", expr(tc, d)),
        7 => format!("(function({}) {{ return {}; }})", ident(tc), expr(tc, d)),
        8 => format!("(({}) => ({}))", ident(tc), expr(tc, d)),
        9 => format!("[{}]", tc_join(tc, d, 0..3)),
        10 => format!("({{ {}: {} }})", ident(tc), expr(tc, d)),
        11 => {
            let t = tc.string_of("abcdefghijklmnopqrstuvwxyz ", 0..6);
            format!("`{t}${{{}}}`", expr(tc, d))
        }
        _ => {
            let f = ident(tc);
            let args = tc_join(tc, d, 0..2);
            format!("new {f}({args})")
        }
    }
}

fn tc_join(tc: &mut TestCase, depth: u32, n: std::ops::Range<usize>) -> String {
    tc.vec_of(n, |t| expr(t, depth)).join(", ")
}

fn stmt(tc: &mut TestCase) -> String {
    match tc.int_in(0u32..8) {
        0 => format!("var {} = {};", ident(tc), expr(tc, 4)),
        1 => format!("let {} = {};", ident(tc), expr(tc, 4)),
        2 => format!("f0({});", expr(tc, 4)),
        3 => format!("if ({}) {{ g0({}); }}", expr(tc, 4), expr(tc, 4)),
        4 => format!("function {}(a, b) {{ return {}; }}", ident(tc), expr(tc, 4)),
        5 => {
            let x = ident(tc);
            format!(
                "for (var {x} = {}; {x} < 3; {x}++) {{ h0({}); }}",
                expr(tc, 4),
                expr(tc, 4)
            )
        }
        6 => format!(
            "try {{ k0({}); }} catch (e9) {{ k1({}); }}",
            expr(tc, 4),
            expr(tc, 4)
        ),
        _ => format!("obj0[{}] = {};", expr(tc, 4), ident(tc)),
    }
}

fn program(tc: &mut TestCase) -> String {
    tc.vec_of(1..6, stmt).join("\n")
}

#[test]
fn generated_programs_parse() {
    property("generated_programs_parse").cases(256).run(|tc| {
        let src = program(tc);
        let mut ids = NodeIdGen::new();
        let parsed = aji_parser::parse_module(&src, FileId(0), &mut ids);
        prop_assert!(parsed.is_ok(), "parse failed: {:?}\n{src}", parsed.err());
        Ok(())
    });
}

#[test]
fn print_parse_fixpoint() {
    property("print_parse_fixpoint").cases(256).run(|tc| {
        let src = program(tc);
        let mut ids = NodeIdGen::new();
        let m1 = match aji_parser::parse_module(&src, FileId(0), &mut ids) {
            Ok(m) => m,
            Err(e) => return Err(format!("parse failed: {e}\n{src}")),
        };
        let once = print_module(&m1);
        let mut ids2 = NodeIdGen::new();
        let m2 = match aji_parser::parse_module(&once, FileId(0), &mut ids2) {
            Ok(m) => m,
            Err(e) => {
                return Err(format!(
                    "reparse failed: {e}\noriginal:\n{src}\nprinted:\n{once}"
                ))
            }
        };
        let twice = print_module(&m2);
        prop_assert_eq!(&once, &twice, "printer unstable for:\n{}", src);
        prop_assert_eq!(
            number_bits(&m1),
            number_bits(&m2),
            "number literals changed value:\n{}\nprinted:\n{}",
            src,
            once
        );
        Ok(())
    });
}

/// The bits of every number literal in `m`, in source order.
fn number_bits(m: &aji_ast::Module) -> Vec<u64> {
    use aji_ast::visit::{walk_expr, walk_module, Visit};
    struct Nums(Vec<u64>);
    impl Visit for Nums {
        fn visit_expr(&mut self, e: &aji_ast::ast::Expr) {
            if let aji_ast::ast::ExprKind::Num(n) = e.kind {
                self.0.push(n.to_bits());
            }
            walk_expr(self, e);
        }
    }
    let mut v = Nums(Vec::new());
    walk_module(&mut v, m);
    v.0
}

#[test]
fn node_ids_unique_per_parse() {
    property("node_ids_unique_per_parse").cases(256).run(|tc| {
        use aji_ast::visit::{walk_expr, walk_module, Visit};
        struct Ids(Vec<u32>);
        impl Visit for Ids {
            fn visit_expr(&mut self, e: &aji_ast::ast::Expr) {
                self.0.push(e.id.0);
                walk_expr(self, e);
            }
        }
        let src = program(tc);
        let mut ids = NodeIdGen::new();
        let m = match aji_parser::parse_module(&src, FileId(0), &mut ids) {
            Ok(m) => m,
            Err(e) => return Err(format!("parse failed: {e}\n{src}")),
        };
        let mut v = Ids(Vec::new());
        walk_module(&mut v, &m);
        let mut sorted = v.0.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(
            sorted.len(),
            v.0.len(),
            "duplicate expr node ids in:\n{}",
            src
        );
        Ok(())
    });
}

/// All printable ASCII plus newline — the port of proptest's `[ -~\n]`.
fn printable_ascii() -> String {
    let mut s: String = (' '..='~').collect();
    s.push('\n');
    s
}

#[test]
fn lexer_never_panics() {
    let charset = printable_ascii();
    property("lexer_never_panics").cases(256).run(|tc| {
        // Arbitrary printable input: lexing may fail but must not panic
        // (a panic fails this #[test] directly).
        let src = tc.string_of(&charset, 0..200);
        let _ = aji_parser::lex(&src);
        Ok(())
    });
}

#[test]
fn parser_never_panics() {
    let charset = printable_ascii();
    property("parser_never_panics").cases(256).run(|tc| {
        let src = tc.string_of(&charset, 0..200);
        let mut ids = NodeIdGen::new();
        let _ = aji_parser::parse_module(&src, FileId(0), &mut ids);
        Ok(())
    });
}
