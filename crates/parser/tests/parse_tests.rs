//! End-to-end parser tests: construct coverage, ASI behavior, spans, and
//! print→reparse fixpoint checks.

use aji_ast::ast::*;
use aji_ast::print::print_module;
use aji_ast::{FileId, NodeIdGen};
use aji_parser::parse_module;

fn parse(src: &str) -> Module {
    let mut ids = NodeIdGen::new();
    parse_module(src, FileId(0), &mut ids)
        .unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"))
}

fn parse_err(src: &str) -> aji_parser::ParseError {
    let mut ids = NodeIdGen::new();
    parse_module(src, FileId(0), &mut ids).expect_err("expected parse error")
}

/// `print(parse(s))` must be a fixpoint of `print ∘ parse`.
fn roundtrip(src: &str) {
    let once = print_module(&parse(src));
    let twice = print_module(&parse(&once));
    assert_eq!(once, twice, "printer not stable for:\n{src}\nfirst:\n{once}");
}

fn first_expr(m: &Module) -> &Expr {
    match &m.body[0].kind {
        StmtKind::Expr(e) => e,
        other => panic!("expected expression statement, got {other:?}"),
    }
}

// ----- statements -----

#[test]
fn var_declarations() {
    let m = parse("var a = 1, b;\nlet c = 'x';\nconst d = [];");
    assert_eq!(m.body.len(), 3);
    match &m.body[2].kind {
        StmtKind::VarDecl(d) => assert_eq!(d.kind, VarKind::Const),
        _ => panic!(),
    }
}

#[test]
fn function_declaration_with_params() {
    let m = parse("function f(a, b = 2, ...rest) { return a + b; }");
    match &m.body[0].kind {
        StmtKind::FuncDecl(f) => {
            assert_eq!(f.name.as_deref(), Some("f"));
            assert_eq!(f.params.len(), 2);
            assert!(f.params[1].default.is_some());
            assert!(f.rest.is_some());
        }
        _ => panic!(),
    }
}

#[test]
fn if_else_chain() {
    let m = parse("if (a) b(); else if (c) d(); else e();");
    match &m.body[0].kind {
        StmtKind::If { alt: Some(alt), .. } => {
            assert!(matches!(alt.kind, StmtKind::If { .. }));
        }
        _ => panic!(),
    }
}

#[test]
fn loops() {
    parse("while (x) { y(); }");
    parse("do { y(); } while (x);");
    parse("for (var i = 0; i < 10; i++) f(i);");
    parse("for (;;) break;");
    parse("for (var k in obj) f(k);");
    parse("for (const v of list) f(v);");
    parse("for (x of list) f(x);");
    parse("for (k in obj) f(k);");
}

#[test]
fn for_in_operator_restriction() {
    // An unparenthesized `in` inside a for-init terminates the init (the
    // spec's NoIn restriction), so this is a syntax error...
    parse_err("for (var x = 'a' in o ? 1 : 2; x; x--) f();");
    // ...while the parenthesized form is fine.
    let m = parse("for (var x = ('a' in o) ? 1 : 2; x; x--) f();");
    assert!(matches!(m.body[0].kind, StmtKind::For { .. }));
    // And `in` in call arguments within a for-init is also fine.
    let m = parse("for (var x = f(k in o); x; x--) g();");
    assert!(matches!(m.body[0].kind, StmtKind::For { .. }));
}

#[test]
fn switch_statement() {
    let m = parse(
        "switch (x) { case 1: a(); break; case 2: case 3: b(); break; default: c(); }",
    );
    match &m.body[0].kind {
        StmtKind::Switch { cases, .. } => {
            assert_eq!(cases.len(), 4);
            assert!(cases[3].test.is_none());
        }
        _ => panic!(),
    }
}

#[test]
fn try_catch_finally() {
    parse("try { f(); } catch (e) { g(e); } finally { h(); }");
    parse("try { f(); } catch { g(); }");
    parse("try { f(); } finally { h(); }");
    parse_err("try { f(); }");
}

#[test]
fn labeled_break_continue() {
    let m = parse("outer: for (;;) { for (;;) { continue outer; } break outer; }");
    assert!(matches!(m.body[0].kind, StmtKind::Labeled { .. }));
}

#[test]
fn throw_requires_expression_on_same_line() {
    parse("throw new Error('x');");
    parse_err("throw\n1;");
}

// ----- ASI -----

#[test]
fn asi_inserts_semicolons_at_newlines() {
    let m = parse("var a = 1\nvar b = 2\nf()");
    assert_eq!(m.body.len(), 3);
}

#[test]
fn asi_return_value_on_same_line() {
    let m = parse("function f() { return\n1; }");
    match &m.body[0].kind {
        StmtKind::FuncDecl(f) => match &f.body {
            FuncBody::Block(stmts) => {
                // `return` with newline → no argument; `1;` is separate.
                assert!(matches!(stmts[0].kind, StmtKind::Return(None)));
                assert_eq!(stmts.len(), 2);
            }
            _ => panic!(),
        },
        _ => panic!(),
    }
}

#[test]
fn asi_postfix_update_not_across_newline() {
    let m = parse("a\n++b");
    assert_eq!(m.body.len(), 2);
}

#[test]
fn missing_semicolon_without_newline_is_error() {
    parse_err("var a = 1 var b = 2");
}

// ----- expressions -----

#[test]
fn precedence_and_associativity() {
    let m = parse("x = 1 + 2 * 3;");
    match &first_expr(&m).kind {
        ExprKind::Assign { value, .. } => match &value.kind {
            ExprKind::Binary {
                op: BinaryOp::Add,
                right,
                ..
            } => {
                assert!(matches!(
                    right.kind,
                    ExprKind::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        },
        _ => panic!(),
    }
}

#[test]
fn exponent_right_associative() {
    let m = parse("x = 2 ** 3 ** 2;");
    match &first_expr(&m).kind {
        ExprKind::Assign { value, .. } => match &value.kind {
            ExprKind::Binary {
                op: BinaryOp::Exp,
                right,
                ..
            } => assert!(matches!(
                right.kind,
                ExprKind::Binary {
                    op: BinaryOp::Exp,
                    ..
                }
            )),
            _ => panic!(),
        },
        _ => panic!(),
    }
}

#[test]
fn member_and_call_chains() {
    let m = parse("a.b.c(1)(2)[k].d();");
    // Shape: Call(Member(Call(Member(Call(Call(Member(Member(a,b),c),1),2),[k]),d)))
    let e = first_expr(&m);
    assert!(matches!(e.kind, ExprKind::Call { .. }));
}

#[test]
fn dynamic_property_read_write() {
    let m = parse("o[k] = o2[p];");
    match &first_expr(&m).kind {
        ExprKind::Assign { target, value, .. } => {
            assert!(matches!(target, AssignTarget::Member(_)));
            assert!(matches!(
                value.kind,
                ExprKind::Member {
                    prop: MemberProp::Computed(_),
                    ..
                }
            ));
        }
        _ => panic!(),
    }
}

#[test]
fn new_expressions() {
    parse("new Foo;");
    parse("new Foo();");
    parse("new a.b.C(1, 2);");
    parse("new (getClass())(arg);");
    let m = parse("x = new new Meta()();");
    assert!(matches!(
        first_expr(&m).kind,
        ExprKind::Assign { .. }
    ));
}

#[test]
fn arrow_functions() {
    let m = parse("var f = x => x + 1;");
    match &m.body[0].kind {
        StmtKind::VarDecl(d) => match &d.decls[0].init.as_ref().unwrap().kind {
            ExprKind::Arrow(f) => {
                assert!(f.is_arrow);
                assert_eq!(f.params.len(), 1);
                assert!(matches!(f.body, FuncBody::Expr(_)));
            }
            other => panic!("expected arrow, got {other:?}"),
        },
        _ => panic!(),
    }
    parse("var g = (a, b) => { return a * b; };");
    parse("var h = () => ({ x: 1 });");
    parse("var i = ({a, b}, [c]) => a + b + c;");
    parse("var j = async x => x;");
    parse("var k = async (a, b) => a + b;");
}

#[test]
fn arrow_vs_parenthesized_expr() {
    // `(a, b)` alone is a sequence, not arrow params.
    let m = parse("x = (a, b);");
    match &first_expr(&m).kind {
        ExprKind::Assign { value, .. } => {
            assert!(matches!(value.kind, ExprKind::Paren(_)));
        }
        _ => panic!(),
    }
}

#[test]
fn object_literals() {
    let m = parse(
        "var o = { a: 1, 'b c': 2, 3: 'three', [k]: v, m() { return 1; }, get p() { return 2; }, set p(x) {}, short, ...rest };",
    );
    match &m.body[0].kind {
        StmtKind::VarDecl(d) => match &d.decls[0].init.as_ref().unwrap().kind {
            ExprKind::Object(props) => {
                assert_eq!(props.len(), 9);
                assert!(matches!(
                    props[3],
                    Property::KeyValue {
                        key: PropName::Computed(_),
                        ..
                    }
                ));
                assert!(matches!(
                    props[5],
                    Property::Method {
                        kind: MethodKind::Get,
                        ..
                    }
                ));
                assert!(matches!(props[8], Property::Spread(_)));
            }
            _ => panic!(),
        },
        _ => panic!(),
    }
}

#[test]
fn get_set_as_plain_property_names() {
    // `get` / `set` used as ordinary keys and methods.
    let m = parse("var o = { get: 1, set: 2 }; o.get; var p = { get() { return 3; } };");
    assert_eq!(m.body.len(), 3);
}

#[test]
fn array_literals_with_holes_and_spread() {
    let m = parse("var a = [1, , 2, ...rest];");
    match &m.body[0].kind {
        StmtKind::VarDecl(d) => match &d.decls[0].init.as_ref().unwrap().kind {
            ExprKind::Array(elems) => {
                assert_eq!(elems.len(), 4);
                assert!(elems[1].is_none());
                assert!(elems[3].as_ref().unwrap().spread);
            }
            _ => panic!(),
        },
        _ => panic!(),
    }
}

#[test]
fn template_literals() {
    let m = parse("var s = `a${x}b${y.z}c`;");
    match &m.body[0].kind {
        StmtKind::VarDecl(d) => match &d.decls[0].init.as_ref().unwrap().kind {
            ExprKind::Template { quasis, exprs } => {
                assert_eq!(quasis, &vec!["a".to_string(), "b".into(), "c".into()]);
                assert_eq!(exprs.len(), 2);
            }
            _ => panic!(),
        },
        _ => panic!(),
    }
}

#[test]
fn optional_chaining() {
    parse("a?.b;");
    parse("a?.[k];");
    parse("f?.(x);");
    parse("a?.b.c?.d;");
}

#[test]
fn logical_and_nullish() {
    parse("x = a && b || c;");
    parse("x = a ?? b;");
    parse("x ??= y; x ||= y; x &&= y;");
}

#[test]
fn destructuring_declarations() {
    let m = parse("var { a, b: c, d = 1, ...rest } = obj; var [x, , y = 2, ...zs] = arr;");
    assert_eq!(m.body.len(), 2);
    match &m.body[0].kind {
        StmtKind::VarDecl(d) => {
            assert!(matches!(d.decls[0].name.kind, PatternKind::Object { .. }));
        }
        _ => panic!(),
    }
}

#[test]
fn destructuring_assignment() {
    let m = parse("[a, b] = pair;");
    match &first_expr(&m).kind {
        ExprKind::Assign { target, .. } => {
            assert!(matches!(target, AssignTarget::Pattern(_)));
        }
        _ => panic!(),
    }
    parse("({ x, y } = point);");
}

#[test]
fn classes() {
    let m = parse(
        "class A extends B { constructor(x) { this.x = x; } m() { return this.x; } static s() {} get g() { return 1; } set g(v) {} f = 7; static sf = 8; }",
    );
    match &m.body[0].kind {
        StmtKind::ClassDecl(c) => {
            assert_eq!(c.name.as_deref(), Some("A"));
            assert!(c.super_class.is_some());
            assert_eq!(c.members.len(), 7);
            assert!(matches!(
                c.members[0].kind,
                ClassMemberKind::Constructor(_)
            ));
            assert!(c.members[2].is_static);
        }
        _ => panic!(),
    }
    parse("var K = class { m() {} };");
}

#[test]
fn async_and_generators() {
    parse("async function f() { await g(); }");
    parse("function* gen() { yield 1; yield* other(); yield; }");
    parse("var o = { async m() {}, *g() {} };");
    parse("class C { async m() {} *g() {} }");
}

#[test]
fn regex_literals() {
    let m = parse("var r = /a[/]b/gi; var div = x / y;");
    match &m.body[0].kind {
        StmtKind::VarDecl(d) => {
            assert!(matches!(
                d.decls[0].init.as_ref().unwrap().kind,
                ExprKind::Regex { .. }
            ));
        }
        _ => panic!(),
    }
}

#[test]
fn comma_sequences() {
    let m = parse("x = (a(), b(), c());");
    match &first_expr(&m).kind {
        ExprKind::Assign { value, .. } => match &value.unparen().kind {
            ExprKind::Seq(exprs) => assert_eq!(exprs.len(), 3),
            other => panic!("unexpected {other:?}"),
        },
        _ => panic!(),
    }
}

#[test]
fn keywords_as_property_names() {
    parse("o.delete(); o.new; o.typeof; var p = { in: 1, for: 2, class: 3 };");
}

#[test]
fn unary_operators() {
    parse("x = typeof a; y = void 0; delete o.p; z = -(-a); w = !~+x;");
}

#[test]
fn conditional_nesting() {
    parse("x = a ? b ? 1 : 2 : c ? 3 : 4;");
}

#[test]
fn iife_patterns() {
    parse("(function() { var x = 1; })();");
    parse("(function(global) { global.x = 1; })(this);");
    parse("(() => { f(); })();");
    parse("!function() {}();");
}

#[test]
fn directive_prologue() {
    parse("'use strict';\nvar x = 1;");
}

// ----- spans and node ids -----

#[test]
fn node_ids_are_unique() {
    let m = parse("function f(a) { return a + f(a - 1); }");
    use aji_ast::visit::{FunctionCollector, Visit};
    let mut c = FunctionCollector::default();
    c.visit_module(&m);
    assert_eq!(c.functions.len(), 1);
}

#[test]
fn spans_cover_tokens() {
    let src = "var abc = foo(1);";
    let m = parse(src);
    let s = &m.body[0];
    assert_eq!(s.span.lo, 0);
    assert_eq!(&src[s.span.lo as usize..s.span.hi as usize], src);
}

#[test]
fn function_span_points_at_definition() {
    let src = "var f = function g() { return 1; };";
    let m = parse(src);
    match &m.body[0].kind {
        StmtKind::VarDecl(d) => match &d.decls[0].init.as_ref().unwrap().kind {
            ExprKind::Function(f) => {
                assert_eq!(&src[f.span.lo as usize..f.span.lo as usize + 8], "function");
            }
            _ => panic!(),
        },
        _ => panic!(),
    }
}

// ----- the paper's motivating example (Figure 1) -----

#[test]
fn parses_motivating_example() {
    let app = r#"
const express = require('express');
const app = express();
app.get('/', function(req, res) {
  res.send('Hello world!');
  server.close();
});
var server = app.listen(8080);
"#;
    let express = r#"
var mixin = require('merge-descriptors');
var proto = require('./application');
exports = module.exports = createApplication;
function createApplication() {
  var app = function(req, res, next) {
    app.handle(req, res, next);
  };
  mixin(app, EventEmitter.prototype, false);
  mixin(app, proto, false);
  return app;
}
"#;
    let merge = r#"
module.exports = merge;
function merge(dest, src, redefine) {
  Object.getOwnPropertyNames(src).forEach(function forOwnPropertyName(name) {
    var descriptor = Object.getOwnPropertyDescriptor(src, name);
    Object.defineProperty(dest, name, descriptor);
  });
  return dest;
}
"#;
    let application = r#"
var methods = require('methods');
var app = exports = module.exports = {};
methods.forEach(function(method) {
  app[method] = function(path) {
    var route = this._router.route(path);
    route[method].apply(route, slice.call(arguments, 1));
    return this;
  };
});
app.listen = function listen() {
  var server = http.createServer(this);
  return server.listen.apply(server, arguments);
};
"#;
    for src in [app, express, merge, application] {
        roundtrip(src);
    }
}

// ----- printer fixpoint on assorted programs -----

#[test]
fn roundtrip_corpus_of_snippets() {
    let snippets = [
        "var x = 1 + 2 * (3 - 4) / 5;",
        "o[k] = f(a, ...rest);",
        "if (a) { b(); } else { c(); }",
        "for (var i = 0; i < n; i++) { total += data[i]; }",
        "function outer() { function inner() {} return inner; }",
        "var f = (a = 1, ...rest) => a + rest.length;",
        "class A { constructor() { this.x = 1; } m() { return this.x; } }",
        "try { risky(); } catch (e) { handle(e); } finally { done(); }",
        "switch (v) { case 1: a(); break; default: b(); }",
        "var t = `x=${x}, y=${o[`inner${k}`]}`;",
        "while (a ? b : c) { d(); }",
        "var { a, b: { c } } = obj;",
        "x = y = z = 0;",
        "a = b in c;",
        "label: while (1) { break label; }",
        "var n = new Foo(new Bar(), 2);",
        "x = a ?? (b || c);",
        "obj.method().prop[idx](arg)(arg2);",
        "f(function() { return 1; }, () => 2);",
        "x++; --y; z = -x;",
        "var big = { nested: { deep: [1, [2, [3]]] } };",
        "do { x--; } while (x > 0);",
        "delete obj[key];",
        "typeof x === 'function' && x();",
    ];
    for s in snippets {
        roundtrip(s);
    }
}

#[test]
fn parse_errors_have_positions() {
    let e = parse_err("var = 1;");
    assert!(e.offset() > 0);
    let e = parse_err("function () {}");
    assert!(e.message().contains("function name"));
}

#[test]
fn deeply_nested_expressions() {
    let mut src = String::from("x = ");
    for _ in 0..40 {
        src.push('(');
    }
    src.push('1');
    for _ in 0..40 {
        src.push(')');
    }
    src.push(';');
    parse(&src);
}

#[test]
fn pathological_nesting_is_an_error_not_a_crash() {
    let mut src = String::from("x = ");
    for _ in 0..5000 {
        src.push('(');
    }
    src.push('1');
    for _ in 0..5000 {
        src.push(')');
    }
    src.push(';');
    let e = parse_err(&src);
    assert!(e.message().contains("nesting too deep"));
}

/// `head` followed by `n` copies of `link`, as one expression statement.
fn chain(head: &str, link: &str, n: usize) -> String {
    let mut src = String::from(head);
    for _ in 0..n {
        src.push_str(link);
    }
    src.push_str(";\n");
    src
}

fn assert_chain_too_long(src: &str) {
    let e = parse_err(src);
    assert!(e.message().contains("chain too long"), "{e}");
}

#[test]
fn long_left_associative_chains_are_an_error_not_a_crash() {
    // Each of these builds a left spine the parser's recursion guard never
    // sees; the chain budget must stop them.
    for (head, link) in [
        ("1", "+1"),
        ("a", "||a"),
        ("a", " instanceof a"),
        ("o", ".a"),
        ("o", "[0]"),
        ("f", "()"),
        ("o", "?.a"),
        ("f", "``"),
    ] {
        assert_chain_too_long(&chain(head, link, 50_000));
    }
    assert_chain_too_long(&format!("{}X;", "new ".repeat(50_000)));
}

#[test]
fn chains_within_the_budget_parse() {
    // At the budget, well past the deepest chain in the corpus (10 links).
    parse(&chain("1", "+1", 200));
    parse(&chain("o", ".a", 200));
    assert_chain_too_long(&chain("1", "+1", 201));
    // A chain nested in an argument list starts from the links its
    // enclosing chain holds, and returns them when it closes.
    parse(&chain("f", "(g.a.b.c)", 196));
    assert_chain_too_long(&chain("f", "(g.a.b.c)", 198));
    // Consecutive statements each get the whole budget.
    parse(&(chain("1", "+1", 200) + &chain("o", ".a", 200)));
}

#[test]
fn deep_destructuring_patterns_are_an_error_not_a_crash() {
    let src = format!("var {}x{} = 1;", "[".repeat(5000), "]".repeat(5000));
    assert!(parse_err(&src).message().contains("nesting too deep"));
}
