//! End-to-end static-analysis tests: baseline behavior, hint rules, and
//! the paper's motivating example.

use aji_approx::{approximate_interpret, ApproxOptions, Hints};
use aji_ast::{Loc, Project};
use aji_pta::{analyze, analyze_parsed, Analysis, AnalysisOptions, CgMetrics, ConstraintGraph};
use std::collections::BTreeSet;

fn project(files: &[(&str, &str)]) -> Project {
    let mut p = Project::new("t");
    for (path, src) in files {
        p.add_file(*path, *src);
    }
    p
}

fn baseline(p: &Project) -> Analysis {
    analyze(p, None, &AnalysisOptions::baseline()).expect("analyze")
}

fn extended(p: &Project) -> (Analysis, Hints) {
    let hints = approximate_interpret(p, &ApproxOptions::default())
        .expect("approx")
        .hints;
    let a = analyze(p, Some(&hints), &AnalysisOptions::extended()).expect("analyze");
    (a, hints)
}

/// Whether the call graph has an edge whose call site is on `site_line`
/// and callee defined on `callee_line` (both in `file_idx`).
fn has_edge(a: &Analysis, site_line: u32, callee_line: u32) -> bool {
    a.call_graph
        .edges
        .iter()
        .any(|(cs, f)| cs.line == site_line && f.line == callee_line)
}

fn edge_lines(a: &Analysis) -> Vec<(u32, u32)> {
    a.call_graph
        .edges
        .iter()
        .map(|(cs, f)| (cs.line, f.line))
        .collect()
}

// ----- baseline behavior -----

#[test]
fn direct_call_edge() {
    let p = project(&[(
        "index.js",
        "function f() { return 1; }\nf();",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 2, 1), "edges: {:?}", edge_lines(&a));
    assert_eq!(CgMetrics::of(&a.call_graph).call_edges, 1);
}

#[test]
fn call_through_variable_and_closure() {
    let p = project(&[(
        "index.js",
        "var g = function inner() { return 2; };\n\
         function wrap() { return g; }\n\
         var h = wrap();\n\
         h();",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 3, 2), "wrap call, edges: {:?}", edge_lines(&a));
    assert!(has_edge(&a, 4, 1), "h() resolves to inner");
}

#[test]
fn method_call_on_object_literal() {
    let p = project(&[(
        "index.js",
        "var o = {\n\
         m: function() { return 1; }\n\
         };\n\
         o.m();",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 4, 2), "edges: {:?}", edge_lines(&a));
}

#[test]
fn callback_flow_through_parameters() {
    let p = project(&[(
        "index.js",
        "function caller(cb) { cb(); }\n\
         caller(function callee() {});",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 1, 2), "cb() targets the passed function");
    assert!(has_edge(&a, 2, 1), "caller itself");
}

#[test]
fn return_value_flow() {
    let p = project(&[(
        "index.js",
        "function make() {\n\
         return function made() { return 1; };\n\
         }\n\
         var f = make();\n\
         f();",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 5, 2), "edges: {:?}", edge_lines(&a));
}

#[test]
fn baseline_misses_dynamic_property_write() {
    let p = project(&[(
        "index.js",
        "var api = {};\n\
         var k = 'run';\n\
         api[k] = function target() {};\n\
         api.run();",
    )]);
    let a = baseline(&p);
    assert!(
        !has_edge(&a, 4, 3),
        "baseline must ignore dynamic writes, edges: {:?}",
        edge_lines(&a)
    );
}

#[test]
fn extended_recovers_dynamic_property_write() {
    let p = project(&[(
        "index.js",
        "var api = {};\n\
         var k = 'run';\n\
         api[k] = function target() {};\n\
         api.run();",
    )]);
    let (a, hints) = extended(&p);
    assert!(!hints.writes.is_empty(), "hints: {hints:?}");
    assert!(
        has_edge(&a, 4, 3),
        "[DPW] must recover the edge, edges: {:?}",
        edge_lines(&a)
    );
}

#[test]
fn extended_recovers_dynamic_property_read() {
    let p = project(&[(
        "index.js",
        "var table = {\n\
         handler: function h() { return 1; }\n\
         };\n\
         var k = 'handler';\n\
         var f = table[k];\n\
         f();",
    )]);
    let b = baseline(&p);
    assert!(!has_edge(&b, 6, 2));
    let (a, hints) = extended(&p);
    assert!(!hints.reads.is_empty());
    assert!(has_edge(&a, 6, 2), "edges: {:?}", edge_lines(&a));
}

#[test]
fn method_table_loop_pattern() {
    // The motivating pattern: methods installed in a loop.
    let p = project(&[(
        "index.js",
        "var app = {};\n\
         ['get', 'post', 'put'].forEach(function(method) {\n\
         app[method] = function handler(path) { return path; };\n\
         });\n\
         app.get('/');\n\
         app.post('/x');",
    )]);
    let b = baseline(&p);
    assert!(!has_edge(&b, 5, 3));
    let (a, _) = extended(&p);
    assert!(has_edge(&a, 5, 3), "app.get, edges: {:?}", edge_lines(&a));
    assert!(has_edge(&a, 6, 3), "app.post");
}

// ----- modules -----

#[test]
fn require_resolves_exports() {
    let p = project(&[
        (
            "index.js",
            "var lib = require('./lib');\nlib.go();",
        ),
        (
            "lib.js",
            "exports.go = function go() { return 1; };",
        ),
    ]);
    let a = baseline(&p);
    // Edge from index.js line 2 to lib.js line 1.
    let found = a.call_graph.edges.iter().any(|(cs, f)| {
        cs.file.index() == 0 && cs.line == 2 && f.file.index() == 1 && f.line == 1
    });
    assert!(found, "edges: {:?}", a.call_graph.edges);
}

#[test]
fn module_exports_rebinding_flows() {
    let p = project(&[
        ("index.js", "var f = require('./f');\nf();"),
        ("f.js", "module.exports = function main() { return 1; };"),
    ]);
    let a = baseline(&p);
    let found = a
        .call_graph
        .edges
        .iter()
        .any(|(cs, f)| cs.line == 2 && f.file.index() == 1);
    assert!(found, "edges: {:?}", a.call_graph.edges);
}

#[test]
fn node_modules_package_resolution() {
    let p = project(&[
        ("index.js", "var dep = require('dep');\ndep.fn();"),
        (
            "node_modules/dep/index.js",
            "exports.fn = function depFn() {};",
        ),
    ]);
    let a = baseline(&p);
    assert!(a
        .call_graph
        .edges
        .iter()
        .any(|(cs, f)| cs.line == 2 && f.file.index() == 1));
}

#[test]
fn dynamic_require_needs_module_hints() {
    let p = project(&[
        (
            "index.js",
            "var which = 'en';\n\
             var lang = require('./langs/' + which);\n\
             lang.hello();",
        ),
        (
            "langs/en.js",
            "exports.hello = function hello() { return 'hi'; };",
        ),
    ]);
    let b = baseline(&p);
    assert_eq!(CgMetrics::of(&b.call_graph).call_edges, 0);
    let (a, hints) = extended(&p);
    assert!(!hints.modules.is_empty());
    assert!(a
        .call_graph
        .edges
        .iter()
        .any(|(cs, f)| cs.line == 3 && f.file.index() == 1));
}

#[test]
fn late_module_hint_is_wired_into_a_fired_require_site() {
    let p = project(&[
        (
            "index.js",
            "var which = 'en';\n\
             var lang = require('./langs/' + which);\n\
             lang.hello();",
        ),
        (
            "langs/en.js",
            "exports.hello = function hello() { return 'hi'; };",
        ),
    ]);
    let hints = approximate_interpret(&p, &ApproxOptions::default())
        .expect("approx")
        .hints;
    assert!(!hints.modules.is_empty());
    let modules_only = AnalysisOptions {
        use_module_hints: true,
        ..AnalysisOptions::baseline()
    };
    let parsed = aji_parser::parse_project(&p).expect("parse");
    let mut graph = ConstraintGraph::build(&p, &parsed);
    // The baseline solve fires `require` at line 2 with no target.
    let b = graph.extend(None, &AnalysisOptions::baseline());
    assert!(b.call_graph.edges.is_empty());
    // The hint arrives afterwards and must still reach that site.
    let late = graph.extend(Some(&hints), &modules_only);
    assert!(late
        .call_graph
        .edges
        .iter()
        .any(|(cs, f)| cs.line == 3 && f.file.index() == 1));
    let scratch = analyze_parsed(&p, &parsed, Some(&hints), &modules_only);
    assert_eq!(late.call_graph, scratch.call_graph);
    assert_eq!(late.solver_stats.propagations, scratch.solver_stats.propagations);
}

// ----- prototypes, new, classes -----

#[test]
fn prototype_method_resolution() {
    let p = project(&[(
        "index.js",
        "function Animal() {}\n\
         Animal.prototype.speak = function speak() { return 1; };\n\
         var a = new Animal();\n\
         a.speak();",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 3, 1), "constructor call");
    assert!(has_edge(&a, 4, 2), "prototype method, edges: {:?}", edge_lines(&a));
}

#[test]
fn class_method_resolution() {
    let p = project(&[(
        "index.js",
        "class C {\n\
         m() { return 1; }\n\
         }\n\
         var c = new C();\n\
         c.m();",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 5, 2), "edges: {:?}", edge_lines(&a));
}

#[test]
fn class_inheritance_method_lookup() {
    let p = project(&[(
        "index.js",
        "class A {\n\
         base() { return 1; }\n\
         }\n\
         class B extends A {}\n\
         var b = new B();\n\
         b.base();",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 6, 2), "inherited method, edges: {:?}", edge_lines(&a));
}

#[test]
fn util_inherits_pattern_with_hints() {
    // The Node idiom: util.inherits uses Object.create, observable by the
    // pre-analysis.
    let p = project(&[(
        "index.js",
        "function Base() {}\n\
         Base.prototype.hi = function hi() { return 1; };\n\
         function Child() {}\n\
         Child.prototype = Object.create(Base.prototype);\n\
         var c = new Child();\n\
         c.hi();",
    )]);
    let a = baseline(&p);
    // Even the baseline handles this (Object.create is modeled).
    assert!(has_edge(&a, 6, 2), "edges: {:?}", edge_lines(&a));
}

// ----- call/apply/bind -----

#[test]
fn dot_call_and_apply() {
    let p = project(&[(
        "index.js",
        "function f(x) { return x; }\n\
         f.call(null, 1);\n\
         f.apply(null, [2]);",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 2, 1), "call, edges: {:?}", edge_lines(&a));
    assert!(has_edge(&a, 3, 1), "apply");
}

#[test]
fn bound_functions_keep_identity() {
    let p = project(&[(
        "index.js",
        "function f() { return this; }\n\
         var b = f.bind({});\n\
         b();",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 3, 1), "edges: {:?}", edge_lines(&a));
}

// ----- array/iteration models -----

#[test]
fn foreach_callback_edges() {
    let p = project(&[(
        "index.js",
        "[1, 2].forEach(function cb(x) { use(x); });",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 1, 1), "forEach invokes its callback");
}

#[test]
fn map_result_elements() {
    let p = project(&[(
        "index.js",
        "var fs = [function a() {}].map(function(f) { return f; });\n\
         var g = fs.pop();\n\
         g();",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 3, 1), "edges: {:?}", edge_lines(&a));
}

#[test]
fn array_elements_through_for_of() {
    let p = project(&[(
        "index.js",
        "var fns = [function one() {}, function two() {}];\n\
         for (var f of fns) {\n\
         f();\n\
         }",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 3, 1));
}

#[test]
fn push_then_iterate() {
    let p = project(&[(
        "index.js",
        "var handlers = [];\n\
         handlers.push(function h() {});\n\
         handlers.forEach(function(f) { f(); });",
    )]);
    let a = baseline(&p);
    assert!(has_edge(&a, 3, 2), "edges: {:?}", edge_lines(&a));
}

// ----- metrics -----

#[test]
fn metrics_shape() {
    let p = project(&[(
        "index.js",
        "function a() {}\nfunction b() {}\na();\nunknownFn();",
    )]);
    let m = CgMetrics::of(&baseline(&p).call_graph);
    assert_eq!(m.total_functions, 2);
    assert_eq!(m.call_edges, 1);
    assert_eq!(m.total_sites, 2);
    assert_eq!(m.resolved_sites, 1);
    assert!((m.resolved_pct() - 50.0).abs() < 1e-9);
}

#[test]
fn reachability_from_main_package_only() {
    let p = project(&[
        ("index.js", "var d = require('dep');\nd.used();"),
        (
            "node_modules/dep/index.js",
            "exports.used = function used() {};\n\
             exports.unused = function unused() { helper(); };\n\
             function helper() {}",
        ),
    ]);
    let a = baseline(&p);
    let m = CgMetrics::of(&a.call_graph);
    // used() is reachable; unused/helper are not (helper is only called
    // from unused, which nobody calls).
    assert_eq!(m.reachable_functions, 1, "cg: {:?}", a.call_graph.reachable_functions);
    assert_eq!(m.total_functions, 3);
}

// ----- the motivating example (Figure 1) -----

fn express_like_project() -> Project {
    let mut p = Project::new("hello-express");
    p.add_file(
        "index.js",
        r#"const express = require('express');
const app = express();
app.get('/', function handler(req, res) {
  res.send('Hello world!');
});
var server = app.listen(8080);
"#,
    );
    p.add_file(
        "node_modules/express/index.js",
        r#"var mixin = require('merge-descriptors');
var EventEmitter = require('events');
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
"#,
    );
    p.add_file(
        "node_modules/merge-descriptors/index.js",
        r#"module.exports = merge;
function merge(dest, src, redefine) {
  Object.getOwnPropertyNames(src).forEach(function forOwnPropertyName(name) {
    var descriptor = Object.getOwnPropertyDescriptor(src, name);
    Object.defineProperty(dest, name, descriptor);
  });
  return dest;
}
"#,
    );
    p.add_file(
        "node_modules/express/application.js",
        r#"var methods = require('methods');
var http = require('http');
var app = exports = module.exports = {};
methods.forEach(function(method) {
  app[method] = function(path) {
    return this;
  };
});
app.handle = function(req, res, next) {};
app.listen = function listen() {
  var server = http.createServer(this);
  return server;
};
"#,
    );
    p.add_file(
        "node_modules/methods/index.js",
        "module.exports = ['get', 'post', 'put'];\n",
    );
    p
}

#[test]
fn motivating_example_baseline_misses_api_calls() {
    let p = express_like_project();
    let a = baseline(&p);
    // app.get (index.js line 3) must NOT resolve to the dynamic method
    // (application.js line 5).
    let app_get_edge = a.call_graph.edges.iter().any(|(cs, f)| {
        cs.file.index() == 0 && cs.line == 3 && f.file.index() == 3 && f.line == 5
    });
    assert!(!app_get_edge);
    // app.listen resolves even in the baseline? No: listen is installed
    // via Object.defineProperty inside merge, which the baseline ignores.
    let app_listen_edge = a.call_graph.edges.iter().any(|(cs, f)| {
        cs.file.index() == 0 && cs.line == 6 && f.file.index() == 3 && f.line == 10
    });
    assert!(!app_listen_edge);
}

#[test]
fn motivating_example_extended_finds_api_calls() {
    let p = express_like_project();
    let (a, hints) = extended(&p);
    assert!(!hints.writes.is_empty(), "expected write hints");
    // The famous edges: app.get → the dynamically installed method, and
    // app.listen → the listen function copied by the mixin.
    let app_get_edge = a.call_graph.edges.iter().any(|(cs, f)| {
        cs.file.index() == 0 && cs.line == 3 && f.file.index() == 3 && f.line == 5
    });
    assert!(
        app_get_edge,
        "app.get edge missing; hints: {} writes, edges: {:?}",
        hints.writes.len(),
        a.call_graph.edges
    );
    let app_listen_edge = a.call_graph.edges.iter().any(|(cs, f)| {
        cs.file.index() == 0 && cs.line == 6 && f.file.index() == 3 && f.line == 10
    });
    assert!(app_listen_edge, "app.listen edge missing");
}

#[test]
fn motivating_example_headline_metrics_improve() {
    let p = express_like_project();
    let b = CgMetrics::of(&baseline(&p).call_graph);
    let (x, _) = extended(&p);
    let e = CgMetrics::of(&x.call_graph);
    assert!(e.call_edges > b.call_edges);
    assert!(e.reachable_functions >= b.reachable_functions);
    assert!(e.resolved_pct() >= b.resolved_pct());
}

// ----- recall / precision vs dynamic call graphs -----

#[test]
fn recall_improves_with_hints() {
    use aji_interp::{DynCallGraph, Interp, InterpOptions};
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut p = project(&[(
        "index.js",
        "var api = {};\n\
         ['start', 'stop'].forEach(function(m) {\n\
         api[m] = function action() { return m; };\n\
         });\n\
         api.start();\n\
         api.stop();",
    )]);
    p.test_driver = Some("index.js".to_string());

    // Dynamic call graph from concrete execution.
    let dyncg = Rc::new(RefCell::new(DynCallGraph::new()));
    let mut interp =
        Interp::with_options(&p, InterpOptions::default(), Box::new(dyncg.clone())).unwrap();
    interp.run_module("index.js").unwrap();
    let dyn_edges: BTreeSet<(Loc, Loc)> = dyncg
        .borrow()
        .edges
        .iter()
        .map(|e| (e.call_site, e.callee))
        .collect();
    assert!(!dyn_edges.is_empty());

    let b = baseline(&p);
    let (e, _) = extended(&p);
    let acc_b = aji_pta::Accuracy::compare(&b.call_graph, &dyn_edges);
    let acc_e = aji_pta::Accuracy::compare(&e.call_graph, &dyn_edges);
    assert!(
        acc_e.recall_pct() > acc_b.recall_pct(),
        "baseline {}%, extended {}%",
        acc_b.recall_pct(),
        acc_e.recall_pct()
    );
    assert!(acc_e.recall_pct() > 99.0, "extended should be sound here");
}
