//! Fine-grained dataflow tests for the static analysis: each test checks
//! that one flow construct produces (or correctly does not produce) call
//! edges.

use aji_ast::Project;
use aji_pta::{analyze, Analysis, AnalysisOptions};

fn analyze_src(src: &str) -> Analysis {
    let mut p = Project::new("t");
    p.add_file("index.js", src);
    analyze(&p, None, &AnalysisOptions::baseline()).expect("analyze")
}

fn has_edge(a: &Analysis, site_line: u32, callee_line: u32) -> bool {
    a.call_graph
        .edges
        .iter()
        .any(|(cs, f)| cs.line == site_line && f.line == callee_line)
}

#[test]
fn conditional_expression_flows_both_arms() {
    let a = analyze_src(
        "function t() {}\n\
         function f() {}\n\
         var pick = cond ? t : f;\n\
         pick();",
    );
    assert!(has_edge(&a, 4, 1));
    assert!(has_edge(&a, 4, 2));
}

#[test]
fn logical_or_default_pattern() {
    let a = analyze_src(
        "function dflt() {}\n\
         var f = provided || dflt;\n\
         f();",
    );
    assert!(has_edge(&a, 3, 1));
}

#[test]
fn sequence_expression_takes_last() {
    let a = analyze_src(
        "function a() {}\n\
         function b() {}\n\
         var f = (a, b);\n\
         f();",
    );
    assert!(has_edge(&a, 4, 2));
    assert!(!has_edge(&a, 4, 1));
}

#[test]
fn nested_closure_capture() {
    let a = analyze_src(
        "function outer() {\n\
         var secret = function hidden() {};\n\
         return function middle() {\n\
         return function inner() {\n\
         secret();\n\
         };\n\
         };\n\
         }\n\
         outer()()();",
    );
    assert!(has_edge(&a, 5, 2), "edges: {:?}", a.call_graph.edges);
}

#[test]
fn arguments_object_flow() {
    let a = analyze_src(
        "function invokeFirst() {\n\
         var f = arguments[0];\n\
         f();\n\
         }\n\
         invokeFirst(function cb() {});",
    );
    // arguments[0] is a dynamic read — baseline misses it, which is the
    // correct baseline behavior...
    assert!(!has_edge(&a, 3, 5));
    // ...but the call to invokeFirst resolves.
    assert!(has_edge(&a, 5, 1));
}

#[test]
fn rest_parameter_elements_flow() {
    let a = analyze_src(
        "function runAll(...fns) {\n\
         fns.forEach(function(f) { f(); });\n\
         }\n\
         runAll(function one() {}, function two() {});",
    );
    assert!(has_edge(&a, 2, 4), "edges: {:?}", a.call_graph.edges);
}

#[test]
fn default_parameter_value_flows() {
    let a = analyze_src(
        "function fallback() {}\n\
         function run(f = fallback) {\n\
         f();\n\
         }\n\
         run();",
    );
    assert!(has_edge(&a, 3, 1));
}

#[test]
fn destructured_parameter_property() {
    let a = analyze_src(
        "function run({ handler }) {\n\
         handler();\n\
         }\n\
         run({ handler: function h() {} });",
    );
    assert!(has_edge(&a, 2, 4), "edges: {:?}", a.call_graph.edges);
}

#[test]
fn array_destructuring_elements() {
    let a = analyze_src(
        "var [f, g] = [function a() {}, function b() {}];\n\
         f();\n\
         g();",
    );
    // Index-insensitive: both sites see both functions (sound, slightly
    // imprecise).
    assert!(has_edge(&a, 2, 1));
    assert!(has_edge(&a, 3, 1));
}

#[test]
fn object_pattern_rest_aliases() {
    let a = analyze_src(
        "var { skip, ...rest } = { skip: 1, kept: function k() {} };\n\
         rest.kept();",
    );
    assert!(has_edge(&a, 2, 1), "edges: {:?}", a.call_graph.edges);
}

#[test]
fn getter_return_value_flows_to_reads() {
    let a = analyze_src(
        "var o = {\n\
         get f() { return function got() {}; }\n\
         };\n\
         var g = o.f;\n\
         g();",
    );
    assert!(has_edge(&a, 5, 2), "edges: {:?}", a.call_graph.edges);
}

#[test]
fn setter_receives_written_values() {
    let a = analyze_src(
        "var o = {\n\
         set f(v) { v(); }\n\
         };\n\
         o.f = function assigned() {};",
    );
    assert!(has_edge(&a, 2, 4), "edges: {:?}", a.call_graph.edges);
}

#[test]
fn this_flows_through_method_calls() {
    let a = analyze_src(
        "var o = {\n\
         target: function t() {},\n\
         run: function() {\n\
         this.target();\n\
         }\n\
         };\n\
         o.run();",
    );
    assert!(has_edge(&a, 4, 2), "edges: {:?}", a.call_graph.edges);
}

#[test]
fn new_binds_this_per_site() {
    let a = analyze_src(
        "function Widget(handler) {\n\
         this.handler = handler;\n\
         }\n\
         Widget.prototype.fire = function() {\n\
         this.handler();\n\
         };\n\
         var w = new Widget(function h() {});\n\
         w.fire();",
    );
    assert!(has_edge(&a, 5, 7), "edges: {:?}", a.call_graph.edges);
    assert!(has_edge(&a, 8, 4));
}

#[test]
fn iife_with_module_pattern() {
    let a = analyze_src(
        "var api = (function() {\n\
         function internal() {}\n\
         return { run: function() { internal(); } };\n\
         })();\n\
         api.run();",
    );
    assert!(has_edge(&a, 5, 3));
    assert!(has_edge(&a, 3, 2));
}

#[test]
fn class_static_method_call() {
    let a = analyze_src(
        "class Registry {\n\
         static create() { return new Registry(); }\n\
         ping() {}\n\
         }\n\
         var r = Registry.create();\n\
         r.ping();",
    );
    assert!(
        has_edge(&a, 5, 2),
        "static call, edges: {:?}",
        a.call_graph.edges
    );
    assert!(has_edge(&a, 6, 3), "instance via static factory");
}

#[test]
fn class_field_holding_function() {
    let a = analyze_src(
        "class Box {\n\
         cb = function fieldFn() {};\n\
         }\n\
         var b = new Box();\n\
         b.cb();",
    );
    assert!(has_edge(&a, 5, 2), "edges: {:?}", a.call_graph.edges);
}

#[test]
fn throw_does_not_flow_to_catch_baseline() {
    // No exception flow: documented baseline behavior.
    let a = analyze_src(
        "try {\n\
         throw function thrown() {};\n\
         } catch (e) {\n\
         e();\n\
         }",
    );
    assert!(!has_edge(&a, 4, 2));
}

#[test]
fn for_of_over_function_array() {
    let a = analyze_src(
        "var fns = [];\n\
         fns.push(function pushed() {});\n\
         for (const f of fns) {\n\
         f();\n\
         }",
    );
    assert!(has_edge(&a, 4, 2));
}

#[test]
fn module_this_is_exports() {
    let mut p = Project::new("t");
    p.add_file(
        "index.js",
        "this.run = function viaThis() {};\n\
         var me = require('./index');\n\
         me.run();",
    );
    let a = analyze(&p, None, &AnalysisOptions::baseline()).unwrap();
    assert!(has_edge(&a, 3, 1), "edges: {:?}", a.call_graph.edges);
}

#[test]
fn compound_logical_assignment_flows() {
    let a = analyze_src(
        "var handler;\n\
         handler ||= function installed() {};\n\
         handler();",
    );
    assert!(has_edge(&a, 3, 2), "edges: {:?}", a.call_graph.edges);
}

#[test]
fn promise_then_callback_is_invoked() {
    let a = analyze_src("somePromise.then(function onOk() {});");
    assert!(has_edge(&a, 1, 1));
}

#[test]
fn event_listener_registration_counts_as_call() {
    let a = analyze_src("emitter.on('evt', function listener() {});");
    assert!(has_edge(&a, 1, 1));
}

#[test]
fn unreached_callback_in_dependency_is_unresolved() {
    // "Some call sites are unresolved because they involve callbacks in
    // unused library code" (§5).
    let mut p = Project::new("t");
    p.add_file("index.js", "var d = require('dep');");
    p.add_file(
        "node_modules/dep/index.js",
        "exports.helper = function helper(cb) { cb(); };",
    );
    let a = analyze(&p, None, &AnalysisOptions::baseline()).unwrap();
    // cb() never gets a callee.
    let cb_site_resolved = a
        .call_graph
        .site_targets
        .iter()
        .any(|(loc, t)| loc.file.index() == 1 && !t.is_empty());
    assert!(!cb_site_resolved);
}
