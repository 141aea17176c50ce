//! End-to-end interpreter tests: language semantics, modules, builtins,
//! and the instrumentation events the analyses rely on.

use aji_ast::Project;
use aji_interp::{Interp, InterpOptions, NoopTracer, Value};

/// Runs `src` as index.js and returns `module.exports.result` as a string.
fn run(src: &str) -> String {
    let mut p = Project::new("t");
    p.add_file("index.js", src);
    let mut interp = Interp::new(&p).expect("parse");
    let exports = interp.run_module("index.js").unwrap_or_else(|e| {
        panic!(
            "run failed: {e}\nsource:\n{src}\nconsole:\n{:?}",
            interp.console
        )
    });
    let r = interp
        .get_property_public(&exports, "result")
        .expect("read result");
    interp.to_string_public(&r)
}

/// Runs a multi-file project and returns exports.result of `main`.
fn run_project(files: &[(&str, &str)], main: &str) -> String {
    let mut p = Project::new("t");
    for (path, src) in files {
        p.add_file(*path, *src);
    }
    let mut interp = Interp::new(&p).expect("parse");
    let exports = interp
        .run_module(main)
        .unwrap_or_else(|e| panic!("run failed: {e}"));
    let r = interp
        .get_property_public(&exports, "result")
        .expect("read result");
    interp.to_string_public(&r)
}

// ----- arithmetic, operators -----

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(run("exports.result = 1 + 2 * 3;"), "7");
    assert_eq!(run("exports.result = (1 + 2) * 3;"), "9");
    assert_eq!(run("exports.result = 10 % 3;"), "1");
    assert_eq!(run("exports.result = 2 ** 10;"), "1024");
    assert_eq!(run("exports.result = 7 / 2;"), "3.5");
}

#[test]
fn string_concatenation() {
    assert_eq!(run("exports.result = 'a' + 'b' + 1;"), "ab1");
    assert_eq!(run("exports.result = 1 + 2 + 'x';"), "3x");
    assert_eq!(
        run("exports.result = 'n=' + null + ',' + undefined;"),
        "n=null,undefined"
    );
}

#[test]
fn comparisons_and_equality() {
    assert_eq!(run("exports.result = 1 < 2;"), "true");
    assert_eq!(run("exports.result = 'a' < 'b';"), "true");
    assert_eq!(run("exports.result = '10' == 10;"), "true");
    assert_eq!(run("exports.result = '10' === 10;"), "false");
    assert_eq!(run("exports.result = null == undefined;"), "true");
    assert_eq!(run("exports.result = null === undefined;"), "false");
    assert_eq!(run("exports.result = NaN === NaN;"), "false");
}

#[test]
fn bitwise_and_shifts() {
    assert_eq!(run("exports.result = 5 & 3;"), "1");
    assert_eq!(run("exports.result = 5 | 3;"), "7");
    assert_eq!(run("exports.result = 5 ^ 3;"), "6");
    assert_eq!(run("exports.result = ~5;"), "-6");
    assert_eq!(run("exports.result = 1 << 4;"), "16");
    assert_eq!(run("exports.result = -8 >> 1;"), "-4");
    assert_eq!(run("exports.result = -8 >>> 28;"), "15");
}

#[test]
fn logical_operators_short_circuit() {
    assert_eq!(run("var n = 0; function f() { n++; return true; } var x = false && f(); exports.result = n;"), "0");
    assert_eq!(run("exports.result = null ?? 'fallback';"), "fallback");
    assert_eq!(run("exports.result = 0 ?? 'fallback';"), "0");
    assert_eq!(run("exports.result = 0 || 'fallback';"), "fallback");
}

#[test]
fn typeof_operator() {
    assert_eq!(run("exports.result = typeof 1;"), "number");
    assert_eq!(run("exports.result = typeof 'x';"), "string");
    assert_eq!(run("exports.result = typeof {};"), "object");
    assert_eq!(run("exports.result = typeof function(){};"), "function");
    assert_eq!(run("exports.result = typeof undefined;"), "undefined");
    assert_eq!(run("exports.result = typeof notDeclared;"), "undefined");
    assert_eq!(run("exports.result = typeof null;"), "object");
}

// ----- control flow -----

#[test]
fn loops_and_break_continue() {
    assert_eq!(
        run("var s = 0; for (var i = 1; i <= 10; i++) { if (i % 2) continue; s += i; } exports.result = s;"),
        "30"
    );
    assert_eq!(
        run("var i = 0; while (true) { i++; if (i >= 5) break; } exports.result = i;"),
        "5"
    );
    assert_eq!(
        run("var i = 0; do { i++; } while (i < 3); exports.result = i;"),
        "3"
    );
}

#[test]
fn labeled_loops() {
    assert_eq!(
        run(
            "var c = 0; outer: for (var i = 0; i < 3; i++) { for (var j = 0; j < 3; j++) { if (j == 1) continue outer; c++; } } exports.result = c;"
        ),
        "3"
    );
    assert_eq!(
        run(
            "var c = 0; outer: for (var i = 0; i < 3; i++) { for (var j = 0; j < 3; j++) { c++; if (c == 4) break outer; } } exports.result = c;"
        ),
        "4"
    );
}

#[test]
fn for_in_enumerates_keys() {
    assert_eq!(
        run("var o = { a: 1, b: 2, c: 3 }; var ks = []; for (var k in o) ks.push(k); exports.result = ks.join('');"),
        "abc"
    );
}

#[test]
fn for_of_iterates_arrays_and_strings() {
    assert_eq!(
        run("var s = 0; for (var x of [1, 2, 3]) s += x; exports.result = s;"),
        "6"
    );
    assert_eq!(
        run("var out = ''; for (const c of 'abc') out += c + '.'; exports.result = out;"),
        "a.b.c."
    );
}

#[test]
fn switch_with_fallthrough() {
    assert_eq!(
        run("var r = ''; switch (2) { case 1: r += 'a'; case 2: r += 'b'; case 3: r += 'c'; break; default: r += 'd'; } exports.result = r;"),
        "bc"
    );
    assert_eq!(
        run("var r = ''; switch (9) { case 1: r = 'a'; break; default: r = 'dflt'; } exports.result = r;"),
        "dflt"
    );
}

#[test]
fn try_catch_finally_flow() {
    assert_eq!(
        run("var r = ''; try { throw new Error('x'); } catch (e) { r += 'c' + e.message; } finally { r += 'f'; } exports.result = r;"),
        "cxf"
    );
    assert_eq!(
        run("function f() { try { return 'try'; } finally { } } exports.result = f();"),
        "try"
    );
    assert_eq!(
        run("var r = 'no'; try { null.x; } catch (e) { r = 'caught'; } exports.result = r;"),
        "caught"
    );
}

// ----- functions and closures -----

#[test]
fn closures_capture_environment() {
    assert_eq!(
        run("function counter() { var n = 0; return function() { return ++n; }; } var c = counter(); c(); c(); exports.result = c();"),
        "3"
    );
}

#[test]
fn hoisting_of_functions_and_vars() {
    assert_eq!(
        run("exports.result = f(); function f() { return 'hoisted'; }"),
        "hoisted"
    );
    assert_eq!(run("exports.result = typeof x; var x = 1;"), "undefined");
}

#[test]
fn arguments_object() {
    assert_eq!(
        run("function f() { return arguments.length + ':' + arguments[1]; } exports.result = f('a', 'b', 'c');"),
        "3:b"
    );
}

#[test]
fn default_and_rest_params() {
    assert_eq!(
        run("function f(a, b = 10) { return a + b; } exports.result = f(1);"),
        "11"
    );
    assert_eq!(
        run("function f(a, ...rest) { return rest.join('-'); } exports.result = f(1, 2, 3, 4);"),
        "2-3-4"
    );
}

#[test]
fn arrow_functions_inherit_this() {
    assert_eq!(
        run("var o = { x: 42, get: function() { var f = () => this.x; return f(); } }; exports.result = o.get();"),
        "42"
    );
}

#[test]
fn this_binding_in_method_calls() {
    assert_eq!(
        run("var o = { name: 'obj', who: function() { return this.name; } }; exports.result = o.who();"),
        "obj"
    );
}

#[test]
fn call_apply_bind() {
    assert_eq!(
        run("function who() { return this.name; } exports.result = who.call({ name: 'c' });"),
        "c"
    );
    assert_eq!(
        run("function add(a, b) { return a + b; } exports.result = add.apply(null, [3, 4]);"),
        "7"
    );
    assert_eq!(
        run("function who(greet) { return greet + ' ' + this.name; } var b = who.bind({ name: 'b' }, 'hi'); exports.result = b();"),
        "hi b"
    );
}

#[test]
fn named_function_expression_self_reference() {
    assert_eq!(
        run("var fac = function f(n) { return n <= 1 ? 1 : n * f(n - 1); }; exports.result = fac(5);"),
        "120"
    );
}

#[test]
fn iife() {
    assert_eq!(
        run("exports.result = (function() { return 'iife'; })();"),
        "iife"
    );
}

// ----- objects -----

#[test]
fn object_literals_and_member_access() {
    assert_eq!(
        run("var o = { a: { b: { c: 'deep' } } }; exports.result = o.a.b.c;"),
        "deep"
    );
    assert_eq!(
        run("var o = { 'key with space': 1 }; exports.result = o['key with space'];"),
        "1"
    );
    assert_eq!(
        run("var k = 'dyn'; var o = {}; o[k] = 'v'; exports.result = o.dyn;"),
        "v"
    );
    assert_eq!(
        run("var k = 'a'; var o = { [k + 'b']: 'computed' }; exports.result = o.ab;"),
        "computed"
    );
}

#[test]
fn shorthand_and_spread_properties() {
    assert_eq!(
        run("var x = 1, y = 2; var o = { x, y }; exports.result = o.x + o.y;"),
        "3"
    );
    assert_eq!(
        run("var base = { a: 1, b: 2 }; var o = { ...base, b: 3 }; exports.result = o.a + o.b;"),
        "4"
    );
}

#[test]
fn getters_and_setters() {
    assert_eq!(
        run("var o = { _v: 1, get v() { return this._v * 10; }, set v(x) { this._v = x; } }; o.v = 5; exports.result = o.v;"),
        "50"
    );
}

#[test]
fn delete_and_in_operators() {
    assert_eq!(
        run("var o = { a: 1 }; delete o.a; exports.result = 'a' in o;"),
        "false"
    );
    assert_eq!(run("var o = { a: 1 }; exports.result = 'a' in o;"), "true");
    assert_eq!(run("var o = {}; exports.result = 'toString' in o;"), "true");
}

#[test]
fn prototype_inheritance_via_functions() {
    assert_eq!(
        run("function Animal(name) { this.name = name; } Animal.prototype.speak = function() { return this.name + ' speaks'; }; var a = new Animal('rex'); exports.result = a.speak();"),
        "rex speaks"
    );
}

#[test]
fn new_returns_object_override() {
    assert_eq!(
        run(
            "function F() { return { custom: true }; } var o = new F(); exports.result = o.custom;"
        ),
        "true"
    );
    assert_eq!(
        run("function F() { this.x = 1; return 42; } var o = new F(); exports.result = o.x;"),
        "1"
    );
}

#[test]
fn instanceof_checks() {
    assert_eq!(
        run("function F() {} exports.result = new F() instanceof F;"),
        "true"
    );
    assert_eq!(
        run("function F() {} function G() {} exports.result = new F() instanceof G;"),
        "false"
    );
    assert_eq!(
        run("exports.result = new TypeError('x') instanceof Error;"),
        "true"
    );
}

// ----- destructuring -----

#[test]
fn destructuring_declarations_and_params() {
    assert_eq!(
        run("var { a, b: { c } } = { a: 1, b: { c: 2 } }; exports.result = a + c;"),
        "3"
    );
    assert_eq!(
        run("var [x, , z = 9] = [1, 2]; exports.result = x + z;"),
        "10"
    );
    assert_eq!(
        run("function f({ name, age = 30 }) { return name + age; } exports.result = f({ name: 'x' });"),
        "x30"
    );
    assert_eq!(
        run("var [a, ...rest] = [1, 2, 3, 4]; exports.result = rest.length;"),
        "3"
    );
    assert_eq!(
        run("var { a, ...others } = { a: 1, b: 2, c: 3 }; exports.result = Object.keys(others).join('');"),
        "bc"
    );
}

#[test]
fn destructuring_assignment_expressions() {
    assert_eq!(
        run("var a, b; [a, b] = [5, 6]; exports.result = a * b;"),
        "30"
    );
}

// ----- classes -----

#[test]
fn class_basics() {
    assert_eq!(
        run("class P { constructor(n) { this.n = n; } get() { return this.n; } } exports.result = new P(7).get();"),
        "7"
    );
}

#[test]
fn class_inheritance_and_super() {
    assert_eq!(
        run("class A { constructor(x) { this.x = x; } who() { return 'A' + this.x; } } class B extends A { constructor() { super(9); } who() { return 'B->' + super.who(); } } exports.result = new B().who();"),
        "B->A9"
    );
}

#[test]
fn class_default_derived_constructor() {
    assert_eq!(
        run("class A { constructor(x) { this.x = x; } } class B extends A {} exports.result = new B(4).x;"),
        "4"
    );
}

#[test]
fn class_static_members_and_fields() {
    assert_eq!(
        run("class C { static make() { return new C(); } tag = 'field'; } exports.result = C.make().tag;"),
        "field"
    );
    assert_eq!(
        run("class C { static VERSION = 3; } exports.result = C.VERSION;"),
        "3"
    );
}

#[test]
fn class_getters() {
    assert_eq!(
        run("class T { constructor() { this._x = 2; } get x() { return this._x * 50; } } exports.result = new T().x;"),
        "100"
    );
}

// ----- builtins -----

#[test]
fn array_methods() {
    assert_eq!(
        run("exports.result = [1, 2, 3].map(function(x) { return x * 2; }).join(',');"),
        "2,4,6"
    );
    assert_eq!(
        run("exports.result = [1, 2, 3, 4].filter(x => x % 2 === 0).length;"),
        "2"
    );
    assert_eq!(
        run("exports.result = [1, 2, 3].reduce((a, b) => a + b, 10);"),
        "16"
    );
    assert_eq!(run("exports.result = [3, 1, 2].sort().join('');"), "123");
    assert_eq!(run("exports.result = [1, 2, 3].indexOf(2);"), "1");
    assert_eq!(run("exports.result = [1, [2, 3]].flat().length;"), "3");
    assert_eq!(
        run("var a = [1, 2]; a.push(3, 4); exports.result = a.length;"),
        "4"
    );
    assert_eq!(
        run("exports.result = [1, 2, 3, 4, 5].slice(1, -1).join('');"),
        "234"
    );
    assert_eq!(
        run("var a = [1, 2, 3]; a.splice(1, 1); exports.result = a.join('');"),
        "13"
    );
    assert_eq!(
        run("exports.result = Array.isArray([]) + ':' + Array.isArray({});"),
        "true:false"
    );
    assert_eq!(run("exports.result = Array.from('ab').join('-');"), "a-b");
    assert_eq!(
        run("exports.result = [5, 6].concat([7], 8).join('');"),
        "5678"
    );
    assert_eq!(run("exports.result = [1,2,3].find(x => x > 1);"), "2");
    assert_eq!(
        run("exports.result = [1,2,3].some(x => x > 2) && [1,2,3].every(x => x > 0);"),
        "true"
    );
}

#[test]
fn string_methods() {
    assert_eq!(run("exports.result = 'hello'.toUpperCase();"), "HELLO");
    assert_eq!(run("exports.result = 'a,b,c'.split(',').length;"), "3");
    assert_eq!(run("exports.result = 'hello world'.indexOf('world');"), "6");
    assert_eq!(run("exports.result = 'abcdef'.slice(1, 3);"), "bc");
    assert_eq!(run("exports.result = '  pad  '.trim();"), "pad");
    assert_eq!(run("exports.result = 'aaa'.replace('a', 'b');"), "baa");
    assert_eq!(run("exports.result = 'aaa'.replaceAll('a', 'b');"), "bbb");
    assert_eq!(run("exports.result = 'ab'.repeat(3);"), "ababab");
    assert_eq!(run("exports.result = 'abc'.charAt(1);"), "b");
    assert_eq!(run("exports.result = 'abc'.charCodeAt(0);"), "97");
    assert_eq!(run("exports.result = String.fromCharCode(104, 105);"), "hi");
    assert_eq!(run("exports.result = 'x'.padStart(3, '0');"), "00x");
    assert_eq!(
        run("exports.result = 'hello'.startsWith('he') && 'hello'.endsWith('lo');"),
        "true"
    );
    assert_eq!(run("exports.result = 'abc'.length;"), "3");
    assert_eq!(run("exports.result = 'abc'[1];"), "b");
}

#[test]
fn object_statics() {
    assert_eq!(
        run("exports.result = Object.keys({ a: 1, b: 2 }).join('');"),
        "ab"
    );
    assert_eq!(
        run("exports.result = Object.values({ a: 1, b: 2 }).join('');"),
        "12"
    );
    assert_eq!(
        run("var t = {}; Object.assign(t, { x: 1 }, { y: 2 }); exports.result = t.x + t.y;"),
        "3"
    );
    assert_eq!(
        run("var proto = { greet: function() { return 'hi'; } }; var o = Object.create(proto); exports.result = o.greet();"),
        "hi"
    );
    assert_eq!(
        run("var o = {}; Object.defineProperty(o, 'x', { value: 5, enumerable: false }); exports.result = o.x + ':' + Object.keys(o).length;"),
        "5:0"
    );
    assert_eq!(
        run("var o = { m: 1, n: 2 }; exports.result = Object.getOwnPropertyNames(o).join('');"),
        "mn"
    );
    assert_eq!(
        run("var o = { v: 7 }; var d = Object.getOwnPropertyDescriptor(o, 'v'); exports.result = d.value;"),
        "7"
    );
}

#[test]
fn math_and_number() {
    assert_eq!(run("exports.result = Math.max(1, 5, 3);"), "5");
    assert_eq!(
        run("exports.result = Math.floor(2.9) + Math.ceil(2.1);"),
        "5"
    );
    assert_eq!(run("exports.result = Math.abs(-4);"), "4");
    assert_eq!(run("exports.result = parseInt('42abc');"), "42");
    assert_eq!(run("exports.result = parseInt('ff', 16);"), "255");
    assert_eq!(run("exports.result = parseFloat('3.5x');"), "3.5");
    assert_eq!(run("exports.result = isNaN('abc');"), "true");
    assert_eq!(run("exports.result = (255).toString(16);"), "ff");
    assert_eq!(run("exports.result = (1.23456).toFixed(2);"), "1.23");
    assert_eq!(run("var r1 = Math.random(); var r2 = Math.random(); exports.result = r1 !== r2 && r1 >= 0 && r1 < 1;"), "true");
}

#[test]
fn json_roundtrip() {
    assert_eq!(
        run("exports.result = JSON.stringify({ a: 1, b: [true, null, 'x'] });"),
        "{\"a\":1,\"b\":[true,null,\"x\"]}"
    );
    assert_eq!(
        run("var o = JSON.parse('{\"n\": 42, \"arr\": [1, 2]}'); exports.result = o.n + o.arr.length;"),
        "44"
    );
}

#[test]
fn console_capture() {
    let mut p = Project::new("t");
    p.add_file("index.js", "console.log('hello', 42);");
    let mut interp = Interp::new(&p).unwrap();
    interp.run_module("index.js").unwrap();
    assert_eq!(interp.console, vec!["hello 42"]);
}

#[test]
fn timers_run_immediately() {
    assert_eq!(
        run("var r = 'no'; setTimeout(function() { r = 'ran'; }, 100); exports.result = r;"),
        "ran"
    );
}

#[test]
fn promise_then_synchronous_model() {
    assert_eq!(
        run("var r; Promise.resolve(5).then(function(v) { r = v * 2; }); exports.result = r;"),
        "10"
    );
    assert_eq!(
        run("var r; new Promise(function(resolve) { resolve('ok'); }).then(function(v) { r = v; }); exports.result = r;"),
        "ok"
    );
}

#[test]
fn async_functions_run_synchronously() {
    assert_eq!(
        run("async function f() { return 21; } var v = f(); exports.result = v;"),
        "21"
    );
    assert_eq!(
        run("async function g() { return 2; } async function f() { var x = await g(); return x + 1; } exports.result = f();"),
        "3"
    );
}

// ----- eval and Function -----

#[test]
fn direct_eval_in_caller_scope() {
    assert_eq!(run("var x = 10; exports.result = eval('x + 5');"), "15");
    assert_eq!(
        run("var o = {}; eval(\"o.fromEval = 'yes'\"); exports.result = o.fromEval;"),
        "yes"
    );
}

#[test]
fn function_constructor() {
    assert_eq!(
        run("var f = new Function('a', 'b', 'return a * b;'); exports.result = f(6, 7);"),
        "42"
    );
}

// ----- modules -----

#[test]
fn require_relative_modules() {
    assert_eq!(
        run_project(
            &[
                (
                    "index.js",
                    "var lib = require('./lib/math'); exports.result = lib.add(2, 3);"
                ),
                (
                    "lib/math.js",
                    "exports.add = function(a, b) { return a + b; };"
                ),
            ],
            "index.js"
        ),
        "5"
    );
}

#[test]
fn require_node_modules_package() {
    assert_eq!(
        run_project(
            &[
                ("index.js", "var dep = require('leftpad'); exports.result = dep('x', 3);"),
                (
                    "node_modules/leftpad/index.js",
                    "module.exports = function(s, n) { while (s.length < n) s = '0' + s; return s; };"
                ),
            ],
            "index.js"
        ),
        "00x"
    );
}

#[test]
fn module_exports_rebinding() {
    assert_eq!(
        run_project(
            &[
                ("index.js", "var f = require('./f'); exports.result = f();"),
                ("f.js", "module.exports = function() { return 'rebound'; };"),
            ],
            "index.js"
        ),
        "rebound"
    );
}

#[test]
fn module_cache_shares_state() {
    assert_eq!(
        run_project(
            &[
                ("index.js", "var a = require('./state'); var b = require('./state'); a.n = 5; exports.result = b.n;"),
                ("state.js", "exports.n = 0;"),
            ],
            "index.js"
        ),
        "5"
    );
}

#[test]
fn cyclic_requires() {
    assert_eq!(
        run_project(
            &[
                ("index.js", "exports.result = require('./a').fromA;"),
                (
                    "a.js",
                    "exports.early = 'e'; var b = require('./b'); exports.fromA = 'a' + b.fromB;"
                ),
                (
                    "b.js",
                    "var a = require('./a'); exports.fromB = 'b' + a.early;"
                ),
            ],
            "index.js"
        ),
        "abe"
    );
}

#[test]
fn missing_module_is_error() {
    let mut p = Project::new("t");
    p.add_file("index.js", "require('./nope');");
    let mut interp = Interp::new(&p).unwrap();
    assert!(interp.run_module("index.js").is_err());
}

#[test]
fn builtin_events_module() {
    assert_eq!(
        run("var EventEmitter = require('events');\n\
             var e = new EventEmitter();\n\
             var got = [];\n\
             e.on('data', function(x) { got.push(x); });\n\
             e.on('data', function(x) { got.push(x * 2); });\n\
             e.emit('data', 21);\n\
             exports.result = got.join(',');"),
        "21,42"
    );
}

#[test]
fn builtin_util_inherits() {
    assert_eq!(
        run("var util = require('util');\n\
             function Base() {} Base.prototype.hi = function() { return 'base'; };\n\
             function Child() {} util.inherits(Child, Base);\n\
             exports.result = new Child().hi();"),
        "base"
    );
}

#[test]
fn builtin_path_module() {
    assert_eq!(
        run("var path = require('path'); exports.result = path.join('a', 'b', '..', 'c.js');"),
        "a/c.js"
    );
    assert_eq!(
        run("var path = require('path'); exports.result = path.basename('/x/y/file.txt');"),
        "file.txt"
    );
    assert_eq!(
        run("var path = require('path'); exports.result = path.extname('file.tar.gz');"),
        ".gz"
    );
    assert_eq!(
        run("var path = require('path'); exports.result = path.dirname('/a/b/c');"),
        "/a/b"
    );
}

#[test]
fn builtin_assert_module() {
    assert_eq!(
        run("var assert = require('assert'); assert.ok(true); assert.equal(1, '1'); assert.strictEqual(2, 2); exports.result = 'passed';"),
        "passed"
    );
    assert_eq!(
        run("var assert = require('assert'); var r = 'none'; try { assert.strictEqual(1, 2); } catch (e) { r = e.name; } exports.result = r;"),
        "AssertionError"
    );
}

#[test]
fn mocked_node_modules_invoke_callbacks() {
    assert_eq!(
        run("var fs = require('fs');\n\
             var called = false;\n\
             fs.readFile('whatever.txt', function(err, data) { called = true; });\n\
             exports.result = called;"),
        "true"
    );
    // Chained mock usage does not crash.
    assert_eq!(
        run("var http = require('http');\n\
             var hit = false;\n\
             var server = http.createServer(function(req, res) { hit = true; });\n\
             server.listen(8080);\n\
             exports.result = hit;"),
        "true"
    );
}

// ----- budgets -----

#[test]
fn infinite_loop_hits_budget() {
    let mut p = Project::new("t");
    p.add_file("index.js", "while (true) {}");
    let opts = InterpOptions {
        max_loop_iters: 1000,
        ..InterpOptions::default()
    };
    let mut interp = Interp::with_options(&p, opts, Box::new(NoopTracer)).unwrap();
    let err = interp.run_module("index.js").unwrap_err();
    assert!(matches!(err, aji_interp::JsError::Budget(_)));
}

#[test]
fn deep_recursion_hits_stack_budget() {
    let mut p = Project::new("t");
    p.add_file("index.js", "function f() { return f(); } f();");
    let mut interp = Interp::new(&p).unwrap();
    let err = interp.run_module("index.js").unwrap_err();
    assert!(matches!(err, aji_interp::JsError::Budget(_)));
}

#[test]
fn budget_not_catchable_by_try() {
    let mut p = Project::new("t");
    p.add_file(
        "index.js",
        "try { while (true) {} } catch (e) { exports.result = 'caught'; }",
    );
    let opts = InterpOptions {
        max_loop_iters: 100,
        ..InterpOptions::default()
    };
    let mut interp = Interp::with_options(&p, opts, Box::new(NoopTracer)).unwrap();
    assert!(interp.run_module("index.js").is_err());
}

#[test]
fn budget_exhaustion_counts_once_per_run() {
    // A `finally` block keeps executing — and stepping — after the
    // uncatchable step-budget error, so the counter used to re-increment
    // on every post-exhaustion step. One exhausted run must count exactly
    // once, however many budget errors surface while it unwinds.
    let mut p = Project::new("t");
    p.add_file(
        "index.js",
        "try { while (true) { var x = 1; } } finally { var a = 1; var b = 2; var c = 3; }",
    );
    let opts = InterpOptions {
        max_steps: 500,
        max_loop_iters: 1_000_000,
        ..InterpOptions::default()
    };
    let reg = std::sync::Arc::new(aji_obs::Registry::new());
    aji_obs::scoped(&reg, || {
        let mut interp = Interp::with_options(&p, opts.clone(), Box::new(NoopTracer)).unwrap();
        assert!(matches!(
            interp.run_module("index.js").unwrap_err(),
            aji_interp::JsError::Budget(_)
        ));
    });
    assert_eq!(
        reg.report().counter("interp.budget_exhaustions"),
        Some(1),
        "one exhausted run must count exactly once"
    );
}

#[test]
fn budget_exhaustion_counts_each_exhausted_run() {
    // Two independent runs that each exhaust count twice; a run that
    // stays within budget after an exhausted one does not inherit the
    // earlier trip (the flag re-arms at the public entry points).
    let mut p = Project::new("t");
    p.add_file("loop.js", "while (true) {}");
    p.add_file("ok.js", "exports.result = 1;");
    let opts = InterpOptions {
        max_loop_iters: 100,
        ..InterpOptions::default()
    };
    let reg = std::sync::Arc::new(aji_obs::Registry::new());
    aji_obs::scoped(&reg, || {
        let mut interp = Interp::with_options(&p, opts.clone(), Box::new(NoopTracer)).unwrap();
        assert!(interp.run_module("loop.js").is_err());
        assert!(interp.run_module("ok.js").is_ok());
        // Re-running the cached exhausted module returns the partial
        // exports without re-executing, so it cannot trip again.
        assert!(interp.run_module("ok.js").is_ok());
    });
    assert_eq!(reg.report().counter("interp.budget_exhaustions"), Some(1));

    let reg2 = std::sync::Arc::new(aji_obs::Registry::new());
    aji_obs::scoped(&reg2, || {
        let mut interp = Interp::with_options(&p, opts.clone(), Box::new(NoopTracer)).unwrap();
        assert!(interp.run_module("loop.js").is_err());
        let mut interp2 = Interp::with_options(&p, opts.clone(), Box::new(NoopTracer)).unwrap();
        assert!(interp2.run_module("loop.js").is_err());
    });
    assert_eq!(reg2.report().counter("interp.budget_exhaustions"), Some(2));
}

// ----- the paper's motivating example (Figure 1) -----

fn express_like_project() -> Project {
    let mut p = Project::new("hello-express");
    p.add_file(
        "index.js",
        r#"
const express = require('express');
const app = express();
app.get('/', function(req, res) {
  res.send('Hello world!');
});
var server = app.listen(8080);
exports.result = typeof app.get === 'function' && typeof app.listen === 'function';
"#,
    );
    p.add_file(
        "node_modules/express/index.js",
        r#"
var mixin = require('merge-descriptors');
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
        r#"
module.exports = merge;
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
        r#"
var methods = require('methods');
var http = require('http');
var Router = require('./router');
var app = exports = module.exports = {};
app.lazyrouter = function() {
  if (!this._router) {
    this._router = new Router();
  }
};
methods.forEach(function(method) {
  app[method] = function(path) {
    this.lazyrouter();
    var route = this._router.route(path);
    route[method].apply(route, Array.prototype.slice.call(arguments, 1));
    return this;
  };
});
app.handle = function(req, res, next) {
  this.lazyrouter();
  this._router.handle(req, res, next);
};
app.listen = function listen() {
  var server = http.createServer(this);
  return server.listen.apply(server, arguments);
};
"#,
    );
    p.add_file(
        "node_modules/express/router.js",
        r#"
var methods = require('methods');

module.exports = Router;

function Router() {
  this.stack = [];
}

Router.prototype.route = function(path) {
  var route = new Route(path);
  this.stack.push(route);
  return route;
};

Router.prototype.handle = function(req, res, next) {
  for (var i = 0; i < this.stack.length; i++) {
    this.stack[i].dispatch(req, res);
  }
};

function Route(path) {
  this.path = path;
  this.handlers = [];
}

methods.forEach(function(method) {
  Route.prototype[method] = function() {
    for (var i = 0; i < arguments.length; i++) {
      this.handlers.push({ method: method, fn: arguments[i] });
    }
    return this;
  };
});

Route.prototype.dispatch = function(req, res) {
  for (var i = 0; i < this.handlers.length; i++) {
    this.handlers[i].fn(req, res);
  }
};
"#,
    );
    p.add_file(
        "node_modules/methods/index.js",
        r#"
module.exports = ['get', 'post', 'put', 'delete', 'head', 'options'].map(function(m) {
  return m.toLowerCase();
});
"#,
    );
    p
}

#[test]
fn motivating_example_runs_concretely() {
    let mut interp = Interp::new(&express_like_project()).unwrap();
    let exports = interp.run_module("index.js").unwrap();
    let r = interp.get_property_public(&exports, "result").unwrap();
    assert!(matches!(r, Value::Bool(true)));
}

#[test]
fn motivating_example_app_get_dispatches() {
    // Calling app.get('/', handler) must reach the dynamically-installed
    // method from application.js.
    let mut p = express_like_project();
    p.add_file(
        "check.js",
        r#"
const express = require('express');
const app = express();
var hits = [];
app.get('/users', function(req, res) { hits.push('users:' + req.url); });
app.post('/items', function(req, res) { hits.push('items'); });
app.handle({ url: '/x' }, {});
exports.result = hits.join(',');
"#,
    );
    let mut interp = Interp::new(&p).unwrap();
    let exports = interp.run_module("check.js").unwrap();
    let r = interp.get_property_public(&exports, "result").unwrap();
    let s = interp.to_string_public(&r);
    assert_eq!(s, "users:/x,items");
}
