//! Focused tests for the standard-library models: `Object` statics,
//! array and string methods, JSON, numbers, promises, errors, prototypes
//! and the Node core-module implementations.

use aji_ast::Project;
use aji_interp::{BudgetKind, Interp, InterpOptions, JsError, NoopTracer};

fn run(src: &str) -> String {
    let mut p = Project::new("t");
    p.add_file("index.js", src);
    let mut interp = Interp::new(&p).expect("parse");
    let exports = interp
        .run_module("index.js")
        .unwrap_or_else(|e| panic!("run failed: {e}\nsource:\n{src}"));
    let r = interp
        .get_property_public(&exports, "result")
        .expect("result");
    interp.to_string_public(&r)
}

// ----- Object statics -----

#[test]
fn object_entries_and_values() {
    assert_eq!(
        run("exports.result = Object.entries({ a: 1, b: 2 }).map(e => e[0] + e[1]).join('|');"),
        "a1|b2"
    );
}

#[test]
fn object_define_property_getter_setter() {
    assert_eq!(
        run("var o = { _x: 3 };\n\
             Object.defineProperty(o, 'x', {\n\
             get: function() { return this._x * 2; },\n\
             set: function(v) { this._x = v; }\n\
             });\n\
             o.x = 10;\n\
             exports.result = o.x;"),
        "20"
    );
}

#[test]
fn object_define_properties_bulk() {
    assert_eq!(
        run("var o = {};\n\
             Object.defineProperties(o, { a: { value: 1 }, b: { value: 2 } });\n\
             exports.result = o.a + o.b;"),
        "3"
    );
}

#[test]
fn object_get_own_property_names_vs_keys() {
    assert_eq!(
        run("var o = { vis: 1 };\n\
             Object.defineProperty(o, 'hidden', { value: 2, enumerable: false });\n\
             exports.result = Object.keys(o).length + ':' + Object.getOwnPropertyNames(o).length;"),
        "1:2"
    );
}

#[test]
fn object_create_with_descriptor_map() {
    assert_eq!(
        run(
            "var base = { greet: function() { return 'hi ' + this.name; } };\n\
             var o = Object.create(base, { name: { value: 'ada', enumerable: true } });\n\
             exports.result = o.greet();"
        ),
        "hi ada"
    );
}

#[test]
fn object_assign_returns_target_and_overwrites() {
    assert_eq!(
        run("var t = { a: 1 };\n\
             var r = Object.assign(t, { a: 2, b: 3 });\n\
             exports.result = (r === t) + ':' + t.a + t.b;"),
        "true:23"
    );
}

#[test]
fn get_set_prototype_of() {
    assert_eq!(
        run("var proto = { kind: 'p' };\n\
             var o = {};\n\
             Object.setPrototypeOf(o, proto);\n\
             exports.result = (Object.getPrototypeOf(o) === proto) + ':' + o.kind;"),
        "true:p"
    );
}

#[test]
fn has_own_property_and_is_prototype_of() {
    assert_eq!(
        run("var proto = { shared: 1 };\n\
             var o = Object.create(proto);\n\
             o.own = 2;\n\
             exports.result = o.hasOwnProperty('own') + ':' + o.hasOwnProperty('shared') + ':' + proto.isPrototypeOf(o);"),
        "true:false:true"
    );
}

// ----- arrays -----

#[test]
fn array_higher_order_chain() {
    assert_eq!(
        run("exports.result = [1,2,3,4,5].filter(x => x % 2).map(x => x * 10).reduce((a,b) => a + b, 0);"),
        "90"
    );
}

#[test]
fn array_find_and_find_index() {
    assert_eq!(run("exports.result = [5, 12, 8].find(x => x > 9);"), "12");
    assert_eq!(
        run("exports.result = [5, 12, 8].findIndex(x => x > 9);"),
        "1"
    );
    assert_eq!(run("exports.result = [5].find(x => x > 9);"), "undefined");
}

#[test]
fn array_callbacks_take_this_arg() {
    // Every callback-taking iteration method calls its callback with the
    // second argument as `this`.
    assert_eq!(
        run("var o = { n: 0, run: function() { this.n++; } };\n\
             [1].forEach(function() { this.run(); }, o);\n\
             [1].map(function() { this.run(); }, o);\n\
             [1].filter(function() { this.run(); }, o);\n\
             [1].some(function() { this.run(); }, o);\n\
             [1].every(function() { this.run(); return true; }, o);\n\
             [1].find(function() { this.run(); }, o);\n\
             [1].findIndex(function() { this.run(); }, o);\n\
             exports.result = o.n;"),
        "7"
    );
}

#[test]
fn array_callback_results_stop_the_walk() {
    assert_eq!(
        run("var seen = [];\n\
             var r = [1, 2, 3].some(function(x) { seen.push(x); return x == 2; });\n\
             var e = [1, 2, 3].every(function(x) { seen.push(x); return x < 2; });\n\
             exports.result = r + ':' + e + ':' + seen.join('');"),
        "true:false:1212"
    );
    assert_eq!(
        run("exports.result = [1, 2].map(function(x, i, a) { return x + i + a.length; }).join();"),
        "3,5"
    );
}

#[test]
fn array_sort_with_comparator() {
    assert_eq!(
        run("exports.result = [5, 1, 4, 2].sort(function(a, b) { return a - b; }).join('');"),
        "1245"
    );
    assert_eq!(
        run("exports.result = [5, 1, 4, 2].sort(function(a, b) { return b - a; }).join('');"),
        "5421"
    );
}

#[test]
fn array_splice_inserts() {
    assert_eq!(
        run("var a = [1, 4]; a.splice(1, 0, 2, 3); exports.result = a.join('');"),
        "1234"
    );
    assert_eq!(
        run("var a = [1, 2, 3]; var r = a.splice(0, 2); exports.result = r.join('') + ':' + a.join('');"),
        "12:3"
    );
}

#[test]
fn array_shift_unshift() {
    assert_eq!(
        run("var a = [2, 3]; a.unshift(1); var x = a.shift(); exports.result = x + ':' + a.join('');"),
        "1:23"
    );
}

#[test]
fn array_mutators_edit_the_shared_array() {
    assert_eq!(
        run(
            "var a = [3]; var b = a; b.push(4, 5); b.unshift(1, 2); a.pop(); b.shift();\n\
             a.splice(1, 1, 'x'); b.reverse(); a.fill(a.length);\n\
             exports.result = b.join('') + ':' + (a === b);"
        ),
        "333:true"
    );
}

#[test]
fn array_mutators_leave_array_likes_unchanged() {
    assert_eq!(
        run("var o = { length: 2, 0: 'a', 1: 'b' };\n\
             var n = Array.prototype.push.call(o, 'c');\n\
             var last = Array.prototype.pop.call(o);\n\
             var cut = Array.prototype.splice.call(o, 0, 1);\n\
             exports.result = [n, last, cut.join(''), o.length, o[0], o[1]].join(',');"),
        "3,b,a,2,a,b"
    );
}

#[test]
fn splice_survives_a_count_that_shrinks_the_array() {
    assert_eq!(
        run("var a = [1, 2, 3, 4];\n\
             var n = { valueOf: function () { a.length = 1; return 3; } };\n\
             var cut = a.splice(0, n);\n\
             exports.result = a.length <= 1 && cut.length <= 3;"),
        "true"
    );
}

#[test]
fn array_reverse_and_fill() {
    assert_eq!(run("exports.result = [1,2,3].reverse().join('');"), "321");
    assert_eq!(run("exports.result = [1,2,3].fill(0).join('');"), "000");
}

#[test]
fn array_like_arguments_slice() {
    assert_eq!(
        run(
            "function f() { return Array.prototype.slice.call(arguments, 1).join('-'); }\n\
             exports.result = f('skip', 'a', 'b');"
        ),
        "a-b"
    );
}

#[test]
fn array_reduce_right() {
    assert_eq!(
        run(
            "exports.result = ['a','b','c'].reduceRight(function(acc, x) { return acc + x; }, '');"
        ),
        "cba"
    );
}

#[test]
fn spread_in_calls_and_arrays() {
    assert_eq!(
        run("function add3(a, b, c) { return a + b + c; }\n\
             var args = [1, 2, 3];\n\
             exports.result = add3(...args) + ':' + [0, ...args, 4].join('');"),
        "6:01234"
    );
}

// ----- strings -----

#[test]
fn string_split_edge_cases() {
    assert_eq!(run("exports.result = ''.split(',').length;"), "1");
    assert_eq!(run("exports.result = 'abc'.split('').join('|');"), "a|b|c");
    assert_eq!(
        run("exports.result = 'a,b,c'.split(',', 2).join('|');"),
        "a|b"
    );
}

#[test]
fn string_search_methods() {
    assert_eq!(run("exports.result = 'hello'.lastIndexOf('l');"), "3");
    assert_eq!(run("exports.result = 'hello'.includes('ell');"), "true");
    assert_eq!(run("exports.result = 'hello'.substring(1, 3);"), "el");
    assert_eq!(run("exports.result = 'hello'.substr(1, 3);"), "ell");
}

#[test]
fn string_replace_with_function() {
    assert_eq!(
        run("exports.result = 'abc'.replace('b', function(m) { return m.toUpperCase(); });"),
        "aBc"
    );
}

#[test]
fn unicode_string_handling() {
    assert_eq!(run("exports.result = 'héllo'.length;"), "5");
    assert_eq!(run("exports.result = 'héllo'.charAt(1);"), "é");
    assert_eq!(run("exports.result = '😀x'.charAt(1);"), "x");
}

#[test]
fn string_repeat_is_not_clamped() {
    // The result length is bounded by `max_string_len`, not by a hidden
    // cap on the count.
    assert_eq!(run("exports.result = 'ab'.repeat(20000).length;"), "40000");
    assert_eq!(run("exports.result = 'ab'.repeat(0) + '|';"), "|");
}

#[test]
fn string_repeat_rejects_negative_and_infinite_counts() {
    // Node: `RangeError: Invalid count value`, which the program can
    // catch; fractions truncate and NaN counts as 0.
    assert_eq!(
        run("function t(n) { try { return 'x'.repeat(n) + '!'; } catch (e) { return e.name; } }\n\
             exports.result = [t(-1), t(Infinity), t(-Infinity), t(-0.5), t(NaN), t(2.9)].join('|');"),
        "RangeError|RangeError|RangeError|!|!|xx!"
    );
}

#[test]
fn string_padding_cuts_the_pad_to_length() {
    assert_eq!(
        run("exports.result = 'abc'.padStart(10, '123');"),
        "1231231abc"
    );
    assert_eq!(run("exports.result = 'abc'.padEnd(6, '😀é');"), "abc😀é😀");
    assert_eq!(run("exports.result = 'abc'.padStart(2, '-');"), "abc");
    assert_eq!(run("exports.result = 'x'.padEnd(3, '') + '|';"), "x|");
    assert_eq!(run("exports.result = 'é'.padStart(3) + '|';"), "  é|");
}

#[test]
fn string_padding_runs_in_linear_time() {
    // Padding used to re-count the whole output after every appended
    // pad, so a one-char pad to 200 000 chars counted 2 * 10^10 chars.
    const N: usize = 200_000;
    let start = std::time::Instant::now();
    for pad in [" ", "-"] {
        let padded = run(&format!("exports.result = 'x'.padStart({N}, '{pad}');"));
        assert_eq!(padded.len(), N);
        assert_eq!(padded, format!("{}x", pad.repeat(N - 1)));
        let padded = run(&format!("exports.result = 'x'.padEnd({N}, '{pad}');"));
        assert_eq!(padded.len(), N);
        assert_eq!(padded, format!("x{}", pad.repeat(N - 1)));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "four 200 000-char pads took {elapsed:?}"
    );
}

// ----- numbers -----

#[test]
fn number_formatting() {
    assert_eq!(run("exports.result = (3.14159).toFixed(3);"), "3.142");
    assert_eq!(run("exports.result = (10).toString(2);"), "1010");
    assert_eq!(run("exports.result = (-255).toString(16);"), "-ff");
    assert_eq!(run("exports.result = Number('12.5');"), "12.5");
    assert_eq!(
        run("exports.result = Number.isInteger(4) + ':' + Number.isInteger(4.5);"),
        "true:false"
    );
}

#[test]
fn parse_int_radices() {
    assert_eq!(run("exports.result = parseInt('0x1A');"), "26");
    assert_eq!(run("exports.result = parseInt('101', 2);"), "5");
    assert_eq!(run("exports.result = parseInt('  -42  ');"), "-42");
    assert_eq!(run("exports.result = isNaN(parseInt('zz'));"), "true");
}

/// Each probe is a JavaScript expression and what Node 20 prints for it.
/// The literal rows are source the parser must take, and the
/// conversions share `aji_ast::number` with the lexer and the analysis.
#[test]
fn numbers_match_node_on_probes() {
    let cases: &[(&str, &str)] = &[
        ("0x1fffffffffffffffff", "590295810358705700000"),
        ("0o777777777777777777777777", "4.722366482869645e+21"),
        ("010", "8"),
        ("String(1e21)", "1e+21"),
        ("String(-1e21)", "-1e+21"),
        ("String(2 ** 63)", "9223372036854776000"),
        ("String(1e20)", "100000000000000000000"),
        ("String(1e-7)", "1e-7"),
        ("String(123e-20)", "1.23e-18"),
        ("String(5e-324)", "5e-324"),
        (
            "JSON.stringify([1e21, 1e-7, 2 ** 63])",
            "[1e+21,1e-7,9223372036854776000]",
        ),
        ("Object.keys({ [1e21]: 1 })[0]", "1e+21"),
        ("Number('INF')", "NaN"),
        ("Number('infinity')", "NaN"),
        ("Number('0b101')", "5"),
        ("Number('0o17')", "15"),
        ("Number(' 0b1 ')", "1"),
        ("Number('0x1fffffffffffffffff')", "590295810358705700000"),
        ("parseFloat('1e+5')", "100000"),
        ("parseFloat('Infinity')", "Infinity"),
        ("parseFloat('1e')", "1"),
        ("parseFloat('-.5e-3x')", "-0.0005"),
        ("parseInt('0x1fffffffffffffffff')", "590295810358705700000"),
        // Past 20 digits the spec allows an approximation; this one is
        // the double nearest the exact value, as in Node.
        (
            "parseInt('123456789012345678901234')",
            "1.2345678901234569e+23",
        ),
        ("(0.5).toString(2)", "0.1"),
        ("(-255.5).toString(16)", "-ff.8"),
        ("(1e21).toString(16)", "3635c9adc5dea00000"),
        ("(1e21).toFixed(2)", "1e+21"),
        ("1e20 | 0", "1661992960"),
        ("-1e20 | 0", "-1661992960"),
        ("(2 ** 64) | 0", "0"),
        ("1e20 >>> 0", "1661992960"),
        ("~1e20", "-1661992961"),
        // Unchanged: separators are for source only, and -0 prints as 0.
        ("Number('1_000')", "NaN"),
        ("String(-0)", "0"),
    ];
    for &(expr, node) in cases {
        assert_eq!(eval_or_error_name(expr), node, "{expr}");
    }
}

#[test]
fn printed_number_literals_reparse_to_the_same_value() {
    for src in ["x = 1e20;", "x = 1e999;", "x = 1e21;", "x = 5e-324;"] {
        let value = |src: &str| {
            let m =
                aji_parser::parse_module(src, aji_ast::FileId(0), &mut aji_ast::NodeIdGen::new())
                    .unwrap_or_else(|e| panic!("{src}: {e}"));
            let printed = aji_ast::print::print_module(&m);
            let aji_ast::ast::StmtKind::Expr(e) = &m.body[0].kind else {
                panic!("{src}: not an expression statement");
            };
            let aji_ast::ast::ExprKind::Assign { value, .. } = &e.kind else {
                panic!("{src}: not an assignment");
            };
            let aji_ast::ast::ExprKind::Num(n) = value.kind else {
                panic!("{src}: not a number");
            };
            (n, printed)
        };
        let (n, printed) = value(src);
        let (again, _) = value(&printed);
        assert_eq!(n.to_bits(), again.to_bits(), "{src} printed as {printed}");
    }
}

/// Runs `src` under a fresh registry with a flight recorder, on a 2 MiB
/// thread, and returns `exports.result` with the budget kinds it tripped.
fn run_recorded_on_small_stack(src: &'static str) -> (String, Vec<String>) {
    on_small_stack(move || {
        let reg = std::sync::Arc::new(aji_obs::Registry::new());
        reg.install_recorder(aji_obs::TraceConfig::deterministic());
        let result = aji_obs::scoped(&reg, || run(src));
        let trips = reg
            .report()
            .trace
            .expect("recorder installed")
            .events
            .into_iter()
            .filter(|e| e.kind == aji_obs::TraceKind::BudgetTrip)
            .map(|e| e.name)
            .collect();
        (result, trips)
    })
}

#[test]
fn join_ends_on_cycles_and_deep_nesting_on_a_small_stack() {
    let (cycle, trips) =
        run_recorded_on_small_stack("var a = []; a.push(a); exports.result = String(a);");
    assert_eq!((cycle.as_str(), trips.len()), ("", 0));
    let (joined, trips) =
        run_recorded_on_small_stack("var b = [1]; b.push(b); exports.result = b.join('-');");
    assert_eq!((joined.as_str(), trips.len()), ("1-", 0));
    // Node throws RangeError here. Each nested `ToPrimitive` counts one
    // stack level, so the join ends at `max_stack`; `ToString` still
    // folds that error into "[object Object]" and the run goes on.
    let (_, trips) = run_recorded_on_small_stack(
        "var a = []; for (var k = 0; k < 200000; k++) a = [a]; \
         exports.result = String(a).length;",
    );
    assert_eq!(trips, ["stack"]);
}

// ----- JSON -----

#[test]
fn json_stringify_skips_functions_and_undefined() {
    assert_eq!(
        run("exports.result = JSON.stringify({ a: 1, f: function() {}, u: undefined });"),
        "{\"a\":1}"
    );
    assert_eq!(
        run("exports.result = JSON.stringify([1, undefined, function() {}]);"),
        "[1,null,null]"
    );
}

#[test]
fn json_parse_nested() {
    assert_eq!(
        run(
            "var o = JSON.parse('{\"a\": {\"b\": [1, {\"c\": true}]}}');\n\
             exports.result = o.a.b[1].c;"
        ),
        "true"
    );
}

#[test]
fn json_parse_escapes() {
    assert_eq!(
        run(r#"exports.result = JSON.parse('"a\\nb\\u0041"');"#),
        "a\nbA"
    );
}

#[test]
fn json_parse_invalid_throws() {
    assert_eq!(
        run("var r = 'no'; try { JSON.parse('{bad'); } catch (e) { r = e.name; } exports.result = r;"),
        "SyntaxError"
    );
}

/// Evaluates the JavaScript expression `expr` and returns its value as a
/// string, or the `name` of the error it throws.
fn eval_or_error_name(expr: &str) -> String {
    run(&format!(
        "exports.result = (function () {{ try {{ return '' + ({expr}); }} \
         catch (e) {{ return e.name; }} }})();"
    ))
}

/// Runs `f` on a thread with a default spawned thread's 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

#[test]
fn json_matches_node_on_probes() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let cases: Vec<(&str, String)> = vec![
        // Trailing garbage, leading zeros and unknown escapes are not JSON.
        (r#"JSON.parse('[1] x')"#, "SyntaxError".into()),
        (r#"JSON.parse('01')"#, "SyntaxError".into()),
        (r#"JSON.parse('"\\x"')"#, "SyntaxError".into()),
        // A surrogate-pair escape is one astral character.
        (r#"JSON.parse('"\\ud83d\\ude00"')"#, "\u{1F600}".into()),
        // Controls without a short escape print as `\u00XX`.
        (r#"JSON.stringify('\0\b\f')"#, r#""\u0000\b\f""#.into()),
        (
            "(function () { var o = {}; o.self = o; return JSON.stringify(o); })()",
            "TypeError".into(),
        ),
        (
            "(function () { var a = []; for (var k = 0; k < 30; k++) a = [a]; \
             return JSON.stringify(a); })()",
            nested(31),
        ),
        // Past `f64`'s range a number is Infinity, as in JavaScript.
        ("JSON.parse('1e999')", "Infinity".into()),
        ("JSON.parse('-1e999')", "-Infinity".into()),
        // A repeated key keeps its first position and its last value.
        (
            r#"(function () { var o = JSON.parse('{"a":1,"b":2,"a":3}');
             return Object.keys(o).join() + '=' + o.a; })()"#,
            "a,b=3".into(),
        ),
        (
            r#"JSON.stringify({ k: [1, 'two', null, true] })"#,
            r#"{"k":[1,"two",null,true]}"#.into(),
        ),
        ("JSON.stringify([NaN, -0, 1.5])", "[null,0,1.5]".into()),
    ];
    for (expr, node) in cases {
        assert_eq!(eval_or_error_name(expr), node, "{expr}");
    }
}

#[test]
fn json_nesting_past_128_levels_is_a_catchable_error_on_a_small_stack() {
    let (parsed, stringified) = on_small_stack(|| {
        let parse = |n: usize| {
            eval_or_error_name(&format!(
                "JSON.parse('['.repeat({n}) + ']'.repeat({n})).length"
            ))
        };
        let stringify = |n: usize| {
            eval_or_error_name(&format!(
                "(function () {{ var a = []; for (var k = 1; k < {n}; k++) a = [a]; \
                 return JSON.stringify(a).length; }})()"
            ))
        };
        let depths = [128, 129, 200_000];
        (depths.map(parse), depths.map(stringify))
    });
    assert_eq!(parsed, ["1", "SyntaxError", "SyntaxError"]);
    assert_eq!(stringified, ["256", "RangeError", "RangeError"]);
}

#[test]
fn json_stringify_charges_a_step_per_value() {
    // Eighteen levels of `{a: o, b: o}` share every child, so the source
    // runs in a few hundred steps while the output holds 2^19 values.
    let mut p = Project::new("t");
    p.add_file(
        "index.js",
        "var o = {};\n\
         for (var k = 0; k < 18; k++) { o = { a: o, b: o }; }\n\
         exports.result = JSON.stringify(o).length;",
    );
    let opts = InterpOptions {
        max_steps: 100_000,
        ..InterpOptions::default()
    };
    let mut interp = Interp::with_options(&p, opts, Box::new(NoopTracer)).expect("parse");
    assert!(matches!(
        interp.run_module("index.js"),
        Err(JsError::Budget(BudgetKind::Steps))
    ));
}

// ----- errors and prototypes -----

#[test]
fn error_subtype_instanceof_chain() {
    assert_eq!(
        run("var e = new TypeError('t');\n\
             exports.result = (e instanceof TypeError) + ':' + (e instanceof Error) + ':' + e.name + ':' + e.message;"),
        "true:true:TypeError:t"
    );
}

#[test]
fn error_to_string() {
    assert_eq!(
        run("exports.result = new RangeError('out of range').toString();"),
        "RangeError: out of range"
    );
}

#[test]
fn constructor_property() {
    assert_eq!(
        run("function F() {}\nvar o = new F();\nexports.result = o.constructor === F;"),
        "true"
    );
}

#[test]
fn prototype_shadowing() {
    assert_eq!(
        run("function F() {}\n\
             F.prototype.m = function() { return 'proto'; };\n\
             var o = new F();\n\
             o.m = function() { return 'own'; };\n\
             var p = new F();\n\
             exports.result = o.m() + ':' + p.m();"),
        "own:proto"
    );
}

// ----- promises and timers -----

#[test]
fn promise_chaining() {
    assert_eq!(
        run("var r;\n\
             Promise.resolve(1).then(v => v + 1).then(v => { r = v * 10; });\n\
             exports.result = r;"),
        "20"
    );
}

#[test]
fn promise_catch_path() {
    assert_eq!(
        run("var r = 'none';\n\
             Promise.reject('boom').catch(function(e) { r = 'caught:' + e; });\n\
             exports.result = r;"),
        "caught:boom"
    );
}

#[test]
fn promise_all_collects() {
    assert_eq!(
        run("var r;\n\
             Promise.all([Promise.resolve(1), Promise.resolve(2)]).then(function(vs) { r = vs.join('+'); });\n\
             exports.result = r;"),
        "1+2"
    );
}

#[test]
fn set_timeout_passes_args() {
    assert_eq!(
        run("var r; setTimeout(function(a, b) { r = a + b; }, 0, 'x', 'y'); exports.result = r;"),
        "xy"
    );
}

// ----- Node core modules -----

#[test]
fn events_once_and_remove() {
    assert_eq!(
        run("var EventEmitter = require('events');\n\
             var e = new EventEmitter();\n\
             var n = 0;\n\
             function inc() { n++; }\n\
             e.on('t', inc);\n\
             e.emit('t');\n\
             e.removeListener('t', inc);\n\
             e.emit('t');\n\
             exports.result = n;"),
        "1"
    );
}

#[test]
fn events_listener_count() {
    assert_eq!(
        run("var EventEmitter = require('events').EventEmitter;\n\
             var e = new EventEmitter();\n\
             e.on('x', function() {});\n\
             e.on('x', function() {});\n\
             exports.result = e.listenerCount('x');"),
        "2"
    );
}

#[test]
fn util_format_and_predicates() {
    assert_eq!(
        run("var util = require('util');\n\
             exports.result = util.isArray([]) + ':' + util.isFunction(util.format) + ':' + util.isString('x');"),
        "true:true:true"
    );
}

#[test]
fn path_parse_components() {
    assert_eq!(
        run("var path = require('path');\n\
             var p = path.parse('/a/b/file.txt');\n\
             exports.result = p.dir + '|' + p.base + '|' + p.ext + '|' + p.name;"),
        "/a/b|file.txt|.txt|file"
    );
}

#[test]
fn path_resolve_and_normalize() {
    assert_eq!(
        run("var path = require('path');\n\
             exports.result = path.resolve('/a', 'b', '../c');"),
        "/a/c"
    );
    assert_eq!(
        run("var path = require('path'); exports.result = path.normalize('a//b/./c/../d');"),
        "a/b/d"
    );
}

#[test]
fn querystring_roundtrip() {
    assert_eq!(
        run("var qs = require('querystring');\n\
             var o = qs.parse('a=1&b=two');\n\
             exports.result = qs.stringify(o);"),
        "a=1&b=two"
    );
}

#[test]
fn url_parse_components() {
    assert_eq!(
        run("var url = require('url');\n\
             var u = url.parse('https://example.com:8080/path/x?q=1#frag');\n\
             exports.result = u.hostname + '|' + u.pathname + '|' + u.search + '|' + u.hash;"),
        "example.com|/path/x|?q=1|#frag"
    );
}

#[test]
fn assert_deep_equal() {
    assert_eq!(
        run("var assert = require('assert');\n\
             assert.deepEqual({ a: [1, 2] }, { a: [1, 2] });\n\
             var r = 'no';\n\
             try { assert.deepEqual({ a: 1 }, { a: 2 }); } catch (e) { r = 'threw'; }\n\
             exports.result = r;"),
        "threw"
    );
}

#[test]
fn process_and_globals() {
    assert_eq!(run("exports.result = typeof process.env;"), "object");
    assert_eq!(run("exports.result = process.platform;"), "linux");
    assert_eq!(run("exports.result = global === globalThis;"), "true");
}

#[test]
fn date_is_deterministic_and_monotone() {
    assert_eq!(
        run("var a = Date.now(); var b = Date.now(); exports.result = b >= a;"),
        "true"
    );
    assert_eq!(
        run("var d = new Date(); exports.result = typeof d.getTime();"),
        "number"
    );
}

#[test]
fn math_random_in_range_and_varies() {
    let out = run("var seen = {};\n\
         var distinct = 0;\n\
         for (var i = 0; i < 20; i++) {\n\
         var r = Math.random();\n\
         if (r < 0 || r >= 1) { distinct = -999; break; }\n\
         var k = '' + r;\n\
         if (!seen[k]) { seen[k] = true; distinct++; }\n\
         }\n\
         exports.result = distinct;");
    assert_eq!(out, "20");
}

#[test]
fn function_to_string_is_opaque() {
    assert_eq!(
        run("function f() {} exports.result = (typeof f.toString()) + ':' + (f.toString().indexOf('native') >= 0);"),
        "string:true"
    );
}

#[test]
fn getter_on_literal_with_define_property_interplay() {
    assert_eq!(
        run("var src = { get v() { return 41; } };\n\
             var d = Object.getOwnPropertyDescriptor(src, 'v');\n\
             var dst = {};\n\
             Object.defineProperty(dst, 'v', d);\n\
             exports.result = dst.v + 1;"),
        "42"
    );
}

#[test]
fn mixin_copies_accessors() {
    // The merge-descriptors idiom preserves getters.
    assert_eq!(
        run("function merge(dest, src) {\n\
             Object.getOwnPropertyNames(src).forEach(function(name) {\n\
             var d = Object.getOwnPropertyDescriptor(src, name);\n\
             Object.defineProperty(dest, name, d);\n\
             });\n\
             return dest;\n\
             }\n\
             var api = merge({}, { get version() { return '1.0'; }, go: function() { return 'went'; } });\n\
             exports.result = api.version + ':' + api.go();"),
        "1.0:went"
    );
}
