//! Property-based interpreter tests (ported from proptest to the in-tree
//! `aji-support` check harness): arithmetic agrees with a Rust reference
//! evaluator, strings and arrays behave like JavaScript's, and JSON
//! round-trips.

use aji_ast::Project;
use aji_interp::heap::{OrderedMap, Prop, PropValue};
use aji_interp::{Interp, Value};
use aji_support::check::{property, TestCase};
use aji_support::{prop_assert, prop_assert_eq};
use std::collections::BTreeSet;
use std::rc::Rc;

/// An arithmetic expression with both its JS source and its expected
/// value, generated together so the test needs no separate JS oracle.
#[derive(Debug, Clone)]
struct ArithCase {
    src: String,
    expected: i128,
}

fn arith(tc: &mut TestCase, depth: u32) -> ArithCase {
    if depth == 0 || tc.ratio(1, 3) {
        let n = tc.int_in(-1000i128..1000);
        return ArithCase {
            src: if n < 0 {
                format!("({n})")
            } else {
                n.to_string()
            },
            expected: n,
        };
    }
    let a = arith(tc, depth - 1);
    let b = arith(tc, depth - 1);
    match tc.int_in(0u8..3) {
        0 => ArithCase {
            src: format!("({} + {})", a.src, b.src),
            expected: a.expected + b.expected,
        },
        1 => ArithCase {
            src: format!("({} - {})", a.src, b.src),
            expected: a.expected - b.expected,
        },
        _ => ArithCase {
            src: format!("({} * {})", a.src, b.src),
            expected: a.expected * b.expected,
        },
    }
}

fn run_expr(src: &str) -> Value {
    let mut p = Project::new("prop");
    p.add_file("index.js", format!("exports.result = {src};"));
    let mut interp = Interp::new(&p).expect("parse");
    let exports = interp.run_module("index.js").expect("run");
    interp
        .get_property_public(&exports, "result")
        .expect("result")
}

#[test]
fn arithmetic_matches_reference() {
    property("arithmetic_matches_reference")
        .cases(192)
        .run(|tc| {
            let case = arith(tc, 5);
            // Keep magnitudes within the exact f64 integer range, where the
            // i128 reference and JS's f64 arithmetic must agree exactly
            // (i128 math never overflows for these sizes: 5 levels of ±1000
            // leaves ample headroom).
            if case.expected.unsigned_abs() >= 1u128 << 52 {
                return Ok(());
            }
            let v = run_expr(&case.src);
            match v {
                Value::Num(n) => prop_assert_eq!(n, case.expected as f64, "src: {}", case.src),
                other => prop_assert!(false, "non-number {other:?} for {}", case.src),
            }
            Ok(())
        });
}

/// The case proptest once recorded in `proptest_interp.proptest-regressions`:
/// a product chain whose i128 value (~-9.23e18) overflowed the original
/// i64 reference evaluator, recording the wrapped value `i64::MIN`. Kept
/// as an explicit regression test: the i128 reference must get the exact
/// value, the magnitude filter must exclude it from the exact-equality
/// property, and the interpreter must still evaluate it to the correctly
/// rounded f64 product without panicking.
#[test]
fn regression_arith_overflow_case() {
    let src = "((((-39) * (-477)) * (-993)) * (((502 * (-871)) * (-942)) * (800 + 413)))";
    let left: i128 = ((-39) * (-477)) * (-993);
    let right: i128 = ((502 * (-871)) * (-942)) * (800 + 413);
    let expected: i128 = left * right;
    assert_eq!(left, -18_472_779);
    assert_eq!(right, 499_612_822_332);
    // Exceeds the filter bound (and would have wrapped i64 arithmetic).
    assert!(expected.unsigned_abs() >= 1u128 << 52);
    assert!(expected < i64::MIN as i128 || expected.unsigned_abs() > i64::MAX as u128);
    // Every intermediate is exactly representable in f64 (< 2^53), so the
    // interpreter's result is the once-rounded product — which equals the
    // i128 value rounded to the nearest f64.
    match run_expr(src) {
        Value::Num(n) => {
            assert_eq!(n, left as f64 * right as f64);
            assert_eq!(n, expected as f64);
        }
        other => panic!("non-number {other:?}"),
    }
}

#[test]
fn string_concat_associates() {
    const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
    property("string_concat_associates").cases(192).run(|tc| {
        let a = tc.string_of(LOWER, 0..7);
        let b = tc.string_of(LOWER, 0..7);
        let c = tc.string_of(LOWER, 0..7);
        let v = run_expr(&format!("('{a}' + '{b}') + '{c}'"));
        let w = run_expr(&format!("'{a}' + ('{b}' + '{c}')"));
        prop_assert!(v.strict_eq(&w));
        match v {
            Value::Str(s) => prop_assert_eq!(&*s, format!("{a}{b}{c}")),
            _ => prop_assert!(false),
        }
        Ok(())
    });
}

#[test]
fn comparison_trichotomy() {
    property("comparison_trichotomy").cases(192).run(|tc| {
        let a = tc.int_in(-100i64..100);
        let b = tc.int_in(-100i64..100);
        let lt = run_expr(&format!("{a} < {b}"));
        let eq = run_expr(&format!("{a} === {b}"));
        let gt = run_expr(&format!("{a} > {b}"));
        let truthy = [&lt, &eq, &gt]
            .iter()
            .filter(|v| matches!(v, Value::Bool(true)))
            .count();
        prop_assert_eq!(truthy, 1, "a = {}, b = {}", a, b);
        Ok(())
    });
}

#[test]
fn json_roundtrip_strings() {
    const CHARSET: &str =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-.\n\t\"\\";
    property("json_roundtrip_strings").cases(192).run(|tc| {
        let s = tc.string_of(CHARSET, 0..25);
        let mut p = Project::new("prop");
        p.add_file(
            "index.js",
            "exports.check = function(s) { return JSON.parse(JSON.stringify(s)) === s; };",
        );
        let mut interp = Interp::new(&p).unwrap();
        let exports = interp.run_module("index.js").unwrap();
        let f = interp.get_property_public(&exports, "check").unwrap();
        let r = interp
            .call_function(f, Value::Undefined, &[Value::str(&s)])
            .unwrap();
        prop_assert!(
            matches!(r, Value::Bool(true)),
            "string {s:?} did not round-trip"
        );
        Ok(())
    });
}

#[test]
fn array_push_then_join() {
    property("array_push_then_join").cases(192).run(|tc| {
        let xs = tc.vec_of(0..8, |t| t.int_in(0u32..100));
        let pushes: String = xs
            .iter()
            .map(|x| format!("a.push({x});"))
            .collect::<Vec<_>>()
            .join(" ");
        let v = run_expr(&format!(
            "(function() {{ var a = []; {pushes} return a.join(','); }})()"
        ));
        let expected = xs
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",");
        match v {
            Value::Str(s) => prop_assert_eq!(&*s, expected),
            _ => prop_assert!(false),
        }
        Ok(())
    });
}

#[test]
fn object_keys_preserve_insertion_order() {
    const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
    property("object_keys_preserve_insertion_order")
        .cases(192)
        .run(|tc| {
            // A set of 1-5 distinct short keys, in sorted order like the
            // original btree_set strategy produced.
            let keys: BTreeSet<String> = tc
                .vec_of(1..6, |t| t.string_of(LOWER, 1..5))
                .into_iter()
                .collect();
            let keys: Vec<String> = keys.into_iter().collect();
            let assignments: String = keys
                .iter()
                .enumerate()
                .map(|(i, k)| format!("o.{k} = {i};"))
                .collect::<Vec<_>>()
                .join(" ");
            let v = run_expr(&format!(
                "(function() {{ var o = {{}}; {assignments} return Object.keys(o).join(','); }})()"
            ));
            match v {
                Value::Str(s) => prop_assert_eq!(&*s, keys.join(",")),
                _ => prop_assert!(false),
            }
            Ok(())
        });
}

/// One edit of an `OrderedMap` under test.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(usize, i64),
    Remove(usize),
}

/// `OrderedMap` agrees with a plain insertion-ordered `Vec` on both sides
/// of its scan/index threshold (8 entries, deleted slots included): order
/// of first insertion, replacement in place, deleted keys re-inserted at
/// the end, `len`, and lookups.
#[test]
fn ordered_map_matches_a_vec_model() {
    property("ordered_map_matches_a_vec_model")
        .cases(256)
        .run(|tc| {
            let pool = tc.int_in(1usize..17);
            let keys: Vec<String> = (0..pool).map(|k| format!("k{k}")).collect();
            let ops = tc.vec_of(0..64, |t| {
                let k = t.int_in(0..pool);
                if t.ratio(1, 4) {
                    MapOp::Remove(k)
                } else {
                    MapOp::Insert(k, t.int_in(0i64..100))
                }
            });
            let mut map = OrderedMap::new();
            let mut model: Vec<(String, i64)> = Vec::new();
            for op in &ops {
                match *op {
                    MapOp::Insert(k, v) => {
                        map.insert(Rc::from(keys[k].as_str()), Prop::data(Value::Num(v as f64)));
                        match model.iter_mut().find(|(key, _)| *key == keys[k]) {
                            Some(slot) => slot.1 = v,
                            None => model.push((keys[k].clone(), v)),
                        }
                    }
                    MapOp::Remove(k) => {
                        let had = model.iter().position(|(key, _)| *key == keys[k]);
                        if let Some(at) = had {
                            model.remove(at);
                        }
                        prop_assert_eq!(map.remove(&keys[k]), had.is_some(), "{ops:?}");
                    }
                }
                prop_assert_eq!(map.len(), model.len(), "{ops:?}");
                let order: Vec<String> = map.keys().iter().map(|k| k.to_string()).collect();
                let expected: Vec<String> = model.iter().map(|(k, _)| k.clone()).collect();
                prop_assert_eq!(order, expected, "{ops:?}");
                for key in &keys {
                    let got = map.get(key).map(|p| match p.value {
                        PropValue::Data(Value::Num(n)) => n as i64,
                        _ => -1,
                    });
                    let want = model.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
                    prop_assert_eq!(got, want, "{key} after {ops:?}");
                    prop_assert_eq!(map.contains(key), want.is_some());
                }
            }
            Ok(())
        });
}
