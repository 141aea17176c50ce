//! `aji_ast::number` against Node's answers: `ToString`, `ToNumber`,
//! `parseFloat`, `parseInt`, numeric literals, radix strings, `toFixed`
//! and `ToInt32`.

use aji_ast::number::*;
use aji_support::check::property;
use aji_support::prop_assert_eq;

#[test]
fn to_string_matches_node() {
    let cases: &[(f64, &str)] = &[
        (0.0, "0"),
        (-0.0, "0"),
        (42.0, "42"),
        (-7.0, "-7"),
        (1.5, "1.5"),
        (f64::NAN, "NaN"),
        (f64::INFINITY, "Infinity"),
        (f64::NEG_INFINITY, "-Infinity"),
        (1e20, "100000000000000000000"),
        (2f64.powi(63), "9223372036854776000"),
        (1e21, "1e+21"),
        (-1e21, "-1e+21"),
        (1e-7, "1e-7"),
        (123e-20, "1.23e-18"),
        (5e-324, "5e-324"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (0.000001, "0.000001"),
        (5e-7, "5e-7"),
        (0.1 + 0.2, "0.30000000000000004"),
    ];
    for &(x, node) in cases {
        assert_eq!(to_string(x), node, "{x:e}");
    }
}

#[test]
fn to_string_round_trips_through_to_number() {
    property("number_to_string_round_trip")
        .cases(2048)
        .run(|tc| {
            let x = f64::from_bits(tc.choice(u64::MAX));
            if !x.is_finite() {
                return Ok(());
            }
            let s = to_string(x);
            let back = str_to_number(&s);
            let want = if x == 0.0 { 0.0 } else { x };
            prop_assert_eq!(back.to_bits(), want.to_bits(), "{} via {}", x, s);
            if (1e-6..1e21).contains(&x.abs()) {
                prop_assert_eq!(&s, &format!("{x}"));
            }
            Ok(())
        });
}

#[test]
fn str_to_number_takes_only_javascript_spellings() {
    let cases: &[(&str, f64)] = &[
        ("42", 42.0),
        ("  3.5 \n", 3.5),
        ("", 0.0),
        ("\u{feff} 7", 7.0),
        ("0x10", 16.0),
        ("0b101", 5.0),
        ("0o17", 15.0),
        (" 0b1 ", 1.0),
        ("0x1fffffffffffffffff", 590295810358705700000.0),
        ("-Infinity", f64::NEG_INFINITY),
        ("+.5", 0.5),
        ("5.", 5.0),
        ("1e3", 1000.0),
    ];
    for &(s, v) in cases {
        assert_eq!(str_to_number(s), v, "{s:?}");
    }
    for s in [
        "abc", "INF", "infinity", "inf", "NaN", "1_000", "0x", "-0x1", "1e", ".", "\u{85}1",
    ] {
        assert!(str_to_number(s).is_nan(), "{s:?}");
    }
    assert!(str_to_number("-0").is_sign_negative());
}

#[test]
fn parse_float_and_parse_int_take_prefixes() {
    assert_eq!(parse_float("1e+5"), 100000.0);
    assert_eq!(parse_float("Infinity"), f64::INFINITY);
    assert_eq!(parse_float("1e"), 1.0);
    assert_eq!(parse_float("-.5e-3x"), -0.0005);
    assert!(parse_float("x1").is_nan());
    assert_eq!(
        parse_int("0x1fffffffffffffffff", 0),
        590295810358705700000.0
    );
    assert_eq!(parse_int("  -12px", 0), -12.0);
    assert_eq!(parse_int("ff", 16), 255.0);
    assert_eq!(parse_int("0xff", 16), 255.0);
    assert_eq!(parse_int("0xff", 10), 0.0);
    assert_eq!(parse_int("101", 2), 5.0);
    assert!(parse_int("12", 1).is_nan());
    assert!(parse_int("12", 37).is_nan());
    assert!(parse_int("-0", 0).is_sign_negative());
    let big = parse_int("123456789012345678901234", 0);
    assert!((big - 1.2345678901234568e23).abs() <= 1.2345678901234568e23 * f64::EPSILON);
    // Past 128 bits a power-of-two radix still rounds correctly.
    let hex = format!("1{}", "0".repeat(40));
    assert_eq!(parse_int(&hex, 16), 2f64.powi(160));
    assert_eq!(parse_int(&format!("{}1", hex), 16), 2f64.powi(164));
}

#[test]
fn literals_scan_every_numeric_form() {
    let cases: &[(&str, f64, usize)] = &[
        ("0x1fffffffffffffffff;", 590295810358705700000.0, 20),
        ("0o777777777777777777777777", 4.722366482869645e21, 26),
        ("0b101", 5.0, 5),
        ("010", 8.0, 3),
        ("019", 19.0, 3),
        ("08.5", 8.5, 4),
        ("1_000", 1000.0, 5),
        (".5", 0.5, 2),
        ("5.", 5.0, 2),
        ("5.toString", 5.0, 2),
        ("1e999", f64::INFINITY, 5),
        ("1e", 1.0, 1),
        ("2e-3)", 0.002, 4),
    ];
    for &(src, v, len) in cases {
        assert_eq!(scan_literal(src.as_bytes()), (v, len), "{src}");
    }
}

#[test]
fn radix_strings_keep_sign_and_fraction() {
    assert_eq!(to_radix_string(0.5, 2), "0.1");
    assert_eq!(to_radix_string(-255.5, 16), "-ff.8");
    assert_eq!(to_radix_string(1e21, 16), "3635c9adc5dea00000");
    assert_eq!(to_radix_string(255.0, 2), "11111111");
    assert_eq!(
        to_radix_string(0.1, 2),
        "0.0001100110011001100110011001100110011001100110011001101"
    );
    assert_eq!(to_radix_string(3.75, 36), "3.r");
    assert_eq!(to_radix_string(-0.0, 2), "0");
    assert_eq!(to_radix_string(f64::NAN, 2), "NaN");
}

#[test]
fn to_fixed_rounds_ties_away_from_zero() {
    assert_eq!(to_fixed(1e21, 2), "1e+21");
    assert_eq!(to_fixed(0.5, 0), "1");
    assert_eq!(to_fixed(2.5, 0), "3");
    assert_eq!(to_fixed(9.5, 0), "10");
    assert_eq!(to_fixed(1.25, 1), "1.3");
    assert_eq!(to_fixed(-1.25, 1), "-1.3");
    assert_eq!(to_fixed(1.005, 2), "1.00");
    assert_eq!(to_fixed(-0.0001, 2), "-0.00");
    assert_eq!(to_fixed(-0.0, 2), "0.00");
    assert_eq!(to_fixed(1.23456, 3), "1.235");
}

#[test]
fn int32_conversions_are_modular() {
    let cases: &[(f64, i32)] = &[
        (0.0, 0),
        (1.9, 1),
        (-1.0, -1),
        (-1.9, -1),
        (4294967296.0, 0),
        (4294967297.0, 1),
        (2147483648.0, -2147483648),
        (f64::NAN, 0),
        (f64::INFINITY, 0),
        (1e20, 1661992960),
        (-1e20, -1661992960),
        (2f64.powi(64), 0),
        (-(2f64.powi(53)) - 2.0, -2),
    ];
    for &(x, want) in cases {
        assert_eq!(to_int32(x), want, "{x:e}");
    }
    assert_eq!(to_uint32(-1.0), 4294967295);
    assert_eq!(to_uint32(1e20), 1661992960);
}
