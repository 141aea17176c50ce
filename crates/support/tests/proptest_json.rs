//! Property tests proving the JSON serializer/parser pair is inverse on
//! the edge cases analysis reports actually hit: astral-plane characters
//! (surrogate pairs in `\u` escapes), control characters, negative zero,
//! and exponent-form numbers. Benchmark reports ride on this round
//! trip, so "provably inverse" is the bar, not "works on happy paths".

use aji_support::check::{property, TestCase};
use aji_support::{prop_assert, prop_assert_eq, Json};

/// Deep equality that distinguishes `-0.0` from `0.0` (IEEE `==` does
/// not) — the round trip must preserve the exact bit pattern of every
/// finite number, not just its numeric value.
fn bit_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bit_eq(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((ka, va), (kb, vb))| ka == kb && bit_eq(va, vb))
        }
        _ => a == b,
    }
}

/// Characters the serializer must escape or pass through untouched:
/// quotes, backslashes, every escape shorthand, C0 controls, the BMP
/// boundary cases and astral-plane characters (𝄞 is U+1D11E, the
/// canonical surrogate-pair example).
const TRICKY_CHARS: &str =
    "a\"\\/\n\r\t\u{08}\u{0C}\u{00}\u{01}\u{1f}\u{7f}é𝄞😀\u{FFFD}\u{D7FF}\u{E000}\u{FFFF}";

fn arbitrary_string(tc: &mut TestCase) -> String {
    tc.string_of(TRICKY_CHARS, 0..12)
}

/// A finite f64 drawn from interesting pools: special values (±0,
/// subnormals, integral boundaries), exponent forms, and raw bit
/// patterns filtered to finite.
fn arbitrary_num(tc: &mut TestCase) -> f64 {
    const SPECIAL: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        -2.5e3,
        1e15,                  // boundary of the integral fast path
        999_999_999_999_999.0, // just under it
        1e300,
        -1e300,
        5e-324, // smallest positive subnormal
        -2.2250738585072014e-308,
        9_007_199_254_740_993.0, // 2^53 + 1, not exactly representable
        f64::MAX,
        f64::MIN,
    ];
    match tc.int_in(0u32..3) {
        0 => *tc.pick(SPECIAL),
        1 => tc.int_in(-1_000_000i64..1_000_000) as f64,
        _ => {
            let bits = tc.choice(u64::MAX);
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                0.0
            }
        }
    }
}

fn arbitrary_json(tc: &mut TestCase, depth: u32) -> Json {
    let scalar = depth == 0 || tc.ratio(1, 2);
    if scalar {
        return match tc.int_in(0u32..4) {
            0 => Json::Null,
            1 => Json::Bool(tc.bool()),
            2 => Json::Num(arbitrary_num(tc)),
            _ => Json::Str(arbitrary_string(tc)),
        };
    }
    if tc.bool() {
        Json::Arr(tc.vec_of(0..4, |t| arbitrary_json(t, depth - 1)))
    } else {
        let pairs = tc.vec_of(0..4, |t| {
            (arbitrary_string(t), arbitrary_json(t, depth - 1))
        });
        Json::Obj(pairs)
    }
}

#[test]
fn string_round_trip_is_inverse_on_tricky_chars() {
    property("json_string_round_trip").cases(256).run(|tc| {
        let s = arbitrary_string(tc);
        let v = Json::Str(s.clone());
        let text = v.to_string();
        let back = Json::parse(&text).map_err(|e| format!("reparse of {text:?}: {e}"))?;
        prop_assert_eq!(&back, &v, "string {s:?} via {text:?}");
        Ok(())
    });
}

#[test]
fn number_round_trip_preserves_bit_patterns() {
    property("json_number_round_trip").cases(512).run(|tc| {
        let n = arbitrary_num(tc);
        let text = Json::Num(n).to_string();
        let back = Json::parse(&text).map_err(|e| format!("reparse of {text}: {e}"))?;
        let m = back.as_f64().ok_or("parsed to a non-number")?;
        prop_assert!(
            n.to_bits() == m.to_bits(),
            "{n:?} printed as {text} reparsed as {m:?}"
        );
        Ok(())
    });
}

#[test]
fn document_round_trip_is_inverse() {
    property("json_document_round_trip").cases(256).run(|tc| {
        let v = arbitrary_json(tc, 3);
        let text = v.to_string();
        let back = Json::parse(&text).map_err(|e| format!("reparse of {text}: {e}"))?;
        prop_assert!(bit_eq(&back, &v), "value {v:?} via {text}");
        // Printing is a normal form: a second trip is byte-identical.
        prop_assert_eq!(&back.to_string(), &text);
        Ok(())
    });
}

#[test]
fn astral_plane_escapes_parse_to_the_character() {
    // 𝄞 is U+1D11E, encoded in JSON escapes as the surrogate
    // pair \uD834 \uDD1E.
    assert_eq!(
        Json::parse(r#""\ud834\udd1e""#).unwrap(),
        Json::Str("𝄞".into())
    );
    // The raw character round-trips unescaped.
    let v = Json::Str("clef: 𝄞".into());
    assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
}

#[test]
fn lone_surrogates_are_rejected() {
    for bad in [
        r#""\ud834""#,       // lone high surrogate
        r#""\udd1e""#,       // lone low surrogate
        r#""\ud834x""#,      // high surrogate followed by a literal
        r#""\ud834\n""#,     // high surrogate followed by a non-\u escape
        r#""\ud834\ud834""#, // two high surrogates
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad}");
    }
}

#[test]
fn control_chars_escape_and_round_trip() {
    let v = Json::Str("\u{00}\u{01}\u{1f}".into());
    let text = v.to_string();
    assert_eq!(text, r#""\u0000\u0001\u001f""#);
    assert_eq!(Json::parse(&text).unwrap(), v);
    // Unescaped controls in the input stay rejected.
    assert!(Json::parse("\"\u{01}\"").is_err());
}

#[test]
fn negative_zero_keeps_its_sign() {
    let text = Json::Num(-0.0).to_string();
    assert_eq!(text, "-0");
    let back = Json::parse(&text).unwrap().as_f64().unwrap();
    assert!(
        back == 0.0 && back.is_sign_negative(),
        "parsed {back:?} from {text}"
    );
    assert_eq!(Json::Num(0.0).to_string(), "0", "positive zero unaffected");
}

#[test]
fn exponent_numbers_parse_and_round_trip() {
    for (text, expect) in [
        ("0e0", 0.0f64),
        ("1e3", 1000.0),
        ("1E3", 1000.0),
        ("2.5e-2", 0.025),
        ("-1.25E+2", -125.0),
        ("5e-324", 5e-324),
        ("1e308", 1e308),
    ] {
        let v = Json::parse(text).unwrap().as_f64().unwrap();
        assert_eq!(v.to_bits(), expect.to_bits(), "parsing {text}");
        let reprinted = Json::Num(v).to_string();
        let back = Json::parse(&reprinted).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "{text} -> {reprinted}");
    }
    // Exponent overflow to infinity is malformed by this parser's rules
    // (the value model holds finite numbers only).
    assert!(Json::parse("1e999").is_err());
}

/// One piece of a hand-written JSON string literal: the source text the
/// parser reads and the characters it must produce.
fn arbitrary_piece(tc: &mut TestCase) -> (String, String) {
    const RAW: &[&str] = &["a", "Z", " ", "é", "€", "𝄞", "😀", "日本", "\u{7f}", "/"];
    const ESCAPED: &[(&str, &str)] = &[
        (r#"\""#, "\""),
        (r"\\", "\\"),
        (r"\/", "/"),
        (r"\n", "\n"),
        (r"\t", "\t"),
        (r"\u0001", "\u{01}"),
        (r"\u00e9", "é"),
        (r"\u20AC", "€"),
        (r"\ud834\udd1e", "𝄞"),
    ];
    if tc.bool() {
        let raw = *tc.pick(RAW);
        let n = tc.int_in(1usize..4);
        (raw.repeat(n), raw.repeat(n))
    } else {
        let (src, chars) = *tc.pick(ESCAPED);
        (src.to_string(), chars.to_string())
    }
}

#[test]
fn strings_mixing_multibyte_runs_and_escapes_parse_and_round_trip() {
    property("json_mixed_string").cases(256).run(|tc| {
        let pieces = tc.vec_of(0..16, arbitrary_piece);
        let src: String = pieces.iter().map(|(s, _)| s.as_str()).collect();
        let want: String = pieces.iter().map(|(_, c)| c.as_str()).collect();
        let text = format!("\"{src}\"");
        let parsed = Json::parse(&text).map_err(|e| format!("parse of {text:?}: {e}"))?;
        prop_assert_eq!(&parsed, &Json::Str(want.clone()), "source {text:?}");
        let again = Json::parse(&parsed.to_string()).map_err(|e| e.to_string())?;
        prop_assert_eq!(&again, &parsed, "round trip of {want:?}");
        Ok(())
    });
}

#[test]
fn a_one_mebibyte_string_parses() {
    // Mostly multi-byte text with an escape every 4 KiB, so both the
    // raw-run and the escape paths are exercised at scale.
    let mut want = String::new();
    let mut text = String::from("\"");
    while want.len() < 1 << 20 {
        for _ in 0..1024 {
            want.push_str("aé€𝄞");
            text.push_str("aé€𝄞");
        }
        want.push('\n');
        text.push_str(r"\n");
    }
    text.push('"');
    let start = std::time::Instant::now();
    assert_eq!(Json::parse(&text).unwrap(), Json::Str(want));
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "1 MiB string took {:?}: string parsing is not linear",
        start.elapsed()
    );
}

#[test]
fn nesting_is_limited_to_max_depth() {
    use aji_support::json::MAX_DEPTH;
    let nested = |open: &str, close: &str, depth: usize| {
        format!("{}{}", open.repeat(depth), close.repeat(depth))
    };
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        // Objects need a value at the bottom.
        let bottom = |d| {
            let s = nested(open, close, d);
            if open == "[" {
                s
            } else {
                s.replacen("}", "0}", 1)
            }
        };
        assert!(
            Json::parse(&bottom(MAX_DEPTH)).is_ok(),
            "{open} x {MAX_DEPTH}"
        );
        let err = Json::parse(&bottom(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH * open.len(), "{err}");
    }
}

#[test]
fn deep_nesting_is_an_error_on_a_small_stack() {
    // 200 000 open brackets: unbounded recursion would overflow the
    // 2 MiB stack of a default spawned thread and abort the process.
    let text = "[".repeat(200_000);
    let r = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || Json::parse(&text).map(|_| ()))
        .unwrap()
        .join()
        .unwrap();
    assert!(r.unwrap_err().msg.contains("nested deeper than"));
}
