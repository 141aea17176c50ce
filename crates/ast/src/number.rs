//! JavaScript's number grammar: the one place that turns source text and
//! strings into numbers, and numbers into JavaScript strings. The lexer,
//! the printer, the points-to analysis's numeric keys and the
//! interpreter's conversions and number builtins all call it, so both
//! engines name every numeric key as Node does. Report JSON is not
//! JavaScript: `aji_support::json` keeps its own number reader and writer.

const DIGITS: &[u8; 36] = b"0123456789abcdefghijklmnopqrstuvwxyz";

/// 2^53: below it every integer is exact in an `f64` and in an `i64`.
const TWO_53: f64 = 9_007_199_254_740_992.0;

/// `Number::toString(x)`: the shortest round-trip digits, in plain
/// decimal for 1e-6 ≤ |x| < 1e21 and in exponent form (`1e+21`, `5e-7`)
/// outside it. `-0` gives `"0"`.
pub fn to_string(x: f64) -> String {
    // Array indices, most numeric keys and -0 take this path.
    if x.fract() == 0.0 && x.abs() < TWO_53 {
        return (x as i64).to_string();
    }
    if (1e-6..1e21).contains(&x.abs()) {
        return format!("{x}");
    }
    // `{:e}` prints the same digits, and `NaN` as JavaScript does;
    // JavaScript spells out `Infinity` and signs a positive exponent.
    let s = format!("{x:e}").replace("inf", "Infinity");
    match s.split_once('e') {
        Some((mantissa, exp)) if !exp.starts_with('-') => format!("{mantissa}e+{exp}"),
        _ => s,
    }
}

/// `Number.prototype.toString(radix)` for a radix in 2..=36, with sign and
/// fraction: V8's algorithm, so the digits match Node's. Fraction digits
/// stop once they pin `x` down, the last one rounded to even; integer
/// digits below `x`'s precision print as `0`.
pub fn to_radix_string(x: f64, radix: u32) -> String {
    assert!((2..=36).contains(&radix), "radix {radix} is outside 2..=36");
    if radix == 10 || !x.is_finite() {
        return to_string(x);
    }
    let r = f64::from(radix);
    let mut int = x.abs().floor();
    let mut frac = x.abs() - int;
    // Half the gap to the next double: finer digits would not change `x`.
    let mut delta = (0.5 * (next_up(x.abs()) - x.abs())).max(next_up(0.0));
    let mut frac_digits: Vec<u8> = Vec::new();
    while frac >= delta {
        frac *= r;
        delta *= r;
        let digit = frac as u8;
        frac_digits.push(digit);
        frac -= f64::from(digit);
        if (frac > 0.5 || (frac == 0.5 && digit & 1 == 1)) && frac + delta > 1.0 {
            // Round up, carrying through the digits and maybe into `int`.
            while let Some(d) = frac_digits.pop() {
                if u32::from(d) + 1 < radix {
                    frac_digits.push(d + 1);
                    break;
                }
            }
            int += f64::from(u8::from(frac_digits.is_empty()));
            break;
        }
    }
    let mut out = Vec::new();
    while int / r >= TWO_53 {
        int /= r;
        out.push(b'0');
    }
    loop {
        let rem = int % r;
        out.push(DIGITS[rem as usize]);
        int = (int - rem) / r;
        if int <= 0.0 {
            break;
        }
    }
    if x < 0.0 {
        out.push(b'-');
    }
    out.reverse();
    if !frac_digits.is_empty() {
        out.push(b'.');
        out.extend(frac_digits.iter().map(|&d| DIGITS[usize::from(d)]));
    }
    String::from_utf8(out).expect("radix digits are ASCII")
}

/// `Number.prototype.toFixed(digits)` for `digits` in 0..=100, a tie
/// rounded away from zero; [`to_string`] for |x| ≥ 1e21.
pub fn to_fixed(x: f64, digits: usize) -> String {
    if !x.is_finite() || x.abs() >= 1e21 {
        return to_string(x);
    }
    // Rust rounds a tie to even. A tie's lowest set bit is worth
    // 2^-(digits+1); the next double up rounds away from zero instead.
    let bits = x.abs().to_bits();
    let lowest_bit = ((bits >> 52) as i64).max(1) - 1075 + i64::from(bits.trailing_zeros().min(52));
    let tie = bits != 0 && lowest_bit == -(digits as i64) - 1;
    let a = f64::from_bits(bits + u64::from(tie));
    let sign = if x < 0.0 { "-" } else { "" };
    format!("{sign}{a:.digits$}")
}

/// The smallest double above a finite, non-negative `x`.
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// `ToNumber` of a string: surrounding whitespace is ignored, the empty
/// string is 0, a `0x`/`0o`/`0b` prefix reads an unsigned integer, and
/// anything else must be one whole signed decimal literal or `Infinity`.
/// Everything else, `1_000` and Rust's `inf` included, is NaN.
pub fn str_to_number(s: &str) -> f64 {
    let t = s.trim_matches(is_js_space).as_bytes();
    let (body, (v, n)) = match radix_prefix(t) {
        Some(radix) => (&t[2..], digits(&t[2..], radix, false)),
        None if t.is_empty() => return 0.0,
        None => (t, signed_decimal(t)),
    };
    if n > 0 && n == body.len() {
        v
    } else {
        f64::NAN
    }
}

/// `parseFloat(s)`: the longest signed decimal literal (or `Infinity`)
/// after leading whitespace; NaN when there is none.
pub fn parse_float(s: &str) -> f64 {
    signed_decimal(s.trim_start_matches(is_js_space).as_bytes()).0
}

/// `parseInt(s, radix)`, with `radix` already converted by `ToInt32`: 0
/// means 10, or 16 after a `0x` prefix; outside 2..=36 gives NaN.
pub fn parse_int(s: &str, radix: i32) -> f64 {
    let t = s.trim_start_matches(is_js_space).as_bytes();
    let neg = t.first() == Some(&b'-');
    let mut t = t.strip_prefix(b"-").or(t.strip_prefix(b"+")).unwrap_or(t);
    let (mut radix, strip_prefix) = match radix {
        0 => (10, true),
        16 => (16, true),
        2..=36 => (radix as u32, false),
        _ => return f64::NAN,
    };
    if strip_prefix && radix_prefix(t) == Some(16) {
        (t, radix) = (&t[2..], 16);
    }
    match digits(t, radix, false) {
        (_, 0) => f64::NAN,
        (v, _) if neg => -v,
        (v, _) => v,
    }
}

/// Scans the numeric literal at the start of JavaScript source `src` (a
/// digit, or `.` and a digit) and returns its value and length. Takes `_`
/// separators, `0x`/`0o`/`0b` prefixes, sloppy-mode legacy octal (`010` is
/// 8) and any number of digits; past `f64`'s range it is `Infinity`.
pub fn scan_literal(src: &[u8]) -> (f64, usize) {
    if let Some(radix) = radix_prefix(src) {
        let (v, n) = digits(&src[2..], radix, true);
        return (v, 2 + n);
    }
    let n = src
        .iter()
        .skip(1)
        .take_while(|c| c.is_ascii_digit())
        .count();
    if src.first() == Some(&b'0') && n > 0 && src[1..=n].iter().all(|&c| c < b'8') {
        return (digits(&src[1..=n], 8, false).0, 1 + n);
    }
    let n = decimal_len(src, true);
    (decimal_value(&src[..n]), n)
}

/// The value of the run of base-`radix` digits at the start of `s` and
/// the bytes it spans (0 when there is none); with `separators`, `_`s in
/// the run are skipped. Exact up to 128 bits; past that, correctly rounded
/// for a power-of-two radix and approximate otherwise, as `parseInt`
/// allows. Never fails.
fn digits(s: &[u8], radix: u32, separators: bool) -> (f64, usize) {
    let (mut acc, mut dropped, mut sticky, mut len) = (0u128, 0, false, 0);
    for (i, &c) in s.iter().enumerate() {
        let d = match char::from(c).to_digit(radix) {
            Some(d) => u128::from(d),
            None if separators && c == b'_' => continue,
            None => break,
        };
        len = i + 1;
        match acc
            .checked_mul(u128::from(radix))
            .and_then(|a| a.checked_add(d))
        {
            Some(a) if dropped == 0 => acc = a,
            _ => (dropped, sticky) = (dropped + 1, sticky || d != 0),
        }
    }
    // A full `acc` has over 120 bits: its lowest bit lies far below the
    // rounding point and breaks a tie as the dropped digits would.
    acc |= u128::from(sticky);
    (acc as f64 * f64::from(radix).powi(dropped), len)
}

/// The radix a `0x`, `0o` or `0b` prefix (either case) selects.
fn radix_prefix(s: &[u8]) -> Option<u32> {
    match s {
        [b'0', b'x' | b'X', ..] => Some(16),
        [b'0', b'o' | b'O', ..] => Some(8),
        [b'0', b'b' | b'B', ..] => Some(2),
        _ => None,
    }
}

/// The signed decimal literal or `Infinity` at the start of `s`: its value
/// and length, or `(NaN, 0)`.
fn signed_decimal(s: &[u8]) -> (f64, usize) {
    let sign = usize::from(matches!(s.first(), Some(b'-' | b'+')));
    let n = if s[sign..].starts_with(b"Infinity") {
        8
    } else {
        decimal_len(&s[sign..], false)
    };
    match n {
        0 => (f64::NAN, 0),
        _ => (decimal_value(&s[..sign + n]), sign + n),
    }
}

/// Length of the unsigned decimal literal at the start of `s`: digits with
/// an optional `.` fraction (one side may be empty, not both) and an
/// optional exponent; 0 when there is none. With `separators`, `_` counts
/// as a digit.
fn decimal_len(s: &[u8], separators: bool) -> usize {
    let run = |from: usize| {
        let rest = s.get(from..).unwrap_or_default();
        rest.iter()
            .take_while(|&&c| c.is_ascii_digit() || (separators && c == b'_'))
            .count()
    };
    let mut end = run(0);
    // A `.` needs a digit on one side.
    if s.get(end) == Some(&b'.') && (end > 0 || run(end + 1) > 0) {
        end += 1 + run(end + 1);
    }
    if end == 0 {
        return 0;
    }
    if matches!(s.get(end), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(s.get(end + 1), Some(b'+' | b'-')));
        let exp = run(end + 1 + sign);
        if exp > 0 {
            end += 1 + sign + exp;
        }
    }
    end
}

/// The correctly rounded value of a literal [`signed_decimal`] or
/// [`decimal_len`] accepted; Rust reads the same spellings.
fn decimal_value(text: &[u8]) -> f64 {
    let text = std::str::from_utf8(text).expect("decimal literals are ASCII");
    let parsed = if text.contains('_') {
        text.replace('_', "").parse()
    } else {
        text.parse()
    };
    parsed.unwrap_or(f64::NAN)
}

/// JavaScript's WhiteSpace and LineTerminator: Unicode's White_Space
/// without U+0085, plus the byte-order mark U+FEFF.
fn is_js_space(c: char) -> bool {
    c == '\u{feff}' || (c.is_whitespace() && c != '\u{85}')
}

/// `ToUint32`: `x` truncated, modulo 2^32; NaN and the infinities give 0.
pub fn to_uint32(x: f64) -> u32 {
    if x.abs() < TWO_53 {
        // Exact, and the two's complement cast wraps modulo 2^32.
        return x as i64 as u32;
    }
    // `x` is an integer here, so the remainder is exact; NaN casts to 0.
    x.rem_euclid(4_294_967_296.0) as u32
}

/// `ToInt32`: [`to_uint32`] read as two's complement.
pub fn to_int32(x: f64) -> i32 {
    to_uint32(x) as i32
}
