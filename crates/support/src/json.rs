//! A small JSON value model with a strict parser and an escaping printer.
//!
//! This replaces the `serde` derives the workspace originally used for
//! persisting hint sets and analysis reports. Types opt in by implementing
//! [`ToJson`] / [`FromJson`]; the value model round-trips through
//! `Json::to_string` (via [`fmt::Display`]) / [`Json::parse`].
//!
//! Scope: everything the analyses persist — objects, arrays, finite
//! numbers, escaped strings (including `\uXXXX` and surrogate pairs),
//! booleans and null. Not supported (by design): `NaN`/`Infinity`
//! (rejected on output), duplicate-key semantics beyond last-wins, and
//! comments.
//!
//! Output is **deterministic**: objects print their pairs in insertion
//! order, with no whitespace, so equal values always serialize to equal
//! bytes — the property the corpus determinism tests compare on.
//!
//! # Example
//!
//! ```
//! use aji_support::Json;
//!
//! let doc = Json::obj(vec![
//!     ("name", Json::Str("webframe-app".into())),
//!     ("edges", Json::Num(31.0)),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(text, r#"{"name":"webframe-app","edges":31}"#);
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A JSON value.
///
/// Objects preserve insertion order so output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Errors from [`Json::parse`] or [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input where the error was detected (0 for
    /// conversion errors).
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// A conversion (shape-mismatch) error, not tied to an input offset.
    pub fn shape(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            offset: 0,
        }
    }
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// The pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(xs) => Some(xs),
            _ => None,
        }
    }

    /// First value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                assert!(n.is_finite(), "cannot serialize non-finite number {n}");
                if *n == 0.0 && n.is_sign_negative() {
                    // `-0.0 as i64` is 0, which would drop the sign on the
                    // round trip; JSON spells negative zero as `-0`.
                    out.push_str("-0");
                } else if *n == n.trunc() && n.abs() < 1e15 {
                    // Integral values print without the ".0" Rust would add.
                    let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else {
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes compactly (no whitespace). Deterministic: objects print in
/// insertion order. Use via `.to_string()`.
///
/// # Panics
///
/// Panics if the value contains a non-finite number — JSON cannot
/// represent those, and silently emitting `null` would corrupt
/// round-trips.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(xs));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(
                                self.err(format!("invalid escape '\\{}'", other as char))
                            )
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash
                    // or control byte at once. Those are all ASCII, so
                    // both ends of the run are char boundaries of `text`.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| {
            let before = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > before
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            // Rust's f64 parser overflows to infinity (e.g. "1e999"), but
            // the value model holds finite numbers only — accepting one
            // here would make the serializer panic on the round trip.
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(self.err("number overflows to a non-finite value")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs a value, failing with a shape error when the JSON does
    /// not match.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::shape("expected string"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::shape("expected bool"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::shape("expected number"))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v.as_f64().ok_or_else(|| JsonError::shape("expected number"))?;
                if n.trunc() != n {
                    return Err(JsonError::shape("expected integer"));
                }
                Ok(n as $t)
            }
        }
    )*};
}

impl_json_int!(u32, u64, usize, i32, i64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::shape("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson + Ord> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::shape("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::shape("expected 2-element array")),
        }
    }
}

/// Maps serialize as arrays of `[key, value]` pairs, so non-string keys
/// (e.g. `Loc`) survive the round trip.
impl<K: ToJson + Ord, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, v)| Json::Arr(vec![k.to_json(), v.to_json()]))
                .collect(),
        )
    }
}

impl<K: FromJson + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::shape("expected array of pairs"))?
            .iter()
            .map(<(K, V)>::from_json)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("reparse")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-42.0),
            Json::Num(3.5),
            Json::Num(1e300),
            Json::Num(-2.2250738585072014e-308),
            Json::Str(String::new()),
            Json::Str("plain".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "value {v:?}");
        }
    }

    #[test]
    fn string_escaping_roundtrips() {
        for s in [
            "quote\"inside",
            "back\\slash",
            "newline\nand\ttab",
            "control\u{01}\u{1f}chars",
            "unicode: caf\u{e9} \u{1F600} \u{FFFD}",
            "\u{08}\u{0C}\r",
            "ends with backslash\\",
            "\"\"\"",
        ] {
            let v = Json::Str(s.to_string());
            assert_eq!(roundtrip(&v), v, "string {s:?}");
        }
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(
            Json::parse(r#""Aé""#).unwrap(),
            Json::Str("Aé".into())
        );
        // 😀 is U+1F600 = surrogate pair D83D DE00.
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::Str("😀".into())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Json::obj(vec![
            ("a", Json::Arr(vec![Json::Num(1.0), Json::Null])),
            (
                "nested",
                Json::obj(vec![("k\"ey", Json::Str("v\\al".into()))]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj(vec![
            ("z", Json::Num(1.0)),
            ("a", Json::Num(2.0)),
            ("m", Json::Num(3.0)),
        ]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "}", "[1,", "[1 2]", "{\"a\"}", "{\"a\":}", "{a:1}", "tru", "nul",
            "1.2.3", "\"unterminated", "01x", "[1]]", "{} {}", "\"bad \\q escape\"",
            "-", "1e", "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accepts_whitespace_and_numbers() {
        let v = Json::parse(" [ 1 , -2.5e3 , 0.125 ]\n").unwrap();
        assert_eq!(
            v,
            Json::Arr(vec![Json::Num(1.0), Json::Num(-2500.0), Json::Num(0.125)])
        );
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::Num(5.0).to_string(), "5");
        assert_eq!(Json::Num(-17.0).to_string(), "-17");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn refuses_nan() {
        let _ = Json::Num(f64::NAN).to_string();
    }

    #[test]
    fn map_and_set_impls_roundtrip() {
        let mut m: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        m.insert(3, vec!["a".into(), "b".into()]);
        m.insert(1, vec![]);
        let j = m.to_json();
        let back: BTreeMap<u32, Vec<String>> = FromJson::from_json(&j).unwrap();
        assert_eq!(back, m);

        let s: BTreeSet<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let back: BTreeSet<String> = FromJson::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn get_and_accessors() {
        let v = Json::parse(r#"{"n": 4, "s": "hi", "b": true, "xs": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(4.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("xs").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert!(v.get("missing").is_none());
    }
}
