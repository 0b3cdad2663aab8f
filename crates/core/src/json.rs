//! The workspace's one JSON codec: a value type, a strict depth-limited
//! parser, a canonical writer, one string escaper and one float format.
//!
//! Every JSON byte the workspace reads or writes goes through here: run
//! specs and reports ([`crate::spec`]), ensemble and fault reports, trace
//! manifests, `pp-server`'s error bodies, and `pp-bench`'s reports and
//! regression gate. The build is offline (no serde), so the codec is
//! hand-rolled and deliberately small.
//!
//! Conventions:
//!
//! * Objects keep insertion order; the writer emits fields in stored
//!   order with no whitespace, so a rendering is canonical.
//! * Numbers are `f64`. Integers round-trip exactly up to 2⁵³; floats are
//!   written in their shortest round-trip form, and non-finite values as
//!   `null` ([`json_f64`]).
//! * Nesting deeper than [`MAX_DEPTH`] containers is a parse error, not a
//!   recursion: the parser recurses once per level, and a hostile body of
//!   nested `[` must not overflow a server worker's stack.

use std::fmt::{self, Write as _};

/// The deepest container nesting [`parse_json`] accepts. Run specs and
/// bench reports nest at most 4 deep.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects preserve insertion order (ordering is
/// semantic for a run spec's population and keeps renderings canonical).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers round-trip exactly up
    /// to 2⁵³, far beyond any population this workspace materializes).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Deterministic rendering: fields in stored order, shortest
    /// round-trip floats, no whitespace.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Appends the [`render`](Self::render)ing to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(x) => write_f64(out, *x),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => write_object(out, fields),
        }
    }
}

/// Appends `{"k":v,...}` for `fields`, in order.
pub fn write_object(out: &mut String, fields: &[(String, JsonValue)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        v.write(out);
    }
    out.push('}');
}

/// Appends `s` as a quoted JSON string: `"` `\` and control characters
/// escaped, everything else verbatim.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A float as JSON: shortest round-trip representation, `null` when
/// non-finite.
pub fn json_f64(v: f64) -> String {
    let mut s = String::new();
    write_f64(&mut s, v);
    s
}

macro_rules! from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            /// Exact up to 2⁵³.
            fn from(v: $t) -> Self {
                JsonValue::Num(v as f64)
            }
        }
    )*};
}

from_num!(u64, u32, usize, i64, f64);

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Why a document failed to parse, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Short reason.
    pub detail: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for JsonError {}

fn err(offset: usize, detail: &'static str) -> JsonError {
    JsonError { offset, detail }
}

/// Parses a JSON document (strict: one value, nothing but whitespace
/// after it, at most [`MAX_DEPTH`] nested containers).
///
/// # Errors
///
/// Returns a [`JsonError`] with a byte offset and a short reason.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after JSON value"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value; `depth` counts the containers already open around it.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(*pos, "nesting deeper than 64 levels")),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b'"') {
                    return Err(err(*pos, "object key must be a string"));
                }
                *pos += 1;
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':' after object key"));
                }
                *pos += 1;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut xs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(xs));
            }
            loop {
                xs.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(xs));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            parse_string(b, pos).map(JsonValue::Str)
        }
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("ascii");
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| err(start, "invalid number"))
        }
    }
}

/// Parses a string body; `pos` is just past the opening quote.
fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{0008}'),
                    Some(b'f') => s.push('\u{000c}'),
                    Some(b'u') => {
                        let cp = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        // Surrogates are replaced, not rejected: nothing
                        // this workspace writes contains them, and lossy
                        // beats panicky.
                        s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 is copied through verbatim.
                let start = *pos;
                let mut end = *pos + 1;
                if c >= 0x80 {
                    while end < b.len() && b[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                }
                let chunk =
                    std::str::from_utf8(&b[start..end]).map_err(|_| err(*pos, "invalid UTF-8"))?;
                s.push_str(chunk);
                *pos = end;
            }
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit.as_bytes() {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn round_trip() {
        let v = parse_json(r#"{"a":[1,2.5,null,true,"x\n\"y"],"b":{"c":-3e2},"d":{}}"#).unwrap();
        let rendered = v.render();
        assert_eq!(
            rendered,
            r#"{"a":[1,2.5,null,true,"x\n\"y"],"b":{"c":-300},"d":{}}"#
        );
        assert_eq!(parse_json(&rendered).unwrap(), v);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(-300.0));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{} extra",
            "{'a':1}",
            "{1:2}",
            "\"\\u12\"",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn depth_limit_is_exact() {
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let deep = format!("{{\"a\":{}}}", nested(MAX_DEPTH - 1));
        assert!(parse_json(&deep).is_ok());

        let e = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH, "points at the first bracket too many");
        let e = parse_json(&format!("{{\"a\":{}}}", nested(MAX_DEPTH))).unwrap_err();
        assert_eq!(e.offset, 5 + MAX_DEPTH - 1);
        assert!(e.to_string().contains("nesting"), "{e}");
    }

    #[test]
    fn escaper_and_floats() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}é");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(1e21), "1000000000000000000000");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn conversions_are_exact_to_2_pow_53() {
        assert_eq!(JsonValue::from(1u64 << 53).render(), "9007199254740992");
        assert_eq!(JsonValue::from(-5i64).render(), "-5");
        assert_eq!(JsonValue::from(vec![1u32, 2, 3]).render(), "[1,2,3]");
        assert_eq!(JsonValue::from(true).render(), "true");
        assert_eq!(JsonValue::from(f64::NAN).render(), "null");
        assert_eq!(JsonValue::from("q\"").render(), "\"q\\\"\"");
    }
}
