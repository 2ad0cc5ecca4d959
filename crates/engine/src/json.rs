//! A minimal JSON toolkit: a streaming writer, a value tree and a parser.
//!
//! The sandbox this workspace builds in has no crates.io access, so there is
//! no `serde`/`serde_json`; this module implements the small subset the
//! engine needs to publish and round-trip certificates:
//!
//! * [`ObjectWriter`], [`write_arr`], [`write_str`] — the emitter.  Every certificate record and every
//!   service response is written member by member straight into one
//!   `String` (compact, single-line: certificates are JSON-lines records),
//!   with no intermediate tree;
//! * [`Json`] — the standard value tree (`null`, booleans, numbers, strings,
//!   arrays, objects with insertion-ordered members), for the small cold
//!   members (statistics, errors) and for consumers that inspect a record;
//!   [`Json::render`] writes it with the same primitives;
//! * [`Json::parse`] — a recursive-descent parser accepting exactly RFC 8259
//!   JSON (the usual escapes including `\uXXXX`, no trailing commas).
//!
//! Arbitrary-precision quantities (hom counts, rational coefficients) are
//! represented as **strings**, never as JSON numbers: a counterexample's
//! answer vectors routinely exceed 2⁵³ and must survive a round trip
//! exactly.  Numbers are only used for machine integers (counts, indices,
//! cache statistics), which the writer prints from `u64`/`i64` directly.
//!
//! ```
//! use cqdet_engine::json::{write_arr, write_str, Json, ObjectWriter};
//!
//! let mut line = String::new();
//! let mut record = ObjectWriter::open(&mut line);
//! record.str("task", "t1").bool("determined", true).uint("basis_size", 3);
//! write_arr(record.key("alpha"), ["18446744073709551616"], write_str);
//! record.close();
//! assert_eq!(
//!     line,
//!     r#"{"task":"t1","determined":true,"basis_size":3,"alpha":["18446744073709551616"]}"#
//! );
//! let tree = Json::parse(&line).unwrap();
//! assert_eq!(tree.render(), line);
//! assert_eq!(tree.get("alpha").unwrap()[0].as_str(), Some("18446744073709551616"));
//! ```

use cqdet_bigint::Nat;
use std::fmt;

/// A JSON value.  Object members keep insertion order (certificates render
/// deterministically).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.  Only ever a small machine integer or float in this
    /// workspace; bigints travel as strings.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered `(key, value)` members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for an integer number value.
    pub fn num(n: impl Into<i64>) -> Json {
        Json::Num(n.into() as f64)
    }

    /// Shorthand for an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(members: I) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this is a non-negative integral
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write_int(out, *n as i64);
                } else {
                    use std::fmt::Write as _;
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_arr(out, items, |out, item| item.write(out)),
            Json::Obj(members) => {
                let mut o = ObjectWriter::open(out);
                for (k, v) in members {
                    v.write(o.key(k));
                }
                o.close();
            }
        }
    }

    /// The tree of a line this crate's writer produced.  The text is valid
    /// JSON by construction, so the error arm is unreachable; it yields a
    /// string holding the parse error and the text rather than a panic.
    pub fn from_rendered(text: &str) -> Json {
        Json::parse(text).unwrap_or_else(|e| Json::str(format!("{e}: {text}")))
    }

    /// Parse a complete JSON document (trailing whitespace allowed, trailing
    /// garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;

    /// Array element access; panics (like slice indexing) on non-arrays or
    /// out-of-range indices.
    // Indexing is *documented* to panic, exactly like `[T]` — request paths
    // use the checked accessors (`get`, `as_arr`) instead.
    #[allow(clippy::panic)]
    fn index(&self, index: usize) -> &Json {
        match self {
            Json::Arr(items) => &items[index],
            other => panic!("cannot index into {other:?}"),
        }
    }
}

/// Appends one JSON object to a `String`, member by member: the emitter
/// behind every certificate record and service response.  Each member
/// method writes `,"key":value` (no comma before the first member);
/// [`ObjectWriter::key`] hands back the line for a value the caller writes
/// itself (an array, a nested object).
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Write `{` and start the members.
    pub fn open(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Write the next member's `"key":` and return the line, positioned
    /// for exactly one value.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        write_str(self.key(key), value);
        self
    }

    /// A non-negative integer member.
    pub fn uint(&mut self, key: &str, value: u64) -> &mut Self {
        write_uint(self.key(key), value);
        self
    }

    /// A signed integer member.
    pub fn int(&mut self, key: &str, value: i64) -> &mut Self {
        write_int(self.key(key), value);
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        write_bool(self.key(key), value);
        self
    }

    /// A `null` member.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// A member whose value is a [`Json`] tree.
    pub fn json(&mut self, key: &str, value: &Json) -> &mut Self {
        value.write(self.key(key));
        self
    }

    /// Write `}`.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// Append a JSON array: `[`, `each(out, item)` per item with commas
/// between, `]`.
pub fn write_arr<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// Append a non-negative integer, exactly (the digit loop of
/// [`Nat::write_decimal`]; no `f64`, no `fmt`).
pub(crate) fn write_uint(out: &mut String, value: u64) {
    Nat::from_u64(value).write_decimal(out);
}

/// Append a signed integer, exactly.
fn write_int(out: &mut String, value: i64) {
    if value < 0 {
        out.push('-');
    }
    write_uint(out, value.unsigned_abs());
}

fn write_bool(out: &mut String, value: bool) {
    out.push_str(if value { "true" } else { "false" });
}

/// Append a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Bulk-copy maximal runs of clean characters and only stop at the rare
    // byte that needs escaping: string members dominate every certificate
    // (bigints travel as decimal strings), so the emitter must not walk
    // them char by char.  Every byte needing an escape is ASCII, so byte
    // offsets are always char boundaries.
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: Option<&str> = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1f => None, // rare control byte: \uXXXX below
            _ => continue,
        };
        out.push_str(&s[start..i]);
        match escape {
            Some(e) => out.push_str(e),
            None => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", b);
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> JsonError {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected {token:?}")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(JsonError::at(*pos, "expected string object key"));
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError::at(*pos, "expected ':' after object key"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::at(*pos, "bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::at(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not needed by our emitter; map
                        // lone surrogates to the replacement character.
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                if b < 0x20 {
                    return Err(JsonError::at(*pos, "unescaped control character"));
                }
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the whole code point.
                let s = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::at(*pos, "invalid UTF-8"))?;
                let Some(c) = s.chars().next() else {
                    return Err(JsonError::at(*pos, "unterminated string"));
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    // The scanned range is ASCII by construction (digits, sign, '.', 'e').
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| JsonError::at(start, "bad number"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError::at(start, format!("bad number {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compound_values() {
        let v = Json::obj([
            ("null", Json::Null),
            ("flag", Json::Bool(false)),
            ("n", Json::num(-42)),
            ("big", Json::str("123456789012345678901234567890")),
            (
                "arr",
                Json::Arr(vec![Json::num(1), Json::str("two"), Json::Null]),
            ),
            ("nested", Json::obj([("k", Json::Arr(vec![]))])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::str("line\nquote\"backslash\\tab\tcontrol\u{1}end");
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // Unicode beyond ASCII survives verbatim.
        let u = Json::str("π ≈ 3");
        assert_eq!(Json::parse(&u.render()).unwrap(), u);
    }

    #[test]
    fn parses_standard_json() {
        let v = Json::parse(r#" {"a": [1, 2.5, -3e2], "b": "xAy", "c": {}} "#).unwrap();
        assert_eq!(v.get("b").unwrap().as_str(), Some("xAy"));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("c"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "1 2",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("n", Json::num(7))]);
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
