//! A minimal JSON value model, parser and writer.
//!
//! The workspace persists traces and benchmark results as JSON; with no
//! crates.io access there is no `serde_json`, so this module provides the
//! small subset the repo needs: a [`JsonValue`] tree, a strict parser, a
//! compact and a pretty writer, and the [`ToJson`]/[`FromJson`] traits that
//! domain types implement by hand.
//!
//! Conventions follow serde's defaults so the files look familiar: structs
//! are objects keyed by field name, unit enum variants are strings, and data
//! variants are single-key objects (`{"Pareto": {"scale": …, "shape": …}}`).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A JSON number with no fractional part or exponent, stored exactly.
    /// `i128` covers the full `u64` and `i64` ranges, so 64-bit seeds and
    /// slots roundtrip without the 2^53 precision cliff of `f64`.
    Integer(i128),
    /// Any other JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Keys are kept sorted for deterministic output.
    Object(BTreeMap<String, JsonValue>),
}

impl PartialEq for JsonValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (JsonValue::Null, JsonValue::Null) => true,
            (JsonValue::Bool(a), JsonValue::Bool(b)) => a == b,
            (JsonValue::Integer(a), JsonValue::Integer(b)) => a == b,
            (JsonValue::Number(a), JsonValue::Number(b)) => a == b,
            // Integral floats and integers compare numerically, so a value
            // written as `5` and reparsed compares equal to `Number(5.0)`.
            (JsonValue::Integer(i), JsonValue::Number(f))
            | (JsonValue::Number(f), JsonValue::Integer(i)) => *i as f64 == *f,
            (JsonValue::String(a), JsonValue::String(b)) => a == b,
            (JsonValue::Array(a), JsonValue::Array(b)) => a == b,
            (JsonValue::Object(a), JsonValue::Object(b)) => a == b,
            _ => false,
        }
    }
}

/// Error produced by [`JsonValue::parse`] and the [`FromJson`] impls.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a JSON document. The whole input must be consumed.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing characters at byte {}",
                parser.pos
            )));
        }
        Ok(value)
    }

    /// Convenience constructor for an object.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Field of an object, if this is an object and the field exists.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Field of an object, as a [`FromJson`] error when missing.
    pub fn field(&self, key: &str) -> Result<&JsonValue, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            JsonValue::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Integer(i) => u64::try_from(*i).ok(),
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Integer(i) => write_display(out, i),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

/// Appends `value`'s `Display` form to `out` without an intermediate
/// `String`.
fn write_display(out: &mut String, value: impl fmt::Display) {
    use fmt::Write;
    write!(out, "{value}").expect("writing to a String cannot fail");
}

/// Writes a number: integral values without a fractional part, everything
/// else through the shortest roundtrip representation Rust provides.
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; fall back to null like serde_json does.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write_display(out, n as i64);
    } else {
        let start = out.len();
        write_display(out, n);
        // `{}` on f64 prints integral values without a decimal point; add
        // one so the value reparses as a float.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets one hostile line
/// overflow the stack; the repo's own documents nest fewer than 10 deep.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
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
            Err(JsonError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(JsonError::new(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    /// Parses one array or object one nesting level down, failing past
    /// [`MAX_DEPTH`] instead of recursing further.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid utf-8 in number"))?;
        // Integer-looking tokens keep full 64-bit+ precision.
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(JsonValue::Integer(i));
            }
        }
        let n = text
            .parse::<f64>()
            .map_err(|_| JsonError::new(format!("invalid number `{text}`")))?;
        if !n.is_finite() {
            // JSON has no Inf/NaN; an overflowing literal is a malformed
            // document, not an infinite value.
            return Err(JsonError::new(format!("number out of range `{text}`")));
        }
        Ok(JsonValue::Number(n))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.parse_u_escape()?;
                            let code = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: must be followed by a
                                // \uDC00..DFFF low surrogate; combine them.
                                if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 2) != Some(&b'u')
                                {
                                    return Err(JsonError::new("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self.parse_u_escape()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(JsonError::new("invalid low surrogate"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError::new("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(JsonError::new("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume a maximal run of unescaped bytes and validate
                    // it as UTF-8 once — validating from `pos` to the end of
                    // the document per character would make parsing
                    // quadratic, which multi-megabyte trace exports turn
                    // into hours.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| JsonError::new("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape; on entry `pos` is at the
    /// `u`, on exit at the last hex digit.
    fn parse_u_escape(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| JsonError::new("invalid \\u escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| JsonError::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

/// Types that can serialize themselves into a [`JsonValue`].
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> JsonValue;
}

/// Types that can reconstruct themselves from a [`JsonValue`].
pub trait FromJson: Sized {
    /// Parses `value` into `Self`.
    ///
    /// # Errors
    /// Returns a [`JsonError`] describing the first mismatch.
    fn from_json(value: &JsonValue) -> Result<Self, JsonError>;
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::new("expected bool"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Number(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value
            .as_f64()
            .ok_or_else(|| JsonError::new("expected number"))
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::Integer(*self as i128)
            }
        }
        impl FromJson for $t {
            fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
                value
                    .as_u64()
                    .and_then(|v| <$t>::try_from(v).ok())
                    .ok_or_else(|| JsonError::new("expected unsigned integer"))
            }
        }
    )*};
}

impl_json_uint!(u64, u32, usize);

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(v) => v.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        match value {
            JsonValue::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compound_document() {
        let doc = JsonValue::object([
            ("name", JsonValue::String("trace \"x\"\n".into())),
            ("count", JsonValue::Number(42.0)),
            ("ratio", JsonValue::Number(0.125)),
            ("flag", JsonValue::Bool(true)),
            ("nothing", JsonValue::Null),
            (
                "items",
                JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(-2.5)]),
            ),
        ]);
        for text in [doc.to_compact_string(), doc.to_pretty_string()] {
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back, doc, "failed for {text}");
        }
    }

    #[test]
    fn numbers_roundtrip_exactly() {
        for n in [0.0, 1.0, -1.0, 1e-9, 1234567.875, 9.0e14, 0.1 + 0.2] {
            let text = JsonValue::Number(n).to_compact_string();
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back.as_f64(), Some(n), "failed for {text}");
        }
    }

    #[test]
    fn numbers_write_exact_strings() {
        // The exact bytes, not just a roundtrip: fingerprints and cache
        // store lines hash and compare these strings.
        let tiny = format!("0.{}5", "0".repeat(323));
        let table: &[(f64, &str)] = &[
            (0.0, "0"),
            (-0.0, "0"),
            (1.0, "1"),
            (-2.5, "-2.5"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e-7, "0.0000001"),
            // The integral cut: below 9e15 integral floats print as
            // integers, from 9e15 on with a `.0`.
            (8_999_999_999_999_999.0, "8999999999999999"),
            (9.0e15, "9000000000000000.0"),
            (-9.0e15, "-9000000000000000.0"),
            (1e21, "1000000000000000000000.0"),
            (5e-324, &tiny),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ];
        for &(n, text) in table {
            assert_eq!(JsonValue::Number(n).to_compact_string(), text, "{n:e}");
        }
        for i in [0, -1, i128::MAX, i128::MIN, u64::MAX as i128] {
            assert_eq!(JsonValue::Integer(i).to_compact_string(), i.to_string());
        }
        assert_eq!(
            JsonValue::Integer(i128::MIN).to_compact_string(),
            "-170141183460469231731687303715884105728"
        );
    }

    #[test]
    fn malformed_documents_error() {
        for text in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "not json", "\"abc"] {
            assert!(JsonValue::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        // Each level is one recursion; 100 000 would overflow the stack.
        let deep = "[".repeat(100_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(JsonValue::parse(&objects).is_err());
        // Exactly MAX_DEPTH levels still parse.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(JsonValue::parse(&over).is_err());
    }

    #[test]
    fn accessors() {
        let doc = JsonValue::parse(r#"{"a": 3, "b": "x", "c": [1], "d": true}"#).unwrap();
        assert_eq!(doc.field("a").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("c").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(doc.get("d").unwrap().as_bool(), Some(true));
        assert!(doc.field("missing").is_err());
        assert!(doc.get("a").unwrap().as_str().is_none());
    }

    #[test]
    fn primitive_tojson_fromjson_roundtrip() {
        assert_eq!(u64::from_json(&42u64.to_json()).unwrap(), 42);
        assert_eq!(f64::from_json(&1.5f64.to_json()).unwrap(), 1.5);
        assert_eq!(
            String::from_json(&"hi".to_string().to_json()).unwrap(),
            "hi"
        );
        assert_eq!(
            Vec::<u32>::from_json(&vec![1u32, 2].to_json()).unwrap(),
            vec![1, 2]
        );
        assert_eq!(Option::<f64>::from_json(&JsonValue::Null).unwrap(), None);
        assert_eq!(
            Option::<f64>::from_json(&Some(2.0).to_json()).unwrap(),
            Some(2.0)
        );
        assert!(u32::from_json(&JsonValue::Number(-1.0)).is_err());
    }

    #[test]
    fn large_u64_values_roundtrip_exactly() {
        // Above 2^53 an f64 can no longer represent every integer; seeds and
        // slots are u64, so the Integer variant must carry them exactly.
        for v in [(1u64 << 53) + 1, u64::MAX, u64::MAX - 1] {
            let text = v.to_json().to_compact_string();
            let back = u64::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            assert_eq!(back, v, "lost precision for {v}");
        }
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        // U+1F600 as the escaped surrogate pair a standard `ensure_ascii`
        // JSON writer produces.
        let parsed = JsonValue::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("😀"));
        // Unpaired or malformed surrogates are rejected, not mangled.
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
        assert!(JsonValue::parse(r#""\ud83dA""#).is_err());
        // A lone low surrogate is also invalid.
        assert!(JsonValue::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn overflowing_number_literals_are_rejected() {
        assert!(JsonValue::parse("1e999").is_err());
        assert!(JsonValue::parse("-1e999").is_err());
        // Large but representable stays fine.
        assert!(JsonValue::parse("1e308").is_ok());
    }

    #[test]
    fn integer_and_float_forms_compare_numerically() {
        assert_eq!(JsonValue::Integer(5), JsonValue::Number(5.0));
        assert_ne!(JsonValue::Integer(5), JsonValue::Number(5.5));
        let five = JsonValue::parse("5").unwrap();
        assert!(matches!(five, JsonValue::Integer(5)));
        assert_eq!(five.as_f64(), Some(5.0));
    }

    #[test]
    fn unicode_strings_survive() {
        let doc = JsonValue::String("µ → σ ✓".into());
        let back = JsonValue::parse(&doc.to_compact_string()).unwrap();
        assert_eq!(back, doc);
        let escaped = JsonValue::parse(r#""µ""#).unwrap();
        assert_eq!(escaped.as_str(), Some("µ"));
    }
}
