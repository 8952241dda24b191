//! Minimal hand-rolled JSON emission and parsing.
//!
//! The workspace builds without crates.io access, so JSON is written (and
//! read back) by hand rather than through serde_json. Only the small
//! surface the exporters and the benchmark harness need: string escaping,
//! an object/array writer over a private `String` buffer, and a
//! recursive-descent parser ([`parse`]) used to load baseline documents
//! and to round-trip-validate every document the workspace emits.
//! Numbers are emitted with enough precision for microsecond timestamps
//! (`{:.3}`); non-finite floats degrade to `0`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape `s` into a JSON string literal (without surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Incremental writer for one JSON object or array level. Tracks whether a
/// comma is needed; values are appended through the typed methods.
///
/// The buffer is private by design: raw pushes bypass the comma state and
/// produce malformed documents (this exact bug shipped a malformed
/// `BENCH_threads.json` before [`JsonWriter::field_bool`] existed). Every
/// value kind the workspace emits has a typed method.
pub struct JsonWriter {
    buf: String,
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> Self {
        JsonWriter {
            buf: String::new(),
            needs_comma: Vec::new(),
        }
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    pub fn begin_array(&mut self) {
        self.pre_value();
        self.buf.push('[');
        self.needs_comma.push(false);
    }

    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.buf.push(']');
    }

    pub fn begin_object(&mut self) {
        self.pre_value();
        self.buf.push('{');
        self.needs_comma.push(false);
    }

    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.buf.push('}');
    }

    pub fn key(&mut self, k: &str) {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
        // The value that follows is part of this key-value pair, not a new
        // element, so suppress the comma the value writer would add.
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
    }

    pub fn string(&mut self, s: &str) {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, s);
        self.buf.push('"');
    }

    pub fn uint(&mut self, v: u64) {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
    }

    pub fn boolean(&mut self, v: bool) {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Float with microsecond-grade precision; NaN/inf degrade to 0.
    /// Values that round to zero at 3 decimals lose their sign — `-0.0`
    /// (e.g. a clipped-interval sum) must not emit as `-0.000`.
    pub fn float(&mut self, v: f64) {
        self.pre_value();
        if v.is_finite() {
            let v = if v > -0.0005 && v <= 0.0 { 0.0 } else { v };
            let _ = write!(self.buf, "{v:.3}");
        } else {
            self.buf.push('0');
        }
    }

    /// Convenience: `"key": "value"` string field.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.string(v);
    }

    pub fn field_uint(&mut self, k: &str, v: u64) {
        self.key(k);
        self.uint(v);
    }

    pub fn field_float(&mut self, k: &str, v: f64) {
        self.key(k);
        self.float(v);
    }

    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.boolean(v);
    }

    /// A 64-bit pattern as a 16-hex-digit string, not a number: the
    /// parser stores numbers as `f64`, which cannot hold one (read back
    /// with [`JsonValue::opt_hex`]).
    pub fn field_hex(&mut self, k: &str, v: u64) {
        self.field_str(k, &format!("{v:016x}"));
    }

    /// A name → number map as an object (read back with
    /// [`JsonValue::req_f64_map`]).
    pub fn field_f64_map(&mut self, k: &str, map: &BTreeMap<String, f64>) {
        self.key(k);
        self.begin_object();
        for (name, v) in map {
            self.field_float(name, *v);
        }
        self.end_object();
    }

    pub fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unbalanced begin/end");
        self.buf
    }
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers are `f64` — sufficient for every document
/// the workspace emits (3-decimal floats and counts far below 2^53).
/// Full 64-bit patterns do not fit, so every document carries
/// `modeled_time_bits` and fingerprints as hex *strings*
/// ([`JsonValue::opt_hex`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object member lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Required string member `key`; the error names the key. The
    /// `req_*` family is what every document parser in this crate reads
    /// its fields with.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing string field '{key}'"))
    }

    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric field '{key}'"))
    }

    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing integer field '{key}'"))
    }

    pub fn req_bool(&self, key: &str) -> Result<bool, String> {
        self.get(key)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("missing boolean field '{key}'"))
    }

    pub fn req_obj(&self, key: &str) -> Result<&BTreeMap<String, JsonValue>, String> {
        self.get(key)
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| format!("missing '{key}' object"))
    }

    pub fn req_arr(&self, key: &str) -> Result<&[JsonValue], String> {
        self.get(key)
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("missing array field '{key}'"))
    }

    /// Required object member `key` of numbers, as a map.
    pub fn req_f64_map(&self, key: &str) -> Result<BTreeMap<String, f64>, String> {
        self.req_obj(key)?
            .iter()
            .map(|(name, v)| {
                v.as_f64()
                    .map(|x| (name.clone(), x))
                    .ok_or_else(|| format!("{key} '{name}' not a number"))
            })
            .collect()
    }

    /// Optional member `key` holding a 64-bit pattern as 16 hex digits —
    /// how bit patterns and fingerprints travel, since numbers here are
    /// `f64`. `Ok(None)` when absent.
    pub fn opt_hex(&self, key: &str) -> Result<Option<u64>, String> {
        self.get(key)
            .map(|v| {
                v.as_str()
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad hex in '{key}'"))
            })
            .transpose()
    }
}

/// A parse failure with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonParseError {
    pub pos: usize,
    pub msg: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonParseError {}

/// Parse a complete JSON document (trailing garbage is an error).
pub fn parse(s: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonParseError {
        JsonParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, JsonParseError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonParseError> {
        let got = self.peek()?;
        if got != c {
            return Err(self.err(format!("expected '{}', got '{}'", c as char, got as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true").map(|_| JsonValue::Bool(true)),
            b'f' => self.literal("false").map(|_| JsonValue::Bool(false)),
            b'n' => self.literal("null").map(|_| JsonValue::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonParseError> {
        self.skip_ws();
        if !self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            return Err(self.err(format!("expected literal '{lit}'")));
        }
        self.pos += lit.len();
        Ok(())
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                c => return Err(self.err(format!("expected ',' or '}}', got '{}'", c as char))),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                c => return Err(self.err(format!("expected ',' or ']', got '{}'", c as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err(format!("bad \\u escape '{hex}'")))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos = end;
                        }
                        e => return Err(self.err(format!("unsupported escape \\{}", e as char))),
                    }
                }
                c => {
                    // Multi-byte UTF-8: copy the raw continuation bytes.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                            self.pos += 1;
                        }
                        let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?;
                        out.push_str(chunk);
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse()
            .map(JsonValue::Num)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_chars() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn writes_nested_structure() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "x");
        w.key("items");
        w.begin_array();
        w.uint(1);
        w.uint(2);
        w.end_array();
        w.field_float("t", 1.5);
        w.end_object();
        assert_eq!(w.finish(), r#"{"name":"x","items":[1,2],"t":1.500}"#);
    }

    #[test]
    fn non_finite_floats_degrade_to_zero() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.float(f64::NAN);
        w.float(f64::INFINITY);
        w.end_array();
        assert_eq!(w.finish(), "[0,0]");
    }

    #[test]
    fn negative_zero_emits_unsigned() {
        // A clipped-interval sum can produce -0.0; "-0.000" is valid
        // JSON but reads as a bug in every report that embeds it.
        let mut w = JsonWriter::new();
        w.begin_array();
        w.float(-0.0);
        w.float(-0.0004);
        w.float(-0.001);
        w.end_array();
        assert_eq!(w.finish(), "[0.000,0.000,-0.001]");
    }

    #[test]
    fn bool_fields_keep_comma_state() {
        // Regression: the threads experiment used to push `true` past the
        // writer, so the following key lacked its separating comma.
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_bool("a", true);
        w.field_bool("b", false);
        w.field_uint("c", 1);
        w.end_object();
        let text = w.finish();
        assert_eq!(text, r#"{"a":true,"b":false,"c":1}"#);
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn parses_every_value_kind() {
        let doc = r#"{"s":"x\n\"y\"","n":-1.5e2,"b":[true,false,null],"o":{},"u":7}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\n\"y\""));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(-150.0));
        assert_eq!(v.get("u").and_then(JsonValue::as_u64), Some(7));
        let arr = v.get("b").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[2], JsonValue::Null);
        assert!(v.get("o").and_then(JsonValue::as_obj).unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            r#"{"a":1 "b":2}"#, // the missing-comma bug this PR fixes
            r#"{"a":1,}"#,
            r#"[1,2"#,
            r#"{"a"}"#,
            r#"truefalse"#,
            r#"{"a":1} x"#,
            "",
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn parse_reports_error_position() {
        let err = parse(r#"{"a":1 "b":2}"#).unwrap_err();
        assert_eq!(err.pos, 7);
        assert!(err.to_string().contains("byte 7"));
    }

    #[test]
    fn writer_output_round_trips_through_parser() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "weird \"name\"\\with\nescapes");
        w.field_bool("flag", true);
        w.key("xs");
        w.begin_array();
        w.float(1.25);
        w.uint(u64::MAX);
        w.end_array();
        w.end_object();
        let text = w.finish();
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("name").and_then(JsonValue::as_str),
            Some("weird \"name\"\\with\nescapes")
        );
        assert_eq!(v.get("flag").and_then(JsonValue::as_bool), Some(true));
    }
}
