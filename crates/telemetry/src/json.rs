//! Minimal JSON value type, writer, and recursive-descent parser.
//!
//! This crate deliberately has no dependencies (it sits under the MD
//! inner loop), so it carries its own small JSON layer instead of
//! serde_json. Only what telemetry snapshots and journal export need:
//! objects, arrays, strings, f64/u64/i64 numbers, bools, null.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Object keys are ordered (BTreeMap) so snapshots are
/// deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Unsigned integers keep full u64 precision (counter values).
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn object() -> Json {
        Json::Object(BTreeMap::new())
    }

    /// Insert into an object; panics if `self` is not an object (a
    /// programming error inside this crate, never data-dependent).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Object(map) => {
                map.insert(key.to_string(), value.into());
            }
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) if v >= 0 => Some(v as u64),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 => Some(v as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::U64(v) => i64::try_from(v).ok(),
            Json::I64(v) => Some(v),
            Json::F64(v) if v.fract() == 0.0 => Some(v as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Pretty-printed encoding with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
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
            Json::Object(map) => {
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

    /// Parse a JSON document (full input must be consumed, modulo
    /// trailing whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters"));
        }
        Ok(value)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_nan() || v.is_infinite() {
        // JSON has no NaN/Inf; null is the least-surprising encoding.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{:.1}", v);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Everything that needs escaping is ASCII, so the text between two
    // escapes is copied as one slice (results and controller images
    // travel through here as strings: mostly digits, few escapes).
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: &str) -> JsonError {
        JsonError {
            offset,
            message: message.to_string(),
        }
    }
}

/// Compact single-line encoding (`to_string()`); see
/// [`Json::to_string_pretty`] for the indented one.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(
                self.pos,
                &format!("expected '{}'", byte as char),
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, &format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(JsonError::at(self.pos, "expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(start..start + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError::at(self.pos, "bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::at(self.pos, "bad \\u escape"))?;
                            // Surrogate pairs are not needed for telemetry
                            // payloads; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::at(self.pos, "bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash in one slice: both are ASCII, so the run
                    // ends on a char boundary, and the string costs time
                    // linear in its length (WAL records carry whole
                    // results and controller images as strings).
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| JsonError::at(start, "invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at(start, "invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError::at(start, "invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let mut obj = Json::object();
        obj.set("name", "dispatch_latency")
            .set("count", 42u64)
            .set("mean", 1.5)
            .set("neg", -3i64)
            .set("ok", true)
            .set("none", Json::Null)
            .set("tags", Json::Array(vec![Json::from("a"), Json::from("b")]));
        let text = obj.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn parses_nested_and_pretty() {
        let text = r#"{"a": [1, 2.5, {"b": "x\ny"}], "c": null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        let pretty = v.to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("tab\there \"quote\" \u{1}".to_string());
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    /// The string reader copies unescaped runs whole; every way a run
    /// can end (escape, `\u`, multi-byte scalar, raw control byte, end
    /// of string) must decode exactly as the per-character reader did.
    #[test]
    fn string_runs_escapes_and_multibyte_roundtrip() {
        let cases = [
            "",
            "plain ascii",
            "\"",
            "\\",
            "a\"b\\c/d",
            "line\nfeed\rreturn\ttab\u{8}bs\u{c}ff",
            "ünïcödé ✓ 🦀 mixed with \"quotes\" and \\slashes\\",
            "\u{1}\u{1f}raw controls",
            "trailing backslash\\",
            "🦀",
        ];
        for case in cases {
            let v = Json::Str(case.to_string());
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{case:?}");
        }
        // The writer's spelling is part of the WAL's on-disk format.
        assert_eq!(
            Json::Str("a\"b\\c\n\r\t\u{1}\u{1f}\u{7f}é🦀".to_string()).to_string(),
            "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\u{7f}é🦀\""
        );
        // Spellings the writer never produces.
        assert_eq!(
            Json::parse(r#""é\/\b\f raw	tab""#).unwrap(),
            Json::Str("é/\u{8}\u{c} raw\ttab".to_string())
        );
        assert_eq!(
            Json::parse(r#""\ud800""#).unwrap(),
            Json::Str("\u{fffd}".to_string()),
            "lone surrogates still map to U+FFFD"
        );
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse(r#""bad \x escape""#).is_err());
        assert!(Json::parse(r#""short \u12"#).is_err());
    }

    /// A 4 MiB string (a controller image inside a WAL record) parses in
    /// time linear in its length: the per-character reader re-validated
    /// the rest of the input at every character and took minutes here.
    #[test]
    fn four_mib_string_roundtrips_quickly() {
        let unit = "0.123456789,\"k\":[1,2,3]\\n é ";
        let big: String = unit.repeat((4 << 20) / unit.len() + 1);
        let v = Json::Str(big);
        let text = v.to_string();
        let t0 = std::time::Instant::now();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "string reader is not linear: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn u64_precision_preserved() {
        let big = u64::MAX - 1;
        let text = Json::U64(big).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(big));
    }
}
