//! [`Json`]: an object builder over [`serde_json::Value`], kept for the
//! benchmark harness's result documents (`benchmark/src`), which are
//! written with it. Everything in this workspace reads and writes JSON
//! through `serde_json` directly; this type has no parser and no
//! getters.

use serde_json::{Map, Value};
use std::fmt;

/// A JSON document under construction: `object()`, then `set` members.
pub struct Json(Value);

impl Json {
    pub fn object() -> Json {
        Json(Value::Object(Map::new()))
    }

    /// Insert into an object; panics if `self` is not an object (a
    /// programming error in the caller, never data-dependent).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match &mut self.0 {
            Value::Object(map) => {
                map.insert(key.to_string(), value.into().0);
            }
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    /// Pretty-printed encoding with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        format!("{:#}", self.0)
    }
}

macro_rules! from_scalar {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json(Value::from(v))
            }
        }
    )*};
}

from_scalar!(bool, u32, u64, usize, i64, f64, &str, String);

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json(Value::Array(v.into_iter().map(|j| j.0).collect()))
    }
}

/// Compact single-line encoding (`to_string()`).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// The builder, then the workspace's JSON implementation itself: round
/// trips, the writer's escapes, long strings in linear time, garbage and
/// deep nesting rejected, `u64` precision, and a seeded property that
/// random value trees survive a write and a parse, compact or pretty,
/// unchanged. (Its companion, that no mangled WAL record body panics the
/// parser, is in `core::wal`.)
#[cfg(test)]
mod tests {
    use super::*;
    use copernicus_testkit::{sweep, Gen, CASES};
    use serde_json::json;

    #[test]
    fn builds_objects_compact_and_pretty() {
        let mut doc = Json::object();
        doc.set("n", 3u32)
            .set("ok", true)
            .set("xs", vec![Json::from(0.5), Json::from("a")]);
        assert_eq!(doc.to_string(), r#"{"n":3,"ok":true,"xs":[0.5,"a"]}"#);
        assert_eq!(
            doc.to_string_pretty(),
            "{\n  \"n\": 3,\n  \"ok\": true,\n  \"xs\": [\n    0.5,\n    \"a\"\n  ]\n}"
        );
    }

    fn parse(text: &str) -> serde_json::Result<Value> {
        serde_json::from_str(text)
    }

    fn roundtrip(v: &Value) -> Value {
        parse(&v.to_string()).unwrap()
    }

    #[test]
    fn roundtrip_compact() {
        let obj = json!({
            "name": "dispatch_latency",
            "count": 42u64,
            "mean": 1.5,
            "neg": -3i64,
            "ok": true,
            "none": null,
            "tags": ["a", "b"],
        });
        assert_eq!(roundtrip(&obj), obj);
    }

    #[test]
    fn parses_nested_and_pretty() {
        let v = parse(r#"{"a": [1, 2.5, {"b": "x\ny"}], "c": null}"#).unwrap();
        assert_eq!(v["a"].as_array().unwrap().len(), 3);
        assert_eq!(v["a"][2]["b"].as_str(), Some("x\ny"));
        assert_eq!(parse(&format!("{v:#}")).unwrap(), v);
    }

    #[test]
    fn escapes_control_characters() {
        let v = json!("tab\there \"quote\" \u{1}");
        assert_eq!(roundtrip(&v), v);
    }

    /// The string reader copies unescaped runs whole; every way a run can
    /// end (escape, `\u`, multi-byte scalar, raw control byte, end of
    /// string) must decode exactly.
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
            let v = json!(case);
            assert_eq!(roundtrip(&v), v, "{case:?}");
        }
        // The writer's spelling is part of the WAL's on-disk format.
        assert_eq!(
            json!("a\"b\\c\n\r\t\u{1}\u{1f}\u{7f}é🦀").to_string(),
            "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\u{7f}é🦀\""
        );
        // Spellings the writer never produces.
        assert_eq!(
            parse(r#""é\/\b\f raw	tab""#).unwrap(),
            json!("é/\u{8}\u{c} raw\ttab")
        );
        assert_eq!(
            parse(r#""\ud800""#).unwrap(),
            json!("\u{fffd}"),
            "lone surrogates map to U+FFFD"
        );
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse(r#""bad \x escape""#).is_err());
        assert!(parse(r#""short \u12"#).is_err());
    }

    /// A 4 MiB string (a controller image inside a WAL record) parses in
    /// time linear in its length.
    #[test]
    fn four_mib_string_roundtrips_quickly() {
        let unit = "0.123456789,\"k\":[1,2,3]\\n é ";
        let v = json!(unit.repeat((4 << 20) / unit.len() + 1));
        let text = v.to_string();
        let t0 = std::time::Instant::now();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "string reader is not linear: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["{", "[1,]", "12 34", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// Documents arrive off disk and off the wire: nesting deeper than the
    /// parser allows is an error, not a stack overflow.
    #[test]
    fn rejects_nesting_too_deep_without_overflowing() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let shallow = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&shallow).is_ok());
    }

    #[test]
    fn u64_precision_preserved() {
        let big = u64::MAX - 1;
        assert_eq!(roundtrip(&json!(big)).as_u64(), Some(big));
    }

    /// A string drawing on everything the writer escapes or copies raw.
    fn random_string(g: &mut Gen) -> String {
        const PALETTE: [char; 12] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\u{1}', '\u{7f}', 'é', '🦀',
        ];
        let n = g.usize_in(0..12);
        (0..n)
            .map(|_| match g.usize_in(0..4) {
                0 => char::from_u32(g.u64_in(0..0xD800) as u32).unwrap(),
                _ => PALETTE[g.usize_in(0..PALETTE.len())],
            })
            .collect()
    }

    /// A value tree at most `depth` containers deep.
    fn random_value(g: &mut Gen, depth: usize) -> Value {
        let kinds = if depth == 0 { 6 } else { 8 };
        match g.usize_in(0..kinds) {
            0 => Value::Null,
            1 => Value::Bool(g.u64() & 1 == 1),
            2 => json!(g.u64() >> g.u64_in(0..64)),
            3 => json!(-((g.u64() >> 1) as i64) - 1),
            4 => {
                let x = f64::from_bits(g.u64());
                if x.is_finite() {
                    json!(x)
                } else {
                    json!(g.f64_in(-1e6..1e6))
                }
            }
            5 => json!(random_string(g)),
            6 => Value::Array(g.vec(0..5, |g| random_value(g, depth - 1))),
            _ => {
                let n = g.usize_in(0..5);
                let members = (0..n).map(|_| (random_string(g), random_value(g, depth - 1)));
                Value::Object(members.collect::<Map<String, Value>>())
            }
        }
    }

    #[test]
    fn random_value_trees_survive_write_and_parse() {
        sweep("json_value_roundtrip", CASES, |g| {
            let depth = g.usize_in(0..8);
            let v = random_value(g, depth);
            let compact = v.to_string();
            assert_eq!(parse(&compact).unwrap(), v, "{compact}");
            assert_eq!(parse(&format!("{v:#}")).unwrap(), v, "{v:#}");
            // The writer is deterministic: a re-parse writes the same text.
            assert_eq!(parse(&compact).unwrap().to_string(), compact);
        });
    }
}
