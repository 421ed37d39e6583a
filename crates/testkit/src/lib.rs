//! Seeded property sweeps: a property runs on [`CASES`] generated inputs,
//! every input is a pure function of `(COPERNICUS_TEST_SEED, property
//! name, case index)`, and a failing case prints all three before the
//! assertion's own message — so `COPERNICUS_TEST_SEED=<seed> cargo test
//! <name>` replays it. The convention is the one the chaos, codec and
//! wire-framing suites use; the CI seed matrix sweeps every suite built
//! on it.

use serde_json::Value;
use std::ops::Range;

/// Cases per property unless the property says otherwise.
pub const CASES: usize = 256;

/// The sweep seed: `COPERNICUS_TEST_SEED`, default `0xC0FFEE`.
pub fn seed() -> u64 {
    std::env::var("COPERNICUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Input generator for one case (a SplitMix64 stream).
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen(seed)
    }

    pub fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[range.start, range.end)`.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        range.start + (range.end - range.start) * self.unit()
    }

    /// Uniform in `[range.start, range.end)`; the range must not be empty.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.u64() % (range.end - range.start)
    }

    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// A vector whose length is drawn from `len`, filled by `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| item(self)).collect()
    }
}

/// Names the failing case when a property panics.
struct Replay<'a> {
    name: &'a str,
    seed: u64,
    case: usize,
}

impl Drop for Replay<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property `{}` failed at case {} with COPERNICUS_TEST_SEED={}",
                self.name, self.case, self.seed
            );
        }
    }
}

/// Run `property` on `cases` generated inputs. A property that cannot
/// use an input just returns.
pub fn sweep(name: &str, cases: usize, property: impl Fn(&mut Gen)) {
    let seed = seed();
    // Properties draw from unrelated streams even under one seed.
    let stream = name.bytes().fold(seed, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    for case in 0..cases {
        let _replay = Replay { name, seed, case };
        // Scrambled once, so neighbouring cases do not draw shifted
        // copies of one stream.
        property(&mut Gen::new(Gen::new(stream ^ case as u64).u64()));
    }
}

/// One JSON record type under [`record_sweep`]: how to draw a value of
/// it, its `to_value`/`from_value` pair, what each key reads as when it
/// is absent (`None`: the key is required), and which keys take any
/// JSON (opaque metadata such as a command's tag).
pub struct Record<'a, T> {
    pub random: &'a dyn Fn(&mut Gen) -> T,
    pub to_value: fn(&T) -> Value,
    pub from_value: fn(&Value) -> Result<T, String>,
    pub absent: &'a dyn Fn(&str) -> Option<Value>,
    pub opaque: &'a [&'a str],
}

/// The property sweep every declared JSON record passes, `cases` values
/// drawn by `record.random`:
///
/// - writing, reading the text back and writing again gives the same
///   text;
/// - a key left out reads as it does written as its declared default
///   (the same record, or the same error from the record's checks), and
///   a required key left out is an error;
/// - a field of the wrong JSON type, a coordinate block cut short, and a
///   document that is not an object are errors.
///
/// None of these may panic.
pub fn record_sweep<T>(name: &str, cases: usize, record: Record<T>) {
    let reread = |doc: &Value| (record.from_value)(doc).map(|r| (record.to_value)(&r).to_string());
    sweep(name, cases, |g| {
        let value = (record.to_value)(&(record.random)(g));
        let text = value.to_string();
        let parsed: Value = serde_json::from_str(&text).expect("a record prints as JSON");
        assert_eq!(reread(&parsed).as_deref(), Ok(text.as_str()), "round trip");
        assert!(
            (record.from_value)(&Value::Array(vec![])).is_err(),
            "not an object"
        );
        let fields = value.as_object().expect("a record is an object");
        for (key, field) in fields {
            let mut doc = value.clone();
            let without = doc
                .as_object_mut()
                .unwrap()
                .remove(key)
                .map(|_| doc.clone());
            match (record.absent)(key) {
                Some(default) => {
                    doc[key.as_str()] = default;
                    let absent = reread(&without.unwrap());
                    assert_eq!(absent, reread(&doc), "`{key}` absent reads as its default");
                }
                None => assert!(reread(&without.unwrap()).is_err(), "`{key}` is required"),
            }
            if !record.opaque.contains(&key.as_str()) {
                let mut doc = value.clone();
                doc[key.as_str()] = if field.as_str().is_some() {
                    Value::Bool(true)
                } else {
                    "wrong".into()
                };
                assert!(reread(&doc).is_err(), "`{key}` of the wrong type");
            }
        }
        // Coordinate blocks anywhere outside opaque keys, cut short.
        let mut blocks = Vec::new();
        for (key, field) in fields {
            if !record.opaque.contains(&key.as_str()) {
                block_paths(field, &mut vec![key.clone()], &mut blocks);
            }
        }
        for _ in 0..blocks.len().min(4) {
            let path = &blocks[g.usize_in(0..blocks.len())];
            let mut doc = value.clone();
            let leaf = path
                .iter()
                .fold(&mut doc, |v, step| match step.parse::<usize>() {
                    Ok(i) if v.as_array().is_some() => &mut v[i],
                    _ => &mut v[step.as_str()],
                });
            let text = leaf.as_str().unwrap().to_string();
            let cut = g.usize_in(1..5).min(text.len());
            *leaf = Value::from(&text[..text.len() - cut]);
            assert!(reread(&doc).is_err(), "block at {path:?} cut by {cut}");
        }
    });
}

/// Paths (object keys and array indices) of the strings under `v` that
/// spell a non-empty coordinate block: padded base64 of whole `f64`s.
fn block_paths(v: &Value, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    let mut visit = |step: String, child: &Value| {
        path.push(step);
        block_paths(child, path, out);
        path.pop();
    };
    match v {
        Value::Array(items) => items
            .iter()
            .enumerate()
            .for_each(|(i, c)| visit(i.to_string(), c)),
        Value::Object(fields) => fields.iter().for_each(|(k, c)| visit(k.clone(), c)),
        Value::String(s) => {
            let b = s.as_bytes();
            let pad = b.iter().rev().take_while(|&&c| c == b'=').count();
            let base64 = |c: &u8| c.is_ascii_alphanumeric() || *c == b'+' || *c == b'/';
            if !b.is_empty()
                && b.len() % 4 == 0
                && pad <= 2
                && b[..b.len() - pad].iter().all(base64)
                && (b.len() / 4 * 3 - pad) % 8 == 0
            {
                out.push(path.clone());
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn cases_are_reproducible_distinct_and_in_range() {
        let draws = |name: &str| {
            let seen = RefCell::new(Vec::new());
            sweep(name, 64, |g| {
                let x = g.f64_in(-2.0..3.0);
                let n = g.usize_in(4..9);
                let v = g.vec(0..5, |g| g.u64_in(10..12));
                assert!((-2.0..3.0).contains(&x) && (4..9).contains(&n));
                assert!(v.len() < 5 && v.iter().all(|e| (10..12).contains(e)));
                seen.borrow_mut().push((x.to_bits(), n, v));
            });
            seen.into_inner()
        };
        let a = draws("a");
        assert_eq!(a, draws("a"));
        assert_ne!(a, draws("b"));
        let mut distinct = a.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
    }

    #[test]
    fn a_failing_case_still_panics() {
        let failed = std::panic::catch_unwind(|| sweep("fails", 8, |g| assert!(g.unit() < 0.0)));
        assert!(failed.is_err());
    }
}
