//! The JSON records of the command payload path, and the coordinate
//! blocks they carry.
//!
//! Command specs and outputs, project configs and reports, and the
//! controller images the server journals cross process boundaries as
//! `serde_json::Value` documents. Each is a struct declared once with
//! [`record!`], which writes the struct and both directions of its
//! codec from the one field list: a field's JSON key is its name, its
//! encoding is its type's [`Field`] spelling unless an `as` names a
//! [`Codec`], and `= default` (or a trailing `default;` for the whole
//! record) says what an absent or null key reads as. An `Option` reads
//! an absent key as `None` and writes `None` as null.
//!
//! Bulk `f64` data — a frame, a trajectory's times — is a **coordinate
//! block** ([`Block`]): one JSON string holding the little-endian bytes
//! of the floats, base64-encoded (RFC 4648, standard alphabet, padded).
//! A frame of `n` beads is one block of `3n` floats (`x, y, z` per bead,
//! 32 characters a bead). A block needs no escaping, so the JSON writer,
//! the WAL and the wire copy it instead of printing and parsing one
//! decimal float per coordinate — trajectory payloads dominate
//! server↔worker bandwidth (Fig. 9 of the paper) — and it round-trips
//! every bit, NaN payloads, ±0 and ±inf included. Series meant to be
//! read (report rows, ladders) stay decimal arrays, a `Vec<f64>`'s own
//! spelling.
//!
//! Hand-written codecs remain only for shapes that are not records: the
//! enums spelled as strings or tagged objects (`SimBox`), and maps or
//! tuples spelled as lists of objects. Checks that need the whole record
//! (lengths that must agree, bounds) run after the read, in the
//! function a record names with `check`.
//!
//! Decoding is total: any input yields `Err`, never a panic, and the
//! decoder allocates no more than the string it reads backs. Errors are
//! formatted only when a read fails.

use crate::vec3::Vec3;
pub use serde_json::{Map, Value};
use std::marker::PhantomData;

// ------------------------------------------------------------ records

/// A type with one JSON spelling of its own: numbers and booleans as
/// themselves (`usize` as an unsigned integer, a non-finite `f64` as
/// null), `Vec`s as arrays, an `Option` as null when `None`, a
/// [`record!`] as an object.
pub trait Field: Sized {
    fn put(&self) -> Value;
    fn get(v: &Value) -> Result<Self, String>;
    /// What an absent key reads as; `None` makes the key required.
    fn absent() -> Option<Self> {
        None
    }
}

/// How a record field of type `T` is spelled, when its type alone does
/// not say: the encoding a [`record!`] field names after `as`.
pub trait Codec<T> {
    fn put(x: &T) -> Value;
    fn get(v: &Value) -> Result<T, String>;
    /// What an absent key reads as; `None` makes the key required.
    fn absent() -> Option<T> {
        None
    }
    /// Whether the record leaves `x`'s key out.
    fn omit(_x: &T) -> bool {
        false
    }
}

/// The field type's own [`Field`] spelling (no `as`).
pub struct Auto;

/// A coordinate block: a `Vec<f64>` as one block of its floats, a
/// `Vec<Vec3>` (a frame) as one block of `3n`.
pub struct Block;

/// A JSON array whose elements are spelled by `C` (`List<Block>`: a
/// frame list).
pub struct List<C>(PhantomData<C>);

/// A flag written only when set; absent reads as false.
pub struct Flag;

/// State kept out of the record, never written: a read sets the field
/// to its declared `= default`, for the record's `check` (derived
/// tables) or its owner (a controller's model and archive) to fill.
pub struct Skip;

impl<T: Field> Codec<T> for Auto {
    fn put(x: &T) -> Value {
        x.put()
    }
    fn get(v: &Value) -> Result<T, String> {
        T::get(v)
    }
    fn absent() -> Option<T> {
        T::absent()
    }
}

impl Codec<Vec<f64>> for Block {
    fn put(x: &Vec<f64>) -> Value {
        f64_block_to_value(x)
    }
    fn get(v: &Value) -> Result<Vec<f64>, String> {
        f64_block_from_value(v)
    }
}

impl Codec<Vec<Vec3>> for Block {
    fn put(x: &Vec<Vec3>) -> Value {
        frame_to_value(x)
    }
    fn get(v: &Value) -> Result<Vec<Vec3>, String> {
        frame_from_value(v)
    }
}

impl<T, C: Codec<T>> Codec<Vec<T>> for List<C> {
    fn put(x: &Vec<T>) -> Value {
        Value::Array(x.iter().map(C::put).collect())
    }
    fn get(v: &Value) -> Result<Vec<T>, String> {
        v.as_array()
            .ok_or("not an array")?
            .iter()
            .map(C::get)
            .collect()
    }
}

impl Codec<bool> for Flag {
    fn put(x: &bool) -> Value {
        Value::Bool(*x)
    }
    fn get(v: &Value) -> Result<bool, String> {
        bool::get(v)
    }
    fn absent() -> Option<bool> {
        Some(false)
    }
    fn omit(x: &bool) -> bool {
        !x
    }
}

impl<T> Codec<T> for Skip {
    fn put(_: &T) -> Value {
        Value::Null
    }
    fn get(_: &Value) -> Result<T, String> {
        Err("derived state is not read".into())
    }
    fn omit(_: &T) -> bool {
        true
    }
}

impl Field for f64 {
    fn put(&self) -> Value {
        Value::from(*self)
    }
    fn get(v: &Value) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| "not a number".into())
    }
}

impl Field for u64 {
    fn put(&self) -> Value {
        Value::from(*self)
    }
    fn get(v: &Value) -> Result<u64, String> {
        v.as_u64().ok_or_else(|| "not an unsigned integer".into())
    }
}

impl Field for usize {
    fn put(&self) -> Value {
        Value::from(*self as u64)
    }
    fn get(v: &Value) -> Result<usize, String> {
        u64::get(v).map(|n| n as usize)
    }
}

impl Field for bool {
    fn put(&self) -> Value {
        Value::Bool(*self)
    }
    fn get(v: &Value) -> Result<bool, String> {
        v.as_bool().ok_or_else(|| "not a bool".into())
    }
}

impl Field for String {
    fn put(&self) -> Value {
        Value::from(self.as_str())
    }
    fn get(v: &Value) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "not a string".into())
    }
}

/// Opaque metadata (a command's `tag`): any JSON; absent reads as null.
impl Field for Value {
    fn put(&self) -> Value {
        self.clone()
    }
    fn get(v: &Value) -> Result<Value, String> {
        Ok(v.clone())
    }
    fn absent() -> Option<Value> {
        Some(Value::Null)
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::put)
    }
    fn get(v: &Value) -> Result<Option<T>, String> {
        match v {
            Value::Null => Ok(None),
            v => T::get(v).map(Some),
        }
    }
    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self) -> Value {
        Value::Array(self.iter().map(T::put).collect())
    }
    fn get(v: &Value) -> Result<Vec<T>, String> {
        List::<Auto>::get(v)
    }
}

/// Write field `key` of a record, unless `C` omits it (used by
/// [`record!`]).
#[doc(hidden)]
pub fn put_field<T, C: Codec<T>>(record: &mut Map<String, Value>, key: &str, x: &T) {
    if !C::omit(x) {
        record.insert(key.to_string(), C::put(x));
    }
}

/// Read field `key` of `record`: an absent or null key reads as
/// `default` when one is declared, else as what `C` reads an absent key
/// as, else is an error naming the key. [`record!`] reads every field
/// with it, and so do hand-written codecs of objects that are not
/// records.
pub fn get_field<T, C: Codec<T>>(
    record: &Value,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match record.get(key) {
        Some(v) if !v.is_null() => C::get(v).map_err(|e| format!("field `{key}`: {e}")),
        found => default.or_else(C::absent).ok_or_else(|| match found {
            Some(_) => format!("field `{key}` is null"),
            None => format!("missing field `{key}`"),
        }),
    }
}

/// Declare a JSON record: a struct, its `to_value`/`from_value` pair and
/// its [`Field`] impl, from one field list.
///
/// ```
/// # use mdsim::jsonv::{self, Block};
/// # use mdsim::Vec3;
/// jsonv::record! {
///     /// A segment's payload.
///     #[derive(Debug)]
///     pub struct Segment {
///         pub start: Vec<Vec3> as Block,
///         pub temperature: f64,
///         pub stride: usize = 1,
///         pub energy: Option<f64>,
///     }
///     check Segment::validate;
/// }
/// impl Segment {
///     fn validate(&self) -> Result<(), String> {
///         if self.stride == 0 { Err("stride must be >= 1".into()) } else { Ok(()) }
///     }
/// }
/// let s = Segment::from_value(&serde_json::json!({"start": "", "temperature": 0.5})).unwrap();
/// assert_eq!((s.stride, s.energy), (1, None));
/// assert_eq!(s.to_value().to_string(), r#"{"energy":null,"start":"","stride":1,"temperature":0.5}"#);
/// ```
///
/// Each field is `name: Type`, then optionally `as Codec` (else
/// [`Auto`]) and `= default`. After the struct, `default;` makes every
/// absent key read as that field of `Self::default()`, and `check path;`
/// names a `fn(&mut Self) -> Result<(), String>` (or `&Self`) run on
/// every read. `from_value` rejects a document that is not an object.
#[macro_export]
macro_rules! __jsonv_record {
    (@codec) => { $crate::jsonv::Auto };
    (@codec $c:ty) => { $c };
    (@default $defaults:ident default $f:ident) => { Some($defaults.$f) };
    (@default $defaults:ident none $f:ident) => { None };
    (@default $defaults:ident $_mode:ident $f:ident $d:expr) => { Some($d) };
    (@defaults default) => { <Self as Default>::default() };
    (@defaults none) => { () };
    (@trailer $head:tt $_mode:ident [$($check:path)?] default; $($rest:tt)*) => {
        $crate::jsonv::record!(@trailer $head default [$($check)?] $($rest)*);
    };
    (@trailer $head:tt $mode:ident [] check $check:path; $($rest:tt)*) => {
        $crate::jsonv::record!(@trailer $head $mode [$check] $($rest)*);
    };
    (@trailer [
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $f:ident : $t:ty $(as $c:ty)? $(= $d:expr)?
            ),* $(,)?
        }
    ] $mode:ident [$($check:path)?]) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $f: $t,)*
        }

        impl $name {
            pub fn to_value(&self) -> $crate::jsonv::Value {
                let mut record = $crate::jsonv::Map::new();
                $($crate::jsonv::put_field::<$t, $crate::jsonv::record!(@codec $($c)?)>(
                    &mut record, stringify!($f), &self.$f);)*
                $crate::jsonv::Value::Object(record)
            }

            pub fn from_value(v: &$crate::jsonv::Value) -> Result<Self, String> {
                if !v.is_object() {
                    return Err(concat!(stringify!($name), " is not an object").into());
                }
                #[allow(unused_variables)]
                let defaults = $crate::jsonv::record!(@defaults $mode);
                #[allow(unused_mut)]
                let mut record = $name {
                    $($f: $crate::jsonv::get_field::<$t, $crate::jsonv::record!(@codec $($c)?)>(
                        v, stringify!($f), $crate::jsonv::record!(@default defaults $mode $f $($d)?),
                    )?,)*
                };
                $($check(&mut record)?;)?
                Ok(record)
            }
        }

        impl $crate::jsonv::Field for $name {
            fn put(&self) -> $crate::jsonv::Value {
                self.to_value()
            }
            fn get(v: &$crate::jsonv::Value) -> Result<Self, String> {
                Self::from_value(v)
            }
        }
    };
    ($(#[$meta:meta])* $vis:vis struct $name:ident { $($body:tt)* } $($trailer:tt)*) => {
        $crate::jsonv::record!(
            @trailer [$(#[$meta])* $vis struct $name { $($body)* }] none [] $($trailer)*
        );
    };
}

pub use crate::__jsonv_record as record;

// ------------------------------------------------------------ f64 blocks

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Sextet of each alphabet byte; `INVALID` for every other byte.
const INVALID: u8 = 0xff;
const SEXTET: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Base64 of `bytes`, padded.
fn base64(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    let sextet = |n: u32, shift: u32| ALPHABET[((n >> shift) & 63) as usize];
    let mut groups = bytes.chunks_exact(3);
    for g in &mut groups {
        let n = u32::from(g[0]) << 16 | u32::from(g[1]) << 8 | u32::from(g[2]);
        out.extend_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), sextet(n, 0)]);
    }
    match *groups.remainder() {
        [a] => {
            let n = u32::from(a) << 16;
            out.extend_from_slice(&[sextet(n, 18), sextet(n, 12), b'=', b'=']);
        }
        [a, b] => {
            let n = u32::from(a) << 16 | u32::from(b) << 8;
            out.extend_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), b'=']);
        }
        _ => {}
    }
    // Every byte pushed is from the ASCII alphabet or `=`.
    String::from_utf8(out).expect("base64 is ASCII")
}

/// The bytes a padded base64 string spells. Only the canonical
/// spelling is accepted (padding only at the end, zero spare bits), so
/// every byte string has exactly one block.
fn unbase64(text: &str) -> Result<Vec<u8>, String> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(format!(
            "block of {} characters is not a whole number of base64 quads",
            text.len()
        ));
    }
    let pad = text.iter().rev().take_while(|&&c| c == b'=').count();
    if pad > 2 {
        return Err("block has more than two padding characters".into());
    }
    let body = &text[..text.len() - pad];
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let mut acc = 0u32;
    for (i, &c) in body.iter().enumerate() {
        let s = SEXTET[c as usize];
        if s == INVALID {
            return Err(format!("byte {c:#04x} at {i} is not base64"));
        }
        acc = acc << 6 | u32::from(s);
        if i % 4 == 3 {
            out.extend_from_slice(&[(acc >> 16) as u8, (acc >> 8) as u8, acc as u8]);
            acc = 0;
        }
    }
    // A padded quad carries one or two bytes; the bits past them must be
    // zero.
    let (bytes, spare) = match pad {
        1 => (2, 2),
        2 => (1, 4),
        _ => (0, 0),
    };
    if acc & ((1 << spare) - 1) != 0 {
        return Err("block has non-zero bits in its padding".into());
    }
    let acc = acc >> spare;
    for k in (0..bytes).rev() {
        out.push((acc >> (8 * k)) as u8);
    }
    Ok(out)
}

/// A block of `xs`: their little-endian bytes, base64, as a JSON
/// string.
fn block(xs: impl Iterator<Item = f64>, len: usize) -> Value {
    let mut bytes = Vec::with_capacity(len * 8);
    for x in xs {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    Value::String(base64(&bytes))
}

/// The bytes of a block, which must hold whole `unit`-byte items.
fn block_bytes(v: &Value, unit: usize, what: &str) -> Result<Vec<u8>, String> {
    let text = v
        .as_str()
        .ok_or_else(|| format!("{what} is not a coordinate block (a base64 string)"))?;
    let bytes = unbase64(text)?;
    if !bytes.len().is_multiple_of(unit) {
        return Err(format!(
            "{what} block of {} bytes is not a whole number of {unit}-byte items",
            bytes.len()
        ));
    }
    Ok(bytes)
}

/// Float `i` of a block's bytes.
fn f64_at(bytes: &[u8], i: usize) -> f64 {
    f64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
}

/// `xs` as one f64 block (bit-exact, non-finite values included).
pub fn f64_block_to_value(xs: &[f64]) -> Value {
    block(xs.iter().copied(), xs.len())
}

pub fn f64_block_from_value(v: &Value) -> Result<Vec<f64>, String> {
    let bytes = block_bytes(v, 8, "f64 list")?;
    Ok(bytes.chunks_exact(8).map(|b| f64_at(b, 0)).collect())
}

/// One frame as one block of `3n` floats.
pub fn frame_to_value(frame: &[Vec3]) -> Value {
    block(frame.iter().flat_map(|p| [p.x, p.y, p.z]), 3 * frame.len())
}

pub fn frame_from_value(v: &Value) -> Result<Vec<Vec3>, String> {
    let bytes = block_bytes(v, 24, "frame")?;
    Ok(bytes
        .chunks_exact(24)
        .map(|b| Vec3::new(f64_at(b, 0), f64_at(b, 1), f64_at(b, 2)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;
    use crate::{Checkpoint, SimBox, State, Trajectory};
    use copernicus_testkit::{record_sweep, Gen, Record};
    use serde_json::json;

    #[test]
    fn vec3_roundtrip() {
        let b = crate::SimBox::ortho(1.5, 2.0, 0.25);
        assert_eq!(b.put().to_string(), r#"{"box":"ortho","l":[1.5,2.0,0.25]}"#);
        assert_eq!(crate::SimBox::get(&b.put()).unwrap(), b);
        assert!(crate::SimBox::get(&json!({"box": "ortho", "l": [1.0, 2.0]})).is_err());
    }

    #[test]
    fn frames_roundtrip() {
        let frames = vec![
            vec![v3(0.0, 0.0, 0.0), v3(1.0, 2.0, 3.0)],
            vec![v3(4.0, 5.0, 6.0), v3(7.0, 8.0, 9.0)],
        ];
        let v = List::<Block>::put(&frames);
        assert_eq!(
            <List<Block> as Codec<Vec<Vec<Vec3>>>>::get(&v).unwrap(),
            frames
        );
    }

    #[test]
    fn base64_matches_rfc_4648_vectors() {
        let vectors = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, encoded) in vectors {
            assert_eq!(base64(plain.as_bytes()), encoded);
            assert_eq!(unbase64(encoded).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn a_bead_is_32_characters_and_a_block_is_plain_json() {
        let frame = vec![v3(1.0, -0.0, f64::NAN); 5];
        let v = frame_to_value(&frame);
        let text = v.as_str().unwrap();
        assert_eq!(text.len(), 5 * 32);
        assert_eq!(serde_json::to_string(&v).unwrap().len(), text.len() + 2);
        let back = frame_from_value(&v).unwrap();
        assert_eq!(back.len(), 5);
        assert!(back[4].z.is_nan() && back[4].y.to_bits() == (-0.0f64).to_bits());
    }

    #[test]
    fn field_errors_name_the_key() {
        let v = json!({"a": 1, "s": "x", "n": null});
        let get = |key| get_field::<u64, Auto>(&v, key, None);
        assert!(get("b").unwrap_err().contains("`b`"));
        assert!(get("s").unwrap_err().contains("`s`"));
        assert!(get("n").unwrap_err().contains("`n`"));
        assert_eq!(get("a"), Ok(1));
        assert_eq!(get_field::<f64, Auto>(&v, "a", None), Ok(1.0));
        assert_eq!(get_field::<u64, Auto>(&v, "b", Some(7)), Ok(7));
    }

    #[test]
    fn optional_fields() {
        let v = json!({"x": 2.5, "n": Value::Null, "s": "text"});
        let get = |key| get_field::<Option<f64>, Auto>(&v, key, None);
        assert_eq!(get("x"), Ok(Some(2.5)));
        assert_eq!(get("n"), Ok(None));
        assert_eq!(get("absent"), Ok(None));
        assert!(get("s").is_err(), "a wrong type is not an absent value");
        assert_eq!(
            get_field::<Value, Auto>(&v, "absent", None),
            Ok(Value::Null)
        );
        assert_eq!(get_field::<bool, Flag>(&v, "absent", None), Ok(false));
        let mut record = Map::new();
        put_field::<bool, Flag>(&mut record, "f", &false);
        put_field::<Option<f64>, Auto>(&mut record, "o", &None);
        assert_eq!(Value::Object(record).to_string(), r#"{"o":null}"#);
    }

    #[test]
    fn scalar_lists_roundtrip() {
        let xs = vec![0.5, 1.5, 2.5];
        assert_eq!(xs.put().to_string(), "[0.5,1.5,2.5]");
        assert_eq!(Vec::<f64>::get(&xs.put()).unwrap(), xs);
        assert_eq!(
            <Block as Codec<Vec<f64>>>::get(&Block::put(&xs)).unwrap(),
            xs
        );
        let ns = vec![3usize, 1, 4];
        assert_eq!(ns.put().to_string(), "[3,1,4]");
        assert_eq!(Vec::<usize>::get(&ns.put()).unwrap(), ns);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(frame_from_value(&json!("nope")).is_err());
        assert!(Vec::<f64>::get(&json!({"a": 1})).is_err());
        assert!(Vec::<u64>::get(&json!([1, 2.5])).is_err());
        // The decimal spelling of a frame is not a frame any more.
        assert!(frame_from_value(&json!([[1.0, 2.0, 3.0]])).is_err());
        assert!(<List<Block> as Codec<Vec<Vec<Vec3>>>>::get(&json!([[1.0, 2.0, 3.0]])).is_err());
        assert!(f64_block_from_value(&json!([0.5])).is_err());
    }

    /// A coordinate, now and then one a decimal could not carry.
    pub(crate) fn coord(g: &mut Gen) -> f64 {
        match g.usize_in(0..16) {
            0 => f64::NAN,
            1 => -0.0,
            2 => f64::NEG_INFINITY,
            _ => g.f64_in(-50.0..50.0),
        }
    }

    pub(crate) fn frame(g: &mut Gen, beads: usize) -> Vec<Vec3> {
        g.vec(beads..beads + 1, |g| v3(coord(g), coord(g), coord(g)))
    }

    fn state(g: &mut Gen) -> State {
        let n = g.usize_in(0..5);
        State {
            positions: frame(g, n),
            velocities: frame(g, n),
            forces: frame(g, n),
            masses: g.vec(n..n + 1, |g| g.f64_in(0.1..10.0)),
            sim_box: match g.usize_in(0..2) {
                0 => SimBox::Open,
                _ => SimBox::ortho(g.f64_in(1.0..9.0), g.f64_in(1.0..9.0), g.f64_in(1.0..9.0)),
            },
            step: g.u64(),
            time: g.f64_in(0.0..1e6),
        }
    }

    pub(crate) fn trajectory(g: &mut Gen) -> Trajectory {
        let (beads, mut t) = (g.usize_in(0..4), g.f64_in(0.0..10.0));
        let mut traj = Trajectory::new();
        for _ in 0..g.usize_in(0..5) {
            t += g.f64_in(0.0..2.0);
            traj.push(t, frame(g, beads));
        }
        traj
    }

    #[test]
    fn declared_records_sweep() {
        let required = |_: &str| None;
        record_sweep(
            "jsonv_state",
            64,
            Record {
                random: &state,
                to_value: State::to_value,
                from_value: State::from_value,
                absent: &required,
                opaque: &[],
            },
        );
        record_sweep(
            "jsonv_checkpoint",
            64,
            Record {
                random: &|g| Checkpoint {
                    state: state(g),
                    step: g.u64(),
                    rng_reseed: g.u64(),
                },
                to_value: Checkpoint::to_value,
                from_value: Checkpoint::from_value,
                absent: &required,
                opaque: &[],
            },
        );
        record_sweep(
            "jsonv_trajectory",
            64,
            Record {
                random: &trajectory,
                to_value: Trajectory::to_value,
                from_value: Trajectory::from_value,
                absent: &required,
                opaque: &[],
            },
        );
    }
}
