//! Hand-rolled JSON codec helpers for the command payload path.
//!
//! Command specs, outputs and controller snapshots cross process
//! boundaries as `serde_json::Value` documents. The codecs here build
//! and parse those documents explicitly — using only the `Value`
//! accessor surface — so the payload path has one canonical wire shape
//! that is independent of derive-generated field layouts.
//!
//! The documents are JSON text with **coordinate blocks**: bulk `f64`
//! data — a frame, a trajectory's times — is one JSON string holding
//! the little-endian bytes of the floats, base64-encoded (RFC 4648,
//! standard alphabet, padded). A frame of `n` beads is one block of
//! `3n` floats (`x, y, z` per bead, 32 characters a bead). A block
//! needs no escaping, so the JSON writer, the WAL and the wire copy it
//! instead of printing and parsing one decimal float per coordinate —
//! trajectory payloads dominate server↔worker bandwidth (Fig. 9 of the
//! paper) — and it round-trips every bit, NaN payloads, ±0 and ±inf
//! included. Series meant to be read (report rows, ladders) stay
//! decimal arrays ([`f64s_to_value`]).
//!
//! Decoding is total: any input yields `Err`, never a panic, and the
//! decoder allocates no more than the string it reads backs.

use crate::vec3::Vec3;
use serde_json::Value;

/// Look up a required field, with the offending key in the error.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

/// Required f64 field.
pub fn num(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

/// Required unsigned integer field.
pub fn int(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not an integer"))
}

/// Required boolean field.
pub fn boolean(v: &Value, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a bool"))
}

/// Optional f64 field (absent or null → `None`).
pub fn opt_num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(|f| f.as_f64())
}

/// Optional unsigned integer field (absent or null → `None`).
pub fn opt_int(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(|f| f.as_u64())
}

/// One vector as a decimal `[x, y, z]` (box lengths, not frames).
pub fn vec3_to_value(p: Vec3) -> Value {
    Value::from(vec![p.x, p.y, p.z])
}

pub fn vec3_from_value(v: &Value) -> Result<Vec3, String> {
    let a = v.as_array().ok_or("coordinate is not an array")?;
    if a.len() != 3 {
        return Err(format!("coordinate has {} components, want 3", a.len()));
    }
    let c = |i: usize| -> Result<f64, String> {
        a[i].as_f64()
            .ok_or_else(|| "coordinate component is not a number".to_string())
    };
    Ok(Vec3::new(c(0)?, c(1)?, c(2)?))
}

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

/// A frame list as `[frame block, ...]`.
pub fn frames_to_value(frames: &[Vec<Vec3>]) -> Value {
    Value::from(frames.iter().map(|f| frame_to_value(f)).collect::<Vec<_>>())
}

pub fn frames_from_value(v: &Value) -> Result<Vec<Vec<Vec3>>, String> {
    v.as_array()
        .ok_or("frames is not an array")?
        .iter()
        .map(frame_from_value)
        .collect()
}

// -------------------------------------------------------- decimal lists

/// A decimal array, for series people read.
pub fn f64s_to_value(xs: &[f64]) -> Value {
    Value::from(xs.to_vec())
}

pub fn f64s_from_value(v: &Value) -> Result<Vec<f64>, String> {
    v.as_array()
        .ok_or("expected an array of numbers")?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| "non-numeric element".to_string()))
        .collect()
}

pub fn usizes_to_value(xs: &[usize]) -> Value {
    Value::from(xs.iter().map(|&x| x as u64).collect::<Vec<_>>())
}

pub fn usizes_from_value(v: &Value) -> Result<Vec<usize>, String> {
    v.as_array()
        .ok_or("expected an array of integers")?
        .iter()
        .map(|x| {
            x.as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| "non-integer element".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;
    use serde_json::json;

    #[test]
    fn vec3_roundtrip() {
        let p = v3(1.5, -2.0, 0.25);
        let v = vec3_to_value(p);
        assert_eq!(vec3_from_value(&v).unwrap(), p);
    }

    #[test]
    fn frames_roundtrip() {
        let frames = vec![
            vec![v3(0.0, 0.0, 0.0), v3(1.0, 2.0, 3.0)],
            vec![v3(4.0, 5.0, 6.0), v3(7.0, 8.0, 9.0)],
        ];
        let v = frames_to_value(&frames);
        assert_eq!(frames_from_value(&v).unwrap(), frames);
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
        let v = json!({"a": 1});
        assert!(field(&v, "b").unwrap_err().contains("`b`"));
        assert!(num(&v, "a").is_ok());
        assert!(int(&v, "a").is_ok());
    }

    #[test]
    fn optional_fields() {
        let v = json!({"x": 2.5, "n": Value::Null});
        assert_eq!(opt_num(&v, "x"), Some(2.5));
        assert_eq!(opt_num(&v, "n"), None);
        assert_eq!(opt_num(&v, "absent"), None);
        assert_eq!(opt_int(&v, "absent"), None);
    }

    #[test]
    fn scalar_lists_roundtrip() {
        let xs = vec![0.5, 1.5, 2.5];
        assert_eq!(f64s_from_value(&f64s_to_value(&xs)).unwrap(), xs);
        assert_eq!(f64_block_from_value(&f64_block_to_value(&xs)).unwrap(), xs);
        let ns = vec![3usize, 1, 4];
        assert_eq!(usizes_from_value(&usizes_to_value(&ns)).unwrap(), ns);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(vec3_from_value(&json!([1.0, 2.0])).is_err());
        assert!(frame_from_value(&json!("nope")).is_err());
        assert!(f64s_from_value(&json!({"a": 1})).is_err());
        // The decimal spelling of a frame is not a frame any more.
        assert!(frame_from_value(&json!([[1.0, 2.0, 3.0]])).is_err());
        assert!(f64_block_from_value(&json!([0.5])).is_err());
    }
}
