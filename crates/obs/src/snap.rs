//! The one bit-exact codec for every JSONL line emvolt writes and later
//! reads back: the backend's record trace, the engine's checkpoint, the
//! campaign snapshots inside it and the backends' rig-state pairs.
//!
//! The vendored JSON number path cannot carry every value (`-0.0`, NaN
//! payloads and integers past 2^53 lose their bit pattern), and replay
//! and resume promise `to_bits()`-level equality with the original run.
//! So every `f64` crosses as the 16-hex-digit form of its IEEE-754 bits
//! ([`hex`]), and every `u64` that may pass 2^53 — RNG words, counter
//! totals, fingerprints — as 16 hex digits too ([`hex_u64`]). [`Bits`]
//! is that form as a plain string, for request keys and rig pairs. Small
//! counts stay JSON numbers.

use serde::{DeError, Deserialize, Value};
use std::fmt;

/// A `u64` shown as its 16 lowercase hex digits: the one hex-bits form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bits(pub u64);

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Parses a hex bit string written through [`Bits`].
///
/// # Errors
///
/// [`DeError`] when `s` is not a hex `u64`.
pub fn parse_bits(s: &str) -> Result<u64, DeError> {
    u64::from_str_radix(s, 16).map_err(|e| DeError::new(format!("bad bit string `{s}`: {e}")))
}

/// Encodes an `f64` as its bit pattern in hex (bit-exact, NaN-safe).
pub fn hex(v: f64) -> Value {
    hex_u64(v.to_bits())
}

/// Decodes an `f64` written by [`hex`].
///
/// # Errors
///
/// [`DeError`] when the value is not a hex bit string.
pub fn unhex(v: &Value) -> Result<f64, DeError> {
    Ok(f64::from_bits(unhex_u64(v)?))
}

/// Encodes a `u64` as hex (exact past 2^53, unlike `Value::Num`).
pub fn hex_u64(n: u64) -> Value {
    Value::Str(Bits(n).to_string())
}

/// Decodes a `u64` written by [`hex_u64`].
///
/// # Errors
///
/// [`DeError`] when the value is not a hex string.
pub fn unhex_u64(v: &Value) -> Result<u64, DeError> {
    match v {
        Value::Str(s) => parse_bits(s),
        other => Err(DeError::new(format!(
            "expected string, found {}",
            other.kind()
        ))),
    }
}

/// Encodes a generator's four state words (`StdRng::state`).
pub fn hex_words(words: [u64; 4]) -> Value {
    Value::Arr(words.into_iter().map(hex_u64).collect())
}

/// Decodes state words written by [`hex_words`].
///
/// # Errors
///
/// [`DeError`] unless the value is an array of four hex strings.
pub fn unhex_words(v: &Value) -> Result<[u64; 4], DeError> {
    let [a, b, c, d] = tuple(v)?;
    Ok([unhex_u64(a)?, unhex_u64(b)?, unhex_u64(c)?, unhex_u64(d)?])
}

/// Builds an object value from borrowed field names.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Looks up a required object field.
///
/// # Errors
///
/// [`DeError`] when `v` is not an object or lacks `key`.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, DeError> {
    v.field_value(key)
}

/// Views a value as an array.
///
/// # Errors
///
/// [`DeError`] when `v` is not an array.
pub fn arr(v: &Value) -> Result<&[Value], DeError> {
    match v {
        Value::Arr(items) => Ok(items),
        other => Err(DeError::new(format!(
            "expected array, found {}",
            other.kind()
        ))),
    }
}

/// Views a value as an array of exactly `N` items (pairs, triples).
///
/// # Errors
///
/// [`DeError`] when `v` is not an array of `N` items.
pub fn tuple<const N: usize>(v: &Value) -> Result<&[Value; N], DeError> {
    let items = arr(v)?;
    items.try_into().map_err(|_| {
        DeError::new(format!(
            "expected array of {N} elements, found {}",
            items.len()
        ))
    })
}

/// Views a value as an object's entries, in file order.
///
/// # Errors
///
/// [`DeError`] when `v` is not an object.
pub fn entries(v: &Value) -> Result<&[(String, Value)], DeError> {
    match v {
        Value::Obj(entries) => Ok(entries),
        other => Err(DeError::new(format!(
            "expected object, found {}",
            other.kind()
        ))),
    }
}

/// Reads a required `usize` field (small integers only; exact in `f64`).
///
/// # Errors
///
/// [`DeError`] when the field is absent or not a non-negative integer.
pub fn usize_field(v: &Value, key: &str) -> Result<usize, DeError> {
    let n = f64::from_value(field(v, key)?)?;
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        return Err(DeError::new(format!("field `{key}`: `{n}` is not a size")));
    }
    Ok(n as usize)
}

/// Serializes a raw [`Value`] tree to one JSON line.
pub fn to_line(v: &Value) -> String {
    serde_json::value_to_string(v)
}

/// Parses one JSON line into a raw [`Value`] tree.
///
/// # Errors
///
/// [`DeError`] on malformed JSON.
pub fn parse_line(line: &str) -> Result<Value, DeError> {
    serde_json::value_from_str(line).map_err(|e| DeError::new(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_awkward_floats() {
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            9_007_199_254_740_993.0_f64, // 2^53 + 1 rounded; still bit-exact
            -1.5e-300,
        ] {
            let back = unhex(&hex(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
    }

    #[test]
    fn u64_round_trips_past_2_53() {
        for n in [0u64, 1, u64::MAX, (1 << 53) + 1, 0xE110_CAFE] {
            assert_eq!(unhex_u64(&hex_u64(n)).unwrap(), n);
            assert_eq!(parse_bits(&Bits(n).to_string()).unwrap(), n);
        }
        assert_eq!(Bits(0x2a).to_string(), "000000000000002a");
    }

    #[test]
    fn words_round_trip_and_need_four() {
        let words = [u64::MAX, 0, 1 << 63, 7];
        assert_eq!(unhex_words(&hex_words(words)).unwrap(), words);
        let three = Value::Arr(vec![hex_u64(1), hex_u64(2), hex_u64(3)]);
        assert!(unhex_words(&three).is_err());
    }

    #[test]
    fn line_round_trips_nested_values() {
        let v = obj(vec![
            ("a", hex(-0.0)),
            ("b", Value::Arr(vec![Value::Num(1.0), Value::Null])),
        ]);
        let back = parse_line(&to_line(&v)).unwrap();
        assert_eq!(to_line(&back), to_line(&v));
    }

    #[test]
    fn usize_field_rejects_fractions() {
        let v = obj(vec![("n", Value::Num(1.5))]);
        assert!(usize_field(&v, "n").is_err());
        let v = obj(vec![("n", Value::Num(7.0))]);
        assert_eq!(usize_field(&v, "n").unwrap(), 7);
    }

    #[test]
    fn shape_helpers_name_what_they_found() {
        let pair = Value::Arr(vec![Value::Null, Value::Bool(true)]);
        assert!(tuple::<2>(&pair).is_ok());
        assert!(tuple::<3>(&pair).is_err());
        assert!(entries(&pair).unwrap_err().to_string().contains("array"));
        assert!(arr(&Value::Null).unwrap_err().to_string().contains("null"));
    }
}
