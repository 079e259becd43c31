//! Offline `serde` subset: one JSON codec.
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of serde it uses: `#[derive(serde::Serialize)]` plus a
//! [`Serialize`] trait that renders **canonical JSON** (object keys in
//! declaration order, no whitespace, `\u` escapes for control
//! characters), and its mirror `#[derive(serde::Deserialize)]` plus a
//! [`Deserialize`] trait that reads a parsed [`Json`] tree back. Enum
//! representation matches serde's external tagging:
//!
//! * unit variant → `"Name"`
//! * newtype variant → `{"Name":value}`
//! * struct/tuple variant → `{"Name":{...}}` / `{"Name":[...]}`
//!
//! Canonical output matters here: the campaign engine content-addresses
//! cached analyses by hashing exactly these bytes, so a decoded value
//! re-encodes to the bytes it was read from.
//!
//! Deviations from real serde: no data-format abstraction (JSON only),
//! no lifetimes on [`Deserialize`] (a `&'static str` is interned), and
//! decoding ignores unknown object keys but never fills in a missing one.

#![forbid(unsafe_code)]

// Let macro-generated `::serde::` paths resolve inside this crate's own
// tests as well as in downstream crates.
extern crate self as serde;

mod json;

pub use json::Json;
pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Mutex, OnceLock};

/// JSON serialization, serde-compatible in shape.
pub trait Serialize {
    /// Append this value's JSON rendering to `out`.
    fn write_json(&self, out: &mut String);

    /// This value's JSON rendering as an owned string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Escape and append one JSON string body (no surrounding quotes).
pub fn escape_into(s: &str, out: &mut String) {
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
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(self, out);
        out.push('"');
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! impl_serialize_display {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}

impl_serialize_display!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // Always include a decimal point so the value re-parses as
            // floating-point.
            let s = format!("{self}");
            out.push_str(&s);
            if !s.contains('.') && !s.contains('e') {
                out.push_str(".0");
            }
        } else {
            out.push_str("null");
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.write_json(out),
        }
    }
}

fn write_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

fn write_map<'a, K: AsRef<str> + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        k.as_ref().write_json(out);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

impl<K: AsRef<str> + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        write_map(self.iter(), out);
    }
}

impl<K: AsRef<str> + Ord + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn write_json(&self, out: &mut String) {
        // Deterministic output regardless of hasher state.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        write_map(entries.into_iter(), out);
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$n.write_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
    )*};
}

impl_serialize_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// JSON deserialization: the mirror of [`Serialize::write_json`].
pub trait Deserialize: Sized {
    /// Decode a value from its parsed JSON form.
    ///
    /// # Errors
    ///
    /// A description of the first value of the wrong shape.
    fn read_json(v: &Json) -> Result<Self, String>;
}

/// Decode the field `name` of the object `obj`. A missing field is an
/// error (the encoder always writes every field, `null` included).
///
/// # Errors
///
/// `obj` is not an object, lacks `name`, or its value does not decode.
pub fn read_field<T: Deserialize>(obj: &Json, name: &str) -> Result<T, String> {
    let fields = obj
        .as_obj()
        .ok_or_else(|| format!("expected an object with field `{name}`"))?;
    let (_, v) = fields
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .ok_or_else(|| format!("missing field `{name}`"))?;
    T::read_json(v).map_err(|e| format!("`{name}`: {e}"))
}

/// The elements of a JSON array that must hold exactly `arity` values
/// (a tuple struct or tuple variant).
///
/// # Errors
///
/// `v` is not an array of that length.
pub fn read_tuple(v: &Json, arity: usize) -> Result<&[Json], String> {
    match v.as_arr() {
        Some(items) if items.len() == arity => Ok(items),
        _ => Err(format!("expected an array of {arity} elements")),
    }
}

/// Split an externally tagged enum value into its variant name and
/// payload: `"Name"` gives no payload, `{"Name":value}` gives `value`.
///
/// # Errors
///
/// Anything else, including an object with more than one key.
pub fn read_variant(v: &Json) -> Result<(&str, Option<&Json>), String> {
    match v {
        Json::Str(name) => Ok((name, None)),
        Json::Obj(fields) => match fields.as_slice() {
            [(name, payload)] => Ok((name, Some(payload))),
            _ => Err("an enum object must have exactly one variant key".into()),
        },
        _ => Err("expected an enum variant (string or one-key object)".into()),
    }
}

impl Deserialize for String {
    fn read_json(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".into())
    }
}

/// Decoded strings are interned in a process-global pool, so decoding
/// the same text again (say, reloading a cache) returns the same
/// allocation instead of leaking a new one.
impl Deserialize for &'static str {
    fn read_json(v: &Json) -> Result<Self, String> {
        let s = v.as_str().ok_or("expected a string")?;
        static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
        let mut pool = POOL.get_or_init(Default::default).lock().unwrap();
        if let Some(&existing) = pool.get(s) {
            return Ok(existing);
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        pool.insert(leaked);
        Ok(leaked)
    }
}

impl Deserialize for bool {
    fn read_json(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "expected a bool".into())
    }
}

macro_rules! impl_deserialize_unsigned {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn read_json(v: &Json) -> Result<Self, String> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| format!("expected a {}", stringify!($t)))
            }
        }
    )*};
}

impl_deserialize_unsigned!(u32, u64, usize);

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::read_json(v).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(v: &Json) -> Result<Self, String> {
        let items = v.as_arr().ok_or("expected an array")?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::read_json(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_and_strings() {
        assert_eq!(42u64.to_json(), "42");
        assert_eq!((-3i32).to_json(), "-3");
        assert_eq!(true.to_json(), "true");
        assert_eq!("a\"b\n".to_json(), "\"a\\\"b\\n\"");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(2.0f64.to_json(), "2.0");
    }

    #[test]
    fn containers() {
        assert_eq!(vec![1u8, 2, 3].to_json(), "[1,2,3]");
        let m: BTreeMap<String, usize> = [("b".to_string(), 2), ("a".to_string(), 1)]
            .into_iter()
            .collect();
        assert_eq!(m.to_json(), "{\"a\":1,\"b\":2}");
        assert_eq!(Some(5u32).to_json(), "5");
        assert_eq!(Option::<u32>::None.to_json(), "null");
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Point {
        x: u64,
        y: Vec<u64>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Verdict {
        Plain,
        Accepts { witness: u64 },
        Reason(&'static str),
        Pair(u32, u32),
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Unit;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Wrap(u64, bool);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Newtype(String);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Record {
        name: String,
        flag: bool,
        small: u32,
        size: usize,
        maybe: Option<u64>,
        nested: Vec<Verdict>,
        wrap: Wrap,
        unit: Unit,
        id: Newtype,
    }

    #[test]
    fn derived_struct() {
        assert_eq!(
            Point {
                x: 1,
                y: vec![2, 3]
            }
            .to_json(),
            "{\"x\":1,\"y\":[2,3]}"
        );
        assert_eq!(Unit.to_json(), "null");
        assert_eq!(Wrap(9, false).to_json(), "[9,false]");
    }

    #[test]
    fn derived_enum_external_tagging() {
        assert_eq!(Verdict::Plain.to_json(), "\"Plain\"");
        assert_eq!(
            Verdict::Accepts { witness: 7 }.to_json(),
            "{\"Accepts\":{\"witness\":7}}"
        );
        assert_eq!(Verdict::Reason("x").to_json(), "{\"Reason\":\"x\"}");
        assert_eq!(Verdict::Pair(1, 2).to_json(), "{\"Pair\":[1,2]}");
    }

    /// Decode `text` as a `T`, then demand the encoder give back `text`.
    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: T) {
        let text = value.to_json();
        let back = T::read_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, value, "decoded {text}");
        assert_eq!(back.to_json(), text, "re-encoding changed the bytes");
    }

    #[test]
    fn every_derived_shape_round_trips_byte_for_byte() {
        round_trip(Unit);
        round_trip(Wrap(u64::MAX, true));
        round_trip(Newtype("quote \" back\\ tab\t nl\n ctl\u{1} é".into()));
        round_trip(Point {
            x: 0,
            y: vec![1, 2, 3],
        });
        round_trip(Verdict::Plain);
        round_trip(Verdict::Accepts { witness: 7 });
        round_trip(Verdict::Reason("why \"not\""));
        round_trip(Verdict::Pair(1, u32::MAX));
        for maybe in [None, Some(3)] {
            round_trip(Record {
                name: String::new(),
                flag: false,
                small: 9,
                size: 10,
                maybe,
                nested: vec![Verdict::Plain, Verdict::Pair(0, 0)],
                wrap: Wrap(1, false),
                unit: Unit,
                id: Newtype("n".into()),
            });
        }
    }

    #[test]
    fn decoded_static_strs_are_interned() {
        let v = Json::parse("\"same reason\"").unwrap();
        let a = <&'static str>::read_json(&v).unwrap();
        let b = <&'static str>::read_json(&v).unwrap();
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn wrong_shapes_are_rejected() {
        let bad = |text: &str| Json::parse(text).unwrap();
        // Wrong types.
        assert!(u64::read_json(&bad("\"1\"")).is_err());
        assert!(u64::read_json(&bad("-1")).is_err());
        assert!(u64::read_json(&bad("1.0")).is_err());
        assert!(u32::read_json(&bad("4294967296")).is_err());
        assert!(bool::read_json(&bad("1")).is_err());
        assert!(String::read_json(&bad("null")).is_err());
        assert!(Vec::<u64>::read_json(&bad("{}")).is_err());
        assert!(Unit::read_json(&bad("[]")).is_err());
        assert!(Wrap::read_json(&bad("[1]")).is_err());
        assert!(Wrap::read_json(&bad("[1,true,2]")).is_err());
        assert!(Point::read_json(&bad("[0,[]]")).is_err());
        assert!(Point::read_json(&bad(r#"{"x":0,"y":[1,"2"]}"#)).is_err());
        // Missing fields, also in a struct variant.
        assert!(Point::read_json(&bad(r#"{"x":0}"#)).is_err());
        assert!(Verdict::read_json(&bad(r#"{"Accepts":{}}"#)).is_err());
        // Unknown variants, and known ones in the wrong shape.
        assert!(Verdict::read_json(&bad(r#""Bogus""#)).is_err());
        assert!(Verdict::read_json(&bad(r#"{"Bogus":1}"#)).is_err());
        assert!(Verdict::read_json(&bad(r#""Accepts""#)).is_err());
        assert!(Verdict::read_json(&bad(r#"{"Plain":null}"#)).is_err());
        assert!(Verdict::read_json(&bad(r#"{"Pair":[1]}"#)).is_err());
        // Multi-key variant objects.
        assert!(Verdict::read_json(&bad(r#"{"Plain":null,"Reason":"x"}"#)).is_err());
        assert!(Verdict::read_json(&bad(r#"{"Reason":"x","Reason":"y"}"#)).is_err());
        assert!(Verdict::read_json(&bad("{}")).is_err());
    }

    #[test]
    fn unknown_fields_are_ignored_and_errors_name_the_path() {
        let v = Json::parse(r#"{"x":1,"y":[],"extra":true}"#).unwrap();
        assert_eq!(Point::read_json(&v).unwrap(), Point { x: 1, y: vec![] });
        let v = Json::parse(r#"{"x":1,"y":[2,"3"]}"#).unwrap();
        assert_eq!(
            Point::read_json(&v).unwrap_err(),
            "`y`: [1]: expected a u64"
        );
    }
}
