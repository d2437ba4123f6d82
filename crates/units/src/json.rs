//! A minimal owned JSON layer (the `serde`/`serde_json` replacement).
//!
//! The repo is hermetic — no external crates — so (de)serialization is built
//! on three small pieces that every crate in the workspace shares:
//!
//! * [`Json`], an owned JSON document. Objects preserve insertion order, so
//!   serializing the same value twice yields byte-identical text — the
//!   determinism tests rely on this.
//! * [`ToJson`] / [`FromJson`], the conversion traits, implemented here for
//!   primitives and containers and derived for domain types with the
//!   [`derive_json!`](crate::derive_json) macro.
//! * [`parse`], a recursive-descent parser for reading documents back.
//!
//! Numbers are carried as `f64` (like JavaScript); non-finite values
//! serialize as `null` and parse back as NaN. Integers above 2⁵³ lose
//! precision — fine for every quantity in this simulator (seeds are stored
//! exactly because they fit, counts are small).
//!
//! ```
//! use tts_units::json::{parse, FromJson, Json, ToJson};
//!
//! let doc = vec![1.5f64, 2.5].to_json();
//! assert_eq!(doc.to_string(), "[1.5,2.5]");
//! let back = Vec::<f64>::from_json(&parse("[1.5,2.5]").unwrap()).unwrap();
//! assert_eq!(back, vec![1.5, 2.5]);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// An owned JSON document. Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number (or `null`, read as NaN).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The canonical form: object members sorted by key, recursively
    /// (arrays keep their order — element order is meaningful). Two
    /// documents that differ only in member order canonicalize to equal
    /// values, so `doc.canonical().to_string()` is a stable cache key for
    /// semantically identical requests. Duplicate keys are kept (stable
    /// sort), preserving the parse-order semantics of lookups.
    #[must_use]
    pub fn canonical(&self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.iter().map(Json::canonical).collect()),
            Json::Obj(members) => {
                let mut sorted: Vec<(String, Json)> = members
                    .iter()
                    .map(|(k, v)| (k.clone(), v.canonical()))
                    .collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(sorted)
            }
            other => other.clone(),
        }
    }

    /// A short name for the variant, used in error messages
    /// (`"null"`, `"bool"`, `"number"`, `"string"`, `"array"`, `"object"`).
    pub fn kind_name(&self) -> &'static str {
        self.kind()
    }

    /// A short name for the variant, used in error messages.
    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline-free
    /// body, matching the style `serde_json::to_string_pretty` produced for
    /// the `results/*.json` artifacts.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    push_indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, depth);
                out.push('}');
            }
            other => write_compact(out, other),
        }
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest round-trip formatting; always a valid JSON number.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_compact(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_number(out, *n),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_compact(out, val);
            }
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    /// Compact (no-whitespace) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_compact(&mut out, self);
        f.write_str(&out)
    }
}

/// Conversion or parse failure, with a human-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// An error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// A "field missing from object" conversion error.
    pub fn missing_field(ty: &str, field: &str) -> Self {
        Self::new(format!("{ty}: missing field `{field}`"))
    }

    /// A "wrong JSON kind" conversion error.
    pub fn type_mismatch(expected: &str, got: &Json) -> Self {
        Self::new(format!("expected {expected}, got {}", got.kind()))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

/// Serialization into a [`Json`] document.
pub trait ToJson {
    /// This value as a JSON document.
    fn to_json(&self) -> Json;

    /// Compact JSON text.
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Pretty JSON text (two-space indent).
    fn to_json_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

/// Deserialization from a [`Json`] document.
pub trait FromJson: Sized {
    /// Reconstructs the value, or explains why the document does not fit.
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Parses text and reconstructs in one step.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json(&parse(s)?)
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::type_mismatch("number", v))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::type_mismatch("bool", v))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::type_mismatch("string", v))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! int_json {
    ($($t:ty),+) => {
        $(
            impl ToJson for $t {
                fn to_json(&self) -> Json {
                    Json::Num(*self as f64)
                }
            }

            impl FromJson for $t {
                fn from_json(v: &Json) -> Result<Self, JsonError> {
                    let n = v.as_f64().ok_or_else(|| JsonError::type_mismatch("integer", v))?;
                    let rounded = n.round();
                    if !n.is_finite() || (n - rounded).abs() > 1e-9 {
                        return Err(JsonError::new(format!(
                            "expected integer, got non-integral number {n}"
                        )));
                    }
                    if rounded < <$t>::MIN as f64 || rounded > <$t>::MAX as f64 {
                        return Err(JsonError::new(format!(
                            "integer {rounded} out of range for {}", stringify!($t)
                        )));
                    }
                    Ok(rounded as $t)
                }
            }
        )+
    };
}

int_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::type_mismatch("array", v))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = Vec::<T>::from_json(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| JsonError::new(format!("expected array of length {N}, got {n}")))
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::type_mismatch("2-array", v))?;
        if items.len() != 2 {
            return Err(JsonError::new(format!(
                "expected array of length 2, got {}",
                items.len()
            )));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_obj()
            .ok_or_else(|| JsonError::type_mismatch("object", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_json(val)?)))
            .collect()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the cap keeps a hostile document (say, 100 KB of
/// `[`) an ordinary parse error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Accepts exactly the grammar this module emits
/// (standard JSON with `\uXXXX` escapes; no comments, no trailing commas),
/// nested at most 128 arrays/objects deep.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> JsonError {
        JsonError::new(format!("parse error at byte {}: {msg}", self.pos))
    }

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
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(&format!("unexpected `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Runs `container` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by this writer;
                            // lone surrogates decode as the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // on char boundaries is safe via chars()).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
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
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(&format!("invalid number `{text}`")))
    }
}

/// Derives [`ToJson`]/[`FromJson`] for a domain type — the replacement for
/// `#[derive(Serialize, Deserialize)]`. Three forms:
///
/// * `derive_json! { struct Name { field_a, field_b } }` — object with the
///   field names as keys, in declaration order.
/// * `derive_json! { enum Name { VariantA, VariantB } }` — unit variants as
///   strings (serde's default external representation).
/// * `derive_json! { newtype Name }` — transparent single-`f64` wrapper,
///   built back through `Name::new`.
///
/// Invoke it in the module that defines the type (private fields are fine).
#[macro_export]
macro_rules! derive_json {
    (struct $name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    ),)+
                ])
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::FromJson::from_json(v.get(stringify!($field))
                        .ok_or_else(|| $crate::json::JsonError::missing_field(
                            stringify!($name), stringify!($field)))?)?,)+
                })
            }
        }
    };
    (enum $name:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(
                    match self {
                        $(Self::$variant => stringify!($variant),)+
                    }
                    .to_string(),
                )
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let s = v
                    .as_str()
                    .ok_or_else(|| $crate::json::JsonError::type_mismatch("string", v))?;
                match s {
                    $(stringify!($variant) => Ok(Self::$variant),)+
                    other => Err($crate::json::JsonError::new(format!(
                        "unknown {} variant `{other}`",
                        stringify!($name)
                    ))),
                }
            }
        }
    };
    (newtype $name:ident) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Num(self.value())
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                <f64 as $crate::json::FromJson>::from_json(v).map($name::new)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        name: String,
        count: usize,
        ratio: f64,
        tags: Vec<String>,
        maybe: Option<f64>,
    }

    derive_json! {
        struct Sample { name, count, ratio, tags, maybe }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Fast,
        Careful,
    }

    derive_json! {
        enum Mode { Fast, Careful }
    }

    fn sample() -> Sample {
        Sample {
            name: "wax \"39C\"\n".to_string(),
            count: 42,
            ratio: 0.125,
            tags: vec!["a".into(), "b".into()],
            maybe: None,
        }
    }

    #[test]
    fn struct_round_trips() {
        let s = sample();
        let text = s.to_json_string();
        assert_eq!(Sample::from_json_str(&text).unwrap(), s);
    }

    #[test]
    fn pretty_round_trips_and_is_stable() {
        let s = sample();
        let a = s.to_json_pretty();
        let b = s.to_json_pretty();
        assert_eq!(a, b);
        assert_eq!(Sample::from_json_str(&a).unwrap(), s);
        assert!(a.contains("\"count\": 42"));
    }

    #[test]
    fn enum_round_trips() {
        for m in [Mode::Fast, Mode::Careful] {
            assert_eq!(Mode::from_json_str(&m.to_json_string()).unwrap(), m);
        }
        assert!(Mode::from_json_str("\"Sloppy\"").is_err());
    }

    #[test]
    fn object_order_is_declaration_order() {
        let text = sample().to_json_string();
        let name_at = text.find("\"name\"").unwrap();
        let count_at = text.find("\"count\"").unwrap();
        let maybe_at = text.find("\"maybe\"").unwrap();
        assert!(name_at < count_at && count_at < maybe_at);
    }

    #[test]
    fn numbers_round_trip() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            1e-12,
            std::f64::consts::PI,
            6.02e23,
            -7e-3,
        ] {
            let text = v.to_json_string();
            let back = f64::from_json_str(&text).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text} -> {back}");
        }
    }

    #[test]
    fn non_finite_serializes_as_null_and_reads_as_nan() {
        assert_eq!(f64::NAN.to_json_string(), "null");
        assert_eq!(f64::INFINITY.to_json_string(), "null");
        assert!(f64::from_json_str("null").unwrap().is_nan());
    }

    #[test]
    fn integers_reject_fractions() {
        assert!(usize::from_json_str("3").is_ok());
        assert!(usize::from_json_str("3.5").is_err());
        assert!(u32::from_json_str("-2").is_err());
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let doc = parse(r#"{"a":[1,2,{"b":"x\ty"}],"c":null,"d":true}"#).unwrap();
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x\ty"));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // A hostile body far past the cap is an error, not a stack overflow.
        assert!(parse(&"[".repeat(120 * 1024)).is_err());
        // Siblings do not add up: depth is per path, not per document.
        let wide = format!("[{}]", vec![deep(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn canonical_sorts_members_recursively_but_not_arrays() {
        let a = parse(r#"{"b":{"y":1,"x":2},"a":[3,1,2]}"#).unwrap();
        let b = parse(r#"{"a":[3,1,2],"b":{"x":2,"y":1}}"#).unwrap();
        assert_ne!(a, b, "member order is significant pre-canonicalization");
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(
            a.canonical().to_string(),
            r#"{"a":[3,1,2],"b":{"x":2,"y":1}}"#
        );
        // Scalars and already-canonical documents are fixpoints.
        assert_eq!(Json::Num(1.5).canonical(), Json::Num(1.5));
        assert_eq!(a.canonical().canonical(), a.canonical());
    }

    #[test]
    fn btreemap_and_tuple_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("k1".to_string(), vec![(1.0f64, 2.0f64), (3.0, 4.0)]);
        let text = m.to_json_string();
        let back: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::from_json_str(&text).unwrap();
        assert_eq!(back, m);
    }
}
