//! A hand-rolled JSON tree, serializer and parser — no dependencies.
//!
//! The simulator's machine-readable artifacts (run reports, Chrome
//! traces, bench results) all go through [`Json`]. Objects keep their
//! insertion order so reports serialize deterministically, and the
//! bundled [`parse`] function reads them back: in round-trip tests, in
//! the sweep-grid and bench-result readers, and in `cargo xtask`.
//!
//! # Example
//!
//! ```
//! use psb_obs::json::Json;
//!
//! let j = Json::obj([
//!     ("name", Json::str("health")),
//!     ("ipc", Json::f64(0.76)),
//!     ("cycles", Json::u64(414_000)),
//! ]);
//! let text = j.to_string();
//! let back = psb_obs::json::parse(&text).unwrap();
//! assert_eq!(back.get("name").and_then(Json::as_str), Some("health"));
//! ```

use std::fmt::{self, Write};

/// A JSON value.
///
/// Numbers are split into unsigned/signed/float variants so `u64`
/// counters (cycles, addresses) survive serialization without a lossy
/// trip through `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, cycles).
    U64(u64),
    /// A signed integer (strides, deltas).
    I64(i64),
    /// A float; non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an unsigned integer value.
    pub fn u64(v: u64) -> Json {
        Json::U64(v)
    }

    /// Builds a signed integer value.
    pub fn i64(v: i64) -> Json {
        Json::I64(v)
    }

    /// Builds a float value.
    pub fn f64(v: f64) -> Json {
        Json::F64(v)
    }

    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, accepting any non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `f64`, accepting any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl Json {
    /// Appends this value's JSON text to `out`.
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) if !v.is_finite() => out.push_str("null"),
            // Integral floats print a trailing ".0" so they stay floats
            // on re-parse; everything else uses shortest-round-trip.
            Json::F64(v) if v.fract() == 0.0 && v.abs() < 1e15 => {
                let _ = write!(out, "{v:.1}");
            }
            Json::F64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a JSON string literal with full escaping. Runs of
/// bytes that need no escape are copied whole; every byte that does is
/// ASCII, so each run ends on a character boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            // Any other control byte, written as `\u00XX` below.
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Renders through [`Json`]'s one writer into a `String`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// A JSON parse error with byte offset context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { at: self.pos, msg: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling for completeness.
                            if (0xd800..0xdc00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                                out.push(
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid \\u escape"))?,
                                );
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at c.
                    let start = self.pos - 1;
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.err("invalid UTF-8")),
                    };
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = (c as char).to_digit(16).ok_or_else(|| self.err("invalid hex digit"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>().map(Json::F64).map_err(|_| self.err("invalid float"))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Json::I64).map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<u64>().map(Json::U64).map_err(|_| self.err("integer out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_common::SplitMix64;
    use reference::Reference;

    /// The formatter-based serializer the writer replaced, kept verbatim
    /// but for recursing into itself: the writer must match its bytes.
    mod reference {
        use super::Json;
        use std::fmt;

        pub struct Reference<'a>(pub &'a Json);

        /// Writes `s` as a JSON string literal with full escaping.
        fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
            f.write_str("\"")?;
            for c in s.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\r' => f.write_str("\\r")?,
                    '\t' => f.write_str("\\t")?,
                    '\u{8}' => f.write_str("\\b")?,
                    '\u{c}' => f.write_str("\\f")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => write!(f, "{c}")?,
                }
            }
            f.write_str("\"")
        }

        impl fmt::Display for Reference<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Json::Null => f.write_str("null"),
                    Json::Bool(b) => write!(f, "{b}"),
                    Json::U64(v) => write!(f, "{v}"),
                    Json::I64(v) => write!(f, "{v}"),
                    Json::F64(v) if !v.is_finite() => f.write_str("null"),
                    // Integral floats print a trailing ".0" so they stay floats
                    // on re-parse; everything else uses shortest-round-trip.
                    Json::F64(v) if v.fract() == 0.0 && v.abs() < 1e15 => write!(f, "{v:.1}"),
                    Json::F64(v) => write!(f, "{v}"),
                    Json::Str(s) => write_escaped(f, s),
                    Json::Arr(items) => {
                        f.write_str("[")?;
                        for (i, item) in items.iter().enumerate() {
                            if i > 0 {
                                f.write_str(",")?;
                            }
                            write!(f, "{}", Reference(item))?;
                        }
                        f.write_str("]")
                    }
                    Json::Obj(pairs) => {
                        f.write_str("{")?;
                        for (i, (k, v)) in pairs.iter().enumerate() {
                            if i > 0 {
                                f.write_str(",")?;
                            }
                            write_escaped(f, k)?;
                            f.write_str(":")?;
                            write!(f, "{}", Reference(v))?;
                        }
                        f.write_str("}")
                    }
                }
            }
        }
    }

    fn pick<T: Clone>(rng: &mut SplitMix64, items: &[T]) -> T {
        items[rng.below(items.len() as u64) as usize].clone()
    }

    /// A short string mixing control bytes, `"`, `\\`, DEL, multi-byte
    /// UTF-8 and plain ASCII.
    fn random_string(rng: &mut SplitMix64) -> String {
        (0..rng.below(10))
            .map(|_| match rng.below(6) {
                0 => char::from(rng.below(0x20) as u8),
                1 => pick(rng, &['"', '\\', '\u{7f}']),
                2 => pick(rng, &['\u{e9}', '\u{20ac}', '\u{2028}', '\u{1f600}', '\u{10ffff}']),
                _ => char::from(rng.range(0x20, 0x7f) as u8),
            })
            .collect()
    }

    fn random_number(rng: &mut SplitMix64) -> Json {
        let below_1e15 = f64::from_bits(1e15f64.to_bits() - 1);
        let r = rng.next_u64();
        match rng.below(3) {
            0 => Json::U64(pick(rng, &[0, 1, u64::MAX, r])),
            1 => Json::I64(pick(rng, &[i64::MIN, -1, i64::MAX, r as i64])),
            _ => Json::F64(pick(
                rng,
                &[
                    0.0,
                    -0.0,
                    1e15 - 1.0,
                    -(1e15 - 1.0),
                    1e15,
                    -1e15,
                    below_1e15,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    (r >> 11) as f64,
                    f64::from_bits(r),
                ],
            )),
        }
    }

    fn random_tree(rng: &mut SplitMix64, depth: u32) -> Json {
        let kinds = if depth == 0 { 3 } else { 5 };
        match rng.below(kinds) {
            0 => pick(rng, &[Json::Null, Json::Bool(false), Json::Bool(true)]),
            1 => random_number(rng),
            2 => Json::Str(random_string(rng)),
            3 => Json::Arr((0..rng.below(5)).map(|_| random_tree(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (random_string(rng), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn writer_matches_the_formatter_reference_model() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        let edges = Json::obj([
            (every_control.clone(), Json::str(every_control)),
            ("\"\\\u{7f}\u{e9}\u{1f600}".to_string(), Json::str("\"\\\u{7f}\u{e9}\u{1f600}")),
            ("empty".to_string(), Json::arr([Json::arr([]), Json::obj::<String>([])])),
            (
                "numbers".to_string(),
                Json::arr([
                    Json::u64(u64::MAX),
                    Json::i64(i64::MIN),
                    Json::f64(0.0),
                    Json::f64(-0.0),
                    Json::f64(1e15 - 1.0),
                    Json::f64(1e15),
                    Json::f64(f64::NAN),
                    Json::f64(f64::INFINITY),
                    Json::f64(f64::NEG_INFINITY),
                ]),
            ),
        ]);
        assert_eq!(edges.to_string(), Reference(&edges).to_string());
        let mut rng = SplitMix64::new(0x5eed);
        for i in 0..10_000 {
            let tree = random_tree(&mut rng, 4);
            assert_eq!(tree.to_string(), Reference(&tree).to_string(), "tree {i}");
        }
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote \" backslash \\ newline \n tab \t ctrl \u{1} unicode \u{1F600}";
        let j = Json::obj([("k", Json::str(nasty))]);
        let text = j.to_string();
        assert!(text.contains("\\\""));
        assert!(text.contains("\\\\"));
        assert!(text.contains("\\n"));
        assert!(text.contains("\\u0001"));
        let back = parse(&text).expect("round trip");
        assert_eq!(back.get("k").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn numbers_preserve_width_and_sign() {
        let j = Json::arr([Json::u64(u64::MAX), Json::i64(-42), Json::f64(0.5)]);
        let back = parse(&j.to_string()).expect("round trip");
        let items = back.as_arr().expect("array");
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1], Json::I64(-42));
        assert_eq!(items[2].as_f64(), Some(0.5));
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = Json::f64(3.0).to_string();
        assert_eq!(text, "3.0");
        assert_eq!(parse(&text).expect("parses"), Json::F64(3.0));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::f64(f64::NAN).to_string(), "null");
        assert_eq!(Json::f64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn object_order_is_preserved() {
        let j = Json::obj([("z", Json::u64(1)), ("a", Json::u64(2))]);
        assert_eq!(j.to_string(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn nested_structures_round_trip() {
        let j = Json::obj([
            ("arr", Json::arr([Json::Null, Json::Bool(true), Json::str("x")])),
            ("obj", Json::obj([("inner", Json::arr([]))])),
        ]);
        assert_eq!(parse(&j.to_string()).expect("round trip"), j);
    }

    #[test]
    fn parser_accepts_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , \"\\u0041\\n\" ] } ").expect("parses");
        let arr = v.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("A\n"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("'single'").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse("\"\\ud83d\\ude00\"").expect("parses");
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(parse("\"\\ud83d\"").is_err(), "lone high surrogate");
    }

    #[test]
    fn accessors_are_typed() {
        let j = parse("{\"n\": 3, \"s\": \"x\", \"f\": 1.5}").expect("parses");
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("missing"), None);
        assert_eq!(j.get("s").and_then(Json::as_u64), None);
        assert_eq!(j.get("f").and_then(Json::as_u64), None, "fractional is not u64");
    }
}
