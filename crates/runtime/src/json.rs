//! Hand-rolled JSON encoding for simulation artifacts.
//!
//! The workspace previously derived `serde::Serialize` on its scenario
//! and fingerprint types without ever linking a serializer; this module
//! replaces that with an explicit, dependency-free encoder. Types opt in
//! by implementing [`ToJson`], building a [`Json`] tree, and rendering it
//! with [`Json::render`].
//!
//! Encoding rules:
//!
//! * numbers render through Rust's shortest-roundtrip `Display` for
//!   `f64`, so re-parsing recovers the exact bits,
//! * non-finite floats (`NaN`, `±∞`) render as `null` — JSON has no
//!   spelling for them,
//! * object keys keep insertion order (deterministic output for
//!   deterministic inputs),
//! * strings escape `"`, `\` and control characters.
//!
//! # Examples
//!
//! ```
//! use srtd_runtime::json::{Json, ToJson};
//!
//! let value = Json::obj([
//!     ("name", Json::str("poi-3")),
//!     ("rssi", (-71.25f64).to_json()),
//!     ("visits", Json::arr(vec![1u64.to_json(), 2u64.to_json()])),
//! ]);
//! assert_eq!(
//!     value.render(),
//!     r#"{"name":"poi-3","rssi":-71.25,"visits":[1,2]}"#
//! );
//! ```

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array from any iterator of values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// An object from `(key, value)` pairs, keys kept in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the tree as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(*x, out),
            Json::Str(s) => write_escaped(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// 2^53: every integer of smaller magnitude is exactly an `f64`.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// Writes a number: `null` for a non-finite one, otherwise the digits of
/// `f64`'s `Display`, which is shortest-roundtrip and always a valid JSON
/// number (no exponent-only forms). An integral value below 2^53 in
/// magnitude — a label, a count, an index — is written through integer
/// formatting instead. `Display` prints such a value as its plain decimal
/// digits, so the text is the same, without the shortest-digit search.
/// `-0.0` keeps its sign by taking the `Display` path.
fn write_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < EXACT_INTEGERS && !(x == 0.0 && x.is_sign_negative()) {
        if x < 0.0 {
            out.push('-');
        }
        // Exact: the value is an integer below 2^53.
        let mut n = x.abs() as u64;
        let mut digits = [0u8; 16];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    } else {
        write!(out, "{x}").expect("writing to a String cannot fail");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Where and why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses JSON text into a [`Json`] tree (the inverse of
/// [`Json::render`]).
///
/// A strict recursive-descent parser over the JSON grammar: objects keep
/// key order, numbers must match RFC 8259's grammar (no leading zeros,
/// no bare `.`) and go through `f64` (so `render → parse` recovers the
/// exact bits [`Json::render`] wrote), `\uXXXX` escapes including
/// surrogate pairs are decoded, and trailing garbage is an error. Time is
/// linear in the input length. The observability exports
/// (`SRTD_OBS_JSON`) are validated by feeding them back through this
/// function.
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first offending
/// character for malformed input.
///
/// # Examples
///
/// ```
/// use srtd_runtime::json::{parse, Json};
///
/// let tree = parse(r#"{"k": [1, true, null]}"#).unwrap();
/// let Json::Obj(fields) = &tree else { unreachable!() };
/// assert_eq!(fields[0].0, "k");
/// assert_eq!(tree.render(), r#"{"k":[1,true,null]}"#);
/// ```
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_whitespace();
    let value = p.value(0)?;
    p.skip_whitespace();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after the top-level value"));
    }
    Ok(value)
}

/// Nesting ceiling: malformed deeply-nested input must not overflow the
/// parser's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    /// One number of RFC 8259's grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, not followed by
    /// another number character. A violation is reported at its first
    /// offending byte.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.invalid_number(start)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(self.invalid_number(start));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.invalid_number(start));
            }
        }
        if self.peek().is_some_and(is_number_byte) {
            return Err(self.invalid_number(start));
        }
        let token = &self.text[start..self.pos];
        Ok(Json::Num(
            token
                .parse()
                .expect("RFC 8259 numbers are valid f64 literals"),
        ))
    }

    /// Skips `[0-9]*`; `true` if it skipped any.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// The error for a number starting at `start` that breaks the grammar
    /// at the current byte; the message quotes the whole run of number
    /// characters.
    fn invalid_number(&self, start: usize) -> ParseError {
        let len = self.bytes[start..]
            .iter()
            .position(|&c| !is_number_byte(c))
            .unwrap_or(self.bytes.len() - start);
        let token = &self.text[start..start + len];
        self.error(format!("invalid number `{token}`"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one slice. All three are ASCII, so the run starts and ends
            // on char boundaries of the (already valid UTF-8) input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | 0x00..=0x1f))
                .map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("raw control character in string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, ParseError> {
        let Some(byte) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xd800..0xdc00).contains(&hi) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                        char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))?
                    } else {
                        return Err(self.error("lone high surrogate"));
                    }
                } else {
                    char::from_u32(hi).ok_or_else(|| self.error("invalid \\u escape"))?
                }
            }
            other => return Err(self.error(format!("unknown escape `\\{}`", other as char))),
        })
    }

    /// Exactly four hex digits (`u32::from_str_radix` would also take a
    /// leading `+`).
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let Some(slice) = self.bytes.get(self.pos..end) else {
            return Err(self.error("truncated \\u escape"));
        };
        let mut code = 0;
        for &b in slice {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos = end;
        Ok(code)
    }
}

/// A byte that can continue a number token: `[0-9.eE+-]`.
fn is_number_byte(c: u8) -> bool {
    c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
}

/// Conversion into a [`Json`] tree; the workspace's `Serialize`.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::str(self.as_str())
    }
}

macro_rules! impl_to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                // f64 holds integers up to 2^53 exactly — comfortably
                // beyond any account, task or sample count here.
                Json::Num(*self as f64)
            }
        }
    )*};
}

impl_to_json_int!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::arr(self.iter().map(ToJson::to_json))
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::arr(self.iter().map(ToJson::to_json))
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::arr(self.iter().map(ToJson::to_json))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{self, PropConfig};
    use crate::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(true.to_json().render(), "true");
        assert_eq!(3usize.to_json().render(), "3");
        assert_eq!((-2.5f64).to_json().render(), "-2.5");
        assert_eq!(1.0f64.to_json().render(), "1");
        assert_eq!(f64::NAN.to_json().render(), "null");
        assert_eq!(f64::INFINITY.to_json().render(), "null");
    }

    #[test]
    fn numbers_render_as_display_prints_them() {
        let mut rng = StdRng::seed_from_u64(53);
        let exact = (1u64 << 53) as f64;
        let mut values = vec![
            0.0,
            -0.0,
            exact - 1.0,
            -(exact - 1.0),
            exact,
            -exact,
            exact + 2.0,
            -(exact + 2.0),
            0.5,
            -1.0,
        ];
        values.extend((15..=22).map(|e| 10f64.powi(e)));
        values.extend((15..=22).map(|e| -(10f64.powi(e))));
        for _ in 0..20_000 {
            // Random bit patterns cover every exponent; integers shifted
            // to random widths cover the integer path at every magnitude.
            values.push(f64::from_bits(rng.next_u64()));
            let integer = (rng.next_u64() >> rng.gen_range(0..64u32)) as f64;
            values.push(if rng.gen_bool(0.5) { -integer } else { integer });
        }
        for x in values.into_iter().filter(|x| x.is_finite()) {
            assert_eq!(Json::Num(x).render(), format!("{x}"), "{:#x}", x.to_bits());
        }
    }

    #[test]
    fn float_display_roundtrips() {
        let x = 0.1f64 + 0.2;
        let rendered = x.to_json().render();
        assert_eq!(rendered.parse::<f64>().unwrap(), x);
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn arrays_objects_and_options_compose() {
        let v = Json::obj([
            ("xs", vec![1u32, 2, 3].to_json()),
            ("missing", Option::<f64>::None.to_json()),
            ("triple", [0.5f64, 1.5, 2.5].to_json()),
        ]);
        assert_eq!(
            v.render(),
            r#"{"xs":[1,2,3],"missing":null,"triple":[0.5,1.5,2.5]}"#
        );
    }

    #[test]
    fn object_key_order_is_insertion_order() {
        let a = Json::obj([("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(a.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse(" -2.5e3 ").unwrap(), Json::Num(-2500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::str("hi"));
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10.25", 10.25),
            ("0.5e-3", 0.0005),
            ("1E+2", 100.0),
            ("0e5", 0.0),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Num(value), "{text}");
        }
    }

    #[test]
    fn parse_containers_preserve_order() {
        let tree = parse(r#"{ "z": [1, 2], "a": {"nested": null} }"#).unwrap();
        let Json::Obj(fields) = &tree else { panic!() };
        assert_eq!(fields[0].0, "z");
        assert_eq!(fields[1].0, "a");
        assert_eq!(tree.render(), r#"{"z":[1,2],"a":{"nested":null}}"#);
    }

    #[test]
    fn parse_string_escapes_round_trip() {
        let original = Json::str("a\"b\\c\nd\u{1}é — \u{10348}");
        let parsed = parse(&original.render()).unwrap();
        assert_eq!(parsed, original);
        // \uXXXX forms including a surrogate pair.
        assert_eq!(parse(r#""é𐍈\/""#).unwrap(), Json::str("é\u{10348}/"));
    }

    #[test]
    fn render_parse_round_trips_arbitrary_trees() {
        let tree = Json::obj([
            ("floats", vec![0.1f64 + 0.2, -0.0, 1e-300].to_json()),
            (
                "mixed",
                Json::arr([Json::Null, Json::Bool(false), Json::str("")]),
            ),
            ("empty_obj", Json::obj([])),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        let rendered = tree.render();
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(reparsed.render(), rendered);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            r#"{"k" 1}"#,
            r#"{"k":}"#,
            "tru",
            "1.2.3",
            "\"unterminated",
            "\"bad \\x escape\"",
            "[] []",
            "\"\u{1}\"",
            // Forms `f64::from_str` accepts but RFC 8259 does not.
            "01",
            "-01",
            "00",
            "1.",
            "2.",
            "-.5",
            "1.e5",
            "-",
            "1e",
            "1e+",
            // `\u` takes exactly four hex digits.
            r#""\u+fff""#,
            r#""\u 123""#,
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = parse("[1, oops]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
        // A malformed number is reported at its first offending byte.
        for (bad, offset, token) in [
            ("01", 1, "01"),
            ("-01", 2, "-01"),
            ("1.", 2, "1."),
            ("[2.]", 3, "2."),
            ("-.5", 1, "-.5"),
            ("1.e5", 2, "1.e5"),
            ("1.2.3", 3, "1.2.3"),
            ("-", 1, "-"),
            (r#"{"account":01}"#, 12, "01"),
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.offset, offset, "{bad}");
            assert_eq!(err.message, format!("invalid number `{token}`"), "{bad}");
        }
        // A bad `\u` escape is reported at its first hex position.
        for bad in [r#""\u+fff""#, r#""\u 123""#, r#""\u12g4""#] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.offset, 3, "{bad}");
            assert_eq!(err.message, "invalid \\u escape", "{bad}");
        }
    }

    #[test]
    fn parse_depth_is_bounded() {
        let deep = "[".repeat(4_000) + &"]".repeat(4_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn long_strings_parse_whole() {
        // 1 MiB of multi-byte text with an escape every 4 KiB: each run
        // between escapes is copied as one slice.
        let chunk = "é—中\u{10348}".repeat(4096 / 12) + "\n";
        let original = Json::str(chunk.repeat((1 << 20) / chunk.len()));
        assert_eq!(parse(&original.render()).unwrap(), original);
    }

    const CASES: PropConfig = PropConfig {
        cases: 64,
        seed: 0x150_5eed,
    };

    /// Quotes, backslashes, every control character, ASCII, multi-byte
    /// and astral (surrogate-pair) characters.
    fn arbitrary_char(rng: &mut StdRng) -> char {
        const SPECIAL: &[char] = &[
            '"',
            '\\',
            '/',
            '\u{7f}',
            'é',
            '—',
            '中',
            '\u{fffd}',
            '\u{ffff}',
            '\u{10348}',
            '😀',
            '\u{10ffff}',
        ];
        let code = match rng.gen_range(0..4) {
            0 => return SPECIAL[rng.gen_range(0..SPECIAL.len())],
            1 => rng.gen_range(0..0x20),
            2 => rng.gen_range(0x20..0x7f),
            _ => rng.gen_range(0..0x11_0000),
        };
        char::from_u32(code).unwrap_or('\u{fffd}')
    }

    fn arbitrary_string(rng: &mut StdRng) -> String {
        prop::vec_with(rng, 0..12, arbitrary_char)
            .into_iter()
            .collect()
    }

    /// A tree of every value kind, at most `depth` containers deep; numbers
    /// are arbitrary finite bit patterns.
    fn arbitrary_tree(rng: &mut StdRng, depth: usize) -> Json {
        match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => loop {
                let x = f64::from_bits(rng.next_u64());
                if x.is_finite() {
                    break Json::Num(x);
                }
            },
            3 => Json::Str(arbitrary_string(rng)),
            4 => Json::Arr(prop::vec_with(rng, 0..5, |rng| {
                arbitrary_tree(rng, depth - 1)
            })),
            _ => Json::Obj(prop::vec_with(rng, 0..5, |rng| {
                (arbitrary_string(rng), arbitrary_tree(rng, depth - 1))
            })),
        }
    }

    #[test]
    fn random_trees_round_trip_render_parse_exactly() {
        prop::check_with(
            CASES,
            |rng| arbitrary_tree(rng, 3),
            |tree| {
                let rendered = tree.render();
                let parsed = parse(&rendered).map_err(|e| e.to_string())?;
                crate::prop_assert_eq!(&parsed, tree);
                // Rendering again tells -0 from 0, which `==` does not.
                crate::prop_assert_eq!(parsed.render(), rendered);
                Ok(())
            },
        );
    }

    #[test]
    fn every_escape_spelling_decodes_to_the_same_string() {
        prop::check_with(
            CASES,
            |rng| {
                let text = arbitrary_string(rng);
                let mut quoted = String::from("\"");
                for c in text.chars() {
                    let short = match c {
                        '"' => Some("\\\""),
                        '\\' => Some("\\\\"),
                        '/' => Some("\\/"),
                        '\u{8}' => Some("\\b"),
                        '\u{c}' => Some("\\f"),
                        '\n' => Some("\\n"),
                        '\r' => Some("\\r"),
                        '\t' => Some("\\t"),
                        _ => None,
                    };
                    let must_escape = matches!(c, '"' | '\\') || (c as u32) < 0x20;
                    match (rng.gen_range(0..3), short) {
                        (0, _) if !must_escape => quoted.push(c),
                        (1, Some(short)) => quoted.push_str(short),
                        _ => {
                            let mut units = [0u16; 2];
                            for &mut unit in c.encode_utf16(&mut units) {
                                let hex = if rng.gen_bool(0.5) {
                                    format!("\\u{unit:04x}")
                                } else {
                                    format!("\\u{unit:04X}")
                                };
                                quoted.push_str(&hex);
                            }
                        }
                    }
                }
                quoted.push('"');
                (text, quoted)
            },
            |(text, quoted)| {
                let parsed = parse(quoted).map_err(|e| e.to_string())?;
                crate::prop_assert_eq!(parsed, Json::str(text.as_str()));
                Ok(())
            },
        );
    }

    #[test]
    fn every_proper_prefix_of_a_container_is_an_error() {
        prop::check_with(
            CASES,
            |rng| Json::Arr(prop::vec_with(rng, 1..4, |rng| arbitrary_tree(rng, 2))),
            |tree| {
                let rendered = tree.render();
                for end in (0..rendered.len()).filter(|&end| rendered.is_char_boundary(end)) {
                    match parse(&rendered[..end]) {
                        Ok(value) => return Err(format!("prefix {end} parsed as {value:?}")),
                        Err(e) => {
                            crate::prop_assert!(e.offset <= end, "offset {} > {end}", e.offset)
                        }
                    }
                }
                Ok(())
            },
        );
    }
}
