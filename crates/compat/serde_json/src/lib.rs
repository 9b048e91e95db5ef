//! In-tree stand-in for `serde_json`: a JSON [`Value`] tree, its text
//! renderer and its parser. Supports exactly the JSON the workspace speaks
//! (null, bool, number, string, array, object); numbers keep their
//! integer/float identity so `u64` values round-trip exactly.

use std::io::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (u64 precision preserved).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered entries.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object value.
    pub fn get_field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up an element of an array value.
    pub fn get_index(&self, idx: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(idx),
            _ => None,
        }
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self { Value::U64(n as u64) }
        }
    )*};
}
from_unsigned!(u8, u16, u32, u64, usize);

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::I64(n)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::F64(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Builds an object from literal keys and values convertible into
/// [`Value`]: `json!({"rows": rows, "seed": 42})` — the object form of the
/// real crate's macro.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![$(($key.to_string(), $crate::Value::from($value))),*])
    };
}

/// Parse or I/O failure.
#[derive(Debug)]
pub enum Error {
    /// Malformed JSON text.
    Syntax(String),
    /// I/O failure while writing.
    Io(std::io::Error),
}

impl Error {
    fn syntax(msg: impl Into<String>) -> Self {
        Error::Syntax(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Syntax(e) => write!(f, "json: {e}"),
            Error::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// `Result` alias matching the real crate's shape.
pub type Result<T> = std::result::Result<T, Error>;

/// Where rendered JSON bytes go. Implemented for `String` (the classic
/// `to_string` path) and for a buffering adapter over any `io::Write`
/// (the streaming `to_writer` path, which never materializes the full
/// document in memory). Every implementation must produce byte-identical
/// output for the same value tree — checksums are computed over renderings.
trait Sink {
    fn put_str(&mut self, s: &str);
    fn put_char(&mut self, c: char);
}

impl Sink for String {
    fn put_str(&mut self, s: &str) {
        self.push_str(s);
    }
    fn put_char(&mut self, c: char) {
        self.push(c);
    }
}

/// Streaming sink over an `io::Write`. The first I/O error is latched and
/// rendering continues as a no-op; the caller surfaces it at the end (value
/// trees are rendered infallibly, so there is nothing to unwind mid-tree).
struct IoSink<W: Write> {
    w: W,
    err: Option<std::io::Error>,
}

impl<W: Write> Sink for IoSink<W> {
    fn put_str(&mut self, s: &str) {
        if self.err.is_none() {
            if let Err(e) = self.w.write_all(s.as_bytes()) {
                self.err = Some(e);
            }
        }
    }
    fn put_char(&mut self, c: char) {
        let mut buf = [0u8; 4];
        self.put_str(c.encode_utf8(&mut buf));
    }
}

fn escape_into<S: Sink>(s: &str, out: &mut S) {
    out.put_char('"');
    for c in s.chars() {
        match c {
            '"' => out.put_str("\\\""),
            '\\' => out.put_str("\\\\"),
            '\n' => out.put_str("\\n"),
            '\r' => out.put_str("\\r"),
            '\t' => out.put_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.put_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.put_char(c),
        }
    }
    out.put_char('"');
}

/// Formats a `u64` into a stack buffer — snapshot columns render millions
/// of integers, and `n.to_string()` would allocate for every one.
fn put_u64<S: Sink>(mut n: u64, out: &mut S) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.put_str(std::str::from_utf8(&buf[at..]).expect("ascii digits"));
}

fn write_f64<S: Sink>(f: f64, out: &mut S) {
    if f.is_finite() {
        let s = format!("{f}");
        out.put_str(&s);
        // Keep float identity through a parse round-trip.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.put_str(".0");
        }
    } else {
        // JSON has no Infinity/NaN; encode as null like the real crate.
        out.put_str("null");
    }
}

fn render<S: Sink>(v: &Value, pretty: bool, indent: usize, out: &mut S) {
    let pad = |n: usize, out: &mut S| {
        if pretty {
            out.put_char('\n');
            for _ in 0..n {
                out.put_str("  ");
            }
        }
    };
    match v {
        Value::Null => out.put_str("null"),
        Value::Bool(b) => out.put_str(if *b { "true" } else { "false" }),
        Value::U64(n) => put_u64(*n, out),
        Value::I64(n) => out.put_str(&n.to_string()),
        Value::F64(f) => write_f64(*f, out),
        Value::Str(s) => escape_into(s, out),
        Value::Array(items) => {
            out.put_char('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.put_char(',');
                }
                pad(indent + 1, out);
                render(item, pretty, indent + 1, out);
            }
            if !items.is_empty() {
                pad(indent, out);
            }
            out.put_char(']');
        }
        Value::Object(entries) => {
            out.put_char('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.put_char(',');
                }
                pad(indent + 1, out);
                escape_into(k, out);
                out.put_char(':');
                if pretty {
                    out.put_char(' ');
                }
                render(val, pretty, indent + 1, out);
            }
            if !entries.is_empty() {
                pad(indent, out);
            }
            out.put_char('}');
        }
    }
}

/// Renders a value as compact JSON text.
pub fn to_string(value: &Value) -> Result<String> {
    let mut out = String::new();
    render(value, false, 0, &mut out);
    Ok(out)
}

/// Renders a value as pretty-printed JSON text.
pub fn to_string_pretty(value: &Value) -> Result<String> {
    let mut out = String::new();
    render(value, true, 0, &mut out);
    Ok(out)
}

/// Renders a value as pretty JSON straight into a writer — streamed out
/// piecewise, never materialized as one string (pair with
/// `std::io::BufWriter` for file targets).
pub fn to_writer_pretty<W: Write>(w: W, value: &Value) -> Result<()> {
    let mut sink = IoSink { w, err: None };
    render(value, true, 0, &mut sink);
    match sink.err {
        Some(e) => Err(Error::Io(e)),
        None => Ok(()),
    }
}

/// Parses JSON text into a [`Value`] (or anything built from one).
pub fn from_str<T: From<Value>>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::syntax("trailing characters after JSON value"));
    }
    Ok(T::from(v))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::syntax(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::syntax(format!(
                "unexpected byte {other:?} at {}",
                self.pos
            ))),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::syntax(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::syntax("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::syntax("unterminated escape"));
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err(Error::syntax("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| Error::syntax("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::syntax("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::syntax(format!(
                                "unknown escape \\{}",
                                other as char
                            )))
                        }
                    }
                }
                b => {
                    // Re-assemble UTF-8 multibyte sequences.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match b {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let end = (start + width).min(self.bytes.len());
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| Error::syntax("invalid UTF-8 in string"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::syntax("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::syntax(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::syntax("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::syntax("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip() {
        let v = Value::Object(vec![
            ("a".into(), Value::U64(u64::MAX)),
            ("b".into(), Value::F64(1.5)),
            (
                "c".into(),
                Value::Array(vec![Value::Null, Value::Bool(true)]),
            ),
            ("s".into(), Value::Str("x \"y\"\n".into())),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Value::Array(vec![Value::U64(1), Value::Object(vec![])]);
        let text = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn primitives_roundtrip() {
        for v in [
            Value::from(u64::MAX),
            Value::from(-7i64),
            Value::from(1.25),
            Value::from(true),
            Value::from("hi"),
        ] {
            assert_eq!(from_str::<Value>(&to_string(&v).unwrap()).unwrap(), v);
        }
    }

    #[test]
    fn option_and_vec_roundtrip() {
        let v = Value::from(vec![Value::Null, Value::from(vec![1u16, 2, 3])]);
        assert_eq!(to_string(&v).unwrap(), "[null,[1,2,3]]");
        assert_eq!(from_str::<Value>("[null,[1,2,3]]").unwrap(), v);
    }

    #[test]
    fn field_lookup() {
        let v = json!({"a": 1u64});
        assert_eq!(v.get_field("a"), Some(&Value::U64(1)));
        assert_eq!(v.get_field("b"), None);
        assert_eq!(Value::from(vec![7u8]).get_index(0), Some(&Value::U64(7)));
    }

    #[test]
    fn floats_keep_identity() {
        let text = to_string(&Value::F64(2.0)).unwrap();
        assert_eq!(text, "2.0");
        assert_eq!(from_str::<Value>(&text).unwrap(), Value::F64(2.0));
        assert_eq!(
            to_string(&json!({"n": 3u64, "f": 0.1, "s": "x", "v": vec![1u32]})).unwrap(),
            r#"{"n":3,"f":0.1,"s":"x","v":[1]}"#
        );
    }
}
