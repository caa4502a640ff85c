//! Minimal deterministic JSON writing helpers and a small parser.
//!
//! The workspace's `serde` is an offline marker shim (its derives expand to
//! nothing), so every JSON emitter in the tree writes strings by hand. These
//! helpers keep that honest: proper escaping and a number format that is
//! stable across runs, which is what makes golden-file trace tests possible.
//! Every exporter appends into one buffer through the `push_*` helpers;
//! [`string`], [`number`] and [`object`] return a standalone value for
//! callers that assemble a small document (the `mobius-perf` report).
//! The recursive-descent [`parse`] exists for the one place the workspace
//! *reads* JSON back: `mobius-cli analyze --trace-in`, which recovers the
//! embedded `mobiusDag` object from a recorded Chrome trace.

use std::fmt::Write as _;

use crate::span::AttrValue;

/// Appends the escaped body of `s` (no quotes). Every character that needs
/// an escape is ASCII, so the scan runs over bytes and copies the clean
/// stretches between escapes whole; a string with nothing to escape is one
/// copy.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut clean = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "", // any other control character: `\u00XX` below
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends a finite f64 as a JSON number; non-finite values (which JSON
/// cannot represent) become `null`.
pub fn push_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends nanoseconds as a microsecond JSON number with ns precision
/// (`1500` → `1.500`).
pub(crate) fn push_timestamp(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Appends one span attribute value.
pub(crate) fn push_attr(out: &mut String, v: &AttrValue) {
    match v {
        AttrValue::U64(x) => push_u64(out, *x),
        AttrValue::I64(x) => {
            let _ = write!(out, "{x}");
        }
        AttrValue::F64(x) => push_number(out, *x),
        AttrValue::Str(s) => push_string(out, s),
        AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Appends an unsigned integer.
pub fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Appends `[a,b,…]`, writing each item with `push`.
pub fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

/// Appends `{"key":value,…}` with escaped keys, writing each value with
/// `push`.
pub fn push_object<K: AsRef<str>, T>(
    out: &mut String,
    fields: impl IntoIterator<Item = (K, T)>,
    mut push: impl FnMut(&mut String, T),
) {
    out.push('{');
    for (i, (k, v)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(out, k.as_ref());
        out.push(':');
        push(out, v);
    }
    out.push('}');
}

/// Writes `s` as a quoted, escaped JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Formats a finite f64 as a JSON number; non-finite values become `null`.
pub fn number(v: f64) -> String {
    let mut out = String::new();
    push_number(&mut out, v);
    out
}

/// Joins already-rendered `"key":value` pairs into an object. Keys are
/// escaped; values must already be valid JSON.
pub fn object<'a, I: IntoIterator<Item = (&'a str, String)>>(fields: I) -> String {
    let mut out = String::new();
    push_object(&mut out, fields, |out, v| out.push_str(&v));
    out
}

/// A parsed JSON value. Object members keep source order in a `Vec`
/// (deterministic iteration without hashing).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (trace values stay below 2^53, so
    /// integers round-trip exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, when it is one
    /// exactly (no fractional part, within `u64` range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Error from [`parse`]: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human description of the failure.
    pub msg: String,
    /// Byte offset into the input where parsing stopped.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            at: self.pos,
        }
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
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
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u` + low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let full = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(full)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-borrow the full UTF-8 character starting here.
                    self.pos -= 1;
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty char"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("bad hex digit")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}x\u{1f}"), "\"\\u0001x\\u001f\"");
        assert_eq!(string("plain é"), "\"plain é\"");
    }

    #[test]
    fn microsecond_timestamps_keep_ns_precision() {
        for (ns, want) in [(1_500, "1.500"), (0, "0.000"), (1_000_001, "1000.001")] {
            let mut out = String::new();
            push_timestamp(&mut out, ns);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn numbers_are_plain_or_null() {
        assert_eq!(number(1.0), "1");
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn composes_objects_and_arrays() {
        let o = object([("a", number(1.0)), ("b", string("x"))]);
        assert_eq!(o, "{\"a\":1,\"b\":\"x\"}");
        let mut a = String::new();
        push_array(&mut a, [1, 2], push_u64);
        assert_eq!(a, "[1,2]");
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), Value::Num(-25.0));
        assert_eq!(
            parse("[1,2,[]]").unwrap(),
            Value::Arr(vec![Value::Num(1.0), Value::Num(2.0), Value::Arr(vec![])])
        );
        let v = parse(r#"{"a": 1, "b": {"c": "x"}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("x")
        );
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        assert_eq!(parse(r#""a\"b\nA""#).unwrap(), Value::Str("a\"b\nA".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("\u{1F600}".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#"{"a"}"#).is_err());
    }

    #[test]
    fn round_trips_writer_output() {
        let text = object([
            ("s", string("q\"uote")),
            ("n", number(1.25)),
            ("a", "[null,3]".to_string()),
        ]);
        let v = parse(&text).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("q\"uote"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(1.25));
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn as_u64_requires_exact_integers() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
