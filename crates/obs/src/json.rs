//! The workspace's one JSON reader, plus the string escaper every
//! hand-rolled writer shares.
//!
//! The workspace has no serde (no crates.io access), yet it reads JSON
//! from untrusted places — `mpdpd` request lines, perf baselines, fleet
//! metrics documents — and CI must prove the exporters emit *parseable*
//! JSON. [`parse_json`] is a strict recursive-descent reader for RFC 8259:
//! it accepts exactly one top-level value, rejects trailing garbage,
//! unterminated strings, bad escapes, lone surrogates and malformed or
//! non-finite numbers, and returns the value it read. Nesting is capped at
//! [`MAX_DEPTH`], so a hostile document is a typed error, not a stack
//! overflow.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest container nesting [`parse_json`] accepts. The deepest document
/// the workspace writes nests four levels.
pub const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number; always finite.
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; a duplicate key keeps its last value.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The member `key` of an object; `None` for a missing key or a
    /// non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.get(key)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// A parse failure at byte `offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What was wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses `input` as exactly one JSON value.
///
/// # Errors
///
/// A [`JsonError`] at the first violation, including nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse_json(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        b: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing characters after top-level value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Consumes `close` (after whitespace) and reports `true`, or consumes
    /// a `,` and reports `false`.
    fn end_of_container(&mut self, close: u8, message: &'static str) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(false)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err(message)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '{'
        self.skip_ws();
        let mut members = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth)?;
            members.insert(key, value);
            if self.end_of_container(b'}', "expected ',' or '}' in object")? {
                return Ok(Json::Obj(members));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '['
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if self.end_of_container(b']', "expected ',' or ']' in array")? {
                return Ok(Json::Arr(items));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte; all three are ASCII, so the slice ends on a char
            // boundary.
            let run = self.b[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.b.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape sequence")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos` (joining a
    /// surrogate pair), leaving `pos` on its last hex digit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.b[self.pos + 1..].starts_with(b"\\u") {
                    return Err(self.err("unpaired surrogate in \\u escape"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.err("unpaired surrogate in \\u escape"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("unpaired surrogate in \\u escape")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    /// Reads the four hex digits after the `u` at `pos`, leaving `pos` on
    /// the last one.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            self.pos += 1;
            let digit = self
                .peek()
                .and_then(|h| char::from(h).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn digits(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => self.digits(),
            _ => {
                self.pos = start;
                return Err(self.err("invalid number"));
            }
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected digits after decimal point"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected digits in exponent"));
            }
            self.digits();
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => {
                self.pos = start;
                Err(self.err("number out of range"))
            }
        }
    }
}

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes, and control bytes. Shared by every hand-rolled exporter
/// in the workspace (Chrome traces here, fleet telemetry in
/// `mpdp-telemetry`).
pub fn escape_json(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_json_covers_specials() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            "-12.5e3",
            "\"hi \\u0041\\n\"",
            "[]",
            "{}",
            "[1, 2, [3, {\"a\": null}]]",
            "{\"a\":{\"b\":[true,false,\"x\"]},\"c\":0.5}",
            " \n\t{\"k\": -0.1e-2} ",
        ] {
            assert!(parse_json(doc).is_ok(), "should accept: {doc}");
        }
        // The values come back: a request-shaped object, nested
        // containers, a duplicate key (the last one wins) and decoded
        // string escapes, surrogate pairs joined.
        let doc = parse_json(r#"{"op":"admit","id":7,"exec_us":200.5,"ok":true,"n":null}"#)
            .expect("parses");
        assert_eq!(doc.get("op").and_then(Json::as_str), Some("admit"));
        assert_eq!(doc.get("id").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("exec_us"), Some(&Json::Num(200.5)));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("n"), Some(&Json::Null));
        assert_eq!(doc.get("absent"), None);
        let list = parse_json("[1, [\"x\"], {}]").expect("parses");
        let want = [
            Json::Num(1.0),
            Json::Arr(vec![Json::Str("x".into())]),
            Json::Obj(BTreeMap::new()),
        ];
        assert_eq!(list.as_array(), Some(&want[..]));
        assert_eq!(list.get("x"), None, "get on a non-object");
        let dup = parse_json(r#"{"k":1,"k":2}"#).expect("parses");
        assert_eq!(dup.get("k"), Some(&Json::Num(2.0)));
        for (doc, want) in [
            (r#""a\"b\\c\ndA""#, "a\"b\\c\ndA"),
            (r#""\/\b\f\r\t""#, "/\u{8}\u{c}\r\t"),
            (r#""\u0041\u00e9""#, "Aé"),
            (r#""\ud83d\ude00 ok""#, "\u{1F600} ok"),
            ("\"héllo ✓\"", "héllo ✓"),
        ] {
            assert_eq!(parse_json(doc), Ok(Json::Str(want.into())), "{doc}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "\"unterminated",
            "{\"a\":\"unterminated}",
            "\"bad\\q\"",
            "\"bad\\u12g4\"",
            "\"\u{1}\"",
            "01",
            "02",
            "00.5",
            "1.",
            "-.5",
            "1.e3",
            "1e",
            "--1",
            "1e999",
            "-1e999",
            "\"\\ud800\"",
            "\"\\ud800x\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "true false",
            "[1] []",
            "{\"a\":1} x",
            "nul",
        ] {
            assert!(parse_json(doc).is_err(), "should reject: {doc}");
        }
    }

    #[test]
    fn error_reports_offset() {
        let e = parse_json("[1, }").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
        assert_eq!(parse_json("[1e999]").unwrap_err().offset, 1);
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_cap).is_ok());
        let past_cap = format!("{{\"a\":{at_cap}}}");
        let e = parse_json(&past_cap).unwrap_err();
        assert_eq!(e.message, "nesting too deep");
        let e = parse_json(&"[".repeat(1 << 20)).unwrap_err();
        assert_eq!((e.offset, e.message), (MAX_DEPTH, "nesting too deep"));
    }
}
