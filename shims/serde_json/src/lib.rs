//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`to_string`] and [`to_string_pretty`] over the serde shim's JSON
//! writer (the pretty printer re-formats the compact encoding, which is
//! correct because the writer always produces valid JSON), plus a small
//! document model — [`Value`] and [`from_str`] — for reading JSON files
//! back (e.g. committed benchmark baselines). Object keys preserve
//! insertion order, matching serde_json's `preserve_order` feature.
//!
//! There is one parser: it writes a flat [`Tape`] of the document, and
//! [`from_str`] builds its [`Value`] from that tape. Hot readers (the
//! routing service's job lines) read fields straight off the tape through
//! [`ValueRef`] without building the tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::fmt;

/// Serialization or parse error carrying a human-readable message.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// A parsed JSON document.
///
/// Objects are stored as insertion-ordered `(key, value)` vectors rather
/// than maps: baseline files are small, lookups are linear, and the
/// original key order survives a parse→inspect round trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, as in JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object. `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if exactly integral.
    /// `u64::MAX as f64` rounds up to 2^64 (not representable), so the
    /// bound is strict.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl serde::Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Number(x) => x.write_json(out),
            Value::String(s) => serde::write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    serde::write_json_string(key, out);
                    out.push(':');
                    value.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Maximum container nesting the parser accepts (matches real
/// serde_json's default recursion limit) — deeper input gets a parse
/// error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// The most tape nodes a parse reserves up front (2 MiB). Every value but
/// one takes at least two bytes of input (itself and a separator, or a
/// container's two brackets), so `len / 2 + 1` nodes always suffice, and
/// a document of up to about 128 KiB (any job line up to side 128) never
/// regrows its tape. Past that the tape grows with what it holds, so a
/// long run of whitespace or one long string cannot reserve 16 bytes per
/// input byte.
const MAX_RESERVED_NODES: usize = 1 << 16;

/// Parse a JSON document into a [`Value`]. Rejects trailing garbage.
pub fn from_str(input: &str) -> Result<Value, Error> {
    Tape::parse(input).map(|tape| tape.root().to_value())
}

/// A parsed JSON document as a flat tape: one node per value, in document
/// order, each with its byte span in the input.
///
/// This is the shim's only parser; [`from_str`] builds its [`Value`] tree
/// from a tape. A caller that reads a few fields of a document (a job
/// line) reads them from the tape through [`ValueRef`] and never builds
/// the tree. Per value, the tape keeps:
/// - for a number, its value: a digit-only literal of at most 15 digits
///   as an exact integer (it stays below 2^53, so it is exactly the `f64`
///   that `str::parse` rounds it to), and every other literal as the
///   `f64` that `str::parse` gives (validated while parsing);
/// - for a string, whether it holds an escape (escapes are validated
///   while parsing and decoded only when the text is read);
/// - for an array or object, where its last descendant ends, so a reader
///   skips a whole container in one step.
#[derive(Debug)]
pub struct Tape<'a> {
    input: &'a str,
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    /// Byte span of the value in the input; a string's span excludes its
    /// quotes.
    start: usize,
    end: usize,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Null,
    Bool(bool),
    /// A digit-only literal of at most 15 digits, exact.
    Int(u64),
    /// Any other number literal, as `str::parse::<f64>` reads it.
    Float(f64),
    Str {
        escaped: bool,
    },
    /// `after` is the index of the first node past the container's last
    /// descendant. Object children alternate key (a string) and value.
    Array {
        after: usize,
    },
    Object {
        after: usize,
    },
}

impl<'a> Tape<'a> {
    /// Parse `input` as one JSON document. Rejects trailing garbage.
    pub fn parse(input: &'a str) -> Result<Tape<'a>, Error> {
        let mut p = TapeParser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            nodes: Vec::with_capacity((input.len() / 2 + 1).min(MAX_RESERVED_NODES)),
        };
        p.skip_ws();
        p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(Tape { input, nodes: p.nodes })
    }

    /// The document's top-level value.
    pub fn root(&self) -> ValueRef<'_> {
        ValueRef { tape: self, at: 0 }
    }
}

/// One value of a [`Tape`], read with the same rules as [`Value`]'s
/// accessors.
#[derive(Debug, Clone, Copy)]
pub struct ValueRef<'t> {
    tape: &'t Tape<'t>,
    at: usize,
}

impl<'t> ValueRef<'t> {
    fn node(self) -> Node {
        self.tape.nodes[self.at]
    }

    /// The index of the first node past this value's subtree.
    fn after(self) -> usize {
        match self.node().kind {
            Kind::Array { after } | Kind::Object { after } => after,
            _ => self.at + 1,
        }
    }

    /// The value's source text (a string's without its quotes).
    fn raw(self) -> &'t str {
        let node = self.node();
        &self.tape.input[node.start..node.end]
    }

    /// Look up a key in an object: the first entry whose key, unescaped,
    /// equals `key`. `None` for missing keys or non-objects.
    pub fn get(self, key: &str) -> Option<ValueRef<'t>> {
        self.entries()?.find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An object's entries in document order, keys unescaped (borrowed
    /// from the input unless they hold an escape). `None` for non-objects.
    pub fn entries(self) -> Option<Entries<'t>> {
        match self.node().kind {
            Kind::Object { after } => Some(Entries { tape: self.tape, at: self.at + 1, after }),
            _ => None,
        }
    }

    /// An array's elements in document order. `None` for non-arrays.
    pub fn elements(self) -> Option<Elements<'t>> {
        match self.node().kind {
            Kind::Array { after } => Some(Elements { tape: self.tape, at: self.at + 1, after }),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if exactly integral
    /// (the same rule as [`Value::as_u64`]).
    pub fn as_u64(self) -> Option<u64> {
        match self.node().kind {
            Kind::Int(n) => Some(n),
            Kind::Float(x) => Value::Number(x).as_u64(),
            _ => None,
        }
    }

    /// The string, unescaped (borrowed from the input unless it holds an
    /// escape), if this is a string.
    pub fn as_str(self) -> Option<Cow<'t, str>> {
        match self.node().kind {
            Kind::Str { escaped: false } => Some(Cow::Borrowed(self.raw())),
            Kind::Str { escaped: true } => Some(Cow::Owned(unescape(self.raw()))),
            _ => None,
        }
    }

    /// Build the [`Value`] tree of this value.
    fn to_value(self) -> Value {
        match self.node().kind {
            Kind::Null => Value::Null,
            Kind::Bool(b) => Value::Bool(b),
            Kind::Int(n) => Value::Number(n as f64),
            Kind::Float(x) => Value::Number(x),
            Kind::Str { .. } => {
                Value::String(self.as_str().map(Cow::into_owned).unwrap_or_default())
            }
            Kind::Array { .. } => Value::Array(
                self.elements()
                    .into_iter()
                    .flatten()
                    .map(ValueRef::to_value)
                    .collect(),
            ),
            Kind::Object { .. } => Value::Object(
                self.entries()
                    .into_iter()
                    .flatten()
                    .map(|(k, v)| (k.into_owned(), v.to_value()))
                    .collect(),
            ),
        }
    }
}

/// The elements of an array [`ValueRef`].
#[derive(Debug, Clone)]
pub struct Elements<'t> {
    tape: &'t Tape<'t>,
    at: usize,
    after: usize,
}

impl<'t> Iterator for Elements<'t> {
    type Item = ValueRef<'t>;

    fn next(&mut self) -> Option<ValueRef<'t>> {
        if self.at == self.after {
            return None;
        }
        let item = ValueRef { tape: self.tape, at: self.at };
        self.at = item.after();
        Some(item)
    }

    /// Exact for an array of scalars (one node each); nested containers
    /// make the upper bound an over-count.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let nodes = self.after - self.at;
        (nodes.min(1), Some(nodes))
    }
}

/// The `(key, value)` entries of an object [`ValueRef`].
#[derive(Debug, Clone)]
pub struct Entries<'t> {
    tape: &'t Tape<'t>,
    at: usize,
    after: usize,
}

impl<'t> Iterator for Entries<'t> {
    type Item = (Cow<'t, str>, ValueRef<'t>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.at == self.after {
            return None;
        }
        let key = ValueRef { tape: self.tape, at: self.at };
        let value = ValueRef { tape: self.tape, at: self.at + 1 };
        self.at = value.after();
        Some((key.as_str().unwrap_or_default(), value))
    }
}

/// The code point of the four bytes after a `\u`, read the way the
/// parser always has (`u32::from_str_radix`, so a leading `+` passes).
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
}

/// Decode the escapes of a string's text, which the parser validated.
fn unescape(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = String::with_capacity(raw.len());
    let mut pos = 0;
    while let Some(off) = raw[pos..].find('\\') {
        out.push_str(&raw[pos..pos + off]);
        pos += off + 1;
        let esc = bytes[pos];
        pos += 1;
        match esc {
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                // Surrogates (emitted by real serde_json for astral
                // chars) are not produced by our writer; map lone ones
                // to the replacement character.
                let hex = hex4(bytes, pos).unwrap_or(0xfffd);
                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                pos += 4;
            }
            // `"`, `\` and `/` stand for themselves.
            other => out.push(other as char),
        }
    }
    out.push_str(&raw[pos..]);
    out
}

struct TapeParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    nodes: Vec<Node>,
}

impl TapeParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn push(&mut self, kind: Kind, start: usize) {
        self.nodes.push(Node { kind, start, end: self.pos });
    }

    fn eat_literal(&mut self, lit: &str, kind: Kind) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            let start = self.pos;
            self.pos += lit.len();
            self.push(kind, start);
            Ok(())
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Kind::Null),
            Some(b't') => self.eat_literal("true", Kind::Bool(true)),
            Some(b'f') => self.eat_literal("false", Kind::Bool(false)),
            Some(b'"') => self.parse_string(),
            Some(b'[') => self.parse_container(Self::parse_array_inner),
            Some(b'{') => self.parse_container(Self::parse_object_inner),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    /// Check the nesting depth, then parse one array or object with
    /// `inner`, which fills in the container node it is handed.
    fn parse_container(
        &mut self,
        inner: fn(&mut Self, usize) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        let at = self.nodes.len();
        self.push(Kind::Null, self.pos);
        inner(self, at)?;
        self.depth -= 1;
        self.nodes[at].end = self.pos;
        Ok(())
    }

    fn parse_array_inner(&mut self, at: usize) -> Result<(), Error> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                self.skip_ws();
                self.parse_value()?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
                }
            }
        }
        self.pos += 1;
        self.nodes[at].kind = Kind::Array { after: self.nodes.len() };
        Ok(())
    }

    fn parse_object_inner(&mut self, at: usize) -> Result<(), Error> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                self.parse_string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                self.parse_value()?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
                }
            }
        }
        self.pos += 1;
        self.nodes[at].kind = Kind::Object { after: self.nodes.len() };
        Ok(())
    }

    /// Scan a string, validating its escapes; the node's span is the text
    /// between the quotes. A multi-byte UTF-8 scalar never contains an
    /// ASCII byte, so stopping only at `"` and `\` keeps `pos` on char
    /// boundaries.
    fn parse_string(&mut self) -> Result<(), Error> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.push(Kind::Str { escaped }, start);
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| Error("bad escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            hex4(self.bytes, self.pos)
                                .ok_or_else(|| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                        }
                        _ => return Err(Error(format!("bad escape \\{}", esc as char))),
                    }
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Scan a number literal (an optional `-`, then any run of digits,
    /// `.`, `e`, `E`, `+` and `-`) and store its value: an exact integer
    /// for at most 15 plain digits, else what `str::parse::<f64>` reads.
    fn parse_number(&mut self) -> Result<(), Error> {
        let start = self.pos;
        let mut plain = true;
        let mut n = 0u64;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            plain = false;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => n = n.wrapping_mul(10).wrapping_add(u64::from(b - b'0')),
                b'.' | b'e' | b'E' | b'+' | b'-' => plain = false,
                _ => break,
            }
            self.pos += 1;
        }
        if plain && self.pos - start <= 15 {
            self.push(Kind::Int(n), start);
            return Ok(());
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("the scan consumed ASCII bytes only");
        let x = text
            .parse::<f64>()
            .map_err(|_| Error(format!("invalid number {text:?}")))?;
        self.push(Kind::Float(x), start);
        Ok(())
    }
}

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serialize `value` to a 2-space-indented JSON string.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let compact = to_string(value)?;
    Ok(prettify(&compact))
}

/// Re-indent a compact JSON document (2 spaces, serde_json style).
fn prettify(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = compact.chars().peekable();

    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };

    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                // Keep empty containers on one line.
                let close = if c == '{' { '}' } else { ']' };
                if chars.peek() == Some(&close) {
                    out.push(chars.next().unwrap());
                } else {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => {
                out.push_str(": ");
            }
            c => out.push(c),
        }
    }
    out
}

/// The tree parser the tape replaced, kept verbatim (generic over its
/// number reader) as a differential reference.
#[cfg(test)]
mod reference {
    use super::{Error, Value, MAX_DEPTH};

    /// Parse a document, turning each number literal into a [`Value`] with
    /// `number`.
    pub fn parse_document(
        input: &str,
        number: impl Fn(&str) -> Result<Value, Error>,
    ) -> Result<Value, Error> {
        let mut p = Parser { input, bytes: input.as_bytes(), pos: 0, depth: 0, number };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }

    struct Parser<'a, N> {
        input: &'a str,
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
        number: N,
    }

    impl<N: Fn(&str) -> Result<Value, Error>> Parser<'_, N> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), Error> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(Error(format!(
                    "expected {:?} at byte {}",
                    b as char, self.pos
                )))
            }
        }

        fn eat_literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(Error(format!("invalid literal at byte {}", self.pos)))
            }
        }

        fn parse_value(&mut self) -> Result<Value, Error> {
            match self.peek() {
                Some(b'n') => self.eat_literal("null", Value::Null),
                Some(b't') => self.eat_literal("true", Value::Bool(true)),
                Some(b'f') => self.eat_literal("false", Value::Bool(false)),
                Some(b'"') => Ok(Value::String(self.parse_string()?)),
                Some(b'[') => self.parse_array(),
                Some(b'{') => self.parse_object(),
                Some(b'-' | b'0'..=b'9') => self.parse_number(),
                _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
            }
        }

        fn enter(&mut self) -> Result<(), Error> {
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                return Err(Error(format!("nesting deeper than {MAX_DEPTH} levels")));
            }
            Ok(())
        }

        fn parse_array(&mut self) -> Result<Value, Error> {
            self.enter()?;
            let v = self.parse_array_inner()?;
            self.depth -= 1;
            Ok(v)
        }

        fn parse_array_inner(&mut self) -> Result<Value, Error> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.parse_value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
                }
            }
        }

        fn parse_object(&mut self) -> Result<Value, Error> {
            self.enter()?;
            let v = self.parse_object_inner()?;
            self.depth -= 1;
            Ok(v)
        }

        fn parse_object_inner(&mut self) -> Result<Value, Error> {
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
                self.skip_ws();
                let value = self.parse_value()?;
                entries.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
                }
            }
        }

        fn parse_string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(Error("unterminated string".into())),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| Error("bad escape".into()))?;
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
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| Error("bad \\u escape".into()))?;
                                self.pos += 4;
                                // Surrogates (emitted by real serde_json for
                                // astral chars) are not produced by our writer;
                                // map lone ones to the replacement character.
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(Error(format!("bad escape \\{}", esc as char))),
                        }
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar. `pos` always sits on a
                        // char boundary, so the O(1) boundary-checked slice
                        // avoids revalidating the rest of the document.
                        let c = self.input[self.pos..].chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn parse_number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.pos += 1;
            }
            // The scan consumed ASCII bytes only, so both ends are char
            // boundaries.
            (self.number)(&self.input[start..self.pos])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The float-only number reader of the reference tree parser (the
    /// tape's integer literals must read exactly as it does).
    fn reference_number(text: &str) -> Result<Value, Error> {
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error(format!("invalid number {text:?}")))
    }

    /// Structural equality with numbers compared bit for bit (`-0` is not
    /// `0`).
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
            (Value::Array(xs), Value::Array(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
            }
            (Value::Object(xs), Value::Object(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
            }
            _ => a == b,
        }
    }

    /// `from_str` and the reference parser agree on `input`: the same
    /// document or the same error string (and the tape kept its first
    /// allocation).
    fn assert_matches_reference(input: &str) -> Result<Value, Error> {
        let (got, want) = (
            from_str(input),
            reference::parse_document(input, reference_number),
        );
        match (&got, &want) {
            (Ok(a), Ok(b)) => assert!(same(a, b), "{input:?}: {a:?} against {b:?}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{input:?}"),
            _ => panic!("{input:?}: {got:?} against the reference's {want:?}"),
        }
        if let Ok(tape) = Tape::parse(input) {
            let reserved = (input.len() / 2 + 1).min(MAX_RESERVED_NODES);
            assert_eq!(tape.nodes.capacity(), reserved, "{input:?} regrew");
        }
        got
    }

    /// Deterministic single-byte mutations of `line` at `positions`:
    /// delete the byte, replace it with, or insert before it, each byte of
    /// `alphabet`. Mutants that are not UTF-8 are skipped.
    fn mutations<'a>(
        line: &'a str,
        positions: impl Iterator<Item = usize> + 'a,
        alphabet: &'a [u8],
    ) -> impl Iterator<Item = String> + 'a {
        let bytes = line.as_bytes();
        positions.flat_map(move |at| {
            let delete = [bytes[..at].to_vec(), bytes[at + 1..].to_vec()].concat();
            let edits = alphabet.iter().flat_map(move |&b| {
                let replace = [&bytes[..at], &[b], &bytes[at + 1..]].concat();
                let insert = [&bytes[..at], &[b], &bytes[at..]].concat();
                [replace, insert]
            });
            std::iter::once(delete)
                .chain(edits)
                .filter_map(|m| String::from_utf8(m).ok())
        })
    }

    /// Number, sign, exponent, structure, whitespace and string bytes.
    const ALPHABET: &[u8] = b"0189-+.eE ,:[]{}\"x";
    /// The bytes that most often turn a literal into another literal.
    const SHORT_ALPHABET: &[u8] = b"09-.e, ]";

    /// Campaign-style explicit-permutation job lines (a fixed shuffle).
    fn perm_lines() -> Vec<String> {
        let mut state = 0x2203_1133_u64;
        (2..=5)
            .map(|side: usize| {
                let mut table: Vec<usize> = (0..side * side).collect();
                for k in (1..table.len()).rev() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    table.swap(k, (state >> 33) as usize % (k + 1));
                }
                let entries: Vec<String> = table.iter().map(usize::to_string).collect();
                format!(
                    r#"{{"side":{side},"router":"auto","perm":[{}]}}"#,
                    entries.join(",")
                )
            })
            .collect()
    }

    #[test]
    fn mutated_job_lines_parse_like_the_reference() {
        let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
        let mut files: Vec<_> = std::fs::read_dir(examples)
            .expect("examples directory")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        files.sort();
        assert!(files.len() >= 3, "{files:?}");
        let mut mutants = 0usize;
        for line in perm_lines() {
            for m in mutations(&line, 0..line.len(), ALPHABET) {
                let _ = assert_matches_reference(&m);
                mutants += 1;
            }
        }
        for path in files {
            let text = std::fs::read_to_string(&path).expect("example file");
            let outcomes = path.to_string_lossy().ends_with(".expected.jsonl");
            // The edge-case job file holds malformed lines on purpose.
            let malformed_on_purpose = path.ends_with("jobs_edge.jsonl");
            for line in text.lines() {
                let parsed = assert_matches_reference(line);
                if !malformed_on_purpose {
                    parsed.expect("example lines are JSON");
                }
                // Short job lines get every position and the full
                // alphabet; outcome lines and long permutation lines (the
                // same shape as the campaign lines above) their head, two
                // inner bytes and their tail.
                let n = line.len();
                let (positions, alphabet): (Vec<usize>, _) = if n <= 200 && !outcomes {
                    ((0..n).collect(), ALPHABET)
                } else {
                    let sample = (0..12).step_by(2).chain([n / 3, n / 2, n - 2, n - 1]);
                    (sample.collect(), SHORT_ALPHABET)
                };
                for m in mutations(line, positions.into_iter(), alphabet) {
                    let _ = assert_matches_reference(&m);
                    mutants += 1;
                }
            }
        }
        assert!(mutants > 100_000, "only {mutants} mutants");
    }

    #[test]
    fn edge_literals_keep_their_values_and_errors() {
        for (literal, value) in [
            ("007", 7.0),
            ("01", 1.0),
            ("1e1", 10.0),
            ("999999999999999", 999_999_999_999_999.0),
            ("9007199254740993", 9_007_199_254_740_992.0),
            ("18446744073709551616", 18_446_744_073_709_551_616.0),
            ("1e3", 1000.0),
            ("1.0", 1.0),
            ("-0", -0.0),
        ] {
            let got = assert_matches_reference(literal).expect("a valid literal");
            let Value::Number(x) = got else {
                panic!("{literal:?} parsed as {got:?}");
            };
            assert_eq!(x.to_bits(), f64::to_bits(value), "{literal:?}");
        }
        for literal in ["1-2", "1e", "-"] {
            let err = assert_matches_reference(literal).expect_err("a malformed literal");
            assert_eq!(
                err.to_string(),
                format!("JSON error: invalid number {literal:?}")
            );
        }
    }

    #[test]
    fn edge_documents_match_the_reference() {
        for doc in [
            r#"{"\u0073ide":3,"side":4,"side":"x"}"#,
            r#""\u+041\/\"\\\b\f\n\r\t\ud800é""#,
            r#"{"a":[1,[2,[3,{}]],[]],"b":{"c":null,"d":[true,false]}}"#,
            "[\"ä\\u00e4\"]",
            r#""bad \q""#,
            r#""\u00zz""#,
            r#""\"#,
            r#""open"#,
            r#"{"side" 4}"#,
            r#"{"a":1,}"#,
            "[1,]",
            "{} x",
            "[1.5e+3, -2E-2, -0.0, 1.]",
        ] {
            let _ = assert_matches_reference(doc);
        }
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let _ = assert_matches_reference(&deep);
    }

    #[test]
    fn long_documents_reserve_a_bounded_tape() {
        // A megabyte of whitespace around one value reserves at most the
        // cap, and a document with more values than the cap still parses.
        let padded = format!("{}1", " ".repeat(1 << 20));
        let tape = Tape::parse(&padded).unwrap();
        assert_eq!(tape.nodes.capacity(), MAX_RESERVED_NODES);
        let many = format!("[{}0]", "0,".repeat(MAX_RESERVED_NODES));
        let tape = Tape::parse(&many).unwrap();
        assert_eq!(
            tape.root().elements().unwrap().count(),
            MAX_RESERVED_NODES + 1
        );
    }

    #[test]
    fn tape_reads_fields_without_the_tree() {
        let line = r#"{"\u0073ide":8,"side":9,"perm":[3,1e0,-0,2.5],"t":{"k":"a\tb"}}"#;
        let tape = Tape::parse(line).unwrap();
        let doc = tape.root();
        assert_eq!(
            doc.get("side").and_then(ValueRef::as_u64),
            Some(8),
            "the first key wins"
        );
        let perm: Vec<Option<u64>> = doc
            .get("perm")
            .unwrap()
            .elements()
            .unwrap()
            .map(ValueRef::as_u64)
            .collect();
        assert_eq!(perm, [Some(3), Some(1), Some(0), None]);
        let t = doc.get("t").unwrap();
        assert_eq!(t.get("k").unwrap().as_str().as_deref(), Some("a\tb"));
        assert!(doc.get("k").is_none() && t.get("k").unwrap().get("k").is_none());
        let keys: Vec<String> = doc
            .entries()
            .unwrap()
            .map(|(k, _)| k.into_owned())
            .collect();
        assert_eq!(keys, ["side", "side", "perm", "t"]);
        assert!(doc.elements().is_none() && doc.as_str().is_none());
    }

    #[test]
    fn pretty_formats_arrays_of_numbers() {
        let v = vec![1u32, 2, 3];
        assert_eq!(to_string(&v).unwrap(), "[1,2,3]");
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2,\n  3\n]");
    }

    #[test]
    fn pretty_leaves_strings_intact() {
        let v = vec!["a{b".to_string(), "c,d".to_string()];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\"a{b\""));
        assert!(pretty.contains("\"c,d\""));
    }

    #[test]
    fn empty_array_stays_inline() {
        let v: Vec<u32> = vec![];
        assert_eq!(to_string_pretty(&v).unwrap(), "[]");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str(" -1.5e2 ").unwrap(), Value::Number(-150.0));
        assert_eq!(
            from_str("\"a\\n\\\"b\\u0041\"").unwrap(),
            Value::String("a\n\"bA".into())
        );
    }

    #[test]
    fn parses_nested_documents_preserving_key_order() {
        let v = from_str(r#"{"z": [1, 2, {"k": null}], "a": {"b": false}}"#).unwrap();
        match &v {
            Value::Object(entries) => {
                assert_eq!(entries[0].0, "z");
                assert_eq!(entries[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(v.get("z").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn accessors_are_type_checked() {
        let v = from_str("{\"n\": 3, \"f\": 2.5, \"s\": \"x\"}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        // 2^64 is not representable as u64; the saturating cast must not
        // silently hand back u64::MAX.
        assert_eq!(from_str("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(from_str("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "nul", "\"open"] {
            assert!(from_str(bad).is_err(), "{bad:?} should fail to parse");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(200_000);
        let err = from_str(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str(&ok).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(from_str(&too_deep).is_err());
    }

    #[test]
    fn round_trips_writer_output() {
        let written = to_string_pretty(&vec![1.5f64, 2.0, 3.25]).unwrap();
        let parsed = from_str(&written).unwrap();
        assert_eq!(
            parsed,
            Value::Array(vec![
                Value::Number(1.5),
                Value::Number(2.0),
                Value::Number(3.25)
            ])
        );
    }
}
