//! A hand-rolled JSON value type with an exact-round-trip writer and
//! parser.
//!
//! The repository intentionally has no external dependencies, so this
//! module is the serialization substrate for the harness: experiment
//! results are built as [`Json`] values, cached to disk as JSON text,
//! and read back bit-identically. Every envelope, cache entry, stream
//! line, coordinator wire message and service response is written here,
//! so the output bytes are a contract:
//!
//! * floats are written with Rust's shortest-round-trip formatting,
//!   plus a trailing `.0` when that text has no `.` or exponent, so
//!   `parse(write(x)) == x` bit for bit for every finite float;
//! * integers are `i128`, written in plain decimal, so the full `u64`
//!   range (derived seeds) round-trips;
//! * strings escape exactly `"`, `\` and the bytes below 0x20 (`\n`,
//!   `\r`, `\t` by name, the rest as lowercase `\u00xx`); everything
//!   else, non-ASCII included, is copied through;
//! * objects keep insertion order; pretty output indents two spaces
//!   and writes `": "` between key and value;
//! * [`parse`] refuses documents nesting deeper than [`MAX_DEPTH`]
//!   with a [`ParseError`], instead of exhausting the stack.
//!
//! `crates/harness/tests/json_oracle.rs` pins these bytes against a
//! frozen copy of the previous, slower writer and parser over generated
//! trees: output, round trip and parse errors (offsets included) must
//! all agree.

use std::fmt;

/// A JSON value.
///
/// Objects preserve insertion order so rendered output is deterministic
/// and diffs stay readable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer, stored as `i128` so the full `u64` range
    /// (derived seeds) round-trips losslessly.
    Int(i128),
    /// A finite double. Non-finite values must not be stored; use
    /// [`Json::from_f64`] to map them to `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Builder-style field insertion (replaces an existing key).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Inserts or replaces `key` in an object. Panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Object(fields) => {
                let value = value.into();
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_owned(), value));
                }
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
    }

    /// Field lookup; returns [`Json::Null`] for missing keys or
    /// non-objects.
    pub(crate) fn get(&self, key: &str) -> &Json {
        const NULL: Json = Json::Null;
        match self {
            Json::Object(fields) => fields
                .iter()
                .find_map(|(k, v)| (k == key).then_some(v))
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// The value as f64 (ints are widened); `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as u64; `None` for negatives and non-integers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as &str; `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as bool; `None` otherwise.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements if this is an array, else an empty slice.
    pub fn as_array(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => &[],
        }
    }

    /// The fields if this is an object, else an empty slice.
    pub fn as_object(&self) -> &[(String, Json)] {
        match self {
            Json::Object(fields) => fields,
            _ => &[],
        }
    }

    /// Maps non-finite floats to `null` instead of panicking.
    pub fn from_f64(f: f64) -> Json {
        if f.is_finite() {
            Json::Float(f)
        } else {
            Json::Null
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        self.rendered(false)
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        self.rendered(true)
    }
}

/// A borrowed object for rendering: each value is a borrowed tree, an
/// owned leaf, or a nested borrowed object. It renders byte for byte
/// like the [`Json::Object`] that [`JsonRef::into_json`] builds, without
/// cloning what it borrows.
#[derive(Debug)]
pub(crate) enum JsonRef<'a> {
    /// A value that lives elsewhere.
    Borrowed(&'a Json),
    /// A value built on the spot.
    Owned(Json),
    /// An object with insertion-ordered keys.
    Object(Vec<(&'a str, JsonRef<'a>)>),
}

impl JsonRef<'_> {
    /// Serializes compactly, like [`Json::to_compact`].
    pub(crate) fn to_compact(&self) -> String {
        self.rendered(false)
    }

    /// Serializes with two-space indentation, like [`Json::to_pretty`].
    pub(crate) fn to_pretty(&self) -> String {
        self.rendered(true)
    }

    /// The owned value this view describes (clones what it borrows).
    pub(crate) fn into_json(self) -> Json {
        match self {
            JsonRef::Borrowed(v) => v.clone(),
            JsonRef::Owned(v) => v,
            JsonRef::Object(fields) => Json::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), v.into_json()))
                    .collect(),
            ),
        }
    }
}

/// What the writer can serialize: [`Json`] and [`JsonRef`].
trait Render {
    /// Appends the value at nesting `depth`; `pretty` selects two-space
    /// indentation.
    fn render(&self, out: &mut String, pretty: bool, depth: usize);

    /// The whole value as a fresh string.
    fn rendered(&self, pretty: bool) -> String {
        let mut out = String::new();
        self.render(&mut out, pretty, 0);
        out
    }
}

impl Render for Json {
    fn render(&self, out: &mut String, pretty: bool, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_int(out, *i),
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => write_array(out, items, pretty, depth),
            Json::Object(fields) => write_object(out, fields, pretty, depth),
        }
    }
}

impl Render for JsonRef<'_> {
    fn render(&self, out: &mut String, pretty: bool, depth: usize) {
        match self {
            JsonRef::Borrowed(v) => v.render(out, pretty, depth),
            JsonRef::Owned(v) => v.render(out, pretty, depth),
            JsonRef::Object(fields) => write_object(out, fields, pretty, depth),
        }
    }
}

/// Indentation source: pretty output slices it instead of allocating.
const SPACES: &str = "                                                                ";

/// A newline plus the indentation of nesting `depth` (two spaces each).
fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    let mut n = 2 * depth;
    while n > SPACES.len() {
        out.push_str(SPACES);
        n -= SPACES.len();
    }
    out.push_str(&SPACES[..n]);
}

fn write_array<V: Render>(out: &mut String, items: &[V], pretty: bool, depth: usize) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if pretty {
            newline_indent(out, depth + 1);
        }
        item.render(out, pretty, depth + 1);
    }
    if pretty && !items.is_empty() {
        newline_indent(out, depth);
    }
    out.push(']');
}

fn write_object<K: AsRef<str>, V: Render>(
    out: &mut String,
    fields: &[(K, V)],
    pretty: bool,
    depth: usize,
) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if pretty {
            newline_indent(out, depth + 1);
        }
        write_escaped(out, key.as_ref());
        out.push_str(if pretty { ": " } else { ":" });
        value.render(out, pretty, depth + 1);
    }
    if pretty && !fields.is_empty() {
        newline_indent(out, depth);
    }
    out.push('}');
}

/// Writes an integer in decimal: a digit loop over the `i64` range,
/// `i128` formatting beyond it.
fn write_int(out: &mut String, i: i128) {
    let Ok(small) = i64::try_from(i) else {
        let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
        return;
    };
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    let mut n = small.unsigned_abs();
    loop {
        pos -= 1;
        buf[pos] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if small < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&buf[pos..]).expect("ASCII digits"));
}

/// Writes a finite f64 so it parses back bit-identically and always
/// reads as a float (`40` becomes `40.0`).
fn write_f64(out: &mut String, f: f64) {
    assert!(f.is_finite(), "non-finite float in Json::Float");
    let start = out.len();
    let _ = fmt::Write::write_fmt(out, format_args!("{f}"));
    if !out.as_bytes()[start..]
        .iter()
        .any(|b| matches!(b, b'.' | b'e' | b'E'))
    {
        out.push_str(".0");
    }
}

/// Writes `s` as a JSON string, escaping `"`, `\` and every byte below
/// 0x20 (`\n`, `\r`, `\t` by name, the rest as `\u00xx`) and copying
/// the runs between them whole.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..i` sits on char
        // boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        if named.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(named);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v.into())
    }
}

impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::Int(v.into())
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v.into())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v.into())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::from_f64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        self.get(key)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;

    fn index(&self, idx: usize) -> &Json {
        const NULL: Json = Json::Null;
        self.as_array().get(idx).unwrap_or(&NULL)
    }
}

/// A JSON parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// How deep arrays and objects may nest in a parsed document. Deeper
/// input is refused with a [`ParseError`] at the opening bracket that
/// crosses the line, so no input can exhaust the parsing thread's stack.
/// The harness's own envelopes and cache entries nest at most 8 deep.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
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
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Advances to the next `"` or `\` (or the end) and returns the text
    /// passed over. Both stop bytes are ASCII, so the slice sits on char
    /// boundaries of the input.
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = self.plain_run().to_owned();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
            out.push_str(self.plain_run());
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
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
        let text = &self.src[start..self.pos];
        if is_float {
            return text
                .parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid float"));
        }
        // Up to 18 digits always fit an i64: fold them directly.
        let digits = &self.bytes[start + usize::from(negative)..self.pos];
        if (1..=18).contains(&digits.len()) {
            let magnitude = digits
                .iter()
                .fold(0i64, |n, d| n * 10 + i64::from(d - b'0'));
            return Ok(Json::Int(i128::from(if negative {
                -magnitude
            } else {
                magnitude
            })));
        }
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| self.err("invalid integer"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_exactly() {
        for &f in &[0.1, 1.0 / 3.0, 40.0, -2.5e-7, 1e300, f64::MIN_POSITIVE, 0.0] {
            let v = Json::Float(f);
            let back = parse(&v.to_compact()).unwrap();
            match back {
                Json::Float(g) => assert_eq!(f.to_bits(), g.to_bits(), "{f}"),
                other => panic!("{f} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn documents_round_trip() {
        let doc = Json::object()
            .with("id", "fig4")
            .with("n", 3i64)
            .with("e", 0.125)
            .with("flags", Json::Array(vec![Json::Bool(true), Json::Null]))
            .with("nested", Json::object().with("s", "a \"quoted\"\nline"));
        for text in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn indexing_is_total() {
        let doc = Json::object().with("points", Json::Array(vec![Json::Int(4)]));
        assert_eq!(doc["points"][0], Json::Int(4));
        assert_eq!(doc["missing"]["also missing"][7], Json::Null);
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(parse("[1, 2").is_err());
        assert!(parse("01x").is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_offset() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        // Deep enough to overflow a thread's stack without the cap.
        let deep = "[".repeat(20_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        let deep_objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        let err = parse(&deep_objects).unwrap_err();
        assert_eq!(err.offset, 5 * MAX_DEPTH, "{err}");
    }

    #[test]
    fn borrowed_objects_render_like_owned_ones() {
        let inner = Json::object().with("xs", Json::Array(vec![Json::Int(-3), Json::Float(0.5)]));
        let view = JsonRef::Object(vec![
            ("a", JsonRef::Owned(Json::from("q\"\u{1}"))),
            ("b", JsonRef::Borrowed(&inner)),
            ("c", JsonRef::Object(vec![("d", JsonRef::Borrowed(&inner))])),
            ("e", JsonRef::Object(Vec::new())),
        ]);
        let text = (view.to_pretty(), view.to_compact());
        let owned = view.into_json();
        assert_eq!(text, (owned.to_pretty(), owned.to_compact()));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from_f64(f64::NAN), Json::Null);
        assert_eq!(Json::from_f64(f64::INFINITY), Json::Null);
    }
}
