//! Byte-identity oracle for `lh_harness::json`.
//!
//! The `oracle` module below is the writer and parser `json.rs` shipped
//! before its fast path, copied verbatim (only wrapped in a trait so it
//! can live outside the crate). It is test-only and never shipped. The
//! properties run the current code and the oracle over generated trees
//! — quotes, backslashes, every control byte, non-ASCII text, `i128`
//! integers beyond `i64`, signed zero, subnormal and huge floats,
//! integral floats — and over damaged renderings of them, and demand
//! identical bytes, an exact round trip, and identical parse results,
//! error messages and offsets included.

use lh_harness::json::{self, Json, MAX_DEPTH};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

mod oracle {
    use std::fmt;

    use lh_harness::json::{Json, ParseError};

    pub(crate) trait Oracle {
        fn to_compact(&self) -> String;
        fn to_pretty(&self) -> String;
        fn write(&self, out: &mut String, indent: Option<usize>, depth: usize);
    }

    impl Oracle for Json {
        /// Serializes compactly (no whitespace).
        fn to_compact(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, None, 0);
            out
        }

        /// Serializes with two-space indentation.
        fn to_pretty(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, Some(2), 0);
            out
        }

        fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Int(i) => {
                    let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
                }
                Json::Float(f) => out.push_str(&format_f64(*f)),
                Json::Str(s) => write_escaped(out, s),
                Json::Array(items) => {
                    write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                        items[i].write(out, indent, depth + 1)
                    })
                }
                Json::Object(fields) => {
                    write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                        let (k, v) = &fields[i];
                        write_escaped(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, depth + 1)
                    })
                }
            }
        }
    }

    /// Formats a finite f64 so it parses back bit-identically and always
    /// reads as a float (`40` becomes `40.0`).
    fn format_f64(f: f64) -> String {
        assert!(f.is_finite(), "non-finite float in Json::Float");
        let s = format!("{f}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    }

    fn write_seq(
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
        open: char,
        close: char,
        len: usize,
        mut item: impl FnMut(&mut String, usize),
    ) {
        out.push(open);
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * (depth + 1)));
            }
            item(out, i);
        }
        if len > 0 {
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * depth));
            }
        }
        out.push(close);
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
                c if (c as u32) < 0x20 => {
                    let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Parses a JSON document.
    pub(crate) fn parse(input: &str) -> Result<Json, ParseError> {
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
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.err("expected a value")),
            }
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

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                    self.pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?,
                );
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
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| self.err("bad \\u escape"))?;
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
            }
        }

        fn number(&mut self) -> Result<Json, ParseError> {
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
                .map_err(|_| self.err("invalid number"))?;
            if is_float {
                text.parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err("invalid float"))
            } else {
                text.parse::<i128>()
                    .map(Json::Int)
                    .map_err(|_| self.err("invalid integer"))
            }
        }
    }
}

use oracle::Oracle;

/// Characters strings are drawn from: the escaped set (`"`, `\`, every
/// byte below 0x20), their neighbours, and multi-byte UTF-8.
fn sample_char(rng: &mut TestRng) -> char {
    match rng.below(6) {
        0 => char::from(rng.below(0x20) as u8),
        1 => ['"', '\\', '/', '\u{7f}', ' ', 'u'][rng.below(6) as usize],
        2 => ['é', '€', '😀', '\u{2028}', '\u{fffd}', 'ß'][rng.below(6) as usize],
        _ => char::from(b' ' + rng.below(95) as u8),
    }
}

fn sample_string(rng: &mut TestRng) -> String {
    (0..rng.below(12)).map(|_| sample_char(rng)).collect()
}

/// Integers across every boundary the writer and parser switch on:
/// the 18-digit parse fast path, the `i64` write fast path and `i128`.
fn sample_int(rng: &mut TestRng) -> i128 {
    const EDGES: &[i128] = &[
        0,
        -1,
        999_999_999_999_999_999,
        1_000_000_000_000_000_000,
        -999_999_999_999_999_999,
        -1_000_000_000_000_000_000,
        i64::MAX as i128,
        i64::MAX as i128 + 1,
        i64::MIN as i128,
        i64::MIN as i128 - 1,
        u64::MAX as i128,
        i128::MAX,
        i128::MIN,
    ];
    match rng.below(4) {
        0 => EDGES[rng.below(EDGES.len() as u64) as usize],
        1 => i128::from(rng.next_u64() as i64) >> rng.below(64),
        2 => (i128::from(rng.next_u64()) << 64 | i128::from(rng.next_u64())) >> rng.below(127),
        _ => i128::from(rng.next_u64() as i64),
    }
}

/// Finite floats: signed zero, subnormals, huge and integral values,
/// and arbitrary bit patterns.
fn sample_float(rng: &mut TestRng) -> f64 {
    const EDGES: &[f64] = &[
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN_POSITIVE,
        40.0,
        -3.0,
        1e15,
        1e16,
        9_007_199_254_740_992.0,
        1e21,
        0.1,
    ];
    match rng.below(4) {
        0 => EDGES[rng.below(EDGES.len() as u64) as usize],
        1 => (rng.next_u64() as i64 >> rng.below(64)) as f64,
        _ => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                break f;
            }
        },
    }
}

/// Depth-bounded strategy over arbitrary JSON trees.
#[derive(Debug, Clone, Copy)]
struct ArbJson {
    depth: u8,
}

impl Strategy for ArbJson {
    type Value = Json;

    fn sample(&self, rng: &mut TestRng) -> Json {
        let variants = if self.depth == 0 { 5 } else { 7 };
        let inner = ArbJson {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(variants) {
            0 => [Json::Null, Json::Bool(true), Json::Bool(false)][rng.below(3) as usize].clone(),
            1 => Json::Int(sample_int(rng)),
            2 => Json::Float(sample_float(rng)),
            3 | 4 => Json::Str(sample_string(rng)),
            5 => Json::Array((0..rng.below(4)).map(|_| inner.sample(rng)).collect()),
            _ => Json::Object(
                (0..rng.below(4))
                    .map(|_| (sample_string(rng), inner.sample(rng)))
                    .collect(),
            ),
        }
    }
}

/// A rendering damaged at a random char boundary: cut short, a char
/// dropped, or a JSON-significant ASCII byte inserted.
fn damage(text: &str, rng: &mut TestRng) -> String {
    let cuts: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect();
    let at = cuts[rng.below(cuts.len() as u64) as usize];
    let rest = &text[at..];
    match rng.below(3) {
        0 => text[..at].to_owned(),
        1 => {
            let skip = rest.chars().next().map_or(0, char::len_utf8);
            format!("{}{}", &text[..at], &rest[skip..])
        }
        _ => {
            let b = b"\"\\[]{},:-+.eE0u n"[rng.below(17) as usize] as char;
            format!("{}{b}{rest}", &text[..at])
        }
    }
}

fn assert_parse_agrees(text: &str) {
    assert_eq!(json::parse(text), oracle::parse(text), "input: {text:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Rendering matches the oracle byte for byte, and parsing gives
    /// the tree back (signed zero included, via the re-rendered bytes).
    #[test]
    fn writer_matches_the_oracle_and_round_trips(tree in ArbJson { depth: 4 }) {
        let pretty = tree.to_pretty();
        let compact = tree.to_compact();
        prop_assert_eq!(&pretty, &Oracle::to_pretty(&tree));
        prop_assert_eq!(&compact, &Oracle::to_compact(&tree));
        for text in [&pretty, &compact] {
            let back = json::parse(text);
            prop_assert_eq!(back.as_ref(), Ok(&tree));
            prop_assert_eq!(&back.unwrap().to_compact(), &compact);
            assert_parse_agrees(text);
        }
    }

    /// Damaged renderings parse, or fail with the same message at the
    /// same offset, exactly as under the oracle.
    #[test]
    fn parser_agrees_with_the_oracle_on_damaged_input(
        tree in ArbJson { depth: 3 },
        seed in any::<u64>(),
    ) {
        let mut rng = TestRng::deterministic(&seed.to_string());
        for text in [tree.to_pretty(), tree.to_compact()] {
            let mut damaged = text;
            for _ in 0..3 {
                damaged = damage(&damaged, &mut rng);
                assert_parse_agrees(&damaged);
            }
        }
    }
}

#[test]
fn parser_agrees_with_the_oracle_on_edge_inputs() {
    for text in [
        "",
        " ",
        "-",
        "--1",
        "1-2",
        "01x",
        "-0",
        "1e",
        "1.5e+3",
        "-.5",
        "5.",
        "nul",
        "tru",
        "[1,]",
        "[1 2]",
        "{\"a\" 1}",
        "{\"a\":}",
        "{1:2}",
        "\"abc",
        "\"\\",
        "\"\\q\"",
        "\"\\u12\"",
        "\"\\u+abc\"",
        "\"\\ud800\"",
        "\"\\u00e9\\n\"",
        "\"\\u00é\"",
        "\"é\\\"",
        "1 2",
        "[[[]]]x",
        "123456789012345678",
        "1234567890123456789",
        "-170141183460469231731687303715884105728",
        "170141183460469231731687303715884105728",
    ] {
        assert_parse_agrees(text);
    }
}

/// Nesting at the cap parses exactly as before; one level deeper is a
/// parse error at the opening bracket, where the oracle would recurse
/// until the stack runs out.
#[test]
fn nesting_at_the_cap_agrees_and_beyond_it_is_refused() {
    let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
    assert_parse_agrees(&at_cap);
    let beyond = "{\"k\":".repeat(MAX_DEPTH) + "[]" + &"}".repeat(MAX_DEPTH);
    let err = json::parse(&beyond).unwrap_err();
    assert_eq!(err.offset, 5 * MAX_DEPTH);
}
