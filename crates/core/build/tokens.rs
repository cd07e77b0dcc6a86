// The source normaliser behind the cache-key manifest: `build.rs`
// hashes `normalize_source` of every file instead of its bytes, and
// the registry's unit tests `include!` this same file to pin what an
// edit may and may not change. Plain `//` comments here, not `//!`:
// the file is included into two different crates' item lists.

/// Rust source reduced to its tokens, one space apart: comments (doc
/// comments included) and whitespace dropped, string, raw-string,
/// byte-string and char literals copied byte for byte, and every
/// punctuation character a token of its own. Two sources that differ
/// only in comments or layout normalise to the same text; an edit
/// inside a literal, or to any token, does not.
///
/// The lexer knows just enough Rust to find comments: `"…"` strings
/// with escapes, `r#"…"#` raw strings (any number of `#`, with a
/// `b`/`c` prefix or none), `'x'` and `'\n'` char literals against
/// `'a` lifetimes and labels, and nested `/* /* */ */` block comments.
/// Malformed input (an unterminated literal or comment) runs to the end
/// of the file, which only ever hashes more text, never less.
fn normalize_source(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    // Appends `src[from..to]` as one token. The lexer only cuts before
    // an ASCII byte or a character's lead byte, so the slice is valid
    // UTF-8.
    let emit = |out: &mut String, from: usize, to: usize| {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(&src[from..to]);
    };
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
        } else if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == b'"' {
            let end = quoted_end(b, i, b'"');
            emit(&mut out, i, end);
            i = end;
        } else if c == b'\'' {
            let end = char_or_lifetime_end(b, i);
            emit(&mut out, i, end);
            i = end;
        } else if c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80 {
            // An identifier, keyword or number; a `b`/`c`/`r`/`br`/`cr`
            // prefix glued to a quote or `#"` opens a literal instead.
            let start = i;
            while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric() || b[i] >= 0x80) {
                i += 1;
            }
            let word = &b[start..i];
            let raw = matches!(word, b"r" | b"br" | b"cr");
            let end = if raw && i < b.len() && matches!(b[i], b'"' | b'#') {
                raw_string_end(b, i)
            } else if matches!(word, b"b" | b"c") && i < b.len() && b[i] == b'"' {
                Some(quoted_end(b, i, b'"'))
            } else if word == b"b" && i < b.len() && b[i] == b'\'' {
                Some(quoted_end(b, i, b'\''))
            } else {
                None
            };
            if let Some(end) = end {
                i = end;
            }
            emit(&mut out, start, i);
        } else {
            emit(&mut out, i, i + 1);
            i += 1;
        }
    }
    out
}

/// End (exclusive) of the literal opening with `quote` at `open`:
/// backslash escapes skip the next byte.
fn quoted_end(b: &[u8], open: usize, quote: u8) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            q if q == quote => return i + 1,
            _ => i += 1,
        }
    }
    b.len()
}

/// End (exclusive) of the raw string whose `#`s or quote start at
/// `at`, or `None` when `r#` opens a raw identifier instead.
fn raw_string_end(b: &[u8], at: usize) -> Option<usize> {
    let mut i = at;
    while i < b.len() && b[i] == b'#' {
        i += 1;
    }
    if i == b.len() || b[i] != b'"' {
        return None;
    }
    let hashes = i - at;
    i += 1;
    while i < b.len() {
        if b[i] == b'"' && b.len() - i > hashes && b[i + 1..=i + hashes].iter().all(|&h| h == b'#')
        {
            return Some(i + 1 + hashes);
        }
        i += 1;
    }
    Some(b.len())
}

/// End (exclusive) of the char literal, lifetime or label opening with
/// the `'` at `open`. A char literal is an escape (`'\…'`) or one
/// character followed by a closing quote; anything else is a lifetime.
fn char_or_lifetime_end(b: &[u8], open: usize) -> usize {
    let next = open + 1;
    if next < b.len() && b[next] == b'\\' {
        return quoted_end(b, open, b'\'');
    }
    // One UTF-8 character: its lead byte tells its length.
    let len = match b.get(next) {
        Some(&c) if c >= 0xf0 => 4,
        Some(&c) if c >= 0xe0 => 3,
        Some(&c) if c >= 0xc0 => 2,
        Some(_) => 1,
        None => return b.len(),
    };
    if b.get(next + len) == Some(&b'\'') {
        return next + len + 1;
    }
    open + 1
}
