//! A deliberately tiny HTTP/1.1 implementation — just enough protocol
//! for the serve API, built on `std` alone.
//!
//! One request per connection (`Connection: close` on every response):
//! the API's requests are short and infrequent, so connection reuse
//! buys nothing and dropping it keeps the state machine out of the
//! code. Responses are either fixed-length (`Content-Length`) or
//! chunked ([`ChunkedWriter`], for the NDJSON run stream whose length
//! is unknowable up front).
//!
//! Limits are enforced while *reading*, before any allocation is
//! committed: an oversized request line, header block, or body is
//! rejected with `413`/`431` semantics at the parse layer (the server
//! maps parse errors to a `400`), so a misbehaving client cannot make
//! the service balloon.

use std::io::{self, BufRead, BufReader, Read, Write};

/// Longest accepted request line (method + path + version).
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted header block.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body (job submissions are tiny).
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub(crate) method: String,
    /// Request target as sent, e.g. `/runs/3/stream`.
    pub(crate) path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub(crate) body: Vec<u8>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one line terminated by `\n`, enforcing `limit`, stripping the
/// terminator (and a preceding `\r`).
fn read_line(reader: &mut impl BufRead, limit: usize) -> io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte)? {
            0 => break,
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                if line.len() >= limit {
                    return Err(bad("line too long"));
                }
                line.push(byte[0]);
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| bad("non-UTF-8 request line"))
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// Transport faults, plus `InvalidData` for anything malformed or over
/// the size limits — the caller answers those with a `400`.
pub(crate) fn read_request(stream: impl Read) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let request_line = read_line(&mut reader, MAX_REQUEST_LINE)?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_owned(), p.to_owned(), v),
        _ => return Err(bad(format!("malformed request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol {version:?}")));
    }

    let mut content_length = 0usize;
    let mut header_bytes = 0usize;
    loop {
        let line = read_line(&mut reader, MAX_HEADER_BYTES)?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(bad("header block too large"));
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad Content-Length {value:?}")))?;
                if content_length > MAX_BODY_BYTES {
                    return Err(bad("request body too large"));
                }
            }
        }
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// Writes one fixed-length response and flushes.
///
/// # Errors
///
/// Write faults on `stream` (the peer hanging up mid-response is
/// normal connection churn; callers ignore it).
pub(crate) fn respond(
    mut stream: impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// A `Transfer-Encoding: chunked` response body writer, for streams
/// whose length is unknown when the headers go out (the NDJSON run
/// tail). Each [`ChunkedWriter::chunk`] is flushed immediately so
/// followers see lines live; [`ChunkedWriter::finish`] writes the
/// terminating zero-chunk.
#[derive(Debug)]
pub(crate) struct ChunkedWriter<W: Write> {
    stream: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Starts a chunked `200` response with the given content type.
    ///
    /// # Errors
    ///
    /// Write faults on `stream`.
    pub(crate) fn start(mut stream: W, content_type: &str) -> io::Result<ChunkedWriter<W>> {
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        )?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Writes one chunk and flushes it to the peer.
    ///
    /// # Errors
    ///
    /// Write faults on the underlying stream (a follower hanging up is
    /// the normal way a stream ends).
    pub(crate) fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        self.chunk_parts(&[data])
    }

    /// Writes the concatenation of `parts` as one chunk, without joining
    /// them first, and flushes it to the peer.
    ///
    /// # Errors
    ///
    /// As [`ChunkedWriter::chunk`].
    pub(crate) fn chunk_parts(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        if len == 0 {
            return Ok(()); // an empty chunk would terminate the body
        }
        write!(self.stream, "{len:x}\r\n")?;
        for part in parts {
            self.stream.write_all(part)?;
        }
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the chunked body.
    ///
    /// # Errors
    ///
    /// Write faults on the underlying stream.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /runs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/runs");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_a_get_without_body() {
        let raw = b"GET /metrics HTTP/1.0\r\n\r\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(read_request(&b"NOT-HTTP\r\n\r\n"[..]).is_err());
        assert!(read_request(&b"GET / SPDY/9\r\n\r\n"[..]).is_err());
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(read_request(huge.as_bytes()).is_err());
    }

    #[test]
    fn respond_writes_a_complete_response() {
        let mut out = Vec::new();
        respond(&mut out, 404, "text/plain", b"gone\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(text.contains("Content-Length: 5\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\ngone\n"), "{text}");
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::start(&mut out, "application/x-ndjson").unwrap();
        w.chunk(b"{\"a\":1}\n").unwrap();
        w.chunk(b"").unwrap(); // ignored, must not terminate
        w.chunk(b"{\"b\":2}\n").unwrap();
        w.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"), "{text}");
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
    }

    #[test]
    fn a_chunk_of_parts_is_the_chunk_of_their_concatenation() {
        let framed = |write: &dyn Fn(&mut ChunkedWriter<&mut Vec<u8>>)| {
            let mut out = Vec::new();
            let mut w = ChunkedWriter::start(&mut out, "application/x-ndjson").unwrap();
            write(&mut w);
            w.finish().unwrap();
            out
        };
        let parts: [&[u8]; 4] = [
            b"{\"event\":\"finished\",\"envelope\":",
            b"",
            b"{\"a\":1}",
            b"}\n",
        ];
        assert_eq!(
            framed(&|w| w.chunk_parts(&parts).unwrap()),
            framed(&|w| w.chunk(&parts.concat()).unwrap()),
        );
        assert_eq!(
            framed(&|w| w.chunk_parts(&[b"", b""]).unwrap()),
            framed(&|_| {}),
            "empty parts write nothing"
        );
    }
}
