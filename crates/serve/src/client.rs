//! A minimal HTTP/1.1 client for the serve API — enough for `watch
//! --url`, the test suite, and scripted job submission without any
//! external tooling.
//!
//! Only `http://host:port/path` URLs are understood (the service is a
//! lab-network tool, not an internet citizen), and only the response
//! shapes the server emits: fixed-length bodies and chunked NDJSON
//! streams.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Splits `http://host:port/path` into `(authority, path)`.
fn split_url(url: &str) -> io::Result<(&str, &str)> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| bad(format!("only http:// URLs are supported, got {url:?}")))?;
    Ok(match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    })
}

/// A response with its full body in memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn read_head(reader: &mut impl BufRead) -> io::Result<(u16, usize, bool)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line {status_line:?}")))?;
    let mut content_length = 0usize;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad Content-Length {value:?}")))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }
    Ok((status, content_length, chunked))
}

fn request(method: &str, url: &str, body: Option<&[u8]>) -> io::Result<BufReader<TcpStream>> {
    let (authority, path) = split_url(url)?;
    let mut stream = TcpStream::connect(authority)?;
    let body = body.unwrap_or(&[]);
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {authority}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    )?;
    stream.write_all(body)?;
    stream.flush()?;
    Ok(BufReader::new(stream))
}

fn read_body(
    reader: &mut impl BufRead,
    content_length: usize,
    chunked: bool,
) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    if chunked {
        ChunkedReader::new(reader).read_to_end(&mut body)?;
    } else if content_length > 0 {
        body.resize(content_length, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    Ok(body)
}

/// Performs a GET and reads the whole response.
///
/// # Errors
///
/// Connection or protocol faults.
pub fn get(url: &str) -> io::Result<Response> {
    let mut reader = request("GET", url, None)?;
    let (status, content_length, chunked) = read_head(&mut reader)?;
    let body = read_body(&mut reader, content_length, chunked)?;
    Ok(Response { status, body })
}

/// Performs a POST with a body and reads the whole response.
///
/// # Errors
///
/// Connection or protocol faults.
pub fn post(url: &str, body: &[u8]) -> io::Result<Response> {
    let mut reader = request("POST", url, Some(body))?;
    let (status, content_length, chunked) = read_head(&mut reader)?;
    let body = read_body(&mut reader, content_length, chunked)?;
    Ok(Response { status, body })
}

/// Opens a GET whose body is consumed incrementally — the NDJSON run
/// stream. Returns the status and a [`BufRead`] over the decoded body
/// (chunk framing stripped), which yields lines as the server flushes
/// them.
///
/// # Errors
///
/// Connection or protocol faults.
pub fn get_stream(url: &str) -> io::Result<(u16, impl BufRead)> {
    let mut reader = request("GET", url, None)?;
    let (status, _, chunked) = read_head(&mut reader)?;
    if !chunked {
        return Err(bad(format!(
            "{url}: answered {status}, not a chunked stream"
        )));
    }
    Ok((status, BufReader::new(ChunkedReader::new(reader))))
}

/// Decodes `Transfer-Encoding: chunked` framing: yields the chunk data
/// bytes, consuming the size lines and per-chunk CRLFs, and reports
/// EOF at the terminating zero-chunk (or if the server hangs up).
struct ChunkedReader<R: BufRead> {
    reader: R,
    /// Bytes left in the current chunk's data.
    remaining: usize,
    done: bool,
}

impl<R: BufRead> ChunkedReader<R> {
    fn new(reader: R) -> ChunkedReader<R> {
        ChunkedReader {
            reader,
            remaining: 0,
            done: false,
        }
    }

    /// Reads the next chunk-size line. The CRLF terminating the
    /// previous chunk's data is always consumed eagerly (below), so
    /// this line starts at the size digits.
    fn next_chunk_size(&mut self) -> io::Result<usize> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let size_text = line.trim();
        if size_text.is_empty() {
            return Ok(0); // EOF mid-stream: treat as termination
        }
        usize::from_str_radix(size_text, 16)
            .map_err(|_| bad(format!("bad chunk size line {size_text:?}")))
    }

    /// Consumes the CRLF that terminates a chunk's data bytes.
    fn eat_crlf(&mut self) -> io::Result<()> {
        let mut crlf = String::new();
        self.reader.read_line(&mut crlf)?;
        Ok(())
    }
}

impl<R: BufRead> Read for ChunkedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.done {
            return Ok(0);
        }
        if self.remaining == 0 {
            let size = self.next_chunk_size()?;
            if size == 0 {
                self.done = true;
                return Ok(0);
            }
            self.remaining = size;
        }
        let want = buf.len().min(self.remaining);
        let got = self.reader.read(&mut buf[..want])?;
        if got == 0 {
            self.done = true; // server hung up mid-chunk; surface EOF
            return Ok(0);
        }
        self.remaining -= got;
        if self.remaining == 0 {
            self.eat_crlf()?;
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_splitting() {
        assert_eq!(
            split_url("http://127.0.0.1:8080/metrics").unwrap(),
            ("127.0.0.1:8080", "/metrics")
        );
        assert_eq!(split_url("http://host:1").unwrap(), ("host:1", "/"));
        assert!(split_url("https://secure").is_err());
        assert!(split_url("ftp://x").is_err());
    }

    #[test]
    fn chunked_reader_strips_framing() {
        let raw = b"8\r\n{\"a\":1}\n\r\n8\r\n{\"b\":2}\n\r\n0\r\n\r\n";
        let mut decoded = String::new();
        ChunkedReader::new(&raw[..])
            .read_to_string(&mut decoded)
            .unwrap();
        assert_eq!(decoded, "{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn chunked_reader_tolerates_truncation() {
        // Server died after flushing one complete chunk.
        let raw = b"8\r\n{\"a\":1}\n\r\n";
        let mut decoded = String::new();
        ChunkedReader::new(&raw[..])
            .read_to_string(&mut decoded)
            .unwrap();
        assert_eq!(decoded, "{\"a\":1}\n");
    }
}
