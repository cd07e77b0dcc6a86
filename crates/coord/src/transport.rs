//! The message transport: how protocol lines travel between a
//! coordinator and a worker.
//!
//! The scheduling layer never touches bytes — it sees a [`Link`]: a
//! [`LineSender`]/[`LineReceiver`] pair moving whole JSON messages as
//! NDJSON lines over any `Write`/`BufRead`. Today that is a child
//! process's stdin/stdout ([`crate::ProcessSpawner`]), the worker's own
//! stdio ([`stdio_link`]) or two in-process pipes ([`memory_pair`]), so
//! thread-based workers exercise the exact wire encoding of
//! process-based ones. A `TcpStream` satisfies the same bounds, so a
//! TCP listener can slot in without touching scheduling.

use std::io::{self, BufRead, BufReader, Read, Write};

use lh_harness::json::Json;

use crate::protocol::parse_line;

/// One side of a coordinator↔worker connection.
pub struct Link {
    /// Outgoing messages.
    pub(crate) tx: LineSender,
    /// Incoming messages.
    pub(crate) rx: LineReceiver,
    /// The OS child behind this link, if any, so the owner can reap or
    /// kill it. In-process transports leave it `None`.
    pub(crate) child: Option<std::process::Child>,
}

impl Link {
    /// A link writing to `tx` and reading from `rx`.
    pub(crate) fn new(
        tx: impl Write + Send + 'static,
        rx: impl Read + Send + 'static,
        child: Option<std::process::Child>,
    ) -> Link {
        Link {
            tx: LineSender(Box::new(tx)),
            rx: LineReceiver(Box::new(BufReader::new(rx))),
            child,
        }
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("child", &self.child.as_ref().map(std::process::Child::id))
            .finish()
    }
}

/// NDJSON writer over any byte sink: one compact JSON line per
/// message, flushed immediately so a blocked peer never waits on a
/// buffer.
pub(crate) struct LineSender<W = Box<dyn Write + Send>>(pub(crate) W);

impl<W: Write> LineSender<W> {
    /// Sends one message. An error means the peer is unreachable (dead
    /// process, closed pipe) — the caller treats it as death.
    pub(crate) fn send(&mut self, msg: &Json) -> io::Result<()> {
        let mut line = msg.to_compact();
        line.push('\n');
        self.0.write_all(line.as_bytes())?;
        self.0.flush()
    }
}

/// NDJSON reader over any buffered byte source. Blank lines are
/// skipped; a torn or non-JSON line is an `InvalidData` error.
pub(crate) struct LineReceiver<R = Box<dyn BufRead + Send>>(pub(crate) R);

impl<R: BufRead> LineReceiver<R> {
    /// Receives the next message, `None` at end of stream (the peer
    /// closed the connection cleanly). Errors mean a torn line or an
    /// I/O fault — for a coordinator both are handled as worker death.
    pub(crate) fn recv(&mut self) -> io::Result<Option<Json>> {
        loop {
            let mut line = String::new();
            if self.0.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                continue;
            }
            return parse_line(&line)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
        }
    }
}

/// The worker side of a stdio connection: messages arrive on stdin and
/// leave on stdout. Anything human-readable (progress, warnings) must
/// go to stderr — stdout belongs to the protocol.
pub fn stdio_link() -> Link {
    Link::new(io::stdout(), io::stdin(), None)
}

/// A connected pair of in-process links over two OS pipes:
/// `(coordinator side, worker side)`. Every message travels as its
/// NDJSON line, so in-process workers are wire-faithful. Dropping one
/// side makes the other's sends fail with `BrokenPipe` and its receives
/// read end of stream.
///
/// # Errors
///
/// Creating a pipe can fail (out of file descriptors).
pub fn memory_pair() -> io::Result<(Link, Link)> {
    let (worker_rx, coord_tx) = io::pipe()?;
    let (coord_rx, worker_tx) = io::pipe()?;
    Ok((
        Link::new(coord_tx, coord_rx, None),
        Link::new(worker_tx, worker_rx, None),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_transport_round_trips_and_signals_eof() {
        let msg = Json::object().with("type", "assign").with("unit", 3);
        let mut bytes = Vec::new();
        LineSender(&mut bytes).send(&msg).unwrap();
        LineSender(&mut bytes)
            .send(&Json::object().with("type", "shutdown"))
            .unwrap();

        let mut rx = LineReceiver(BufReader::new(bytes.as_slice()));
        assert_eq!(rx.recv().unwrap(), Some(msg));
        assert_eq!(
            rx.recv().unwrap(),
            Some(Json::object().with("type", "shutdown"))
        );
        assert_eq!(rx.recv().unwrap(), None, "EOF reads as None");
    }

    #[test]
    fn torn_lines_error_and_blank_lines_skip() {
        let bytes = b"\n{\"ok\":true}\n{torn".to_vec();
        let mut rx = LineReceiver(BufReader::new(bytes.as_slice()));
        assert_eq!(rx.recv().unwrap(), Some(Json::object().with("ok", true)));
        let err = rx.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn memory_pair_is_wire_faithful() {
        let (mut coord, mut worker) = memory_pair().unwrap();
        let msg = Json::object().with("seed", u64::MAX).with("e", 0.125);
        coord.tx.send(&msg).unwrap();
        assert_eq!(worker.rx.recv().unwrap(), Some(msg.clone()));
        worker.tx.send(&msg).unwrap();
        assert_eq!(coord.rx.recv().unwrap(), Some(msg));

        // Dropping one side: sends fail, receives see EOF.
        drop(worker);
        assert!(coord.tx.send(&Json::Null).is_err());
        assert_eq!(coord.rx.recv().unwrap(), None);
    }
}
