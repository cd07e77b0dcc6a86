//! Message transports: how protocol lines travel between a coordinator
//! and a worker.
//!
//! The scheduling layer never touches bytes — it sees a [`Link`]: a
//! boxed [`Sender`]/[`Receiver`] pair moving whole JSON messages. Three
//! transports implement the pair:
//!
//! * [`LineSender`]/[`LineReceiver`] over any `Write`/`BufRead` — the
//!   production transport. Today that is a child process's stdin/stdout
//!   ([`crate::ProcessSpawner`]) or the worker's own stdio
//!   ([`stdio_link`]); a `TcpStream` satisfies the same bounds, so a
//!   TCP listener can slot in without touching scheduling.
//! * [`memory_pair`] — an in-process channel transport that still
//!   serializes every message to its NDJSON line and re-parses it on
//!   the other side, so thread-based workers exercise the exact wire
//!   encoding of process-based ones.

use std::io::{self, BufRead, BufReader, Write};
use std::sync::mpsc;

use lh_harness::json::Json;

use crate::protocol::parse_line;

/// The sending half of a link: moves one message per call.
pub(crate) trait Sender: Send {
    /// Sends one message. An error means the peer is unreachable (dead
    /// process, closed pipe/channel) — the caller treats it as death.
    fn send(&mut self, msg: &Json) -> io::Result<()>;
}

/// The receiving half of a link: blocks for the next message.
///
/// `Ok(None)` means the peer closed the connection cleanly (EOF);
/// errors mean a torn line or I/O fault — for a coordinator both are
/// handled as worker death.
pub(crate) trait Receiver: Send {
    /// Receives the next message, `None` at end of stream.
    fn recv(&mut self) -> io::Result<Option<Json>>;
}

/// One side of a coordinator↔worker connection.
pub struct Link {
    /// Outgoing messages.
    pub(crate) tx: Box<dyn Sender>,
    /// Incoming messages.
    pub(crate) rx: Box<dyn Receiver>,
    /// The OS child behind this link, if any, so the owner can reap or
    /// kill it. In-process transports leave it `None`.
    pub(crate) child: Option<std::process::Child>,
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
#[derive(Debug)]
pub(crate) struct LineSender<W: Write + Send>(pub W);

impl<W: Write + Send> Sender for LineSender<W> {
    fn send(&mut self, msg: &Json) -> io::Result<()> {
        let mut line = msg.to_compact();
        line.push('\n');
        self.0.write_all(line.as_bytes())?;
        self.0.flush()
    }
}

/// NDJSON reader over any buffered byte source. Blank lines are
/// skipped; a torn or non-JSON line is an `InvalidData` error.
#[derive(Debug)]
pub(crate) struct LineReceiver<R: BufRead + Send>(pub R);

impl<R: BufRead + Send> Receiver for LineReceiver<R> {
    fn recv(&mut self) -> io::Result<Option<Json>> {
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
    Link {
        tx: Box::new(LineSender(io::stdout())),
        rx: Box::new(LineReceiver(BufReader::new(io::stdin()))),
        child: None,
    }
}

/// A channel sender that serializes each message to its NDJSON line
/// before handing it over, mirroring the byte transport.
#[derive(Debug)]
struct ChannelSender(mpsc::Sender<String>);

impl Sender for ChannelSender {
    fn send(&mut self, msg: &Json) -> io::Result<()> {
        self.0
            .send(msg.to_compact())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up"))
    }
}

/// A channel receiver that re-parses each line, mirroring the byte
/// transport.
#[derive(Debug)]
struct ChannelReceiver(mpsc::Receiver<String>);

impl Receiver for ChannelReceiver {
    fn recv(&mut self) -> io::Result<Option<Json>> {
        match self.0.recv() {
            Ok(line) => parse_line(&line)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            Err(mpsc::RecvError) => Ok(None),
        }
    }
}

/// A connected pair of in-process links: `(coordinator side, worker
/// side)`. Every message still round-trips through its NDJSON line, so
/// in-process workers are wire-faithful.
pub fn memory_pair() -> (Link, Link) {
    let (coord_tx, worker_rx) = mpsc::channel();
    let (worker_tx, coord_rx) = mpsc::channel();
    (
        Link {
            tx: Box::new(ChannelSender(coord_tx)),
            rx: Box::new(ChannelReceiver(coord_rx)),
            child: None,
        },
        Link {
            tx: Box::new(ChannelSender(worker_tx)),
            rx: Box::new(ChannelReceiver(worker_rx)),
            child: None,
        },
    )
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
        let (mut coord, mut worker) = memory_pair();
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
