//! The resident experiment service: one process owning a warm
//! [`DiskCache`] and a resident worker fleet, accepting jobs over
//! HTTP and keeping every envelope byte-identical to the CLI paths.
//!
//! ## Architecture
//!
//! One **executor thread** owns the [`Coordinator`] (and through it the
//! worker fleet and the shared cache) and drains a FIFO run queue —
//! runs execute one at a time, exactly like consecutive
//! `lh-experiments` invocations against the same cache directory, which
//! is what keeps the determinism contract trivially intact. HTTP
//! handler threads never touch the coordinator; they share:
//!
//! * the run store ([`crate::store`]) — per submission its status, the
//!   accumulated NDJSON event lines and the finished envelope bytes,
//!   behind a mutex+condvar so stream followers tail live; finished
//!   payloads are held under a fixed byte budget, and an evicted run's
//!   envelope is replayed from the disk cache's merged entry;
//! * the coordinator's [`FleetTelemetry`] handle — snapshots feed
//!   `/metrics`, run-status responses, and periodic `fleet` stream
//!   events while the fleet works.
//!
//! ## Determinism boundary
//!
//! The envelope served by `GET /runs/<id>/envelope` is byte-identical
//! to `lh-experiments <id> --format json` at the same scale/seed — it
//! flows through the same [`lh_harness::sink::render`]. Everything
//! else the service exposes (`ts_ms` stamps, fleet snapshots,
//! `/metrics`) is volatile wall-clock telemetry and is never folded
//! into envelopes or cache entries.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lh_coord::{Coordinator, CoordinatorOptions, FleetTelemetry, SpawnWorker};
use lh_harness::cache::DiskCache;
use lh_harness::job::Registry;
use lh_harness::json::{parse, Json};
use lh_harness::sink;
use lh_harness::{OutputFormat, ScaleLevel, UnitEvent, UnitObserver};

use crate::http::{read_request, respond, ChunkedWriter, Request};
use crate::prom;
use crate::store::{Finished, Part, Run, RunEntry, RunRecord, RunStore};

/// How often a live `/runs/<id>/stream` follower receives a `fleet`
/// telemetry event while waiting for unit completions.
const FLEET_PERIOD: Duration = Duration::from_millis(500);

/// Read and write timeout of every accepted socket: a peer that sends
/// nothing, or stops taking what it asked for, for this long loses its
/// connection (and frees its thread) without touching anyone else's.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Resident worker count handed to the coordinator.
    pub workers: usize,
    /// Shared result cache; `None` disables caching.
    pub cache: Option<DiskCache>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 2,
            cache: None,
        }
    }
}

struct ServerState {
    store: Arc<RunStore>,
    /// Hands queued entries to the executor thread. (`mpsc::Sender` is
    /// not `Sync`, hence the mutex.)
    queue: Mutex<mpsc::Sender<Arc<RunEntry>>>,
    telemetry: FleetTelemetry,
    /// The executor's registry: submit-time validation, `/experiments`,
    /// and the job an evicted run's envelope is rendered with.
    registry: Arc<Registry>,
    /// The coordinator's cache, where evicted envelopes are re-read.
    cache: Option<DiskCache>,
    /// When the service bound, for `/healthz` uptime.
    started: std::time::Instant,
    /// Combined digest of every registered job's id, version and code
    /// fingerprint — the `/version` identity of this binary's
    /// experiment surface (two services with equal digests produce
    /// byte-identical envelopes for equal submissions).
    registry_digest: String,
}

impl ServerState {
    fn run_by_id(&self, id: &str) -> Option<Run> {
        self.store.get(id.parse().ok()?)
    }

    /// `part` of the evicted run `record` describes, replayed from the
    /// disk cache's merged entry: the bytes the run served while
    /// retained. `None` without a cache or once the entry is gone.
    fn recover(&self, record: &RunRecord, part: Part) -> Option<String> {
        let job = self.registry.get(&record.experiment)?;
        let ctx = record.context();
        let run = lh_harness::replay_merged(job, &ctx, self.cache.as_ref()?)?;
        let body = match part {
            Part::Envelope => sink::render(job, &run, &ctx, OutputFormat::Json),
            Part::Events => run.events?,
        };
        self.store.note_recovered();
        Some(body)
    }
}

/// The resident experiment service, bound but not yet serving.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .finish()
    }
}

impl Server {
    /// Binds `addr` and starts the executor thread owning the resident
    /// coordinator. `make_registry` builds the executor's experiment
    /// registry (the same factory worker processes use, so job versions
    /// agree by construction).
    ///
    /// # Errors
    ///
    /// Socket binding failures and executor-thread spawn failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        spawner: Box<dyn SpawnWorker>,
        make_registry: impl Fn() -> Registry + Send + 'static,
        options: ServeOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;

        // The coordinator is built here (so its telemetry handle can be
        // shared with HTTP threads) and moved into the executor thread,
        // which owns it for the lifetime of the service.
        let live: Arc<Mutex<Option<Arc<RunEntry>>>> = Arc::new(Mutex::new(None));
        let observer_live = Arc::clone(&live);
        let observer: UnitObserver = Arc::new(move |event: &UnitEvent| {
            if let Some(entry) = observer_live.lock().expect("live slot poisoned").as_ref() {
                entry.push_line(sink::stream_unit(event));
            }
        });
        let coordinator = Coordinator::new(
            spawner,
            CoordinatorOptions {
                workers: options.workers.max(1),
                cache: options.cache.clone(),
                progress: false,
                observer: Some(observer),
                ..CoordinatorOptions::default()
            },
        );
        let telemetry = coordinator.telemetry();

        let registry = Arc::new(make_registry());
        let mut hasher = lh_harness::hash::Hasher::new();
        for job in registry.jobs() {
            hasher
                .field(job.id())
                .number(u64::from(job.version()))
                .field(&job.fingerprint());
        }
        let registry_digest = hasher.digest();

        let store = Arc::new(RunStore::new());
        let (queue_tx, queue_rx) = mpsc::channel::<Arc<RunEntry>>();
        let (executor_registry, executor_store) = (Arc::clone(&registry), Arc::clone(&store));
        std::thread::Builder::new()
            .name("lh-serve-executor".into())
            .spawn(move || {
                executor(
                    coordinator,
                    &executor_registry,
                    &executor_store,
                    live,
                    queue_rx,
                )
            })?;

        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                store,
                queue: Mutex::new(queue_tx),
                telemetry,
                registry,
                cache: options.cache,
                started: std::time::Instant::now(),
                registry_digest,
            }),
        })
    }

    /// The bound socket address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Socket introspection failures.
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever: accepts connections and handles each on its own
    /// thread. Returns only if the listener itself fails.
    ///
    /// # Errors
    ///
    /// Accept-loop failures on the listening socket.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = stream?;
            let timeouts = stream
                .set_read_timeout(Some(SOCKET_TIMEOUT))
                .and_then(|()| stream.set_write_timeout(Some(SOCKET_TIMEOUT)));
            if timeouts.is_err() {
                continue; // the peer is already gone
            }
            let state = Arc::clone(&self.state);
            let _ = std::thread::Builder::new()
                .name("lh-serve-conn".into())
                .spawn(move || {
                    // Peer faults (hangups, garbage) end this
                    // connection only; the acceptor never sees them.
                    let _ = handle_connection(stream, &state);
                });
        }
        Ok(())
    }
}

/// The executor loop: drains the run queue into the resident
/// coordinator, one run at a time, recording stream lines on each entry
/// and handing the finished payload to the store.
fn executor(
    mut coordinator: Coordinator,
    registry: &Registry,
    store: &RunStore,
    live: Arc<Mutex<Option<Arc<RunEntry>>>>,
    queue: mpsc::Receiver<Arc<RunEntry>>,
) {
    while let Ok(entry) = queue.recv() {
        let record = &entry.record;
        let ctx = record.context();
        let Some(job) = registry.get(&record.experiment) else {
            let error = format!("unknown experiment '{}'", record.experiment);
            store.finish(&entry, Err(error));
            continue;
        };
        entry.set_running();
        entry.push_line(sink::stream_started(job, job.units(&ctx).len(), &ctx));
        *live.lock().expect("live slot poisoned") = Some(Arc::clone(&entry));
        let outcome = coordinator.run(job, &ctx);
        *live.lock().expect("live slot poisoned") = None;
        let outcome = outcome.map(|run| {
            let (head, compact) = sink::stream_finished_parts(job, &run, &ctx);
            Finished {
                head,
                compact,
                envelope: sink::render(job, &run, &ctx, OutputFormat::Json),
                events: run.events,
            }
        });
        store.finish(&entry, outcome);
    }
    // Queue sender gone: the server was dropped. Retire the fleet.
    coordinator.shutdown();
}

fn json_response(stream: &mut TcpStream, status: u16, body: &Json) -> io::Result<()> {
    respond(
        stream,
        status,
        "application/json",
        (body.to_pretty() + "\n").as_bytes(),
    )
}

fn error_response(stream: &mut TcpStream, status: u16, message: &str) -> io::Result<()> {
    json_response(stream, status, &Json::object().with("error", message))
}

/// `410 Gone` for what an evicted run no longer has: the error says
/// `what` went where and `resubmit` is the `POST /runs` body that
/// brings it back (on a warm cache, in milliseconds).
fn gone_response(stream: &mut TcpStream, record: &RunRecord, what: &str) -> io::Result<()> {
    let error = format!(
        "run {} finished and was evicted: its {what}; resubmit it",
        record.id
    );
    let resubmit = Json::object()
        .with("experiment", record.experiment.as_str())
        .with("scale", record.scale.as_str())
        .with("seed", record.seed)
        .with("events", record.events);
    json_response(
        stream,
        410,
        &Json::object()
            .with("error", error)
            .with("resubmit", resubmit),
    )
}

/// `GET /runs/<id>/envelope` and `/events`: from memory by refcount
/// while the run is retained, from the disk cache once it is evicted.
fn serve_part(stream: &mut TcpStream, state: &ServerState, id: &str, part: Part) -> io::Result<()> {
    let Some(run) = state.run_by_id(id) else {
        return error_response(stream, 404, &format!("no run {id}"));
    };
    let content_type = match part {
        Part::Envelope => "application/json",
        Part::Events if !run.record().events => {
            return error_response(stream, 404, "run was submitted without \"events\": true");
        }
        Part::Events => "application/x-ndjson",
    };
    match run {
        Run::Held(entry) => match entry.part(part) {
            Ok(bytes) => respond(stream, 200, content_type, bytes.as_bytes()),
            Err((status, message)) => error_response(stream, status, &message),
        },
        Run::Evicted(evicted) => {
            if let Some(error) = &evicted.error {
                return error_response(stream, 500, error);
            }
            match state.recover(&evicted.record, part) {
                Some(body) => respond(stream, 200, content_type, body.as_bytes()),
                None => gone_response(
                    stream,
                    &evicted.record,
                    "document is in neither memory nor the disk cache",
                ),
            }
        }
    }
}

/// The accepted socket, read under one deadline for the whole request:
/// before each read the socket's read timeout is cut to the time left,
/// so a peer that trickles bytes cannot hold the thread past the
/// timeout the socket was accepted with.
struct WholeRequest<'a>(&'a TcpStream, Instant);

impl Read for WholeRequest<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.1.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.0.set_read_timeout(Some(left))?;
        let mut stream = self.0;
        stream.read(buf)
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServerState) -> io::Result<()> {
    let timeout = stream.read_timeout()?.unwrap_or(SOCKET_TIMEOUT);
    let request = match read_request(WholeRequest(&stream, Instant::now() + timeout)) {
        Ok(request) => request,
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return error_response(&mut stream, 400, &e.to_string());
        }
        // The socket's read timeout (either spelling, by platform).
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            return error_response(&mut stream, 408, "no complete request within the timeout");
        }
        Err(e) => return Err(e),
    };

    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();

    match (request.method.as_str(), segments.as_slice()) {
        // Liveness first, depth nowhere: /healthz must answer 200 the
        // moment the socket is bound, even with the fleet mid-respawn —
        // it reports uptime and fleet health, it does not gate on them.
        ("GET", ["healthz"]) => {
            let snapshot = state.telemetry.snapshot();
            let alive = snapshot.workers.iter().filter(|w| w.alive).count();
            json_response(
                &mut stream,
                200,
                &Json::object()
                    .with("status", "ok")
                    .with("uptime_ms", state.started.elapsed().as_millis() as u64)
                    .with("workers_alive", alive),
            )
        }
        ("GET", ["version"]) => json_response(
            &mut stream,
            200,
            &Json::object()
                .with("service", "lh-serve")
                .with("version", env!("CARGO_PKG_VERSION"))
                .with("protocol", lh_coord::PROTOCOL_VERSION)
                .with("registry", state.registry_digest.as_str()),
        ),
        ("GET", ["metrics"]) => {
            let registry = lh_obs::Registry::global();
            let page = prom::render(
                &registry.totals(),
                registry.units_absorbed(),
                &state.telemetry.snapshot(),
                &state.store.stats(),
            );
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4",
                page.as_bytes(),
            )
        }
        ("GET", ["experiments"]) => {
            let list = state
                .registry
                .jobs()
                .map(|job| {
                    Json::object()
                        .with("id", job.id())
                        .with("description", job.description())
                })
                .collect();
            json_response(&mut stream, 200, &Json::Array(list))
        }
        ("POST", ["runs"]) => submit_run(&mut stream, state, &request),
        ("GET", ["runs"]) => {
            // Cloned out of the store (refcounts), rendered outside it.
            let list = state.store.window().iter().map(Run::status_json).collect();
            json_response(&mut stream, 200, &Json::Array(list))
        }
        ("GET", ["runs", id]) => match state.run_by_id(id) {
            Some(run) => {
                let status = run
                    .status_json()
                    .with("fleet", state.telemetry.snapshot().to_json());
                json_response(&mut stream, 200, &status)
            }
            None => error_response(&mut stream, 404, &format!("no run {id}")),
        },
        ("GET", ["runs", id, "envelope"]) => serve_part(&mut stream, state, id, Part::Envelope),
        ("GET", ["runs", id, "events"]) => serve_part(&mut stream, state, id, Part::Events),
        ("GET", ["runs", id, "stream"]) => match state.run_by_id(id) {
            Some(Run::Held(entry)) => stream_run(stream, state, &entry),
            Some(Run::Evicted(evicted)) => gone_response(
                &mut stream,
                &evicted.record,
                "stream lines are no longer in memory",
            ),
            None => error_response(&mut stream, 404, &format!("no run {id}")),
        },
        ("GET", _) => error_response(&mut stream, 404, &format!("no route {}", request.path)),
        _ => error_response(
            &mut stream,
            405,
            &format!("{} not supported on {}", request.method, request.path),
        ),
    }
}

/// `POST /runs`: validates and enqueues a submission, answering `202`
/// with the new run id.
fn submit_run(stream: &mut TcpStream, state: &ServerState, request: &Request) -> io::Result<()> {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return error_response(stream, 400, "body must be UTF-8 JSON");
    };
    let Ok(doc) = parse(body.trim()) else {
        return error_response(stream, 400, "body must be a JSON object");
    };
    let Some(experiment) = doc["experiment"].as_str() else {
        return error_response(stream, 400, "missing field 'experiment'");
    };
    if state.registry.get(experiment).is_none() {
        return error_response(
            stream,
            404,
            &format!("unknown experiment '{experiment}' (see GET /experiments)"),
        );
    }
    let scale = match doc["scale"].as_str() {
        None => ScaleLevel::Default,
        Some(text) => match text.parse::<ScaleLevel>() {
            Ok(scale) => scale,
            Err(e) => return error_response(stream, 400, &e),
        },
    };
    let seed = match &doc["seed"] {
        Json::Null => 1,
        value => match value.as_u64() {
            Some(seed) => seed,
            None => return error_response(stream, 400, "field 'seed' must be an unsigned integer"),
        },
    };
    let events = match &doc["events"] {
        Json::Null => false,
        Json::Bool(events) => *events,
        _ => return error_response(stream, 400, "field 'events' must be a boolean"),
    };

    let Some(entry) = state.store.submit(experiment, scale, seed, events) else {
        return error_response(
            stream,
            503,
            "the run table is full of unfinished runs; retry when some have finished",
        );
    };
    state
        .queue
        .lock()
        .expect("queue sender poisoned")
        .send(Arc::clone(&entry))
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "executor is gone"))?;

    json_response(
        stream,
        202,
        &Json::object()
            .with("id", entry.record.id)
            .with("status", "queued"),
    )
}

/// `GET /runs/<id>/stream`: a chunked NDJSON tail of the run's event
/// lines — everything recorded so far, then live as units complete,
/// with periodic `fleet` telemetry events interleaved while the run is
/// in flight. The stream ends when the run does.
fn stream_run(stream: TcpStream, state: &ServerState, entry: &RunEntry) -> io::Result<()> {
    let mut writer = ChunkedWriter::start(stream, "application/x-ndjson")?;
    let mut sent = 0usize;
    loop {
        // Refcounts taken under the entry lock, bytes written outside
        // it: a slow follower must not stall the executor's push_line.
        let (fresh, finished) = entry.lines_after(sent, FLEET_PERIOD);
        sent += fresh.len();
        for line in &fresh {
            writer.chunk_parts(&line.parts())?;
        }
        if finished {
            return writer.finish();
        }
        if fresh.is_empty() {
            // Nothing completed this period: feed the follower a live
            // fleet snapshot instead of silence.
            writer.chunk(sink::stream_fleet(state.telemetry.snapshot().to_json()).as_bytes())?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// A peer that sends half a request and goes quiet is answered
    /// `408` when the accepted socket's read timeout fires, and its
    /// thread returns.
    #[test]
    fn a_stalled_request_is_answered_408_when_the_read_times_out() {
        let server = Server::bind(
            "127.0.0.1:0",
            Box::new(lh_coord::ThreadSpawner::new(Registry::new)),
            Registry::new,
            ServeOptions::default(),
        )
        .expect("bind loopback");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        // What `Server::run` does, with a timeout a test can wait for.
        accepted
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();

        peer.write_all(b"GET /healthz HT").unwrap();
        handle_connection(accepted, &server.state).expect("the answer is written");
        let mut answer = String::new();
        peer.read_to_string(&mut answer).unwrap();
        assert!(
            answer.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{answer}"
        );
        assert!(answer.contains("\"error\""), "{answer}");
    }

    /// A peer that trickles one byte every 40 ms never lets a per-read
    /// timeout fire; the whole request is held to the socket's timeout
    /// instead, so it is answered `408` long before it stops sending.
    #[test]
    fn a_trickling_request_is_answered_408_when_the_whole_request_times_out() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let server = Server::bind(
            "127.0.0.1:0",
            Box::new(lh_coord::ThreadSpawner::new(Registry::new)),
            Registry::new,
            ServeOptions::default(),
        )
        .expect("bind loopback");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        accepted
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let trickle = {
            let mut out = peer.try_clone().expect("clone peer");
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let request = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\nX-Pad: trickle\r\n\r\n";
                let start = Instant::now();
                for byte in request {
                    if stop.load(Ordering::Relaxed)
                        || start.elapsed() >= Duration::from_millis(1500)
                        || out.write_all(&[*byte]).is_err()
                    {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(40));
                }
            })
        };

        let start = Instant::now();
        handle_connection(accepted, &server.state).expect("the answer is written");
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        // A byte the trickler sends after the close may reset the
        // connection; the answer read before that is what counts.
        let mut answer = Vec::new();
        let _ = peer.read_to_end(&mut answer);
        trickle.join().unwrap();
        let answer = String::from_utf8_lossy(&answer);
        assert!(
            elapsed < Duration::from_secs(1),
            "answered after {elapsed:?}"
        );
        assert!(
            answer.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{answer}"
        );
    }
}
