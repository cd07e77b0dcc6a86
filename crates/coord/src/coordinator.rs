//! The coordinator: DAG-aware dispatch of experiment units across a
//! fleet of worker processes (or threads). It is a scheduling loop over
//! the same run [`Ledger`] as the in-process
//! [`Runner`](lh_harness::Runner) — claim, assign, requeue, discard —
//! so caching, determinism and observability are that ledger's, not a
//! second copy's.
//!
//! ## Scheduling
//!
//! Units are claimed from the shared [`DagSchedule`]
//! lowest-index-first; a unit is assigned only once every dependency
//! has a result, and the dependency results ship inside the `assign`
//! message, so workers stay stateless. The shared [`DiskCache`] is the
//! warm path: cached units never reach a worker at all, and a cached
//! merged result skips the fleet entirely. Workers hold no cache: the
//! ledger writes each executed unit's entry as it records the `done`
//! reply, here in the coordinator.
//!
//! ## Failure model
//!
//! A worker that dies — EOF, torn line, failed write, protocol garbage
//! — is discarded and its in-flight unit is requeued for the remaining
//! workers. If the whole fleet is gone, replacements are spawned from a
//! bounded respawn budget; only exhausting that budget fails the run.
//! A worker that *reports* a unit failure (`failed`) fails the run
//! immediately: unit failures are deterministic, so requeueing would
//! just fail elsewhere. The fleet is retired with the run; relaunching
//! it for the next one is free — the respawn budget is for deaths.
//!
//! Results are merged in unit order and `finish` runs in the
//! coordinator (inside [`Ledger::close`]), so a distributed run's
//! envelope is byte-identical to `--jobs` execution no matter how units
//! land on workers.

use std::io;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;

use lh_harness::cache::DiskCache;
use lh_harness::pool::DagSchedule;
use lh_harness::runner::ExperimentRun;
use lh_harness::UnitObserver;
use lh_harness::{Job, JobContext, Registry};
use lh_harness::{Ledger, Opened, UnitOutput};

use crate::protocol::{FromWorker, ToWorker, PROTOCOL_VERSION};
use crate::telemetry::FleetTelemetry;
use crate::transport::{memory_pair, LineSender, Link};
use crate::worker::{worker_loop, WorkerOptions};

/// Launches workers for a [`Coordinator`].
pub trait SpawnWorker: Send {
    /// Launches worker `index`. Workers hold no cache: the
    /// coordinator's ledger writes every entry from the `done` replies.
    ///
    /// # Errors
    ///
    /// Whatever launching the worker can fail with (exec errors, thread
    /// spawn failures).
    fn spawn(&mut self, index: usize) -> io::Result<Link>;
}

/// Spawns worker OS processes speaking the protocol over stdin/stdout.
///
/// The command line is `<program> <args...> --worker`, with
/// `LH_COORD_WORKER=<index>` in the environment — the contract the
/// `lh-experiments` binary's `--worker` mode implements. Worker stderr
/// is inherited so panics and warnings stay visible.
#[derive(Debug, Clone)]
pub struct ProcessSpawner {
    program: PathBuf,
    args: Vec<String>,
}

impl ProcessSpawner {
    /// A spawner running `program` with `args` before the worker flags.
    pub fn new(program: impl Into<PathBuf>, args: Vec<String>) -> ProcessSpawner {
        ProcessSpawner {
            program: program.into(),
            args,
        }
    }
}

impl SpawnWorker for ProcessSpawner {
    fn spawn(&mut self, index: usize) -> io::Result<Link> {
        let mut cmd = std::process::Command::new(&self.program);
        cmd.args(&self.args)
            .arg("--worker")
            .env("LH_COORD_WORKER", index.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit());
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        Ok(Link::new(stdin, stdout, Some(child)))
    }
}

/// Spawns in-process worker threads running [`worker_loop`] over a
/// pair of in-process pipes ([`memory_pair`]) — the same line
/// transport, scheduling, protocol serialization and failure paths as
/// process workers, minus the OS process. Used by tests and useful
/// wherever spawning children is impossible.
pub struct ThreadSpawner {
    make_registry: Arc<dyn Fn() -> Registry + Send + Sync>,
}

impl ThreadSpawner {
    /// A spawner whose workers each build their registry with `make`.
    pub fn new(make: impl Fn() -> Registry + Send + Sync + 'static) -> ThreadSpawner {
        ThreadSpawner {
            make_registry: Arc::new(make),
        }
    }
}

impl std::fmt::Debug for ThreadSpawner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadSpawner").finish()
    }
}

impl SpawnWorker for ThreadSpawner {
    fn spawn(&mut self, index: usize) -> io::Result<Link> {
        let (coord_side, worker_side) = memory_pair()?;
        let make = Arc::clone(&self.make_registry);
        std::thread::Builder::new()
            .name(format!("lh-coord-worker-{index}"))
            .spawn(move || {
                let registry = make();
                let _ = worker_loop(&registry, worker_side, None, WorkerOptions::default());
            })?;
        Ok(coord_side)
    }
}

/// Execution options for a [`Coordinator`].
#[derive(Clone)]
pub struct CoordinatorOptions {
    /// Target worker count (at least 1).
    pub workers: usize,
    /// Shared result cache; `None` disables caching entirely.
    pub cache: Option<DiskCache>,
    /// Emit progress lines on stderr.
    pub progress: bool,
    /// Streaming hook: called as each unit completes, multiplexing
    /// every worker's completions into one feed.
    pub observer: Option<UnitObserver>,
    /// Replacement workers the coordinator may spawn after losing the
    /// whole fleet before giving up.
    pub max_respawns: usize,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            workers: 2,
            cache: None,
            progress: false,
            observer: None,
            max_respawns: 4,
        }
    }
}

impl std::fmt::Debug for CoordinatorOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoordinatorOptions")
            .field("workers", &self.workers)
            .field("cache", &self.cache)
            .field("progress", &self.progress)
            .field("observer", &self.observer.as_ref().map(|_| "Fn"))
            .field("max_respawns", &self.max_respawns)
            .finish()
    }
}

/// Fleet statistics across a coordinator's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordStats {
    /// Workers launched, including replacements.
    pub workers_spawned: usize,
    /// Workers that died or misbehaved and were discarded.
    pub workers_lost: usize,
    /// In-flight units returned to the queue by worker deaths.
    pub units_requeued: usize,
    /// Replacement workers drawn from the respawn budget.
    pub respawns_used: usize,
}

/// What a worker's reader thread reports to the event loop.
enum WorkerEvent {
    /// A parsed protocol message.
    Message(FromWorker),
    /// The connection ended — cleanly (`None`) or with a fault.
    Closed(Option<String>),
}

/// One worker's coordinator-side state.
struct Slot {
    /// Sending half; dropped on shutdown to signal EOF.
    tx: Option<LineSender>,
    /// OS child, for reaping.
    child: Option<std::process::Child>,
    /// The unit index currently assigned, if any.
    busy: Option<usize>,
    /// Whether the worker is still usable.
    alive: bool,
}

/// Schedules experiment unit DAGs across a fleet of workers.
pub struct Coordinator {
    spawner: Box<dyn SpawnWorker>,
    options: CoordinatorOptions,
    slots: Vec<Slot>,
    events_tx: mpsc::Sender<(usize, WorkerEvent)>,
    events_rx: mpsc::Receiver<(usize, WorkerEvent)>,
    /// `slots.len()` at the last [`Coordinator::shutdown`]: the fleet
    /// launched after a deliberate retirement is as free as the first.
    /// (Slots are never reused — reader threads tag events by index.)
    retired: usize,
    respawns_left: usize,
    telemetry: FleetTelemetry,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("options", &self.options)
            .field("slots", &self.slots.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// One warning line on stderr (never stdout — that may be a protocol or
/// structured-output stream).
fn note(args: std::fmt::Arguments<'_>) {
    use io::Write;
    let _ = writeln!(io::stderr(), "{args}");
}

impl Coordinator {
    /// A coordinator launching workers through `spawner`. Workers are
    /// spawned lazily on the first [`Coordinator::run`] and reused
    /// across experiments until [`Coordinator::shutdown`].
    pub fn new(spawner: Box<dyn SpawnWorker>, options: CoordinatorOptions) -> Coordinator {
        let (events_tx, events_rx) = mpsc::channel();
        let respawns_left = options.max_respawns;
        Coordinator {
            spawner,
            options,
            slots: Vec::new(),
            events_tx,
            events_rx,
            retired: 0,
            respawns_left,
            telemetry: FleetTelemetry::default(),
        }
    }

    /// Fleet statistics so far: the lifetime counters of
    /// [`Coordinator::telemetry`].
    pub fn stats(&self) -> CoordStats {
        let fleet = self.telemetry.snapshot();
        CoordStats {
            workers_spawned: fleet.workers_spawned as usize,
            workers_lost: fleet.workers_lost as usize,
            units_requeued: fleet.units_requeued as usize,
            respawns_used: fleet.respawns_used as usize,
        }
    }

    /// A cloneable handle to the live fleet telemetry. Dashboards (the
    /// serve HTTP handlers, stream followers) snapshot it from other
    /// threads while [`Coordinator::run`] blocks this one.
    pub fn telemetry(&self) -> FleetTelemetry {
        self.telemetry.clone()
    }

    fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| s.alive).count()
    }

    /// Launches one worker and its reader thread. `respawn` marks a
    /// replacement drawn from the respawn budget (telemetry only).
    fn spawn_one(&mut self, respawn: bool) -> Result<(), String> {
        let index = self.slots.len();
        let link = self
            .spawner
            .spawn(index)
            .map_err(|e| format!("spawning worker {index} failed: {e}"))?;
        let events = self.events_tx.clone();
        let mut rx = link.rx;
        std::thread::Builder::new()
            .name(format!("lh-coord-reader-{index}"))
            .spawn(move || loop {
                let event = match rx.recv() {
                    Ok(Some(msg)) => match FromWorker::from_json(&msg) {
                        Ok(msg) => WorkerEvent::Message(msg),
                        Err(e) => WorkerEvent::Closed(Some(e)),
                    },
                    Ok(None) => WorkerEvent::Closed(None),
                    Err(e) => WorkerEvent::Closed(Some(e.to_string())),
                };
                let closing = matches!(event, WorkerEvent::Closed(_));
                if events.send((index, event)).is_err() || closing {
                    return;
                }
            })
            .map_err(|e| format!("spawning reader thread for worker {index} failed: {e}"))?;
        self.slots.push(Slot {
            tx: Some(link.tx),
            child: link.child,
            busy: None,
            alive: true,
        });
        self.telemetry.worker_spawned(index, respawn);
        Ok(())
    }

    /// Brings the fleet up to `options.workers` live workers. The first
    /// `workers` launches (since the last shutdown) are free; after that
    /// each replacement — of a worker that *died* — draws on the
    /// respawn budget.
    ///
    /// # Errors
    ///
    /// When no worker is alive and nothing more may be spawned.
    fn ensure_workers(&mut self) -> Result<(), String> {
        while self.live_count() < self.options.workers.max(1) {
            let respawn = self.slots.len() >= self.retired + self.options.workers.max(1);
            if respawn {
                if self.respawns_left == 0 {
                    break;
                }
                self.respawns_left -= 1;
            }
            self.spawn_one(respawn)?;
        }
        if self.live_count() == 0 {
            return Err(format!(
                "no live workers and the respawn budget ({}) is exhausted",
                self.options.max_respawns
            ));
        }
        Ok(())
    }

    /// Discards a worker: marks it dead, requeues its in-flight unit,
    /// and reaps the child if any.
    fn discard(&mut self, w: usize, sched: &mut DagSchedule, cause: &str) {
        let slot = &mut self.slots[w];
        if !slot.alive {
            return;
        }
        slot.alive = false;
        slot.tx = None;
        self.telemetry.worker_lost(w);
        if let Some(unit) = slot.busy.take() {
            sched.requeue(unit);
            self.telemetry.unit_requeued();
            note(format_args!(
                "lh-coord: worker {w} died ({cause}); requeueing its in-flight unit {unit}"
            ));
        } else {
            note(format_args!("lh-coord: worker {w} died ({cause})"));
        }
        if let Some(child) = &mut slot.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// The lowest-index idle live worker.
    fn idle_worker(&self) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.alive && s.busy.is_none() && s.tx.is_some())
    }

    /// Runs one experiment end to end across the fleet: the ledger
    /// replays what the cache covers (a merged hit skips the fleet
    /// entirely), this loop dispatches the rest topologically, and the
    /// ledger merges in unit order. The result is byte-identical to any
    /// `--jobs` run of the same `(job, ctx)`.
    ///
    /// # Errors
    ///
    /// Invalid unit DAGs, worker-spawn failure, fleet exhaustion
    /// (deaths beyond the respawn budget), protocol-version mismatches,
    /// and deterministic unit failures reported by workers.
    pub fn run(&mut self, job: &dyn Job, ctx: &JobContext) -> Result<ExperimentRun, String> {
        let o = &self.options;
        let opened = Ledger::open(job, ctx, o.cache.as_ref(), o.progress, o.observer.as_ref())?;
        let ledger = match opened {
            Opened::Cached(run) => return Ok(run),
            Opened::Live(ledger) => ledger,
        };
        let mut sched =
            DagSchedule::new(ledger.deps()).expect("the ledger validated the DAG; pruning is safe");

        // Don't wake the fleet for a run the cache fully covers: with
        // every unit a hit, the dispatch loop completes inline.
        if ledger.units_missed() > 0 {
            self.ensure_workers()?;
        }

        while !sched.is_done() {
            // Dispatch everything ready: cache hits complete on the
            // spot, the rest go to idle workers with their dependency
            // results inlined.
            while let Some(unit) = sched.claim() {
                if ledger.replay(unit) {
                    sched.complete(unit);
                    continue;
                }
                let Some(w) = self.idle_worker() else {
                    sched.requeue(unit);
                    break;
                };
                let msg = ToWorker::Assign {
                    experiment: job.id().to_owned(),
                    unit,
                    scale: ctx.scale.as_str().to_owned(),
                    seed: ctx.seed,
                    events: ctx.flight.is_some(),
                    events_cap: ctx.flight.unwrap_or(lh_obs::flight::DEFAULT_CAP) as u64,
                    deps: ledger.dep_results(unit),
                }
                .to_json();
                let sent = self.slots[w]
                    .tx
                    .as_mut()
                    .expect("idle workers have senders")
                    .send(&msg);
                match sent {
                    Ok(()) => {
                        self.slots[w].busy = Some(unit);
                        self.telemetry
                            .worker_assigned(w, format!("{}/{}", job.id(), ledger.units()[unit]));
                    }
                    Err(e) => {
                        sched.requeue(unit);
                        self.discard(w, &mut sched, &format!("send failed: {e}"));
                        // `discard` saw no busy unit; account the
                        // requeue of the one we just claimed.
                        self.telemetry.unit_requeued();
                    }
                }
            }
            if sched.is_done() {
                break;
            }
            if self.live_count() == 0 {
                self.ensure_workers()?;
                continue;
            }

            let (w, event) = self
                .events_rx
                .recv()
                .expect("coordinator holds an event sender; recv cannot fail");
            match event {
                WorkerEvent::Message(FromWorker::Ready { protocol, pid }) => {
                    if protocol != PROTOCOL_VERSION {
                        self.shutdown();
                        return Err(format!(
                            "worker {w} speaks protocol {protocol}, coordinator speaks \
                             {PROTOCOL_VERSION}"
                        ));
                    }
                    self.telemetry.worker_ready(w, pid);
                }
                WorkerEvent::Message(FromWorker::Heartbeat { units_done }) => {
                    self.telemetry.worker_heartbeat(w, units_done);
                }
                WorkerEvent::Message(FromWorker::Done {
                    experiment,
                    unit,
                    wall_ms,
                    metrics,
                    result,
                    events,
                }) => {
                    if !self.slots[w].alive {
                        continue;
                    }
                    if experiment != job.id() || self.slots[w].busy != Some(unit) {
                        self.discard(
                            w,
                            &mut sched,
                            &format!("answered {experiment}/{unit} out of turn"),
                        );
                        continue;
                    }
                    self.slots[w].busy = None;
                    self.telemetry.worker_done(w);
                    let output = UnitOutput {
                        result,
                        metrics,
                        events,
                        wall_ms: u128::from(wall_ms),
                    };
                    ledger.record(unit, output);
                    sched.complete(unit);
                }
                WorkerEvent::Message(FromWorker::Failed {
                    experiment,
                    unit,
                    error,
                }) => {
                    self.shutdown();
                    return Err(format!("{experiment}: unit {unit} failed: {error}"));
                }
                WorkerEvent::Closed(error) => {
                    self.discard(
                        w,
                        &mut sched,
                        error.as_deref().unwrap_or("connection closed"),
                    );
                }
            }
        }
        Ok(ledger.close())
    }

    /// Shuts the fleet down: polite `shutdown` messages, EOF on every
    /// pipe, children reaped. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        for slot in &mut self.slots {
            if let Some(tx) = &mut slot.tx {
                let _ = tx.send(&ToWorker::Shutdown.to_json());
            }
            slot.tx = None;
            slot.alive = false;
            if let Some(mut child) = slot.child.take() {
                let _ = child.wait();
            }
        }
        self.retired = self.slots.len();
        self.telemetry.fleet_down();
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}
