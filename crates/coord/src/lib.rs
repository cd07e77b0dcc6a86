//! # lh-coord — distributed coordinator/worker execution for the
//! experiment unit DAG
//!
//! `lh-harness` made every experiment a machine-agnostic DAG of units
//! with content-addressed cache keys and position-derived seeds. This
//! crate is the subsystem that exploits it at fleet scale: a
//! [`Coordinator`] schedules the DAG across N worker processes, and a
//! worker mode ([`worker_loop`], surfaced as `lh-experiments
//! --worker`) executes assigned units, speaking a tiny NDJSON line
//! protocol ([`protocol`]) over a pluggable `transport`.
//!
//! This crate owns *scheduling* — which worker runs which missed unit,
//! and what happens when one dies — and nothing else. What a run
//! replays, captures, stores, reports and returns is owned by
//! `lh_harness::ledger`: [`Coordinator::run`] opens a ledger, feeds
//! it every `done` payload and closes it; `worker::run_assignment`
//! executes through the ledger's `execute_unit`. A new rail (an
//! observability channel, a cache-entry field) is wired there, never
//! here — beyond carrying a new field in the [`protocol`] messages.
//!
//! The contract is therefore the in-process runner's own:
//!
//! * **determinism** — a unit's seed derives from `(experiment id,
//!   unit index, master seed)` *inside the worker*, dependency results
//!   ship in the assignment, and the coordinator merges in unit order,
//!   so `--workers N` envelopes are byte-identical to `--jobs M` for
//!   any N, M and any placement of units on workers;
//! * **incrementality** — the shared [`DiskCache`] is the warm path
//!   (cached units never reach a worker); workers hold no cache, and
//!   the coordinator's ledger writes each executed unit's entry from
//!   its `done` reply, the bytes `--jobs` writes;
//! * **fault tolerance** — a dead worker's in-flight unit is requeued
//!   on the survivors, with a bounded respawn budget when the whole
//!   fleet is lost;
//! * **observability** — every worker's completions multiplex into the
//!   one [`UnitObserver`] feed behind `--stream`, and
//!   [`viewer::watch`] (surfaced as `lh-experiments watch`) renders
//!   that stream for humans.
//!
//! Transports are small trait objects (`transport::Sender` /
//! `transport::Receiver`); the stock ones cover child-process pipes
//! and wire-faithful in-memory channels, and anything
//! `Write`/`BufRead` (a `TcpStream`, say) slots in without touching
//! scheduling.
//!
//! ## Example
//!
//! In-process workers over the wire-faithful memory transport:
//!
//! ```
//! use lh_coord::{Coordinator, CoordinatorOptions, ThreadSpawner};
//! use lh_harness::{Job, JobContext, Json, Registry, ScaleLevel};
//!
//! struct Squares;
//!
//! impl Job for Squares {
//!     fn id(&self) -> &'static str { "squares" }
//!     fn description(&self) -> &'static str { "squares of the first N integers" }
//!     fn units(&self, _ctx: &JobContext) -> Vec<String> {
//!         (0..4).map(|i| format!("square:{i}")).collect()
//!     }
//!     fn run_unit(&self, unit: usize, _seed: u64, _deps: &[Json], _ctx: &JobContext) -> Json {
//!         Json::object().with("n", unit).with("sq", unit * unit)
//!     }
//!     fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
//!         Json::object().with("points", Json::Array(units))
//!     }
//!     fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
//!         format!("{} squares\n", merged["points"].as_array().len())
//!     }
//! }
//!
//! fn registry() -> Registry {
//!     let mut r = Registry::new();
//!     r.register(Box::new(Squares));
//!     r
//! }
//!
//! let mut coordinator = Coordinator::new(
//!     Box::new(ThreadSpawner::new(registry)),
//!     CoordinatorOptions { workers: 2, ..CoordinatorOptions::default() },
//! );
//! let ctx = JobContext::new(ScaleLevel::Quick, 1);
//! let run = coordinator.run(registry().get("squares").unwrap(), &ctx).unwrap();
//! assert_eq!(run.merged["points"].as_array().len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod coordinator;
pub mod protocol;
mod telemetry;
mod transport;
mod viewer;
mod worker;

pub use coordinator::{
    CoordStats, Coordinator, CoordinatorOptions, ProcessSpawner, SpawnWorker, ThreadSpawner,
};
pub use protocol::{FromWorker, ToWorker, PROTOCOL_VERSION};
pub use telemetry::{FleetSnapshot, FleetTelemetry, WorkerTelemetry};
pub use transport::{memory_pair, stdio_link, Link};
pub use viewer::{watch, WatchSummary};
pub use worker::{worker_loop, WorkerOptions};

// Re-exported so transports and worker glue need only this crate.
pub use lh_harness::cache::DiskCache;
pub use lh_harness::UnitObserver;
