//! # lh-harness — deterministic, parallel, result-caching orchestration
//!
//! The experiment orchestration subsystem of the LeakyHammer
//! reproduction. Every figure/table experiment plugs into this crate's
//! [`Job`] trait and registers in a [`Registry`]; the [`Runner`] then
//! executes any subset of experiments
//!
//! * **in parallel** — each job is split into *units* (sweep points,
//!   fingerprint traces, workload-mix cells) forming a dependency DAG
//!   ([`Job::deps`]) that a topological work-claiming thread pool
//!   shards across cores ([`pool`]): a unit starts the moment its
//!   dependencies complete, and receives their outputs;
//! * **deterministically** — the RNG seed of every unit is derived with
//!   SplitMix64 from `(experiment id, unit index, master seed)`
//!   ([`seed`]), and unit results are merged in unit order, so the
//!   output of `--jobs 8` is bit-identical to `--jobs 1`;
//! * **incrementally** — unit and merged results are stored in a
//!   content-addressed on-disk cache keyed by a hash of `(experiment
//!   id, unit config, scale, seed, job version, job code fingerprint)`
//!   ([`cache`]), so unchanged sweep points are skipped on rerun and
//!   invalidation is surgical per job;
//! * **observably** — structured output sinks render any result as
//!   text, JSON or CSV, stream per-unit NDJSON events as they complete
//!   ([`sink`], [`runner::UnitObserver`]), with live progress on stderr
//!   ([`progress`]); every unit runs under an [`lh_obs::record`] metric
//!   scope, so deterministic counters the simulator emits attribute to
//!   exactly one unit, ride its cache entry, and land in the envelope's
//!   `metrics` block ([`metrics`]).
//!
//! The crate is std-only (its one dependency, `lh-obs`, is too) and
//! knows nothing about the simulator: jobs communicate through the
//! hand-rolled [`json::Json`] value type.
//!
//! ## Who owns what
//!
//! Every byte a run returns or stores is decided by the run
//! [`ledger`]: cache keys, the merged-entry and per-unit replay rules,
//! what a unit execution captures ([`execute_unit`]), what each
//! completion reports, and the unit-order assembly of the metrics
//! block, the event log and the merged result. A *scheduling loop* only
//! decides where a missed unit executes: [`Runner::run`] on this
//! crate's thread pool ([`pool`]), `lh-coord`'s `Coordinator::run` on a
//! fleet of workers whose `run_assignment` calls the same
//! [`execute_unit`]. That split is what makes `--jobs`, `--workers` and
//! the resident service return the same bytes by construction — and a
//! new rail (an observability channel, a cache-entry field) is wired in
//! [`execute_unit`], [`Ledger::record`] and [`Ledger::close`], and
//! nowhere else.
//!
//! ## Example
//!
//! ```
//! use lh_harness::{Job, JobContext, Json, Registry, Runner, RunnerOptions, ScaleLevel};
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
//!         Json::object().with("n", unit as i64).with("sq", (unit * unit) as i64)
//!     }
//!     fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
//!         Json::object().with("points", Json::Array(units))
//!     }
//!     fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
//!         format!("{} squares\n", merged["points"].as_array().len())
//!     }
//! }
//!
//! let mut registry = Registry::new();
//! registry.register(Box::new(Squares));
//! let runner = Runner::new(RunnerOptions { jobs: 2, ..RunnerOptions::default() });
//! let ctx = JobContext::new(ScaleLevel::Quick, 1);
//! let run = runner.run(registry.get("squares").unwrap(), &ctx).unwrap();
//! assert_eq!(run.merged["points"].as_array().len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod hash;
pub mod job;
pub mod json;
pub mod ledger;
pub mod memo;
pub mod metrics;
pub mod pool;
pub mod progress;
pub mod runner;
pub mod seed;
pub mod sink;

pub use cache::{CacheKey, DiskCache};
pub use job::{Job, JobContext, Registry, ScaleLevel};
pub use json::Json;
pub use ledger::{execute_unit, replay_merged, Ledger, Opened, UnitOutput};
pub use memo::Memo;
pub use metrics::{
    metrics_block, metrics_from_json, metrics_to_json, unwrap_entry, unwrap_entry_events,
    wrap_entry, wrap_entry_events,
};
pub use pool::DagSchedule;
pub use runner::{
    merged_fingerprint, unit_key, ExperimentRun, RunStats, Runner, RunnerOptions, UnitEvent,
    UnitObserver,
};
pub use seed::derive_seed;
pub use sink::OutputFormat;
