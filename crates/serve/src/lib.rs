//! # lh-serve — the resident experiment service
//!
//! `lh-experiments serve --addr host:port` turns the experiment harness
//! into a long-running service: one process owns a warm [`DiskCache`]
//! and a resident `lh-coord` worker fleet, and exposes a small
//! hand-rolled HTTP/1.1 API (no web framework — this build environment
//! is `std`-only, and the API needs six routes):
//!
//! | route | what |
//! |---|---|
//! | `POST /runs` | submit `{"experiment","scale","seed"}`; answers `{"id"}` |
//! | `GET /runs` | the remembered submissions with status |
//! | `GET /runs/<id>` | one run's status plus a live fleet snapshot |
//! | `GET /runs/<id>/envelope` | the finished envelope — byte-identical to `--format json` |
//! | `GET /runs/<id>/stream` | chunked NDJSON tail: `started`/`unit`/`finished` events live, with periodic `fleet` telemetry |
//! | `GET /metrics` | Prometheus text format: registry totals, histograms, retention, fleet telemetry |
//! | `GET /experiments`, `GET /healthz` | discovery and liveness |
//!
//! The load-bearing property is the **determinism boundary**: envelopes
//! served over HTTP are byte-identical to `lh-experiments <id> --format
//! json` at the same scale and seed — submission transport, worker
//! count, and cache temperature never leak into results. Everything
//! wall-clock shaped (fleet snapshots, `ts_ms` stream stamps, the
//! whole `/metrics` page) lives strictly in the volatile channel.
//!
//! Memory is bounded: finished runs' payloads are held under
//! [`PAYLOAD_BUDGET_BYTES`], oldest evicted first, and an evicted run's
//! envelope is re-served from the disk cache with the same bytes (its
//! stream answers `410 Gone`). See `crates/serve/README.md` for the API
//! walkthrough, retention and failure semantics.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod http;
pub mod prom;
pub mod server;
mod store;

pub use server::{ServeOptions, Server};
pub use store::{StoreStats, PAYLOAD_BUDGET_BYTES};

// Re-exported so embedders need only this crate for a basic setup.
pub use lh_coord::{ProcessSpawner, SpawnWorker, ThreadSpawner};
pub use lh_harness::cache::DiskCache;
