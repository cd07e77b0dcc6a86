//! # lh-bench — the `lh-experiments` binary of the LeakyHammer reproduction
//!
//! `lh-experiments` regenerates any figure or table of the paper on
//! demand through the `lh-harness` orchestrator (`lh-experiments fig4
//! --scale default --jobs 8`), with sweep units sharded across cores
//! and cached on disk between runs; `lh-experiments list` prints the
//! catalogue straight from [`leakyhammer::registry()`]. The committed
//! envelope, counter and event-log snapshots CI diffs against live
//! under `snapshots/`.
//!
//! Timing is the job of the repository benchmark (`benchmark/` at the
//! repo root: four workloads with output checks); the one bench kept
//! here, `benches/lane_batch.rs`, is a plain `main` that asserts the
//! lane engine's identity and prints an advisory speedup line.
//!
//! The experiment logic lives in [`leakyhammer::experiment`] and its
//! harness adapters in [`mod@leakyhammer::registry`]; this crate only
//! orchestrates and prints.

pub mod flight_view;
