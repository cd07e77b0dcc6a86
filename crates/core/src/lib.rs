//! # leakyhammer — covert and side channels from RowHammer defenses
//!
//! A full Rust reproduction of *"Understanding and Mitigating Covert
//! Channel and Side Channel Vulnerabilities Introduced by RowHammer
//! Defenses"* (MICRO 2025). This crate is the top of the stack: it wires
//! the substrate crates (DRAM device, memory controller, defenses,
//! system simulator, attacks, link layer, workloads, ML) into the
//! paper's 22 figures and tables.
//!
//! Who owns what — each fact is stated once:
//!
//! * [`experiment`] holds the **kernels**: one function per experiment
//!   that measures *one unit* (one transmission, one sweep point, one
//!   defense class, one fingerprint trace, one mix's cells) from the
//!   seed it is handed, and returns a typed outcome. No grids, no
//!   loops over points, no tables.
//! * [`mod@registry`] holds one [`lh_harness::Job`] per figure/table:
//!   the **grid** (which units exist at a scale), the **seed**
//!   derivation (one per unit, from the harness), the **merge**
//!   (`finish`) and the **table** (`render_text`). Everything that
//!   runs — `lh-experiments`, the coordinator's workers, the resident
//!   service, `benchmark/` — goes through these jobs.
//! * [`report`] is the aligned-table helper plus the renderers for the
//!   single-unit outcomes (Figs. 2/3/6, Table 3, §9.1, the §12
//!   qualitative table).
//! * The per-defense **attacker policy** (window, detection band,
//!   `Trecv`, stop-on-detect) is [`lh_link::LinkTuning::for_defense`]
//!   and nothing here restates it.
//!
//! The kernels cover the covert channels over PRAC back-offs and PRFM
//! RFM commands ([`experiment::covert`]) with noise and
//! application-interference points ([`experiment::noise_sweep`],
//! [`experiment::app_noise`]); the website-fingerprinting side channel
//! with eight from-scratch ML classifiers ([`experiment::fingerprint`]);
//! and the three countermeasures — FR-RFM, RIAC, Bank-Level PRAC —
//! with capacity ([`experiment::countermeasures`]) and performance
//! ([`experiment::perf`]) evaluations.
//!
//! ## Quickstart
//!
//! ```
//! use leakyhammer::experiment::covert::{run_covert, ChannelKind, CovertOptions};
//! use lh_analysis::message::bits_of_str;
//!
//! // Transmit "MICRO" over the PRAC back-off channel (Fig. 3).
//! let opts = CovertOptions::new(ChannelKind::Prac, bits_of_str("MI"));
//! let out = run_covert(&opts);
//! assert_eq!(out.decoded, opts.bits);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiment;
pub mod registry;
pub mod report;
mod scale;

pub use registry::registry;
pub use scale::Scale;

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use lh_analysis as analysis;
pub use lh_attacks as attacks;
pub use lh_defenses as defenses;
pub use lh_dram as dram;
pub use lh_memctrl as memctrl;
pub use lh_ml as ml;
pub use lh_sim as sim;
pub use lh_workloads as workloads;
