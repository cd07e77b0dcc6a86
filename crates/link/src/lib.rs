//! # lh-link — the covert-channel link layer
//!
//! The LeakyHammer paper demonstrates one sender/receiver pair per
//! defense; this crate turns that pair into a *link layer* whose three
//! pluggable stages compose over **any** registered RowHammer defense
//! (everything behind the `Defense` trait seam):
//!
//! * [`Modulator`] — how coded bits become per-window hammering
//!   intensity and how [`WindowObservation`]s become bits again:
//!   [`OnOffKeying`] (the paper's binary channel), [`PulsePosition`]
//!   and [`MultiLevelAmplitude`] (the §6.3 multibit extension,
//!   generalized);
//! * [`PreambleSync`] — preamble detection and window-clock drift
//!   correction, removing the paper's shared-wall-clock assumption;
//! * [`Codec`] — bit-level redundancy: [`Plain`], [`Repetition`],
//!   [`Hamming74`] and [`CrcFramed`] packets.
//!
//! [`LinkTuning::for_defense`] is the single §12 attacker table — the
//! window, detection band, `Trecv` and stop-on-detect an adaptive
//! attacker picks per defense class; `leakyhammer`'s figure experiments
//! read their defaults from it too, and run over the same wire,
//! [`pipeline::transmit_windows`].
//! [`pipeline::calibrate`] learns the receiver's decision parameters
//! against a concrete defense, and [`pipeline::transmit_message`] runs
//! the full round trip inside the simulator, reporting BER, capacity,
//! sync diagnostics and defense counters.
//!
//! ## Example: Hamming-coded OOK over PRAC, found by the synchronizer
//!
//! ```
//! use lh_defenses::DefenseKind;
//! use lh_link::{calibrate, transmit_message, Hamming74, LinkConfig, OnOffKeying};
//!
//! let cfg = LinkConfig::against(DefenseKind::Prac, 256, 7);
//! let cal = calibrate(&cfg, &OnOffKeying, 4);
//! let msg = lh_analysis::bits_of_str("A");
//! let out = transmit_message(&cfg, &OnOffKeying, &Hamming74, &cal, &msg);
//! assert!(out.alignment.locked());
//! assert_eq!(out.decoded, msg);
//! ```
//!
//! [`WindowObservation`]: lh_attacks::WindowObservation

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod modem;
pub mod pipeline;
pub mod sync;

pub use codec::{crc8, flip_bits, Codec, CrcFramed, Decoded, Hamming74, Plain, Repetition};
pub use modem::{Calibration, Modulator, MultiLevelAmplitude, OnOffKeying, PulsePosition};
pub use pipeline::{
    calibrate, transmit_message, transmit_payload, transmit_windows, LinkConfig, LinkOutcome,
    LinkTuning, PayloadOutcome, SymbolLog, WireOutcome, ATTACK_THINK,
};
pub use sync::{Alignment, PreambleSync};
