//! # lh-defenses — RowHammer defense policies
//!
//! The defenses analyzed and proposed by the LeakyHammer paper, split into
//! their device-side and controller-side halves:
//!
//! | Defense | Trigger | Preventive action | Where |
//! |---|---|---|---|
//! | PRAC | per-row counters ≥ `NBO` | ABO → 4×RFMab back-off | device (`lh-dram`) |
//! | PRFM | per-bank counters ≥ `TRFM` | RFMsb | controller ([`PrfmDefense`]) |
//! | FR-RFM | fixed wall-clock period | RFMab | controller ([`FrRfmDefense`]) |
//! | PRAC-RIAC | PRAC w/ random counter init | as PRAC | device |
//! | PRAC-Bank | PRAC w/ per-bank alert | single-bank back-off | device |
//! | PARA | per-ACT coin flip | neighbor refresh | controller ([`ParaDefense`]) |
//! | Graphene | Misra-Gries summary ≥ threshold | neighbor refresh | controller ([`GrapheneDefense`]) |
//! | Hydra | group + per-row counters | neighbor refresh | controller ([`HydraDefense`]) |
//! | CoMeT | count-min sketch ≥ threshold | neighbor refresh | controller ([`CometDefense`]) |
//! | MINT | reservoir sample per `tREFI` | in-REF refresh (hidden) | controller ([`MintDefense`]) |
//! | BlockHammer | rate filter blacklist | ACT throttling | controller ([`BlockHammerDefense`]) |
//!
//! Every controller-side defense is one concrete type behind the
//! [`Defense`] trait ([`build_defense`] is the factory), so the memory
//! controller schedules preventive work — reactive [`DefenseAction`]s
//! and time-driven [`Maintenance`] operations — without naming any
//! defense. Adding a defense touches this crate only.
//!
//! [`DefenseConfig::for_threshold`] provisions any of them for a RowHammer
//! threshold `N_RH`, using the scaling rules listed on that function.
//! The [`taxonomy`] module encodes the paper's §12 qualitative analysis of
//! which defense classes introduce timing channels; the [`trackers`]
//! module provides concrete per-bank implementations of the §12 trigger
//! classes so the taxonomy can be validated experimentally.
//!
//! ## Example
//!
//! ```
//! use lh_defenses::{DefenseConfig, DefenseKind, taxonomy};
//! use lh_dram::DramTiming;
//!
//! let timing = DramTiming::ddr5_4800();
//! let frrfm = DefenseConfig::for_threshold(DefenseKind::FrRfm, 1024, &timing);
//! let risk = taxonomy::profile_of(frrfm.kind()).unwrap().channel_risk();
//! assert_eq!(risk, taxonomy::ChannelRisk::None);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod defense;
pub mod taxonomy;
pub mod trackers;

pub use config::{fr_rfm_period, scaled_nbo, scaled_trfm, DefenseConfig, DefenseKind};
pub use defense::{
    build_defense, AggressorTracker, BlockHammerDefense, CometDefense, Defense, DefenseAction,
    DefenseStats, DeviceSideDefense, FrRfmDefense, GrapheneDefense, HydraDefense, Maintenance,
    MintDefense, ParaDefense, PrfmDefense, TrackerDefense,
};
