//! # lh-workloads — synthetic workloads for the LeakyHammer reproduction
//!
//! The paper's workloads come from two places we cannot ship: SPEC
//! CPU2017/2006 binaries and Intel-Pin browser traces of 40 websites.
//! This crate substitutes both (`tests/properties.rs` checks the
//! properties the substitution rests on):
//!
//! * [`SyntheticApp`] — RBMPKI-parameterized row-streaming applications
//!   used for interference (Figs. 5/8) and the Fig. 13 weighted-speedup
//!   study ([`four_core_mixes`]);
//! * [`BrowserProcess`] / [`WebsiteProfile`] — seeded per-site load
//!   profiles for the §8 website-fingerprinting attack ([`WEBSITES`] is
//!   the paper's 40-site list).
//!
//! ## Example
//!
//! ```
//! use lh_workloads::{AppProfile, Intensity};
//!
//! let high = AppProfile::category(Intensity::High);
//! assert!(high.rbmpki() > 15.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod browser;
mod mixes;
mod spec;
mod trace;

pub use browser::{BrowserProcess, Phase, WebsiteProfile, WEBSITES};
pub use mixes::{app_pool, four_core_mixes};
pub use spec::{AppProfile, Intensity, SyntheticApp, INSTR_TIME};
pub use trace::{SharedTrace, TraceReplay};
