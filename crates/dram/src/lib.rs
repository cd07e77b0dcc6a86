//! # lh-dram — cycle-level DDR5 DRAM device model
//!
//! This crate is the lowest layer of the LeakyHammer reproduction: a
//! command-accurate model of a DDR5 channel, including
//!
//! * the hierarchical organization (ranks, bank groups, banks, rows) and
//!   all relevant timing constraints ([`DramTiming`]),
//! * per-row activation counters ([`RowCounters`]) with pluggable
//!   (re)initialization — the RIAC countermeasure is
//!   [`CounterInit::Uniform`],
//! * the PRAC alert-back-off mechanism ([`PracConfig`], [`Alert`]),
//! * RFM commands at all-bank, same-bank and single-bank scope
//!   ([`RfmScope`]), and
//! * ground-truth read-disturb bookkeeping ([`DisturbTracker`]) used by the
//!   security tests; a periodic REF costs it only the victims it clears.
//!
//! The counters and the disturb tracker share one sparse per-bank map,
//! [`RowMap`].
//!
//! The memory controller (crate `lh-memctrl`) drives a [`DramDevice`]
//! through [`DramDevice::earliest_legal`] / [`DramDevice::issue`]; the
//! legality query is *total* (transiently illegal commands get the
//! instant they become issuable instead of an error), while `issue`
//! rejects protocol or timing violations with a [`DramError`].
//!
//! ## Example
//!
//! ```
//! use lh_dram::{BankId, Command, DeviceConfig, DramDevice, Time};
//!
//! # fn main() -> Result<(), lh_dram::DramError> {
//! let mut dev = DramDevice::new(DeviceConfig::paper_default())?;
//! let bank = BankId::new(0, 0, 0, 0);
//!
//! // Open a row, read a column, close the row.
//! for cmd in [
//!     Command::Activate { bank, row: 42 },
//!     Command::Read { bank, col: 0 },
//!     Command::Precharge { bank },
//! ] {
//!     let at = dev.earliest_legal(&cmd, Time::ZERO);
//!     dev.issue(&cmd, at)?;
//! }
//! assert_eq!(dev.counters().value(0, 42), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bank;
mod command;
mod counters;
mod device;
mod disturb;
mod error;
mod geometry;
mod prac;
mod rank;
mod rowmap;
mod stats;
mod time;
mod timing;

pub use bank::Bank;
pub use command::{Command, RfmScope};
pub use counters::{CounterInit, RowCounters};
pub use device::{DeviceConfig, DramDevice, IssueOutcome};
pub use disturb::DisturbTracker;
pub use error::DramError;
pub use geometry::{BankId, DramAddr, Geometry, LINE_BYTES};
pub use prac::{Alert, AlertScope, PracConfig, PracState};
pub use rank::RankState;
pub use rowmap::{RowHasher, RowMap};
pub use stats::DeviceStats;
pub use time::{Span, Time};
pub use timing::DramTiming;
