//! # lh-analysis — metrics for timing-channel research
//!
//! The quantitative vocabulary of the LeakyHammer paper:
//!
//! * `capacity` — channel capacity and binary entropy (Eq. 1),
//! * `curves` — BER-vs-noise and capacity-vs-`N_RH` sweep curves,
//! * `message` — test-message patterns, text↔bit and bit↔symbol codecs,
//! * `noise` — the noise-intensity mapping (Eq. 2),
//! * `pareto` — security-vs-cost curves for the mitigation sweep,
//! * `speedup` — weighted speedup for the Fig. 13 performance study,
//! * `stats` — summary statistics and histograms for reports.
//!
//! ## Example
//!
//! ```
//! use lh_analysis::{bits_of_str, ChannelResult};
//!
//! let sent = bits_of_str("MICRO");
//! let recv = sent.clone(); // perfect channel
//! let r = ChannelResult::from_bits(&sent, &recv, 40.0 / 40_000.0);
//! assert_eq!(r.capacity_kbps(), 40.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod capacity;
mod curves;
mod message;
mod noise;
mod pareto;
mod speedup;
mod stats;

pub use capacity::{binary_entropy, channel_capacity, ChannelResult};
pub use curves::{BerCurve, BerPoint, CapacityCurve, CapacityPoint};
pub use message::{bits_of_str, bits_to_symbols, str_of_bits, symbols_to_bits, MessagePattern};
pub use noise::{paper_sweep, sleep_of_intensity};
pub use pareto::{ParetoCurve, ParetoPoint};
pub use speedup::{normalized_ws, weighted_speedup, AppPerf};
pub use stats::{mean, std_dev, Histogram};
