//! Device-side PRAC (Per Row Activation Counting) state.
//!
//! PRAC is the in-DRAM half of the defense framework introduced by
//! JESD79-5c and analyzed in §6 of the LeakyHammer paper: the device counts
//! activations per row (while the row is being closed), and when a counter
//! reaches the back-off threshold `NBO` it asserts the alert-back-off (ABO)
//! signal ≈5 ns after the `PRE`. The memory controller then serves normal
//! traffic for `tABO_ACT` and issues a configurable number of RFM commands
//! back-to-back, during which the device refreshes the victims of the
//! highest-counted rows. A cool-down window follows before ABO may be
//! asserted again.

use crate::counters::CounterInit;
use crate::geometry::BankId;
use crate::time::{Span, Time};

/// Which banks a PRAC back-off blocks.
///
/// Standard PRAC has a single ALERT_n pin, so a back-off blocks the whole
/// channel; Bank-Level PRAC (§11.3 of the paper) assumes per-bank alert
/// signalling so only the offending bank is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertScope {
    /// The back-off recovery blocks every bank of the channel (standard
    /// PRAC; `RFMab` recovery on the asserting rank).
    Channel,
    /// The back-off recovery blocks only the asserting bank
    /// (Bank-Level PRAC).
    Bank,
}

/// Configuration of the device-side PRAC mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PracConfig {
    /// Back-off threshold `NBO`: the device asserts ABO when a row's
    /// activation count reaches this value. The paper assumes 128.
    pub nbo: u32,
    /// Blocking scope of a back-off.
    pub scope: AlertScope,
    /// Number of RFM commands the controller issues per back-off
    /// (1, 2 or 4 per JESD79-5c; the paper assumes 4).
    pub rfms_per_backoff: u32,
    /// Counter initialization policy; [`CounterInit::Uniform`] yields the
    /// RIAC countermeasure.
    pub counter_init: CounterInit,
    /// Cool-down window after a recovery completes, during which ABO is
    /// not re-asserted.
    pub cooldown: Span,
}

impl PracConfig {
    /// The paper's default PRAC configuration: `NBO` = 128, channel-scope
    /// back-offs, 4 RFMs per back-off, zero-initialized counters, 180 ns
    /// cool-down.
    pub fn paper_default() -> PracConfig {
        PracConfig {
            nbo: 128,
            scope: AlertScope::Channel,
            rfms_per_backoff: 4,
            counter_init: CounterInit::Zero,
            cooldown: Span::from_ns(180),
        }
    }

    /// PRAC with the RIAC countermeasure: counters (re)initialize to
    /// uniform random values in `0..nbo`.
    pub fn riac(nbo: u32) -> PracConfig {
        PracConfig {
            nbo,
            counter_init: CounterInit::Uniform { max: nbo },
            ..PracConfig::paper_default()
        }
    }

    /// Bank-Level PRAC (per-bank alert signalling).
    pub fn bank_level(nbo: u32) -> PracConfig {
        PracConfig {
            nbo,
            scope: AlertScope::Bank,
            ..PracConfig::paper_default()
        }
    }
}

impl Default for PracConfig {
    fn default() -> PracConfig {
        PracConfig::paper_default()
    }
}

/// An asserted ABO (alert back-off) signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// The bank whose row crossed `NBO` (informational; standard PRAC
    /// blocks the whole channel regardless).
    pub bank: BankId,
    /// When the signal reaches the memory controller (≈5 ns after `PRE`).
    pub asserted_at: Time,
}

/// Runtime state of the PRAC mechanism.
#[derive(Debug, Clone)]
pub struct PracState {
    config: PracConfig,
    cooldown_until: Time,
    alert_in_flight: bool,
}

impl PracState {
    /// Creates PRAC state from a configuration.
    pub fn new(config: PracConfig) -> PracState {
        PracState {
            config,
            cooldown_until: Time::ZERO,
            alert_in_flight: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PracConfig {
        &self.config
    }

    /// Whether an alert has been asserted and its recovery has not yet
    /// completed.
    pub fn alert_in_flight(&self) -> bool {
        self.alert_in_flight
    }

    /// Until when ABO assertion is suppressed by the cool-down window.
    pub fn cooldown_until(&self) -> Time {
        self.cooldown_until
    }

    /// Called when a row is closed with activation count `count` at `now`
    /// (with `abo_delay` the PRE→controller signal latency). Returns the
    /// alert if the device asserts ABO.
    pub fn on_row_closed(
        &mut self,
        bank: BankId,
        count: u32,
        now: Time,
        abo_delay: Span,
    ) -> Option<Alert> {
        if count >= self.config.nbo && !self.alert_in_flight && now >= self.cooldown_until {
            self.alert_in_flight = true;
            Some(Alert {
                bank,
                asserted_at: now + abo_delay,
            })
        } else {
            None
        }
    }

    /// Called by the controller once the back-off recovery (all RFMs) has
    /// completed; starts the cool-down window.
    pub fn recovery_complete(&mut self, now: Time) {
        self.alert_in_flight = false;
        self.cooldown_until = now + self.config.cooldown;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> BankId {
        BankId::new(0, 0, 0, 0)
    }

    #[test]
    fn alert_fires_at_threshold_with_delay() {
        let mut s = PracState::new(PracConfig::paper_default());
        let d = Span::from_ns(5);
        assert!(s.on_row_closed(bank(), 127, Time::from_ns(10), d).is_none());
        let alert = s.on_row_closed(bank(), 128, Time::from_ns(20), d).unwrap();
        assert_eq!(alert.asserted_at, Time::from_ns(25));
        assert!(s.alert_in_flight());
    }

    #[test]
    fn no_second_alert_while_in_flight() {
        let mut s = PracState::new(PracConfig::paper_default());
        let d = Span::from_ns(5);
        assert!(s.on_row_closed(bank(), 200, Time::from_ns(1), d).is_some());
        assert!(s.on_row_closed(bank(), 300, Time::from_ns(2), d).is_none());
    }

    #[test]
    fn cooldown_suppresses_alerts() {
        let mut s = PracState::new(PracConfig::paper_default());
        let d = Span::from_ns(5);
        assert!(s.on_row_closed(bank(), 128, Time::from_ns(1), d).is_some());
        s.recovery_complete(Time::from_ns(1500));
        // Within cool-down (180 ns): suppressed.
        assert!(s
            .on_row_closed(bank(), 500, Time::from_ns(1600), d)
            .is_none());
        // After cool-down: fires again.
        assert!(s
            .on_row_closed(bank(), 500, Time::from_ns(1700), d)
            .is_some());
    }

    #[test]
    fn riac_config_uses_uniform_init() {
        let c = PracConfig::riac(64);
        assert_eq!(c.nbo, 64);
        assert_eq!(c.counter_init, CounterInit::Uniform { max: 64 });
    }

    #[test]
    fn bank_level_config_scopes_to_bank() {
        let c = PracConfig::bank_level(128);
        assert_eq!(c.scope, AlertScope::Bank);
    }
}
