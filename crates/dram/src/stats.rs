//! Device-level statistics.

use crate::time::Span;

/// Counters maintained by [`DramDevice`](crate::DramDevice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued (PREA counts once per closed row).
    pub precharges: u64,
    /// RD commands issued.
    pub reads: u64,
    /// WR commands issued.
    pub writes: u64,
    /// Periodic REF commands issued.
    pub refreshes: u64,
    /// RFM commands issued (all scopes, including back-off recovery).
    pub rfms: u64,
    /// ABO alerts asserted (PRAC back-offs).
    pub(crate) alerts: u64,
    /// Aggressor rows whose victims were preventively refreshed.
    pub(crate) preventive_refreshes: u64,
    /// Preventive refreshes performed inside periodic-REF windows
    /// ("borrowed time"/MINT designs) — a subset of
    /// [`DeviceStats::preventive_refreshes`] that costs no extra DRAM
    /// time.
    pub(crate) hidden_refreshes: u64,
    /// Total time banks spent blocked by REF commands.
    pub(crate) ref_blocked: Span,
    /// Total time banks spent blocked by RFM commands.
    pub(crate) rfm_blocked: Span,
}

impl DeviceStats {
    /// Row-buffer hit ratio proxy: column commands per activate.
    pub fn columns_per_act(&self) -> f64 {
        if self.activates == 0 {
            0.0
        } else {
            (self.reads + self.writes) as f64 / self.activates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_per_act_handles_zero() {
        let s = DeviceStats::default();
        assert_eq!(s.columns_per_act(), 0.0);
        let s = DeviceStats {
            activates: 2,
            reads: 5,
            writes: 1,
            ..Default::default()
        };
        assert_eq!(s.columns_per_act(), 3.0);
    }
}
