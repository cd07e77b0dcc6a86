//! DDR5 timing parameters.
//!
//! All parameters are [`Span`]s (integer picoseconds). The defaults model a
//! DDR5-4800-class part, with the RowHammer-defense-related windows taken
//! from the values the LeakyHammer paper quotes from JESD79-5c:
//! `tRFM` = 350 ns (per-RFM preventive-refresh window used by PRAC
//! back-offs), `tABO_ACT` = 180 ns (window of normal traffic after an
//! alert), and an alert propagation delay of ≈5 ns after `PRE`.

use crate::error::DramError;
use crate::time::Span;

/// The complete set of timing constraints the device and controller obey.
///
/// # Examples
///
/// ```
/// use lh_dram::DramTiming;
///
/// let t = DramTiming::ddr5_4800();
/// assert_eq!(t.t_rc, t.t_ras + t.t_rp);
/// t.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Clock period.
    pub(crate) t_ck: Span,
    /// ACT-to-RD/WR delay (row to column command).
    pub t_rcd: Span,
    /// PRE-to-ACT delay (row precharge).
    pub t_rp: Span,
    /// ACT-to-PRE minimum (row active time / full restore).
    pub t_ras: Span,
    /// ACT-to-ACT minimum, same bank (`t_ras + t_rp`).
    pub t_rc: Span,
    /// CAS (read) latency.
    pub t_cl: Span,
    /// CAS write latency.
    pub t_cwl: Span,
    /// Data-burst duration for one cache line.
    pub t_burst: Span,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: Span,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s: Span,
    /// ACT-to-ACT delay, same bank group.
    pub(crate) t_rrd_l: Span,
    /// ACT-to-ACT delay, different bank group.
    pub(crate) t_rrd_s: Span,
    /// Four-activate window (rolling limit on ACTs per rank).
    pub(crate) t_faw: Span,
    /// Read-to-precharge delay.
    pub(crate) t_rtp: Span,
    /// Write recovery time (end of write burst to PRE).
    pub(crate) t_wr: Span,
    /// Write-to-read turnaround, same bank group.
    pub(crate) t_wtr_l: Span,
    /// Write-to-read turnaround, different bank group.
    pub(crate) t_wtr_s: Span,
    /// All-bank refresh cycle time.
    pub t_rfc: Span,
    /// Average periodic-refresh interval.
    pub t_refi: Span,
    /// Refresh window: every row refreshed once per `t_refw`.
    pub t_refw: Span,
    /// RFM cycle time: window granted to the device per RFM command.
    pub t_rfm: Span,
    /// Delay from `PRE` to the ABO (alert back-off) signal reaching the
    /// memory controller.
    pub(crate) t_abo_delay: Span,
    /// Window of normal traffic the controller may serve after observing
    /// the ABO signal, before the recovery RFMs must start.
    pub t_abo_act: Span,
    /// Command-bus occupancy per command (DDR5 commands are two cycles).
    pub t_cmd: Span,
}

impl DramTiming {
    /// DDR5-4800-class timings (16 Gb device; values in ns):
    ///
    /// | param | value | | param | value |
    /// |---|---|---|---|---|
    /// | tRCD | 16 | | tFAW | 13.33 |
    /// | tRP | 16 | | tRTP | 7.5 |
    /// | tRAS | 32 | | tWR | 30 |
    /// | tRC | 48 | | tRFC | 295 |
    /// | tCL | 16 | | tREFI | 3900 |
    /// | tBURST | 3.33 | | tREFW | 32 ms |
    /// | tCCD_L/S | 5 / 3.33 | | tRFM | 350 |
    /// | tRRD_L/S | 5 / 3.33 | | tABO_ACT | 180 |
    ///
    /// `tRFC` = 410 ns models a 32 Gb device; together with the
    /// always-postponed double refresh this reproduces the paper's
    /// ~1 µs refresh-delayed request latency (§6.2), the reference point
    /// the back-off detection threshold sits above.
    pub fn ddr5_4800() -> DramTiming {
        DramTiming {
            t_ck: Span::from_ps(416),
            t_rcd: Span::from_ns(16),
            t_rp: Span::from_ns(16),
            t_ras: Span::from_ns(32),
            t_rc: Span::from_ns(48),
            t_cl: Span::from_ns(16),
            t_cwl: Span::from_ns(14),
            t_burst: Span::from_ps(3_333),
            t_ccd_l: Span::from_ns(5),
            t_ccd_s: Span::from_ps(3_333),
            t_rrd_l: Span::from_ns(5),
            t_rrd_s: Span::from_ps(3_333),
            t_faw: Span::from_ps(13_333),
            t_rtp: Span::from_ps(7_500),
            t_wr: Span::from_ns(30),
            t_wtr_l: Span::from_ns(10),
            t_wtr_s: Span::from_ps(2_500),
            t_rfc: Span::from_ns(410),
            t_refi: Span::from_ns(3_900),
            t_refw: Span::from_ms(32),
            t_rfm: Span::from_ns(350),
            t_abo_delay: Span::from_ns(5),
            t_abo_act: Span::from_ns(180),
            t_cmd: Span::from_ps(832),
        }
    }

    /// Checks internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidTiming`] naming the violated relation if
    /// e.g. `t_rc < t_ras + t_rp` or any parameter that must be non-zero is
    /// zero.
    pub fn validate(&self) -> Result<(), DramError> {
        let nonzero: [(&str, Span); 8] = [
            ("t_ck", self.t_ck),
            ("t_rcd", self.t_rcd),
            ("t_rp", self.t_rp),
            ("t_ras", self.t_ras),
            ("t_rfc", self.t_rfc),
            ("t_refi", self.t_refi),
            ("t_refw", self.t_refw),
            ("t_rfm", self.t_rfm),
        ];
        for (name, v) in nonzero {
            if v.is_zero() {
                return Err(DramError::InvalidTiming {
                    relation: format!("{name} must be > 0"),
                });
            }
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(DramError::InvalidTiming {
                relation: "t_rc >= t_ras + t_rp".to_owned(),
            });
        }
        if self.t_refi >= self.t_refw {
            return Err(DramError::InvalidTiming {
                relation: "t_refi < t_refw".to_owned(),
            });
        }
        if self.t_ccd_s > self.t_ccd_l || self.t_rrd_s > self.t_rrd_l {
            return Err(DramError::InvalidTiming {
                relation: "short bank-group delays must not exceed long ones".to_owned(),
            });
        }
        Ok(())
    }

    /// Latency from issuing `RD` to the last data beat (tCL + tBURST).
    pub fn read_latency(&self) -> Span {
        self.t_cl + self.t_burst
    }

    /// Latency from issuing `WR` to the last data beat (tCWL + tBURST).
    pub(crate) fn write_latency(&self) -> Span {
        self.t_cwl + self.t_burst
    }

    /// The "back-off latency" of a PRAC recovery that issues `n` RFM
    /// commands back-to-back (the paper quotes 1400 ns for n = 4).
    pub fn backoff_latency(&self, n: u32) -> Span {
        self.t_rfm * n as u64
    }
}

impl Default for DramTiming {
    fn default() -> DramTiming {
        DramTiming::ddr5_4800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr5_defaults_are_valid() {
        DramTiming::ddr5_4800().validate().unwrap();
    }

    #[test]
    fn paper_backoff_latency_is_1400ns_for_4_rfms() {
        let t = DramTiming::ddr5_4800();
        assert_eq!(t.backoff_latency(4), Span::from_ns(1400));
        assert_eq!(t.backoff_latency(1), Span::from_ns(350));
    }

    #[test]
    fn validate_rejects_inconsistent_trc() {
        let mut t = DramTiming::ddr5_4800();
        t.t_rc = Span::from_ns(10);
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_refresh() {
        let mut t = DramTiming::ddr5_4800();
        t.t_refi = Span::ZERO;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_swapped_bank_group_delays() {
        let mut t = DramTiming::ddr5_4800();
        t.t_ccd_s = t.t_ccd_l + Span::from_ns(1);
        assert!(t.validate().is_err());
    }

    #[test]
    fn read_write_latencies() {
        let t = DramTiming::ddr5_4800();
        assert_eq!(t.read_latency(), t.t_cl + t.t_burst);
        assert_eq!(t.write_latency(), t.t_cwl + t.t_burst);
    }
}
