//! Latency classification: mapping measured loop-iteration latencies to
//! the events of Fig. 2 (row hit / row-buffer conflict / RFM / periodic
//! refresh / PRAC back-off).
//!
//! The receiver side of every LeakyHammer attack is a latency classifier:
//! "a userspace application can detect back-offs by comparing a measured
//! latency against the latency of regular memory accesses and periodic
//! refreshes" (§6.2).

use lh_dram::{DramTiming, Span};

/// The event classes distinguishable from a measured iteration latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LatencyClass {
    /// Row-buffer hit (plus loop overhead).
    Hit,
    /// Row-buffer conflict (precharge + activate).
    Conflict,
    /// RFM command (~tRFM blocking).
    Rfm,
    /// Periodic refresh (the controller postpones once and issues two
    /// REFs back-to-back, so ~2×tRFC).
    Refresh,
    /// PRAC back-off (tABO_ACT + n×tRFM recovery).
    BackOff,
}

/// Latency band boundaries derived from the DRAM timing parameters and
/// the measuring loop's own overhead.
///
/// # Examples
///
/// ```
/// use lh_attacks::{LatencyClass, LatencyClassifier};
/// use lh_dram::{DramTiming, Span};
///
/// let c = LatencyClassifier::from_timing(&DramTiming::ddr5_4800(), Span::from_ns(30));
/// assert_eq!(c.classify(Span::from_ns(1600)), LatencyClass::BackOff);
/// assert_eq!(c.classify(Span::from_ns(70)), LatencyClass::Hit);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyClassifier {
    /// Upper bound of the row-hit band.
    pub hit_max: Span,
    /// Upper bound of the row-conflict band.
    pub conflict_max: Span,
    /// Upper bound of the single-RFM band.
    pub rfm_max: Span,
    /// Upper bound of the periodic-refresh band; anything above is a
    /// back-off.
    pub refresh_max: Span,
}

impl LatencyClassifier {
    /// Derives the bands from DRAM timing parameters, where `overhead` is
    /// the measuring loop's non-memory time per iteration (flush,
    /// timestamp and ALU instructions).
    pub fn from_timing(t: &DramTiming, overhead: Span) -> LatencyClassifier {
        let base = overhead + t.read_latency();
        // A conflict adds PRE + ACT plus queueing slack.
        let conflict_max = base + t.t_rp + t.t_rcd + Span::from_ns(60);
        // One RFM blocks for tRFM on top of the conflict path.
        let rfm_max = conflict_max + t.t_rfm + Span::from_ns(60);
        // A postponed refresh issues two REFs back-to-back; the extra
        // slack absorbs queueing under contention, so that only multi-RFM
        // back-off recoveries land above the band.
        let refresh_max = conflict_max + t.t_rfc * 2 + Span::from_ns(250);
        LatencyClassifier {
            hit_max: base + Span::from_ns(25),
            conflict_max,
            rfm_max,
            refresh_max,
        }
    }

    /// Classifies one measured iteration latency.
    pub fn classify(&self, latency: Span) -> LatencyClass {
        if latency <= self.hit_max {
            LatencyClass::Hit
        } else if latency <= self.conflict_max {
            LatencyClass::Conflict
        } else if latency <= self.rfm_max {
            LatencyClass::Rfm
        } else if latency <= self.refresh_max {
            LatencyClass::Refresh
        } else {
            LatencyClass::BackOff
        }
    }

    /// The detection threshold for PRAC back-offs.
    pub fn backoff_threshold(&self) -> Span {
        self.refresh_max
    }

    /// The detection threshold for RFM events (anything slower than a
    /// plain conflict counts — refreshes are filtered by `Trecv` counting
    /// in the RFM covert channel, §7.3).
    pub fn rfm_threshold(&self) -> Span {
        self.conflict_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classifier() -> LatencyClassifier {
        LatencyClassifier::from_timing(&DramTiming::ddr5_4800(), Span::from_ns(30))
    }

    #[test]
    fn bands_are_ordered() {
        let c = classifier();
        assert!(c.hit_max < c.conflict_max);
        assert!(c.conflict_max < c.rfm_max);
        assert!(c.rfm_max < c.refresh_max);
    }

    #[test]
    fn typical_latencies_classify_correctly() {
        let c = classifier();
        // ~50-70 ns: hit; ~120-140: conflict; ~400-500: RFM;
        // ~700-900: double refresh; ≥1400: 4-RFM back-off.
        assert_eq!(c.classify(Span::from_ns(60)), LatencyClass::Hit);
        assert_eq!(c.classify(Span::from_ns(135)), LatencyClass::Conflict);
        assert_eq!(c.classify(Span::from_ns(450)), LatencyClass::Rfm);
        assert_eq!(c.classify(Span::from_ns(800)), LatencyClass::Refresh);
        assert_eq!(c.classify(Span::from_ns(1500)), LatencyClass::BackOff);
    }

    #[test]
    fn classes_are_ordered_by_severity() {
        assert!(LatencyClass::Hit < LatencyClass::Conflict);
        assert!(LatencyClass::Refresh < LatencyClass::BackOff);
    }

    #[test]
    fn thresholds_expose_band_edges() {
        let c = classifier();
        assert_eq!(c.backoff_threshold(), c.refresh_max);
        assert_eq!(c.rfm_threshold(), c.conflict_max);
    }

    #[test]
    fn overhead_shifts_all_bands() {
        let t = DramTiming::ddr5_4800();
        let small = LatencyClassifier::from_timing(&t, Span::from_ns(10));
        let large = LatencyClassifier::from_timing(&t, Span::from_ns(100));
        assert_eq!(large.conflict_max - small.conflict_max, Span::from_ns(90));
    }
}
