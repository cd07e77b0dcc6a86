//! Website-fingerprinting side channel (§8, Listing 2).
//!
//! The attacker runs a probe that measures its own memory latency while
//! avoiding back-offs of its own: it touches each of `N` test rows `T`
//! times (with `T` < `NBO`, and since repeated accesses to an open row are
//! row hits, the per-row activation counters barely move) and records a
//! latency trace. Back-off-class latencies in that trace are caused by
//! *other* processes on the channel — the victim's browser — and their
//! timing forms the fingerprint.

use core::any::Any;

use lh_dram::{Span, Time};
use lh_sim::{LatencyTrace, MemAccess, Process, ProcessStep};

use crate::classify::LatencyClassifier;

/// The Listing-2 fingerprinting probe.
#[derive(Debug, Clone)]
pub struct FingerprintProbe {
    rows: Vec<u64>,
    /// Accesses per row before moving to the next (`T` = NBO − 1).
    t_per_row: u32,
    think: Span,
    until: Time,
    i: u64,
    last: Option<Time>,
    trace: LatencyTrace,
}

impl FingerprintProbe {
    /// Creates the probe over `rows` (each visited `t_per_row` times in
    /// round-robin) running until `until`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or `t_per_row` is zero.
    pub fn new(rows: Vec<u64>, t_per_row: u32, think: Span, until: Time) -> FingerprintProbe {
        assert!(
            !rows.is_empty() && t_per_row > 0,
            "probe needs rows and a positive T"
        );
        FingerprintProbe {
            rows,
            t_per_row,
            think,
            until,
            i: 0,
            last: None,
            trace: LatencyTrace::new(),
        }
    }

    /// The recorded latency trace.
    pub fn trace(&self) -> &LatencyTrace {
        &self.trace
    }
}

impl Process for FingerprintProbe {
    fn step(&mut self, now: Time) -> ProcessStep {
        if let Some(last) = self.last.take() {
            self.trace.push(now, now - last);
        }
        if now >= self.until {
            return ProcessStep::Halt;
        }
        let row_idx = (self.i / self.t_per_row as u64) as usize % self.rows.len();
        self.i += 1;
        self.last = Some(now);
        ProcessStep::Access(MemAccess::flushed_load(self.rows[row_idx], self.think))
    }

    fn label(&self) -> String {
        format!("fingerprint-probe[{} rows]", self.rows.len())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A fingerprint: the timestamps of the back-offs a victim's execution
/// caused, as observed by the probe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fingerprint {
    /// Back-off timestamps relative to the start of the observation.
    pub events: Vec<Time>,
    /// Total observation span.
    pub span: Span,
}

impl Fingerprint {
    /// Extracts the back-off events from a probe trace.
    pub fn from_trace(
        trace: &LatencyTrace,
        classifier: &LatencyClassifier,
        start: Time,
        span: Span,
    ) -> Fingerprint {
        let events = trace
            .samples()
            .iter()
            .filter(|s| s.latency >= classifier.backoff_threshold())
            .map(|s| Time::ZERO + s.at.saturating_since(start))
            .collect();
        Fingerprint { events, span }
    }

    /// Feature vector for the ML classifiers: per-execution-window
    /// back-off counts plus pairwise-timing aggregates (§8 collects, per
    /// consecutive back-off pair, the intra-pair gap, the inter-pair gap
    /// and the pair's mean timestamp; we aggregate those into fixed-size
    /// statistics so classical models can consume them).
    pub fn features(&self, n_windows: usize) -> Vec<f64> {
        let mut f = Vec::with_capacity(n_windows + 8);
        let win = self.span.as_ns() / n_windows as f64;
        let mut counts = vec![0.0f64; n_windows];
        for e in &self.events {
            let idx = ((e.as_ns() / win) as usize).min(n_windows - 1);
            counts[idx] += 1.0;
        }
        f.extend_from_slice(&counts);
        // Pairwise statistics over consecutive events.
        let gaps: Vec<f64> = self
            .events
            .windows(2)
            .map(|w| (w[1] - w[0]).as_ns())
            .collect();
        let pair_means: Vec<f64> = self
            .events
            .windows(2)
            .map(|w| (w[0].as_ns() + w[1].as_ns()) / 2.0)
            .collect();
        f.push(self.events.len() as f64);
        f.push(lh_analysis::mean(&gaps));
        f.push(lh_analysis::std_dev(&gaps));
        f.push(gaps.iter().copied().fold(f64::INFINITY, f64::min).min(1e12));
        f.push(gaps.iter().copied().fold(0.0, f64::max));
        f.push(lh_analysis::mean(&pair_means));
        f.push(self.events.first().map_or(self.span.as_ns(), |e| e.as_ns()));
        f.push(self.events.last().map_or(0.0, |e| e.as_ns()));
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_dram::DramTiming;

    #[test]
    fn probe_cycles_rows_every_t_accesses() {
        let mut p =
            FingerprintProbe::new(vec![0x0, 0x1000], 3, Span::from_ns(30), Time::from_us(100));
        let mut seen = Vec::new();
        let mut t = Time::ZERO;
        for _ in 0..7 {
            match p.step(t) {
                ProcessStep::Access(a) => seen.push(a.addr),
                other => panic!("{other:?}"),
            }
            t += Span::from_ns(100);
        }
        assert_eq!(seen, vec![0x0, 0x0, 0x0, 0x1000, 0x1000, 0x1000, 0x0]);
        assert_eq!(p.trace().len(), 6);
    }

    #[test]
    fn fingerprint_extracts_backoff_events_only() {
        let classifier =
            LatencyClassifier::from_timing(&DramTiming::ddr5_4800(), Span::from_ns(30));
        let mut trace = LatencyTrace::new();
        trace.push(Time::from_us(1), Span::from_ns(130)); // conflict
        trace.push(Time::from_us(2), Span::from_ns(1_600)); // back-off
        trace.push(Time::from_us(3), Span::from_ns(800)); // refresh
        trace.push(Time::from_us(4), Span::from_ns(1_700)); // back-off
        let fp = Fingerprint::from_trace(&trace, &classifier, Time::ZERO, Span::from_us(5));
        assert_eq!(fp.events.len(), 2);
        assert_eq!(fp.events[0], Time::from_us(2));
    }

    #[test]
    fn features_have_fixed_dimension() {
        let fp = Fingerprint {
            events: vec![Time::from_us(1), Time::from_us(3), Time::from_us(4)],
            span: Span::from_us(10),
        };
        let f8 = fp.features(8);
        assert_eq!(f8.len(), 16);
        let empty = Fingerprint {
            events: vec![],
            span: Span::from_us(10),
        };
        assert_eq!(empty.features(8).len(), 16);
        // Window counts sum to the event count.
        let total: f64 = f8[..8].iter().sum();
        assert_eq!(total, 3.0);
    }

    #[test]
    fn features_distinguish_different_timings() {
        let early = Fingerprint {
            events: vec![Time::from_us(1), Time::from_us(2)],
            span: Span::from_us(10),
        };
        let late = Fingerprint {
            events: vec![Time::from_us(8), Time::from_us(9)],
            span: Span::from_us(10),
        };
        assert_ne!(early.features(4), late.features(4));
    }
}
