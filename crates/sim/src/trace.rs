//! Latency traces: the raw material of every LeakyHammer attack.
//!
//! A [`LatencyTrace`] is the sequence of per-iteration latencies a
//! measurement loop observes — the in-simulation equivalent of the
//! memorygram of §8 of the paper.

use lh_dram::{Span, Time};

/// One measured loop iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySample {
    /// Timestamp at the *end* of the iteration (`m5_rpns()` analogue).
    pub at: Time,
    /// Duration of the iteration.
    pub latency: Span,
}

/// A sequence of latency samples with analysis helpers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyTrace {
    samples: Vec<LatencySample>,
}

impl LatencyTrace {
    /// An empty trace.
    pub fn new() -> LatencyTrace {
        LatencyTrace::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, at: Time, latency: Span) {
        self.samples.push(LatencySample { at, latency });
    }

    /// The samples in chronological order.
    pub fn samples(&self) -> &[LatencySample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.latency.as_ns()).sum::<f64>() / self.samples.len() as f64
    }

    /// Maximum latency.
    pub fn max(&self) -> Span {
        self.samples
            .iter()
            .map(|s| s.latency)
            .max()
            .unwrap_or(Span::ZERO)
    }

    /// Samples with latency at or above `threshold`.
    pub fn above(&self, threshold: Span) -> impl Iterator<Item = &LatencySample> {
        self.samples.iter().filter(move |s| s.latency >= threshold)
    }

    /// Samples whose latency falls within `[lo, hi)`.
    pub fn within(&self, lo: Span, hi: Span) -> impl Iterator<Item = &LatencySample> {
        self.samples
            .iter()
            .filter(move |s| s.latency >= lo && s.latency < hi)
    }

    /// Samples restricted to the time window `[from, to)`.
    pub fn window(&self, from: Time, to: Time) -> impl Iterator<Item = &LatencySample> {
        self.samples
            .iter()
            .filter(move |s| s.at >= from && s.at < to)
    }
}

impl FromIterator<LatencySample> for LatencyTrace {
    fn from_iter<I: IntoIterator<Item = LatencySample>>(iter: I) -> LatencyTrace {
        LatencyTrace {
            samples: iter.into_iter().collect(),
        }
    }
}

impl Extend<LatencySample> for LatencyTrace {
    fn extend<I: IntoIterator<Item = LatencySample>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> LatencyTrace {
        let mut t = LatencyTrace::new();
        for (i, ns) in [100u64, 150, 1500, 120, 700, 1600].iter().enumerate() {
            t.push(Time::from_ns(i as u64 * 1000), Span::from_ns(*ns));
        }
        t
    }

    #[test]
    fn thresholding() {
        let t = trace();
        assert_eq!(t.above(Span::from_ns(1000)).count(), 2);
        assert_eq!(t.above(Span::from_ns(500)).count(), 3);
        assert_eq!(t.within(Span::from_ns(500), Span::from_ns(1000)).count(), 1);
    }

    #[test]
    fn windowing() {
        let t = trace();
        let n = t.window(Time::from_ns(1000), Time::from_ns(4000)).count();
        assert_eq!(n, 3);
    }

    #[test]
    fn stats() {
        let t = trace();
        assert_eq!(t.max(), Span::from_ns(1600));
        assert!((t.mean_ns() - 695.0).abs() < 1e-9);
    }

    #[test]
    fn collect_and_extend() {
        let t = trace();
        let copied: LatencyTrace = t.samples().iter().copied().collect();
        assert_eq!(copied, t);
        let mut e = LatencyTrace::new();
        e.extend(t.samples().iter().copied());
        assert_eq!(e.len(), 6);
    }
}
