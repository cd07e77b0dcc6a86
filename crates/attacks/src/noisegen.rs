//! The noise-generator microbenchmark of §6.3.
//!
//! Issues row activations (alternating two rows of the target bank) with a
//! configurable sleep between consecutive activations; the sleep duration
//! maps to the paper's noise-intensity scale via
//! [`lh_analysis::sleep_of_intensity`] (Eq. 2).

use core::any::Any;

use lh_dram::{Span, Time};
use lh_sim::{MemAccess, Process, ProcessStep};

/// A process that generates bank-targeted activation noise.
///
/// The generator round-robins over several rows: with fewer rows than the
/// back-off recovery refreshes aggressors (4 RFMs → top-4 counters reset),
/// its counters would be wiped by the channel's own back-offs and never
/// reach `NBO`.
#[derive(Debug, Clone)]
pub struct NoiseProcess {
    rows: Vec<u64>,
    sleep: Span,
    until: Time,
    i: usize,
}

impl NoiseProcess {
    /// Generates conflicting accesses round-robin over `rows` with `sleep`
    /// between consecutive activations, until `until`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` has fewer than two entries (a single row would
    /// produce row hits, not activations).
    pub fn new(rows: Vec<u64>, sleep: Span, until: Time) -> NoiseProcess {
        assert!(
            rows.len() >= 2,
            "noise needs at least two rows to force activations"
        );
        NoiseProcess {
            rows,
            sleep,
            until,
            i: 0,
        }
    }

    /// Builds the generator from a paper noise intensity (1–100 %).
    pub fn from_intensity(rows: Vec<u64>, intensity: f64, until: Time) -> NoiseProcess {
        let sleep_us = lh_analysis::sleep_of_intensity(intensity);
        NoiseProcess::new(rows, Span::from_ns_f64(sleep_us * 1_000.0), until)
    }

    /// Activations issued so far.
    pub fn issued(&self) -> usize {
        self.i
    }
}

impl Process for NoiseProcess {
    fn step(&mut self, now: Time) -> ProcessStep {
        if now >= self.until {
            return ProcessStep::Halt;
        }
        let addr = self.rows[self.i % self.rows.len()];
        self.i += 1;
        ProcessStep::Access(MemAccess::flushed_load(addr, self.sleep))
    }

    fn label(&self) -> String {
        format!("noise[sleep {}]", self.sleep)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternates_rows_with_sleep_as_think_time() {
        let mut n = NoiseProcess::new(vec![0x0, 0x40_000], Span::from_us(1), Time::from_us(100));
        match n.step(Time::ZERO) {
            ProcessStep::Access(a) => {
                assert_eq!(a.addr, 0x0);
                assert_eq!(a.think, Span::from_us(1));
                assert!(a.flush);
            }
            other => panic!("{other:?}"),
        }
        match n.step(Time::from_us(2)) {
            ProcessStep::Access(a) => assert_eq!(a.addr, 0x40_000),
            other => panic!("{other:?}"),
        }
        assert_eq!(n.issued(), 2);
    }

    #[test]
    fn halts_at_deadline() {
        let mut n = NoiseProcess::new(vec![0, 64], Span::ZERO, Time::from_us(1));
        assert_eq!(n.step(Time::from_us(1)), ProcessStep::Halt);
    }

    #[test]
    fn intensity_mapping_matches_eq2() {
        let lo = NoiseProcess::from_intensity(vec![0, 64], 1.0, Time::MAX);
        let hi = NoiseProcess::from_intensity(vec![0, 64], 100.0, Time::MAX);
        assert_eq!(lo.sleep, Span::from_us(2));
        assert_eq!(hi.sleep, Span::from_ns(200));
    }
}
