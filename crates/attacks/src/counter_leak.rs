//! Activation-counter value leakage (§9.1).
//!
//! When the attacker shares a DRAM row with the victim (PRAC counts per
//! row), the attacker can leak *how many times* the victim activated that
//! row: after the victim ran, the attacker hammers the shared row until a
//! back-off occurs and counts its own activations `a`. The victim's
//! contribution is `NBO − a` (up to the noise of the conflict row's own
//! counter). One measurement leaks `log2(NBO)` bits — the paper reports
//! ~7 bits in 13.6 µs at `NBO` = 128 (≈501 Kbps).

use core::any::Any;

use lh_dram::{Span, Time};
use lh_sim::{MemAccess, Process, ProcessStep};

/// The attacker process: alternates the shared row and a private conflict
/// row until it observes a back-off, counting its own activations of the
/// shared row.
#[derive(Debug, Clone)]
pub struct CounterLeakAttacker {
    shared_row: u64,
    conflict_row: u64,
    think: Span,
    detect: Span,
    start: Time,
    i: u64,
    last: Option<Time>,
    result: Option<CounterLeakResult>,
}

/// Outcome of one counter-leak measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterLeakResult {
    /// The attacker's own activations of the shared row before the
    /// back-off fired.
    pub own_activations: u32,
    /// How long the measurement took.
    pub elapsed: Span,
}

impl CounterLeakResult {
    /// Estimates the victim's activation count from the attacker's count
    /// and the known back-off threshold.
    ///
    /// The `+1` calibrates for the `tABO_ACT` normal-traffic window: the
    /// ABO signal reaches the controller ~180 ns before traffic stalls,
    /// so the attacker's loop completes one more shared-row access after
    /// the counter actually crossed `NBO`.
    pub fn estimate_victim(&self, nbo: u32) -> u32 {
        (nbo + 1).saturating_sub(self.own_activations).min(nbo)
    }

    /// Leakage throughput in bits/second for a threshold of `nbo`
    /// (each measurement leaks `log2(nbo)` bits).
    pub fn throughput_bps(&self, nbo: u32) -> f64 {
        (nbo as f64).log2() / self.elapsed.as_secs()
    }
}

impl CounterLeakAttacker {
    /// Creates the attacker; it starts measuring at `start` (after the
    /// victim's accesses).
    pub fn new(
        shared_row: u64,
        conflict_row: u64,
        think: Span,
        detect: Span,
        start: Time,
    ) -> CounterLeakAttacker {
        CounterLeakAttacker {
            shared_row,
            conflict_row,
            think,
            detect,
            start,
            i: 0,
            last: None,
            result: None,
        }
    }

    /// The measurement, available once the back-off was observed.
    pub fn result(&self) -> Option<CounterLeakResult> {
        self.result
    }
}

impl Process for CounterLeakAttacker {
    fn step(&mut self, now: Time) -> ProcessStep {
        if now < self.start {
            return ProcessStep::SleepUntil(self.start);
        }
        if self.result.is_some() {
            return ProcessStep::Halt;
        }
        if let Some(last) = self.last.take() {
            if now - last >= self.detect {
                // Back-off observed: every second access activated the
                // shared row (we alternate shared/conflict).
                self.result = Some(CounterLeakResult {
                    own_activations: self.i.div_ceil(2) as u32,
                    elapsed: now - self.start,
                });
                return ProcessStep::Halt;
            }
        }
        let addr = if self.i.is_multiple_of(2) {
            self.shared_row
        } else {
            self.conflict_row
        };
        self.i += 1;
        self.last = Some(now);
        ProcessStep::Access(MemAccess::flushed_load(addr, self.think))
    }

    fn label(&self) -> String {
        "counter-leak".to_owned()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The victim: performs a secret-dependent number of activations of the
/// shared row (alternating with its own conflict row to force
/// activations), then halts.
#[derive(Debug, Clone)]
pub struct CounterLeakVictim {
    shared_row: u64,
    conflict_row: u64,
    activations: u32,
    think: Span,
    i: u64,
}

impl CounterLeakVictim {
    /// A victim performing `activations` activations of the shared row.
    pub fn new(
        shared_row: u64,
        conflict_row: u64,
        activations: u32,
        think: Span,
    ) -> CounterLeakVictim {
        CounterLeakVictim {
            shared_row,
            conflict_row,
            activations,
            think,
            i: 0,
        }
    }
}

impl Process for CounterLeakVictim {
    fn step(&mut self, _now: Time) -> ProcessStep {
        if self.i >= self.activations as u64 * 2 {
            return ProcessStep::Halt;
        }
        let addr = if self.i.is_multiple_of(2) {
            self.shared_row
        } else {
            self.conflict_row
        };
        self.i += 1;
        ProcessStep::Access(MemAccess::flushed_load(addr, self.think))
    }

    fn label(&self) -> String {
        format!("victim[{} acts]", self.activations)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attacker_counts_until_backoff() {
        let mut a = CounterLeakAttacker::new(
            0x0,
            0x40_000,
            Span::from_ns(30),
            Span::from_ns(1_000),
            Time::ZERO,
        );
        let mut t = Time::ZERO;
        // 10 normal-latency iterations, then a back-off latency.
        for _ in 0..10 {
            assert!(matches!(a.step(t), ProcessStep::Access(_)));
            t += Span::from_ns(130);
        }
        t += Span::from_ns(1_500);
        assert_eq!(a.step(t), ProcessStep::Halt);
        let r = a.result().unwrap();
        assert_eq!(r.own_activations, 5, "half the accesses hit the shared row");
        assert_eq!(r.estimate_victim(128), 124, "tABO_ACT-calibrated estimate");
        assert!(r.throughput_bps(128) > 0.0);
    }

    #[test]
    fn victim_performs_exactly_n_shared_activations() {
        let mut v = CounterLeakVictim::new(0x0, 0x40_000, 3, Span::from_ns(30));
        let mut shared = 0;
        let mut t = Time::ZERO;
        loop {
            match v.step(t) {
                ProcessStep::Access(a) => {
                    if a.addr == 0x0 {
                        shared += 1;
                    }
                }
                ProcessStep::Halt => break,
                other => panic!("{other:?}"),
            }
            t += Span::from_ns(100);
        }
        assert_eq!(shared, 3);
    }

    #[test]
    fn throughput_matches_paper_ballpark() {
        // 7 bits in 13.6 µs ≈ 515 Kbps.
        let r = CounterLeakResult {
            own_activations: 60,
            elapsed: Span::from_ns(13_600),
        };
        let bps = r.throughput_bps(128);
        assert!((400_000.0..600_000.0).contains(&bps), "throughput {bps}");
    }
}
