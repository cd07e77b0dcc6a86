//! Figure 2 and the §6.2 / §7.2 latency observations.
//!
//! Runs the Listing-1 measurement routine (a flush+load loop over two
//! conflicting rows) against a defended system and reports the latency
//! trace plus per-band statistics.

use lh_attacks::{ChannelLayout, LatencyClass, LatencyClassifier};
use lh_defenses::DefenseConfig;
use lh_dram::{Span, Time};
use lh_sim::{LatencySample, LoopProcess, SimConfig, SystemBuilder};

/// Outcome of a latency-trace run.
#[derive(Debug, Clone)]
pub struct LatencyTraceOutcome {
    /// Per-iteration samples, in order (the Fig. 2 series).
    pub samples: Vec<LatencySample>,
    /// The classifier bands used.
    pub classifier: LatencyClassifier,
    /// Mean latency (ns) per class, where observed.
    pub(crate) mean_ns: Vec<(LatencyClass, f64, usize)>,
    /// Requests per observed back-off (§6.2 reports ≈255 at `NBO`=128).
    pub requests_per_backoff: Option<f64>,
    /// Requests per observed RFM (§7.2 reports ≈41.8 at `TRFM`=40).
    pub requests_per_rfm: Option<f64>,
}

impl LatencyTraceOutcome {
    /// Mean latency of one class, if observed.
    fn class_mean_ns(&self, class: LatencyClass) -> Option<f64> {
        self.mean_ns
            .iter()
            .find(|(c, _, _)| *c == class)
            .map(|&(_, m, _)| m)
    }

    /// The §6.2 headline: back-off latency relative to the next-highest
    /// event (periodic refresh). The paper reports ≈1.9×.
    pub fn backoff_over_refresh(&self) -> Option<f64> {
        let b = self.class_mean_ns(LatencyClass::BackOff)?;
        let r = self.class_mean_ns(LatencyClass::Refresh)?;
        Some(b / r)
    }
}

/// Runs the measurement routine for `iterations` conflicting accesses
/// under `defense`.
pub fn run_latency_trace(
    defense: DefenseConfig,
    iterations: usize,
    think: Span,
) -> LatencyTraceOutcome {
    let sim = SimConfig::paper_default(defense);
    let classifier = LatencyClassifier::from_timing(&sim.device.timing, think);
    let mut sys = SystemBuilder::from_config(sim)
        .build()
        .expect("valid system configuration");
    let layout = ChannelLayout::default_bank(sys.mapping());
    let probe = LoopProcess::new(
        vec![layout.sender_rows[0], layout.sender_rows[1]],
        iterations,
        think,
    );
    let pid = sys.add_process(Box::new(probe), 1, Time::ZERO);
    // Generous horizon: ~2 µs per iteration covers many back-offs.
    sys.run_until_halted(Time::ZERO + Span::from_us(2) * iterations as u64);
    let trace = sys
        .process_as::<LoopProcess>(pid)
        .expect("probe present")
        .trace();

    let mut sums: Vec<(LatencyClass, f64, usize)> = Vec::new();
    for s in trace.samples() {
        let class = classifier.classify(s.latency);
        match sums.iter_mut().find(|(c, _, _)| *c == class) {
            Some((_, sum, n)) => {
                *sum += s.latency.as_ns();
                *n += 1;
            }
            None => sums.push((class, s.latency.as_ns(), 1)),
        }
    }
    let mean_ns: Vec<(LatencyClass, f64, usize)> = sums
        .into_iter()
        .map(|(c, sum, n)| (c, sum / n as f64, n))
        .collect();
    let count = |class: LatencyClass| {
        mean_ns
            .iter()
            .find(|(c, _, _)| *c == class)
            .map(|&(_, _, n)| n)
            .unwrap_or(0)
    };
    let backoffs = count(LatencyClass::BackOff);
    let rfms = count(LatencyClass::Rfm);
    LatencyTraceOutcome {
        samples: trace.samples().to_vec(),
        classifier,
        requests_per_backoff: (backoffs > 0).then(|| trace.len() as f64 / backoffs as f64),
        requests_per_rfm: (rfms > 0).then(|| trace.len() as f64 / rfms as f64),
        mean_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shape_prac() {
        let out = run_latency_trace(DefenseConfig::prac(128), 600, Span::from_ns(30));
        // All three Fig. 2 bands present.
        let conflict = out
            .class_mean_ns(LatencyClass::Conflict)
            .expect("conflicts observed");
        let refresh = out
            .class_mean_ns(LatencyClass::Refresh)
            .expect("refreshes observed");
        let backoff = out
            .class_mean_ns(LatencyClass::BackOff)
            .expect("back-offs observed");
        assert!(conflict < refresh && refresh < backoff);
        // §6.2: back-offs every ~255 requests at NBO=128 (two rows share
        // the activations).
        let rpb = out.requests_per_backoff.unwrap();
        assert!(
            (180.0..330.0).contains(&rpb),
            "requests per back-off {rpb}, expected ≈255"
        );
        // §6.2: back-off ≈1.9× the refresh latency.
        let ratio = out.backoff_over_refresh().unwrap();
        assert!(
            (1.4..2.6).contains(&ratio),
            "back-off/refresh ratio {ratio}"
        );
    }

    #[test]
    fn sec72_shape_prfm() {
        let out = run_latency_trace(DefenseConfig::prfm(40), 500, Span::from_ns(30));
        // RFM events every ≈41.8 accesses (TRFM=40 plus slack).
        let rpr = out.requests_per_rfm.expect("RFM events observed");
        assert!(
            (35.0..55.0).contains(&rpr),
            "requests per RFM {rpr}, expected ≈41.8"
        );
        let rfm = out.class_mean_ns(LatencyClass::Rfm).unwrap();
        let conflict = out.class_mean_ns(LatencyClass::Conflict).unwrap();
        assert!(
            rfm > conflict + 200.0,
            "RFM band {rfm} vs conflict {conflict}"
        );
    }

    #[test]
    fn no_defense_shows_no_backoffs() {
        let out = run_latency_trace(DefenseConfig::none(), 400, Span::from_ns(30));
        assert_eq!(out.class_mean_ns(LatencyClass::BackOff), None);
        assert!(out.requests_per_backoff.is_none());
    }
}
