//! Experiment scale knobs.
//!
//! Every experiment's grid and sample sizes come from a [`Scale`], so
//! unit tests and CI stay fast while `--scale paper` runs reproduce the
//! paper's sample sizes. The CLI parses the harness's mirror,
//! [`lh_harness::ScaleLevel`]; [`crate::registry::scale_of`] converts.

/// How much work an experiment performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Seconds-scale smoke runs (CI, tests).
    Quick,
    /// Minutes-scale runs with the paper's qualitative shape.
    Default,
    /// The paper's full sample sizes: on 2 vCPUs, a cold `all --jobs 2`
    /// takes ≈ 5 min, fig13 ≈ 2.6 min of it.
    Paper,
}

impl Scale {
    /// Message length in bits for covert-channel experiments
    /// (the paper transmits 100-byte messages → 800 bits).
    pub(crate) fn message_bits(&self) -> usize {
        match self {
            Scale::Quick => 48,
            Scale::Default => 200,
            Scale::Paper => 800,
        }
    }

    /// Noise-intensity sample points for the sweep figures.
    pub(crate) fn noise_points(&self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![1.0, 50.0, 100.0],
            _ => lh_analysis::paper_sweep(),
        }
    }

    /// (websites, traces per website) for the fingerprinting study
    /// (paper: 40 × 50).
    pub(crate) fn fingerprint_shape(&self) -> (usize, usize) {
        match self {
            Scale::Quick => (4, 6),
            Scale::Default => (10, 12),
            Scale::Paper => (40, 50),
        }
    }

    /// Website load duration in microseconds (the paper keeps each site
    /// open for 20 s; the synthetic profiles compress the same phase
    /// structure into a shorter span).
    pub(crate) fn load_span_us(&self) -> u64 {
        match self {
            Scale::Quick => 150,
            Scale::Default => 400,
            Scale::Paper => 1_000,
        }
    }

    /// Number of four-core mixes for the Fig. 13 study (paper: 60).
    pub fn mixes(&self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Default => 8,
            Scale::Paper => 60,
        }
    }

    /// Per-core measurement span in microseconds for Fig. 13.
    pub(crate) fn perf_span_us(&self) -> u64 {
        match self {
            Scale::Quick => 150,
            Scale::Default => 400,
            Scale::Paper => 2_000,
        }
    }

    /// Payload bits per link-layer channel-sweep transmission.
    pub(crate) fn link_payload_bits(&self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Default => 64,
            Scale::Paper => 256,
        }
    }

    /// Noise-intensity grid for the link-layer channel sweep (0 = the
    /// quiet baseline cell).
    pub(crate) fn link_noise_points(&self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![0.0, 50.0],
            Scale::Default => vec![0.0, 25.0, 50.0, 100.0],
            Scale::Paper => vec![0.0, 10.0, 25.0, 50.0, 75.0, 100.0],
        }
    }

    /// Calibration repetitions per symbol level for the link sweep's
    /// per-defense baseline units.
    pub(crate) fn link_calibration_reps(&self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Default => 6,
            Scale::Paper => 8,
        }
    }

    /// Counter-leak trials (§9.1).
    pub(crate) fn leak_trials(&self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Default => 16,
            Scale::Paper => 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_by_cost() {
        assert!(Scale::Quick.message_bits() < Scale::Default.message_bits());
        assert!(Scale::Default.message_bits() < Scale::Paper.message_bits());
        assert_eq!(Scale::Paper.message_bits(), 800);
        assert_eq!(Scale::Paper.fingerprint_shape(), (40, 50));
        assert_eq!(Scale::Paper.mixes(), 60);
    }
}
