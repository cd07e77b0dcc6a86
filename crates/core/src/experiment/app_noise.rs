//! Application-induced interference: Figs. 5 and 8.
//!
//! Runs each covert channel concurrently with SPEC-like co-runners of
//! increasing memory intensity (L/M/H RBMPKI) and reports error
//! probability and capacity per intensity level.

use lh_workloads::{AppProfile, Intensity};

use crate::experiment::covert::{run_patterns, ChannelKind};

/// One interference level's measurement.
#[derive(Debug, Clone)]
pub struct AppNoisePoint {
    /// Interference category.
    pub intensity: Intensity,
    /// Error probability.
    pub error_probability: f64,
    /// Capacity in Kbps.
    pub capacity_kbps: f64,
}

/// One interference level of the Fig. 5 / Fig. 8 study.
pub fn app_noise_point(
    kind: ChannelKind,
    intensity: Intensity,
    bits_per_pattern: usize,
    seed: u64,
) -> AppNoisePoint {
    let merged = run_patterns(kind, bits_per_pattern, |i, opts| {
        opts.co_runners = vec![AppProfile::category(intensity)];
        opts.seed = seed ^ (i << 4);
    });
    AppNoisePoint {
        intensity,
        error_probability: merged.error_probability(),
        capacity_kbps: merged.capacity_kbps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_interference_reduces_but_does_not_kill_the_prac_channel() {
        for intensity in [Intensity::Low, Intensity::Medium, Intensity::High] {
            let p = app_noise_point(ChannelKind::Prac, intensity, 12, 3);
            // Fig. 5: even at high intensity the channel keeps most of
            // its capacity (paper: 31.2 of 39 Kbps at H).
            assert!(
                p.capacity_kbps > 15.0,
                "{:?}: capacity {} too low",
                p.intensity,
                p.capacity_kbps
            );
            assert!(
                p.error_probability < 0.25,
                "{:?}: error {}",
                p.intensity,
                p.error_probability
            );
        }
    }
}
