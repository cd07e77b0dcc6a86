//! Application-induced interference: Figs. 5 and 8.
//!
//! Runs each covert channel concurrently with SPEC-like co-runners of
//! increasing memory intensity (L/M/H RBMPKI) and reports error
//! probability and capacity per intensity level.

use lh_analysis::{ChannelResult, MessagePattern};
use lh_workloads::{AppProfile, Intensity};

use crate::experiment::covert::{run_patterns, ChannelKind};

/// One interference level of the Fig. 5 / Fig. 8 study.
pub(crate) fn app_noise_point(
    kind: ChannelKind,
    intensity: Intensity,
    bits_per_pattern: usize,
    seed: u64,
) -> ChannelResult {
    run_patterns(
        &kind.defense(),
        &MessagePattern::paper_set(),
        bits_per_pattern,
        |i, opts| {
            opts.link.co_runners = vec![AppProfile::category(intensity)];
            opts.link.sim.seed = seed ^ (i << 4);
        },
    )
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
                p.capacity_kbps() > 15.0,
                "{:?}: capacity {} too low",
                intensity,
                p.capacity_kbps()
            );
            assert!(
                p.error_probability() < 0.25,
                "{:?}: error {}",
                intensity,
                p.error_probability()
            );
        }
    }
}
