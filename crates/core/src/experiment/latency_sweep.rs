//! Preventive-action latency sweep (Fig. 12, §10.2).
//!
//! Sweeps the back-off latency (modeled as a single RFM of configurable
//! `tRFM`) from near zero to 250 ns and measures the channel: the paper
//! finds the timing channel survives down to ~10 ns — far below the
//! 96–192 ns a refresh-based preventive action physically needs.

use lh_analysis::{ChannelResult, MessagePattern};
use lh_dram::Span;
use lh_link::ATTACK_THINK;

use crate::experiment::covert::{run_patterns, ChannelKind};

/// Minimum refresh-based preventive action latencies the paper marks
/// (blast radius 1 and 2): 96 ns and 192 ns.
pub const MIN_REFRESH_ACTION_NS: [u64; 2] = [96, 192];

/// One Fig. 12 sweep point: the channel at a back-off latency of `lat` ns.
pub fn latency_sweep_point(lat: u64, bits_per_pattern: usize, seed: u64) -> ChannelResult {
    run_patterns(
        &ChannelKind::Prac.defense(),
        &MessagePattern::paper_set(),
        bits_per_pattern,
        |i, opts| {
            opts.link.sim.seed = seed ^ (i << 9) ^ lat;
            // Single-RFM back-off with tRFM = the swept action latency.
            opts.link.sim.device.timing.t_rfm = Span::from_ns(lat.max(1));
            if let Some(prac) = opts.link.sim.defense.prac_mut() {
                prac.rfms_per_backoff = 1;
            }
            // Detection: anything above the contended-conflict ceiling
            // (the receiver may wait behind one sender request) and below
            // the doubled periodic-refresh latency counts as the
            // preventive action. The ceiling is wider than the paper's
            // ~10 ns resolution because our synthetic loop has queueing
            // variance, and it costs the paper's shape: recorded reading
            // e = 0.5 at ≤ 75 ns at every scale, where the paper's channel
            // survives to ≈ 10 ns (open in the ROADMAP's fidelity ledger).
            let t = &opts.link.sim.device.timing;
            opts.link.tuning.detect =
                ATTACK_THINK + (t.read_latency() + t.t_rp + t.t_rcd) * 2 + Span::from_ns(40);
            opts.link.tuning.detect_max = ATTACK_THINK + t.t_rfc * 2 - Span::from_ns(20);
        },
    )
}

/// The default sweep grid of Fig. 12 (0–250 ns).
pub fn paper_grid() -> Vec<u64> {
    vec![5, 10, 25, 50, 75, 100, 150, 200, 250]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_actions_keep_the_channel_and_tiny_ones_kill_it() {
        let tiny = latency_sweep_point(5, 10, 4);
        let long = latency_sweep_point(150, 10, 4);
        assert!(
            long.capacity_kbps() > 15.0,
            "150 ns action must sustain the channel, got {} Kbps",
            long.capacity_kbps()
        );
        assert!(
            tiny.capacity_kbps() < long.capacity_kbps() / 2.0,
            "5 ns action must collapse capacity: tiny {} vs long {}",
            tiny.capacity_kbps(),
            long.capacity_kbps()
        );
    }

    #[test]
    fn even_minimum_refresh_latency_leaks() {
        // Fig. 12's headline: the minimum refresh-based action (96 ns,
        // blast radius 1) still yields an exploitable channel.
        let p = latency_sweep_point(MIN_REFRESH_ACTION_NS[0], 10, 5);
        assert!(
            p.error_probability() < 0.2,
            "96 ns action must be detectable, e={}",
            p.error_probability()
        );
    }

    #[test]
    fn grid_covers_the_paper_range() {
        let g = paper_grid();
        assert!(*g.first().unwrap() <= 10);
        assert_eq!(*g.last().unwrap(), 250);
    }
}
