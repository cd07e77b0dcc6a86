//! Noise-intensity sweeps: Figs. 4, 7 and 11.

use lh_analysis::{ChannelResult, MessagePattern};
use lh_attacks::LatencyClassifier;
use lh_dram::Span;
use lh_link::ATTACK_THINK;

use crate::experiment::covert::{run_patterns, ChannelKind};

/// One sweep point of the §10.1 *modified attack* for 1-RFM back-offs,
/// whose latency overlaps the periodic-refresh band: the receiver (1)
/// doubles the transmission window to capture multiple candidate events
/// and (2) — when `filtered` — removes periodic refreshes by their
/// `tREFI` cadence instead of their magnitude. With `filtered` off, the
/// same low detection threshold counts refreshes as events, which is
/// what collapses the naive 1-RFM channel.
///
/// The paper reports the filtered attack recovers 21.53 Kbps at the
/// lowest noise intensity.
pub fn overlap_1rfm_point(
    filtered: bool,
    intensity: f64,
    bits_per_pattern: usize,
    seed: u64,
) -> ChannelResult {
    run_patterns(
        &ChannelKind::Prac.defense(),
        &MessagePattern::paper_set(),
        bits_per_pattern,
        |i, opts| {
            opts.link.noise_intensity = Some(intensity);
            opts.link.sim.seed = seed ^ (i << 12) ^ (intensity as u64);
            opts.link.sim.ctrl.refresh_postpone = false;
            if let Some(prac) = opts.link.sim.defense.prac_mut() {
                prac.rfms_per_backoff = 1;
            }
            // Double window; detect anything above a conflict. Without
            // the cadence filter, periodic refreshes are miscounted as
            // events — the overlap problem the filter solves.
            let timing = &opts.link.sim.device.timing;
            let cls = LatencyClassifier::from_timing(timing, ATTACK_THINK);
            opts.link.tuning.window = opts.link.tuning.window * 2;
            opts.link.tuning.detect = cls.conflict_max + Span::from_ns(120);
            opts.link.tuning.detect_max = Span::MAX;
            opts.link.tuning.refresh_filter =
                filtered.then(|| lh_attacks::RefreshFilterConfig::from_timing(timing));
        },
    )
}

/// One noise-sweep point: the four paper message patterns at one
/// intensity, merged. Fig. 4 (PRAC) and Fig. 7 (RFM) run it with the
/// default 4 RFMs per back-off and refresh postponing on; the Fig. 11
/// panels with `rfms_per_backoff` ∈ {1, 2} on the PRAC channel and
/// postponing off (as §10.1 assumes).
pub fn sweep_point(
    kind: ChannelKind,
    rfms_per_backoff: u32,
    postpone_refresh: bool,
    intensity: f64,
    bits_per_pattern: usize,
    seed: u64,
) -> ChannelResult {
    run_patterns(
        &kind.defense(),
        &MessagePattern::paper_set(),
        bits_per_pattern,
        |i, opts| {
            opts.link.noise_intensity = Some(intensity);
            opts.link.sim.seed = seed ^ (i << 12) ^ (intensity as u64);
            opts.link.sim.ctrl.refresh_postpone = postpone_refresh;
            if let Some(prac) = opts.link.sim.defense.prac_mut() {
                prac.rfms_per_backoff = rfms_per_backoff;
            }
            if rfms_per_backoff < 4 || !postpone_refresh {
                opts.link.tuning.detect = short_backoff_floor(postpone_refresh, &opts.link.sim);
                opts.link.tuning.detect_max = Span::MAX;
            }
        },
    )
}

/// Detection floor for shortened back-offs (§10.1): the threshold sits
/// just above the highest non-back-off event, which without refresh
/// postponing is a single REF (and with 1 RFM per back-off the two
/// overlap — the §10.1 observation that degrades the channel). The band
/// is open above.
fn short_backoff_floor(postpone: bool, sim: &lh_sim::SimConfig) -> Span {
    let t = &sim.device.timing;
    let cls = LatencyClassifier::from_timing(t, ATTACK_THINK);
    let refresh_span = if postpone { t.t_rfc * 2 } else { t.t_rfc };
    cls.conflict_max + refresh_span + Span::from_ns(120)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prac_sweep_has_low_error_at_low_noise_and_high_at_max() {
        let lo = sweep_point(ChannelKind::Prac, 4, true, 1.0, 12, 2);
        let hi = sweep_point(ChannelKind::Prac, 4, true, 100.0, 12, 2);
        assert!(
            lo.error_probability() < 0.12,
            "e at 1% noise: {}",
            lo.error_probability()
        );
        assert!(
            hi.error_probability() > lo.error_probability(),
            "error must grow with noise: {} -> {}",
            lo.error_probability(),
            hi.error_probability()
        );
        assert!(lo.capacity_kbps() > 20.0);
    }

    #[test]
    fn fewer_rfms_per_backoff_hurt_reliability() {
        let four = sweep_point(ChannelKind::Prac, 4, true, 1.0, 12, 5);
        let one = sweep_point(ChannelKind::Prac, 1, false, 1.0, 12, 5);
        // §10.1: the 1-RFM back-off overlaps the refresh latency, so the
        // channel degrades relative to 4-RFM back-offs.
        assert!(
            one.capacity_kbps() < four.capacity_kbps(),
            "1-RFM capacity {} must trail 4-RFM capacity {}",
            one.capacity_kbps(),
            four.capacity_kbps()
        );
    }

    #[test]
    fn refresh_filter_recovers_the_1rfm_channel() {
        // §10.1: with the detection threshold forced below the refresh
        // band (magnitude cannot split 1-RFM back-offs from refreshes),
        // the naive receiver miscounts refreshes and the channel
        // collapses; the cadence filter recovers usable capacity.
        let n0 = overlap_1rfm_point(false, 1.0, 6, 9);
        let f0 = overlap_1rfm_point(true, 1.0, 6, 9);
        assert!(
            f0.capacity_kbps() > 2.0 * n0.capacity_kbps(),
            "filtered {:.1} Kbps must far exceed naive {:.1} Kbps at low noise",
            f0.capacity_kbps(),
            n0.capacity_kbps()
        );
        assert!(
            f0.capacity_kbps() > 5.0,
            "filtered capacity {:.1}",
            f0.capacity_kbps()
        );
    }
}
