//! Quantitative §12 taxonomy: realized covert-channel capacity against
//! every trigger-algorithm class.
//!
//! §12 of the paper argues *qualitatively* which RowHammer defense classes
//! introduce LeakyHammer channels: exact trackers yield a reliable
//! channel, approximate trackers a noisy one, random/time-based triggers
//! and overlapped-latency actions none. This experiment tests those
//! predictions *experimentally*: the same binary sender/receiver protocol
//! runs against one defense of each class — with the attack parameters an
//! adaptive attacker would pick per defense
//! ([`LinkTuning::for_defense`], the one §12 attacker table) — and the
//! measured capacity is compared against
//! [`lh_defenses::taxonomy::profile_of`]'s prediction.
//!
//! | Defense | Class (trigger, visibility) | Prediction |
//! |---|---|---|
//! | PRAC | exact, observable | full channel |
//! | Graphene / Hydra / CoMeT | approximate, observable | degraded |
//! | BlockHammer | approximate, observable (delay) | degraded |
//! | PARA | random, observable | degraded |
//! | FR-RFM | time-based, observable | none |
//! | MINT | random, overlapped | none |
//!
//! A *no-defense control* row measures the residual bank-contention
//! channel through the same detection band: whatever the noisy columns
//! show beyond the control is defense-induced; the rest is the
//! footnote-9 contention channel.
//!
//! ## Measured refinement of §12
//!
//! BlockHammer persistently measures ~0 despite its `Degraded`
//! prediction: its preventive action is *huge* (a multi-µs ACT delay) but
//! its decision state spans a 16 ms epoch, so one blacklisting decision
//! shadows hundreds of transmission windows — the modulation bandwidth is
//! about one bit per epoch (~0.06 Kbps), which rounds to zero at
//! covert-channel timescales. The taxonomy's "approximate triggers only
//! add noise" is right about observability but misses this *temporal*
//! dimension; the report keeps the disagreement visible on purpose.

use lh_analysis::{ChannelResult, MessagePattern};
use lh_defenses::taxonomy::ChannelRisk;
use lh_defenses::{DefenseConfig, DefenseKind};
use lh_dram::DramTiming;

use crate::experiment::covert::run_patterns;
use crate::Scale;

/// The RowHammer threshold every taxonomy defense is provisioned for.
///
/// 256 puts the PRAC-family back-off threshold at its paper value region
/// (`scaled_nbo(256)` = 120 ≈ the assumed `NBO` = 128) so event cadences
/// are comparable across defenses.
pub const TAXONOMY_NRH: u32 = 256;

/// One taxonomy measurement.
#[derive(Debug, Clone, Copy)]
pub struct TaxonomyPoint {
    /// Measured capacity with only the attack pair running (Kbps).
    pub quiet_kbps: f64,
    /// Measured capacity with the §6.3 noise microbenchmark at 40 %
    /// intensity co-running (Kbps) — approximate trackers share state
    /// with the noise and degrade more than exact trackers.
    pub noisy_kbps: f64,
}

impl TaxonomyPoint {
    /// Whether the measurement agrees with `predicted`, the §12
    /// prediction for the defense attacked (`None` for the no-defense
    /// control row, which measures the residual contention channel and
    /// always agrees): a `None`-risk defense must measure under 1 Kbps,
    /// a `Full`-risk defense at least 10 Kbps, a `Degraded`-risk
    /// defense a usable-but-noisy channel (≥ 0.1 Kbps). Only the
    /// *quiet* condition counts: under heavy noise the generic
    /// detection band also picks up bank-contention latencies, a
    /// channel that exists without any defense (the control row) and is
    /// out of scope (footnote 9 of the paper).
    pub fn agrees(&self, predicted: Option<ChannelRisk>) -> bool {
        match predicted {
            None => true,
            Some(ChannelRisk::None) => self.quiet_kbps < 1.0,
            Some(ChannelRisk::Degraded) => self.quiet_kbps >= 0.1,
            Some(ChannelRisk::Full) => self.quiet_kbps >= 10.0,
        }
    }
}

/// `kind` provisioned for [`TAXONOMY_NRH`].
fn taxonomy_defense(kind: DefenseKind) -> DefenseConfig {
    DefenseConfig::for_threshold(kind, TAXONOMY_NRH, &DramTiming::ddr5_4800())
}

/// The two checkered patterns sent against `kind`: the paper's
/// sender/receiver pair on a system defended by
/// [`taxonomy_defense`], with the adaptive attacker's window, detection
/// band and `Trecv` for that class (the no-defense control row probes
/// through the same band as the classes with nothing defense-triggered
/// to see).
fn measure(
    kind: DefenseKind,
    bits_per_pattern: usize,
    noise: Option<f64>,
    seed: u64,
) -> ChannelResult {
    let checkered = [MessagePattern::Checkered0, MessagePattern::Checkered1];
    run_patterns(
        &taxonomy_defense(kind),
        &checkered,
        bits_per_pattern,
        |i, opts| {
            opts.link.sim.seed = seed ^ (i << 9);
            opts.link.noise_intensity = noise;
        },
    )
}

/// The defense classes the measured taxonomy covers, control row first.
pub fn taxonomy_kinds() -> Vec<DefenseKind> {
    let mut kinds = vec![DefenseKind::None];
    kinds.extend(DefenseKind::taxonomy_set());
    kinds
}

/// Measures one defense class, quiet and under 40 % noise.
/// `bits_per_pattern` should come from [`taxonomy_bits`] (BlockHammer
/// runs a quarter of the bits because of its 10× window).
pub fn taxonomy_point(kind: DefenseKind, bits_per_pattern: usize, seed: u64) -> TaxonomyPoint {
    let quiet = measure(kind, bits_per_pattern, None, seed);
    let noisy = measure(kind, bits_per_pattern, Some(40.0), seed ^ 0xff);
    TaxonomyPoint {
        quiet_kbps: quiet.capacity_kbps(),
        noisy_kbps: noisy.capacity_kbps(),
    }
}

/// The per-kind message budget at `scale`.
pub fn taxonomy_bits(kind: DefenseKind, scale: Scale) -> usize {
    let b = scale.message_bits() / 4;
    if kind == DefenseKind::BlockHammer {
        (b / 4).max(8)
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::covert::CovertOptions;

    #[test]
    fn none_risk_defenses_have_no_channel() {
        for kind in [DefenseKind::FrRfm, DefenseKind::Mint] {
            let r = measure(kind, 12, None, 3);
            assert!(
                r.capacity_kbps() < 1.0,
                "{kind}: predicted None but measured {:.1} Kbps",
                r.capacity_kbps()
            );
        }
    }

    #[test]
    fn exact_tracker_has_a_full_channel() {
        let r = measure(DefenseKind::Prac, 16, None, 3);
        assert!(
            r.capacity_kbps() > 10.0,
            "PRAC predicted Full but measured {:.1} Kbps",
            r.capacity_kbps()
        );
    }

    #[test]
    fn approximate_trackers_leak_but_degrade() {
        for kind in [DefenseKind::Graphene, DefenseKind::Comet] {
            let quiet = measure(kind, 16, None, 5);
            assert!(
                quiet.capacity_kbps() > 0.1,
                "{kind}: the §12 channel must exist, measured {:.2} Kbps",
                quiet.capacity_kbps()
            );
        }
    }

    #[test]
    fn options_cover_every_taxonomy_kind() {
        for kind in DefenseKind::taxonomy_set() {
            let opts = CovertOptions::against(taxonomy_defense(kind), vec![1, 0]);
            assert_eq!(opts.link.sim.defense.kind(), kind);
            assert!(opts.link.tuning.window >= lh_dram::Span::from_us(20));
        }
    }
}
