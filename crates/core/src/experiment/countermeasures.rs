//! Countermeasure evaluation (§11.4): how much channel capacity each
//! countermeasure removes relative to plain PRAC.
//!
//! The paper reports FR-RFM eliminating the channel (100 % reduction)
//! and RIAC reducing it by ≈86 % on average. Since the `lh-mitigate`
//! wrappers landed, the study runs *arms* rather than bare defenses:
//! each arm deploys a defense plus a (possibly empty) countermeasure
//! wrapper stack, flowing through the same
//! [`SimConfig::mitigations`](lh_sim::SimConfig) plumbing the
//! `mitsweep` Pareto matrix uses — the figure path and the sweep share
//! one mitigation implementation.
//!
//! Every arm is attacked with the lightest Figs. 5 / 8 co-runner
//! (`Intensity::Low`) beside the sender and receiver. RIAC randomises
//! the phase of *every* row's counter, so what it costs the channel is
//! the other traffic's activations turning into back-offs at times no
//! one can predict. A quiet channel has no such traffic. And the
//! attacker loses nothing to its own rows' random start: the sender
//! hammers until it sees the back-off, and a random start only brings
//! the back-off earlier. Quiet, RIAC cuts 7–15 % (0 % at some seeds);
//! beside the co-runner, 74–88 % from quick to paper scale, where the
//! paper reports ≈86 %. The paper's exact §11.4 traffic is not stated
//! in this repository; the co-runner is this study's assumption.

use lh_analysis::{ChannelResult, MessagePattern};
use lh_defenses::DefenseConfig;
use lh_dram::DramTiming;
use lh_mitigate::{MitigationConfig, MitigationKind};
use lh_workloads::{AppProfile, Intensity};

use crate::experiment::covert::{run_patterns, ChannelKind};

/// One arm of the §11.4 study: a deployed defense plus the
/// countermeasure wrappers stacked over it (empty = the bare defense).
#[derive(Debug, Clone)]
pub struct MitigationArm {
    /// Report label (`"PRAC"`, `"PRAC+shaper"`, …).
    pub label: String,
    /// The underlying defense engine.
    pub defense: DefenseConfig,
    /// Wrapper stack deployed over it, innermost first.
    pub mitigations: Vec<MitigationConfig>,
}

impl MitigationArm {
    /// A bare-defense arm, labeled with the defense's paper name.
    pub fn bare(defense: DefenseConfig) -> MitigationArm {
        MitigationArm {
            label: defense.kind().label().to_owned(),
            defense,
            mitigations: Vec::new(),
        }
    }

    /// A wrapped arm: `defense` with a single wrapper provisioned for
    /// its `N_RH`, labeled `"{defense}+{wrapper}"`.
    pub fn wrapped(defense: DefenseConfig, kind: MitigationKind, nrh: u32) -> MitigationArm {
        let t = DramTiming::ddr5_4800();
        let cfg = MitigationConfig::for_threshold(kind, nrh, &t);
        MitigationArm {
            label: format!("{}+{}", defense.kind().label(), cfg.label()),
            defense,
            mitigations: vec![cfg],
        }
    }
}

/// The PRAC-style attack against one arm (the baseline-relative
/// reduction is [`reduction_pct`] over the per-arm capacities), with
/// the lightest Figs. 5 / 8 co-runner beside the sender and receiver
/// (see the module docs). The attacker keeps its PRAC tuning whatever
/// the arm's defense.
pub fn attack_capacity(arm: &MitigationArm, bits_per_pattern: usize, seed: u64) -> ChannelResult {
    run_patterns(
        &ChannelKind::Prac.defense(),
        &MessagePattern::paper_set(),
        bits_per_pattern,
        |i, opts| {
            opts.link.sim.defense = arm.defense.clone();
            opts.link.sim.mitigations = arm.mitigations.clone();
            opts.link.sim.seed = seed ^ (i << 3);
            opts.link.co_runners = vec![AppProfile::category(Intensity::Low)];
        },
    )
}

/// The §11.4 arms, in report order: the paper's three defense
/// configurations (PRAC baseline, FR-RFM, PRAC-RIAC) bare, then the
/// strongest wrapper arms over the PRAC baseline — the constant-rate
/// shaper and the isolation quota, the two mitigations the `mitsweep`
/// Pareto frontier keeps.
pub fn mitigation_arms() -> Vec<MitigationArm> {
    let t = DramTiming::ddr5_4800();
    vec![
        MitigationArm::bare(DefenseConfig::prac(128)),
        MitigationArm::bare(DefenseConfig::fr_rfm(64, t.t_rc)),
        MitigationArm::bare(DefenseConfig::riac(128)),
        MitigationArm::wrapped(
            DefenseConfig::prac(128),
            MitigationKind::ConstantRateShaper,
            128,
        ),
        MitigationArm::wrapped(
            DefenseConfig::prac(128),
            MitigationKind::IsolationQuota,
            128,
        ),
    ]
}

/// Capacity reduction (percent) of an arm measuring `capacity_kbps`
/// against the plain-PRAC `baseline_kbps`: never negative (a wrapper
/// that widens the channel reads 0 %), and 0 % when the baseline itself
/// carries nothing.
pub fn reduction_pct(baseline_kbps: f64, capacity_kbps: f64) -> f64 {
    if baseline_kbps > 0.0 {
        ((baseline_kbps - capacity_kbps) / baseline_kbps * 100.0).max(0.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacity of each arm at the quick message budget, every arm on
    /// seed 13.
    fn capacities(arms: &[MitigationArm]) -> Vec<f64> {
        arms.iter()
            .map(|a| attack_capacity(a, 12, 13).capacity_kbps())
            .collect()
    }

    #[test]
    fn fr_rfm_eliminates_and_riac_degrades() {
        let arms = mitigation_arms();
        assert_eq!(arms[1].label, "FR-RFM");
        assert_eq!(arms[2].label, "PRAC-RIAC");
        let caps = capacities(&arms[..3]);
        assert!(caps[0] > 20.0, "baseline capacity {}", caps[0]);
        let frrfm = reduction_pct(caps[0], caps[1]);
        assert!(
            frrfm > 95.0,
            "FR-RFM must (nearly) eliminate the channel, reduction {frrfm}%"
        );
        let riac = reduction_pct(caps[0], caps[2]);
        assert!(
            riac > 20.0,
            "RIAC must reduce capacity substantially, reduction {riac}%"
        );
        assert!(
            riac < frrfm + 1.0,
            "RIAC reduces less than FR-RFM eliminates ({riac}% vs {frrfm}%)"
        );
    }

    #[test]
    fn arms_share_the_sweep_mitigation_plumbing() {
        let arms = mitigation_arms();
        assert_eq!(arms[0].label, "PRAC");
        assert!(arms[0].mitigations.is_empty(), "the baseline is bare");
        let labels: Vec<&str> = arms.iter().map(|a| a.label.as_str()).collect();
        assert!(labels.contains(&"PRAC+shaper"));
        assert!(labels.contains(&"PRAC+quota"));
        for arm in &arms[3..] {
            assert_eq!(
                arm.mitigations.len(),
                1,
                "{} is a single wrapper",
                arm.label
            );
        }
    }

    #[test]
    fn wrapper_arms_do_not_widen_the_channel() {
        // The wrapped arms ride the same wire as the bare ones; the shaper's
        // constant RFM stream must cost the PRAC channel capacity, and
        // no wrapper may make the channel *faster* than bare PRAC.
        let arms = mitigation_arms();
        let caps = capacities(&arms);
        let baseline = caps[0];
        let shaper = arms
            .iter()
            .position(|a| a.label == "PRAC+shaper")
            .expect("shaper arm");
        let shaper_cut = reduction_pct(baseline, caps[shaper]);
        assert!(
            shaper_cut > 20.0,
            "the shaper must cost the PRAC channel real capacity, got {shaper_cut}%"
        );
        for (arm, cap) in arms.iter().zip(&caps) {
            assert!(
                *cap <= baseline + 1e-9,
                "{} widened the channel ({cap} > {baseline} Kbps)",
                arm.label
            );
        }
    }
}
