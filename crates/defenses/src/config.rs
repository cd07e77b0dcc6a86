//! Defense configurations and RowHammer-threshold scaling.

use lh_dram::{PracConfig, Span};

use crate::trackers::{BlockHammerConfig, CometConfig, GrapheneConfig, HydraConfig};

/// The RowHammer defenses studied by the paper.
///
/// The first seven are the paper's evaluated set (§6–§11); the last five
/// instantiate the §12 trigger-algorithm taxonomy so that the taxonomy's
/// qualitative predictions can be tested quantitatively (see
/// [`crate::trackers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// No RowHammer mitigation (the Fig. 13 normalization baseline).
    None,
    /// Per Row Activation Counting with alert back-off (§6).
    Prac,
    /// Periodic RFM: controller-side per-bank activation counters (§7).
    Prfm,
    /// Fixed-Rate RFM countermeasure: RFM on a fixed time period (§11.1).
    FrRfm,
    /// PRAC with Randomly Initialized Activation Counters (§11.2).
    PracRiac,
    /// Bank-Level PRAC: per-bank back-off scope (§11.3).
    PracBank,
    /// PARA: probabilistic adjacent-row activation (Kim et al., ISCA'14);
    /// included for the §12 qualitative analysis.
    Para,
    /// Graphene-style Misra-Gries frequent-item tracker (§12,
    /// approximate/observable).
    Graphene,
    /// Hydra-style hybrid group/row tracker (§12, approximate/observable).
    Hydra,
    /// CoMeT-style count-min-sketch tracker (§12, approximate/observable).
    Comet,
    /// MINT-style in-REF preventive refresh (§12, overlapped latency —
    /// nothing for a LeakyHammer receiver to observe).
    Mint,
    /// BlockHammer-style rate throttling (§12, approximate trigger whose
    /// preventive action is a *delay* rather than a refresh).
    BlockHammer,
}

impl DefenseKind {
    /// Every registered defense, including the no-defense control — the
    /// axis the link-layer channel sweep runs over.
    pub fn all() -> [DefenseKind; 12] {
        [
            DefenseKind::None,
            DefenseKind::Prac,
            DefenseKind::Prfm,
            DefenseKind::FrRfm,
            DefenseKind::PracRiac,
            DefenseKind::PracBank,
            DefenseKind::Para,
            DefenseKind::Graphene,
            DefenseKind::Hydra,
            DefenseKind::Comet,
            DefenseKind::Mint,
            DefenseKind::BlockHammer,
        ]
    }

    /// Position of `self` in [`DefenseKind::all`]. The exhaustive match
    /// ties the list to the enum: a new variant fails `cargo test`
    /// compilation here until it is given a slot, and the
    /// `all_is_exhaustive` test then forces the slot to agree with the
    /// array.
    #[cfg(test)]
    fn ordinal(self) -> usize {
        match self {
            DefenseKind::None => 0,
            DefenseKind::Prac => 1,
            DefenseKind::Prfm => 2,
            DefenseKind::FrRfm => 3,
            DefenseKind::PracRiac => 4,
            DefenseKind::PracBank => 5,
            DefenseKind::Para => 6,
            DefenseKind::Graphene => 7,
            DefenseKind::Hydra => 8,
            DefenseKind::Comet => 9,
            DefenseKind::Mint => 10,
            DefenseKind::BlockHammer => 11,
        }
    }

    /// All defenses evaluated in Fig. 13 (excludes `None` and `Para`).
    pub fn figure13_set() -> [DefenseKind; 5] {
        [
            DefenseKind::Prac,
            DefenseKind::Prfm,
            DefenseKind::PracRiac,
            DefenseKind::FrRfm,
            DefenseKind::PracBank,
        ]
    }

    /// All defenses exercised by the §12 taxonomy experiment: one exact
    /// tracker, the three approximate trackers, the random trigger, the
    /// time-based trigger and the overlapped-latency design.
    pub fn taxonomy_set() -> [DefenseKind; 8] {
        [
            DefenseKind::Prac,
            DefenseKind::Graphene,
            DefenseKind::Hydra,
            DefenseKind::Comet,
            DefenseKind::BlockHammer,
            DefenseKind::Para,
            DefenseKind::FrRfm,
            DefenseKind::Mint,
        ]
    }

    /// Display name used in reports (matches the paper's labels).
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKind::None => "None",
            DefenseKind::Prac => "PRAC",
            DefenseKind::Prfm => "PRFM",
            DefenseKind::FrRfm => "FR-RFM",
            DefenseKind::PracRiac => "PRAC-RIAC",
            DefenseKind::PracBank => "PRAC-Bank",
            DefenseKind::Para => "PARA",
            DefenseKind::Graphene => "Graphene",
            DefenseKind::Hydra => "Hydra",
            DefenseKind::Comet => "CoMeT",
            DefenseKind::Mint => "MINT",
            DefenseKind::BlockHammer => "BlockHammer",
        }
    }
}

impl core::fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fully parameterized defense configuration: one variant per
/// [`DefenseKind`], carrying exactly that kind's parameters.
///
/// # Examples
///
/// ```
/// use lh_defenses::{DefenseConfig, DefenseKind};
/// use lh_dram::DramTiming;
///
/// let t = DramTiming::ddr5_4800();
/// let cfg = DefenseConfig::for_threshold(DefenseKind::FrRfm, 1024, &t);
/// assert_eq!(cfg.kind(), DefenseKind::FrRfm);
/// assert_eq!(cfg, DefenseConfig::FrRfm { period: t.t_rc * 64 });
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum DefenseConfig {
    /// No mitigation.
    None,
    /// PRAC with the device-side configuration to build the DRAM with.
    Prac(PracConfig),
    /// Periodic RFM.
    Prfm {
        /// Bank activation threshold `TRFM`: an RFM is issued once a
        /// bank accumulates this many activations. The paper's case
        /// study uses 40.
        trfm: u32,
    },
    /// Fixed-Rate RFM.
    FrRfm {
        /// Fixed period between RFM commands per rank.
        period: Span,
    },
    /// PRAC with randomly initialized activation counters.
    PracRiac(PracConfig),
    /// Bank-level PRAC.
    PracBank(PracConfig),
    /// PARA.
    Para {
        /// Probability of refreshing a neighbor on each activation.
        probability: f64,
    },
    /// Graphene tracker (§12 taxonomy).
    Graphene(GrapheneConfig),
    /// Hydra tracker (§12 taxonomy).
    Hydra(HydraConfig),
    /// CoMeT sketch (§12 taxonomy).
    Comet(CometConfig),
    /// MINT in-REF mitigation (§12 taxonomy). Its reservoir draws come
    /// from the system seed [`crate::build_defense`] is given, like
    /// PARA's.
    Mint,
    /// BlockHammer throttling (§12 taxonomy).
    BlockHammer(BlockHammerConfig),
}

impl DefenseConfig {
    /// No mitigation.
    pub fn none() -> DefenseConfig {
        DefenseConfig::None
    }

    /// PRAC with an explicit back-off threshold (the paper's case studies
    /// use `nbo` = 128).
    pub fn prac(nbo: u32) -> DefenseConfig {
        DefenseConfig::Prac(PracConfig {
            nbo,
            ..PracConfig::paper_default()
        })
    }

    /// PRFM with an explicit bank activation threshold.
    pub fn prfm(trfm: u32) -> DefenseConfig {
        DefenseConfig::Prfm { trfm }
    }

    /// FR-RFM derived from a `TRFM` threshold and `tRC` (see
    /// [`fr_rfm_period`]).
    pub fn fr_rfm(trfm: u32, t_rc: Span) -> DefenseConfig {
        DefenseConfig::FrRfm {
            period: fr_rfm_period(trfm, t_rc),
        }
    }

    /// PRAC-RIAC with an explicit back-off threshold.
    pub fn riac(nbo: u32) -> DefenseConfig {
        DefenseConfig::PracRiac(PracConfig::riac(nbo))
    }

    /// Bank-Level PRAC with an explicit back-off threshold.
    pub fn prac_bank(nbo: u32) -> DefenseConfig {
        DefenseConfig::PracBank(PracConfig::bank_level(nbo))
    }

    /// PARA with refresh probability `p`.
    pub fn para(probability: f64) -> DefenseConfig {
        DefenseConfig::Para { probability }
    }

    /// Graphene-style tracker provisioned for `nrh` (§12 taxonomy).
    pub fn graphene(nrh: u32, timing: &lh_dram::DramTiming) -> DefenseConfig {
        DefenseConfig::Graphene(GrapheneConfig::for_threshold(
            nrh,
            timing.t_rc,
            timing.t_refw,
        ))
    }

    /// Hydra-style tracker provisioned for `nrh` (§12 taxonomy).
    pub(crate) fn hydra(nrh: u32, timing: &lh_dram::DramTiming) -> DefenseConfig {
        DefenseConfig::Hydra(HydraConfig::for_threshold(nrh, timing.t_refw))
    }

    /// CoMeT-style sketch provisioned for `nrh` (§12 taxonomy).
    pub(crate) fn comet(nrh: u32, timing: &lh_dram::DramTiming, seed: u64) -> DefenseConfig {
        DefenseConfig::Comet(CometConfig::for_threshold(
            nrh,
            timing.t_rc,
            timing.t_refw,
            seed,
        ))
    }

    /// MINT-style in-REF mitigation (§12 taxonomy). Secure only for high
    /// `nrh` (its preventive capacity is one aggressor per `tREFI`); kept
    /// at face value here because the taxonomy experiment studies its
    /// *timing channel*, not its protection envelope.
    pub(crate) fn mint() -> DefenseConfig {
        DefenseConfig::Mint
    }

    /// BlockHammer-style throttling provisioned for `nrh` (§12 taxonomy).
    pub(crate) fn blockhammer(nrh: u32, timing: &lh_dram::DramTiming, seed: u64) -> DefenseConfig {
        DefenseConfig::BlockHammer(BlockHammerConfig::for_threshold(
            nrh,
            timing.t_rc,
            timing.t_refw,
            seed,
        ))
    }

    /// Provisions `kind` for RowHammer threshold `nrh`, using these
    /// scaling rules:
    ///
    /// * PRAC-family: `NBO = min(128, max(1, nrh / 2))` — 128 matches the
    ///   paper's fixed assumption for `nrh ≥ 256`, and halving leaves
    ///   slack for in-flight activations below that.
    /// * PRFM / FR-RFM: `TRFM = max(2, nrh / 16)`, which lands on the
    ///   standard's 32–80 range at `nrh` = 1024 and shrinks proportionally.
    /// * PARA: `p = min(1, 8 / nrh)`.
    pub fn for_threshold(
        kind: DefenseKind,
        nrh: u32,
        timing: &lh_dram::DramTiming,
    ) -> DefenseConfig {
        let nbo = scaled_nbo(nrh);
        let trfm = scaled_trfm(nrh);
        match kind {
            DefenseKind::None => DefenseConfig::none(),
            DefenseKind::Prac => DefenseConfig::prac(nbo),
            DefenseKind::Prfm => DefenseConfig::prfm(trfm),
            DefenseKind::FrRfm => DefenseConfig::fr_rfm(trfm, timing.t_rc),
            DefenseKind::PracRiac => DefenseConfig::riac(nbo),
            DefenseKind::PracBank => DefenseConfig::prac_bank(nbo),
            DefenseKind::Para => DefenseConfig::para((8.0 / nrh as f64).min(1.0)),
            DefenseKind::Graphene => DefenseConfig::graphene(nrh, timing),
            DefenseKind::Hydra => DefenseConfig::hydra(nrh, timing),
            DefenseKind::Comet => DefenseConfig::comet(nrh, timing, 0xc0fe),
            DefenseKind::Mint => DefenseConfig::mint(),
            DefenseKind::BlockHammer => DefenseConfig::blockhammer(nrh, timing, 0xb10c),
        }
    }

    /// Which defense this is.
    pub fn kind(&self) -> DefenseKind {
        match self {
            DefenseConfig::None => DefenseKind::None,
            DefenseConfig::Prac(_) => DefenseKind::Prac,
            DefenseConfig::Prfm { .. } => DefenseKind::Prfm,
            DefenseConfig::FrRfm { .. } => DefenseKind::FrRfm,
            DefenseConfig::PracRiac(_) => DefenseKind::PracRiac,
            DefenseConfig::PracBank(_) => DefenseKind::PracBank,
            DefenseConfig::Para { .. } => DefenseKind::Para,
            DefenseConfig::Graphene(_) => DefenseKind::Graphene,
            DefenseConfig::Hydra(_) => DefenseKind::Hydra,
            DefenseConfig::Comet(_) => DefenseKind::Comet,
            DefenseConfig::Mint => DefenseKind::Mint,
            DefenseConfig::BlockHammer(_) => DefenseKind::BlockHammer,
        }
    }

    /// The device-side PRAC configuration to build the DRAM device with
    /// (`None` outside the PRAC family).
    pub fn device_prac(&self) -> Option<PracConfig> {
        match self {
            DefenseConfig::Prac(p) | DefenseConfig::PracRiac(p) | DefenseConfig::PracBank(p) => {
                Some(*p)
            }
            _ => None,
        }
    }

    /// Mutable access to the PRAC-family device configuration, for
    /// experiments that tune it after provisioning.
    pub fn prac_mut(&mut self) -> Option<&mut PracConfig> {
        match self {
            DefenseConfig::Prac(p) | DefenseConfig::PracRiac(p) | DefenseConfig::PracBank(p) => {
                Some(p)
            }
            _ => None,
        }
    }
}

impl Default for DefenseConfig {
    fn default() -> DefenseConfig {
        DefenseConfig::prac(128)
    }
}

/// `NBO` scaling rule for PRAC-family defenses.
///
/// Halving `nrh` covers double-sided hammering (a victim absorbs the
/// activations of both neighbors); the additional margin of 8 covers
/// activations that slip in during the `tABO_ACT` normal-traffic window
/// before the recovery refreshes the victims.
pub fn scaled_nbo(nrh: u32) -> u32 {
    (nrh / 2).saturating_sub(8).clamp(1, 128)
}

/// `TRFM` scaling rule for RFM-family defenses.
pub fn scaled_trfm(nrh: u32) -> u32 {
    (nrh / 16).max(2)
}

/// FR-RFM period rule: `T_FRRFM = TRFM × tRC`, the shortest time in
/// which `TRFM` activations can target one bank (§11.1).
///
/// The period is floored at `tRFM + 300 ns`: a fixed-rate RFM stream
/// denser than the RFM latency itself is unschedulable. At very low
/// `N_RH` this floor is what drives FR-RFM's extreme performance
/// overheads (§11.4: 18.2× at `N_RH` = 64) — the schedule consumes
/// nearly all DRAM time.
pub fn fr_rfm_period(trfm: u32, t_rc: Span) -> Span {
    let t_rfm = lh_dram::DramTiming::ddr5_4800().t_rfm;
    (t_rc * trfm.max(1) as u64).max(t_rfm + Span::from_ns(300))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_dram::{AlertScope, CounterInit, DramTiming};

    #[test]
    fn scaling_rules_match_documentation() {
        assert_eq!(scaled_nbo(1024), 128);
        assert_eq!(scaled_nbo(256), 120);
        assert_eq!(scaled_nbo(128), 56);
        assert_eq!(scaled_nbo(64), 24);
        assert_eq!(scaled_trfm(1024), 64);
        assert_eq!(scaled_trfm(64), 4);
        assert_eq!(scaled_trfm(16), 2);
    }

    #[test]
    fn fr_rfm_period_is_trfm_times_trc() {
        let t = DramTiming::ddr5_4800();
        let cfg = DefenseConfig::for_threshold(DefenseKind::FrRfm, 1024, &t);
        assert_eq!(
            cfg,
            DefenseConfig::FrRfm {
                period: t.t_rc * 64
            }
        );
    }

    #[test]
    fn prac_bank_scopes_to_bank() {
        let t = DramTiming::ddr5_4800();
        let cfg = DefenseConfig::for_threshold(DefenseKind::PracBank, 512, &t);
        assert_eq!(cfg.device_prac().unwrap().scope, AlertScope::Bank);
    }

    #[test]
    fn riac_randomizes_counters() {
        let t = DramTiming::ddr5_4800();
        let cfg = DefenseConfig::for_threshold(DefenseKind::PracRiac, 256, &t);
        let init = |cfg: &DefenseConfig| cfg.device_prac().unwrap().counter_init;
        assert!(matches!(init(&cfg), CounterInit::Uniform { .. }));
        let plain = DefenseConfig::for_threshold(DefenseKind::Prac, 256, &t);
        assert!(!matches!(init(&plain), CounterInit::Uniform { .. }));
    }

    #[test]
    fn para_probability_scales_inversely() {
        let t = DramTiming::ddr5_4800();
        let cfg = DefenseConfig::for_threshold(DefenseKind::Para, 64, &t);
        assert_eq!(cfg, DefenseConfig::Para { probability: 0.125 });
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(DefenseKind::FrRfm.to_string(), "FR-RFM");
        assert_eq!(DefenseKind::PracRiac.to_string(), "PRAC-RIAC");
        assert_eq!(DefenseKind::figure13_set().len(), 5);
    }

    #[test]
    fn all_is_exhaustive() {
        // `ordinal`'s match is exhaustive over the enum, so a new
        // variant cannot compile without a slot; this pins every slot
        // to the matching array position, so the slot cannot point at
        // an existing entry (or past the end) either.
        let all = DefenseKind::all();
        for (i, kind) in all.iter().enumerate() {
            assert_eq!(kind.ordinal(), i, "{kind} sits at the wrong slot");
        }
        // Together: |variants| ≤ |ordinals| = |array| and no duplicates.
        assert_eq!(all.len(), 12);
    }
}
