//! Mitigation configurations and threshold-derived provisioning.

use lh_dram::{DramTiming, Span};

use lh_defenses::{scaled_nbo, DefenseConfig, DefenseKind};

/// The countermeasure wrappers the mitigation layer composes over any
/// [`lh_defenses::Defense`].
///
/// Each kind attacks one leg of the LeakyHammer observable: *when*
/// maintenance happens (jitter, batching), *how much* maintenance
/// happens (shaping) or *whether the attacker may generate the trigger
/// pressure at all* (quota).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MitigationKind {
    /// No mitigation: pure delegation. The control arm of every sweep —
    /// a pass-through stack must be byte-identical to the bare defense.
    PassThrough,
    /// Seeded randomization of scheduled-maintenance timing: each
    /// deadline slips forward by a deterministic pseudo-random offset,
    /// decorrelating the observable instants from the defense's period.
    MaintenanceJitter,
    /// Coalesce scheduled maintenance into batches released at quantized
    /// instants, so the release times carry only the quantizer's clock.
    DeferredBatch,
    /// Inject dummy maintenance on a fixed schedule and absorb the
    /// defense's reactive maintenance, so the observable rate is
    /// independent of the access pattern.
    ConstantRateShaper,
    /// Per-(bank, row) activation budget per epoch: requesters that
    /// exceed it are throttled to the epoch boundary, capping the
    /// trigger pressure any one aggressor can generate.
    IsolationQuota,
}

impl MitigationKind {
    /// Every registered mitigation — the axis the `mitsweep` job runs
    /// over (the unmitigated control arm is an *empty* stack, not a
    /// kind).
    pub fn all() -> [MitigationKind; 5] {
        [
            MitigationKind::PassThrough,
            MitigationKind::MaintenanceJitter,
            MitigationKind::DeferredBatch,
            MitigationKind::ConstantRateShaper,
            MitigationKind::IsolationQuota,
        ]
    }

    /// Position of `self` in [`MitigationKind::all`]. The exhaustive
    /// match ties the list to the enum: a new variant fails `cargo
    /// test` compilation here until it is given a slot, and the
    /// `all_is_exhaustive` test then forces the slot to agree with the
    /// array.
    #[cfg(test)]
    fn ordinal(self) -> usize {
        match self {
            MitigationKind::PassThrough => 0,
            MitigationKind::MaintenanceJitter => 1,
            MitigationKind::DeferredBatch => 2,
            MitigationKind::ConstantRateShaper => 3,
            MitigationKind::IsolationQuota => 4,
        }
    }

    /// Display name used in unit labels and reports.
    pub fn label(&self) -> &'static str {
        match self {
            MitigationKind::PassThrough => "pass",
            MitigationKind::MaintenanceJitter => "jitter",
            MitigationKind::DeferredBatch => "batch",
            MitigationKind::ConstantRateShaper => "shaper",
            MitigationKind::IsolationQuota => "quota",
        }
    }
}

impl std::fmt::Display for MitigationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// [`MaintenanceJitter`](MitigationKind::MaintenanceJitter) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitterConfig {
    /// Largest forward slip added to a deadline. Clamped at wrap time
    /// to the defense's maintenance period so the jittered schedule
    /// stays monotone.
    pub max: Span,
}

/// [`DeferredBatch`](MitigationKind::DeferredBatch) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Release-instant quantum: every deadline is deferred to the next
    /// multiple of this span.
    pub quantum: Span,
}

/// [`ConstantRateShaper`](MitigationKind::ConstantRateShaper) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShaperConfig {
    /// Fixed period of the dummy-maintenance stream (per rank).
    pub period: Span,
}

/// [`IsolationQuota`](MitigationKind::IsolationQuota) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Activations one (bank, row) may issue per epoch before being
    /// throttled to the epoch boundary.
    pub budget: u32,
    /// Budget-accounting epoch (epochs are aligned to time zero).
    pub epoch: Span,
}

/// One mitigation layer: a kind plus its parameters, mirroring
/// [`lh_defenses::DefenseConfig`]'s kind-plus-options shape. A *stack*
/// is a `Vec<MitigationConfig>` applied innermost-first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationConfig {
    /// Which wrapper this layer is.
    pub kind: MitigationKind,
    /// Jitter parameters (`MaintenanceJitter` only).
    pub jitter: Option<JitterConfig>,
    /// Batching parameters (`DeferredBatch` only).
    pub batch: Option<BatchConfig>,
    /// Shaping parameters (`ConstantRateShaper` only).
    pub shaper: Option<ShaperConfig>,
    /// Quota parameters (`IsolationQuota` only).
    pub quota: Option<QuotaConfig>,
}

impl MitigationConfig {
    fn base(kind: MitigationKind) -> MitigationConfig {
        MitigationConfig {
            kind,
            jitter: None,
            batch: None,
            shaper: None,
            quota: None,
        }
    }

    /// The no-op wrapper.
    pub fn pass_through() -> MitigationConfig {
        MitigationConfig::base(MitigationKind::PassThrough)
    }

    /// Deadline jitter of up to `max`.
    pub fn jitter(max: Span) -> MitigationConfig {
        MitigationConfig {
            jitter: Some(JitterConfig { max }),
            ..MitigationConfig::base(MitigationKind::MaintenanceJitter)
        }
    }

    /// Deadline quantization to multiples of `quantum`.
    pub fn batch(quantum: Span) -> MitigationConfig {
        MitigationConfig {
            batch: Some(BatchConfig { quantum }),
            ..MitigationConfig::base(MitigationKind::DeferredBatch)
        }
    }

    /// A fixed-rate dummy-maintenance stream with the given period.
    pub fn shaper(period: Span) -> MitigationConfig {
        MitigationConfig {
            shaper: Some(ShaperConfig { period }),
            ..MitigationConfig::base(MitigationKind::ConstantRateShaper)
        }
    }

    /// A per-(bank, row) activation budget per epoch.
    pub fn quota(budget: u32, epoch: Span) -> MitigationConfig {
        MitigationConfig {
            quota: Some(QuotaConfig { budget, epoch }),
            ..MitigationConfig::base(MitigationKind::IsolationQuota)
        }
    }

    /// Display name of this layer.
    pub fn label(&self) -> &'static str {
        self.kind.label()
    }

    /// Provisions `kind` for RowHammer threshold `nrh`, mirroring
    /// [`DefenseConfig::for_threshold`]:
    ///
    /// * jitter — up to half the FR-RFM period at `nrh` (enough to
    ///   decorrelate deadlines without starving the schedule);
    /// * batch — quantum of one FR-RFM period at `nrh`;
    /// * shaper — the FR-RFM period at `nrh`: the dummy stream is
    ///   provisioned like the fixed-rate countermeasure it emulates;
    /// * quota — half the scaled back-off threshold per 25 µs epoch,
    ///   so a single row cannot reach trigger pressure in one epoch.
    pub fn for_threshold(kind: MitigationKind, nrh: u32, timing: &DramTiming) -> MitigationConfig {
        let period = fr_rfm_period(nrh, timing);
        match kind {
            MitigationKind::PassThrough => MitigationConfig::pass_through(),
            MitigationKind::MaintenanceJitter => MitigationConfig::jitter(period / 2),
            MitigationKind::DeferredBatch => MitigationConfig::batch(period),
            MitigationKind::ConstantRateShaper => MitigationConfig::shaper(period),
            MitigationKind::IsolationQuota => {
                MitigationConfig::quota((scaled_nbo(nrh) / 2).max(1), Span::from_us(25))
            }
        }
    }
}

/// The FR-RFM maintenance period the threshold-scaling rules would
/// provision at `nrh` — the reference rate for every timing-shaped
/// mitigation.
pub fn fr_rfm_period(nrh: u32, timing: &DramTiming) -> Span {
    let cfg = DefenseConfig::for_threshold(DefenseKind::FrRfm, nrh, timing);
    cfg.fr_rfm.expect("FR-RFM kind implies config").period
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_exhaustive() {
        let all = MitigationKind::all();
        for (i, kind) in all.iter().enumerate() {
            assert_eq!(kind.ordinal(), i, "{kind} out of place in all()");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = MitigationKind::all().iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), MitigationKind::all().len());
    }

    #[test]
    fn for_threshold_fills_the_matching_option() {
        let t = DramTiming::ddr5_4800();
        for kind in MitigationKind::all() {
            let cfg = MitigationConfig::for_threshold(kind, 128, &t);
            assert_eq!(cfg.kind, kind);
            assert_eq!(
                cfg.jitter.is_some(),
                kind == MitigationKind::MaintenanceJitter
            );
            assert_eq!(cfg.batch.is_some(), kind == MitigationKind::DeferredBatch);
            assert_eq!(
                cfg.shaper.is_some(),
                kind == MitigationKind::ConstantRateShaper
            );
            assert_eq!(cfg.quota.is_some(), kind == MitigationKind::IsolationQuota);
        }
    }

    #[test]
    fn tighter_thresholds_provision_denser_shaping() {
        let t = DramTiming::ddr5_4800();
        let tight = MitigationConfig::for_threshold(MitigationKind::ConstantRateShaper, 64, &t);
        let loose = MitigationConfig::for_threshold(MitigationKind::ConstantRateShaper, 4096, &t);
        assert!(tight.shaper.unwrap().period <= loose.shaper.unwrap().period);
    }
}
