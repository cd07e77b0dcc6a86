//! Mitigation configurations and threshold-derived provisioning.

use lh_dram::{DramTiming, Span};

use lh_defenses::{fr_rfm_period, scaled_nbo, scaled_trfm};

/// The countermeasure wrappers the mitigation layer composes over any
/// [`lh_defenses::Defense`].
///
/// Each kind attacks one leg of the LeakyHammer observable: *when*
/// maintenance happens (jitter, batching), *how much* maintenance
/// happens (shaping) or *whether the attacker may generate the trigger
/// pressure at all* (quota).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MitigationKind {
    /// No mitigation: pure delegation. A pass-through stack must be
    /// byte-identical to the bare defense (the empty stack).
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
    /// Every registered mitigation. The `mitsweep` job runs every kind
    /// but `PassThrough`: its control arm is the *empty* stack, which
    /// a pass-through stack reproduces byte for byte.
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

/// One mitigation layer: one variant per [`MitigationKind`], carrying
/// exactly that wrapper's parameters. A *stack* is a
/// `Vec<MitigationConfig>` applied innermost-first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MitigationConfig {
    /// Pure delegation.
    PassThrough,
    /// Deadline jitter.
    Jitter {
        /// Largest forward slip added to a deadline. Clamped at wrap
        /// time to the defense's maintenance period so the jittered
        /// schedule stays monotone.
        max: Span,
    },
    /// Deadline quantization.
    Batch {
        /// Release-instant quantum: every deadline is deferred to the
        /// next multiple of this span.
        quantum: Span,
    },
    /// A fixed-rate dummy-maintenance stream.
    Shaper {
        /// Fixed period of the dummy-maintenance stream (per rank).
        period: Span,
    },
    /// A per-(bank, row) activation budget per epoch.
    Quota {
        /// Activations one (bank, row) may issue per epoch before being
        /// throttled to the epoch boundary.
        budget: u32,
        /// Budget-accounting epoch (epochs are aligned to time zero).
        epoch: Span,
    },
}

impl MitigationConfig {
    /// Which wrapper this layer is.
    pub fn kind(&self) -> MitigationKind {
        match self {
            MitigationConfig::PassThrough => MitigationKind::PassThrough,
            MitigationConfig::Jitter { .. } => MitigationKind::MaintenanceJitter,
            MitigationConfig::Batch { .. } => MitigationKind::DeferredBatch,
            MitigationConfig::Shaper { .. } => MitigationKind::ConstantRateShaper,
            MitigationConfig::Quota { .. } => MitigationKind::IsolationQuota,
        }
    }

    /// Display name of this layer.
    pub fn label(&self) -> &'static str {
        self.kind().label()
    }

    /// Provisions `kind` for RowHammer threshold `nrh`, mirroring
    /// [`lh_defenses::DefenseConfig::for_threshold`] and keyed to the
    /// FR-RFM period it would provision there:
    ///
    /// * jitter — up to half the FR-RFM period at `nrh` (enough to
    ///   decorrelate deadlines without starving the schedule);
    /// * batch — quantum of one FR-RFM period at `nrh`;
    /// * shaper — the FR-RFM period at `nrh`: the dummy stream is
    ///   provisioned like the fixed-rate countermeasure it emulates;
    /// * quota — half the scaled back-off threshold per 25 µs epoch,
    ///   so a single row cannot reach trigger pressure in one epoch.
    pub fn for_threshold(kind: MitigationKind, nrh: u32, timing: &DramTiming) -> MitigationConfig {
        let period = fr_rfm_period(scaled_trfm(nrh), timing.t_rc);
        match kind {
            MitigationKind::PassThrough => MitigationConfig::PassThrough,
            MitigationKind::MaintenanceJitter => MitigationConfig::Jitter { max: period / 2 },
            MitigationKind::DeferredBatch => MitigationConfig::Batch { quantum: period },
            MitigationKind::ConstantRateShaper => MitigationConfig::Shaper { period },
            MitigationKind::IsolationQuota => MitigationConfig::Quota {
                budget: (scaled_nbo(nrh) / 2).max(1),
                epoch: Span::from_us(25),
            },
        }
    }
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
    fn tighter_thresholds_provision_denser_shaping() {
        let t = DramTiming::ddr5_4800();
        let period = |nrh| match MitigationConfig::for_threshold(
            MitigationKind::ConstantRateShaper,
            nrh,
            &t,
        ) {
            MitigationConfig::Shaper { period } => period,
            other => panic!("{other:?} is not a shaper"),
        };
        assert!(period(64) <= period(4096));
    }
}
