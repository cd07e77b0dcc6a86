//! Composable countermeasure wrappers over the [`lh_defenses::Defense`]
//! trait — the "Mitigating" half of the paper's title.
//!
//! Every RowHammer defense the repo models leaks a covert/side channel
//! through its *observable* preventive behavior (back-off latency, RFM
//! timing, refresh pressure). This crate attacks the observable rather
//! than the defense: each [`MitigationKind`] is a wrapper that
//! implements `Defense` by delegation and reshapes only what the memory
//! controller — and therefore the attacker — can see:
//!
//! * `Retime` — re-time scheduled maintenance deadlines, either by
//!   a seeded slip (`MaintenanceJitter`: decorrelate *when*) or by
//!   rounding up to a quantum (`DeferredBatch`: quantize *when*);
//! * [`ConstantRateShaper`] — inject dummy maintenance so the
//!   observable rate is pattern-independent (fix *how much*);
//! * [`IsolationQuota`] — per-(bank, row) activation budgets per epoch
//!   (cap the attacker's trigger pressure);
//! * [`PassThrough`] — the control arm: pure delegation, byte-identical
//!   to the bare defense.
//!
//! Because wrappers are `Box<dyn Defense>` → `Box<dyn Defense>`, any
//! stack composes with any defense: `build_mitigation` mirrors
//! [`lh_defenses::build_defense`] and [`apply_mitigations`] folds a
//! whole stack (an empty stack returns the inner defense unchanged).
//! The `mitsweep` harness job sweeps the full defense × mitigation ×
//! modulation matrix and pairs each cell's capacity collapse with its
//! scheduling-pressure cost into Pareto curves (`lh_analysis::pareto`).
//!
//! # Examples
//!
//! ```
//! use lh_defenses::{build_defense, DefenseConfig, DefenseKind};
//! use lh_dram::{DramTiming, Geometry};
//! use lh_mitigate::{apply_mitigations, MitigationConfig, MitigationKind};
//!
//! let timing = DramTiming::ddr5_4800();
//! let geometry = Geometry::paper_default();
//! let defense = DefenseConfig::for_threshold(DefenseKind::FrRfm, 128, &timing);
//! let stack = vec![MitigationConfig::for_threshold(
//!     MitigationKind::MaintenanceJitter,
//!     128,
//!     &timing,
//! )];
//! let mut engine = apply_mitigations(
//!     &stack,
//!     &geometry,
//!     42,
//!     build_defense(&defense, &geometry, 42),
//! );
//! // The wrapper only ever slips deadlines forward, and still keeps
//! // them at least its reported period apart.
//! let first = engine.next_maintenance(0).unwrap().due;
//! let taken = engine.take_maintenance(0, first).unwrap();
//! assert_eq!(taken.due, first);
//! let period = engine.maintenance_period().unwrap();
//! assert!(engine.next_maintenance(0).unwrap().due >= first + period);
//! assert_eq!(engine.stats().maintenance_on_time, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod config;
mod wrappers;

pub use config::{MitigationConfig, MitigationKind};
pub use wrappers::{
    apply_mitigations, build_mitigated_defense, ConstantRateShaper, IsolationQuota, PassThrough,
};
