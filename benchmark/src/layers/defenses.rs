//! `defenses` and `mitigate` drivers: defense engines built by
//! `build_defense` under a seeded activation stream, bare and behind
//! the `lh-mitigate` wrappers.

use std::hint::black_box;
use std::time::Instant;

use lh_defenses::{build_defense, Defense, DefenseConfig, DefenseKind};
use lh_dram::{BankId, DramTiming, Geometry, Time};
use lh_mitigate::{build_mitigated_defense, MitigationConfig, MitigationKind};

use crate::layers::Rng;
use crate::report::Report;
use crate::workloads::RunConfig;

/// Activations per engine.
const ACTS: usize = 400_000;
/// Peek-then-take iterations per engine.
const TAKES: u64 = 400_000;
/// The provisioning point: the link sweeps' threshold.
const NRH: u32 = 128;

/// Half uniform over every bank, half a double-sided pair in one bank.
fn act_stream(g: &Geometry, seed: u64) -> Vec<(BankId, u32)> {
    let mut rng = Rng::new(seed);
    let victim = BankId::new(0, 0, 0, 0);
    (0..ACTS)
        .map(|i| {
            if i % 2 == 0 {
                let bank = g.bank_from_flat(0, rng.below(g.banks_per_channel()) as usize);
                (bank, 1_024 + rng.below(4_096))
            } else {
                (victim, 5_000 + (i as u32 / 2 % 2) * 2)
            }
        })
        .collect()
}

struct Driven {
    on_activate_ns: f64,
    /// Reactive actions the engine asked for.
    actions: u64,
    /// Scheduled operations that fell due while the stream ran.
    scheduled: u64,
    take_ns: f64,
}

fn drive_engine(engine: &mut dyn Defense, g: &Geometry, stream: &[(BankId, u32)]) -> Driven {
    let t_rc = DramTiming::ddr5_4800().t_rc;
    let mut now = Time::ZERO;
    let mut actions = 0;
    let started = Instant::now();
    for &(bank, row) in stream {
        actions += engine.on_activate(bank, row, now).len() as u64;
        now += t_rc;
    }
    let on_activate_ns = started.elapsed().as_secs_f64() * 1e9 / stream.len() as f64;

    let mut scheduled = 0;
    for rank in 0..g.ranks_per_channel() {
        while let Some(m) = engine.next_maintenance(rank).filter(|m| m.due <= now) {
            black_box(engine.take_maintenance(rank, m.due));
            scheduled += 1;
        }
    }
    let started = Instant::now();
    for _ in 0..TAKES {
        let at = engine.next_maintenance(0).map_or(now, |m| m.due);
        black_box(engine.take_maintenance(0, at));
    }
    let take_ns = started.elapsed().as_secs_f64() * 1e9 / TAKES as f64;
    Driven {
        on_activate_ns,
        actions,
        scheduled,
        take_ns,
    }
}

pub fn drive(cfg: &RunConfig, report: &mut Report) {
    let timing = DramTiming::ddr5_4800();
    let g = Geometry::paper_default();
    let stream = act_stream(&g, cfg.seed);
    let per_kact = |n: u64| n as f64 * 1e3 / ACTS as f64;

    let mut prfm_ns = 0.0;
    for (name, kind) in [
        ("prac", DefenseKind::Prac),
        ("prfm", DefenseKind::Prfm),
        ("frrfm", DefenseKind::FrRfm),
        ("graphene", DefenseKind::Graphene),
        ("comet", DefenseKind::Comet),
    ] {
        let config = DefenseConfig::for_threshold(kind, NRH, &timing);
        let mut engine = build_defense(&config, &g, cfg.seed);
        let d = drive_engine(engine.as_mut(), &g, &stream);
        report.metric_for("defenses.on_activate_ns", name, d.on_activate_ns);
        match kind {
            DefenseKind::Prfm => {
                prfm_ns = d.on_activate_ns;
                report.metric_for("defenses.take_maintenance_ns", name, d.take_ns);
                report.metric_for("defenses.maint_per_kact", name, per_kact(d.actions));
            }
            DefenseKind::FrRfm => {
                report.metric_for("defenses.take_maintenance_ns", name, d.take_ns);
                report.metric_for("defenses.maint_per_kact", name, per_kact(d.scheduled));
            }
            DefenseKind::Graphene => {
                report.metric_for("defenses.maint_per_kact", name, per_kact(d.actions));
            }
            _ => {}
        }
    }

    // The same stream through a wrapper over PRFM, minus bare PRFM.
    let prfm = DefenseConfig::for_threshold(DefenseKind::Prfm, NRH, &timing);
    for (name, kind) in [
        ("shaper", MitigationKind::ConstantRateShaper),
        ("quota", MitigationKind::IsolationQuota),
    ] {
        let stack = [MitigationConfig::for_threshold(kind, NRH, &timing)];
        let mut engine = build_mitigated_defense(&prfm, &stack, &g, cfg.seed, cfg.seed);
        let d = drive_engine(engine.as_mut(), &g, &stream);
        report.metric_for(
            "mitigate.wrap_overhead_ns",
            name,
            d.on_activate_ns - prfm_ns,
        );
    }
}
