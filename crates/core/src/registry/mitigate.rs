//! Adapter for the defense × mitigation Pareto sweep (`mitsweep`):
//! the lh-link channel re-run with every countermeasure wrapper
//! deployed over every swept defense.
//!
//! The sweep is a calibrated [`Grid`] like `chansweep`, with one twist:
//! each arm is a (defense, mitigation stack) pair, so its baseline
//! calibrates against the *mitigated* system — an adaptive attacker
//! tunes its thresholds against whatever is actually deployed, so a
//! mitigation only counts as effective if the channel stays collapsed
//! even after recalibration. Its cells run quiet. The mitigation axis
//! includes the empty stack (`none`), whose cells are the unmitigated
//! reference every collapse percentage is computed against; `finish`
//! pairs each cell's capacity collapse with its extra
//! scheduling-pressure cost (RFMs, back-offs, throttles per simulated
//! millisecond) into one [`ParetoCurve`] per (defense, modulation)
//! family.

use lh_harness::{Job, JobContext, Json};

use crate::registry::link::{self, Arm, Grid};
use crate::registry::{num, sim_fingerprint, text};
use crate::report;
use crate::Scale;

use lh_analysis::ParetoCurve;
use lh_defenses::DefenseKind;
use lh_dram::DramTiming;
use lh_link::{LinkConfig, LinkOutcome};
use lh_mitigate::{MitigationConfig, MitigationKind};

/// The provisioning point the whole matrix runs at (matches the
/// `chansweep` headline point, so the two envelopes are comparable).
const MIT_NRH: u32 = 128;

/// The defenses the matrix sweeps: the paper's two reactive channels
/// (PRAC back-off, PRFM counters) plus the time-driven FR-RFM — one
/// representative per observable class, so every wrapper meets both a
/// schedule it can reshape and a reactive stream it can absorb.
const DEFENSES: [DefenseKind; 3] = [DefenseKind::Prac, DefenseKind::Prfm, DefenseKind::FrRfm];

/// The mitigation axis: the empty stack (`None`, the control arm),
/// then every active wrapper. `PassThrough` is left out: it is the
/// empty stack again.
fn mitigations() -> Vec<Option<MitigationKind>> {
    let active = MitigationKind::all()
        .into_iter()
        .filter(|&k| k != MitigationKind::PassThrough);
    std::iter::once(None).chain(active.map(Some)).collect()
}

/// The axis label of a mitigation-axis entry.
fn mitigation_label(m: Option<MitigationKind>) -> &'static str {
    m.map_or("none", |k| k.label())
}

/// The modulation+codec pairs the matrix exercises: the simplest and
/// the densest of `chansweep`'s three.
const MODULATIONS: [&str; 2] = ["ook+rep3", "mla4+crc8"];

/// The defense × mitigation Pareto sweep.
pub(crate) struct MitigationSweepJob;

impl Grid for MitigationSweepJob {
    const MODULATIONS: &'static [&'static str] = &MODULATIONS;
    const PAYLOAD: &'static str = "LeakyMitigationSweep-0123456789";

    fn arms(&self) -> Vec<Arm> {
        let t = DramTiming::ddr5_4800();
        let mut arms = Vec::new();
        for defense in DEFENSES {
            for m in mitigations() {
                let mitigation = mitigation_label(m);
                arms.push(Arm {
                    label: format!("{}+{mitigation}", defense.label()),
                    defense,
                    nrh: MIT_NRH,
                    mitigations: m
                        .map(|k| MitigationConfig::for_threshold(k, MIT_NRH, &t))
                        .into_iter()
                        .collect(),
                    tags: Json::object()
                        .with("defense", defense.label())
                        .with("mitigation", mitigation),
                });
            }
        }
        arms
    }

    fn noise(&self, _scale: Scale) -> Vec<f64> {
        vec![0.0]
    }

    fn cell_label(&self, arm: &Arm, modulation: &str, _noise: f64) -> String {
        format!("mit:{}:{modulation}", arm.label)
    }

    fn cell_json(&self, head: Json, _noise: f64, cfg: &LinkConfig, out: &LinkOutcome) -> Json {
        let sim_ms = (cfg.tuning.window * out.windows as u64).as_us() / 1e3;
        let pressure = out.rfms + out.backoffs + out.defense_stats.throttles;
        head.with("bits", out.result.bits)
            .with("bit_errors", out.result.bit_errors)
            .with("error_probability", out.result.error_probability())
            .with("capacity_kbps", out.result.capacity_kbps())
            .with("sync_locked", out.alignment.locked())
            .with("windows", out.windows)
            .with("backoffs", out.backoffs)
            .with("rfms", out.rfms)
            .with("throttles", out.defense_stats.throttles)
            .with("maintenance_on_time", out.defense_stats.maintenance_on_time)
            .with(
                "maintenance_deferred",
                out.defense_stats.maintenance_deferred,
            )
            .with("cost_ops_per_ms", pressure as f64 / sim_ms)
    }
}

impl Job for MitigationSweepJob {
    fn id(&self) -> &'static str {
        "mitsweep"
    }

    fn description(&self) -> &'static str {
        "defense x mitigation Pareto sweep: capacity collapse vs scheduling cost"
    }

    fn units(&self, ctx: &JobContext) -> Vec<String> {
        link::units(self, ctx)
    }

    fn deps(&self, unit: usize, ctx: &JobContext) -> Vec<usize> {
        link::deps(self, unit, ctx)
    }

    fn run_unit(&self, unit: usize, seed: u64, deps: &[Json], ctx: &JobContext) -> Json {
        link::run_unit(self, unit, seed, deps, ctx)
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        let cells = &units[DEFENSES.len() * mitigations().len()..];
        let cell_of = |d: &str, m: &str, md: &str| {
            cells
                .iter()
                .find(|c| {
                    text(c, "defense") == d
                        && text(c, "mitigation") == m
                        && text(c, "modulation") == md
                })
                .expect("complete matrix")
        };

        // One Pareto curve per (defense, modulation): collapse and cost
        // are both measured relative to that family's `none` cell.
        let mut curves: Vec<ParetoCurve> = Vec::new();
        let mut annotated: Vec<Json> = Vec::new();
        for d in DEFENSES {
            for md in MODULATIONS {
                let base = cell_of(d.label(), mitigation_label(None), md);
                let base_cap = num(base, "capacity_kbps");
                let base_cost = num(base, "cost_ops_per_ms");
                let mut curve = ParetoCurve::new(format!("{}/{md}", d.label()));
                for m in mitigations().into_iter().map(mitigation_label) {
                    let cell = cell_of(d.label(), m, md);
                    let cap = num(cell, "capacity_kbps");
                    let collapse = if base_cap > 0.0 {
                        (base_cap - cap) / base_cap * 100.0
                    } else {
                        0.0
                    };
                    let cost = num(cell, "cost_ops_per_ms") - base_cost;
                    curve.push(m, collapse, cost);
                    annotated.push(
                        cell.clone()
                            .with("collapse_pct", collapse)
                            .with("cost_delta_ops_per_ms", cost),
                    );
                }
                curves.push(curve);
            }
        }

        let curve_json = |c: &ParetoCurve| {
            Json::object()
                .with("label", c.label.clone())
                .with(
                    "points",
                    Json::Array(
                        c.points
                            .iter()
                            .map(|p| {
                                Json::object()
                                    .with("mitigation", p.label.clone())
                                    .with("collapse_pct", p.collapse_pct)
                                    .with("cost_ops_per_ms", p.cost_ops_per_ms)
                            })
                            .collect(),
                    ),
                )
                .with(
                    "frontier",
                    Json::Array(
                        c.frontier()
                            .iter()
                            .map(|p| Json::from(p.label.clone()))
                            .collect(),
                    ),
                )
                .with(
                    "cheapest_90pct",
                    c.cheapest_collapse(90.0)
                        .map_or(Json::Null, |p| Json::from(p.label.clone())),
                )
                .with("best_collapse_pct", c.best_collapse_pct())
        };
        Json::object()
            .with("nrh", u64::from(MIT_NRH))
            .with("cells", Json::Array(annotated))
            .with(
                "pareto",
                Json::Array(curves.iter().map(curve_json).collect()),
            )
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let cells = merged["cells"].as_array();
        let mut headers: Vec<String> = vec!["defense+mitigation".into()];
        headers.extend(MODULATIONS.iter().map(|m| format!("{m} Kbps(collapse)")));
        headers.push("cost d-ops/ms".into());
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut rows: Vec<Vec<String>> = Vec::new();
        for d in DEFENSES {
            for m in mitigations().into_iter().map(mitigation_label) {
                let mut row = vec![format!("{}+{m}", d.label())];
                let mut cost = f64::NEG_INFINITY;
                for md in MODULATIONS {
                    let cell = cells.iter().find(|c| {
                        text(c, "defense") == d.label()
                            && text(c, "mitigation") == m
                            && text(c, "modulation") == md
                    });
                    row.push(cell.map_or("-".to_owned(), |c| {
                        format!(
                            "{:.1}({:.0}%)",
                            num(c, "capacity_kbps"),
                            num(c, "collapse_pct")
                        )
                    }));
                    if let Some(c) = cell {
                        cost = cost.max(num(c, "cost_delta_ops_per_ms"));
                    }
                }
                row.push(if cost.is_finite() {
                    format!("{cost:+.1}")
                } else {
                    "-".to_owned()
                });
                rows.push(row);
            }
        }
        let mut s =
            String::from("--- defense x mitigation matrix (quiet Kbps, collapse vs none) ---\n");
        s.push_str(&report::table(&header_refs, &rows));
        s.push_str("--- Pareto frontiers (non-dominated mitigations per family) ---\n");
        for c in merged["pareto"].as_array() {
            let frontier: Vec<String> = c["frontier"]
                .as_array()
                .iter()
                .map(|l| l.as_str().unwrap_or("?").to_owned())
                .collect();
            let cheapest = c["cheapest_90pct"].as_str().unwrap_or("-");
            s.push_str(&format!(
                "{}: frontier [{}], cheapest >=90% collapse: {}\n",
                text(c, "label"),
                frontier.join(", "),
                cheapest
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_control_arm_is_the_empty_stack_and_the_rest_one_wrapper() {
        for arm in MitigationSweepJob.arms() {
            let tag = arm.tags["mitigation"].as_str().expect("mitigation tag");
            match tag {
                "none" => assert!(arm.mitigations.is_empty(), "{}", arm.label),
                _ => {
                    assert_eq!(
                        arm.mitigations.len(),
                        1,
                        "{} is a single wrapper",
                        arm.label
                    );
                    assert_eq!(arm.mitigations[0].label(), tag);
                }
            }
        }
        assert_eq!(mitigations().len(), MitigationKind::all().len());
    }
}
