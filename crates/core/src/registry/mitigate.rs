//! Adapter for the defense × mitigation Pareto sweep (`mitsweep`):
//! the lh-link channel re-run with every countermeasure wrapper
//! deployed over every swept defense.
//!
//! The DAG mirrors `chansweep`'s calibration → cell structure, with
//! one twist: the baseline units calibrate against the *mitigated*
//! system — an adaptive attacker tunes its thresholds against whatever
//! is actually deployed, so a mitigation only counts as effective if
//! the channel stays collapsed even after recalibration. The
//! mitigation axis includes the empty stack (`none`), whose cells are
//! the unmitigated reference every collapse percentage is computed
//! against; `finish` pairs each cell's capacity collapse with its
//! extra scheduling-pressure cost (RFMs, back-offs, throttles per
//! simulated millisecond) into one [`ParetoCurve`] per
//! (defense, modulation) family.

use lh_harness::{Job, JobContext, Json};

use crate::registry::{link_fingerprint, num, scale_of, text};
use crate::report;

use lh_analysis::message::bits_of_str;
use lh_analysis::ParetoCurve;
use lh_defenses::DefenseKind;
use lh_dram::DramTiming;
use lh_link::{
    calibrate, transmit_message, Codec, CrcFramed, LinkConfig, Modulator, MultiLevelAmplitude,
    OnOffKeying, Repetition,
};
use lh_mitigate::{MitigationConfig, MitigationKind};

/// The provisioning point the whole matrix runs at (matches the
/// `chansweep` headline point, so the two envelopes are comparable).
const MIT_NRH: u32 = 128;

/// The defenses the matrix sweeps: the paper's two reactive channels
/// (PRAC back-off, PRFM counters) plus the time-driven FR-RFM — one
/// representative per observable class, so every wrapper meets both a
/// schedule it can reshape and a reactive stream it can absorb.
const DEFENSES: [DefenseKind; 3] = [DefenseKind::Prac, DefenseKind::Prfm, DefenseKind::FrRfm];

/// The mitigation axis: the unmitigated control arm, then every active
/// wrapper provisioned for [`MIT_NRH`].
const MITIGATIONS: [&str; 5] = ["none", "jitter", "batch", "shaper", "quota"];

/// The mitigation stack behind axis entry `m`.
fn stack(m: usize) -> Vec<MitigationConfig> {
    let t = DramTiming::ddr5_4800();
    let kind = match MITIGATIONS[m] {
        "none" => return Vec::new(),
        "jitter" => MitigationKind::MaintenanceJitter,
        "batch" => MitigationKind::DeferredBatch,
        "shaper" => MitigationKind::ConstantRateShaper,
        "quota" => MitigationKind::IsolationQuota,
        other => unreachable!("unknown mitigation label {other}"),
    };
    vec![MitigationConfig::for_threshold(kind, MIT_NRH, &t)]
}

/// The modulation+codec pairs the matrix exercises: the simplest and
/// the densest of `chansweep`'s three.
const MODULATIONS: [&str; 2] = ["ook+rep3", "mla4+crc8"];

/// Builds the modulator/codec pair for configuration `m`.
fn modulation(m: usize) -> (Box<dyn Modulator>, Box<dyn Codec>) {
    match m {
        0 => (Box::new(OnOffKeying), Box::new(Repetition::new(3))),
        1 => (
            Box::new(MultiLevelAmplitude::new(4)),
            Box::new(CrcFramed::new(8)),
        ),
        _ => unreachable!("unknown modulation index {m}"),
    }
}

/// Axis label of (defense `d`, mitigation `m`): `PRAC+jitter`, ….
fn axis_label(d: usize, m: usize) -> String {
    format!("{}+{}", DEFENSES[d].label(), MITIGATIONS[m])
}

/// The link configuration of axis entry (`d`, `m`).
fn link_config(d: usize, m: usize, seed: u64) -> LinkConfig {
    let mut cfg = LinkConfig::against(DEFENSES[d], MIT_NRH, seed);
    cfg.sim.mitigations = stack(m);
    cfg
}

/// The defense × mitigation Pareto sweep.
pub(crate) struct MitigationSweepJob;

impl MitigationSweepJob {
    /// Splits a unit index into `Ok((defense, mitigation))` for a
    /// baseline unit or `Err((defense, mitigation, modulation))` for a
    /// sweep cell.
    fn decode(unit: usize) -> Result<(usize, usize), (usize, usize, usize)> {
        let n_axis = DEFENSES.len() * MITIGATIONS.len();
        if unit < n_axis {
            return Ok((unit / MITIGATIONS.len(), unit % MITIGATIONS.len()));
        }
        let cell = unit - n_axis;
        let per_axis = MODULATIONS.len();
        let axis = cell / per_axis;
        Err((
            axis / MITIGATIONS.len(),
            axis % MITIGATIONS.len(),
            cell % per_axis,
        ))
    }
}

impl Job for MitigationSweepJob {
    fn id(&self) -> &'static str {
        "mitsweep"
    }

    fn description(&self) -> &'static str {
        "defense x mitigation Pareto sweep: capacity collapse vs scheduling cost"
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        let mut units = Vec::new();
        for d in 0..DEFENSES.len() {
            for m in 0..MITIGATIONS.len() {
                units.push(format!("baseline:{}", axis_label(d, m)));
            }
        }
        for d in 0..DEFENSES.len() {
            for m in 0..MITIGATIONS.len() {
                for md in MODULATIONS {
                    units.push(format!("mit:{}:{md}", axis_label(d, m)));
                }
            }
        }
        units
    }

    fn deps(&self, unit: usize, _ctx: &JobContext) -> Vec<usize> {
        match Self::decode(unit) {
            Ok(_) => Vec::new(),
            Err((d, m, _)) => vec![d * MITIGATIONS.len() + m],
        }
    }

    fn run_unit(&self, unit: usize, seed: u64, deps: &[Json], ctx: &JobContext) -> Json {
        let scale = scale_of(ctx);
        match Self::decode(unit) {
            Ok((d, m)) => {
                let cfg = link_config(d, m, seed);
                // One MLA(4) calibration serves both modulations, as in
                // chansweep — against the *mitigated* system.
                let cal = calibrate(
                    &cfg,
                    &MultiLevelAmplitude::new(4),
                    scale.link_calibration_reps(),
                );
                super::link::calibration_json(&cal)
                    .with("defense", DEFENSES[d].label())
                    .with("mitigation", MITIGATIONS[m])
            }
            Err((d, m, md)) => {
                let cal = super::link::calibration_of(&deps[0]);
                let (modulator, codec) = modulation(md);
                let cfg = link_config(d, m, seed);
                let text: String = "LeakyMitigationSweep-0123456789"
                    .chars()
                    .cycle()
                    .take(scale.link_payload_bits() / 8)
                    .collect();
                let bits = bits_of_str(&text);
                let out = transmit_message(&cfg, modulator.as_ref(), codec.as_ref(), &cal, &bits);
                let sim_ms = (cfg.tuning.window * out.windows as u64).as_us() / 1e3;
                let pressure = out.rfms + out.backoffs + out.defense_stats.throttles;
                Json::object()
                    .with("defense", DEFENSES[d].label())
                    .with("mitigation", MITIGATIONS[m])
                    .with("modulation", MODULATIONS[md])
                    .with("bits", out.result.bits)
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
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        let n_axis = DEFENSES.len() * MITIGATIONS.len();
        let cells = &units[n_axis..];
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
                let base = cell_of(d.label(), "none", md);
                let base_cap = num(base, "capacity_kbps");
                let base_cost = num(base, "cost_ops_per_ms");
                let mut curve = ParetoCurve::new(format!("{}/{md}", d.label()));
                for m in MITIGATIONS {
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
        link_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let cells = merged["cells"].as_array();
        let mut headers: Vec<String> = vec!["defense+mitigation".into()];
        headers.extend(MODULATIONS.iter().map(|m| format!("{m} Kbps(collapse)")));
        headers.push("cost d-ops/ms".into());
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut rows: Vec<Vec<String>> = Vec::new();
        for d in DEFENSES {
            for m in MITIGATIONS {
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
    use lh_harness::ScaleLevel;

    fn ctx() -> JobContext {
        JobContext::new(ScaleLevel::Quick, 1)
    }

    #[test]
    fn units_form_the_documented_dag() {
        let job = MitigationSweepJob;
        let units = job.units(&ctx());
        let n_axis = DEFENSES.len() * MITIGATIONS.len();
        assert_eq!(units.len(), n_axis * (1 + MODULATIONS.len()));
        for (i, unit) in units.iter().enumerate() {
            let deps = job.deps(i, &ctx());
            if unit.starts_with("baseline:") {
                assert!(deps.is_empty(), "{unit} must be a root");
            } else {
                assert_eq!(deps.len(), 1, "{unit} depends on its axis baseline");
                let base = &units[deps[0]];
                let axis_part = unit
                    .strip_prefix("mit:")
                    .and_then(|u| u.rsplit_once(':'))
                    .map(|(axis, _)| axis)
                    .expect("cell label shape");
                assert_eq!(base, &format!("baseline:{axis_part}"), "{unit}");
            }
        }
    }

    #[test]
    fn every_stack_parses_and_none_is_empty() {
        assert!(stack(0).is_empty(), "the control arm is the empty stack");
        for (m, label) in MITIGATIONS.iter().enumerate().skip(1) {
            let s = stack(m);
            assert_eq!(s.len(), 1, "{label} is a single wrapper");
            assert_eq!(s[0].label(), *label);
        }
    }

    #[test]
    fn decode_is_a_bijection_over_the_unit_range() {
        let job = MitigationSweepJob;
        let n = job.units(&ctx()).len();
        let mut seen = std::collections::HashSet::new();
        for unit in 0..n {
            assert!(seen.insert(MitigationSweepJob::decode(unit)));
        }
        let baselines = (0..n)
            .filter(|&u| MitigationSweepJob::decode(u).is_ok())
            .count();
        assert_eq!(baselines, DEFENSES.len() * MITIGATIONS.len());
    }
}
