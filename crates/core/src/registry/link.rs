//! Adapter for the link-layer channel sweep (`chansweep`): the same
//! message transmitted through every (defense × modulation × noise)
//! combination the `lh-link` subsystem composes, and the calibrated
//! grid it shares with `mitsweep`.
//!
//! Sharding mirrors fig13's DAG: one *baseline* unit per arm runs the
//! expensive calibration transmissions ([`lh_link::calibrate`]) once,
//! and every sweep cell of that arm depends on it, receiving the
//! learned [`Calibration`] through the dependency channel. The
//! [`Grid`] trait names what a sweep varies (its arms, modulations,
//! noise points, payload, cell labels and cell results); [`units`],
//! [`deps`] and [`run_unit`] are the one implementation of the layout,
//! the baseline run and the cell run. chansweep's arms cover every
//! registered [`DefenseKind`] at one provisioning point plus a small
//! `N_RH` ladder for PRAC, so `finish` can chart both BER-vs-noise
//! curves per (defense, modulation) and a capacity-vs-`N_RH` curve per
//! modulation.
//!
//! Reading the noisy cells of *closed* configurations (`None`, MINT,
//! FR-RFM) needs care: once the noise co-runner loads the bank, the
//! sender's activations modulate receiver latency through bank
//! contention alone, and the envelope records an open channel against
//! no defense at all. That is the defense-independent DRAMA-style
//! contention channel of the paper's footnote 9 — the same residue the
//! §12 taxonomy isolates with its control row — so per-defense verdicts
//! (and the report's scenario matrix) rest on the quiet cells.

use lh_harness::{Job, JobContext, Json};

use crate::registry::{num, scale_of, sim_fingerprint, text};
use crate::report;
use crate::Scale;

use lh_analysis::message::bits_of_str;
use lh_analysis::{BerCurve, CapacityCurve, ChannelResult};
use lh_defenses::DefenseKind;
use lh_link::{
    calibrate, transmit_message, Calibration, Codec, CrcFramed, Hamming74, LinkConfig, LinkOutcome,
    Modulator, MultiLevelAmplitude, OnOffKeying, PulsePosition, Repetition,
};
use lh_mitigate::MitigationConfig;

/// One arm of a calibrated grid: the system its baseline unit
/// calibrates against and its cells transmit through.
pub(super) struct Arm {
    /// The arm's name in unit labels (`PRAC:nrh128`, `PRAC+jitter`).
    pub(super) label: String,
    /// The defense under attack.
    pub(super) defense: DefenseKind,
    /// The RowHammer threshold the defense is provisioned for.
    pub(super) nrh: u32,
    /// The countermeasure stack deployed over the defense (empty: none).
    pub(super) mitigations: Vec<MitigationConfig>,
    /// The fields every result of the arm carries: after the
    /// calibration in its baseline, first in each of its cells.
    pub(super) tags: Json,
}

/// What a calibrated link grid varies; everything else is [`units`],
/// [`deps`] and [`run_unit`].
pub(super) trait Grid {
    /// The modulation+codec labels each arm's cells run (see
    /// [`modulation`]).
    const MODULATIONS: &'static [&'static str];
    /// The text the cells transmit, cycled to the scale's payload size.
    const PAYLOAD: &'static str;
    /// The arms, in baseline order.
    fn arms(&self) -> Vec<Arm>;
    /// The noise intensities each (arm, modulation) runs at; `0.0` is
    /// quiet.
    fn noise(&self, scale: Scale) -> Vec<f64>;
    /// The unit label of one cell.
    fn cell_label(&self, arm: &Arm, modulation: &str, noise: f64) -> String;
    /// One cell's result; `head` holds the arm's tags and `modulation`.
    fn cell_json(&self, head: Json, noise: f64, cfg: &LinkConfig, out: &LinkOutcome) -> Json;
}

/// A unit's place in a grid: its arm, and for a cell its
/// `(modulation, noise)` indices (`None`: the arm's baseline).
type Place = (usize, Option<(usize, usize)>);

/// Where unit `unit` of `grid` sits at `scale`. The layout is the arms'
/// baselines first, then each arm's cells, modulation-major and
/// noise-minor.
fn decode<G: Grid>(grid: &G, unit: usize, scale: Scale) -> Place {
    let n_arms = grid.arms().len();
    if unit < n_arms {
        return (unit, None);
    }
    let n_noise = grid.noise(scale).len();
    let cell = unit - n_arms;
    let per_arm = G::MODULATIONS.len() * n_noise;
    (
        cell / per_arm,
        Some(((cell % per_arm) / n_noise, cell % n_noise)),
    )
}

/// The unit labels of `grid`: `baseline:<arm>` per arm, then its cells.
pub(super) fn units<G: Grid>(grid: &G, ctx: &JobContext) -> Vec<String> {
    let arms = grid.arms();
    let noise = grid.noise(scale_of(ctx));
    let mut units: Vec<String> = arms
        .iter()
        .map(|a| format!("baseline:{}", a.label))
        .collect();
    for arm in &arms {
        for m in G::MODULATIONS {
            for &n in &noise {
                units.push(grid.cell_label(arm, m, n));
            }
        }
    }
    units
}

/// A cell depends on its arm's baseline; baselines are roots.
pub(super) fn deps(grid: &impl Grid, unit: usize, ctx: &JobContext) -> Vec<usize> {
    match decode(grid, unit, scale_of(ctx)) {
        (_, None) => Vec::new(),
        (a, Some(_)) => vec![a],
    }
}

/// Runs one unit of `grid`: a baseline calibrates against its arm's
/// system, a cell transmits the payload with its baseline's
/// calibration.
pub(super) fn run_unit<G: Grid>(
    grid: &G,
    unit: usize,
    seed: u64,
    deps: &[Json],
    ctx: &JobContext,
) -> Json {
    let scale = scale_of(ctx);
    let (a, cell) = decode(grid, unit, scale);
    let arm = grid.arms().swap_remove(a);
    let mut cfg = LinkConfig::against(arm.defense, arm.nrh, seed);
    cfg.sim.mitigations = arm.mitigations;
    let Some((m, n)) = cell else {
        // One calibration serves every modulation: the MLA(4) run
        // learns both the on/off threshold (its top level is OOK/PPM's
        // "on") and the amplitude bins — against the *mitigated*
        // system, as an adaptive attacker would.
        let cal = calibrate(
            &cfg,
            &MultiLevelAmplitude::new(4),
            scale.link_calibration_reps(),
        );
        let tags = arm.tags.as_object().iter();
        return tags.fold(calibration_json(&cal), |j, (k, v)| j.with(k, v.clone()));
    };
    let cal = calibration_of(&deps[0]);
    let modulation_label = G::MODULATIONS[m];
    let (modulator, codec) = modulation(modulation_label);
    let noise = grid.noise(scale)[n];
    if noise > 0.0 {
        cfg.noise_intensity = Some(noise);
    }
    let text: String = G::PAYLOAD
        .chars()
        .cycle()
        .take(scale.link_payload_bits() / 8)
        .collect();
    let out = transmit_message(
        &cfg,
        modulator.as_ref(),
        codec.as_ref(),
        &cal,
        &bits_of_str(&text),
    );
    let head = arm.tags.with("modulation", modulation_label);
    grid.cell_json(head, noise, &cfg, &out)
}

/// Builds the modulator/codec pair behind a modulation label.
fn modulation(label: &str) -> (Box<dyn Modulator>, Box<dyn Codec>) {
    match label {
        "ook+rep3" => (Box::new(OnOffKeying), Box::new(Repetition::new(3))),
        "ppm4+ham74" => (Box::new(PulsePosition::new(4)), Box::new(Hamming74)),
        "mla4+crc8" => (
            Box::new(MultiLevelAmplitude::new(4)),
            Box::new(CrcFramed::new(8)),
        ),
        _ => unreachable!("unknown modulation {label}"),
    }
}

/// Serializes a calibration into the baseline unit's JSON result.
fn calibration_json(cal: &Calibration) -> Json {
    Json::object()
        .with("trecv", u64::from(cal.trecv))
        .with(
            "bins",
            Json::Array(cal.bins.iter().map(|&b| u64::from(b).into()).collect()),
        )
        .with("on_events", cal.on_events)
        .with("off_events", cal.off_events)
        .with("separable", cal.separable())
}

/// Reconstructs the calibration a baseline unit shipped.
fn calibration_of(base: &Json) -> Calibration {
    Calibration {
        trecv: base["trecv"].as_u64().expect("baseline trecv") as u32,
        bins: base["bins"]
            .as_array()
            .iter()
            .map(|b| b.as_u64().expect("baseline bin") as u32)
            .collect(),
        on_events: num(base, "on_events"),
        off_events: num(base, "off_events"),
    }
}

/// The provisioning point every defense runs at: tight enough that all
/// three modulations' amplitude levels cross their thresholds within
/// one window (see the `lh-link` pipeline tests).
const LINK_NRH: u32 = 128;

/// Extra PRAC provisioning points, forming the capacity-vs-`N_RH`
/// curve (ascending; `LINK_NRH` completes the ladder).
const PRAC_NRH_LADDER: [u32; 3] = [64, 256, 1024];

/// The defense axis: every registered defense at `LINK_NRH`, then the
/// PRAC `N_RH` ladder.
fn sweep_axis() -> Vec<(DefenseKind, u32)> {
    let mut axis: Vec<(DefenseKind, u32)> =
        DefenseKind::all().iter().map(|&k| (k, LINK_NRH)).collect();
    axis.extend(PRAC_NRH_LADDER.iter().map(|&n| (DefenseKind::Prac, n)));
    axis
}

/// The modulation+codec configurations the sweep exercises.
const MODULATIONS: [&str; 3] = ["ook+rep3", "ppm4+ham74", "mla4+crc8"];

/// The link-layer channel sweep.
pub(crate) struct ChannelSweepJob;

impl Grid for ChannelSweepJob {
    const MODULATIONS: &'static [&'static str] = &MODULATIONS;
    const PAYLOAD: &'static str = "LeakyLinkSweepPayload-0123456789";

    fn arms(&self) -> Vec<Arm> {
        sweep_axis()
            .into_iter()
            .map(|(defense, nrh)| {
                let label = format!("{}:nrh{nrh}", defense.label());
                Arm {
                    tags: Json::object()
                        .with("defense", label.clone())
                        .with("nrh", u64::from(nrh)),
                    label,
                    defense,
                    nrh,
                    mitigations: Vec::new(),
                }
            })
            .collect()
    }

    fn noise(&self, scale: Scale) -> Vec<f64> {
        scale.link_noise_points()
    }

    fn cell_label(&self, arm: &Arm, modulation: &str, noise: f64) -> String {
        format!("link:{}:{modulation}:noise:{noise}", arm.label)
    }

    fn cell_json(&self, head: Json, noise: f64, _cfg: &LinkConfig, out: &LinkOutcome) -> Json {
        head.with("noise", noise)
            .with("bits", out.result.bits)
            .with("bit_errors", out.result.bit_errors)
            .with("raw_kbps", out.result.raw_kbps())
            .with("error_probability", out.result.error_probability())
            .with("capacity_kbps", out.result.capacity_kbps())
            .with("frames", out.frames)
            .with("frame_errors", out.frame_errors)
            .with("windows", out.windows)
            .with("sync_locked", out.alignment.locked())
            .with("sync_offset", out.alignment.offset)
            .with("backoffs", out.backoffs)
            .with("rfms", out.rfms)
    }
}

impl Job for ChannelSweepJob {
    fn id(&self) -> &'static str {
        "chansweep"
    }

    fn description(&self) -> &'static str {
        "link-layer BER/capacity sweep: every defense x modulation x noise"
    }

    fn units(&self, ctx: &JobContext) -> Vec<String> {
        units(self, ctx)
    }

    fn deps(&self, unit: usize, ctx: &JobContext) -> Vec<usize> {
        deps(self, unit, ctx)
    }

    fn run_unit(&self, unit: usize, seed: u64, deps: &[Json], ctx: &JobContext) -> Json {
        run_unit(self, unit, seed, deps, ctx)
    }

    fn finish(&self, units: Vec<Json>, ctx: &JobContext) -> Json {
        let axis = sweep_axis();
        let cells = &units[axis.len()..];

        // BER-vs-noise curve per (defense, modulation) series.
        let mut ber_curves: Vec<BerCurve> = Vec::new();
        for cell in cells {
            let label = format!("{}/{}", text(cell, "defense"), text(cell, "modulation"));
            let at = ber_curves
                .iter()
                .position(|c| c.label == label)
                .unwrap_or_else(|| {
                    ber_curves.push(BerCurve::new(label.clone()));
                    ber_curves.len() - 1
                });
            ber_curves[at].push(
                num(cell, "noise"),
                ChannelResult {
                    bits: cell["bits"].as_u64().unwrap_or(0) as usize,
                    bit_errors: cell["bit_errors"].as_u64().unwrap_or(0) as usize,
                    raw_bit_rate: num(cell, "raw_kbps") * 1e3,
                },
            );
        }

        // Capacity-vs-NRH curve per modulation over the PRAC ladder
        // (quiet cells only).
        let mut nrh_curves: Vec<CapacityCurve> = MODULATIONS
            .iter()
            .map(|m| CapacityCurve::new(format!("PRAC/{m}")))
            .collect();
        for cell in cells {
            if text(cell, "defense").starts_with("PRAC:") && num(cell, "noise") == 0.0 {
                let m = MODULATIONS
                    .iter()
                    .position(|m| *m == text(cell, "modulation"))
                    .expect("known modulation");
                nrh_curves[m].push(
                    cell["nrh"].as_u64().expect("cell nrh") as u32,
                    num(cell, "capacity_kbps"),
                );
            }
        }

        let curve_json = |c: &BerCurve| {
            Json::object()
                .with("label", c.label.clone())
                .with("quiet_capacity_kbps", c.quiet_capacity_kbps())
                .with("worst_ber", c.worst_ber())
                .with(
                    "usable_until",
                    c.usable_until(0.25).map_or(Json::Null, Json::from_f64),
                )
        };
        Json::object()
            .with("nrh", u64::from(LINK_NRH))
            .with(
                "ber_curves",
                Json::Array(ber_curves.iter().map(curve_json).collect()),
            )
            .with(
                "nrh_curves",
                Json::Array(
                    nrh_curves
                        .iter()
                        .map(|c| {
                            Json::object().with("label", c.label.clone()).with(
                                "points",
                                Json::Array(
                                    c.points
                                        .iter()
                                        .map(|p| {
                                            Json::object()
                                                .with("nrh", u64::from(p.nrh))
                                                .with("capacity_kbps", p.capacity_kbps)
                                        })
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            )
            .with("cells", Json::Array(cells.to_vec()))
            .with("noise_points", {
                Json::Array(
                    scale_of(ctx)
                        .link_noise_points()
                        .into_iter()
                        .map(Json::from_f64)
                        .collect(),
                )
            })
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let cells = merged["cells"].as_array();
        // Scenario matrix: quiet capacity (worst-noise BER) per
        // defense row × modulation column.
        let mut rows_order: Vec<String> = Vec::new();
        for c in cells {
            let d = text(c, "defense");
            if !rows_order.contains(&d) {
                rows_order.push(d);
            }
        }
        let mut headers: Vec<String> = vec!["defense".into()];
        headers.extend(MODULATIONS.iter().map(|m| format!("{m} Kbps(BER)")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = rows_order
            .iter()
            .map(|d| {
                let mut row = vec![d.clone()];
                for m in MODULATIONS {
                    let quiet = cells.iter().find(|c| {
                        &text(c, "defense") == d
                            && text(c, "modulation") == m
                            && num(c, "noise") == 0.0
                    });
                    let worst = cells
                        .iter()
                        .filter(|c| &text(c, "defense") == d && text(c, "modulation") == m)
                        .map(|c| num(c, "error_probability"))
                        .fold(0.0, f64::max);
                    row.push(quiet.map_or("-".to_owned(), |c| {
                        format!("{:.1}({worst:.2})", num(c, "capacity_kbps"))
                    }));
                }
                row
            })
            .collect();
        let mut s = String::from("--- link-layer scenario matrix (quiet Kbps, worst BER) ---\n");
        s.push_str(&report::table(&header_refs, &rows));
        s.push_str("--- PRAC capacity vs NRH (quiet) ---\n");
        let nrh_rows: Vec<Vec<String>> = merged["nrh_curves"]
            .as_array()
            .iter()
            .map(|c| {
                let mut row = vec![text(c, "label")];
                for p in c["points"].as_array() {
                    row.push(format!(
                        "nrh{}={:.1}",
                        p["nrh"].as_u64().unwrap_or(0),
                        num(p, "capacity_kbps")
                    ));
                }
                row
            })
            .collect();
        s.push_str(&report::table(&["modulation", "", "", "", ""], &nrh_rows));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::mitigate::MitigationSweepJob;
    use lh_harness::ScaleLevel;

    fn ctx() -> JobContext {
        JobContext::new(ScaleLevel::Quick, 1)
    }

    /// The arms' baselines come first, then each arm's cells
    /// (modulation-major, noise-minor), and every cell depends on its
    /// own arm's baseline.
    fn assert_documented_dag<G: Grid + Job>(grid: &G) {
        let units = grid.units(&ctx());
        let arms = grid.arms();
        let noise = grid.noise(Scale::Quick);
        let n_mod = G::MODULATIONS.len();
        assert_eq!(units.len(), arms.len() * (1 + n_mod * noise.len()));
        for (a, arm) in arms.iter().enumerate() {
            assert_eq!(units[a], format!("baseline:{}", arm.label));
            assert!(
                grid.deps(a, &ctx()).is_empty(),
                "{} must be a root",
                units[a]
            );
        }
        let mut unit = arms.len();
        for (a, arm) in arms.iter().enumerate() {
            for m in G::MODULATIONS {
                for &n in &noise {
                    assert_eq!(units[unit], grid.cell_label(arm, m, n));
                    assert!(units[unit].contains(&arm.label), "{}", units[unit]);
                    assert_eq!(grid.deps(unit, &ctx()), vec![a], "{}", units[unit]);
                    unit += 1;
                }
            }
        }
    }

    #[test]
    fn units_form_the_documented_dag() {
        assert_documented_dag(&ChannelSweepJob);
        assert_documented_dag(&MitigationSweepJob);
    }

    fn assert_decode_is_a_bijection(grid: &(impl Grid + Job)) {
        let n = grid.units(&ctx()).len();
        let mut seen = std::collections::HashSet::new();
        for unit in 0..n {
            assert!(seen.insert(decode(grid, unit, Scale::Quick)), "unit {unit}");
        }
        let baselines = (0..n)
            .filter(|&u| decode(grid, u, Scale::Quick).1.is_none())
            .count();
        assert_eq!(baselines, grid.arms().len());
    }

    #[test]
    fn decode_is_a_bijection_over_the_unit_range() {
        assert_decode_is_a_bijection(&ChannelSweepJob);
        assert_decode_is_a_bijection(&MitigationSweepJob);
    }

    #[test]
    fn axis_covers_every_registered_defense() {
        let axis = sweep_axis();
        for kind in DefenseKind::all() {
            assert!(
                axis.iter().any(|&(k, _)| k == kind),
                "{kind} missing from the sweep axis"
            );
        }
        assert_eq!(axis.len(), DefenseKind::all().len() + PRAC_NRH_LADDER.len());
    }

    #[test]
    fn calibration_round_trips_through_json() {
        let cal = Calibration {
            trecv: 3,
            bins: vec![40, 90],
            on_events: 2.5,
            off_events: 0.25,
        };
        let j = calibration_json(&cal);
        assert_eq!(calibration_of(&j), cal);
    }
}
