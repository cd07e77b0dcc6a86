//! Adapter for the link-layer channel sweep (`chansweep`): the same
//! message transmitted through every (defense × modulation × noise)
//! combination the `lh-link` subsystem composes.
//!
//! Sharding mirrors fig13's DAG: one *baseline* unit per configured
//! defense runs the expensive calibration transmissions
//! ([`lh_link::calibrate`]) once, and every sweep cell of that defense
//! depends on it, receiving the learned [`Calibration`] through the
//! dependency channel. The defense axis covers every registered
//! [`DefenseKind`] at one provisioning point plus a small `N_RH`
//! ladder for PRAC, so `finish` can chart both BER-vs-noise curves per
//! (defense, modulation) and a capacity-vs-`N_RH` curve per modulation.
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
    calibrate, transmit_message, Calibration, Codec, CrcFramed, Hamming74, LinkConfig, Modulator,
    MultiLevelAmplitude, OnOffKeying, PulsePosition, Repetition,
};

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

/// Axis-entry label (`PRAC:nrh128`, …) used in unit names and reports.
fn axis_label(kind: DefenseKind, nrh: u32) -> String {
    format!("{}:nrh{nrh}", kind.label())
}

/// The modulation+codec configurations the sweep exercises.
const MODULATIONS: [&str; 3] = ["ook+rep3", "ppm4+ham74", "mla4+crc8"];

/// Builds the modulator/codec pair for configuration `m`.
fn modulation(m: usize) -> (Box<dyn Modulator>, Box<dyn Codec>) {
    match m {
        0 => (Box::new(OnOffKeying), Box::new(Repetition::new(3))),
        1 => (Box::new(PulsePosition::new(4)), Box::new(Hamming74)),
        2 => (
            Box::new(MultiLevelAmplitude::new(4)),
            Box::new(CrcFramed::new(8)),
        ),
        _ => unreachable!("unknown modulation index {m}"),
    }
}

/// The sweep payload at `scale`.
fn payload(scale: Scale) -> Vec<u8> {
    let text: String = "LeakyLinkSweepPayload-0123456789"
        .chars()
        .cycle()
        .take(scale.link_payload_bits() / 8)
        .collect();
    bits_of_str(&text)
}

/// The link-layer channel sweep.
pub(crate) struct ChannelSweepJob;

impl ChannelSweepJob {
    /// Splits a unit index into `Ok(axis)` for a baseline unit or
    /// `Err((axis, modulation, noise))` for a sweep cell.
    fn decode(unit: usize, n_axis: usize, n_noise: usize) -> Result<usize, (usize, usize, usize)> {
        if unit < n_axis {
            return Ok(unit);
        }
        let cell = unit - n_axis;
        let per_axis = MODULATIONS.len() * n_noise;
        Err((cell / per_axis, (cell % per_axis) / n_noise, cell % n_noise))
    }
}

/// Serializes a calibration into the baseline unit's JSON result.
/// (Shared with the `mitsweep` adapter, which reuses the same
/// baseline → cell calibration hand-off.)
pub(crate) fn calibration_json(cal: &Calibration) -> Json {
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
pub(crate) fn calibration_of(base: &Json) -> Calibration {
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

impl Job for ChannelSweepJob {
    fn id(&self) -> &'static str {
        "chansweep"
    }

    fn description(&self) -> &'static str {
        "link-layer BER/capacity sweep: every defense x modulation x noise"
    }

    fn units(&self, ctx: &JobContext) -> Vec<String> {
        let axis = sweep_axis();
        let noise = scale_of(ctx).link_noise_points();
        let mut units: Vec<String> = axis
            .iter()
            .map(|&(k, n)| format!("baseline:{}", axis_label(k, n)))
            .collect();
        for &(k, n) in &axis {
            for m in MODULATIONS {
                for i in &noise {
                    units.push(format!("link:{}:{m}:noise:{i}", axis_label(k, n)));
                }
            }
        }
        units
    }

    fn deps(&self, unit: usize, ctx: &JobContext) -> Vec<usize> {
        let axis = sweep_axis();
        let n_noise = scale_of(ctx).link_noise_points().len();
        match Self::decode(unit, axis.len(), n_noise) {
            Ok(_baseline) => Vec::new(),
            Err((a, _, _)) => vec![a],
        }
    }

    fn run_unit(&self, unit: usize, seed: u64, deps: &[Json], ctx: &JobContext) -> Json {
        let scale = scale_of(ctx);
        let axis = sweep_axis();
        let noise = scale.link_noise_points();
        match Self::decode(unit, axis.len(), noise.len()) {
            Ok(a) => {
                let (kind, nrh) = axis[a];
                let cfg = LinkConfig::against(kind, nrh, seed);
                // One calibration serves every modulation: the MLA(4)
                // run learns both the on/off threshold (its top level
                // is OOK/PPM's "on") and the amplitude bins.
                let cal = calibrate(
                    &cfg,
                    &MultiLevelAmplitude::new(4),
                    scale.link_calibration_reps(),
                );
                calibration_json(&cal)
                    .with("defense", axis_label(kind, nrh))
                    .with("nrh", u64::from(nrh))
            }
            Err((a, m, n)) => {
                let (kind, nrh) = axis[a];
                let cal = calibration_of(&deps[0]);
                let (modulator, codec) = modulation(m);
                let mut cfg = LinkConfig::against(kind, nrh, seed);
                if noise[n] > 0.0 {
                    cfg.noise_intensity = Some(noise[n]);
                }
                let bits = payload(scale);
                let out = transmit_message(&cfg, modulator.as_ref(), codec.as_ref(), &cal, &bits);
                Json::object()
                    .with("defense", axis_label(kind, nrh))
                    .with("nrh", u64::from(nrh))
                    .with("modulation", MODULATIONS[m])
                    .with("noise", noise[n])
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
    use lh_harness::ScaleLevel;

    fn ctx() -> JobContext {
        JobContext::new(ScaleLevel::Quick, 1)
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
    fn units_form_the_documented_dag() {
        let job = ChannelSweepJob;
        let units = job.units(&ctx());
        let axis = sweep_axis();
        let noise = Scale::Quick.link_noise_points();
        assert_eq!(
            units.len(),
            axis.len() * (1 + MODULATIONS.len() * noise.len())
        );
        for (i, unit) in units.iter().enumerate() {
            let deps = job.deps(i, &ctx());
            if unit.starts_with("baseline:") {
                assert!(deps.is_empty(), "{unit} must be a root");
            } else {
                assert_eq!(deps.len(), 1, "{unit} depends on its defense baseline");
                let base = &units[deps[0]];
                let axis_part = unit
                    .strip_prefix("link:")
                    .and_then(|u| u.rsplitn(4, ':').nth(3))
                    .expect("cell label shape");
                assert_eq!(base, &format!("baseline:{axis_part}"), "{unit}");
            }
        }
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
