//! Adapters for the sweep experiments: noise sweeps (Figs. 4/7/11),
//! application-interference sweeps (Figs. 5/8) and the
//! preventive-action latency sweep (Fig. 12). Every sweep point is one
//! harness unit, so the whole figure shards across cores.

use lh_harness::{Job, JobContext, Json};

use crate::experiment::app_noise;
use crate::experiment::covert::ChannelKind;
use crate::experiment::latency_sweep;
use crate::experiment::noise_sweep;
use crate::registry::{num, point_json, point_table, scale_of, sim_fingerprint, text};

use lh_workloads::Intensity;

fn noise_table(points: &[Json]) -> String {
    point_table("noise %", points, |p| format!("{:.0}", num(p, "intensity")))
}

/// Figs. 4 and 7: covert-channel capacity vs noise intensity.
pub(crate) struct NoiseSweepJob {
    kind: ChannelKind,
    id: &'static str,
    desc: &'static str,
}

impl NoiseSweepJob {
    /// The Fig. 4 PRAC sweep.
    pub(crate) const PRAC: NoiseSweepJob = NoiseSweepJob {
        kind: ChannelKind::Prac,
        id: "fig4",
        desc: "PRAC covert channel vs noise intensity",
    };

    /// The Fig. 7 RFM sweep.
    pub(crate) const RFM: NoiseSweepJob = NoiseSweepJob {
        kind: ChannelKind::Rfm,
        id: "fig7",
        desc: "RFM covert channel vs noise intensity",
    };
}

impl Job for NoiseSweepJob {
    fn id(&self) -> &'static str {
        self.id
    }

    fn description(&self) -> &'static str {
        self.desc
    }

    fn units(&self, ctx: &JobContext) -> Vec<String> {
        scale_of(ctx)
            .noise_points()
            .iter()
            .map(|i| format!("noise:{i}"))
            .collect()
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        let scale = scale_of(ctx);
        let intensity = scale.noise_points()[unit];
        let p = noise_sweep::sweep_point(
            self.kind,
            4,
            true,
            intensity,
            scale.message_bits() / 4,
            seed,
        );
        point_json("intensity", intensity, &p)
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object().with("points", Json::Array(units))
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        noise_table(merged["points"].as_array())
    }
}

/// Figs. 5 and 8: covert-channel capacity vs SPEC-like interference.
pub(crate) struct AppNoiseJob {
    kind: ChannelKind,
    id: &'static str,
    desc: &'static str,
}

impl AppNoiseJob {
    const LEVELS: [Intensity; 3] = [Intensity::Low, Intensity::Medium, Intensity::High];

    /// The Fig. 5 PRAC series.
    pub(crate) const PRAC: AppNoiseJob = AppNoiseJob {
        kind: ChannelKind::Prac,
        id: "fig5",
        desc: "PRAC covert channel vs SPEC-like interference",
    };

    /// The Fig. 8 RFM series.
    pub(crate) const RFM: AppNoiseJob = AppNoiseJob {
        kind: ChannelKind::Rfm,
        id: "fig8",
        desc: "RFM covert channel vs SPEC-like interference",
    };
}

impl Job for AppNoiseJob {
    fn id(&self) -> &'static str {
        self.id
    }

    fn description(&self) -> &'static str {
        self.desc
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        Self::LEVELS
            .iter()
            .map(|l| format!("intensity:{}", l.label()))
            .collect()
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        let intensity = Self::LEVELS[unit];
        let p = app_noise::app_noise_point(
            self.kind,
            intensity,
            scale_of(ctx).message_bits() / 4,
            seed,
        );
        point_json("intensity", intensity.label(), &p)
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object().with("points", Json::Array(units))
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        point_table("intensity", merged["points"].as_array(), |p| {
            text(p, "intensity")
        })
    }
}

/// Fig. 11: 2-RFM / 1-RFM back-offs vs noise, plus the §10.1 modified
/// (cadence-filtered) 1-RFM attack.
pub(crate) struct RfmCountJob;

/// The three Fig. 11 panels.
const PANELS: [(&str, &str); 3] = [
    ("2rfm", "--- 2 RFM(s) per back-off ---"),
    ("1rfm", "--- 1 RFM(s) per back-off ---"),
    (
        "1rfm-filtered",
        "--- 1 RFM, sec. 10.1 modified attack (cadence-filtered) ---",
    ),
];

impl Job for RfmCountJob {
    fn id(&self) -> &'static str {
        "fig11"
    }

    fn description(&self) -> &'static str {
        "2-RFM / 1-RFM back-offs vs noise"
    }

    fn units(&self, ctx: &JobContext) -> Vec<String> {
        let points = scale_of(ctx).noise_points();
        PANELS
            .iter()
            .flat_map(|(panel, _)| points.iter().map(move |i| format!("{panel}:noise:{i}")))
            .collect()
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        let scale = scale_of(ctx);
        let points = scale.noise_points();
        let (panel, _) = PANELS[unit / points.len()];
        let intensity = points[unit % points.len()];
        let p = match panel {
            "2rfm" => noise_sweep::sweep_point(
                ChannelKind::Prac,
                2,
                false,
                intensity,
                scale.message_bits() / 4,
                seed,
            ),
            "1rfm" => noise_sweep::sweep_point(
                ChannelKind::Prac,
                1,
                false,
                intensity,
                scale.message_bits() / 4,
                seed,
            ),
            _ => noise_sweep::overlap_1rfm_point(true, intensity, scale.message_bits() / 8, seed),
        };
        point_json("intensity", intensity, &p).with("panel", panel)
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object().with("points", Json::Array(units))
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let mut s = String::new();
        for (panel, heading) in PANELS {
            let points: Vec<Json> = merged["points"]
                .as_array()
                .iter()
                .filter(|p| p["panel"].as_str() == Some(panel))
                .cloned()
                .collect();
            s.push_str(heading);
            s.push('\n');
            s.push_str(&noise_table(&points));
        }
        s
    }
}

/// Fig. 12: capacity vs preventive-action latency.
pub(crate) struct LatencySweepJob;

impl Job for LatencySweepJob {
    fn id(&self) -> &'static str {
        "fig12"
    }

    fn description(&self) -> &'static str {
        "capacity vs preventive-action latency"
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        latency_sweep::paper_grid()
            .iter()
            .map(|ns| format!("action:{ns}ns"))
            .collect()
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        let lat = latency_sweep::paper_grid()[unit];
        let p = latency_sweep::latency_sweep_point(lat, scale_of(ctx).message_bits() / 8, seed);
        point_json("action_latency_ns", lat, &p)
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object().with("points", Json::Array(units))
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        point_table("action ns", merged["points"].as_array(), |p| {
            p["action_latency_ns"].as_u64().unwrap_or(0).to_string()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_harness::ScaleLevel;

    #[test]
    fn fig11_unit_index_covers_every_panel_and_intensity_once() {
        // `run_unit` splits the index as (unit / points, unit % points);
        // `units` must lay the labels out the same way, panel-major,
        // and name every (panel, intensity) pair exactly once.
        for level in [ScaleLevel::Quick, ScaleLevel::Default] {
            let ctx = JobContext::new(level, 1);
            let points = scale_of(&ctx).noise_points();
            let units = RfmCountJob.units(&ctx);
            assert_eq!(units.len(), PANELS.len() * points.len());
            for (unit, label) in units.iter().enumerate() {
                let (panel, _) = PANELS[unit / points.len()];
                let intensity = points[unit % points.len()];
                assert_eq!(*label, format!("{panel}:noise:{intensity}"));
            }
            let mut sorted = units.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), units.len(), "a label repeats");
        }
    }

    #[test]
    fn fig11_renders_each_point_under_its_own_panel() {
        let ctx = JobContext::new(ScaleLevel::Quick, 1);
        // Hand-made units: capacity encodes the unit index.
        let units: Vec<Json> = RfmCountJob
            .units(&ctx)
            .iter()
            .enumerate()
            .map(|(i, label)| {
                let (panel, intensity) = label.split_once(":noise:").expect("panel:noise:x");
                Json::object()
                    .with("intensity", intensity.parse::<f64>().expect("intensity"))
                    .with("error_probability", 0.0)
                    .with("capacity_kbps", i as f64)
                    .with("panel", panel)
            })
            .collect();
        let n = units.len() / PANELS.len();
        let text = RfmCountJob.render_text(&RfmCountJob.finish(units, &ctx), &ctx);
        let sections: Vec<&str> = text.split("--- ").skip(1).collect();
        assert_eq!(sections.len(), PANELS.len());
        for (p, section) in sections.iter().enumerate() {
            for i in 0..PANELS.len() * n {
                let row = format!("{:.1}\n", i as f64);
                assert_eq!(
                    section.contains(&row),
                    i / n == p,
                    "unit {i} vs panel {p}:\n{section}"
                );
            }
        }
    }

    #[test]
    fn sweep_grids_have_the_quick_shape() {
        let ctx = JobContext::new(ScaleLevel::Quick, 1);
        assert_eq!(NoiseSweepJob::PRAC.units(&ctx).len(), 3);
        assert_eq!(NoiseSweepJob::RFM.units(&ctx).len(), 3);
        assert_eq!(AppNoiseJob::PRAC.units(&ctx).len(), 3);
    }
}
