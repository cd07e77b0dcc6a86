//! Adapters for the single-transmission and per-defense experiments:
//! Figs. 2/3/6, Table 3, §6.3 multibit, §9.1 counter leak, §10.3 cache
//! sensitivity, §11.4 countermeasures, §9 row policy and the §12
//! taxonomy.

use lh_harness::{Job, JobContext, Json};

use crate::experiment::covert::{run_covert, ChannelKind, CovertOptions};
use crate::experiment::{
    cache_sensitivity, counter_leak, countermeasures, latency_trace, multibit, row_policy, taxonomy,
};
use crate::registry::{num, off_wire_fingerprint, point_json, scale_of, sim_fingerprint, text};
use crate::report;

use lh_analysis::message::bits_of_str;
use lh_memctrl::RowPolicy;

/// Fig. 2 (+ §7.2): latency classes under PRAC and PRFM.
pub(crate) struct LatencyTraceJob;

impl Job for LatencyTraceJob {
    fn id(&self) -> &'static str {
        "fig2"
    }

    fn description(&self) -> &'static str {
        "memory-request latencies: conflicts, refreshes, back-offs"
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        vec!["prac:nbo128:600req".into(), "prfm:trfm40:500req".into()]
    }

    fn run_unit(&self, unit: usize, _seed: u64, _deps: &[Json], _ctx: &JobContext) -> Json {
        let out = if unit == 0 {
            latency_trace::run_latency_trace(
                lh_defenses::DefenseConfig::prac(128),
                600,
                lh_dram::Span::from_ns(30),
            )
        } else {
            latency_trace::run_latency_trace(
                lh_defenses::DefenseConfig::prfm(40),
                500,
                lh_dram::Span::from_ns(30),
            )
        };
        Json::object()
            .with("requests_per_backoff", opt_f64(out.requests_per_backoff))
            .with("requests_per_rfm", opt_f64(out.requests_per_rfm))
            .with("text", report::latency_trace_report(&out))
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object().with("sections", Json::Array(units))
    }

    fn fingerprint(&self) -> String {
        off_wire_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let sections = merged["sections"].as_array();
        let mut s = text(&sections[0], "text");
        s.push_str("--- under PRFM (sec. 7.2) ---\n");
        s.push_str(&text(&sections[1], "text"));
        s
    }
}

fn opt_f64(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::from_f64)
}

/// Figs. 3 and 6: one 40-bit "MICRO" transmission.
pub(crate) struct CovertJob {
    kind: ChannelKind,
    id: &'static str,
    desc: &'static str,
    label: &'static str,
}

impl CovertJob {
    /// The Fig. 3 PRAC transmission.
    pub(crate) const PRAC: CovertJob = CovertJob {
        kind: ChannelKind::Prac,
        id: "fig3",
        desc: "PRAC covert channel: 40-bit MICRO transmission",
        label: "PRAC covert channel, 40-bit MICRO",
    };

    /// The Fig. 6 RFM transmission.
    pub(crate) const RFM: CovertJob = CovertJob {
        kind: ChannelKind::Rfm,
        id: "fig6",
        desc: "RFM covert channel: 40-bit MICRO transmission",
        label: "RFM covert channel, 40-bit MICRO",
    };
}

impl Job for CovertJob {
    fn id(&self) -> &'static str {
        self.id
    }

    fn description(&self) -> &'static str {
        self.desc
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        vec!["micro:40bit".into()]
    }

    fn run_unit(&self, _unit: usize, seed: u64, _deps: &[Json], _ctx: &JobContext) -> Json {
        let mut opts = CovertOptions::new(self.kind, bits_of_str("MICRO"));
        opts.link.sim.seed = seed;
        let out = run_covert(&opts);
        let mut s = report::covert_report(self.label, &out);
        s.push_str(&format!(
            "decoded: {:?}\n",
            lh_analysis::str_of_bits(&out.decoded)
        ));
        Json::object()
            .with("raw_kbps", out.result.raw_kbps())
            .with("bit_errors", out.result.bit_errors)
            .with("bits", out.result.bits)
            .with("error_probability", out.result.error_probability())
            .with("capacity_kbps", out.result.capacity_kbps())
            .with("backoffs", out.backoffs)
            .with("rfms", out.rfms)
            // Scheduling pressure: how many scheduled maintenance
            // operations (FR-RFM RFMs) hit their deadline exactly vs
            // slipped past it.
            .with("maintenance_on_time", out.defense_stats.maintenance_on_time)
            .with(
                "maintenance_deferred",
                out.defense_stats.maintenance_deferred,
            )
            .with("decoded", lh_analysis::str_of_bits(&out.decoded))
            .with("text", s)
    }

    fn finish(&self, mut units: Vec<Json>, _ctx: &JobContext) -> Json {
        units.pop().expect("one unit")
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        text(merged, "text")
    }
}

/// Table 3: leaked information by colocation granularity (static).
pub(crate) struct Table3Job;

impl Job for Table3Job {
    fn id(&self) -> &'static str {
        "table3"
    }

    fn description(&self) -> &'static str {
        "leaked information by colocation granularity"
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        vec!["capability-matrix".into()]
    }

    fn run_unit(&self, _unit: usize, _seed: u64, _deps: &[Json], _ctx: &JobContext) -> Json {
        Json::object().with("text", report::table3_report())
    }

    fn finish(&self, mut units: Vec<Json>, _ctx: &JobContext) -> Json {
        units.pop().expect("one unit")
    }

    fn fingerprint(&self) -> String {
        off_wire_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        text(merged, "text")
    }
}

/// §6.3: binary/ternary/quaternary channels.
pub(crate) struct MultibitJob;

impl MultibitJob {
    const BASES: [u8; 3] = [2, 3, 4];
}

impl Job for MultibitJob {
    fn id(&self) -> &'static str {
        "multibit"
    }

    fn description(&self) -> &'static str {
        "binary/ternary/quaternary channels (sec. 6.3)"
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        Self::BASES.iter().map(|b| format!("base:{b}")).collect()
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        let bytes = if scale_of(ctx) == crate::Scale::Quick {
            6
        } else {
            32
        };
        let out = multibit::run_multibit(Self::BASES[unit], bytes, seed);
        Json::object()
            .with("base", u64::from(out.base))
            .with("raw_kbps", out.raw_kbps)
            .with("error_probability", out.error_probability)
            .with("capacity_kbps", out.capacity_kbps)
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object().with("points", Json::Array(units))
    }

    fn version(&self) -> u32 {
        // v2: runs on the lh-link pipeline (preamble-synchronized, link
        // tuning) instead of the bespoke sender/receiver pair.
        2
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let rows: Vec<Vec<String>> = merged["points"]
            .as_array()
            .iter()
            .map(|p| {
                vec![
                    p["base"].as_u64().unwrap_or(0).to_string(),
                    format!("{:.1}", num(p, "raw_kbps")),
                    format!("{:.3}", num(p, "error_probability")),
                    format!("{:.1}", num(p, "capacity_kbps")),
                ]
            })
            .collect();
        report::table(&["base", "raw Kbps", "error prob", "capacity Kbps"], &rows)
    }
}

/// §9.1: activation-counter value leak.
pub(crate) struct CounterLeakJob;

impl Job for CounterLeakJob {
    fn id(&self) -> &'static str {
        "counterleak"
    }

    fn description(&self) -> &'static str {
        "activation-counter value leak (sec. 9.1)"
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        vec!["leak-trials".into()]
    }

    fn run_unit(&self, _unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        let out = counter_leak::run_counter_leak(scale_of(ctx).leak_trials(), seed);
        Json::object()
            .with("nbo", out.nbo)
            .with("trials", out.trials.len())
            .with("mean_abs_error", out.mean_abs_error)
            .with("mean_elapsed_us", out.mean_elapsed_us)
            .with("throughput_kbps", out.throughput_kbps)
            .with("text", report::counter_leak_report(&out))
    }

    fn finish(&self, mut units: Vec<Json>, _ctx: &JobContext) -> Json {
        units.pop().expect("one unit")
    }

    fn fingerprint(&self) -> String {
        off_wire_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        text(merged, "text")
    }
}

/// §10.3: larger caches + prefetching.
pub(crate) struct CacheSensitivityJob;

impl Job for CacheSensitivityJob {
    fn id(&self) -> &'static str {
        "cache"
    }

    fn description(&self) -> &'static str {
        "larger caches + prefetching (sec. 10.3)"
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        vec!["channel:prac".into(), "channel:rfm".into()]
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        let kind = [ChannelKind::Prac, ChannelKind::Rfm][unit];
        let bits = scale_of(ctx).message_bits() / 4;
        let p = cache_sensitivity::cache_point(kind, bits, seed);
        Json::object()
            .with("channel", format!("{kind:?}"))
            .with("baseline_kbps", p.baseline_kbps)
            .with("large_kbps", p.large_kbps)
            .with("change_pct", p.change_pct())
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object().with("points", Json::Array(units))
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let rows: Vec<Vec<String>> = merged["points"]
            .as_array()
            .iter()
            .map(|p| {
                vec![
                    text(p, "channel"),
                    format!("{:.1}", num(p, "baseline_kbps")),
                    format!("{:.1}", num(p, "large_kbps")),
                    format!("{:+.1}%", num(p, "change_pct")),
                ]
            })
            .collect();
        report::table(
            &["channel", "Table-1 Kbps", "large+BOP Kbps", "change"],
            &rows,
        )
    }
}

/// §11.4: countermeasure capacity reduction.
pub(crate) struct MitigationJob;

impl Job for MitigationJob {
    fn id(&self) -> &'static str {
        "mitigation"
    }

    fn description(&self) -> &'static str {
        "countermeasure capacity reduction (sec. 11.4)"
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        countermeasures::mitigation_arms()
            .iter()
            .map(|arm| format!("arm:{}", arm.label))
            .collect()
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        let arm = countermeasures::mitigation_arms().swap_remove(unit);
        let bits = scale_of(ctx).message_bits() / 4;
        let p = countermeasures::attack_capacity(&arm, bits, seed);
        point_json("defense", arm.label, &p)
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        // The baseline (plain PRAC) is unit 0 by construction.
        let baseline = num(&units[0], "capacity_kbps");
        let points: Vec<Json> = units
            .into_iter()
            .map(|p| {
                let reduction = countermeasures::reduction_pct(baseline, num(&p, "capacity_kbps"));
                p.with("reduction_pct", reduction)
            })
            .collect();
        Json::object().with("points", Json::Array(points))
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let rows: Vec<Vec<String>> = merged["points"]
            .as_array()
            .iter()
            .map(|p| {
                vec![
                    text(p, "defense"),
                    format!("{:.3}", num(p, "error_probability")),
                    format!("{:.1}", num(p, "capacity_kbps")),
                    format!("{:.0}%", num(p, "reduction_pct")),
                ]
            })
            .collect();
        report::table(
            &["defense", "error prob", "capacity Kbps", "reduction"],
            &rows,
        )
    }
}

/// §9: closed-row policy vs DRAMA and LeakyHammer.
pub(crate) struct RowPolicyJob;

impl Job for RowPolicyJob {
    fn id(&self) -> &'static str {
        "rowpolicy"
    }

    fn description(&self) -> &'static str {
        "closed-row policy vs DRAMA and LeakyHammer (sec. 9)"
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        vec!["policy:open".into(), "policy:closed".into()]
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        let policy = [RowPolicy::Open, RowPolicy::Closed][unit];
        let bits = scale_of(ctx).message_bits() / 8;
        let p = row_policy::row_policy_point(policy, bits, seed);
        Json::object()
            .with("policy", format!("{policy:?}"))
            .with("drama_kbps", p.drama_kbps)
            .with("leakyhammer_kbps", p.leakyhammer_kbps)
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object().with("points", Json::Array(units))
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let rows: Vec<Vec<String>> = merged["points"]
            .as_array()
            .iter()
            .map(|p| {
                vec![
                    text(p, "policy"),
                    format!("{:.1}", num(p, "drama_kbps")),
                    format!("{:.1}", num(p, "leakyhammer_kbps")),
                ]
            })
            .collect();
        report::table(&["row policy", "DRAMA Kbps", "LeakyHammer Kbps"], &rows)
    }
}

/// §12: the defense taxonomy, qualitative and measured.
pub(crate) struct TaxonomyJob;

impl Job for TaxonomyJob {
    fn id(&self) -> &'static str {
        "taxonomy"
    }

    fn description(&self) -> &'static str {
        "defense taxonomy (sec. 12)"
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        taxonomy::taxonomy_kinds()
            .iter()
            .map(|k| format!("class:{}", k.label()))
            .collect()
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        let kind = taxonomy::taxonomy_kinds()[unit];
        let bits = taxonomy::taxonomy_bits(kind, scale_of(ctx));
        let p = taxonomy::taxonomy_point(kind, bits, seed);
        let profile = lh_defenses::taxonomy::profile_of(kind);
        let predicted = profile.map(|pr| pr.channel_risk());
        Json::object()
            .with(
                "defense",
                if kind == lh_defenses::DefenseKind::None {
                    "(control)".to_owned()
                } else {
                    kind.label().to_owned()
                },
            )
            .with(
                "trigger",
                profile.map_or("-".to_owned(), |pr| format!("{:?}", pr.trigger)),
            )
            .with(
                "visibility",
                profile.map_or("-".to_owned(), |pr| format!("{:?}", pr.visibility)),
            )
            .with(
                "predicted",
                predicted.map_or("-".to_owned(), |r| format!("{r:?}")),
            )
            .with("quiet_kbps", p.quiet_kbps)
            .with("noisy_kbps", p.noisy_kbps)
            .with("agrees", p.agrees(predicted))
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object()
            .with("qualitative", report::taxonomy_report())
            .with("points", Json::Array(units))
    }

    fn fingerprint(&self) -> String {
        sim_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let rows: Vec<Vec<String>> = merged["points"]
            .as_array()
            .iter()
            .map(|p| {
                vec![
                    text(p, "defense"),
                    text(p, "trigger"),
                    text(p, "visibility"),
                    text(p, "predicted"),
                    format!("{:.1}", num(p, "quiet_kbps")),
                    format!("{:.1}", num(p, "noisy_kbps")),
                    if p["agrees"].as_bool().unwrap_or(false) {
                        "yes".into()
                    } else {
                        "NO".into()
                    },
                ]
            })
            .collect();
        let mut s = String::from("--- qualitative (sec. 12) ---\n");
        s.push_str(&text(merged, "qualitative"));
        s.push_str("--- measured (covert-channel attempt per class) ---\n");
        s.push_str(&report::table(
            &[
                "defense",
                "trigger",
                "visibility",
                "predicted",
                "quiet Kbps",
                "noisy Kbps",
                "agrees",
            ],
            &rows,
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_harness::ScaleLevel;

    fn arm(label: &str, capacity_kbps: f64) -> Json {
        Json::object()
            .with("defense", label)
            .with("error_probability", 0.0)
            .with("capacity_kbps", capacity_kbps)
    }

    fn reductions(units: Vec<Json>) -> Vec<f64> {
        let ctx = JobContext::new(ScaleLevel::Quick, 1);
        MitigationJob.finish(units, &ctx)["points"]
            .as_array()
            .iter()
            .map(|p| num(p, "reduction_pct"))
            .collect()
    }

    #[test]
    fn mitigation_reductions_are_relative_to_unit_zero() {
        // The baseline is whatever unit 0 measured, not the largest arm
        // nor an arm found by label.
        let units = vec![arm("PRAC", 40.0), arm("x", 10.0), arm("y", 0.0)];
        assert_eq!(reductions(units), vec![0.0, 75.0, 100.0]);
        let units = vec![arm("renamed", 20.0), arm("PRAC", 40.0), arm("z", 5.0)];
        assert_eq!(reductions(units), vec![0.0, 0.0, 75.0]);
    }

    #[test]
    fn mitigation_reductions_clamp_at_zero() {
        // A wrapper that widens the channel reads 0 %, never negative.
        assert_eq!(
            reductions(vec![arm("PRAC", 40.0), arm("wider", 50.0)]),
            vec![0.0, 0.0]
        );
        // A dead baseline leaves nothing to reduce: 0 %, not NaN.
        assert_eq!(
            reductions(vec![arm("PRAC", 0.0), arm("a", 0.0), arm("b", 3.0)]),
            vec![0.0, 0.0, 0.0]
        );
    }
}
