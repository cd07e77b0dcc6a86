//! The benchmark's specification: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is `lh-benchmark --print-spec`; a unit test keeps the
//! two identical.

use lh_harness::Json;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// One metric of the specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused (`0.0`) for per-layer metrics.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: "lower",
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "perf_sweep",
        "Fig. 13 quick grid (2 four-core mixes x 5 defenses x 5 N_RH) straight on lh-sim lanes and batched controller service; bypasses harness, coord and serve",
    ),
    (
        "covert_channels",
        "fig3/fig6/fig4/fig7/mitsweep/chansweep through a 1-thread Runner: legacy service path, shallow queues, link pipeline, trackers, mitigation wrappers; carries the paper-fidelity check",
    ),
    (
        "resident_warm",
        "warm replay of all 22 cached experiments through Runner, Coordinator and the HTTP service: no simulation, only cache reads, JSON, coord wire and HTTP",
    ),
    (
        "all_quick_cold",
        "cold quick catalogue (the 18 light jobs) with 2 pool threads, then with 2 worker processes: every layer incl. lh-ml and browser traces, cache writes, DAG pool and dispatch cost",
    ),
];

/// Metrics a user of the system sees; every workload reports all four.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", 0.25),
    e2e("run_s", "s", 0.25),
    e2e("host_ns_per_cmd", "ns", 0.25),
    e2e("peak_rss_mb", "MB", 0.10),
];

/// Metrics of single layers, reported by the traced run. Those measured
/// on the workload's own traced repetitions read `0` where the workload
/// bypasses the layer; the layer drivers' read the same on every
/// workload.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("workloads.gen_ns_per_access", "ns", "lower"),
    layer("workloads.browser_gen_ns_per_access", "ns", "lower"),
    layer("sim.lane_batch_s", "s", "lower"),
    layer("sim.run_until_s", "s", "lower"),
    layer("sim.unit_run_s", "s", "lower"),
    layer("sim.cache_access_ns", "ns", "lower"),
    layer("sim.build_us_per_system", "us", "lower"),
    layer("sim.systems", "count", "lower"),
    layer("sim.service_wakes", "count", "lower"),
    layer("sim.cache_probes", "count", "lower"),
    layer("sim.cmds", "count", "lower"),
    layer("sim.wakes_per_cmd", "ratio", "lower"),
    layer("memctrl.service_ns_per_wake.mix", "ns", "lower"),
    layer("memctrl.service_ns_per_wake.deep", "ns", "lower"),
    layer("memctrl.service_ns_per_wake.hammer", "ns", "lower"),
    layer("memctrl.service_batched_ns_per_wake.mix", "ns", "lower"),
    layer("memctrl.service_batched_ns_per_wake.deep", "ns", "lower"),
    layer("memctrl.service_batched_ns_per_wake.hammer", "ns", "lower"),
    layer("memctrl.wakes_per_request.mix", "ratio", "lower"),
    layer("memctrl.wakes_per_request.deep", "ratio", "lower"),
    layer("memctrl.wakes_per_request.hammer", "ratio", "lower"),
    layer("memctrl.cmds_per_wake.mix", "ratio", "higher"),
    layer("dram.earliest_legal_ns", "ns", "lower"),
    layer("dram.issue_ns", "ns", "lower"),
    layer("dram.cmds", "count", "lower"),
    layer("defenses.on_activate_ns.prac", "ns", "lower"),
    layer("defenses.on_activate_ns.prfm", "ns", "lower"),
    layer("defenses.on_activate_ns.frrfm", "ns", "lower"),
    layer("defenses.on_activate_ns.graphene", "ns", "lower"),
    layer("defenses.on_activate_ns.comet", "ns", "lower"),
    layer("defenses.take_maintenance_ns.prfm", "ns", "lower"),
    layer("defenses.take_maintenance_ns.frrfm", "ns", "lower"),
    layer("defenses.maint_per_kact.prfm", "ratio", "lower"),
    layer("defenses.maint_per_kact.frrfm", "ratio", "lower"),
    layer("defenses.maint_per_kact.graphene", "ratio", "lower"),
    layer("mitigate.wrap_overhead_ns.shaper", "ns", "lower"),
    layer("mitigate.wrap_overhead_ns.quota", "ns", "lower"),
    layer("link.calibrate_s", "s", "lower"),
    layer("link.transmit_s", "s", "lower"),
    layer("link.host_us_per_window", "us", "lower"),
    layer("link.codec_ns_per_bit", "ns", "lower"),
    layer("attacks.covert_run_s.prac", "s", "lower"),
    layer("attacks.covert_run_s.rfm", "s", "lower"),
    layer("attacks.host_us_per_bit", "us", "lower"),
    layer("attacks.paper_capacity_err", "ratio", "lower"),
    layer("ml.collect_dataset_s", "s", "lower"),
    layer("ml.model_comparison_s", "s", "lower"),
    layer("ml.table2_s", "s", "lower"),
    layer("harness.json_parse_mb_s", "MB/s", "higher"),
    layer("harness.json_render_mb_s", "MB/s", "higher"),
    layer("harness.cache_get_us", "us", "lower"),
    layer("harness.cache_put_us", "us", "lower"),
    layer("harness.envelope_render_ms", "ms", "lower"),
    layer("harness.dag_us_per_unit.jobs1", "us", "lower"),
    layer("harness.dag_us_per_unit.jobs2", "us", "lower"),
    layer("harness.pool_efficiency", "ratio", "higher"),
    layer("harness.units_executed", "count", "lower"),
    layer("harness.units_cached", "count", "higher"),
    layer("harness.unit_self_s", "s", "lower"),
    layer("harness.warm_replay_ms_p50", "ms", "lower"),
    layer("harness.jobs_run_s", "s", "lower"),
    layer("coord.wire_us_per_msg", "us", "lower"),
    layer("coord.dag_us_per_unit", "us", "lower"),
    layer("coord.warm_all_ms_p50", "ms", "lower"),
    layer("coord.workers_run_s", "s", "lower"),
    layer("coord.requeued", "count", "lower"),
    layer("coord.respawns", "count", "lower"),
    layer("serve.submit_ms_p50", "ms", "lower"),
    layer("serve.first_byte_ms_p50", "ms", "lower"),
    layer("serve.rt_ms_p50", "ms", "lower"),
    layer("serve.rt_ms_p95", "ms", "lower"),
    layer("serve.metrics_scrape_ms_p50", "ms", "lower"),
    layer("serve.healthz_ms_p50", "ms", "lower"),
    layer("serve.http_errors", "count", "lower"),
    layer("obs.record_overhead_ns", "ns", "lower"),
    layer("obs.flight_on_slowdown", "ratio", "lower"),
    layer("obs.trace_on_slowdown", "ratio", "lower"),
    layer("trace.rep_s", "s", "lower"),
    layer("trace.rep_self_s", "s", "lower"),
    layer("trace.span_coverage", "ratio", "higher"),
];

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricSpec, bounded: bool| {
        let mut j = Json::object()
            .with("name", m.name)
            .with("unit", m.unit)
            .with("better", m.better);
        if bounded {
            j.set("bound", m.bound);
        }
        j
    };
    Json::object()
        .with(
            "command",
            Json::Array(vec!["bash".into(), "benchmark/run.sh".into()]),
        )
        .with("paths", Json::Array(vec!["benchmark".into()]))
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| Json::object().with("name", *name).with("why", *why))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        )
        .with(
            "per_layer",
            Json::Array(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        )
        .to_pretty()
        + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "bad name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "name {name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.unit, 16, "_/%.-"), "bad unit {}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_specification() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `lh-benchmark --print-spec > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
