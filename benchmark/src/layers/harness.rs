//! `harness` driver: the JSON stack, the disk cache, envelope assembly,
//! and DAG scheduling cost with no simulation in it.

use std::hint::black_box;

use lh_harness::cache::CacheKey;
use lh_harness::runner::RunStats;
use lh_harness::{
    json, sink, DiskCache, ExperimentRun, JobContext, OutputFormat, Runner, RunnerOptions,
    ScaleLevel,
};

use crate::layers::{ns_per_call, timed};
use crate::noop::{NoopJob, UNITS};
use crate::report::Report;
use crate::workloads::{snapshot_path, RunConfig};

/// Parse and render passes over the two reference documents.
const JSON_PASSES: u64 = 20;
/// Cache entries written, then read.
const CACHE_ENTRIES: u64 = 300;
/// Envelope renders.
const RENDERS: u64 = 20;

pub fn drive(cfg: &RunConfig, report: &mut Report) {
    // The largest committed documents: the fig13 quick envelope and the
    // merged metrics report.
    let fig13 = std::fs::read_to_string(snapshot_path(cfg, "fig13")).unwrap_or_default();
    let metrics_report = std::fs::read_to_string(
        cfg.root
            .join("crates/bench/snapshots/metrics/report.quick.json"),
    )
    .unwrap_or_default();
    report.checks.check(
        "the reference documents under crates/bench/snapshots are readable",
        !fig13.is_empty() && !metrics_report.is_empty(),
    );
    let texts = [fig13.as_str(), metrics_report.as_str()];
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    let mb = (bytes as u64 * JSON_PASSES) as f64 / 1e6;
    let parse_ns = ns_per_call(JSON_PASSES, |_| {
        for text in texts {
            black_box(json::parse(text).is_ok());
        }
    });
    report.metric(
        "harness.json_parse_mb_s",
        mb / (parse_ns * JSON_PASSES as f64 / 1e9),
    );
    let docs: Vec<_> = texts.iter().filter_map(|t| json::parse(t).ok()).collect();
    let render_ns = ns_per_call(JSON_PASSES, |_| {
        for doc in &docs {
            black_box(doc.to_pretty().len());
        }
    });
    report.metric(
        "harness.json_render_mb_s",
        mb / (render_ns * JSON_PASSES as f64 / 1e9),
    );

    // Unit-entry-sized values: the fig13 envelope's first unit counters.
    let Some(envelope) = docs.first() else { return };
    let entry = lh_harness::wrap_entry(
        envelope["metrics"]["units"].as_object()[0].1.clone(),
        envelope["result"]["cells"][0].clone(),
    );
    let cache = DiskCache::new(cfg.tmp.join("driver-cache"));
    let key = |i: u64| CacheKey {
        experiment: "bench".into(),
        unit: format!("unit:{i}"),
        scale: "quick".into(),
        seed: cfg.seed,
        job_version: 1,
        fingerprint: String::new(),
    };
    let mut stored = true;
    let put_ns = ns_per_call(CACHE_ENTRIES, |i| {
        stored &= cache.put(&key(i), &entry).is_ok()
    });
    let mut found = true;
    let get_ns = ns_per_call(CACHE_ENTRIES, |i| {
        found &= cache.get(&key(i)).as_ref() == Some(&entry)
    });
    report
        .checks
        .check("the cache returns what was stored", stored && found);
    report.metric("harness.cache_put_us", put_ns / 1e3);
    report.metric("harness.cache_get_us", get_ns / 1e3);

    // Envelope assembly from a finished run, against the committed bytes.
    let registry = leakyhammer::registry();
    let job = registry.get("fig13").expect("fig13 is in the registry");
    let ctx = JobContext::new(ScaleLevel::Quick, 1);
    let run = ExperimentRun {
        id: "fig13",
        merged: envelope["result"].clone(),
        metrics: envelope["metrics"].clone(),
        events: None,
        stats: RunStats::default(),
    };
    let mut same = true;
    let render_ns = ns_per_call(RENDERS, |_| {
        same &= sink::render(job, &run, &ctx, OutputFormat::Json) == fig13;
    });
    report.checks.check(
        "the rendered fig13 envelope equals the committed bytes",
        same,
    );
    report.metric("harness.envelope_render_ms", render_ns / 1e6);

    let ctx = JobContext::new(ScaleLevel::Quick, cfg.seed);
    for (name, jobs) in [("jobs1", 1), ("jobs2", 2)] {
        let runner = Runner::new(RunnerOptions {
            jobs,
            ..RunnerOptions::default()
        });
        let (run, secs) = timed(|| runner.run(&NoopJob, &ctx));
        report.checks.check(
            &format!("the no-op DAG runs on {jobs} pool thread(s)"),
            run.is_ok_and(|r| r.stats.units_executed == UNITS),
        );
        report.metric_for("harness.dag_us_per_unit", name, secs * 1e6 / UNITS as f64);
    }
}
