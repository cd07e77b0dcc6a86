//! `coord` driver: the wire encoding of the two messages that carry
//! results, and DAG dispatch over a two-thread fleet with no simulation
//! in it.

use std::hint::black_box;

use lh_coord::protocol::parse_line;
use lh_coord::{Coordinator, CoordinatorOptions, FromWorker, ThreadSpawner, ToWorker};
use lh_harness::{json, JobContext, Json, ScaleLevel};

use crate::layers::{ns_per_call, timed};
use crate::noop::{self, NoopJob, UNITS};
use crate::report::Report;
use crate::workloads::{snapshot_path, RunConfig};

/// Round trips per message kind.
const ROUND_TRIPS: u64 = 2_000;

pub fn drive(cfg: &RunConfig, report: &mut Report) {
    // A fig13 cell assignment with its baseline dependency, and the
    // completion carrying the cell's counters.
    let envelope = std::fs::read_to_string(snapshot_path(cfg, "fig13"))
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or(Json::Null);
    let unit_metrics = envelope["metrics"]["units"]
        .as_object()
        .last()
        .map_or(Json::Null, |(_, counters)| counters.clone());
    let assign = ToWorker::Assign {
        experiment: "fig13".into(),
        unit: 2,
        scale: "quick".into(),
        seed: cfg.seed,
        events: false,
        events_cap: 65_536,
        deps: vec![Json::object()
            .with("mix", 0)
            .with("sim_seed", cfg.seed)
            .with("base_ws", 3.25)
            .with(
                "alone_instructions",
                Json::Array((0..4).map(|i| Json::from(100_000u64 + i)).collect()),
            )],
    };
    let done = FromWorker::Done {
        experiment: "fig13".into(),
        unit: 2,
        wall_ms: 40,
        metrics: unit_metrics,
        result: envelope["result"]["cells"][0].clone(),
        events: None,
    };
    let mut intact = true;
    let wire_ns = ns_per_call(ROUND_TRIPS, |_| {
        let line = assign.to_json().to_compact();
        intact &= parse_line(&line)
            .and_then(|m| ToWorker::from_json(&m))
            .as_ref()
            == Ok(&assign);
        let line = done.to_json().to_compact();
        intact &= parse_line(&line)
            .and_then(|m| FromWorker::from_json(&m))
            .as_ref()
            == Ok(&done);
        black_box(line.len());
    });
    report
        .checks
        .check("coord messages survive the wire encoding", intact);
    report.metric("coord.wire_us_per_msg", wire_ns / 2e3);

    let mut coordinator = Coordinator::new(
        Box::new(ThreadSpawner::new(noop::registry)),
        CoordinatorOptions::default(),
    );
    let ctx = JobContext::new(ScaleLevel::Quick, cfg.seed);
    let (run, secs) = timed(|| coordinator.run(&NoopJob, &ctx));
    coordinator.shutdown();
    report.checks.check(
        "the no-op DAG runs on a two-worker fleet",
        run.is_ok_and(|r| r.stats.units_executed == UNITS),
    );
    report.metric("coord.dag_us_per_unit", secs * 1e6 / UNITS as f64);
}
