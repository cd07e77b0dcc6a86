//! Per-layer metrics: what the traced repetitions say about each layer,
//! and the seeded layer drivers that call a layer's public API directly.

mod attacks;
mod coord;
mod defenses;
mod dram;
mod harness;
mod memctrl;
mod ml;
mod obs;
mod sim;

use std::time::Instant;

use lh_obs::Metrics;

use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::workloads::all_quick_cold::PARALLELISM;
use crate::workloads::{cmds, Rep, RunConfig};

/// The SplitMix64 finalizer: a stateless hash of `x`.
pub fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: the drivers' own seeded generator, independent of the
/// program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }

    /// `true` with probability `percent` / 100.
    pub fn chance(&mut self, percent: u32) -> bool {
        self.below(100) < percent
    }
}

/// Host nanoseconds per call of `f`, over `n` calls.
pub fn ns_per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        f(i);
    }
    started.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// Host seconds of one call of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// The per-layer metrics measured on the workload's own traced
/// repetitions: the program's spans (`unit.run`, `sim.run_until`,
/// `sim.lane_batch`) and counters, the client-side latency samples, and
/// the span tree's accounting. Values are per repetition; a layer the
/// workload bypasses reads 0.
pub fn trace_metrics(
    report: &mut Report,
    rec: &Recorder,
    reps: &[Rep],
    untraced_s: &[f64],
    traced_s: &[f64],
) {
    let n = reps.len().max(1) as f64;
    let per_rep = |total: f64| total / n;
    report.metric("sim.lane_batch_s", per_rep(rec.total_s("sim.lane_batch")));
    report.metric("sim.run_until_s", per_rep(rec.total_s("sim.run_until")));
    report.metric("sim.unit_run_s", per_rep(rec.total_s("unit.run")));
    report.metric("harness.unit_self_s", per_rep(rec.self_s("unit.run")));

    let mut executed = Metrics::new();
    for rep in reps {
        executed.merge(&rep.executed);
    }
    let commands = cmds(&executed) as f64;
    let wakes = executed.get("sim.service_wakes") as f64;
    let probes =
        (executed.get("sim.cache.probe_hits") + executed.get("sim.cache.probe_misses")) as f64;
    report.metric("sim.systems", per_rep(executed.get("sim.systems") as f64));
    report.metric("sim.service_wakes", per_rep(wakes));
    report.metric("sim.cache_probes", per_rep(probes));
    report.metric("sim.cmds", per_rep(commands));
    report.metric(
        "sim.wakes_per_cmd",
        if commands > 0.0 {
            wakes / commands
        } else {
            0.0
        },
    );
    let units = |f: fn(&Rep) -> u64| per_rep(reps.iter().map(f).sum::<u64>() as f64);
    report.metric("harness.units_executed", units(|r| r.units_executed));
    report.metric("harness.units_cached", units(|r| r.units_cached));
    let last = |f: fn(&Rep) -> u64| reps.iter().map(f).max().unwrap_or(0) as f64;
    report.metric("coord.requeued", last(|r| r.requeued));
    report.metric("coord.respawns", last(|r| r.respawns));

    let samples = |name: &str| -> Vec<f64> {
        reps.iter()
            .filter_map(|r| r.samples.get(name))
            .flatten()
            .copied()
            .collect()
    };
    for (metric, sample) in [
        ("harness.warm_replay_ms_p50", "harness.warm_replay_ms"),
        ("harness.jobs_run_s", "harness.jobs_run_s"),
        ("coord.warm_all_ms_p50", "coord.warm_all_ms"),
        ("coord.workers_run_s", "coord.workers_run_s"),
        ("serve.submit_ms_p50", "serve.submit_ms"),
        ("serve.first_byte_ms_p50", "serve.first_byte_ms"),
        ("serve.rt_ms_p50", "serve.rt_ms"),
        ("serve.metrics_scrape_ms_p50", "serve.metrics_scrape_ms"),
        ("serve.healthz_ms_p50", "serve.healthz_ms"),
    ] {
        report.metric(metric, median(&samples(sample)));
    }
    let round_trips = samples("serve.rt_ms");
    report.metric("serve.rt_ms_p95", percentile(&round_trips, 95.0));
    report.metric(
        "serve.http_errors",
        samples("serve.http_errors").len() as f64,
    );
    if !round_trips.is_empty() {
        report.note("serve.rt_ms", crate::stats::describe(&round_trips, "ms"));
    }

    // Share of the two pool threads' time the units kept busy.
    let pool_wall = rec.total_s("cold.jobs");
    report.metric(
        "harness.pool_efficiency",
        if pool_wall > 0.0 {
            rec.total_s_under("unit.run", "cold.jobs") / (PARALLELISM as f64 * pool_wall)
        } else {
            0.0
        },
    );

    let rep_total = rec.total_s("rep");
    let rep_self = rec.self_s("rep");
    report.metric("trace.rep_s", median(traced_s));
    report.metric("trace.rep_self_s", per_rep(rep_self));
    report.metric(
        "trace.span_coverage",
        if rep_total > 0.0 {
            1.0 - rep_self / rep_total
        } else {
            0.0
        },
    );
    report.metric(
        "obs.trace_on_slowdown",
        median(traced_s) / median(untraced_s),
    );
}

/// Runs every layer driver. Their inputs come from `cfg.seed` alone, so
/// they read the same (up to host noise) whatever the workload.
pub fn run_drivers(cfg: &RunConfig, report: &mut Report) {
    sim::drive(cfg, report);
    memctrl::drive(cfg, report);
    dram::drive(cfg, report);
    defenses::drive(cfg, report);
    attacks::drive(cfg, report);
    ml::drive(cfg, report);
    harness::drive(cfg, report);
    coord::drive(cfg, report);
    obs::drive(cfg, report);
}
