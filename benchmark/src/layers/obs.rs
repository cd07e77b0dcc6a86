//! `obs` driver: what the observability channels cost when they are on.

use leakyhammer::analysis::AppPerf;
use leakyhammer::experiment::perf::{run_perf_cell, MixBaseline};
use leakyhammer::Scale;
use lh_defenses::DefenseKind;
use lh_obs::Counter;

use crate::layers::timed;
use crate::report::Report;
use crate::stats::median;
use crate::workloads::{cmds, RunConfig};

const PROBE: Counter = Counter::new("bench.obs.probe");
/// Counter increments inside one `record` scope.
const INCREMENTS: u64 = 2_000_000;
/// Cell simulations per side of the flight comparison.
const CELLS: usize = 3;

pub fn drive(cfg: &RunConfig, report: &mut Report) {
    let ((), outside) = timed(|| (0..INCREMENTS).for_each(|_| PROBE.add(1)));
    let (((), recorded), inside) =
        timed(|| lh_obs::record(|| (0..INCREMENTS).for_each(|_| PROBE.add(1))));
    report.checks.check(
        "a record scope counts every increment",
        recorded.get(PROBE.name()) == INCREMENTS,
    );
    report.metric(
        "obs.record_overhead_ns",
        ((inside - outside) * 1e9 / INCREMENTS as f64).max(0.0),
    );

    // One PRAC cell at N_RH 256 with the flight recorder capturing every
    // command, against the same cell without it. The baseline only
    // normalises the cell's result, so a placeholder will do.
    let baseline = MixBaseline {
        alone: vec![
            AppPerf {
                instructions: 1,
                seconds: 1.0,
            };
            4
        ],
        base_ws: 1.0,
    };
    let cell = || {
        lh_obs::record(|| {
            run_perf_cell(
                0,
                cfg.seed,
                cfg.seed,
                DefenseKind::Prac,
                256,
                &baseline,
                Scale::Quick,
            )
        })
    };
    let plain: Vec<f64> = (0..CELLS).map(|_| timed(cell).1).collect();
    lh_obs::flight::enable();
    let mut events = 0;
    let mut commands = 0;
    let captured: Vec<f64> = (0..CELLS)
        .map(|_| {
            let (((_, counters), log), secs) = timed(|| lh_obs::flight::capture(cell));
            events = log.len() + log.dropped().values().sum::<u64>() as usize;
            commands = cmds(&counters);
            secs
        })
        .collect();
    lh_obs::flight::set_enabled(false);
    report.checks.check(
        "the flight recorder sees at least one event per simulated command",
        events as u64 >= commands && commands > 0,
    );
    report.metric("obs.flight_on_slowdown", median(&captured) / median(&plain));
}
