//! `covert_channels`: the channel experiments through a one-thread
//! `Runner` with no cache.
//!
//! The same controller used differently from `perf_sweep`: fig3/fig6
//! (the paper's two headline transmissions) and fig4/fig7 take the
//! legacy `MemoryController::service` path with two or three attacker
//! processes hammering one bank with flushed reads and latency probes —
//! shallow queues, maintenance-heavy; mitsweep and chansweep run the
//! `lh-link` pipeline, the tracker defenses and the `lh-mitigate`
//! wrappers over single-lane batched service.

use lh_harness::{json, Registry, Runner, RunnerOptions, ScaleLevel};

use crate::report::{Checks, Report};
use crate::spans::Recorder;
use crate::workloads::{check_snapshot, digest_of, run_jobs, Rep, RunConfig, Workload};

/// `(job, scale)` in execution order. fig4 carries the legacy-path
/// weight at Default; the two sweeps run at Quick to fit the run.
const JOBS: [(&str, ScaleLevel); 6] = [
    ("fig3", ScaleLevel::Default),
    ("fig6", ScaleLevel::Default),
    ("fig4", ScaleLevel::Default),
    ("fig7", ScaleLevel::Quick),
    ("mitsweep", ScaleLevel::Quick),
    ("chansweep", ScaleLevel::Quick),
];

/// The paper's headline capacities in Kbps: the only external reference
/// the simulator has.
pub const PAPER_KBPS: [(&str, f64); 2] = [("fig3", 39.0), ("fig6", 48.7)];

/// Relative capacity error today (40.0 and 50.0 Kbps) plus the 0.02 the
/// model may drift before the run counts as incorrect.
const CAPACITY_ERR_LIMIT: f64 = 0.047;

/// `|measured - paper| / paper`.
pub fn capacity_err(measured_kbps: f64, paper_kbps: f64) -> f64 {
    (measured_kbps - paper_kbps).abs() / paper_kbps
}

/// The fidelity check: the worse of the two capacity errors stays
/// inside the band.
pub fn check_capacity_err(checks: &mut Checks, worst_err: f64) {
    checks.check(
        &format!("paper capacity error {worst_err:.4} within {CAPACITY_ERR_LIMIT}"),
        worst_err <= CAPACITY_ERR_LIMIT,
    );
}

pub struct CovertChannels {
    cfg: RunConfig,
    registry: Registry,
    /// The last repetition's envelopes by job, for the checks after the
    /// timed loop.
    last: Vec<(&'static str, String)>,
}

impl CovertChannels {
    pub fn new(cfg: &RunConfig) -> CovertChannels {
        CovertChannels {
            cfg: cfg.clone(),
            registry: leakyhammer::registry(),
            last: Vec::new(),
        }
    }
}

impl Workload for CovertChannels {
    fn rep(&mut self, rec: &mut Recorder, checks: &mut Checks) -> Rep {
        let runner = Runner::new(RunnerOptions {
            jobs: 1,
            ..RunnerOptions::default()
        });
        let mut rep = Rep::default();
        self.last = run_jobs(
            &self.registry,
            &JOBS,
            self.cfg.seed,
            rec,
            checks,
            &mut rep,
            |job, ctx| runner.run(job, ctx),
        );
        rep.digest = digest_of(&self.last);
        rep
    }

    fn finish(&mut self, _reps: &[Rep], report: &mut Report) {
        let mut worst_err: f64 = 0.0;
        for (id, envelope) in &self.last {
            let doc = json::parse(envelope).expect("rendered envelopes parse");
            let result = &doc["result"];
            if let Some((_, paper)) = PAPER_KBPS.iter().find(|(job, _)| job == id) {
                report.checks.check(
                    &format!("{id} decodes MICRO"),
                    result["decoded"].as_str() == Some("MICRO"),
                );
                let kbps = result["capacity_kbps"].as_f64().unwrap_or(0.0);
                worst_err = worst_err.max(capacity_err(kbps, *paper));
            }
            if *id == "chansweep" {
                let quiet_max = |defense: &str| {
                    result["cells"]
                        .as_array()
                        .iter()
                        .filter(|c| {
                            c["defense"].as_str() == Some(defense)
                                && c["noise"].as_f64() == Some(0.0)
                        })
                        .filter_map(|c| c["capacity_kbps"].as_f64())
                        .fold(0.0, f64::max)
                };
                let (open, closed) = (quiet_max("PRAC:nrh128"), quiet_max("FR-RFM:nrh128"));
                report.checks.check(
                    &format!(
                        "FR-RFM closes the quiet channel ({closed:.2} Kbps against PRAC's {open:.2})"
                    ),
                    open > 1.0 && closed < open / 2.0,
                );
            }
            if *id == "mitsweep" || *id == "chansweep" {
                check_snapshot(&self.cfg, &mut report.checks, id, envelope);
            }
        }
        check_capacity_err(&mut report.checks, worst_err);
        report.note("paper_capacity_err", worst_err);
    }
}
