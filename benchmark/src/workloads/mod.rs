//! The four workloads. Each is a closed loop with one client: the next
//! repetition starts when the previous one returned.

pub mod all_quick_cold;
pub mod covert_channels;
pub mod perf_sweep;
pub mod resident_warm;

use std::collections::BTreeMap;
use std::path::PathBuf;

use lh_harness::hash::Hasher;
use lh_harness::{
    metrics_from_json, sink, ExperimentRun, Job, JobContext, OutputFormat, Registry, ScaleLevel,
};
use lh_obs::Metrics;

use crate::report::{Checks, Report};
use crate::spans::Recorder;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Minimum size: no warm-up, one repetition, every check.
    pub smoke: bool,
    /// The checkout root (reference snapshots live under it).
    pub root: PathBuf,
    /// Scratch space inside the checkout, removed when the run ends.
    pub tmp: PathBuf,
}

/// What one repetition of a workload's body produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Digest of every result of the repetition; equal digests mean
    /// byte-equal results.
    pub digest: String,
    /// Deterministic counters of the units this repetition executed.
    pub executed: Metrics,
    /// Counters recorded in the results this repetition replayed from
    /// the cache (nothing was simulated for them).
    pub replayed: Metrics,
    pub units_executed: u64,
    pub units_cached: u64,
    /// Latency samples in milliseconds (or seconds for `*_s` names),
    /// keyed by the per-layer metric they feed.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub requeued: u64,
    pub respawns: u64,
    /// Summed peak resident set of the worker children, in KiB.
    pub child_rss_kb: u64,
}

impl Rep {
    /// Folds one harness run into the repetition — counters and unit
    /// counts — and renders its envelope, the bytes `--format json`
    /// prints.
    fn fold_run(&mut self, job: &dyn Job, run: &ExperimentRun, ctx: &JobContext) -> String {
        let totals = metrics_from_json(&run.metrics["totals"]);
        if run.stats.units_executed > 0 {
            self.executed.merge(&totals);
        } else {
            self.replayed.merge(&totals);
        }
        self.units_executed += run.stats.units_executed as u64;
        self.units_cached += run.stats.units_cached as u64;
        sink::render(job, run, ctx, OutputFormat::Json)
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// Runs `jobs` in order through `run` — a `Runner`'s or a
/// `Coordinator`'s — each under a `job.<id>` span, folds every run into
/// `rep`, and returns the envelopes by job. A run that errs is a failed
/// operation and leaves no envelope.
pub fn run_jobs(
    registry: &Registry,
    jobs: &[(&'static str, ScaleLevel)],
    seed: u64,
    rec: &mut Recorder,
    checks: &mut Checks,
    rep: &mut Rep,
    mut run: impl FnMut(&dyn Job, &JobContext) -> Result<ExperimentRun, String>,
) -> Vec<(&'static str, String)> {
    let mut envelopes = Vec::with_capacity(jobs.len());
    for &(id, scale) in jobs {
        let job = registry.get(id).expect("job is in the registry");
        let ctx = JobContext::new(scale, seed);
        let span = rec.enter(&format!("job.{id}"));
        let ran = run(job, &ctx);
        rec.exit(span);
        match ran {
            Ok(ran) => {
                checks.ops(1);
                envelopes.push((id, rep.fold_run(job, &ran, &ctx)));
            }
            Err(e) => checks.check(&format!("{id} runs: {e}"), false),
        }
    }
    envelopes
}

/// Digest of a list of `(job, envelope)` results.
pub fn digest_of(results: &[(&'static str, String)]) -> String {
    let mut hasher = Hasher::new();
    for (id, envelope) in results {
        hasher.field(id).field(envelope);
    }
    hasher.digest()
}

/// Simulated DRAM commands in a counter set: the sum of `sim.cmd.*`.
pub fn cmds(metrics: &Metrics) -> u64 {
    metrics
        .iter()
        .filter(|(name, _)| name.starts_with("sim.cmd."))
        .map(|(_, n)| n)
        .sum()
}

/// Peak resident set (`VmHWM`) of process `pid` in KiB; 0 if it is gone.
pub fn peak_rss_kb(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One workload, set up and ready to repeat its body.
pub trait Workload {
    /// Runs the body once. Benchmark-side spans go to `rec`; every
    /// completed operation and every output check goes to `checks`.
    fn rep(&mut self, rec: &mut Recorder, checks: &mut Checks) -> Rep;

    /// Checks and notes over the whole run, after the last repetition.
    fn finish(&mut self, _reps: &[Rep], _report: &mut Report) {}
}

/// Sets the named workload up: inputs from `cfg.seed`, scratch
/// directories, cache pre-fill, server bind.
pub fn build(cfg: &RunConfig, checks: &mut Checks) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload.as_str() {
        "perf_sweep" => Box::new(perf_sweep::PerfSweep::new(cfg)),
        "covert_channels" => Box::new(covert_channels::CovertChannels::new(cfg)),
        "resident_warm" => Box::new(resident_warm::ResidentWarm::new(cfg, checks)?),
        "all_quick_cold" => Box::new(all_quick_cold::AllQuickCold::new(cfg)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// The committed quick envelope of `id` — the reference for the
/// snapshot-identity check. It lives outside this directory so a change
/// that alters behaviour on purpose can update it.
pub fn snapshot_path(cfg: &RunConfig, id: &str) -> PathBuf {
    cfg.root
        .join("crates/bench/snapshots")
        .join(format!("{id}.quick.json"))
}

/// Checks a quick-scale envelope against its committed snapshot. The
/// snapshots are pinned at seed 1; at any other seed the check is
/// skipped and the output says so.
pub fn check_snapshot(cfg: &RunConfig, checks: &mut Checks, id: &str, envelope: &str) {
    if cfg.seed != 1 {
        checks.skip(&format!("snapshot:{id}"), "snapshots are pinned at seed 1");
        return;
    }
    let reference = std::fs::read_to_string(snapshot_path(cfg, id)).unwrap_or_default();
    checks.check(
        &format!("{id} quick envelope equals crates/bench/snapshots/{id}.quick.json"),
        reference == envelope,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_digests_are_stable_and_sensitive() {
        let results = vec![
            ("fig3", "{\"a\":1}\n".to_owned()),
            ("fig6", "{}".to_owned()),
        ];
        // Pinned: digests printed by two commits must stay comparable.
        assert_eq!(digest_of(&results), digest_of(&results.clone()));
        assert_eq!(digest_of(&results), "cc002b53e815b7b16cc35e538998b7bc");
        let mut changed = results.clone();
        changed[1].1.push(' ');
        assert_ne!(digest_of(&results), digest_of(&changed));
        // Field boundaries do not alias.
        let moved = vec![
            ("fig3", "{\"a\":1}\nf".to_owned()),
            ("ig6", "{}".to_owned()),
        ];
        assert_ne!(digest_of(&results), digest_of(&moved));
    }

    #[test]
    fn cmds_sums_the_command_counters_only() {
        let mut m = Metrics::new();
        m.add("sim.cmd.act", 3);
        m.add("sim.cmd.rd", 4);
        m.add("sim.service_wakes", 100);
        assert_eq!(cmds(&m), 7);
    }
}
