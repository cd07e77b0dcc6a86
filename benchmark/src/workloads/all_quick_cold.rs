//! `all_quick_cold`: the cold quick catalogue, the user-facing headline
//! (`lh-experiments all --scale quick` on an empty cache).
//!
//! Each repetition starts from two fresh cache directories and runs the
//! catalogue twice: through a `Runner` with two pool threads, then
//! through a `Coordinator` with two worker processes (this binary in
//! `--worker` mode: the same `lh_coord::worker_loop` over the same
//! registry as `lh-experiments --worker`). Every layer takes part —
//! `lh-ml`, browser traces, cache writes (beside `resident_warm`'s
//! reads), the DAG pool's parallel efficiency and the per-unit dispatch
//! cost across many small DAGs.
//!
//! The four jobs above 0.4 s (fig13, chansweep, fig5, fig8) are left
//! out so a run holds enough repetitions for a steady median; the first
//! two are `perf_sweep` and `covert_channels`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lh_coord::{Coordinator, CoordinatorOptions, ProcessSpawner};
use lh_harness::{DiskCache, Registry, Runner, RunnerOptions, ScaleLevel};

use crate::report::{Checks, Report};
use crate::spans::Recorder;
use crate::workloads::{
    check_snapshot, digest_of, peak_rss_kb, run_jobs, Rep, RunConfig, Workload,
};

const LEFT_OUT: [&str; 4] = ["fig13", "chansweep", "fig5", "fig8"];

/// Jobs of the catalogue whose quick envelope has a committed snapshot.
const SNAPSHOTS: [&str; 4] = ["fig2", "fig3", "fig6", "mitsweep"];

/// Pool threads of the first half, worker processes of the second.
pub const PARALLELISM: usize = 2;

/// Repetitions run by this process, over every set-up: each gets a
/// scratch directory no earlier one has filled.
static REPS_RUN: AtomicUsize = AtomicUsize::new(0);

pub struct AllQuickCold {
    cfg: RunConfig,
    registry: Registry,
    jobs: Vec<(&'static str, ScaleLevel)>,
    last: Vec<(&'static str, String)>,
}

impl AllQuickCold {
    pub fn new(cfg: &RunConfig) -> AllQuickCold {
        let registry = leakyhammer::registry();
        let jobs = registry
            .ids()
            .into_iter()
            .filter(|id| !LEFT_OUT.contains(id))
            .map(|id| (id, ScaleLevel::Quick))
            .collect();
        AllQuickCold {
            cfg: cfg.clone(),
            registry,
            jobs,
            last: Vec::new(),
        }
    }
}

impl Workload for AllQuickCold {
    fn rep(&mut self, rec: &mut Recorder, checks: &mut Checks) -> Rep {
        let scratch = self
            .cfg
            .tmp
            .join(format!("cold-{}", REPS_RUN.fetch_add(1, Ordering::Relaxed)));
        let dir = |half: &str| scratch.join(half);
        let mut rep = Rep::default();

        let started = Instant::now();
        let span = rec.enter("cold.jobs");
        let runner = Runner::new(RunnerOptions {
            jobs: PARALLELISM,
            cache: Some(DiskCache::new(dir("jobs"))),
            ..RunnerOptions::default()
        });
        let by_jobs = run_jobs(
            &self.registry,
            &self.jobs,
            self.cfg.seed,
            rec,
            checks,
            &mut rep,
            |job, ctx| runner.run(job, ctx),
        );
        rec.exit(span);
        rep.sample("harness.jobs_run_s", started.elapsed().as_secs_f64());

        let started = Instant::now();
        let span = rec.enter("cold.workers");
        let exe = std::env::current_exe().expect("own executable path");
        let mut coordinator = Coordinator::new(
            Box::new(ProcessSpawner::new(exe, Vec::new())),
            CoordinatorOptions {
                workers: PARALLELISM,
                cache: Some(DiskCache::new(dir("workers"))),
                ..CoordinatorOptions::default()
            },
        );
        let by_workers = run_jobs(
            &self.registry,
            &self.jobs,
            self.cfg.seed,
            rec,
            checks,
            &mut rep,
            |job, ctx| coordinator.run(job, ctx),
        );
        rep.child_rss_kb = coordinator
            .telemetry()
            .snapshot()
            .workers
            .iter()
            .map(|w| peak_rss_kb(&w.pid.to_string()))
            .sum();
        coordinator.shutdown();
        rec.exit(span);
        rep.sample("coord.workers_run_s", started.elapsed().as_secs_f64());
        let stats = coordinator.stats();
        rep.requeued = stats.units_requeued as u64;
        rep.respawns = stats.respawns_used as u64;

        checks.check(
            "pool-thread and worker-process envelopes are byte-identical",
            by_jobs == by_workers,
        );
        rep.digest = digest_of(&by_jobs);
        self.last = by_jobs;
        rep
    }

    fn finish(&mut self, _reps: &[Rep], report: &mut Report) {
        for (id, envelope) in &self.last {
            if SNAPSHOTS.contains(id) {
                check_snapshot(&self.cfg, &mut report.checks, id, envelope);
            }
        }
        report.note("all_quick_cold.jobs", self.jobs.len());
    }
}
