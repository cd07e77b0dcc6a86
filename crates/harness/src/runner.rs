//! The in-process scheduling loop: a [`Runner`] pushes the missed units
//! of a run through the topological thread pool ([`crate::pool`]). What
//! the run replays, stores, reports and returns is the
//! `ledger`'s business; the types it speaks are
//! re-exported here.

use crate::cache::DiskCache;
use crate::job::{Job, JobContext};
use crate::ledger::{Ledger, Opened};
use crate::pool;

pub use crate::ledger::{
    merged_fingerprint, unit_key, ExperimentRun, RunStats, UnitEvent, UnitObserver,
};

/// Execution options for a [`Runner`].
#[derive(Clone, Default)]
pub struct RunnerOptions {
    /// Worker threads for unit execution (0 = autodetect).
    pub jobs: usize,
    /// Result cache; `None` disables caching entirely.
    pub cache: Option<DiskCache>,
    /// Emit progress lines on stderr.
    pub progress: bool,
    /// Streaming hook: called as each unit completes.
    pub observer: Option<UnitObserver>,
}

impl std::fmt::Debug for RunnerOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunnerOptions")
            .field("jobs", &self.jobs)
            .field("cache", &self.cache)
            .field("progress", &self.progress)
            .field("observer", &self.observer.as_ref().map(|_| "Fn"))
            .finish()
    }
}

/// Executes jobs according to [`RunnerOptions`].
#[derive(Debug, Default)]
pub struct Runner {
    options: RunnerOptions,
}

impl Runner {
    /// A runner with the given options.
    pub fn new(options: RunnerOptions) -> Runner {
        Runner { options }
    }

    /// The effective worker count.
    pub fn jobs(&self) -> usize {
        if self.options.jobs == 0 {
            pool::default_jobs()
        } else {
            self.options.jobs
        }
    }

    /// Runs one experiment end to end.
    ///
    /// Units execute topologically: a unit runs only once every unit
    /// in its [`Job::deps`] list has a result (cached or freshly
    /// computed), and receives those results in declaration order.
    /// Cache-replayed units consume no inputs, so their dependency
    /// edges are pruned before scheduling.
    ///
    /// # Errors
    ///
    /// Fails without executing anything if the job's dependency edges
    /// do not form a DAG (a cycle, an out-of-range or a self
    /// dependency). Cache write failures are reported on stderr, not
    /// fatal; a poisoned unit execution panics instead.
    pub fn run(&self, job: &dyn Job, ctx: &JobContext) -> Result<ExperimentRun, String> {
        let o = &self.options;
        let opened = Ledger::open(job, ctx, o.cache.as_ref(), o.progress, o.observer.as_ref())?;
        let ledger = match opened {
            Opened::Cached(run) => return Ok(run),
            Opened::Live(ledger) => ledger,
        };
        pool::run_dag(self.jobs(), ledger.deps(), |unit| {
            if !ledger.replay(unit) {
                ledger.execute(unit);
            }
        })
        .expect("the ledger validated the DAG; pruning edges cannot introduce a cycle");
        Ok(ledger.close())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::job::ScaleLevel;
    use crate::json::Json;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A job whose unit results depend only on (index, seed), with an
    /// execution counter to observe cache skips.
    struct Counting {
        executions: AtomicUsize,
    }

    impl Job for Counting {
        fn id(&self) -> &'static str {
            "counting"
        }
        fn description(&self) -> &'static str {
            "cache/parallel test job"
        }
        fn units(&self, _ctx: &JobContext) -> Vec<String> {
            (0..12).map(|i| format!("unit:{i}")).collect()
        }
        fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], _ctx: &JobContext) -> Json {
            self.executions.fetch_add(1, Ordering::SeqCst);
            Json::object().with("unit", unit).with("seed", seed)
        }
        fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
            Json::object().with("points", Json::Array(units))
        }
        fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
            merged.to_compact()
        }
    }

    /// A two-layer job: units 0..3 are "sources", unit 3 sums its three
    /// dependencies' values; every unit's result folds in the delivered
    /// dependency outputs so bit-identity covers the delivery path.
    struct Diamond {
        executions: AtomicUsize,
        version: u32,
    }

    impl Diamond {
        fn new(version: u32) -> Diamond {
            Diamond {
                executions: AtomicUsize::new(0),
                version,
            }
        }
    }

    impl Job for Diamond {
        fn id(&self) -> &'static str {
            "diamond"
        }
        fn description(&self) -> &'static str {
            "dependency test job"
        }
        fn units(&self, _ctx: &JobContext) -> Vec<String> {
            vec!["src:0".into(), "src:1".into(), "src:2".into(), "sum".into()]
        }
        fn deps(&self, unit: usize, _ctx: &JobContext) -> Vec<usize> {
            if unit == 3 {
                vec![0, 1, 2]
            } else {
                Vec::new()
            }
        }
        fn run_unit(&self, unit: usize, seed: u64, deps: &[Json], _ctx: &JobContext) -> Json {
            self.executions.fetch_add(1, Ordering::SeqCst);
            let dep_sum: u64 = deps.iter().filter_map(|d| d["value"].as_u64()).sum();
            Json::object()
                .with("value", (unit as u64 + 1) * (seed % 97))
                .with("deps_seen", deps.len())
                .with("dep_sum", dep_sum)
        }
        fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
            Json::object().with("points", Json::Array(units))
        }
        fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
            merged.to_compact()
        }
        fn version(&self) -> u32 {
            self.version
        }
    }

    /// A job whose dependency edges form a cycle.
    struct Cyclic;

    impl Job for Cyclic {
        fn id(&self) -> &'static str {
            "cyclic"
        }
        fn description(&self) -> &'static str {
            "invalid DAG test job"
        }
        fn units(&self, _ctx: &JobContext) -> Vec<String> {
            vec!["a".into(), "b".into()]
        }
        fn deps(&self, unit: usize, _ctx: &JobContext) -> Vec<usize> {
            vec![1 - unit]
        }
        fn run_unit(&self, _unit: usize, _seed: u64, _deps: &[Json], _ctx: &JobContext) -> Json {
            unreachable!("cyclic jobs must be rejected before execution")
        }
        fn finish(&self, _units: Vec<Json>, _ctx: &JobContext) -> Json {
            unreachable!()
        }
        fn render_text(&self, _merged: &Json, _ctx: &JobContext) -> String {
            unreachable!()
        }
    }

    fn ctx() -> JobContext {
        JobContext::new(ScaleLevel::Quick, 7)
    }

    fn temp_cache(tag: &str) -> DiskCache {
        let dir = std::env::temp_dir().join(format!(
            "lh-harness-runner-test-{}-{tag}",
            std::process::id()
        ));
        let cache = DiskCache::new(dir);
        cache.clear().unwrap();
        cache
    }

    #[test]
    fn parallel_output_is_bit_identical_to_serial() {
        let job = Counting {
            executions: AtomicUsize::new(0),
        };
        let serial = Runner::new(RunnerOptions {
            jobs: 1,
            ..Default::default()
        })
        .run(&job, &ctx())
        .unwrap();
        for jobs in [2, 8] {
            let parallel = Runner::new(RunnerOptions {
                jobs,
                ..Default::default()
            })
            .run(&job, &ctx())
            .unwrap();
            assert_eq!(serial.merged, parallel.merged);
        }
    }

    #[test]
    fn dependent_units_get_outputs_and_stay_deterministic() {
        let serial = Runner::new(RunnerOptions {
            jobs: 1,
            ..Default::default()
        })
        .run(&Diamond::new(1), &ctx())
        .unwrap();
        let sum = &serial.merged["points"][3];
        assert_eq!(sum["deps_seen"].as_u64(), Some(3));
        let expected: u64 = (0..3)
            .filter_map(|i| serial.merged["points"][i]["value"].as_u64())
            .sum();
        assert_eq!(sum["dep_sum"].as_u64(), Some(expected));
        for jobs in [2, 8] {
            let parallel = Runner::new(RunnerOptions {
                jobs,
                ..Default::default()
            })
            .run(&Diamond::new(1), &ctx())
            .unwrap();
            assert_eq!(serial.merged, parallel.merged, "jobs={jobs}");
        }
    }

    #[test]
    fn dependency_outputs_are_delivered_from_the_cache_too() {
        let cache = temp_cache("dep-cache");
        let mk = || {
            Runner::new(RunnerOptions {
                jobs: 4,
                cache: Some(cache.clone()),
                ..Default::default()
            })
        };
        let cold_job = Diamond::new(1);
        let cold = mk().run(&cold_job, &ctx()).unwrap();
        assert_eq!(cold_job.executions.load(Ordering::SeqCst), 4);

        // Evict everything except the three source units: the merged
        // entry and the dependent are gone, so the dependent re-runs —
        // and must receive the cache-replayed source outputs.
        let keep: Vec<String> = ["src:0", "src:1", "src:2"]
            .iter()
            .map(|unit| {
                CacheKey {
                    experiment: "diamond".into(),
                    unit: (*unit).into(),
                    scale: "quick".into(),
                    seed: 7,
                    job_version: 1,
                    fingerprint: String::new(),
                }
                .digest()
            })
            .collect();
        for entry in std::fs::read_dir(cache.dir().join("diamond")).unwrap() {
            let path = entry.unwrap().path();
            let stem = path.file_stem().unwrap().to_str().unwrap().to_owned();
            if !keep.contains(&stem) {
                std::fs::remove_file(&path).unwrap();
            }
        }

        let warm_job = Diamond::new(1);
        let warm = mk().run(&warm_job, &ctx()).unwrap();
        assert_eq!(
            warm_job.executions.load(Ordering::SeqCst),
            1,
            "only the dependent re-runs"
        );
        assert_eq!(warm.stats.units_cached, 3);
        assert_eq!(
            warm.merged, cold.merged,
            "cache-delivered dependency outputs must reproduce the cold result"
        );
        cache.clear().unwrap();
    }

    #[test]
    fn cyclic_deps_are_rejected_with_a_clear_error() {
        let err = Runner::new(RunnerOptions::default())
            .run(&Cyclic, &ctx())
            .unwrap_err();
        assert!(
            err.contains("cyclic") && err.contains("cycle"),
            "error must name the job and the cycle: {err}"
        );
    }

    #[test]
    fn version_bump_invalidates_surgically() {
        let cache = temp_cache("surgical");
        let mk = |jobs| {
            Runner::new(RunnerOptions {
                jobs,
                cache: Some(cache.clone()),
                ..Default::default()
            })
        };

        // Warm both jobs.
        let counting = Counting {
            executions: AtomicUsize::new(0),
        };
        let diamond = Diamond::new(1);
        mk(4).run(&counting, &ctx()).unwrap();
        mk(4).run(&diamond, &ctx()).unwrap();
        assert_eq!(counting.executions.load(Ordering::SeqCst), 12);
        assert_eq!(diamond.executions.load(Ordering::SeqCst), 4);

        // Bump only the diamond job's version: its units re-run, the
        // counting job stays fully cached.
        let bumped = Diamond::new(2);
        let rerun = mk(4).run(&bumped, &ctx()).unwrap();
        assert_eq!(
            bumped.executions.load(Ordering::SeqCst),
            4,
            "bumped job must re-execute all its units"
        );
        assert_eq!(rerun.stats.units_executed, 4);

        let counting2 = Counting {
            executions: AtomicUsize::new(0),
        };
        let warm = mk(4).run(&counting2, &ctx()).unwrap();
        assert!(warm.stats.merged_cached, "other jobs must stay cached");
        assert_eq!(counting2.executions.load(Ordering::SeqCst), 0);
        cache.clear().unwrap();
    }

    #[test]
    fn observer_sees_every_unit_exactly_once() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<(usize, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let job = Counting {
            executions: AtomicUsize::new(0),
        };
        Runner::new(RunnerOptions {
            jobs: 4,
            observer: Some(Arc::new(move |e: &UnitEvent| {
                sink.lock().unwrap().push((e.index, e.cached));
            })),
            ..Default::default()
        })
        .run(&job, &ctx())
        .unwrap();
        let mut events = seen.lock().unwrap().clone();
        events.sort_unstable();
        assert_eq!(
            events,
            (0..12).map(|i| (i, false)).collect::<Vec<_>>(),
            "one event per unit, all executed"
        );
    }

    #[test]
    fn warm_cache_skips_execution_and_preserves_output() {
        let cache = temp_cache("warm-cache");
        let job = Counting {
            executions: AtomicUsize::new(0),
        };
        let mk = |jobs| {
            Runner::new(RunnerOptions {
                jobs,
                cache: Some(cache.clone()),
                progress: false,
                observer: None,
            })
        };
        let cold = mk(4).run(&job, &ctx()).unwrap();
        assert_eq!(job.executions.load(Ordering::SeqCst), 12);
        assert_eq!(cold.stats.units_executed, 12);
        assert!(!cold.stats.merged_cached);

        let warm = mk(4).run(&job, &ctx()).unwrap();
        assert_eq!(
            job.executions.load(Ordering::SeqCst),
            12,
            "warm run must not execute"
        );
        assert!(warm.stats.merged_cached);
        assert_eq!(warm.merged, cold.merged);

        // A different seed misses the cache.
        let other = mk(4).run(&job, &JobContext { seed: 8, ..ctx() }).unwrap();
        assert_eq!(job.executions.load(Ordering::SeqCst), 24);
        assert_ne!(other.merged, cold.merged);
        cache.clear().unwrap();
    }
}
