//! Coordinator behavior end to end over in-process (but wire-faithful)
//! workers: distributed runs reproduce the in-process runner byte for
//! byte, worker death requeues in-flight units, fleet loss respawns,
//! deterministic unit failures abort, and the coordinator writes the
//! cache entries the runner writes, byte for byte.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use lh_coord::memory_pair;
use lh_coord::{Coordinator, CoordinatorOptions, Link, SpawnWorker, ThreadSpawner, WorkerOptions};
use lh_harness::runner::{merged_fingerprint, unit_key};
use lh_harness::{
    DiskCache, Job, JobContext, Json, Registry, Runner, RunnerOptions, ScaleLevel, UnitEvent,
};

/// A two-layer DAG: four "source" units feed a per-pair "combine"
/// layer, so dependency results must travel in assignment messages.
struct Layered;

impl Job for Layered {
    fn id(&self) -> &'static str {
        "layered"
    }
    fn description(&self) -> &'static str {
        "distributed test job"
    }
    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        (0..4)
            .map(|i| format!("src:{i}"))
            .chain((0..2).map(|i| format!("combine:{i}")))
            .collect()
    }
    fn deps(&self, unit: usize, _ctx: &JobContext) -> Vec<usize> {
        match unit {
            4 => vec![0, 1],
            5 => vec![2, 3],
            _ => Vec::new(),
        }
    }
    fn run_unit(&self, _unit: usize, seed: u64, deps: &[Json], _ctx: &JobContext) -> Json {
        let dep_sum: u64 = deps.iter().filter_map(|d| d["v"].as_u64()).sum();
        Json::object().with("v", seed % 10_000 + dep_sum * 3)
    }
    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object().with("points", Json::Array(units))
    }
    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        merged.to_compact()
    }
}

/// A job whose last unit always panics inside the worker.
struct Poisoned;

impl Job for Poisoned {
    fn id(&self) -> &'static str {
        "poisoned"
    }
    fn description(&self) -> &'static str {
        "deterministic-failure test job"
    }
    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        vec!["fine".into(), "boom".into()]
    }
    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], _ctx: &JobContext) -> Json {
        assert!(unit != 1, "unit 1 is poisoned");
        Json::object().with("v", seed)
    }
    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::Array(units)
    }
    fn render_text(&self, _merged: &Json, _ctx: &JobContext) -> String {
        String::new()
    }
}

fn registry() -> Registry {
    let mut r = Registry::new();
    r.register(Box::new(Layered));
    r.register(Box::new(Poisoned));
    r
}

fn ctx() -> JobContext {
    JobContext::new(ScaleLevel::Quick, 23)
}

fn temp_cache(tag: &str) -> DiskCache {
    let dir = std::env::temp_dir().join(format!("lh-coord-test-{}-{tag}", std::process::id()));
    let cache = DiskCache::new(dir);
    cache.clear().unwrap();
    cache
}

/// Spawns thread workers whose first `flaky` instances crash (drop the
/// connection) upon their first assignment, without acknowledging it.
struct FlakySpawner {
    flaky: usize,
}

impl SpawnWorker for FlakySpawner {
    fn spawn(&mut self, index: usize) -> io::Result<Link> {
        let (coord_side, worker_side) = memory_pair()?;
        let options = WorkerOptions {
            exit_after_assigns: (index < self.flaky).then_some(1),
            ..WorkerOptions::default()
        };
        std::thread::Builder::new()
            .name(format!("flaky-worker-{index}"))
            .spawn(move || {
                let _ = lh_coord::worker_loop(&registry(), worker_side, None, options);
            })?;
        Ok(coord_side)
    }
}

/// Every file and directory under `dir` (hidden ones included), by
/// path relative to `dir`, with each file's bytes (`None` for a
/// directory).
fn tree(dir: &Path) -> BTreeMap<String, Option<Vec<u8>>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Option<Vec<u8>>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.strip_prefix(root).unwrap().display().to_string();
            if path.is_dir() {
                out.insert(name, None);
                walk(root, &path, out);
            } else {
                out.insert(name, Some(std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn in_process_reference() -> Json {
    Runner::new(RunnerOptions {
        jobs: 1,
        ..Default::default()
    })
    .run(registry().get("layered").unwrap(), &ctx())
    .unwrap()
    .merged
}

#[test]
fn distributed_run_is_byte_identical_to_in_process() {
    let reference = in_process_reference();
    for workers in [1, 2, 4] {
        let seen: Arc<Mutex<Vec<(usize, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut coordinator = Coordinator::new(
            Box::new(ThreadSpawner::new(registry)),
            CoordinatorOptions {
                workers,
                observer: Some(Arc::new(move |e: &UnitEvent| {
                    sink.lock().unwrap().push((e.index, e.cached));
                })),
                ..Default::default()
            },
        );
        let run = coordinator
            .run(registry().get("layered").unwrap(), &ctx())
            .unwrap();
        assert_eq!(
            run.merged, reference,
            "--workers {workers} must be byte-identical to --jobs 1"
        );
        assert_eq!(run.stats.units_executed, 6);
        let mut events = seen.lock().unwrap().clone();
        events.sort_unstable();
        assert_eq!(
            events,
            (0..6).map(|i| (i, false)).collect::<Vec<_>>(),
            "the multiplexed feed must carry each unit exactly once (workers={workers})"
        );
    }
}

#[test]
fn worker_death_requeues_the_in_flight_unit() {
    let mut coordinator = Coordinator::new(
        Box::new(FlakySpawner { flaky: 1 }),
        CoordinatorOptions {
            workers: 2,
            ..Default::default()
        },
    );
    let run = coordinator
        .run(registry().get("layered").unwrap(), &ctx())
        .unwrap();
    assert_eq!(
        run.merged,
        in_process_reference(),
        "a mid-run worker death must not change the envelope"
    );
    let stats = coordinator.stats();
    assert_eq!(stats.workers_lost, 1, "the flaky worker died: {stats:?}");
    assert_eq!(
        stats.units_requeued, 1,
        "its in-flight unit was requeued: {stats:?}"
    );
    assert_eq!(stats.workers_spawned, 2, "one survivor carried the run");

    // `stats` reads the fleet telemetry, whose snapshot also carries
    // the respawn line.
    let snap = coordinator.telemetry().snapshot();
    assert_eq!(snap.workers_lost, 1, "{snap:?}");
    assert_eq!(snap.units_requeued, 1, "{snap:?}");
    assert_eq!(snap.workers_spawned, 2, "{snap:?}");
    assert_eq!(snap.respawns_used, 0, "{snap:?}");
    let alive: Vec<bool> = snap.workers.iter().map(|w| w.alive).collect();
    assert_eq!(alive.iter().filter(|a| **a).count(), 1, "{alive:?}");
    assert_eq!(
        snap.workers.iter().map(|w| w.units_done).sum::<u64>(),
        6,
        "every unit completion lands on some worker's tally: {snap:?}"
    );
}

#[test]
fn losing_the_whole_fleet_respawns_within_budget() {
    let mut coordinator = Coordinator::new(
        Box::new(FlakySpawner { flaky: 2 }),
        CoordinatorOptions {
            workers: 2,
            max_respawns: 4,
            ..Default::default()
        },
    );
    let run = coordinator
        .run(registry().get("layered").unwrap(), &ctx())
        .unwrap();
    assert_eq!(run.merged, in_process_reference());
    let stats = coordinator.stats();
    assert_eq!(stats.workers_lost, 2, "{stats:?}");
    assert!(
        stats.workers_spawned >= 3,
        "replacements were drawn from the respawn budget: {stats:?}"
    );
}

#[test]
fn exhausting_the_respawn_budget_fails_the_run() {
    let mut coordinator = Coordinator::new(
        Box::new(FlakySpawner { flaky: usize::MAX }),
        CoordinatorOptions {
            workers: 2,
            max_respawns: 2,
            ..Default::default()
        },
    );
    let err = coordinator
        .run(registry().get("layered").unwrap(), &ctx())
        .unwrap_err();
    assert!(err.contains("respawn budget"), "{err}");
}

#[test]
fn deterministic_unit_failures_abort_instead_of_requeueing() {
    let mut coordinator = Coordinator::new(
        Box::new(ThreadSpawner::new(registry)),
        CoordinatorOptions {
            workers: 2,
            ..Default::default()
        },
    );
    let err = coordinator
        .run(registry().get("poisoned").unwrap(), &ctx())
        .unwrap_err();
    assert!(
        err.contains("poisoned") && err.contains("panicked"),
        "the worker-reported failure must surface with its cause: {err}"
    );
    assert_eq!(
        coordinator.stats().units_requeued,
        0,
        "deterministic failures must not be requeued"
    );
}

#[test]
fn unit_failures_do_not_spend_the_respawn_budget() {
    let options = CoordinatorOptions::default();
    let failing_runs = options.max_respawns + 1;
    let mut coordinator = Coordinator::new(Box::new(ThreadSpawner::new(registry)), options);
    // Each failed run retires the fleet on purpose; relaunching it for
    // the next run is not a worker *death* and must stay free, or a
    // resident coordinator dies for good after a few bad submissions.
    for _ in 0..failing_runs {
        coordinator
            .run(registry().get("poisoned").unwrap(), &ctx())
            .unwrap_err();
    }
    let run = coordinator
        .run(registry().get("layered").unwrap(), &ctx())
        .expect("a good run after failed ones must still find a fleet");
    assert_eq!(run.merged, in_process_reference());
    let stats = coordinator.stats();
    assert_eq!(stats.respawns_used, 0, "{stats:?}");
    assert_eq!(stats.workers_lost, 0, "{stats:?}");
}

#[test]
fn the_coordinator_writes_the_entries_the_runner_writes() {
    let cache = temp_cache("interop");
    let job_owner = registry();
    let job = job_owner.get("layered").unwrap();

    let mut coordinator = Coordinator::new(
        Box::new(ThreadSpawner::new(registry)),
        CoordinatorOptions {
            workers: 3,
            cache: Some(cache.clone()),
            ..Default::default()
        },
    );
    let cold = coordinator.run(job, &ctx()).unwrap();
    assert_eq!(cold.stats.units_executed, 6);

    // Before the fleet retires, the cache holds exactly what a cold
    // runner writes: the same file names, the same bytes, and nothing
    // of the workers' own.
    let fleet_tree = tree(cache.dir());
    let runner_cache = temp_cache("interop-runner");
    let runner_run = Runner::new(RunnerOptions {
        jobs: 2,
        cache: Some(runner_cache.clone()),
        ..Default::default()
    })
    .run(job, &ctx())
    .unwrap();
    assert_eq!(runner_run.stats.units_executed, 6);
    let runner_tree = tree(runner_cache.dir());
    runner_cache.clear().unwrap();
    assert_eq!(
        fleet_tree
            .keys()
            .filter(|p| !p.contains('/'))
            .collect::<Vec<_>>(),
        ["layered"],
        "the cache root holds the job's directory and no worker's"
    );
    assert_eq!(
        fleet_tree.len(),
        8,
        "the job's directory, six unit entries and the merged entry: {:?}",
        fleet_tree.keys()
    );
    assert!(
        fleet_tree == runner_tree,
        "the coordinator's entries must equal the runner's: {:?} vs {:?}",
        fleet_tree.keys(),
        runner_tree.keys()
    );
    coordinator.shutdown();

    // The merged entry replays in the runner...
    let warm = Runner::new(RunnerOptions {
        jobs: 2,
        cache: Some(cache.clone()),
        ..Default::default()
    })
    .run(job, &ctx())
    .unwrap();
    assert!(warm.stats.merged_cached);
    assert_eq!(warm.merged, cold.merged);

    // ...and after evicting it, the per-unit entries the *coordinator*
    // wrote replay too.
    let units = job.units(&ctx());
    let merged_key = unit_key(job, &merged_fingerprint(&units), &ctx());
    std::fs::remove_file(
        cache
            .dir()
            .join("layered")
            .join(format!("{}.json", merged_key.digest())),
    )
    .unwrap();
    let per_unit = Runner::new(RunnerOptions {
        jobs: 2,
        cache: Some(cache.clone()),
        ..Default::default()
    })
    .run(job, &ctx())
    .unwrap();
    assert_eq!(per_unit.stats.units_cached, 6, "{:?}", per_unit.stats);
    assert_eq!(per_unit.stats.units_executed, 0);
    assert_eq!(per_unit.merged, cold.merged);

    // A fully unit-warm cache with the merged entry evicted (the
    // per-unit runner pass above rewrote it) must not wake the fleet
    // at all: every hit completes inline.
    std::fs::remove_file(
        cache
            .dir()
            .join("layered")
            .join(format!("{}.json", merged_key.digest())),
    )
    .unwrap();
    let mut unit_warm = Coordinator::new(
        Box::new(ThreadSpawner::new(registry)),
        CoordinatorOptions {
            workers: 2,
            cache: Some(cache.clone()),
            ..Default::default()
        },
    );
    let inline = unit_warm.run(job, &ctx()).unwrap();
    assert!(!inline.stats.merged_cached, "the merged entry was evicted");
    assert_eq!(inline.stats.units_cached, 6);
    assert_eq!(inline.merged, cold.merged);
    assert_eq!(
        unit_warm.stats().workers_spawned,
        0,
        "no worker should be spawned when the cache covers every unit"
    );

    // And the reverse direction: a runner-warmed cache feeds a
    // distributed run's warm path.
    let mut rerun = Coordinator::new(
        Box::new(ThreadSpawner::new(registry)),
        CoordinatorOptions {
            workers: 2,
            cache: Some(cache.clone()),
            ..Default::default()
        },
    );
    let replay = rerun.run(job, &ctx()).unwrap();
    assert!(replay.stats.merged_cached);
    assert_eq!(replay.merged, cold.merged);
    cache.clear().unwrap();
}
