//! Acceptance for the flight recorder's determinism contract: the
//! `--events-out` log for a given `(experiment, scale, seed)` is
//! *byte-identical* across every execution mode — single-threaded,
//! `--jobs 8`, an `lh-coord` worker fleet, a warm-cache replay that
//! never re-executes a unit, and a partially warm cache through either
//! executor — and switching recording on never changes the experiment
//! envelope.
//!
//! The flight switch is process-global, so everything that flips it
//! lives in one `#[test]` (the harness runs test fns concurrently on
//! threads; two tests toggling the switch would race).

use lh_coord::{Coordinator, CoordinatorOptions};
use lh_harness::{sink, OutputFormat};
use lh_harness::{unit_key, DiskCache, JobContext, Runner, RunnerOptions, ScaleLevel};
use lh_serve::ThreadSpawner;

fn ctx() -> JobContext {
    JobContext::new(ScaleLevel::Quick, 1)
}

fn runner(jobs: usize, cache: Option<DiskCache>) -> Runner {
    Runner::new(RunnerOptions {
        jobs,
        cache,
        progress: false,
        observer: None,
    })
}

#[test]
fn event_log_is_byte_identical_across_execution_modes() {
    let registry = leakyhammer::registry();
    let job = registry.get("fig2").expect("fig2 registered");

    // Recording off: no log rides the run, and the envelope is the
    // reference for the recording runs below.
    lh_obs::flight::set_enabled(false);
    let off = runner(1, None).run(job, &ctx()).expect("baseline run");
    assert!(
        off.events.is_none(),
        "recording off must not produce an event log"
    );
    let off_envelope = sink::render(job, &off, &ctx(), OutputFormat::Json);

    lh_obs::flight::set_enabled(true);

    // Mode 1: single worker thread — the reference bytes.
    let reference = runner(1, None)
        .run(job, &ctx())
        .expect("jobs=1 run")
        .events
        .expect("recording on produces a log");
    let first = reference.lines().next().expect("log has a header");
    assert!(
        first.starts_with("{\"kind\":\"experiment\",\"experiment\":\"fig2\""),
        "log opens with the experiment header: {first}"
    );
    assert!(
        reference.contains("\"kind\":\"unit\""),
        "per-unit headers present"
    );
    assert!(
        reference.contains("\"kind\":\"cmd\""),
        "DRAM command events present"
    );

    // Mode 2: eight worker threads, completion order scrambled.
    let threaded = runner(8, None)
        .run(job, &ctx())
        .expect("jobs=8 run")
        .events
        .expect("log present");
    assert_eq!(threaded, reference, "--jobs must not change the log bytes");

    // Mode 3: a two-worker coordinator fleet (protocol v4 carries the
    // flight switch per assignment and the rendered log per Done).
    let dir = std::env::temp_dir().join(format!(
        "lh-flight-integration-{}-events",
        std::process::id()
    ));
    let cache = DiskCache::new(&dir);
    cache.clear().expect("fresh cache dir");
    let mut coordinator = Coordinator::new(
        Box::new(ThreadSpawner::new(leakyhammer::registry)),
        CoordinatorOptions {
            workers: 2,
            cache: Some(cache.clone()),
            progress: false,
            observer: None,
            ..CoordinatorOptions::default()
        },
    );
    let distributed = coordinator.run(job, &ctx()).expect("workers=2 run");
    coordinator.shutdown();
    assert_eq!(
        distributed.events.as_deref(),
        Some(reference.as_str()),
        "--workers must not change the log bytes"
    );

    // Mode 4: warm-cache replay — every unit is a hit, the log is
    // reassembled from cache entries alone.
    let replayed = runner(8, Some(cache.clone()))
        .run(job, &ctx())
        .expect("replay run");
    assert_eq!(
        replayed.stats.units_cached, replayed.stats.units_total,
        "replay must be all cache hits"
    );
    assert_eq!(
        replayed.events.as_deref(),
        Some(reference.as_str()),
        "cache replay must not change the log bytes"
    );

    // Mode 5: a *partially* warm cache — the merged entry and every
    // other unit's entry evicted — through both executors. Replayed and
    // re-executed units must interleave into the same log, and the two
    // scheduling loops must agree on what replayed.
    let units = job.units(&ctx());
    let kept: Vec<&String> = units.iter().skip(1).step_by(2).collect();
    assert!(
        !kept.is_empty() && kept.len() < units.len(),
        "need a proper, non-empty subset of {} units",
        units.len()
    );
    let partial_copy = |tag: &str| {
        let copy = DiskCache::new(dir.with_extension(tag));
        copy.clear().expect("fresh copy dir");
        std::fs::create_dir_all(copy.dir().join("fig2")).expect("copy dir");
        for unit in &kept {
            let entry = format!("fig2/{}.json", unit_key(job, unit, &ctx(), true).digest());
            std::fs::copy(cache.dir().join(&entry), copy.dir().join(&entry))
                .expect("the cold run cached every unit under the events-on key");
        }
        copy
    };
    let runner_cache = partial_copy("runner");
    let via_runner = runner(8, Some(runner_cache.clone()))
        .run(job, &ctx())
        .expect("partially warm jobs=8 run");
    let fleet_cache = partial_copy("fleet");
    let mut fleet = Coordinator::new(
        Box::new(ThreadSpawner::new(leakyhammer::registry)),
        CoordinatorOptions {
            workers: 2,
            cache: Some(fleet_cache.clone()),
            ..CoordinatorOptions::default()
        },
    );
    let via_fleet = fleet
        .run(job, &ctx())
        .expect("partially warm workers=2 run");
    fleet.shutdown();
    for (mode, run) in [("--jobs", &via_runner), ("--workers", &via_fleet)] {
        assert_eq!(
            run.events.as_deref(),
            Some(reference.as_str()),
            "a partially warm {mode} run must not change the log bytes"
        );
        assert_eq!(
            sink::render(job, run, &ctx(), OutputFormat::Json),
            off_envelope,
            "a partially warm {mode} run must not change the envelope"
        );
        let stats = run.stats;
        assert_eq!(
            (
                stats.units_cached,
                stats.units_executed,
                stats.merged_cached
            ),
            (kept.len(), units.len() - kept.len(), false),
            "{mode} replays exactly the entries kept: {stats:?}"
        );
    }
    runner_cache.clear().expect("cleanup");
    fleet_cache.clear().expect("cleanup");

    // Recording never leaks into results: envelopes match the off run.
    let on_envelope = sink::render(job, &replayed, &ctx(), OutputFormat::Json);
    lh_obs::flight::set_enabled(false);
    assert_eq!(
        on_envelope, off_envelope,
        "flight recording must not perturb the envelope"
    );

    // A cache written by a recording run still serves non-recording
    // runs correctly: the events-aware key side never shadows the
    // plain side, so this re-executes rather than mis-hitting.
    let off_again = runner(1, Some(cache.clone()))
        .run(job, &ctx())
        .expect("off-side run");
    assert!(off_again.events.is_none());
    assert_eq!(
        sink::render(job, &off_again, &ctx(), OutputFormat::Json),
        off_envelope
    );

    cache.clear().expect("cleanup");
}
