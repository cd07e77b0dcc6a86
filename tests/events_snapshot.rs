//! Event-log snapshot gate: the fig2 quick-scale flight-event log is
//! committed at `crates/bench/snapshots/events/fig2.quick.ndjson` and
//! any byte of drift fails this test. Event logs are deterministic
//! simulated-time records, so drift means the simulator's command or
//! maintenance behaviour changed — if deliberate, regenerate with
//!
//! ```text
//! LH_UPDATE_SNAPSHOTS=1 cargo test --release --test events_snapshot
//! ```
//!
//! and commit the new snapshot with an explanation in the same PR.

use lh_harness::json::parse;
use lh_harness::{DiskCache, JobContext, Runner, RunnerOptions, ScaleLevel};

const SNAPSHOT: &str = "crates/bench/snapshots/events/fig2.quick.ndjson";

/// The fig2 quick event log recorded into rings of `cap` events, through
/// a one-thread runner over `cache`.
fn fig2_log(cap: usize, cache: Option<DiskCache>) -> String {
    let registry = leakyhammer::registry();
    let job = registry.get("fig2").expect("fig2 registered");
    let ctx = JobContext {
        flight: Some(cap),
        ..JobContext::new(ScaleLevel::Quick, 1)
    };
    let run = Runner::new(RunnerOptions {
        jobs: 1,
        cache,
        progress: false,
        observer: None,
    })
    .run(job, &ctx)
    .expect("fig2 quick run");
    run.events.expect("a recording context produces a log")
}

fn recorded_snapshot() -> String {
    std::fs::read_to_string(SNAPSHOT).unwrap_or_else(|e| {
        panic!("missing event-log snapshot {SNAPSHOT} ({e}); regenerate with LH_UPDATE_SNAPSHOTS=1")
    })
}

#[test]
fn fig2_quick_event_log_matches_the_committed_snapshot() {
    let log = fig2_log(lh_obs::flight::DEFAULT_CAP, None);

    if std::env::var("LH_UPDATE_SNAPSHOTS").as_deref() == Ok("1") {
        std::fs::create_dir_all(std::path::Path::new(SNAPSHOT).parent().unwrap())
            .expect("create snapshot dir");
        std::fs::write(SNAPSHOT, &log).expect("write snapshot");
        eprintln!("updated {SNAPSHOT}");
        return;
    }

    assert_eq!(
        log,
        recorded_snapshot(),
        "fig2 quick event log drifted from {SNAPSHOT}; if the simulator change is deliberate, \
         regenerate with LH_UPDATE_SNAPSHOTS=1 and commit the snapshot"
    );
}

/// The ring capacity is part of the cache key: a capped run's truncated
/// logs never replay into a later run at another capacity over the same
/// cache, and the capped entries still replay at their own capacity.
#[test]
fn a_capped_run_never_replays_into_another_capacity() {
    const CAP: usize = 10;
    let cache =
        DiskCache::new(std::env::temp_dir().join(format!("lh-events-cap-{}", std::process::id())));
    cache.clear().expect("fresh cache dir");

    let capped = fig2_log(CAP, Some(cache.clone()));
    let full = fig2_log(lh_obs::flight::DEFAULT_CAP, Some(cache.clone()));
    assert_eq!(full, recorded_snapshot(), "the default-capacity log");

    let capped_again = fig2_log(CAP, Some(cache.clone()));
    assert_eq!(capped_again, capped, "the capped entries replay as written");
    let headers: Vec<_> = capped
        .lines()
        .map(|line| parse(line).expect("event lines are JSON"))
        .filter(|event| event["kind"].as_str() == Some("unit"))
        .collect();
    assert!(!headers.is_empty());
    for header in &headers {
        assert_eq!(header["events"].as_u64(), Some(CAP as u64), "{header}");
    }
    cache.clear().expect("cleanup");
}
