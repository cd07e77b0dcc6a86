//! Acceptance for the flight recorder's determinism contract: the
//! `--events-out` log for a given `(experiment, scale, seed)` is
//! *byte-identical* across every execution mode — single-threaded,
//! `--jobs 8`, an `lh-coord` worker fleet, a warm-cache replay that
//! never re-executes a unit, and a partially warm cache through either
//! executor — and switching recording on never changes the experiment
//! envelope.
//!
//! fig2 emits no `link` events, so the same test also pins the
//! symbol-window events of both transmissions that report them over
//! the one wire, `lh_link::transmit_windows` — `run_covert` (through
//! fig3 and directly) and `lh_link::transmit_payload` — down to the
//! verdict of every window.
//!
//! Recording is a property of the run (`JobContext::flight`), not of
//! the process, so these tests run concurrently with each other and
//! with plain runs.

use leakyhammer::experiment::covert::{run_covert, ChannelKind, CovertOptions};
use lh_analysis::bits_of_str;
use lh_coord::{Coordinator, CoordinatorOptions};
use lh_defenses::DefenseKind;
use lh_harness::json::{self, Json};
use lh_harness::{sink, OutputFormat};
use lh_harness::{unit_key, DiskCache, JobContext, Runner, RunnerOptions, ScaleLevel};
use lh_link::{Calibration, LinkConfig, OnOffKeying};
use lh_serve::ThreadSpawner;

fn ctx() -> JobContext {
    JobContext::new(ScaleLevel::Quick, 1)
}

/// [`ctx`] recording flight events into default-capacity rings.
fn recording() -> JobContext {
    JobContext {
        flight: Some(lh_obs::flight::DEFAULT_CAP),
        ..ctx()
    }
}

fn runner(jobs: usize, cache: Option<DiskCache>) -> Runner {
    Runner::new(RunnerOptions {
        jobs,
        cache,
        progress: false,
        observer: None,
    })
}

/// Asserts the `link` lines of `log` are one contiguous run of 25 µs
/// windows from `first_ns` carrying `symbols` in order, each with the
/// verdict of a receiver that calls a window on iff `on(symbol)`.
fn assert_link_windows(
    what: &str,
    log: &str,
    first_ns: u64,
    symbols: &[u8],
    on: impl Fn(u8) -> bool,
) {
    let lines: Vec<Json> = log
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"link\""))
        .map(|l| json::parse(l).expect("event lines are JSON"))
        .collect();
    assert_eq!(lines.len(), symbols.len(), "{what}: one event per window");
    for (i, (line, &symbol)) in lines.iter().zip(symbols).enumerate() {
        let t0 = first_ns + 25_000 * i as u64;
        let verdict = match (symbol != 0, on(symbol)) {
            (true, true) => "hit",
            (true, false) => "miss",
            (false, true) => "false-positive",
            (false, false) => "idle",
        };
        let got = ["window", "t_ns", "t_end_ns", "symbol"].map(|key| line[key].as_u64());
        let want = [i as u64, t0, t0 + 25_000, u64::from(symbol)].map(Some);
        assert_eq!(got, want, "{what}: window {i}: {line}");
        assert_eq!(line["verdict"].as_str(), Some(verdict), "{what}: {line}");
    }
}

/// Symbol-window events through both transmissions, all four verdicts each.
#[test]
fn link_events_carry_the_verdict_of_every_window() {
    let micro = bits_of_str("MICRO");

    // `run_covert` as the CLI reaches it: fig3's error-free MICRO.
    let registry = leakyhammer::registry();
    let fig3 = runner(1, None)
        .run(registry.get("fig3").expect("fig3 registered"), &recording())
        .expect("fig3 run")
        .events
        .expect("recording on produces a log");
    assert_link_windows("fig3", &fig3, 0, &micro, |s| s != 0);

    // The threshold forced either way: `trecv` = `u32::MAX` calls every
    // window off, 0 calls every one on. `transmit_payload`'s windows
    // follow the receiver's lead windows and the preamble on the wire.
    let cfg = LinkConfig::against(DefenseKind::Prac, 256, 1);
    let first_ns = 25_000 * (cfg.rx_lead_windows + cfg.sync.pattern.len()) as u64;
    for (trecv, on) in [(u32::MAX, false), (0, true)] {
        let mut opts = CovertOptions::new(ChannelKind::Prac, micro.clone());
        opts.link.tuning.trecv = trecv;
        let (_, log) = lh_obs::flight::capture(|| run_covert(&opts));
        let what = format!("run_covert trecv={trecv}");
        assert_link_windows(&what, &log.render("u", 0), 0, &micro, |_| on);

        let cal = Calibration::nominal(trecv);
        let (_, log) = lh_obs::flight::capture(|| {
            lh_link::transmit_payload(&cfg, &OnOffKeying, &cal, &micro[..16])
        });
        let what = format!("transmit_payload trecv={trecv}");
        assert_link_windows(&what, &log.render("u", 0), first_ns, &micro[..16], |_| on);
    }
}

#[test]
fn event_log_is_byte_identical_across_execution_modes() {
    let registry = leakyhammer::registry();
    let job = registry.get("fig2").expect("fig2 registered");

    // Recording off: no log rides the run, and the envelope is the
    // reference for the recording runs below.
    let off = runner(1, None).run(job, &ctx()).expect("baseline run");
    assert!(
        off.events.is_none(),
        "recording off must not produce an event log"
    );
    let off_envelope = sink::render(job, &off, &ctx(), OutputFormat::Json);

    // Mode 1: single worker thread — the reference bytes.
    let reference = runner(1, None)
        .run(job, &recording())
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
        .run(job, &recording())
        .expect("jobs=8 run")
        .events
        .expect("log present");
    assert_eq!(threaded, reference, "--jobs must not change the log bytes");

    // Mode 3: a two-worker coordinator fleet (protocol v4 carries the
    // flight request per assignment and the rendered log per Done).
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
    let distributed = coordinator.run(job, &recording()).expect("workers=2 run");
    coordinator.shutdown();
    assert_eq!(
        distributed.events.as_deref(),
        Some(reference.as_str()),
        "--workers must not change the log bytes"
    );

    // Mode 4: warm-cache replay — every unit is a hit, the log is
    // reassembled from cache entries alone.
    let replayed = runner(8, Some(cache.clone()))
        .run(job, &recording())
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
            let entry = format!("fig2/{}.json", unit_key(job, unit, &recording()).digest());
            std::fs::copy(cache.dir().join(&entry), copy.dir().join(&entry))
                .expect("the cold run cached every unit under the events-on key");
        }
        copy
    };
    let runner_cache = partial_copy("runner");
    let via_runner = runner(8, Some(runner_cache.clone()))
        .run(job, &recording())
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
        .run(job, &recording())
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
