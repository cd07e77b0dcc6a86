//! End-to-end acceptance for the resident experiment service: a real
//! `lh-serve` server on a loopback socket, driven through the bundled
//! HTTP client. The load-bearing assertion is the determinism
//! boundary — an envelope fetched over HTTP is byte-identical to the
//! one `lh-experiments <id> --format json` prints for the same scale
//! and seed — plus the volatile side: `/metrics` exposes registry
//! totals, histogram families, and fleet telemetry, and the run stream
//! tails live NDJSON events stamped with wall-clock `ts_ms`.
//!
//! Every test binds servers of its own, and the tests run concurrently:
//! a run's flight recording is part of its context, so servers in one
//! process share nothing that decides a byte.

use std::io::BufRead;
use std::time::{Duration, Instant};

use lh_harness::json::parse;
use lh_harness::sink;
use lh_harness::{JobContext, OutputFormat, Runner, RunnerOptions, ScaleLevel};
use lh_serve::{client, DiskCache, ServeOptions, Server, ThreadSpawner, PAYLOAD_BUDGET_BYTES};

/// Binds a cache-less service on an ephemeral loopback port with an
/// in-process thread fleet and returns its base URL.
fn start_server() -> String {
    start_server_over(None)
}

fn start_server_over(cache: Option<DiskCache>) -> String {
    let server = Server::bind(
        "127.0.0.1:0",
        Box::new(ThreadSpawner::new(leakyhammer::registry)),
        leakyhammer::registry,
        ServeOptions { workers: 2, cache },
    )
    .expect("bind loopback");
    let addr = server.addr().expect("bound addr");
    std::thread::spawn(move || server.run());
    format!("http://{addr}")
}

/// Polls `GET /runs/<id>` until the run leaves the queued/running
/// phases, returning its final status document.
fn wait_done(base: &str, id: u64) -> lh_harness::json::Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let response = client::get(&format!("{base}/runs/{id}")).expect("poll status");
        assert_eq!(response.status, 200, "{}", response.text());
        let status = parse(&response.text()).expect("status is JSON");
        match status["status"].as_str() {
            Some("queued" | "running") => {
                assert!(Instant::now() < deadline, "run {id} never finished");
                std::thread::sleep(Duration::from_millis(50));
            }
            _ => return status,
        }
    }
}

#[test]
fn http_submitted_envelope_is_byte_identical_to_the_cli_path() {
    let base = start_server();

    let response = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "quick", "seed": 11}"#,
    )
    .expect("submit");
    assert_eq!(response.status, 202, "{}", response.text());
    let id = parse(&response.text()).expect("submit reply is JSON")["id"]
        .as_u64()
        .expect("submit reply carries the run id");

    // Too early for an envelope: the service answers 409, not garbage.
    let early = client::get(&format!("{base}/runs/{id}/envelope")).expect("early fetch");
    assert!(
        early.status == 409 || early.status == 200,
        "unfinished envelope must 409 (or 200 if the run already won the race): {}",
        early.status
    );

    let status = wait_done(&base, id);
    assert_eq!(status["status"].as_str(), Some("done"), "{status}");
    assert!(
        status["fleet"]["workers"].as_array().len() >= 2,
        "status carries a fleet snapshot: {status}"
    );

    let served = client::get(&format!("{base}/runs/{id}/envelope")).expect("fetch envelope");
    assert_eq!(served.status, 200);

    // The reference bytes: the exact CLI path (`--format json`).
    let registry = leakyhammer::registry();
    let job = registry.get("fig2").expect("fig2 registered");
    let ctx = JobContext::new(ScaleLevel::Quick, 11);
    let run = Runner::new(RunnerOptions::default())
        .run(job, &ctx)
        .expect("reference run");
    let reference = sink::render(job, &run, &ctx, OutputFormat::Json);
    assert_eq!(
        served.text(),
        reference,
        "HTTP-served envelope must be byte-identical to the CLI's --format json output"
    );

    // The deterministic envelope carries the histogram block.
    let envelope = parse(&served.text()).expect("envelope is JSON");
    assert!(
        envelope["metrics"]["histograms"]["sim.queue_wait"]["count"]
            .as_u64()
            .unwrap_or(0)
            > 0,
        "envelope metrics must include merged histograms"
    );
}

#[test]
fn metrics_page_exposes_totals_histograms_and_fleet_telemetry() {
    let base = start_server();

    let response = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "quick", "seed": 7}"#,
    )
    .expect("submit");
    assert_eq!(response.status, 202, "{}", response.text());
    let id = parse(&response.text()).expect("submit reply is JSON")["id"]
        .as_u64()
        .expect("run id");
    wait_done(&base, id);

    let page = client::get(&format!("{base}/metrics")).expect("scrape");
    assert_eq!(page.status, 200);
    let text = page.text();
    for needle in [
        "# TYPE lh_units_absorbed counter",
        "lh_sim_service_wakes",
        "# TYPE lh_sim_queue_wait histogram",
        "lh_sim_queue_wait_bucket{le=\"",
        "lh_sim_queue_wait_sum",
        "lh_sim_queue_wait_count",
        "# TYPE lh_fleet_workers_alive gauge",
        "lh_fleet_workers_spawned",
        "lh_fleet_worker_units_done{worker=\"0\"}",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn stream_tails_ndjson_events_with_wall_clock_stamps() {
    let base = start_server();

    let response = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "quick", "seed": 3}"#,
    )
    .expect("submit");
    assert_eq!(response.status, 202, "{}", response.text());
    let id = parse(&response.text()).expect("submit reply is JSON")["id"]
        .as_u64()
        .expect("run id");

    // Attach immediately: the stream replays anything already recorded
    // and then follows live until the run finishes.
    let (status, reader) =
        client::get_stream(&format!("{base}/runs/{id}/stream")).expect("attach stream");
    assert_eq!(status, 200);
    let mut kinds = Vec::new();
    for line in reader.lines() {
        let line = line.expect("stream line");
        if line.is_empty() {
            continue;
        }
        let event = parse(&line).unwrap_or_else(|e| panic!("bad NDJSON {e}: {line}"));
        assert!(
            event["ts_ms"].as_u64().is_some(),
            "every stream line is wall-clock stamped: {line}"
        );
        kinds.push(event["event"].as_str().unwrap_or("?").to_owned());
    }
    assert_eq!(
        kinds.first().map(String::as_str),
        Some("started"),
        "{kinds:?}"
    );
    assert_eq!(
        kinds.last().map(String::as_str),
        Some("finished"),
        "{kinds:?}"
    );
    assert!(
        kinds.iter().filter(|k| *k == "unit").count() > 0,
        "stream carries unit completions: {kinds:?}"
    );
}

#[test]
fn submission_errors_are_structured() {
    let base = start_server();

    let missing = client::post(&format!("{base}/runs"), b"{}").expect("post");
    assert_eq!(missing.status, 400, "{}", missing.text());

    let unknown =
        client::post(&format!("{base}/runs"), br#"{"experiment": "fig99"}"#).expect("post");
    assert_eq!(unknown.status, 404, "{}", unknown.text());
    assert!(unknown.text().contains("unknown experiment"));

    let bad_scale = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "enormous"}"#,
    )
    .expect("post");
    assert_eq!(bad_scale.status, 400, "{}", bad_scale.text());

    let gone = client::get(&format!("{base}/runs/999")).expect("get");
    assert_eq!(gone.status, 404, "{}", gone.text());

    // Nesting deep enough to overflow a parser's stack is refused with
    // a parse error, and the service stays up (checked below).
    let deep = client::post(&format!("{base}/runs"), "[".repeat(20_000).as_bytes()).expect("post");
    assert_eq!(deep.status, 400, "{}", deep.text());

    let health = client::get(&format!("{base}/healthz")).expect("get");
    assert_eq!(health.status, 200);
    let health_doc = parse(&health.text()).expect("healthz is JSON");
    assert_eq!(health_doc["status"].as_str(), Some("ok"), "{health_doc}");
    assert!(
        health_doc["uptime_ms"].as_u64().is_some(),
        "healthz reports uptime: {health_doc}"
    );
    assert!(
        health_doc["workers_alive"].as_u64().is_some(),
        "healthz reports fleet liveness: {health_doc}"
    );
}

#[test]
fn version_reports_the_binary_fingerprint() {
    let base = start_server();
    let version = client::get(&format!("{base}/version")).expect("get");
    assert_eq!(version.status, 200);
    let doc = parse(&version.text()).expect("version is JSON");
    assert_eq!(doc["service"].as_str(), Some("lh-serve"), "{doc}");
    assert!(doc["version"].as_str().is_some(), "{doc}");
    assert!(doc["protocol"].as_u64().is_some(), "{doc}");
    let digest = doc["registry"].as_str().unwrap_or("");
    assert!(
        !digest.is_empty(),
        "version carries the registry digest: {doc}"
    );

    // The digest is a pure function of the registered jobs, so a second
    // service over the same registry reports the same identity.
    let other = start_server();
    let again = client::get(&format!("{other}/version")).expect("get");
    let again_doc = parse(&again.text()).expect("version is JSON");
    assert_eq!(again_doc["registry"].as_str(), Some(digest), "{again_doc}");
}

#[test]
fn flight_events_are_served_per_run_when_requested() {
    let base = start_server();

    // A run submitted without events: the endpoint 404s rather than
    // serving an empty log.
    let plain = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "quick", "seed": 5}"#,
    )
    .expect("submit");
    assert_eq!(plain.status, 202, "{}", plain.text());
    let plain_id = parse(&plain.text()).expect("submit reply")["id"]
        .as_u64()
        .expect("run id");
    let status = wait_done(&base, plain_id);
    assert_eq!(status["flight"].as_bool(), Some(false), "{status}");
    let none = client::get(&format!("{base}/runs/{plain_id}/events")).expect("get");
    assert_eq!(none.status, 404, "{}", none.text());

    // The same submission with "events": true serves the flight log.
    let recorded = client::post(
        &format!("{base}/runs"),
        br#"{"experiment": "fig2", "scale": "quick", "seed": 5, "events": true}"#,
    )
    .expect("submit");
    assert_eq!(recorded.status, 202, "{}", recorded.text());
    let id = parse(&recorded.text()).expect("submit reply")["id"]
        .as_u64()
        .expect("run id");
    let status = wait_done(&base, id);
    assert_eq!(status["status"].as_str(), Some("done"), "{status}");
    assert_eq!(status["flight"].as_bool(), Some(true), "{status}");

    let events = client::get(&format!("{base}/runs/{id}/events")).expect("get");
    assert_eq!(events.status, 200, "{}", events.text());
    let log = events.text();
    let first = log.lines().next().expect("log has a header");
    let header = parse(first).expect("header is JSON");
    assert_eq!(header["kind"].as_str(), Some("experiment"), "{first}");
    assert_eq!(header["experiment"].as_str(), Some("fig2"), "{first}");
    assert!(
        log.contains("\"kind\":\"unit\""),
        "per-unit headers present"
    );
    assert!(log.contains("\"kind\":\"cmd\""), "DRAM commands recorded");
    for line in log.lines() {
        parse(line).unwrap_or_else(|e| panic!("bad event NDJSON {e}: {line}"));
    }

    // The recording run's envelope stays byte-identical to a plain
    // run's: flight events ride beside results, never inside them.
    let with = client::get(&format!("{base}/runs/{id}/envelope")).expect("get");
    let without = client::get(&format!("{base}/runs/{plain_id}/envelope")).expect("get");
    assert_eq!(with.text(), without.text());
}

/// Submits `body`, waits for the run to finish `done`, returns its id.
fn run_to_done(base: &str, body: &str) -> u64 {
    let response = client::post(&format!("{base}/runs"), body.as_bytes()).expect("submit");
    assert_eq!(response.status, 202, "{}", response.text());
    let id = parse(&response.text()).expect("submit reply is JSON")["id"]
        .as_u64()
        .expect("run id");
    let status = wait_done(base, id);
    assert_eq!(status["status"].as_str(), Some("done"), "{status}");
    id
}

fn fetch(url: &str) -> (u16, String) {
    let response = client::get(url).expect("get");
    (response.status, response.text())
}

/// The sample of an unlabelled family on the `/metrics` page.
fn metric(base: &str, family: &str) -> u64 {
    let (status, page) = fetch(&format!("{base}/metrics"));
    assert_eq!(status, 200);
    page.lines()
        .find_map(|line| line.strip_prefix(family)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample of {family} in:\n{page}"))
}

fn retained(base: &str, id: u64) -> bool {
    let (status, text) = fetch(&format!("{base}/runs/{id}"));
    assert_eq!(status, 200, "{text}");
    parse(&text).expect("status is JSON")["retained"]
        .as_bool()
        .expect("every status document says whether the run is retained")
}

/// A fig2 run with its flight log: ≈ 280 KB of payload for a few
/// milliseconds of simulation. Runs of one seed share that payload in
/// the store, so thirty of them, each with a seed of its own, turn the
/// budget over even on a cache-less service.
const RECORDING_FIG2: &str =
    r#"{"experiment": "fig2", "scale": "quick", "seed": 1, "events": true}"#;

fn recording_fig2(seed: u64) -> String {
    format!(r#"{{"experiment": "fig2", "scale": "quick", "seed": {seed}, "events": true}}"#)
}

/// Submits recording fig2 runs of fresh seeds until runs 1 and 2 have
/// been evicted, checking the payload gauge against the budget after
/// every one, then one more of seed 1. Returns that run's id.
fn submit_until_evicted(base: &str) -> u64 {
    let mut seed = 1;
    while retained(base, 1) || retained(base, 2) {
        seed += 1;
        let last = run_to_done(base, &recording_fig2(seed));
        let held = metric(base, "lh_serve_run_payload_bytes");
        assert!(
            held <= PAYLOAD_BUDGET_BYTES as u64,
            "after run {last} the service holds {held} payload bytes"
        );
        assert!(last < 300, "300 of these are 10 budgets: eviction is off");
    }
    let last = run_to_done(base, RECORDING_FIG2);
    assert!(retained(base, last), "the newest run is in memory");
    last
}

/// The line with the values of its wall-clock fields (`ts_ms`,
/// `wall_ms`) cut out.
fn without_clocks(line: &str) -> String {
    let mut out = line.to_owned();
    for key in ["\"ts_ms\":", "\"wall_ms\":"] {
        let at = out.find(key).expect("the line is stamped") + key.len();
        let digits = out[at..].bytes().take_while(u8::is_ascii_digit).count();
        out.replace_range(at..at + digits, "");
    }
    out
}

/// The last line of a finished run's stream: its `finished` line.
fn finished_line(base: &str, id: u64) -> String {
    let (status, reader) =
        client::get_stream(&format!("{base}/runs/{id}/stream")).expect("attach stream");
    assert_eq!(status, 200);
    let last = reader
        .lines()
        .map(|line| line.expect("stream line"))
        .filter(|line| !line.is_empty())
        .last()
        .expect("a line");
    assert!(last.starts_with("{\"event\":\"finished\""), "{last}");
    last
}

/// The same quick run submitted twice on a warm cache: both serve the
/// CLI's envelope, both stream the same `finished` line but for its
/// clocks, and the store holds the second's documents by reference —
/// it costs less than one envelope.
#[test]
fn a_repeated_run_serves_the_same_bytes_and_shares_its_documents() {
    let cache = DiskCache::new(
        std::env::temp_dir().join(format!("lh-serve-http-share-{}", std::process::id())),
    );
    cache.clear().expect("scratch cache");
    // The reference bytes, through the CLI path, which also warms the cache.
    let registry = leakyhammer::registry();
    let job = registry.get("fig4").expect("fig4 registered");
    let ctx = JobContext::new(ScaleLevel::Quick, 4);
    let run = Runner::new(RunnerOptions {
        cache: Some(cache.clone()),
        ..RunnerOptions::default()
    })
    .run(job, &ctx)
    .expect("reference run");
    let reference = sink::render(job, &run, &ctx, OutputFormat::Json);

    let base = start_server_over(Some(cache.clone()));
    const FIG4: &str = r#"{"experiment": "fig4", "scale": "quick", "seed": 4}"#;
    let first = run_to_done(&base, FIG4);
    let before = metric(&base, "lh_serve_run_payload_bytes");
    let second = run_to_done(&base, FIG4);
    let grown = metric(&base, "lh_serve_run_payload_bytes") - before;

    for id in [first, second] {
        assert_eq!(
            fetch(&format!("{base}/runs/{id}/envelope")),
            (200, reference.clone())
        );
    }
    let (line, again) = (finished_line(&base, first), finished_line(&base, second));
    assert_eq!(without_clocks(&line), without_clocks(&again));
    assert_eq!(
        parse(&line).expect("the line is JSON")["envelope"],
        parse(&reference).expect("the envelope is JSON"),
        "the finished line carries the envelope"
    );
    assert!(
        grown > 0 && grown < reference.len() as u64,
        "the second run added {grown} bytes; its envelope alone is {}",
        reference.len()
    );
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn an_evicted_run_is_re_served_from_the_disk_cache_byte_for_byte() {
    let cache = DiskCache::new(
        std::env::temp_dir().join(format!("lh-serve-http-evict-{}", std::process::id())),
    );
    cache.clear().expect("scratch cache");
    let base = start_server_over(Some(cache.clone()));

    // Run 1 fills the cache; run 2 records a flight log. Both are read
    // while the service still holds them.
    const MITSWEEP: &str = r#"{"experiment": "mitsweep", "scale": "quick", "seed": 1}"#;
    let first = run_to_done(&base, MITSWEEP);
    let recording = run_to_done(&base, RECORDING_FIG2);
    assert_eq!((first, recording), (1, 2));
    let (_, held_envelope) = fetch(&format!("{base}/runs/1/envelope"));
    let (_, held_fig2) = fetch(&format!("{base}/runs/2/envelope"));
    let (_, held_log) = fetch(&format!("{base}/runs/2/events"));
    assert!(held_log.contains("\"kind\":\"cmd\""), "a real flight log");
    assert_eq!(metric(&base, "lh_serve_envelopes_recovered_total"), 0);

    submit_until_evicted(&base);
    let last = run_to_done(&base, MITSWEEP);
    assert!(retained(&base, last));
    assert!(metric(&base, "lh_serve_runs_evicted_total") >= 2);
    assert!(metric(&base, "lh_serve_runs_retained") > 0);

    // From disk: the bytes the run served from memory, the committed
    // snapshot's, and what the newest run serves from memory now.
    let (status, envelope) = fetch(&format!("{base}/runs/1/envelope"));
    assert_eq!(status, 200, "{envelope}");
    assert_eq!(envelope, held_envelope);
    let snapshot = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/bench/snapshots/mitsweep.quick.json"
    ))
    .expect("committed snapshot");
    assert_eq!(envelope, snapshot);
    assert_eq!(fetch(&format!("{base}/runs/{last}/envelope")).1, envelope);
    let fig2_snapshot = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/bench/snapshots/fig2.quick.json"
    ))
    .expect("committed snapshot");
    assert_eq!(fetch(&format!("{base}/runs/2/envelope")).1, held_fig2);
    assert_eq!(
        fetch(&format!("{base}/runs/{}/envelope", last - 1)).1,
        held_fig2
    );
    assert_eq!(held_fig2, fig2_snapshot);
    assert_eq!(fetch(&format!("{base}/runs/2/events")), (200, held_log));
    assert_eq!(metric(&base, "lh_serve_envelopes_recovered_total"), 3);

    // The stream is not kept: 410, and the error is the way back.
    let (status, text) = fetch(&format!("{base}/runs/1/stream"));
    assert_eq!(status, 410, "{text}");
    let gone = parse(&text).expect("the 410 body is JSON");
    assert!(gone["error"]
        .as_str()
        .is_some_and(|e| e.contains("resubmit")));
    assert_eq!(gone["resubmit"]["experiment"].as_str(), Some("mitsweep"));
    assert_eq!(gone["resubmit"]["seed"].as_u64(), Some(1));

    // The listing still knows every run, and which it can stream.
    let (_, listing) = fetch(&format!("{base}/runs"));
    let listing = parse(&listing).expect("listing is JSON");
    let runs = listing.as_array();
    assert_eq!(runs.len() as u64, last);
    assert_eq!(runs[0]["retained"].as_bool(), Some(false));
    assert_eq!(runs[0]["status"].as_str(), Some("done"));
    assert_eq!(runs[last as usize - 1]["retained"].as_bool(), Some(true));

    // A cleared cache leaves nothing to re-serve.
    cache.clear().expect("scratch cache");
    let (status, text) = fetch(&format!("{base}/runs/1/envelope"));
    assert_eq!(status, 410, "{text}");
    assert_eq!(fetch(&format!("{base}/runs/2/events")).0, 410);
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn without_a_cache_an_evicted_envelope_answers_410_with_the_way_back() {
    let base = start_server();
    assert_eq!(run_to_done(&base, RECORDING_FIG2), 1);
    assert_eq!(run_to_done(&base, RECORDING_FIG2), 2);
    assert_eq!(fetch(&format!("{base}/runs/1/envelope")).0, 200);
    assert_eq!(fetch(&format!("{base}/runs/1/events")).0, 200);

    let last = submit_until_evicted(&base);
    let (status, text) = fetch(&format!("{base}/runs/1/envelope"));
    assert_eq!(status, 410, "{text}");
    let gone = parse(&text).expect("the 410 body is JSON");
    assert!(gone["error"]
        .as_str()
        .is_some_and(|e| e.contains("resubmit")));
    assert_eq!(gone["resubmit"]["experiment"].as_str(), Some("fig2"));
    assert_eq!(gone["resubmit"]["scale"].as_str(), Some("quick"));
    assert_eq!(gone["resubmit"]["seed"].as_u64(), Some(1));
    assert_eq!(gone["resubmit"]["events"].as_bool(), Some(true));
    assert_eq!(fetch(&format!("{base}/runs/1/events")).0, 410);
    assert_eq!(fetch(&format!("{base}/runs/1/stream")).0, 410);
    assert_eq!(metric(&base, "lh_serve_envelopes_recovered_total"), 0);
    assert_eq!(fetch(&format!("{base}/runs/{last}/envelope")).0, 200);
}

/// Two services in one process, one recording while the other runs
/// plain: the recording run's log is the CLI's `--events-out` bytes, and
/// no plain run carries a log.
#[test]
fn concurrent_servers_keep_flight_recording_to_their_own_runs() {
    // A recording mitsweep (≈ 54 MB of events) is over the payload
    // budget on its own, so A serves its log back from the disk cache.
    let cache = DiskCache::new(
        std::env::temp_dir().join(format!("lh-serve-http-concurrent-{}", std::process::id())),
    );
    cache.clear().expect("scratch cache");
    let a = start_server_over(Some(cache.clone()));
    let b = start_server();

    let response = client::post(
        &format!("{a}/runs"),
        br#"{"experiment": "mitsweep", "scale": "quick", "seed": 1, "events": true}"#,
    )
    .expect("submit");
    assert_eq!(response.status, 202, "{}", response.text());
    let recording = parse(&response.text()).expect("submit reply is JSON")["id"]
        .as_u64()
        .expect("run id");

    // Plain fig2 runs on B for as long as A's run is executing.
    let mut plain = Vec::new();
    loop {
        plain.push(run_to_done(
            &b,
            r#"{"experiment": "fig2", "scale": "quick", "seed": 1}"#,
        ));
        let (_, status) = fetch(&format!("{a}/runs/{recording}"));
        let status = parse(&status).expect("status is JSON");
        if !matches!(status["status"].as_str(), Some("queued" | "running")) {
            break;
        }
    }
    let status = wait_done(&a, recording);
    assert_eq!(status["status"].as_str(), Some("done"), "{status}");
    for id in plain {
        let (_, status) = fetch(&format!("{b}/runs/{id}"));
        let status = parse(&status).expect("status is JSON");
        assert_eq!(status["flight"].as_bool(), Some(false), "{status}");
        assert_eq!(fetch(&format!("{b}/runs/{id}/events")).0, 404);
    }

    // The reference bytes: what `mitsweep --events-out` writes.
    let registry = leakyhammer::registry();
    let job = registry.get("mitsweep").expect("mitsweep registered");
    let ctx = JobContext {
        flight: Some(lh_obs::flight::DEFAULT_CAP),
        ..JobContext::new(ScaleLevel::Quick, 1)
    };
    let reference = Runner::new(RunnerOptions::default())
        .run(job, &ctx)
        .expect("reference run")
        .events
        .expect("a recording context produces a log");
    let (status, served) = fetch(&format!("{a}/runs/{recording}/events"));
    assert_eq!(status, 200);
    assert!(
        served == reference,
        "the served log ({} bytes, {} lines) differs from the CLI's ({} bytes, {} lines)",
        served.len(),
        served.lines().count(),
        reference.len(),
        reference.lines().count()
    );
    let _ = std::fs::remove_dir_all(cache.dir());
}
