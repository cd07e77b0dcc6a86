//! `lh-experiments` — regenerate any figure or table of the paper on
//! the `lh-harness` runner: units scheduled as a dependency DAG across
//! cores (`--jobs`) or across worker processes (`--workers`, the
//! `lh-coord` coordinator), cached across reruns, with text/JSON/CSV
//! output and an NDJSON streaming mode (`--stream`) that emits each
//! unit's result the moment it completes — one multiplexed feed no
//! matter how many workers produced it (`lh-experiments watch` renders
//! it).
//!
//! Observability: every experiment envelope carries a deterministic
//! `metrics` block (per-unit simulator counters plus totals, including
//! power-of-two-bucket histograms); `lh-experiments report` condenses
//! envelopes or `--stream` feeds into a canonical metrics document CI
//! diffs against committed snapshots, and `--trace-out FILE` exports
//! wall-clock spans as Chrome `trace_event` JSON loadable in
//! `chrome://tracing` or Perfetto.
//!
//! `--events-out FILE` turns on the flight recorder: typed events on
//! the *simulated* clock (DRAM commands, defense maintenance decisions
//! with cause, mitigation interventions, link symbol windows with
//! decode verdicts) land in an NDJSON log that is byte-identical across
//! `--jobs N`, `--workers N` and cache replay. `lh-experiments events`
//! filters, summarizes, exports (Chrome `trace_event` on the simulated
//! clock) and renders the leak-alignment view of such a log.
//!
//! `lh-experiments serve` runs the whole harness as a resident service
//! (`lh-serve`): jobs submitted over HTTP against a warm cache and a
//! resident worker fleet, live NDJSON run streaming, and a Prometheus
//! `/metrics` endpoint with fleet telemetry. `lh-experiments watch
//! --url http://host:port/runs/<id>/stream` attaches the dashboard to
//! a serve run.
//!
//! ```text
//! lh-experiments <id|all|list|watch|report|events|serve> [options]
//!
//! options:
//!   --scale quick|default|paper   experiment scale (default: default)
//!   --seed N                      master seed (default: 1)
//!   --jobs N                      in-process worker threads (default: all cores)
//!   --workers N                   distribute units across N worker child processes
//!   --no-cache                    disable the on-disk result cache
//!   --cache-dir PATH              cache location (default: .lh-cache)
//!   --format text|json|csv        output format (default: text)
//!   --stream                      stream NDJSON events to stdout as units finish
//!   --trace-out FILE              export wall-clock spans as Chrome trace_event JSON
//!   --events-out FILE             record simulated-time flight events to FILE (NDJSON)
//!   --events-cap N                flight-recorder ring capacity per unit
//!   --kind/--bank/--seg/--from/--to   events: filter predicates
//!   --summary / --align / --chrome F  events: view selection
//!   --addr HOST:PORT              serve: listen address (default: 127.0.0.1:7878)
//!   --url URL                     watch: attach to a serve stream URL instead of stdin
//!   --quiet                       suppress progress lines on stderr
//!   --worker                      internal: serve units over stdio (lh-coord protocol)
//!   --help                        this message
//! ```

#[path = "../flight_view.rs"]
mod flight_view;

use lh_coord::{Coordinator, CoordinatorOptions, ProcessSpawner};
use lh_harness::{
    DiskCache, ExperimentRun, Job, JobContext, OutputFormat, Runner, RunnerOptions, ScaleLevel,
};

const USAGE: &str = "\
usage: lh-experiments <id|all|list|watch|report|events|serve> [options]

commands:
  <id>           run one experiment (see `lh-experiments list`)
  all            run every experiment
  list           list experiment ids and descriptions
  watch          render an NDJSON --stream feed (stdin, or --url against a
                 running serve instance) as a live dashboard
  report FILE..  condense envelope JSON / --stream feeds ('-' = stdin) into
                 a canonical deterministic-metrics document
  events FILE..  filter/summarize/export an --events-out flight-event log
                 ('-' = stdin); --align renders the leak-alignment view
  serve          run as a resident HTTP service: submit jobs, stream runs,
                 scrape /metrics (see crates/serve/README.md)

options:
  --scale quick|default|paper   experiment scale (default: default)
  --seed N                      master seed (default: 1)
  --jobs N                      in-process worker threads (default: all cores)
  --workers N                   distribute units across N worker child processes
                                (serve: resident fleet size, default 2)
  --no-cache                    disable the on-disk result cache
  --cache-dir PATH              cache location (default: .lh-cache)
  --format text|json|csv        output format (default: text; report: text,
                                json, or csv — one row per unit with counters
                                and histogram quantiles)
  --stream                      stream NDJSON events to stdout as units finish
  --trace-out FILE              export wall-clock spans as Chrome trace_event JSON
  --events-out FILE             record simulated-time flight events to FILE
                                (NDJSON; byte-identical across --jobs/--workers
                                and cache replay)
  --events-cap N                flight-recorder ring capacity per unit
                                (default 65536; oldest events drop, counted)
  --kind K                      events: keep only kind K (cmd|maint|mitigation|link)
  --bank N / --seg N            events: keep only bank / segment N
  --from NS / --to NS           events: keep t_ns in [FROM, TO)
  --summary                     events: per-unit kind/verdict/drop summary
  --align                       events: leak-alignment view (link windows vs
                                in-window maintenance and mitigation)
  --chrome FILE                 events: write Chrome trace_event JSON on the
                                simulated clock to FILE
  --addr HOST:PORT              serve: listen address (default: 127.0.0.1:7878)
  --url URL                     watch: attach to a serve stream URL instead of stdin
  --quiet                       suppress progress lines on stderr
  --worker                      internal: serve units over stdio (lh-coord protocol)
  --help                        this message
";

#[derive(Debug)]
struct Args {
    id: String,
    scale: ScaleLevel,
    seed: u64,
    jobs: usize,
    workers: usize,
    worker: bool,
    cache: bool,
    cache_dir: String,
    format: Option<OutputFormat>,
    stream: bool,
    trace_out: Option<String>,
    events_out: Option<String>,
    events_cap: Option<usize>,
    query: flight_view::EventQuery,
    ev_summary: bool,
    ev_align: bool,
    ev_chrome: Option<String>,
    addr: String,
    url: Option<String>,
    quiet: bool,
    files: Vec<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            id: "list".to_owned(),
            scale: ScaleLevel::Default,
            seed: 1,
            jobs: 0,
            workers: 0,
            worker: false,
            cache: true,
            cache_dir: ".lh-cache".to_owned(),
            format: None,
            stream: false,
            trace_out: None,
            events_out: None,
            events_cap: None,
            query: flight_view::EventQuery::default(),
            ev_summary: false,
            ev_align: false,
            ev_chrome: None,
            addr: "127.0.0.1:7878".to_owned(),
            url: None,
            quiet: false,
            files: Vec::new(),
        }
    }
}

/// Exit codes: 0 success, 1 runtime failure, 2 usage error.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let mut saw_command = false;

    fn value<'a>(flag: &str, it: &mut core::slice::Iter<'a, String>) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--scale" => args.scale = value("--scale", &mut it)?.parse()?,
            "--seed" => {
                args.seed = value("--seed", &mut it)?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_owned())?;
            }
            "--jobs" | "-j" => {
                args.jobs = value("--jobs", &mut it)?
                    .parse()
                    .map_err(|_| "--jobs needs a positive integer".to_owned())?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
            }
            "--workers" => {
                args.workers = value("--workers", &mut it)?
                    .parse()
                    .map_err(|_| "--workers needs a positive integer".to_owned())?;
                if args.workers == 0 {
                    return Err("--workers must be at least 1".to_owned());
                }
            }
            "--worker" => args.worker = true,
            "--no-cache" => args.cache = false,
            "--cache-dir" => args.cache_dir = value("--cache-dir", &mut it)?.clone(),
            "--format" => args.format = Some(value("--format", &mut it)?.parse()?),
            "--stream" => args.stream = true,
            "--trace-out" => args.trace_out = Some(value("--trace-out", &mut it)?.clone()),
            "--events-out" => args.events_out = Some(value("--events-out", &mut it)?.clone()),
            "--events-cap" => {
                let cap = value("--events-cap", &mut it)?
                    .parse()
                    .map_err(|_| "--events-cap needs a positive integer".to_owned())?;
                if cap == 0 {
                    return Err("--events-cap must be at least 1".to_owned());
                }
                args.events_cap = Some(cap);
            }
            "--kind" => {
                let kind = value("--kind", &mut it)?.clone();
                if !matches!(kind.as_str(), "cmd" | "maint" | "mitigation" | "link") {
                    return Err(format!(
                        "--kind must be cmd, maint, mitigation or link, not '{kind}'"
                    ));
                }
                args.query.kind = Some(kind);
            }
            "--bank" => {
                args.query.bank = Some(
                    value("--bank", &mut it)?
                        .parse()
                        .map_err(|_| "--bank needs an unsigned integer".to_owned())?,
                );
            }
            "--seg" => {
                args.query.seg = Some(
                    value("--seg", &mut it)?
                        .parse()
                        .map_err(|_| "--seg needs an unsigned integer".to_owned())?,
                );
            }
            "--from" => {
                args.query.from = Some(
                    value("--from", &mut it)?
                        .parse()
                        .map_err(|_| "--from needs simulated ns (unsigned)".to_owned())?,
                );
            }
            "--to" => {
                args.query.to = Some(
                    value("--to", &mut it)?
                        .parse()
                        .map_err(|_| "--to needs simulated ns (unsigned)".to_owned())?,
                );
            }
            "--summary" => args.ev_summary = true,
            "--align" => args.ev_align = true,
            "--chrome" => args.ev_chrome = Some(value("--chrome", &mut it)?.clone()),
            "--addr" => args.addr = value("--addr", &mut it)?.clone(),
            "--url" => args.url = Some(value("--url", &mut it)?.clone()),
            "--quiet" | "-q" => args.quiet = true,
            // `-` names stdin for `report`; every other dash-leading
            // token is an option.
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(format!("unknown option '{flag}'"));
            }
            id if !saw_command => {
                args.id = id.to_owned();
                saw_command = true;
            }
            file if args.id == "report" || args.id == "events" => args.files.push(file.to_owned()),
            extra => return Err(format!("unexpected argument '{extra}'")),
        }
    }
    if (args.id == "report" || args.id == "events") && args.files.is_empty() {
        return Err(format!(
            "{} needs at least one input file ('-' = stdin)",
            args.id
        ));
    }
    let event_views = usize::from(args.ev_summary)
        + usize::from(args.ev_align)
        + usize::from(args.ev_chrome.is_some());
    if args.id == "events" {
        if event_views > 1 {
            return Err("--summary, --align and --chrome are mutually exclusive".to_owned());
        }
        if args.format.is_some() || args.stream {
            return Err("events emits its own formats (see --summary/--align/--chrome)".to_owned());
        }
    } else {
        let has_query = args.query.kind.is_some()
            || args.query.bank.is_some()
            || args.query.seg.is_some()
            || args.query.from.is_some()
            || args.query.to.is_some();
        if event_views > 0 || has_query {
            return Err(
                "--kind/--bank/--seg/--from/--to/--summary/--align/--chrome only apply to the \
                 events command"
                    .to_owned(),
            );
        }
    }
    if args.events_out.is_some()
        && (args.worker || matches!(args.id.as_str(), "watch" | "report" | "events" | "serve"))
    {
        return Err(
            "--events-out only applies to experiment runs (serve clients request events per \
             run; workers get the request with each assignment)"
                .to_owned(),
        );
    }
    if args.events_cap.is_some() && args.events_out.is_none() {
        return Err("--events-cap needs --events-out".to_owned());
    }
    if args.stream && args.format.is_some() {
        return Err(
            "--stream and --format are mutually exclusive (streaming always emits NDJSON)"
                .to_owned(),
        );
    }
    if args.jobs != 0 && args.workers != 0 {
        return Err(
            "--jobs and --workers are mutually exclusive (threads vs worker processes)".to_owned(),
        );
    }
    if args.url.is_some() && args.id != "watch" {
        return Err("--url only applies to the watch command".to_owned());
    }
    if args.id == "serve" && (args.stream || args.format.is_some() || args.jobs != 0) {
        return Err(
            "serve takes no --stream/--format/--jobs (clients choose output; the fleet is \
             --workers)"
                .to_owned(),
        );
    }
    if args.worker
        && (saw_command
            || args.workers != 0
            || args.stream
            || args.format.is_some()
            || args.trace_out.is_some())
    {
        return Err(
            "--worker takes no command and no output flags (it serves a coordinator over \
                    stdio)"
                .to_owned(),
        );
    }
    Ok(args)
}

/// Writes to stdout. A closed downstream pipe (`lh-experiments list |
/// head`) is a normal way for a consumer to stop reading, so it exits
/// quietly; any other write error (disk full, I/O fault) is reported
/// and fails the run — a truncated report must not look successful.
fn emit(text: &str) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_all(text.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing output failed: {e}");
        std::process::exit(1);
    }
}

/// How experiments execute: the in-process thread pool (`--jobs`) or
/// the `lh-coord` fleet of worker child processes (`--workers`).
enum Executor {
    Threads(Runner),
    Fleet(Coordinator),
}

impl Executor {
    fn run(&mut self, job: &dyn Job, ctx: &JobContext) -> Result<ExperimentRun, String> {
        match self {
            Executor::Threads(runner) => runner.run(job, ctx),
            Executor::Fleet(coordinator) => coordinator.run(job, ctx),
        }
    }

    /// The fleet-telemetry snapshot, when a fleet is executing (thread
    /// runs have no fleet to report on).
    fn fleet_snapshot(&self) -> Option<lh_harness::Json> {
        match self {
            Executor::Threads(_) => None,
            Executor::Fleet(coordinator) => Some(coordinator.telemetry().snapshot().to_json()),
        }
    }
}

/// How often a worker process tells the coordinator it is alive.
const WORKER_HEARTBEAT: std::time::Duration = std::time::Duration::from_millis(500);

/// Runs as a protocol worker over stdio: the child side of `--workers`.
/// The chaos hook (worker 0 crashing on its n-th assignment when
/// `LH_COORD_CHAOS=n` is set) exists so CI can prove requeue-on-death
/// end to end with a deterministic kill. Workers heartbeat every
/// [`WORKER_HEARTBEAT`] (protocol v3 liveness for the fleet telemetry).
/// A worker opens no cache: the coordinator writes every entry.
fn worker_mode() -> ! {
    let registry = leakyhammer::registry();
    let chaos = std::env::var("LH_COORD_CHAOS")
        .ok()
        .filter(|_| std::env::var("LH_COORD_WORKER").as_deref() == Ok("0"))
        .and_then(|n| n.parse().ok());
    let options = lh_coord::WorkerOptions {
        exit_after_assigns: chaos,
        heartbeat: Some(WORKER_HEARTBEAT),
    };
    match lh_coord::worker_loop(&registry, lh_coord::stdio_link(), None, options) {
        Ok(()) => std::process::exit(0),
        // The coordinator going away (its own exit closes our pipes) is
        // a normal way for a worker's life to end, not worth a scare.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: worker: {e}");
            std::process::exit(1);
        }
    }
}

/// Extracts `(experiment id, metrics block)` pairs from one report
/// input: either a single envelope document (a committed snapshot, or
/// `--format json` output for one experiment) or an NDJSON `--stream`
/// feed whose `finished` lines carry envelopes. Envelopes predating the
/// deterministic-metrics block (no `metrics` key) are skipped, not
/// fatal: the second return counts them so the caller can warn once.
fn collect_metrics(
    content: &str,
    origin: &str,
) -> Result<(Vec<(String, lh_harness::Json)>, usize), String> {
    use lh_harness::json::parse;

    // `Ok(pair)` for a usable envelope, `Err(true)` for a pre-metrics
    // envelope (recognized, skipped), `Err(false)` for a non-envelope.
    let from_envelope = |envelope: &lh_harness::Json| -> Result<(String, lh_harness::Json), bool> {
        let Some(id) = envelope["experiment"].as_str() else {
            return Err(false);
        };
        match &envelope["metrics"] {
            lh_harness::Json::Null => Err(true),
            metrics => Ok((id.to_owned(), metrics.clone())),
        }
    };

    if let Ok(doc) = parse(content.trim()) {
        return match from_envelope(&doc) {
            Ok(pair) => Ok((vec![pair], 0)),
            Err(true) => Ok((Vec::new(), 1)),
            Err(false) => Err(format!(
                "{origin}: JSON document is not an experiment envelope"
            )),
        };
    }
    // Not one document: treat as an NDJSON stream and harvest the
    // envelopes off `finished` events.
    let mut found = Vec::new();
    let mut skipped = 0;
    for line in content.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(event) = parse(line) else { continue };
        if event["event"].as_str() == Some("finished") {
            match from_envelope(&event["envelope"]) {
                Ok(pair) => found.push(pair),
                Err(true) => skipped += 1,
                Err(false) => {}
            }
        }
    }
    if found.is_empty() && skipped == 0 {
        return Err(format!(
            "{origin}: no envelopes found (expected an envelope document or a --stream feed)"
        ));
    }
    Ok((found, skipped))
}

/// Reads one `report` / `events` input — a file, or stdin for `-` —
/// and returns its content with the name error messages cite.
fn read_input(file: &str) -> Result<(String, &str), String> {
    if file == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf)
            .map_err(|e| format!("reading stdin failed: {e}"))?;
        Ok((buf, "<stdin>"))
    } else {
        let content =
            std::fs::read_to_string(file).map_err(|e| format!("reading {file} failed: {e}"))?;
        Ok((content, file))
    }
}

/// `lh-experiments report`: condenses envelopes into one canonical
/// deterministic-metrics document — experiments sorted by id, each with
/// its per-unit counters and totals, plus cross-experiment grand
/// totals. Byte-stable for byte-stable inputs, which is what the CI
/// perf-trend gate diffs against committed snapshots.
fn report_mode(files: &[String], format: OutputFormat) -> ! {
    use lh_harness::{metrics_from_json, metrics_to_json, Json};

    let mut experiments: Vec<(String, Json)> = Vec::new();
    let mut without_metrics = 0;
    for file in files {
        match read_input(file).and_then(|(c, origin)| collect_metrics(&c, origin)) {
            Ok((pairs, skipped)) => {
                experiments.extend(pairs);
                without_metrics += skipped;
            }
            Err(e) => {
                eprintln!("error: report: {e}");
                std::process::exit(1);
            }
        }
    }
    if without_metrics > 0 {
        eprintln!(
            "warning: report: skipped {without_metrics} envelope(s) without a metrics block \
             (written before deterministic metrics landed; re-run to refresh them)"
        );
    }
    experiments.sort_by(|a, b| a.0.cmp(&b.0));

    let mut grand = lh_obs::Metrics::new();
    let mut by_id = Json::object();
    for (id, metrics) in &experiments {
        grand.merge(&metrics_from_json(&metrics["totals"]));
        // Envelope `totals` are counters-only by design; the merged
        // histograms sit in a sibling block. Fold those in too so the
        // report's grand totals carry the full distribution.
        for (name, hist) in metrics[lh_harness::HISTOGRAMS_KEY].as_object() {
            let mut hists = lh_obs::Metrics::new();
            hists.set_hist(name, lh_harness::hist_from_json(hist));
            grand.merge(&hists);
        }
        by_id.set(id, metrics.clone());
    }
    let doc = Json::object()
        .with("experiments", by_id)
        .with("totals", metrics_to_json(&grand));

    match format {
        OutputFormat::Json => emit(&(doc.to_pretty() + "\n")),
        OutputFormat::Csv => emit(&report_csv(&experiments)),
        _ => {
            emit("== deterministic metrics ==\n");
            for (id, metrics) in &experiments {
                let units = metrics["units"].as_object().len();
                emit(&format!("{id}: {units} unit(s)\n"));
                for (name, value) in metrics["totals"].as_object() {
                    emit(&format!("  {name} = {value}\n"));
                }
            }
            emit("totals:\n");
            for (name, value) in grand.iter() {
                emit(&format!("  {name} = {value}\n"));
            }
            for (name, hist) in grand.hists() {
                emit(&format!(
                    "  {name} = {} sample(s), sum {}\n",
                    hist.count(),
                    hist.sum()
                ));
            }
        }
    }
    std::process::exit(0);
}

/// `report --format csv`: one row per experiment unit. Columns are the
/// sorted union of counter names across all units, then per histogram
/// its sample count and p50/p90/p99 quantiles — a flat table for
/// spreadsheet- or pandas-side trend analysis. Cells for counters a
/// unit never touched stay empty (absent is not zero: a unit that never
/// entered a subsystem is different from one that measured 0).
fn report_csv(experiments: &[(String, lh_harness::Json)]) -> String {
    use lh_harness::sink::csv_field;
    use lh_harness::{hist_from_json, HISTOGRAMS_KEY};
    use std::collections::BTreeSet;

    let mut counters: BTreeSet<&str> = BTreeSet::new();
    let mut hists: BTreeSet<&str> = BTreeSet::new();
    for (_, metrics) in experiments {
        for (_, unit_metrics) in metrics["units"].as_object() {
            for (name, _) in unit_metrics.as_object() {
                if name != HISTOGRAMS_KEY {
                    counters.insert(name);
                }
            }
            for (name, _) in unit_metrics[HISTOGRAMS_KEY].as_object() {
                hists.insert(name);
            }
        }
    }

    let mut out = String::from("experiment,unit");
    for name in &counters {
        out.push(',');
        out.push_str(&csv_field(name));
    }
    for name in &hists {
        for suffix in ["count", "p50", "p90", "p99"] {
            out.push(',');
            out.push_str(&csv_field(&format!("{name}.{suffix}")));
        }
    }
    out.push('\n');

    for (id, metrics) in experiments {
        for (unit, unit_metrics) in metrics["units"].as_object() {
            out.push_str(&csv_field(id));
            out.push(',');
            out.push_str(&csv_field(unit));
            for name in &counters {
                out.push(',');
                if let Some(value) = unit_metrics[*name].as_u64() {
                    out.push_str(&value.to_string());
                }
            }
            for name in &hists {
                let hist_json = &unit_metrics[HISTOGRAMS_KEY][*name];
                if hist_json.as_object().is_empty() {
                    out.push_str(",,,,");
                    continue;
                }
                let hist = hist_from_json(hist_json);
                out.push_str(&format!(
                    ",{},{},{},{}",
                    hist.count(),
                    hist.quantile(0.50),
                    hist.quantile(0.90),
                    hist.quantile(0.99)
                ));
            }
            out.push('\n');
        }
    }
    out
}

/// `lh-experiments events`: filter/summarize/export a flight-event log
/// produced by `--events-out` (see `flight_view.rs`).
fn events_mode(args: &Args) -> ! {
    use flight_view as fv;

    let mut lines: Vec<fv::LogLine> = Vec::new();
    for file in &args.files {
        match read_input(file).and_then(|(c, origin)| fv::parse_log(&c, origin)) {
            Ok(mut parsed) => lines.append(&mut parsed),
            Err(e) => {
                eprintln!("error: events: {e}");
                std::process::exit(1);
            }
        }
    }
    let selected = fv::select(lines, &args.query);
    if args.ev_summary {
        emit(&fv::summary(&selected));
    } else if args.ev_align {
        emit(&fv::align(&selected));
    } else if let Some(path) = &args.ev_chrome {
        let trace = fv::chrome(&selected);
        if let Err(e) = std::fs::write(path, trace.as_bytes()) {
            eprintln!("error: events: writing {path} failed: {e}");
            std::process::exit(1);
        }
        if !args.quiet {
            eprintln!("events: wrote simulated-clock trace to {path}");
        }
    } else {
        for line in &selected {
            emit(&line.raw);
            emit("\n");
        }
    }
    std::process::exit(0);
}

/// Renders a `--stream` NDJSON feed as a live dashboard — from stdin,
/// or (with `--url`) followed live from a running serve instance's
/// `/runs/<id>/stream` endpoint.
fn watch_mode(url: Option<&str>) -> ! {
    let outcome = match url {
        None => {
            let stdin = std::io::stdin();
            lh_coord::watch(stdin.lock(), std::io::stdout())
        }
        Some(url) => match lh_serve::client::get_stream(url) {
            Ok((200, reader)) => lh_coord::watch(reader, std::io::stdout()),
            Ok((status, _)) => {
                eprintln!("error: watch: {url} answered HTTP {status}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: watch: connecting to {url} failed: {e}");
                std::process::exit(1);
            }
        },
    };
    match outcome {
        Ok(_) => std::process::exit(0),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: watch: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the resident experiment service until killed: a warm cache, a
/// resident worker fleet (this same binary in `--worker` mode), and
/// the lh-serve HTTP API on `--addr`.
fn serve_mode(args: &Args) -> ! {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate own binary to spawn workers: {e}");
            std::process::exit(1);
        }
    };
    let options = lh_serve::ServeOptions {
        workers: if args.workers > 0 { args.workers } else { 2 },
        cache: args.cache.then(|| DiskCache::new(&args.cache_dir)),
    };
    let server = match lh_serve::Server::bind(
        args.addr.as_str(),
        Box::new(ProcessSpawner::new(exe, Vec::new())),
        leakyhammer::registry,
        options,
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: serve: binding {} failed: {e}", args.addr);
            std::process::exit(1);
        }
    };
    if !args.quiet {
        match server.addr() {
            Ok(addr) => eprintln!("lh-serve: listening on http://{addr}"),
            Err(_) => eprintln!("lh-serve: listening on {}", args.addr),
        }
    }
    match server.run() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: serve: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) if msg.is_empty() => {
            emit(USAGE);
            return;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };

    if args.worker {
        worker_mode();
    }
    if args.id == "watch" {
        watch_mode(args.url.as_deref());
    }
    if args.id == "report" {
        report_mode(&args.files, args.format.unwrap_or_default());
    }
    if args.id == "events" {
        events_mode(&args);
    }
    if args.id == "serve" {
        serve_mode(&args);
    }
    // Tracing collects wall-clock spans process-wide; they export as
    // Chrome trace_event JSON at exit and never touch the deterministic
    // envelopes. (Worker child processes are separate processes — a
    // coordinator's trace covers its own spans only.)
    if args.trace_out.is_some() {
        lh_obs::trace::enable();
    }
    let registry = leakyhammer::registry();
    if args.id == "list" {
        emit("available experiments:\n");
        for job in registry.jobs() {
            emit(&format!("  {:<12} {}\n", job.id(), job.description()));
        }
        return;
    }

    let ids: Vec<&str> = if args.id == "all" {
        registry.ids()
    } else if registry.get(&args.id).is_some() {
        vec![registry.get(&args.id).expect("checked").id()]
    } else {
        eprintln!(
            "error: unknown experiment '{}'; run `lh-experiments list`",
            args.id
        );
        std::process::exit(2);
    };

    // In stream mode every unit result goes to stdout as one NDJSON
    // line the moment it completes — completion order, not unit order;
    // the closing `finished` event carries the deterministic envelope.
    let observer: Option<lh_harness::UnitObserver> = args.stream.then(|| {
        std::sync::Arc::new(|event: &lh_harness::UnitEvent| {
            emit(&lh_harness::sink::stream_unit(event));
        }) as lh_harness::UnitObserver
    });
    let cache = args.cache.then(|| DiskCache::new(&args.cache_dir));
    let mut executor = if args.workers > 0 {
        // Distribute across worker child processes: each child is this
        // same binary in --worker mode, so the registry — and therefore
        // every job version and code fingerprint — matches by
        // construction.
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => {
                eprintln!("error: cannot locate own binary to spawn workers: {e}");
                std::process::exit(1);
            }
        };
        Executor::Fleet(Coordinator::new(
            Box::new(ProcessSpawner::new(exe, Vec::new())),
            CoordinatorOptions {
                workers: args.workers,
                cache,
                progress: !args.quiet,
                observer,
                ..CoordinatorOptions::default()
            },
        ))
    } else {
        Executor::Threads(Runner::new(RunnerOptions {
            jobs: args.jobs,
            cache,
            progress: !args.quiet,
            observer,
        }))
    };
    // Flight events are deterministic simulated-time records requested
    // per run: the context carries the request (and the ring capacity)
    // into cache keys, every unit's capture scope and — over the
    // coordinator protocol — every worker assignment.
    let ctx = JobContext {
        flight: args
            .events_out
            .is_some()
            .then(|| args.events_cap.unwrap_or(lh_obs::flight::DEFAULT_CAP)),
        ..JobContext::new(args.scale, args.seed)
    };

    let mut event_logs = String::new();
    for id in ids {
        let job = registry.get(id).expect("id comes from the registry");
        if args.stream {
            emit(&lh_harness::sink::stream_started(
                job,
                job.units(&ctx).len(),
                &ctx,
            ));
        }
        match executor.run(job, &ctx) {
            Ok(run) => {
                if let Some(events) = &run.events {
                    event_logs.push_str(events);
                }
                if args.stream {
                    // Close out each distributed run with a fleet
                    // telemetry event so `watch` can render the final
                    // worker-health column.
                    if let Some(snapshot) = executor.fleet_snapshot() {
                        emit(&lh_harness::sink::stream_fleet(snapshot));
                    }
                    emit(&lh_harness::sink::stream_finished(job, &run, &ctx));
                } else {
                    let format = args.format.unwrap_or_default();
                    emit(&lh_harness::sink::render(job, &run, &ctx, format));
                }
            }
            Err(msg) => {
                eprintln!("error: {id}: {msg}");
                std::process::exit(1);
            }
        }
    }
    if let Executor::Fleet(mut coordinator) = executor {
        coordinator.shutdown();
    }
    if let Some(path) = &args.events_out {
        if let Err(e) = std::fs::write(path, event_logs.as_bytes()) {
            eprintln!("error: writing events to {path} failed: {e}");
            std::process::exit(1);
        }
        if !args.quiet {
            eprintln!(
                "events: wrote {} line(s) to {path}",
                event_logs.lines().count()
            );
        }
    }
    if let Some(path) = &args.trace_out {
        match lh_obs::export_chrome_trace(path) {
            Ok(events) => {
                if !args.quiet {
                    eprintln!("trace: wrote {events} span(s) to {path}");
                }
            }
            Err(e) => {
                eprintln!("error: writing trace to {path} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
