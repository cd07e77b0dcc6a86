//! `lh-experiments watch`: a terminal dashboard for the NDJSON event
//! stream.
//!
//! Consumes the `started`/`unit`/`finished`/`fleet` lines that
//! `--stream` (or `lh-experiments serve`'s `/runs/<id>/stream`
//! endpoint) emits — one multiplexed feed no matter how many workers
//! produced the events — and renders per-experiment unit progress
//! bars, live wake/command rates derived from the volatile `ts_ms`
//! stamps, a worker-health column from `fleet` telemetry events, and a
//! final whole-run summary. Lines it cannot parse are counted,
//! reported on stderr, and skipped: a viewer must never kill the
//! pipeline feeding it.

use std::io::{self, BufRead, Write};

use lh_harness::json::{parse, Json};

/// Whole-stream totals, rendered as the closing summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchSummary {
    /// `finished` events seen.
    pub(crate) experiments: usize,
    /// Units across all finished experiments.
    pub(crate) units: usize,
    /// Cache-replayed units across all finished experiments.
    pub(crate) cached: usize,
    /// Executed units across all finished experiments.
    pub(crate) executed: usize,
    /// Summed per-experiment wall milliseconds.
    pub(crate) wall_ms: u64,
    /// Summed `sim.service_wakes` across unit events' metrics blocks.
    pub(crate) sim_wakes: u64,
    /// Summed `sim.cmd.*` counters across unit events' metrics blocks.
    pub(crate) sim_cmds: u64,
    /// `fleet` telemetry events seen.
    pub(crate) fleet_events: usize,
    /// Wall-clock span between the first and last `ts_ms`-stamped
    /// lines; 0 when the stream carries no timestamps (pre-v3 feeds).
    pub(crate) span_ms: u64,
    /// Lines that were not valid stream events, including unit lines
    /// whose `metrics` field is present but not an object.
    pub(crate) malformed: usize,
}

/// Per-experiment progress while its units stream in.
struct Tally {
    experiment: String,
    total: usize,
    done: usize,
}

/// A ten-cell progress bar, e.g. `[####------]`.
fn bar(done: usize, total: usize) -> String {
    const CELLS: usize = 10;
    let filled = (done * CELLS).checked_div(total).unwrap_or(0);
    format!("[{}{}]", "#".repeat(filled), "-".repeat(CELLS - filled))
}

/// Tracks the wall-clock window of `ts_ms`-stamped lines so the
/// dashboard can turn cumulative counters into live rates.
#[derive(Default)]
struct Clock {
    first_ms: Option<u64>,
    last_ms: u64,
}

impl Clock {
    fn observe(&mut self, event: &Json) {
        if let Some(ts) = event["ts_ms"].as_u64() {
            self.first_ms.get_or_insert(ts);
            self.last_ms = self.last_ms.max(ts);
        }
    }

    fn span_ms(&self) -> u64 {
        self.first_ms
            .map_or(0, |first| self.last_ms.saturating_sub(first))
    }

    /// `count` events over the observed window as a per-second rate,
    /// rendered compactly (`532/s`, `1.2k/s`); `None` when the window
    /// is too narrow to divide meaningfully.
    fn rate(&self, count: u64) -> Option<String> {
        let span = self.span_ms();
        if span == 0 || count == 0 {
            return None;
        }
        let per_sec = (count as f64) * 1000.0 / (span as f64);
        Some(if per_sec >= 10_000.0 {
            format!("{:.0}k/s", per_sec / 1000.0)
        } else if per_sec >= 1000.0 {
            format!("{:.1}k/s", per_sec / 1000.0)
        } else {
            format!("{per_sec:.0}/s")
        })
    }
}

/// Renders one `fleet` telemetry event as a worker-health line.
fn render_fleet(out: &mut impl Write, fleet: &Json) -> io::Result<()> {
    let workers = fleet["workers"].as_array();
    let alive = workers
        .iter()
        .filter(|w| w["alive"].as_bool() == Some(true))
        .count();
    let mut cols = String::new();
    for w in workers {
        let index = w["index"].as_u64().unwrap_or(0);
        let state = match (w["alive"].as_bool(), w["busy"].as_str()) {
            (Some(true), Some(busy)) => busy.to_owned(),
            (Some(true), None) => "idle".to_owned(),
            _ => "dead".to_owned(),
        };
        let done = w["units_done"].as_u64().unwrap_or(0);
        cols.push_str(&format!(" | w{index} {state} ({done} done)"));
    }
    writeln!(
        out,
        "fleet: {alive}/{} worker(s) alive — {} lost, {} requeued, {} respawn(s){cols}",
        workers.len(),
        fleet["lost"].as_u64().unwrap_or(0),
        fleet["requeued"].as_u64().unwrap_or(0),
        fleet["respawns_used"].as_u64().unwrap_or(0),
    )
}

/// Renders the event stream from `input` onto `out` line by line,
/// returning the totals after the stream ends.
///
/// # Errors
///
/// Propagates write failures on `out` and read failures on `input`
/// (except the consumer closing the pipe, which callers treat as a
/// normal end of watching).
pub fn watch(input: impl BufRead, mut out: impl Write) -> io::Result<WatchSummary> {
    let mut summary = WatchSummary::default();
    let mut tallies: Vec<Tally> = Vec::new();
    let mut clock = Clock::default();

    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(event) = parse(&line) else {
            summary.malformed += 1;
            eprintln!("watch: ignoring unparseable line");
            continue;
        };
        clock.observe(&event);
        match event["event"].as_str() {
            Some("started") => {
                let experiment = event["experiment"].as_str().unwrap_or("?").to_owned();
                let total = event["units"].as_u64().unwrap_or(0) as usize;
                writeln!(
                    out,
                    "{experiment}: started — {total} unit(s) at scale {}, seed {}",
                    event["scale"].as_str().unwrap_or("?"),
                    event["seed"].as_u64().unwrap_or(0),
                )?;
                tallies.retain(|t| t.experiment != experiment);
                tallies.push(Tally {
                    experiment,
                    total,
                    done: 0,
                });
            }
            Some("unit") => {
                // The metrics block is optional (pre-v2 streams omit
                // it) but when present it must be an object; a mangled
                // one is counted like any other malformed line without
                // suppressing the unit's progress render.
                match &event["metrics"] {
                    Json::Object(fields) => {
                        summary.sim_wakes +=
                            event["metrics"]["sim.service_wakes"].as_u64().unwrap_or(0);
                        summary.sim_cmds += fields
                            .iter()
                            .filter(|(k, _)| k.starts_with("sim.cmd."))
                            .filter_map(|(_, v)| v.as_u64())
                            .sum::<u64>();
                    }
                    Json::Null => {}
                    _ => {
                        summary.malformed += 1;
                        eprintln!("watch: ignoring non-object metrics block on a unit line");
                    }
                }
                let experiment = event["experiment"].as_str().unwrap_or("?");
                let (done, total) = match tallies.iter_mut().find(|t| t.experiment == experiment) {
                    Some(t) => {
                        t.done += 1;
                        (t.done, t.total)
                    }
                    None => (0, 0), // unit without a started line; still render it
                };
                let width = total.to_string().len();
                let outcome = if event["cached"].as_bool() == Some(true) {
                    "cached".to_owned()
                } else {
                    format!("{} ms", event["ms"].as_u64().unwrap_or(0))
                };
                let progress = if total > 0 {
                    format!(" {}", bar(done, total))
                } else {
                    String::new()
                };
                let rates = match (clock.rate(summary.sim_wakes), clock.rate(summary.sim_cmds)) {
                    (Some(w), Some(c)) => format!(" {w} wakes, {c} cmds"),
                    (Some(w), None) => format!(" {w} wakes"),
                    _ => String::new(),
                };
                writeln!(
                    out,
                    "{experiment}: [{done:>width$}/{total}] {} ({outcome}){progress}{rates}",
                    event["unit"].as_str().unwrap_or("?"),
                )?;
            }
            Some("fleet") => {
                summary.fleet_events += 1;
                render_fleet(&mut out, &event["fleet"])?;
            }
            Some("finished") => {
                let experiment = event["experiment"].as_str().unwrap_or("?");
                let units = event["units"].as_u64().unwrap_or(0);
                let cached = event["cached_units"].as_u64().unwrap_or(0);
                let executed = event["executed_units"].as_u64().unwrap_or(0);
                let wall_ms = event["wall_ms"].as_u64().unwrap_or(0);
                writeln!(
                    out,
                    "{experiment}: finished — {units} unit(s) in {wall_ms} ms \
                     ({cached} cached, {executed} executed)",
                )?;
                summary.experiments += 1;
                summary.units += units as usize;
                summary.cached += cached as usize;
                summary.executed += executed as usize;
                summary.wall_ms += wall_ms;
                tallies.retain(|t| t.experiment != experiment);
            }
            _ => {
                summary.malformed += 1;
                eprintln!("watch: ignoring unknown event line");
            }
        }
    }

    summary.span_ms = clock.span_ms();
    writeln!(
        out,
        "watch: {} experiment(s), {} unit(s) — {} cached, {} executed in {} ms{}{}{}",
        summary.experiments,
        summary.units,
        summary.cached,
        summary.executed,
        summary.wall_ms,
        if summary.sim_wakes > 0 {
            format!(", {} sim wake(s)", summary.sim_wakes)
        } else {
            String::new()
        },
        match clock.rate(summary.sim_wakes) {
            Some(rate) => format!(" ({rate})"),
            None => String::new(),
        },
        if summary.malformed > 0 {
            format!(" ({} malformed line(s) ignored)", summary.malformed)
        } else {
            String::new()
        },
    )?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_watch(stream: &str) -> (WatchSummary, String) {
        let mut out = Vec::new();
        let summary = watch(stream.as_bytes(), &mut out).unwrap();
        (summary, String::from_utf8(out).unwrap())
    }

    #[test]
    fn renders_progress_and_summary_for_interleaved_experiments() {
        // Two experiments' unit events interleaved, as a multi-worker
        // merged stream produces them.
        let stream = concat!(
            r#"{"event":"started","experiment":"fig4","scale":"quick","seed":11,"units":2}"#,
            "\n",
            r#"{"event":"started","experiment":"fig6","scale":"quick","seed":11,"units":1}"#,
            "\n",
            r#"{"event":"unit","experiment":"fig6","unit":"bits:8","index":0,"cached":false,"ms":7,"result":{}}"#,
            "\n",
            r#"{"event":"unit","experiment":"fig4","unit":"noise:0","index":0,"cached":true,"ms":0,"result":{}}"#,
            "\n",
            r#"{"event":"unit","experiment":"fig4","unit":"noise:1","index":1,"cached":false,"ms":12,"result":{}}"#,
            "\n",
            r#"{"event":"finished","experiment":"fig6","units":1,"cached_units":0,"executed_units":1,"wall_ms":9,"envelope":{}}"#,
            "\n",
            r#"{"event":"finished","experiment":"fig4","units":2,"cached_units":1,"executed_units":1,"wall_ms":20,"envelope":{}}"#,
            "\n",
        );
        let (summary, out) = run_watch(stream);
        assert_eq!(
            summary,
            WatchSummary {
                experiments: 2,
                units: 3,
                cached: 1,
                executed: 2,
                wall_ms: 29,
                sim_wakes: 0,
                sim_cmds: 0,
                fleet_events: 0,
                span_ms: 0,
                malformed: 0,
            }
        );
        assert!(out.contains("fig4: started — 2 unit(s)"), "{out}");
        assert!(out.contains("fig4: [1/2] noise:0 (cached)"), "{out}");
        assert!(out.contains("fig4: [2/2] noise:1 (12 ms)"), "{out}");
        assert!(out.contains("fig6: [1/1] bits:8 (7 ms)"), "{out}");
        assert!(
            out.contains("watch: 2 experiment(s), 3 unit(s) — 1 cached, 2 executed in 29 ms"),
            "{out}"
        );
    }

    #[test]
    fn unit_lines_grow_progress_bars_and_timestamped_rates() {
        let stream = concat!(
            r#"{"event":"started","ts_ms":1000,"experiment":"fig2","scale":"quick","seed":11,"units":4}"#,
            "\n",
            r#"{"event":"unit","ts_ms":1500,"experiment":"fig2","unit":"d:0","index":0,"cached":false,"ms":5,"metrics":{"sim.service_wakes":100,"sim.cmd.act":40,"sim.cmd.ref":10},"result":{}}"#,
            "\n",
            r#"{"event":"unit","ts_ms":2000,"experiment":"fig2","unit":"d:1","index":1,"cached":false,"ms":5,"metrics":{"sim.service_wakes":100},"result":{}}"#,
            "\n",
        );
        let (summary, out) = run_watch(stream);
        assert_eq!(summary.sim_wakes, 200);
        assert_eq!(summary.sim_cmds, 50);
        assert_eq!(summary.span_ms, 1000);
        assert!(out.contains("fig2: [1/4] d:0 (5 ms) [##--------]"), "{out}");
        // After the second unit: 200 wakes over a 1s window.
        assert!(out.contains("[#####-----] 200/s wakes"), "{out}");
        assert!(out.contains("50/s cmds"), "{out}");
        assert!(out.contains("(200/s)"), "closing rate: {out}");
    }

    #[test]
    fn fleet_events_render_the_worker_health_column() {
        let stream = concat!(
            r#"{"event":"fleet","ts_ms":1,"fleet":{"workers":[{"index":0,"pid":9,"alive":true,"units_done":3,"busy":"fig2/d:4","beat_age_ms":12},{"index":1,"pid":10,"alive":false,"units_done":1,"busy":null,"beat_age_ms":null}],"spawned":2,"lost":1,"requeued":1,"respawns_used":0,"heartbeats":5}}"#,
            "\n",
        );
        let (summary, out) = run_watch(stream);
        assert_eq!(summary.fleet_events, 1);
        assert_eq!(summary.malformed, 0);
        assert!(
            out.contains("fleet: 1/2 worker(s) alive — 1 lost, 1 requeued, 0 respawn(s)"),
            "{out}"
        );
        assert!(out.contains("w0 fig2/d:4 (3 done)"), "{out}");
        assert!(out.contains("w1 dead (1 done)"), "{out}");
    }

    #[test]
    fn malformed_metric_blocks_are_counted_not_fatal() {
        let stream = concat!(
            // Well-formed metrics: tallied into sim_wakes.
            r#"{"event":"unit","experiment":"fig2","unit":"d:0","index":0,"cached":false,"ms":5,"metrics":{"sim.service_wakes":30},"result":{}}"#,
            "\n",
            // Metrics present but not an object: malformed, unit still renders.
            r#"{"event":"unit","experiment":"fig2","unit":"d:1","index":1,"cached":false,"ms":5,"metrics":"garbage","result":{}}"#,
            "\n",
            // No metrics at all (pre-v2 stream): neither malformed nor tallied.
            r#"{"event":"unit","experiment":"fig2","unit":"d:2","index":2,"cached":true,"ms":0,"result":{}}"#,
            "\n",
            r#"{"event":"finished","experiment":"fig2","units":3,"cached_units":1,"executed_units":2,"wall_ms":10}"#,
            "\n",
        );
        let (summary, out) = run_watch(stream);
        assert_eq!(summary.malformed, 1);
        assert_eq!(summary.sim_wakes, 30);
        assert_eq!(summary.experiments, 1);
        assert!(
            out.contains("d:1"),
            "malformed metrics must not drop the unit: {out}"
        );
        assert!(out.contains("30 sim wake(s)"), "{out}");
        assert!(out.contains("1 malformed line(s) ignored"), "{out}");
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let stream = concat!(
            "{not json\n",
            r#"{"event":"teleport"}"#,
            "\n",
            r#"{"event":"finished","experiment":"fig2","units":1,"cached_units":0,"executed_units":1,"wall_ms":3}"#,
            "\n",
        );
        let (summary, out) = run_watch(stream);
        assert_eq!(summary.malformed, 2);
        assert_eq!(summary.experiments, 1);
        assert!(out.contains("2 malformed line(s) ignored"), "{out}");
    }
}
