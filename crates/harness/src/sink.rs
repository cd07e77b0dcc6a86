//! Structured output sinks: text, JSON and CSV rendering of run
//! results, plus the NDJSON streaming events behind `--stream`.

use core::str::FromStr;

use crate::job::{Job, JobContext};
use crate::json::{Json, JsonRef};
use crate::runner::{ExperimentRun, UnitEvent};

/// Output format of the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// The paper-style plain-text reports.
    #[default]
    Text,
    /// One JSON envelope per experiment.
    Json,
    /// One CSV block per experiment.
    Csv,
}

impl FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<OutputFormat, String> {
        match s {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            "csv" => Ok(OutputFormat::Csv),
            other => Err(format!("unknown format '{other}' (text|json|csv)")),
        }
    }
}

/// Renders one finished experiment in the requested format.
pub fn render(
    job: &dyn Job,
    run: &ExperimentRun,
    ctx: &JobContext,
    format: OutputFormat,
) -> String {
    match format {
        OutputFormat::Text => {
            format!(
                "== {} ({}) ==\n{}\n",
                job.id(),
                ctx.scale.as_str(),
                job.render_text(&run.merged, ctx)
            )
        }
        OutputFormat::Json => envelope_ref(job, run, ctx).to_pretty() + "\n",
        OutputFormat::Csv => format!(
            "# {} ({})\n{}",
            job.id(),
            ctx.scale.as_str(),
            csv_from_json(&run.merged)
        ),
    }
}

/// The JSON envelope for one experiment run.
///
/// Deliberately free of run statistics (unit counts, cache hits, wall
/// time): the envelope describes the *result*, so it stays byte-stable
/// across resharding, cache states and worker counts — which is what
/// lets CI diff committed envelope snapshots across refactors. Run
/// statistics travel in [`RunStats`](crate::RunStats) and the streaming
/// events instead.
///
/// The `metrics` block is the one piece of execution telemetry that
/// *is* included, because it is deterministic by contract: per-unit
/// counters in unit order plus their totals
/// ([`metrics_block`](crate::metrics::metrics_block)), identical
/// whether units ran cold, replayed from cache, or executed on remote
/// workers. Wall-clock span timings never appear here — they export
/// separately as Chrome `trace_event` JSON.
pub fn envelope(job: &dyn Job, run: &ExperimentRun, ctx: &JobContext) -> Json {
    envelope_ref(job, run, ctx).into_json()
}

/// The one definition of the envelope's fields and their order, over
/// the run's borrowed `merged` and `metrics` trees: [`envelope`],
/// [`render`] and [`stream_finished_parts`] all go through it, and the
/// last two write it without cloning the trees.
fn envelope_ref<'a>(job: &dyn Job, run: &'a ExperimentRun, ctx: &JobContext) -> JsonRef<'a> {
    JsonRef::Object(vec![
        ("experiment", JsonRef::Owned(job.id().into())),
        ("description", JsonRef::Owned(job.description().into())),
        ("scale", JsonRef::Owned(ctx.scale.as_str().into())),
        ("seed", JsonRef::Owned(ctx.seed.into())),
        ("result", JsonRef::Borrowed(&run.merged)),
        ("metrics", JsonRef::Borrowed(&run.metrics)),
    ])
}

/// Wall-clock milliseconds since the Unix epoch, for the `ts_ms` field
/// stream events carry.
///
/// `ts_ms` lives strictly in the volatile channel: stream lines are
/// transient progress feed, never cached and never part of an envelope,
/// so stamping them lets `watch` and the serve dashboard compute live
/// rates without touching the byte-identity contract.
pub fn wall_clock_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// One NDJSON line announcing that an experiment started: emit before
/// running when streaming.
pub fn stream_started(job: &dyn Job, units: usize, ctx: &JobContext) -> String {
    Json::object()
        .with("event", "started")
        .with("ts_ms", wall_clock_ms())
        .with("experiment", job.id())
        .with("scale", ctx.scale.as_str())
        .with("seed", ctx.seed)
        .with("units", units)
        .to_compact()
        + "\n"
}

/// One NDJSON line for a completed unit: wire a
/// [`UnitObserver`](crate::runner::UnitObserver) that emits this as
/// each unit finishes, in completion order.
pub fn stream_unit(event: &UnitEvent) -> String {
    JsonRef::Object(vec![
        ("event", JsonRef::Owned("unit".into())),
        ("ts_ms", JsonRef::Owned(wall_clock_ms().into())),
        ("experiment", JsonRef::Owned(event.experiment.into())),
        ("unit", JsonRef::Owned(event.unit.as_str().into())),
        ("index", JsonRef::Owned(event.index.into())),
        ("cached", JsonRef::Owned(event.cached.into())),
        ("ms", JsonRef::Owned((event.wall_ms as u64).into())),
        ("metrics", JsonRef::Borrowed(&event.metrics)),
        ("result", JsonRef::Borrowed(&event.result)),
    ])
    .to_compact()
        + "\n"
}

/// What closes a `finished` line after its envelope.
pub const FINISHED_TAIL: &str = "}\n";

/// One NDJSON line carrying the finished experiment's envelope plus run
/// statistics: emit after `finish` when streaming.
pub fn stream_finished(job: &dyn Job, run: &ExperimentRun, ctx: &JobContext) -> String {
    let (head, envelope) = stream_finished_parts(job, run, ctx);
    head + &envelope + FINISHED_TAIL
}

/// The [`stream_finished`] line as the parts it concatenates, before
/// [`FINISHED_TAIL`]: the run's own head, through `"envelope":`, and the
/// compact envelope, which every run of one `(experiment, scale, seed)`
/// renders to the same bytes — so a holder of many lines can keep one
/// copy of it.
pub fn stream_finished_parts(
    job: &dyn Job,
    run: &ExperimentRun,
    ctx: &JobContext,
) -> (String, String) {
    let stats = &run.stats;
    let mut head = JsonRef::Object(vec![
        ("event", JsonRef::Owned("finished".into())),
        ("ts_ms", JsonRef::Owned(wall_clock_ms().into())),
        ("experiment", JsonRef::Owned(job.id().into())),
        ("units", JsonRef::Owned(stats.units_total.into())),
        ("cached_units", JsonRef::Owned(stats.units_cached.into())),
        (
            "executed_units",
            JsonRef::Owned(stats.units_executed.into()),
        ),
        ("wall_ms", JsonRef::Owned((stats.wall_ms as u64).into())),
    ])
    .to_compact();
    head.pop(); // the closing brace: the envelope field comes last
    head.push_str(",\"envelope\":");
    (head, envelope_ref(job, run, ctx).to_compact())
}

/// One NDJSON line carrying a fleet-telemetry snapshot (`event:
/// "fleet"`): the coordinator's volatile view of its workers —
/// heartbeat ages, in-flight units, completion counts, deaths and
/// requeues. Emitted by the serve streaming endpoint (periodically,
/// while a run is live) and by `--workers` runs when streaming. The
/// snapshot is wall-clock shaped and therefore never enters envelopes
/// or the cache.
pub fn stream_fleet(snapshot: Json) -> String {
    Json::object()
        .with("event", "fleet")
        .with("ts_ms", wall_clock_ms())
        .with("fleet", snapshot)
        .to_compact()
        + "\n"
}

/// The CSV form of a merged result: uses its first array-of-objects
/// field as rows (header = union of keys in first-seen order); if none
/// exists, emits the scalar fields as a single row.
pub fn csv_from_json(merged: &Json) -> String {
    let rows: &[Json] = merged
        .as_object()
        .iter()
        .find_map(|(_, v)| {
            let items = v.as_array();
            (!items.is_empty() && items.iter().all(|i| !i.as_object().is_empty())).then_some(items)
        })
        .unwrap_or(&[]);

    let records: Vec<&Json> = if rows.is_empty() {
        vec![merged]
    } else {
        rows.iter().collect()
    };
    let mut header: Vec<&str> = Vec::new();
    for record in &records {
        for (k, v) in record.as_object() {
            if scalar(v) && !header.contains(&k.as_str()) {
                header.push(k);
            }
        }
    }
    let names: Vec<String> = header.iter().map(|k| csv_field(k)).collect();
    let mut out = names.join(",");
    out.push('\n');
    for record in &records {
        let cells: Vec<String> = header.iter().map(|k| scalar_cell(record.get(k))).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn scalar(v: &Json) -> bool {
    !matches!(v, Json::Array(_) | Json::Object(_))
}

fn scalar_cell(v: &Json) -> String {
    match v {
        Json::Str(s) => csv_field(s),
        Json::Null => String::new(),
        other => other.to_compact(),
    }
}

/// One CSV field, quoted (with `"` doubled) when it holds a comma, a
/// quote or a newline.
pub fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunStats;

    #[test]
    fn format_parses() {
        assert_eq!("csv".parse::<OutputFormat>().unwrap(), OutputFormat::Csv);
        assert!("xml".parse::<OutputFormat>().is_err());
    }

    #[test]
    fn csv_flattens_point_arrays() {
        let merged = Json::object().with(
            "points",
            Json::Array(vec![
                Json::object().with("intensity", 1.0).with("capacity", 39.5),
                Json::object()
                    .with("intensity", 50.0)
                    .with("capacity", 20.25),
            ]),
        );
        let csv = csv_from_json(&merged);
        assert_eq!(csv, "intensity,capacity\n1.0,39.5\n50.0,20.25\n");
    }

    #[test]
    fn csv_falls_back_to_scalars_and_escapes() {
        let merged = Json::object().with("label", "a,b").with("n", 3i64);
        assert_eq!(csv_from_json(&merged), "label,n\n\"a,b\",3\n");
    }

    #[test]
    fn csv_header_quotes_a_key_that_holds_a_comma() {
        let merged = Json::object().with("x,y", 1i64).with("say \"hi\"", 2i64);
        assert_eq!(csv_from_json(&merged), "\"x,y\",\"say \"\"hi\"\"\"\n1,2\n");
    }

    #[test]
    fn stream_lines_are_single_line_ndjson() {
        let event = UnitEvent {
            experiment: "fig4",
            unit: "noise:1".into(),
            index: 1,
            cached: false,
            wall_ms: 12,
            metrics: Json::object().with("sim.service_wakes", 42u64),
            result: Json::object().with("capacity", 39.5),
        };
        let line = stream_unit(&event);
        assert!(line.ends_with('\n'));
        assert_eq!(line.trim_end().matches('\n').count(), 0, "one line");
        let parsed = crate::json::parse(line.trim_end()).unwrap();
        assert_eq!(parsed["event"].as_str(), Some("unit"));
        assert_eq!(parsed["unit"].as_str(), Some("noise:1"));
        assert_eq!(parsed["metrics"]["sim.service_wakes"].as_u64(), Some(42));
        assert_eq!(parsed["result"]["capacity"].as_f64(), Some(39.5));
        assert!(
            parsed["ts_ms"].as_u64().is_some_and(|ts| ts > 0),
            "stream lines carry a wall-clock stamp: {parsed:?}"
        );
    }

    struct Fixed;

    impl Job for Fixed {
        fn id(&self) -> &'static str {
            "fixed"
        }
        fn description(&self) -> &'static str {
            "a \"quoted\" sink test job"
        }
        fn units(&self, _ctx: &JobContext) -> Vec<String> {
            vec!["only".into()]
        }
        fn run_unit(&self, _unit: usize, _seed: u64, _deps: &[Json], _ctx: &JobContext) -> Json {
            unreachable!("the run is built, not executed")
        }
        fn finish(&self, mut units: Vec<Json>, _ctx: &JobContext) -> Json {
            units.pop().unwrap()
        }
        fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
            merged.to_compact()
        }
    }

    /// Head, compact envelope and tail make one NDJSON line whose
    /// `envelope` is the tree `--format json` prints.
    #[test]
    fn finished_parts_make_one_line_carrying_the_envelope() {
        let ctx = JobContext::new(crate::ScaleLevel::Quick, 7);
        let run = ExperimentRun {
            id: "fixed",
            merged: Json::object()
                .with("capacity", 39.5)
                .with("rows", Json::Array(vec![Json::object().with("n", 1u64)])),
            metrics: Json::object().with("totals", Json::object().with("sim.cmds", 9u64)),
            events: None,
            stats: RunStats {
                units_total: 3,
                units_cached: 1,
                units_executed: 2,
                merged_cached: false,
                wall_ms: 12,
            },
        };
        let (head, envelope) = stream_finished_parts(&Fixed, &run, &ctx);
        assert!(head.ends_with(",\"envelope\":"), "{head}");
        let line = head + &envelope + FINISHED_TAIL;
        assert_eq!(line.matches('\n').count(), 1, "one line: {line}");
        let parsed = crate::json::parse(line.trim_end()).unwrap();
        assert_eq!(parsed["event"].as_str(), Some("finished"));
        assert_eq!(parsed["executed_units"].as_u64(), Some(2));
        assert_eq!(parsed["wall_ms"].as_u64(), Some(12));
        let pretty = render(&Fixed, &run, &ctx, OutputFormat::Json);
        assert_eq!(parsed["envelope"], crate::json::parse(&pretty).unwrap());
        assert_eq!(envelope, parsed["envelope"].to_compact());
    }

    #[test]
    fn fleet_lines_wrap_the_snapshot() {
        let snap = Json::object().with("spawned", 2u64);
        let line = stream_fleet(snap);
        let parsed = crate::json::parse(line.trim_end()).unwrap();
        assert_eq!(parsed["event"].as_str(), Some("fleet"));
        assert_eq!(parsed["fleet"]["spawned"].as_u64(), Some(2));
        assert!(parsed["ts_ms"].as_u64().is_some());
    }
}
