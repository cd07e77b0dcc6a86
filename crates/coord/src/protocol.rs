//! The coordinator↔worker message vocabulary.
//!
//! Every message is one JSON object — one NDJSON line on the wire —
//! with a `type` discriminator. The vocabulary is deliberately tiny:
//! the coordinator only ever *assigns* units and *shuts down* workers;
//! a worker only ever announces itself, completes a unit, or reports
//! that a unit's execution failed. Everything else (worker death, a
//! torn line from a killed process, a closed pipe) is expressed by the
//! transport, not by messages.
//!
//! Assignments carry the unit's dependency results inline, so a worker
//! never needs the coordinator's cache — it can run on another host
//! with nothing but this byte stream.

use lh_harness::json::{parse, Json};

/// Wire protocol version, carried in [`FromWorker::Ready`]. Bump on any
/// incompatible message change; the coordinator refuses mismatched
/// workers instead of mis-parsing them.
///
/// v2: [`FromWorker::Done`] carries the unit's deterministic `metrics`
/// object alongside its result.
///
/// v3: workers may send periodic [`FromWorker::Heartbeat`] messages
/// between replies, so the coordinator's fleet telemetry (and the
/// serve dashboard behind it) can tell a long-running unit from a hung
/// worker. Heartbeats are volatile liveness data — they never touch
/// unit results or metrics.
///
/// v4: [`ToWorker::Assign`] carries the run's flight request
/// (`events`, `events_cap`: its `JobContext::flight`) and [`FromWorker::Done`] returns the unit's
/// rendered event log, so `--events-out` logs stay byte-identical
/// between in-process and distributed execution.
pub const PROTOCOL_VERSION: u64 = 4;

/// Messages the coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Run one unit. `deps` holds the results of the unit's
    /// [`lh_harness::Job::deps`] list in declaration order.
    Assign {
        /// Experiment id (the worker resolves it in its own registry).
        experiment: String,
        /// Unit index within the experiment.
        unit: usize,
        /// Scale identifier (`quick`/`default`/`paper`).
        scale: String,
        /// Master seed; the worker derives the unit seed itself, so
        /// placement cannot change any unit's randomness.
        seed: u64,
        /// Whether to capture a flight-event log for this unit. Carried
        /// per assignment (not ambient worker state) so the worker's
        /// cache writes land under the events-aware key the
        /// coordinator probes.
        events: bool,
        /// Capture-ring capacity when `events` is set (events per
        /// unit); part of the assignment because the ring bound shapes
        /// the log bytes.
        events_cap: u64,
        /// Dependency results, in `Job::deps` declaration order.
        deps: Vec<Json>,
    },
    /// Finish the current protocol loop and exit cleanly.
    Shutdown,
}

/// Messages a worker sends to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum FromWorker {
    /// Handshake, sent once before any other message.
    Ready {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u64,
        /// OS process id (0 for in-process workers); diagnostics only.
        pid: u64,
    },
    /// One assigned unit completed successfully.
    Done {
        /// Experiment id echoed from the assignment.
        experiment: String,
        /// Unit index echoed from the assignment.
        unit: usize,
        /// Wall-clock milliseconds spent executing.
        wall_ms: u64,
        /// Deterministic counters recorded while the unit ran, as a
        /// sorted-key JSON object. Unlike `wall_ms` these are part of
        /// the unit's *result* identity: they ride cache entries and
        /// envelopes, so they must not depend on placement or timing.
        metrics: Json,
        /// The unit's JSON result.
        result: Json,
        /// The unit's rendered flight-event log, present exactly when
        /// the assignment set `events`. Deterministic like `metrics`.
        events: Option<String>,
    },
    /// Periodic liveness beacon (protocol v3). Sent from a timer thread
    /// between protocol replies; carries how many assignments this
    /// worker has completed so far. Never acknowledged, never ordered
    /// with respect to anything — pure telemetry.
    Heartbeat {
        /// Assignments completed by this worker so far.
        units_done: u64,
    },
    /// One assigned unit failed deterministically (its `run_unit`
    /// panicked, or the assignment named an unknown experiment/unit).
    /// Fatal to the run: re-running the unit elsewhere would fail the
    /// same way, so the coordinator must not requeue it.
    Failed {
        /// Experiment id echoed from the assignment.
        experiment: String,
        /// Unit index echoed from the assignment.
        unit: usize,
        /// Human-readable cause.
        error: String,
    },
}

impl ToWorker {
    /// Serializes to the wire JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            ToWorker::Assign {
                experiment,
                unit,
                scale,
                seed,
                events,
                events_cap,
                deps,
            } => Json::object()
                .with("type", "assign")
                .with("experiment", experiment.as_str())
                .with("unit", *unit)
                .with("scale", scale.as_str())
                .with("seed", *seed)
                .with("events", *events)
                .with("events_cap", *events_cap)
                .with("deps", Json::Array(deps.clone())),
            ToWorker::Shutdown => Json::object().with("type", "shutdown"),
        }
    }

    /// Parses a wire JSON object.
    ///
    /// # Errors
    ///
    /// Unknown `type` values and missing or mistyped fields.
    pub fn from_json(msg: &Json) -> Result<ToWorker, String> {
        match msg["type"].as_str() {
            Some("assign") => Ok(ToWorker::Assign {
                experiment: str_field(msg, "experiment")?,
                unit: usize_field(msg, "unit")?,
                scale: str_field(msg, "scale")?,
                seed: u64_field(msg, "seed")?,
                events: msg["events"].as_bool().unwrap_or(false),
                events_cap: msg["events_cap"]
                    .as_u64()
                    .unwrap_or(lh_obs::flight::DEFAULT_CAP as u64),
                deps: match &msg["deps"] {
                    Json::Array(items) => items.clone(),
                    other => return Err(format!("assign.deps must be an array, got {other}")),
                },
            }),
            Some("shutdown") => Ok(ToWorker::Shutdown),
            other => Err(format!("unknown coordinator message type {other:?}")),
        }
    }
}

impl FromWorker {
    /// The handshake for this process.
    pub(crate) fn ready() -> FromWorker {
        FromWorker::Ready {
            protocol: PROTOCOL_VERSION,
            pid: u64::from(std::process::id()),
        }
    }

    /// Serializes to the wire JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            FromWorker::Ready { protocol, pid } => Json::object()
                .with("type", "ready")
                .with("protocol", *protocol)
                .with("pid", *pid),
            FromWorker::Done {
                experiment,
                unit,
                wall_ms,
                metrics,
                result,
                events,
            } => {
                let msg = Json::object()
                    .with("type", "done")
                    .with("experiment", experiment.as_str())
                    .with("unit", *unit)
                    .with("ms", *wall_ms)
                    .with("metrics", metrics.clone())
                    .with("result", result.clone());
                match events {
                    Some(blob) => msg.with("events", blob.as_str()),
                    None => msg,
                }
            }
            FromWorker::Heartbeat { units_done } => Json::object()
                .with("type", "heartbeat")
                .with("units_done", *units_done),
            FromWorker::Failed {
                experiment,
                unit,
                error,
            } => Json::object()
                .with("type", "failed")
                .with("experiment", experiment.as_str())
                .with("unit", *unit)
                .with("error", error.as_str()),
        }
    }

    /// Parses a wire JSON object.
    ///
    /// # Errors
    ///
    /// Unknown `type` values and missing or mistyped fields.
    pub fn from_json(msg: &Json) -> Result<FromWorker, String> {
        match msg["type"].as_str() {
            Some("ready") => Ok(FromWorker::Ready {
                protocol: u64_field(msg, "protocol")?,
                pid: u64_field(msg, "pid")?,
            }),
            Some("done") => Ok(FromWorker::Done {
                experiment: str_field(msg, "experiment")?,
                unit: usize_field(msg, "unit")?,
                wall_ms: u64_field(msg, "ms")?,
                metrics: msg["metrics"].clone(),
                result: msg["result"].clone(),
                events: msg["events"].as_str().map(str::to_owned),
            }),
            Some("heartbeat") => Ok(FromWorker::Heartbeat {
                units_done: u64_field(msg, "units_done")?,
            }),
            Some("failed") => Ok(FromWorker::Failed {
                experiment: str_field(msg, "experiment")?,
                unit: usize_field(msg, "unit")?,
                error: str_field(msg, "error")?,
            }),
            other => Err(format!("unknown worker message type {other:?}")),
        }
    }
}

/// Parses one NDJSON line into its JSON object form.
///
/// # Errors
///
/// JSON syntax errors, with the offending line excerpt.
pub fn parse_line(line: &str) -> Result<Json, String> {
    parse(line.trim_end()).map_err(|e| {
        let excerpt: String = line.chars().take(80).collect();
        format!("bad protocol line {excerpt:?}: {e}")
    })
}

fn str_field(msg: &Json, key: &str) -> Result<String, String> {
    msg[key]
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string field '{key}' in {msg}"))
}

fn u64_field(msg: &Json, key: &str) -> Result<u64, String> {
    msg[key]
        .as_u64()
        .ok_or_else(|| format!("missing or non-integer field '{key}' in {msg}"))
}

fn usize_field(msg: &Json, key: &str) -> Result<usize, String> {
    u64_field(msg, key).and_then(|v| {
        usize::try_from(v).map_err(|_| format!("field '{key}' out of range in {msg}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_round_trips_with_payloads() {
        let msg = ToWorker::Assign {
            experiment: "fig13".into(),
            unit: 7,
            scale: "quick".into(),
            seed: u64::MAX,
            events: true,
            events_cap: 4096,
            deps: vec![Json::object().with("ipc", 1.25), Json::Null],
        };
        let line = msg.to_json().to_compact();
        assert!(!line.contains('\n'), "one NDJSON line");
        assert_eq!(ToWorker::from_json(&parse_line(&line).unwrap()), Ok(msg));
    }

    #[test]
    fn worker_messages_round_trip() {
        for msg in [
            FromWorker::ready(),
            FromWorker::Done {
                experiment: "fig6".into(),
                unit: 3,
                wall_ms: 12,
                metrics: Json::object().with("sim.service_wakes", 42u64),
                result: Json::object().with("capacity", 39.5),
                events: None,
            },
            FromWorker::Done {
                experiment: "fig6".into(),
                unit: 4,
                wall_ms: 12,
                metrics: Json::object(),
                result: Json::Null,
                events: Some("{\"kind\":\"unit\",\"unit\":\"u\"}\n".into()),
            },
            FromWorker::Heartbeat { units_done: 9 },
            FromWorker::Failed {
                experiment: "fig6".into(),
                unit: 3,
                error: "panicked at 'boom'".into(),
            },
        ] {
            let line = msg.to_json().to_compact();
            assert_eq!(
                FromWorker::from_json(&parse_line(&line).unwrap()),
                Ok(msg.clone()),
                "{line}"
            );
        }
    }

    #[test]
    fn malformed_messages_are_rejected_with_context() {
        assert!(parse_line("{truncated").is_err());
        let err = ToWorker::from_json(&Json::object().with("type", "launch")).unwrap_err();
        assert!(err.contains("launch"), "{err}");
        let err = ToWorker::from_json(
            &Json::object()
                .with("type", "assign")
                .with("experiment", "fig6"),
        )
        .unwrap_err();
        assert!(err.contains("unit"), "{err}");
        let err = FromWorker::from_json(&Json::object().with("type", "done")).unwrap_err();
        assert!(err.contains("experiment"), "{err}");
    }
}
