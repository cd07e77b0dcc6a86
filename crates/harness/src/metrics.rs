//! Deterministic per-unit metrics: JSON conversion, the cache-entry
//! wrapper, and the envelope metrics block.
//!
//! The harness records every unit execution inside an
//! [`lh_obs::record`] scope, so simulator-emitted counters (scheduler
//! wakes, DRAM commands by kind, maintenance on-time/deferred, cache
//! probe hits/misses) attribute to exactly one unit. Those counters are
//! a pure function of the computation — never of wall-clock or thread
//! placement — which is what lets them
//!
//! * ride the disk cache next to the unit result ([`wrap_entry`] /
//!   [`unwrap_entry_events`]), so a warm replay reports the same metrics as
//!   the cold run that produced the entry;
//! * multiplex through the `--stream` NDJSON feed and the `lh-coord`
//!   assign/result protocol without breaking byte-identity across
//!   `--jobs` and `--workers`;
//! * land in a `metrics` block of the JSON envelope ([`metrics_block`])
//!   that CI can diff against committed snapshots as a perf-trend gate.
//!
//! Wall-clock timings deliberately never pass through here: they travel
//! only in the separate Chrome `trace_event` export
//! ([`lh_obs::trace`]).

use lh_obs::{Hist, Metrics};

use crate::json::Json;

/// The reserved key under which a metric object's histograms nest;
/// counter names never collide with it because counters serialize flat
/// at the same level.
pub const HISTOGRAMS_KEY: &str = "histograms";

/// Converts one histogram to its canonical JSON form
/// `{"count": N, "sum": S, "buckets": [[exponent, count], ...]}` with
/// buckets in ascending exponent order (the iteration order of
/// [`Hist`]).
pub(crate) fn hist_to_json(hist: &Hist) -> Json {
    let buckets = hist
        .buckets()
        .map(|(exp, n)| Json::Array(vec![Json::from(u64::from(exp)), Json::from(n)]))
        .collect();
    Json::object()
        .with("count", hist.count())
        .with("sum", hist.sum())
        .with("buckets", Json::Array(buckets))
}

/// Parses a histogram back out of its `hist_to_json` form. Malformed
/// bucket entries are skipped; `count`/`sum` are taken as written so
/// the round trip is exact even for saturated sums.
pub fn hist_from_json(json: &Json) -> Hist {
    let buckets = json["buckets"].as_array().iter().filter_map(|pair| {
        let pair = pair.as_array();
        let exp = pair.first().and_then(Json::as_u64)?;
        let n = pair.get(1).and_then(Json::as_u64)?;
        Some((u32::try_from(exp.min(64)).expect("clamped to 64"), n))
    });
    Hist::from_parts(
        json["count"].as_u64().unwrap_or(0),
        json["sum"].as_u64().unwrap_or(0),
        buckets,
    )
}

/// Converts a metric set to a JSON object with counter names as keys in
/// sorted-name order (the iteration order of [`Metrics`]), plus — when
/// any histogram recorded samples — a trailing reserved
/// [`HISTOGRAMS_KEY`] object mapping histogram names to their
/// `hist_to_json` form, so the serialization is canonical regardless
/// of recording order.
pub fn metrics_to_json(metrics: &Metrics) -> Json {
    let mut obj = Json::object();
    for (name, value) in metrics.iter() {
        obj.set(name, value);
    }
    let mut hists = Json::object();
    for (name, hist) in metrics.hists() {
        hists.set(name, hist_to_json(hist));
    }
    if !hists.as_object().is_empty() {
        obj.set(HISTOGRAMS_KEY, hists);
    }
    obj
}

/// Parses a metric set back out of a JSON object: integer fields become
/// counters, the reserved [`HISTOGRAMS_KEY`] object (if present)
/// becomes histograms, and any other field is ignored. The inverse of
/// [`metrics_to_json`] (up to the canonical sorted order).
pub fn metrics_from_json(json: &Json) -> Metrics {
    let mut metrics = Metrics::new();
    for (name, value) in json.as_object() {
        if name == HISTOGRAMS_KEY {
            for (hist_name, hist_json) in value.as_object() {
                metrics.set_hist(hist_name, hist_from_json(hist_json));
            }
        } else if let Some(v) = value.as_u64() {
            metrics.add(name, v);
        }
    }
    metrics
}

/// Wraps a result and its metrics into the cache-entry / wire schema
/// `{"metrics": ..., "result": ...}`.
///
/// Every executor that shares the disk cache — the in-process
/// [`Runner`](crate::Runner), the `lh-coord` coordinator and its
/// workers — stores unit and merged entries through this wrapper, so
/// entries written by any one of them replay (metrics included) under
/// every other.
pub fn wrap_entry(metrics: Json, result: Json) -> Json {
    Json::object()
        .with("metrics", metrics)
        .with("result", result)
}

/// [`wrap_entry`] with an optional flight-event NDJSON blob as a third
/// `events` field. `None` produces the exact two-field [`wrap_entry`]
/// bytes, so entries written with recording off are indistinguishable
/// from pre-flight-recorder entries.
pub(crate) fn wrap_entry_events(metrics: Json, result: Json, events: Option<String>) -> Json {
    let entry = wrap_entry(metrics, result);
    match events {
        Some(blob) => entry.with("events", blob),
        None => entry,
    }
}

/// Splits a cache entry or wire payload written by [`wrap_entry`] or
/// [`wrap_entry_events`] into `(metrics, result, events)`.
///
/// Tolerates an unwrapped value (returned as the result with empty
/// metrics) so schema evolution cannot turn stale-but-keyed-valid
/// entries into hard failures.
pub(crate) fn unwrap_entry_events(entry: Json) -> (Json, Json, Option<String>) {
    if let Json::Object(ref fields) = entry {
        let wrapped = matches!(fields.len(), 2 | 3)
            && fields[0].0 == "metrics"
            && fields[1].0 == "result"
            && fields.get(2).is_none_or(|f| f.0 == "events");
        if wrapped {
            if let Json::Object(mut fields) = entry {
                let events = (fields.len() == 3)
                    .then(|| fields.pop().expect("len checked").1)
                    .and_then(|e| e.as_str().map(str::to_owned));
                let result = fields.pop().expect("len checked").1;
                let metrics = fields.pop().expect("len checked").1;
                return (metrics, result, events);
            }
            unreachable!("matched Object above");
        }
    }
    (Json::object(), entry, None)
}

/// Builds the envelope `metrics` block from per-unit metric objects:
/// `{"units": {label: {counter: value, ...}}, "totals": {...},
/// "histograms": {name: {count, sum, buckets}, ...}}`.
///
/// Units appear in declaration order (the job's unit order), counters
/// within each unit in sorted-name order, and `totals` is the
/// counter-wise sum across units — all independent of completion order,
/// which is what keeps the block byte-identical between `--jobs N` and
/// `--workers N` runs. Units that recorded nothing are included as
/// empty objects so the set of keys is a function of the decomposition
/// alone. `histograms` holds the bucket-wise merge of every unit's
/// histograms (an empty object for jobs that sample none), kept
/// outside `totals` so old counter-only consumers parse unchanged.
pub(crate) fn metrics_block(units: &[String], per_unit: &[Json]) -> Json {
    assert_eq!(units.len(), per_unit.len(), "one metrics object per unit");
    let mut totals = Metrics::new();
    let mut by_unit = Json::object();
    for (label, metrics) in units.iter().zip(per_unit) {
        totals.merge(&metrics_from_json(metrics));
        by_unit.set(label, metrics.clone());
    }
    let mut hists = Json::object();
    for (name, hist) in totals.hists() {
        hists.set(name, hist_to_json(hist));
    }
    let mut counters_only = Metrics::new();
    for (name, value) in totals.iter() {
        counters_only.add(name, value);
    }
    Json::object()
        .with("units", by_unit)
        .with("totals", metrics_to_json(&counters_only))
        .with(HISTOGRAMS_KEY, hists)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        let mut m = Metrics::new();
        m.add("sim.service_wakes", 7);
        m.add("sim.cmd.act", 3);
        m
    }

    fn sample_with_hists() -> Metrics {
        let mut m = sample();
        m.observe("sim.queue_wait", 0);
        m.observe("sim.queue_wait", 5);
        m.observe("sim.queue_wait", 300);
        m.observe("sim.maintenance.slack", 17);
        m
    }

    #[test]
    fn json_round_trip_is_canonical() {
        let json = metrics_to_json(&sample());
        // Sorted counter order, independent of recording order.
        assert_eq!(
            json.to_compact(),
            r#"{"sim.cmd.act":3,"sim.service_wakes":7}"#
        );
        let back = metrics_from_json(&json);
        assert_eq!(back, sample());
    }

    #[test]
    fn histograms_nest_under_the_reserved_key_and_round_trip() {
        let json = metrics_to_json(&sample_with_hists());
        assert_eq!(
            json.to_compact(),
            concat!(
                r#"{"sim.cmd.act":3,"sim.service_wakes":7,"histograms":{"#,
                r#""sim.maintenance.slack":{"count":1,"sum":17,"buckets":[[5,1]]},"#,
                r#""sim.queue_wait":{"count":3,"sum":305,"buckets":[[0,1],[3,1],[9,1]]}}}"#
            )
        );
        let back = metrics_from_json(&json);
        assert_eq!(back, sample_with_hists());
        // Counter-only metrics serialize exactly as before — no
        // histograms key at all.
        assert!(metrics_to_json(&sample())[HISTOGRAMS_KEY]
            .as_object()
            .is_empty());
        assert_eq!(
            metrics_to_json(&sample()).to_compact(),
            r#"{"sim.cmd.act":3,"sim.service_wakes":7}"#
        );
    }

    #[test]
    fn hist_round_trip_preserves_saturated_sums() {
        let mut h = lh_obs::Hist::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        let back = hist_from_json(&hist_to_json(&h));
        assert_eq!(back, h);
        assert_eq!(back.sum(), u64::MAX, "saturated sum survives");
    }

    #[test]
    fn wrap_then_unwrap_is_identity() {
        let metrics = metrics_to_json(&sample());
        let result = Json::object().with("capacity", 39.5);
        let (m, r, e) = unwrap_entry_events(wrap_entry(metrics.clone(), result.clone()));
        assert_eq!(m, metrics);
        assert_eq!(r, result);
        assert_eq!(e, None);
    }

    #[test]
    fn unwrapped_values_pass_through_with_empty_metrics() {
        let bare = Json::object().with("capacity", 39.5);
        let (m, r, _) = unwrap_entry_events(bare.clone());
        assert_eq!(m, Json::object());
        assert_eq!(r, bare);
        // A two-field object with the wrong keys is also not a wrapper.
        let near_miss = Json::object().with("metrics", 1).with("value", 2);
        let (m, r, _) = unwrap_entry_events(near_miss.clone());
        assert_eq!(m, Json::object());
        assert_eq!(r, near_miss);
    }

    #[test]
    fn block_sums_totals_in_unit_order() {
        let units = vec!["a".to_owned(), "b".to_owned(), "quiet".to_owned()];
        let per_unit = vec![
            metrics_to_json(&sample()),
            metrics_to_json(&sample()),
            Json::object(),
        ];
        let block = metrics_block(&units, &per_unit);
        assert_eq!(block["totals"]["sim.service_wakes"].as_u64(), Some(14));
        assert_eq!(block["totals"]["sim.cmd.act"].as_u64(), Some(6));
        assert_eq!(block["units"]["quiet"], Json::object());
        assert!(
            block[HISTOGRAMS_KEY].as_object().is_empty(),
            "counter-only units leave an empty histograms block"
        );
        // Unit order is declaration order, not sorted.
        let keys: Vec<&str> = block["units"]
            .as_object()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["a", "b", "quiet"]);
    }

    #[test]
    fn block_merges_histograms_across_units() {
        let units = vec!["a".to_owned(), "b".to_owned()];
        let per_unit = vec![
            metrics_to_json(&sample_with_hists()),
            metrics_to_json(&sample_with_hists()),
        ];
        let block = metrics_block(&units, &per_unit);
        // Totals stay counter-only; the merged distributions live in
        // the block-level histograms object.
        assert_eq!(block["totals"][HISTOGRAMS_KEY], Json::Null);
        let wait = hist_from_json(&block[HISTOGRAMS_KEY]["sim.queue_wait"]);
        assert_eq!(wait.count(), 6);
        assert_eq!(wait.sum(), 610);
        let slack = hist_from_json(&block[HISTOGRAMS_KEY]["sim.maintenance.slack"]);
        assert_eq!(slack.count(), 2);
    }
}
