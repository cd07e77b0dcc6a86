//! `lh-experiments events` — filter, summarize, export and *align*
//! flight-event logs (`--events-out` NDJSON, see `lh_obs::flight`).
//!
//! Every view here is a pure function of the log bytes: the input is
//! deterministic (simulated-ns timestamps only), so each rendering is
//! byte-stable and CI-diffable. Four views:
//!
//! * **filter** — keep header lines, drop event lines that miss the
//!   query (kind/bank/segment/sim-time window); output is again a valid
//!   event log.
//! * **summary** — per-kind counts, link-verdict tally, drop
//!   accounting, and the covered sim-time span per unit.
//! * **chrome** — Chrome `trace_event` JSON on the *simulated* clock
//!   (`ts` in microseconds = `t_ns / 1000`): link windows become
//!   complete (`X`) slices, everything else instant (`i`) events, one
//!   track per event kind per segment.
//! * **align** — the leak-alignment view: each link symbol window is
//!   laid against the defense maintenance decisions and mitigation
//!   interventions that fired *inside* it, the core diagnostic for "did
//!   the countermeasure actually land on the windows the receiver
//!   decodes?".

use lh_harness::json::{parse, Json};
use std::fmt::Write as _;

/// A parsed event-log line: the original bytes plus its JSON object.
#[derive(Debug, Clone)]
pub struct LogLine {
    /// The line exactly as read (no trailing newline).
    pub raw: String,
    /// The parsed object (`kind` discriminates).
    pub(crate) json: Json,
}

/// Filter predicate over event lines. `None` fields match everything.
#[derive(Debug, Clone, Default)]
pub struct EventQuery {
    /// Event kind (`cmd`, `maint`, `mitigation`, `link`).
    pub kind: Option<String>,
    /// Bank index (matches `bank` on `cmd`/`maint` lines).
    pub bank: Option<u64>,
    /// Segment id.
    pub seg: Option<u64>,
    /// Inclusive lower bound on `t_ns`.
    pub from: Option<u64>,
    /// Exclusive upper bound on `t_ns`.
    pub to: Option<u64>,
}

impl EventQuery {
    /// Whether an *event* line (not a header) satisfies the query.
    fn matches(&self, json: &Json) -> bool {
        if let Some(kind) = &self.kind {
            if json["kind"].as_str() != Some(kind.as_str()) {
                return false;
            }
        }
        if let Some(bank) = self.bank {
            if json["bank"].as_u64() != Some(bank) {
                return false;
            }
        }
        if let Some(seg) = self.seg {
            if json["seg"].as_u64() != Some(seg) {
                return false;
            }
        }
        let t_ns = json["t_ns"].as_u64().unwrap_or(0);
        if self.from.is_some_and(|from| t_ns < from) {
            return false;
        }
        if self.to.is_some_and(|to| t_ns >= to) {
            return false;
        }
        true
    }
}

/// Whether a line is a log header (`experiment` or `unit`) rather than
/// an event.
fn is_header(json: &Json) -> bool {
    matches!(json["kind"].as_str(), Some("experiment" | "unit"))
}

/// Parses an NDJSON event log. Blank lines are skipped; anything else
/// that fails to parse or lacks a `kind` is an error (an event log is a
/// machine artifact, so corruption should be loud).
///
/// # Errors
///
/// The 1-based line number and parse failure of the first bad line.
pub fn parse_log(content: &str, origin: &str) -> Result<Vec<LogLine>, String> {
    let mut lines = Vec::new();
    for (i, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json =
            parse(line).map_err(|e| format!("{origin}:{}: not an event line: {e}", i + 1))?;
        if json["kind"].as_str().is_none() {
            return Err(format!("{origin}:{}: event line has no \"kind\"", i + 1));
        }
        lines.push(LogLine {
            raw: line.to_owned(),
            json,
        });
    }
    if lines.is_empty() {
        return Err(format!("{origin}: empty event log"));
    }
    Ok(lines)
}

/// Applies the query: headers pass through, events must match. Every
/// view (summary, chrome, align) runs on the selected subset, so one
/// `--kind maint --seg 0` narrows them all the same way.
pub fn select(lines: Vec<LogLine>, query: &EventQuery) -> Vec<LogLine> {
    lines
        .into_iter()
        .filter(|line| is_header(&line.json) || query.matches(&line.json))
        .collect()
}

/// Per-unit accumulation shared by the summary and alignment views.
#[derive(Debug, Default)]
struct UnitBlock {
    /// The unit header line's `unit` string.
    label: String,
    /// Event lines in log order.
    events: Vec<Json>,
    /// The header's drop map, rendered back to text.
    dropped: Vec<(String, u64)>,
}

/// Splits a log into its per-unit blocks (events before any unit header
/// are grouped under an implicit unnamed unit, so partial logs still
/// render).
fn units(lines: &[LogLine]) -> Vec<UnitBlock> {
    let mut blocks: Vec<UnitBlock> = Vec::new();
    for line in lines {
        match line.json["kind"].as_str() {
            Some("experiment") => {}
            Some("unit") => {
                let mut block = UnitBlock {
                    label: line.json["unit"].as_str().unwrap_or("?").to_owned(),
                    ..UnitBlock::default()
                };
                for (kind, n) in line.json["dropped"].as_object() {
                    if let Some(n) = n.as_u64() {
                        block.dropped.push((kind.clone(), n));
                    }
                }
                blocks.push(block);
            }
            _ => {
                if blocks.is_empty() {
                    blocks.push(UnitBlock {
                        label: "<unlabeled>".to_owned(),
                        ..UnitBlock::default()
                    });
                }
                blocks
                    .last_mut()
                    .expect("pushed above")
                    .events
                    .push(line.json.clone());
            }
        }
    }
    blocks
}

/// The summary view: per-unit kind counts, link-verdict tally, drop
/// accounting and covered sim-time span; one grand-total footer.
pub fn summary(lines: &[LogLine]) -> String {
    let mut out = String::from("== flight events ==\n");
    let mut grand = 0u64;
    for block in units(lines) {
        let mut kinds: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        let mut verdicts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        let mut span = (u64::MAX, 0u64);
        for event in &block.events {
            *kinds
                .entry(event["kind"].as_str().unwrap_or("?"))
                .or_insert(0) += 1;
            if let Some(verdict) = event["verdict"].as_str() {
                *verdicts.entry(verdict).or_insert(0) += 1;
            }
            let t = event["t_ns"].as_u64().unwrap_or(0);
            span.0 = span.0.min(t);
            span.1 = span.1.max(event["t_end_ns"].as_u64().unwrap_or(t));
        }
        grand += block.events.len() as u64;
        let _ = writeln!(out, "{}: {} event(s)", block.label, block.events.len());
        if span.0 != u64::MAX {
            let _ = writeln!(out, "  span: {}..{} ns", span.0, span.1);
        }
        for (kind, n) in &kinds {
            let _ = writeln!(out, "  {kind} = {n}");
        }
        if !verdicts.is_empty() {
            let tally: Vec<String> = verdicts
                .iter()
                .map(|(verdict, n)| format!("{verdict}:{n}"))
                .collect();
            let _ = writeln!(out, "  link verdicts: {}", tally.join(" "));
        }
        for (kind, n) in &block.dropped {
            let _ = writeln!(out, "  dropped.{kind} = {n}");
        }
    }
    let _ = writeln!(out, "total: {grand} event(s)");
    out
}

/// Formats simulated ns as a Chrome `ts` value: microseconds with
/// nanosecond precision kept in the fraction (Chrome accepts fractional
/// timestamps; rounding would alias adjacent DRAM commands).
fn chrome_ts(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

/// `s` as a quoted JSON string literal.
fn quoted(s: &str) -> String {
    Json::from(s).to_compact()
}

/// The Chrome `trace_event` export, on the simulated clock. Each unit
/// becomes one process (`pid` = unit order in the log); within it,
/// each `(segment, kind)` pair gets its own named thread track, so a
/// defense's maintenance timeline sits directly under the link-layer
/// symbol windows it perturbs. Link windows are complete (`X`) events
/// carrying `symbol`/`events`/`verdict` args; everything else is an
/// instant (`i`) event.
pub fn chrome(lines: &[LogLine]) -> String {
    // Track ids must be stable: assign tids in first-appearance order
    // per unit, and emit a thread_name metadata record for each.
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for (pid, block) in units(lines).iter().enumerate() {
        let mut tids: Vec<(u64, String)> = Vec::new(); // (seg, kind) -> index
        let mut records: Vec<String> = Vec::new();
        for event in &block.events {
            let kind = event["kind"].as_str().unwrap_or("?");
            let seg = event["seg"].as_u64().unwrap_or(0);
            let key = (seg, kind.to_owned());
            let tid = match tids.iter().position(|k| *k == key) {
                Some(i) => i,
                None => {
                    tids.push(key);
                    tids.len() - 1
                }
            };
            let t_ns = event["t_ns"].as_u64().unwrap_or(0);
            let args = Json::Object(
                event
                    .as_object()
                    .iter()
                    .filter(|(name, _)| {
                        !matches!(name.as_str(), "kind" | "seg" | "t_ns" | "t_end_ns")
                    })
                    .cloned()
                    .collect(),
            )
            .to_compact();
            let name = match kind {
                "link" => format!("sym {}", event["symbol"].as_u64().unwrap_or(0)),
                "cmd" => event["cmd"].as_str().unwrap_or("cmd").to_owned(),
                "maint" => format!(
                    "{}/{}",
                    event["action"].as_str().unwrap_or("?"),
                    event["cause"].as_str().unwrap_or("?")
                ),
                "mitigation" => format!(
                    "{}/{}",
                    event["wrapper"].as_str().unwrap_or("?"),
                    event["action"].as_str().unwrap_or("?")
                ),
                other => other.to_owned(),
            };
            let record = if kind == "link" {
                let t_end = event["t_end_ns"].as_u64().unwrap_or(t_ns);
                format!(
                    "{{\"name\":{},\"cat\":\"link\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                    quoted(&name),
                    chrome_ts(t_ns),
                    chrome_ts(t_end.saturating_sub(t_ns)),
                )
            } else {
                format!(
                    "{{\"name\":{},\"cat\":\"{kind}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                    quoted(&name),
                    chrome_ts(t_ns),
                )
            };
            records.push(record);
        }
        // Name the process after the unit and each track after its
        // (segment, kind) pair, so chrome://tracing labels are legible.
        let header = format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            quoted(&block.label)
        );
        let mut all = vec![header];
        for (tid, (seg, kind)) in tids.iter().enumerate() {
            all.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"seg{seg} {kind}\"}}}}"
            ));
        }
        all.extend(records);
        for record in all {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&record);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// The leak-alignment view: for every link symbol window, the defense
/// maintenance decisions and mitigation interventions whose timestamps
/// fall inside it (same segment, `t_ns <= t < t_end_ns`), plus the
/// activate count — the at-a-glance answer to "which windows did the
/// defense actually touch, and did the decode verdict flip there?".
pub fn align(lines: &[LogLine]) -> String {
    let mut out = String::from("== leak alignment ==\n");
    let mut any = false;
    for block in units(lines) {
        let links: Vec<&Json> = block
            .events
            .iter()
            .filter(|e| e["kind"].as_str() == Some("link"))
            .collect();
        if links.is_empty() {
            continue;
        }
        any = true;
        let _ = writeln!(out, "{}:", block.label);
        let _ = writeln!(
            out,
            "  {:>6} {:>18} {:>4} {:>7} {:<14} {:>4} {:>5} {:>5}  detail",
            "window", "t_ns", "sym", "events", "verdict", "acts", "maint", "mitig"
        );
        for link in links {
            let seg = link["seg"].as_u64().unwrap_or(0);
            let t0 = link["t_ns"].as_u64().unwrap_or(0);
            let t1 = link["t_end_ns"].as_u64().unwrap_or(t0);
            let mut acts = 0u64;
            let mut maint: std::collections::BTreeMap<String, u64> =
                std::collections::BTreeMap::new();
            let mut mitig: std::collections::BTreeMap<String, u64> =
                std::collections::BTreeMap::new();
            for event in &block.events {
                if event["seg"].as_u64() != Some(seg) {
                    continue;
                }
                let t = event["t_ns"].as_u64().unwrap_or(0);
                if t < t0 || t >= t1 {
                    continue;
                }
                match event["kind"].as_str() {
                    Some("cmd") if event["cmd"].as_str() == Some("act") => acts += 1,
                    Some("maint") => {
                        let label = format!(
                            "{}/{}",
                            event["action"].as_str().unwrap_or("?"),
                            event["cause"].as_str().unwrap_or("?")
                        );
                        *maint.entry(label).or_insert(0) += 1;
                    }
                    Some("mitigation") => {
                        let label = format!(
                            "{}/{}",
                            event["wrapper"].as_str().unwrap_or("?"),
                            event["action"].as_str().unwrap_or("?")
                        );
                        *mitig.entry(label).or_insert(0) += 1;
                    }
                    _ => {}
                }
            }
            let mut detail: Vec<String> = maint
                .iter()
                .chain(mitig.iter())
                .map(|(label, n)| format!("{label}:{n}"))
                .collect();
            if detail.is_empty() {
                detail.push("-".to_owned());
            }
            let _ = writeln!(
                out,
                "  {:>6} {:>18} {:>4} {:>7} {:<14} {:>4} {:>5} {:>5}  {}",
                link["window"].as_u64().unwrap_or(0),
                format!("{t0}..{t1}"),
                link["symbol"].as_u64().unwrap_or(0),
                link["events"].as_u64().unwrap_or(0),
                link["verdict"].as_str().unwrap_or("?"),
                acts,
                maint.values().sum::<u64>(),
                mitig.values().sum::<u64>(),
                detail.join(" "),
            );
        }
    }
    if !any {
        out.push_str("(no link windows in the log — nothing to align)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = "\
{\"kind\":\"experiment\",\"experiment\":\"fig2\",\"scale\":\"quick\",\"seed\":1,\"units\":1}
{\"kind\":\"unit\",\"unit\":\"u0\",\"index\":0,\"events\":5,\"dropped\":{\"cmd\":2}}
{\"kind\":\"cmd\",\"seg\":0,\"t_ns\":5,\"cmd\":\"act\",\"rank\":0,\"bg\":0,\"bank\":3,\"row\":9}
{\"kind\":\"maint\",\"seg\":0,\"t_ns\":8,\"action\":\"rfm\",\"cause\":\"reactive\",\"rank\":0,\"slack_ns\":0}
{\"kind\":\"mitigation\",\"seg\":0,\"t_ns\":9,\"wrapper\":\"jitter\",\"action\":\"slip\",\"rank\":0,\"amount_ns\":4}
{\"kind\":\"link\",\"seg\":0,\"t_ns\":0,\"t_end_ns\":10,\"window\":0,\"symbol\":1,\"events\":4,\"verdict\":\"hit\"}
{\"kind\":\"link\",\"seg\":0,\"t_ns\":10,\"t_end_ns\":20,\"window\":1,\"symbol\":0,\"events\":0,\"verdict\":\"idle\"}
";

    fn log() -> Vec<LogLine> {
        parse_log(LOG, "<test>").unwrap()
    }

    /// The filter view as `lh-experiments events` prints it: the
    /// selected lines' original bytes.
    fn filter(lines: Vec<LogLine>, query: &EventQuery) -> String {
        select(lines, query)
            .iter()
            .map(|l| format!("{}\n", l.raw))
            .collect()
    }

    #[test]
    fn filter_keeps_headers_and_matching_events() {
        let query = EventQuery {
            kind: Some("link".to_owned()),
            ..EventQuery::default()
        };
        let out = filter(log(), &query);
        assert_eq!(out.lines().count(), 4, "2 headers + 2 links: {out}");
        assert!(!out.contains("\"kind\":\"cmd\""));

        let query = EventQuery {
            bank: Some(3),
            ..EventQuery::default()
        };
        assert!(filter(log(), &query).contains("\"cmd\":\"act\""));

        let query = EventQuery {
            from: Some(8),
            to: Some(9),
            ..EventQuery::default()
        };
        let out = filter(log(), &query);
        assert!(out.contains("\"kind\":\"maint\"") && !out.contains("\"kind\":\"mitigation\""));
    }

    #[test]
    fn summary_counts_kinds_verdicts_and_drops() {
        let out = summary(&log());
        assert!(out.contains("u0: 5 event(s)"), "{out}");
        assert!(out.contains("link = 2"), "{out}");
        assert!(out.contains("link verdicts: hit:1 idle:1"), "{out}");
        assert!(out.contains("dropped.cmd = 2"), "{out}");
        assert!(out.contains("span: 0..20 ns"), "{out}");
    }

    #[test]
    fn chrome_export_is_valid_trace_json() {
        let out = chrome(&log());
        let doc = parse(&out).expect("chrome export must parse");
        let events = doc["traceEvents"].as_array();
        // 1 process_name + 4 thread tracks + 5 events.
        assert_eq!(events.len(), 10, "{out}");
        let link = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("X"))
            .expect("link windows are complete events");
        assert_eq!(link["args"]["verdict"].as_str(), Some("hit"));
        assert!(events
            .iter()
            .any(|e| e["ph"].as_str() == Some("M")
                && e["args"]["name"].as_str() == Some("seg0 maint")));
    }

    #[test]
    fn chrome_ts_keeps_ns_precision() {
        assert_eq!(chrome_ts(1_234), "1.234");
        assert_eq!(chrome_ts(999), "0.999");
        assert_eq!(chrome_ts(1_000_000), "1000.000");
    }

    #[test]
    fn align_counts_in_window_activity() {
        let out = align(&log());
        // Window 0 covers the act, the maint and the mitigation.
        let w0 = out.lines().find(|l| l.contains("hit")).unwrap();
        assert!(w0.contains("rfm/reactive:1"), "{out}");
        assert!(w0.contains("jitter/slip:1"), "{out}");
        // Window 1 is empty.
        let w1 = out.lines().find(|l| l.contains("idle")).unwrap();
        assert!(w1.trim_end().ends_with('-'), "{out}");
    }

    #[test]
    fn parse_rejects_corrupt_logs() {
        assert!(parse_log("not json\n", "<t>").unwrap_err().contains(":1:"));
        assert!(parse_log("{\"a\":1}\n", "<t>")
            .unwrap_err()
            .contains("kind"));
        assert!(parse_log("", "<t>").unwrap_err().contains("empty"));
    }
}
