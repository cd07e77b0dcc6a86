//! Wall-clock trace spans with a Chrome `trace_event` exporter.
//!
//! Spans measure real elapsed time, so they are deliberately kept out
//! of the deterministic [`crate::metrics`] channel: timings never touch
//! cacheable results or distributed-run envelopes. Instead they
//! accumulate in a process-global buffer and export as the Chrome
//! trace-event JSON format, loadable in `chrome://tracing` or Perfetto
//! (`lh-experiments --trace-out FILE` wires this up).
//!
//! Tracing is off by default. [`Span::enter`] checks one relaxed atomic
//! and returns an inert guard when disabled — cheap enough to leave in
//! moderately hot paths (per simulation run, per experiment unit; not
//! per simulated event).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span: a `"ph":"X"` (complete) Chrome trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (shown on the track).
    pub name: String,
    /// Category tag (`unit`, `sim`, `harness`, ...).
    pub cat: &'static str,
    /// Start, microseconds since the tracer epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small dense thread id (assigned per OS thread, first use).
    pub tid: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Turns span collection on for the whole process.
pub fn enable() {
    epoch(); // pin the epoch no later than the first enable
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether spans are being collected.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes and returns every span collected so far (test isolation and
/// export both drain).
pub fn drain() -> Vec<TraceEvent> {
    std::mem::take(&mut EVENTS.lock().expect("trace buffer poisoned"))
}

/// An RAII wall-clock span: records one [`TraceEvent`] on drop when
/// tracing was enabled at entry, and is a no-op otherwise.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span {
    /// `None` when tracing was disabled at entry.
    live: Option<(String, &'static str, Instant)>,
}

impl Span {
    /// Opens a span named `name` in category `cat`.
    pub fn enter(name: impl Into<String>, cat: &'static str) -> Span {
        if !enabled() {
            return Span { live: None };
        }
        Span {
            live: Some((name.into(), cat, Instant::now())),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((name, cat, started)) = self.live.take() else {
            return;
        };
        let ts_us = started.duration_since(epoch()).as_micros() as u64;
        let dur_us = started.elapsed().as_micros() as u64;
        let tid = TID.with(|t| *t);
        let event = TraceEvent {
            name,
            cat,
            ts_us,
            dur_us,
            tid,
        };
        EVENTS.lock().expect("trace buffer poisoned").push(event);
    }
}

/// Renders spans as a Chrome trace-event JSON document
/// (`{"traceEvents":[...]}` with `"ph":"X"` complete events), loadable
/// in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let pid = std::process::id();
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        crate::escape_json(&e.name, &mut out);
        out.push_str("\",\"cat\":\"");
        crate::escape_json(e.cat, &mut out);
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{}}}",
            e.ts_us, e.dur_us, e.tid
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Drains every collected span and writes the Chrome trace JSON to
/// `path`, returning how many spans were exported.
///
/// # Errors
///
/// Filesystem write failures.
pub fn export_chrome_trace(path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
    let events = drain();
    std::fs::write(path, chrome_trace_json(&events))?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global, so every test here serializes on
    // one lock and drains before and after.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        ENABLED.store(false, Ordering::Relaxed);
        drain();
        {
            let _s = Span::enter("quiet", "test");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn enabled_spans_record_and_export() {
        let _guard = TEST_LOCK.lock().unwrap();
        drain();
        enable();
        {
            let _s = Span::enter("outer \"q\"", "test");
            let _t = Span::enter("inner", "test");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        ENABLED.store(false, Ordering::Relaxed);
        let events = drain();
        assert_eq!(events.len(), 2, "{events:?}");
        // Guards drop in reverse declaration order: inner first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer \"q\"");
        assert!(events[1].dur_us >= 1000, "slept a millisecond");

        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("outer \\\"q\\\""), "names are escaped");
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn escape_handles_control_characters() {
        let mut out = String::new();
        crate::escape_json("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }
}
