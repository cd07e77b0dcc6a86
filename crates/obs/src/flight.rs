//! The flight recorder: typed events on the *simulated* clock.
//!
//! This is the third observability channel, sitting between the
//! deterministic aggregates of `crate::metrics` and the wall-clock
//! spans of [`crate::trace`]: like metrics, every recorded event is a
//! pure function of the computation (simulated-ns timestamps, command
//! kinds, maintenance causes — never wall-clock or scheduling), so an
//! event log can ride cache entries and distributed-run envelopes byte
//! for byte. Like spans, it is an ordered per-event record rather than
//! a merged total, so a defense's maintenance timeline can be laid
//! against a covert sender's activity window by window.
//!
//! ## Capture model
//!
//! Recording is off by default and gated once, by a thread-local capture
//! scope ([`capture`] / [`capture_capped`]). The harness installs one
//! around each experiment unit of a run that asks for events (its
//! `JobContext` carries the request and the ring capacity), mirroring
//! the metric-scope idiom: events attribute to exactly one unit no
//! matter how many worker threads — or how many concurrent runs — share
//! the process.
//!
//! Outside a scope, emission is one thread-local check — cheap enough
//! for permanently-instrumented simulator paths. Producers that run hot
//! loops (the memory controller, mitigation wrappers) accumulate into a
//! local [`EventBuffer`] and are drained at obs-flush time by the
//! simulator, which tags the batch with its *segment* id.
//!
//! ## Segments
//!
//! One experiment unit may build several simulator instances, each
//! starting its own simulated clock at zero; a segment id (allocated
//! per instance via [`new_segment`], in construction order) keeps their
//! timelines apart. Rendering sorts stably by `(segment, t_ns)`, so the
//! byte output is invariant to how instance advances interleave.
//!
//! ## Bounds
//!
//! The capture scope is a ring: past its capacity ([`DEFAULT_CAP`]
//! unless [`capture_capped`] says otherwise), the oldest event is
//! evicted and counted in a per-kind drop map that rides the rendered
//! log header — truncation is always visible, never silent.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Default capture-scope capacity (events per experiment unit).
pub const DEFAULT_CAP: usize = 65_536;

/// One recorded event on the simulated-ns timebase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEvent {
    /// A DRAM command issued by the memory controller.
    Cmd {
        /// Issue time, simulated nanoseconds since the instance epoch.
        t_ns: u64,
        /// Command mnemonic (`act`, `pre`, `prea`, `rd`, `wr`, `ref`,
        /// `rfm`).
        cmd: &'static str,
        /// Rank index.
        rank: u32,
        /// Bank-group index.
        bank_group: u32,
        /// Bank index within the group.
        bank: u32,
        /// Row address, for row-addressed commands.
        row: Option<u64>,
    },
    /// A defense maintenance decision resolving (taken, deferred, or
    /// absorbed), with its cause.
    Maint {
        /// Resolution time, simulated nanoseconds.
        t_ns: u64,
        /// What was done (`rfm`, `para`, `refresh`).
        action: &'static str,
        /// Why (`scheduled`, `reactive`, `abo`, `deferred`).
        cause: &'static str,
        /// Rank index.
        rank: u32,
        /// Target bank for same-bank scoped maintenance.
        bank: Option<u32>,
        /// Lateness versus the published due time, simulated ns.
        slack_ns: u64,
    },
    /// A mitigation wrapper intervening in the maintenance timeline.
    Mitigation {
        /// Decision time, simulated nanoseconds.
        t_ns: u64,
        /// Wrapper name (`jitter`, `batch`, `shaper`, `quota`).
        wrapper: &'static str,
        /// What it did (`slip`, `defer`, `dummy-rfm`, `absorb`,
        /// `throttle`).
        action: &'static str,
        /// Rank index.
        rank: u32,
        /// Magnitude in simulated ns (slip amount, deferral), when the
        /// intervention has one.
        amount_ns: u64,
    },
    /// One link-layer symbol window with its decode verdict.
    Link {
        /// Window start, simulated nanoseconds.
        t_ns: u64,
        /// Window end, simulated nanoseconds.
        t_end_ns: u64,
        /// Window index within the transmission.
        window: u64,
        /// The symbol the sender modulated into this window.
        symbol: u64,
        /// Attacker-observable events counted in the window.
        events: u64,
        /// Per-window verdict (`hit`, `miss`, `false-positive`,
        /// `idle`).
        verdict: &'static str,
    },
}

impl FlightEvent {
    /// The event's simulated-ns timestamp (window start for links).
    pub fn t_ns(&self) -> u64 {
        match self {
            FlightEvent::Cmd { t_ns, .. }
            | FlightEvent::Maint { t_ns, .. }
            | FlightEvent::Mitigation { t_ns, .. }
            | FlightEvent::Link { t_ns, .. } => *t_ns,
        }
    }

    /// The event's kind tag as rendered in NDJSON (`cmd`, `maint`,
    /// `mitigation`, `link`).
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::Cmd { .. } => "cmd",
            FlightEvent::Maint { .. } => "maint",
            FlightEvent::Mitigation { .. } => "mitigation",
            FlightEvent::Link { .. } => "link",
        }
    }

    /// Renders the event as one NDJSON line body (no trailing newline)
    /// with a fixed key order, so identical events are identical bytes.
    fn render_into(&self, seg: u64, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            FlightEvent::Cmd {
                t_ns,
                cmd,
                rank,
                bank_group,
                bank,
                row,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"cmd\",\"seg\":{seg},\"t_ns\":{t_ns},\"cmd\":\"{cmd}\",\
                     \"rank\":{rank},\"bg\":{bank_group},\"bank\":{bank}"
                );
                if let Some(row) = row {
                    let _ = write!(out, ",\"row\":{row}");
                }
                out.push('}');
            }
            FlightEvent::Maint {
                t_ns,
                action,
                cause,
                rank,
                bank,
                slack_ns,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"maint\",\"seg\":{seg},\"t_ns\":{t_ns},\
                     \"action\":\"{action}\",\"cause\":\"{cause}\",\"rank\":{rank}"
                );
                if let Some(bank) = bank {
                    let _ = write!(out, ",\"bank\":{bank}");
                }
                let _ = write!(out, ",\"slack_ns\":{slack_ns}}}");
            }
            FlightEvent::Mitigation {
                t_ns,
                wrapper,
                action,
                rank,
                amount_ns,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"mitigation\",\"seg\":{seg},\"t_ns\":{t_ns},\
                     \"wrapper\":\"{wrapper}\",\"action\":\"{action}\",\"rank\":{rank},\
                     \"amount_ns\":{amount_ns}}}"
                );
            }
            FlightEvent::Link {
                t_ns,
                t_end_ns,
                window,
                symbol,
                events,
                verdict,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"link\",\"seg\":{seg},\"t_ns\":{t_ns},\"t_end_ns\":{t_end_ns},\
                     \"window\":{window},\"symbol\":{symbol},\"events\":{events},\
                     \"verdict\":\"{verdict}\"}}"
                );
            }
        }
    }
}

/// Does nothing: recording is requested per run (the harness's
/// `JobContext`) and scoped per thread by [`capture`], so there is no
/// process-wide switch left to turn on. Kept for callers that predate
/// the per-run request.
pub fn enable() {}

/// Does nothing, like [`enable`].
pub fn set_enabled(_on: bool) {}

/// The ring capacity of the capture scope on this thread
/// ([`DEFAULT_CAP`] outside one).
fn cap() -> usize {
    SCOPE.with(|s| s.borrow().as_ref().map_or(DEFAULT_CAP, |log| log.cap))
}

/// A bounded ring of events with per-kind drop accounting — the local
/// accumulator producers keep between obs flushes. Eviction is
/// keep-latest: the ring drops its *oldest* event and counts the drop,
/// so truncation is deterministic and visible.
#[derive(Debug, Clone, Default)]
pub struct EventBuffer {
    events: std::collections::VecDeque<FlightEvent>,
    dropped: BTreeMap<&'static str, u64>,
}

impl EventBuffer {
    /// An empty buffer (capacity is read from this thread's capture
    /// scope at each push, so buffers need no configuration).
    pub fn new() -> EventBuffer {
        EventBuffer::default()
    }

    /// Appends one event, evicting and counting the oldest past the
    /// capture scope's capacity.
    pub fn push(&mut self, event: FlightEvent) {
        if self.events.len() >= cap() {
            if let Some(old) = self.events.pop_front() {
                *self.dropped.entry(old.kind()).or_insert(0) += 1;
            }
        }
        self.events.push_back(event);
    }

    /// Whether the buffer holds no events and recorded no drops.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped.is_empty()
    }

    /// Removes and returns the buffered events and drop counts.
    pub fn drain(&mut self) -> (Vec<FlightEvent>, BTreeMap<&'static str, u64>) {
        (
            std::mem::take(&mut self.events).into(),
            std::mem::take(&mut self.dropped),
        )
    }

    /// Drains `other` into this buffer, carrying its drop counts along
    /// — how a flush point gathers several producers' rings into one
    /// batch without losing truncation accounting.
    pub fn absorb(&mut self, other: &mut EventBuffer) {
        let (events, dropped) = other.drain();
        for event in events {
            self.push(event);
        }
        for (kind, n) in dropped {
            *self.dropped.entry(kind).or_insert(0) += n;
        }
    }
}

/// The events one capture scope collected, with segment tags and drop
/// accounting — what [`capture`] returns.
#[derive(Debug, Clone)]
pub struct FlightLog {
    entries: Vec<(u64, FlightEvent)>,
    dropped: BTreeMap<&'static str, u64>,
    next_seg: u64,
    /// Ring capacity, at least 1.
    cap: usize,
}

impl FlightLog {
    fn with_cap(cap: usize) -> FlightLog {
        FlightLog {
            entries: Vec::new(),
            dropped: BTreeMap::new(),
            next_seg: 0,
            cap: cap.max(1),
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded (and nothing dropped).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.dropped.is_empty()
    }

    /// Per-kind counts of events evicted by the ring bound.
    pub fn dropped(&self) -> &BTreeMap<&'static str, u64> {
        &self.dropped
    }

    /// Iterates the retained `(segment, event)` pairs in recorded
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &FlightEvent)> {
        self.entries.iter().map(|(seg, e)| (*seg, e))
    }

    fn push(&mut self, seg: u64, event: FlightEvent) {
        if self.entries.len() >= self.cap {
            let (_, old) = self.entries.remove(0);
            *self.dropped.entry(old.kind()).or_insert(0) += 1;
        }
        self.entries.push((seg, event));
    }

    /// Renders the log as NDJSON: one `{"kind":"unit",...}` header line
    /// carrying the unit identity, retained-event count and drop map,
    /// then one line per event, stably sorted by `(segment, t_ns)` so
    /// the bytes do not depend on how producer flushes interleaved.
    pub fn render(&self, unit: &str, index: usize) -> String {
        use std::fmt::Write as _;
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&i| (self.entries[i].0, self.entries[i].1.t_ns()));
        let mut out = String::from("{\"kind\":\"unit\",\"unit\":\"");
        crate::escape_json(unit, &mut out);
        let _ = write!(
            out,
            "\",\"index\":{index},\"events\":{},\"dropped\":{{",
            self.entries.len()
        );
        for (i, (kind, n)) in self.dropped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{kind}\":{n}");
        }
        out.push_str("}}\n");
        for i in order {
            let (seg, event) = &self.entries[i];
            event.render_into(*seg, &mut out);
            out.push('\n');
        }
        out
    }
}

/// The experiment-level header line an assembled event log starts with;
/// per-unit logs ([`FlightLog::render`]) follow in unit order.
pub fn experiment_header(experiment: &str, scale: &str, seed: u64, units: usize) -> String {
    let mut out = String::from("{\"kind\":\"experiment\",\"experiment\":\"");
    crate::escape_json(experiment, &mut out);
    out.push_str("\",\"scale\":\"");
    crate::escape_json(scale, &mut out);
    out.push_str(&format!("\",\"seed\":{seed},\"units\":{units}}}\n"));
    out
}

thread_local! {
    /// The capture scope installed on this thread, if any — the one
    /// recording gate. Unlike metric scopes these do not nest: one scope
    /// per experiment unit.
    static SCOPE: RefCell<Option<FlightLog>> = const { RefCell::new(None) };
}

/// Whether events emitted on this thread right now would be retained:
/// a capture scope is installed. Producers check this before building
/// events.
pub fn active() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

/// Allocates the next segment id in the current capture scope (zero
/// without one). Simulator instances call this once, in construction
/// order, so segment ids are stable across execution modes.
pub fn new_segment() -> u64 {
    SCOPE.with(|s| {
        let mut slot = s.borrow_mut();
        match slot.as_mut() {
            Some(log) => {
                let seg = log.next_seg;
                log.next_seg += 1;
                seg
            }
            None => 0,
        }
    })
}

/// Emits one event tagged with `seg` into the current capture scope; a
/// no-op without one.
pub fn emit(seg: u64, event: FlightEvent) {
    SCOPE.with(|s| {
        if let Some(log) = s.borrow_mut().as_mut() {
            log.push(seg, event);
        }
    });
}

/// Emits a drained producer batch tagged with `seg`, folding the
/// producer's drop counts into the scope's accounting; a no-op without
/// a capture scope.
pub fn emit_batch(seg: u64, events: Vec<FlightEvent>, dropped: BTreeMap<&'static str, u64>) {
    SCOPE.with(|s| {
        if let Some(log) = s.borrow_mut().as_mut() {
            for event in events {
                log.push(seg, event);
            }
            for (kind, n) in dropped {
                *log.dropped.entry(kind).or_insert(0) += n;
            }
        }
    });
}

/// Runs `f` under a fresh capture scope of [`DEFAULT_CAP`] events on
/// this thread and returns its result together with every event
/// recorded while it ran; see [`capture_capped`].
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, FlightLog) {
    capture_capped(DEFAULT_CAP, f)
}

/// Runs `f` under a fresh capture scope whose ring keeps the latest
/// `cap` events (`0` is treated as `1`) and returns its result together
/// with the log. The scope is removed even if `f` panics (its events are
/// discarded with it).
pub fn capture_capped<T>(cap: usize, f: impl FnOnce() -> T) -> (T, FlightLog) {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SCOPE.with(|s| {
                s.borrow_mut().take();
            });
        }
    }

    SCOPE.with(|s| {
        *s.borrow_mut() = Some(FlightLog::with_cap(cap));
    });
    let guard = Guard;
    let value = f();
    let log = SCOPE
        .with(|s| s.borrow_mut().take())
        .unwrap_or_else(|| FlightLog::with_cap(cap));
    drop(guard);
    (value, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(t_ns: u64) -> FlightEvent {
        FlightEvent::Cmd {
            t_ns,
            cmd: "act",
            rank: 0,
            bank_group: 1,
            bank: 2,
            row: Some(41),
        }
    }

    #[test]
    fn unscoped_emission_is_dropped() {
        // The shims switch nothing on.
        enable();
        set_enabled(true);
        assert!(!active());
        emit(0, cmd(5)); // no scope: silently dropped
        let ((), log) = capture(|| {});
        assert!(
            log.is_empty(),
            "an earlier unscoped emission must not leak in"
        );
        assert!(!active(), "the scope is gone after capture");
    }

    /// Scopes are per thread: a capture on one thread neither sees nor
    /// disturbs another thread's scope, whatever their capacities.
    #[test]
    fn scopes_on_two_threads_are_independent() {
        let barrier = std::sync::Barrier::new(2);
        let logs: Vec<FlightLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = [1usize, 3]
                .into_iter()
                .map(|cap| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        capture_capped(cap, || {
                            barrier.wait();
                            for t in 0..5 {
                                emit(0, cmd(t));
                            }
                            barrier.wait();
                        })
                        .1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(logs[0].len(), 1);
        assert_eq!(logs[0].dropped().get("cmd"), Some(&4));
        assert_eq!(logs[1].len(), 3);
        assert_eq!(logs[1].dropped().get("cmd"), Some(&2));
        assert!(!active(), "no scope leaked onto the test thread");
    }

    #[test]
    fn capture_records_segments_and_sorts_renderings() {
        let ((), log) = capture(|| {
            assert!(active());
            let a = new_segment();
            let b = new_segment();
            assert_eq!((a, b), (0, 1));
            // Interleaved emission across segments, out of time order.
            emit(b, cmd(10));
            emit(a, cmd(20));
            emit(
                a,
                FlightEvent::Maint {
                    t_ns: 5,
                    action: "rfm",
                    cause: "scheduled",
                    rank: 0,
                    bank: None,
                    slack_ns: 3,
                },
            );
        });
        assert_eq!(log.len(), 3);
        let text = log.render("mitigated defense=prac", 4);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"kind\":\"unit\",\"unit\":\"mitigated defense=prac\",\"index\":4,\
             \"events\":3,\"dropped\":{}}"
        );
        // Sorted by (seg, t_ns): seg 0 @5, seg 0 @20, seg 1 @10.
        assert!(lines[1].contains("\"kind\":\"maint\"") && lines[1].contains("\"seg\":0"));
        assert!(lines[2].contains("\"t_ns\":20") && lines[2].contains("\"seg\":0"));
        assert!(lines[3].contains("\"t_ns\":10") && lines[3].contains("\"seg\":1"));
    }

    #[test]
    fn ring_bound_drops_oldest_with_accounting() {
        let ((), log) = capture_capped(2, || {
            for t in 0..5 {
                emit(0, cmd(t));
            }
        });
        assert_eq!(log.len(), 2, "ring keeps the latest");
        assert_eq!(log.dropped().get("cmd"), Some(&3));
        let text = log.render("u", 0);
        assert!(text.contains("\"dropped\":{\"cmd\":3}"), "{text}");
        assert!(text.contains("\"t_ns\":4"), "latest retained: {text}");
        assert!(!text.contains("\"t_ns\":0"), "oldest evicted: {text}");
    }

    #[test]
    fn event_buffer_drains_events_and_drops() {
        let mut buf = EventBuffer::new();
        assert!(buf.is_empty());
        // The buffer takes its capacity from the scope it fills in.
        capture_capped(2, || {
            for t in 0..3 {
                buf.push(cmd(t));
            }
        });
        let (events, dropped) = buf.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_ns(), 1);
        assert_eq!(dropped.get("cmd"), Some(&1));
        assert!(buf.is_empty(), "drain empties the buffer");
    }

    #[test]
    fn renders_are_stable_ndjson() {
        let link = FlightEvent::Link {
            t_ns: 100,
            t_end_ns: 200,
            window: 7,
            symbol: 1,
            events: 4,
            verdict: "hit",
        };
        let mut out = String::new();
        link.render_into(2, &mut out);
        assert_eq!(
            out,
            "{\"kind\":\"link\",\"seg\":2,\"t_ns\":100,\"t_end_ns\":200,\"window\":7,\
             \"symbol\":1,\"events\":4,\"verdict\":\"hit\"}"
        );
        let mitigation = FlightEvent::Mitigation {
            t_ns: 9,
            wrapper: "jitter",
            action: "slip",
            rank: 1,
            amount_ns: 55,
        };
        out.clear();
        mitigation.render_into(0, &mut out);
        assert_eq!(
            out,
            "{\"kind\":\"mitigation\",\"seg\":0,\"t_ns\":9,\"wrapper\":\"jitter\",\
             \"action\":\"slip\",\"rank\":1,\"amount_ns\":55}"
        );
        assert_eq!(
            experiment_header("fig2", "quick", 11, 3),
            "{\"kind\":\"experiment\",\"experiment\":\"fig2\",\"scale\":\"quick\",\
             \"seed\":11,\"units\":3}\n"
        );
    }

    #[test]
    fn panics_unwind_the_scope() {
        let caught = std::panic::catch_unwind(|| {
            capture(|| -> () { panic!("boom") });
        });
        assert!(caught.is_err());
        assert!(
            SCOPE.with(|s| s.borrow().is_none()),
            "a panicking capture must still be popped"
        );
    }
}
