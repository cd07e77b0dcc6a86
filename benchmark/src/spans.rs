//! The benchmark's own in-memory span recorder.
//!
//! Benchmark-side spans wrap the calls into each layer (`enter`/`exit`
//! on the driving thread, parent = the innermost open span). The spans
//! the program already emits through `lh_obs::trace` are merged in as
//! children by time containment, so one tree says where a repetition's
//! host time went. Everything stays in memory until the run ends; the
//! recorder is inert (one branch per call) when the run is untraced.

use std::time::Instant;

use lh_harness::Json;
use lh_obs::TraceEvent;

/// Rounding slack, in microseconds, when testing whether one span lies
/// inside another: `lh_obs` truncates start and duration separately.
const SLACK_US: u64 = 2;

/// One recorded span. Times are microseconds since the recorder epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: String,
    /// `bench` for benchmark-side spans, else the program's category.
    pub cat: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Thread id (`0` for the benchmark's driving thread).
    pub tid: u64,
}

impl SpanRec {
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    fn contains(&self, other: &SpanRec) -> bool {
        self.start_us <= other.start_us + SLACK_US && other.end_us <= self.end_us + SLACK_US
    }
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The recorder. Off by default.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    /// Shared identifier of every span of this run.
    workload: String,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Recorder {
    /// An inert recorder for untraced runs.
    pub fn off(workload: &str) -> Recorder {
        Recorder {
            on: false,
            epoch: Instant::now(),
            workload: workload.to_owned(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on, together with the program's own
    /// `lh_obs::trace` spans (that switch is process-wide and cannot be
    /// turned off again — untraced repetitions must run first). The
    /// epoch is aligned to `lh_obs`'s with a probe span so both clocks
    /// read the same microsecond.
    pub fn start(&mut self) {
        lh_obs::trace::enable();
        lh_obs::trace::drain();
        let probe_at = Instant::now();
        drop(lh_obs::Span::enter("bench.sync", "bench"));
        let probe_us = lh_obs::trace::drain()
            .iter()
            .find(|e| e.name == "bench.sync")
            .map_or(0, |e| e.ts_us);
        self.epoch = probe_at - std::time::Duration::from_micros(probe_us);
        self.on = true;
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a benchmark-side span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.now_us();
        self.spans.push(SpanRec {
            name: name.to_owned(),
            cat: "bench".to_owned(),
            start_us: now,
            end_us: now,
            parent: self.stack.last().copied(),
            tid: 0,
        });
        self.stack.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Recorder::enter`] (innermost first).
    pub fn exit(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        assert_eq!(self.stack.pop(), Some(i), "spans close innermost first");
        self.spans[i].end_us = self.now_us();
    }

    /// Drains the spans the program emitted since the last drain and
    /// hangs each under the innermost recorded span that contains it.
    pub fn merge_program_spans(&mut self) {
        if self.on {
            let events = lh_obs::trace::drain();
            merge(&mut self.spans, &events);
        }
    }

    /// Summed duration of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let us: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::dur_us)
            .sum();
        us as f64 / 1e6
    }

    /// Summed duration of every span named `name` that has an ancestor
    /// named `ancestor`.
    pub fn total_s_under(&self, name: &str, ancestor: &str) -> f64 {
        let under = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if self.spans[p].name == ancestor => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let us: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && under(i))
            .map(|i| self.spans[i].dur_us())
            .sum();
        us as f64 / 1e6
    }

    /// Summed self time of every span named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        let us: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time_us(&self.spans, i))
            .sum();
        us as f64 / 1e6
    }

    /// Chrome `trace_event` JSON of every span, with parent index, self
    /// time and the run's workload id as event arguments.
    pub fn chrome_json(&self) -> String {
        let pid = std::process::id();
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Json::object()
                    .with("id", i)
                    .with("workload", self.workload.as_str())
                    .with("self_us", self_time_us(&self.spans, i));
                if let Some(p) = s.parent {
                    args.set("parent", p);
                }
                Json::object()
                    .with("name", s.name.as_str())
                    .with("cat", s.cat.as_str())
                    .with("ph", "X")
                    .with("ts", s.start_us)
                    .with("dur", s.dur_us())
                    .with("pid", u64::from(pid))
                    .with("tid", s.tid)
                    .with("args", args)
            })
            .collect();
        Json::object()
            .with("displayTimeUnit", "ms")
            .with("traceEvents", Json::Array(events))
            .to_compact()
            + "\n"
    }
}

/// Appends `events` to `spans`, parenting each on the innermost span
/// that contains it: a program span on the same thread if there is one
/// (two pool threads' spans may overlap without nesting), else a
/// benchmark-side span — those run on the driving thread, which blocks
/// while the pool works, so containment in time is causation.
pub fn merge(spans: &mut Vec<SpanRec>, events: &[TraceEvent]) {
    let first_new = spans.len();
    spans.extend(events.iter().map(|e| SpanRec {
        name: e.name.clone(),
        cat: e.cat.to_owned(),
        start_us: e.ts_us,
        end_us: e.ts_us + e.dur_us,
        parent: None,
        // Keep program threads apart from the driving thread's id 0.
        tid: e.tid + 1,
    }));
    for i in first_new..spans.len() {
        let parent = (0..spans.len())
            .filter(|&j| j != i && spans[j].contains(&spans[i]))
            .filter(|&j| spans[j].cat == "bench" || spans[j].tid == spans[i].tid)
            // Equal durations contain each other within the slack: only
            // a benchmark-side span may then be the outer one.
            .filter(|&j| {
                let (outer, inner) = (spans[j].dur_us(), spans[i].dur_us());
                outer > inner || (outer == inner && spans[j].cat == "bench")
            })
            .min_by_key(|&j| (spans[j].dur_us(), std::cmp::Reverse(j)));
        spans[i].parent = parent;
    }
}

/// A span's self time: its duration minus the part of that interval
/// its direct children cover (their union, so parallel children on two
/// threads are not counted twice).
pub fn self_time_us(spans: &[SpanRec], i: usize) -> u64 {
    let me = &spans[i];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cursor = me.start_us;
    for (a, b) in kids {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    me.dur_us() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, tid: u64) -> SpanRec {
        SpanRec {
            name: name.into(),
            cat: if tid == 0 { "bench" } else { "sim" }.into(),
            start_us: start,
            end_us: end,
            parent,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // rep [0,100) > a [10,60) > b [20,30); only direct children count.
        let spans = vec![
            span("rep", 0, 100, None, 0),
            span("a", 10, 60, Some(0), 0),
            span("b", 20, 30, Some(1), 0),
        ];
        assert_eq!(self_time_us(&spans, 0), 50);
        assert_eq!(self_time_us(&spans, 1), 40);
        assert_eq!(self_time_us(&spans, 2), 10);
    }

    #[test]
    fn self_time_takes_the_union_of_sibling_children() {
        // Siblings [10,40) and [30,70) on two threads overlap by 10,
        // [80,90) is disjoint: covered = 60 + 10.
        let spans = vec![
            span("rep", 0, 100, None, 0),
            span("u1", 10, 40, Some(0), 1),
            span("u2", 30, 70, Some(0), 2),
            span("u3", 80, 90, Some(0), 1),
        ];
        assert_eq!(self_time_us(&spans, 0), 30);
        // A child poking past its parent's end is clipped.
        let spans = vec![span("p", 0, 10, None, 0), span("c", 5, 14, Some(0), 1)];
        assert_eq!(self_time_us(&spans, 0), 5);
    }

    #[test]
    fn program_spans_hang_under_the_innermost_container() {
        let mut spans = vec![
            span("rep", 0, 1000, None, 0),
            span("job.fig4", 100, 900, Some(0), 0),
        ];
        let ev = |name: &str, ts: u64, dur: u64, tid: u64| TraceEvent {
            name: name.into(),
            cat: "sim",
            ts_us: ts,
            dur_us: dur,
            tid,
        };
        merge(
            &mut spans,
            &[
                ev("unit.run", 200, 300, 1),
                ev("sim.run_until", 250, 100, 1),
                // Same interval shape on another thread: not nested in
                // thread 1's unit.run even though time says so.
                ev("unit.run", 210, 200, 2),
                // Outside every job span: child of the repetition.
                ev("sim.run_until", 950, 20, 1),
            ],
        );
        assert_eq!(spans[2].parent, Some(1), "unit.run under its job span");
        assert_eq!(spans[3].parent, Some(2), "run_until under its unit");
        assert_eq!(
            spans[4].parent,
            Some(1),
            "other thread's unit under the job"
        );
        assert_eq!(spans[5].parent, Some(0));
        assert_eq!(spans[2].tid, 2, "program tids shift past the driver's 0");
    }

    #[test]
    fn an_inert_recorder_records_nothing() {
        let mut rec = Recorder::off("w");
        let id = rec.enter("x");
        rec.exit(id);
        assert!(rec.spans.is_empty());
        assert_eq!(rec.total_s("x"), 0.0);
    }
}
