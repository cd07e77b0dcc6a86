//! The run store: every submission's identity, and the payloads of the
//! finished ones under one fixed byte budget.
//!
//! A run's *payload* is what a finished run leaves behind — its NDJSON
//! stream lines, its envelope and, for a recording run, its flight-event
//! log — each held once as `Arc<str>`, so a handler answering from it
//! takes a refcount under the entry lock and writes to its socket
//! outside every lock. The store counts those bytes exactly as runs
//! finish and keeps the sum at or under [`PAYLOAD_BUDGET_BYTES`] by
//! *evicting* the oldest-finished run first: its slot in the table
//! swaps the [`RunEntry`] for a small [`EvictedRun`] record. Nothing is
//! torn out of an entry — a stream follower (or the submitter) that
//! already holds the `Arc<RunEntry>` keeps reading it, and the payload
//! is freed when the last such holder lets go. Queued and running runs
//! carry no accounted bytes and are never evicted.
//!
//! The table itself is a window of the [`IDENTITY_WINDOW`] most recent
//! submissions with contiguous ids from a monotonic counter, so lookup
//! by id is an index. When it is full its oldest record is dropped to
//! admit a submission — unless that record is of a run that has not
//! finished, in which case the submission is refused.
//!
//! Lock order: store, then entry. Nothing takes the store lock while
//! holding an entry's.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use lh_harness::json::Json;
use lh_harness::{JobContext, ScaleLevel};

/// Bytes of finished-run payload the store retains at most: about
/// thirty chansweep-sized quick runs, or a thousand fig2-sized ones.
pub const PAYLOAD_BUDGET_BYTES: usize = 8 << 20;

/// Submissions the table remembers (identity and final status, ≈ 150
/// bytes each). Larger than the number of the smallest runs the payload
/// budget holds, so a run is normally evicted before it is forgotten.
pub(crate) const IDENTITY_WINDOW: usize = 4096;

/// Where a submitted run is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RunPhase {
    Queued,
    Running,
    Done,
    Failed(String),
}

impl RunPhase {
    fn as_str(&self) -> &'static str {
        match self {
            RunPhase::Queued => "queued",
            RunPhase::Running => "running",
            RunPhase::Done => "done",
            RunPhase::Failed(_) => "failed",
        }
    }

    fn finished(&self) -> bool {
        matches!(self, RunPhase::Done | RunPhase::Failed(_))
    }
}

/// What was submitted: the identity of a run, kept for as long as the
/// window remembers it.
#[derive(Debug)]
pub(crate) struct RunRecord {
    pub id: u64,
    pub experiment: String,
    pub scale: ScaleLevel,
    pub seed: u64,
    /// Whether the submission asked for flight-event recording.
    pub events: bool,
}

impl RunRecord {
    /// The context the run executes, and is re-served, under: a
    /// recording submission records into rings of the default capacity.
    /// Runs share nothing else, so any number may execute at once.
    pub fn context(&self) -> JobContext {
        JobContext {
            flight: self.events.then_some(lh_obs::flight::DEFAULT_CAP),
            ..JobContext::new(self.scale, self.seed)
        }
    }
}

/// The two finished documents of a run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Part {
    /// The envelope: the exact bytes `--format json` prints.
    Envelope,
    /// The flight-event log: the exact bytes `--events-out` writes.
    Events,
}

/// What a successful run hands the store.
#[derive(Debug)]
pub(crate) struct Finished {
    /// The `finished` stream line.
    pub line: Arc<str>,
    /// The pretty-printed envelope plus trailing newline.
    pub envelope: Arc<str>,
    /// The flight-event log of a recording run.
    pub events: Option<Arc<str>>,
}

#[derive(Debug)]
struct RunInner {
    phase: RunPhase,
    /// NDJSON event lines (`started`/`unit`/`finished`) in emission
    /// order; stream followers tail this.
    lines: Vec<Arc<str>>,
    envelope: Option<Arc<str>>,
    events: Option<Arc<str>>,
}

impl RunInner {
    fn error(&self) -> Option<&str> {
        match &self.phase {
            RunPhase::Failed(error) => Some(error),
            _ => None,
        }
    }

    fn payload_bytes(&self) -> usize {
        let docs = self.envelope.iter().chain(&self.events);
        self.lines.iter().chain(docs).map(|s| s.len()).sum()
    }
}

/// One submitted run while the store holds its payload: the record plus
/// mutexed progress state that stream followers tail under a condvar.
#[derive(Debug)]
pub(crate) struct RunEntry {
    pub record: Arc<RunRecord>,
    inner: Mutex<RunInner>,
    cond: Condvar,
}

impl RunEntry {
    fn lock(&self) -> MutexGuard<'_, RunInner> {
        self.inner.lock().expect("run entry poisoned")
    }

    /// Appends one stream line and wakes the followers.
    pub fn push_line(&self, line: String) {
        let line = Arc::from(line); // copied before the lock is taken
        self.lock().lines.push(line);
        self.cond.notify_all();
    }

    /// Marks the run as picked up by the executor.
    pub fn set_running(&self) {
        self.lock().phase = RunPhase::Running;
        self.cond.notify_all();
    }

    /// The finished `part`, by refcount; or the status and message to
    /// answer with while there is none (`409` unfinished, `500` failed).
    pub fn part(&self, part: Part) -> Result<Arc<str>, (u16, String)> {
        let inner = self.lock();
        let held = match part {
            Part::Envelope => &inner.envelope,
            Part::Events => &inner.events,
        };
        match (held, inner.error()) {
            (Some(bytes), _) => Ok(Arc::clone(bytes)),
            (None, Some(error)) => Err((500, error.to_owned())),
            (None, None) => Err((409, "run not finished yet".to_owned())),
        }
    }

    /// The lines after the first `sent`, by refcount, and whether the
    /// run has finished (no more will come). Blocks while there is
    /// nothing new on an unfinished run, for at most `patience`.
    pub fn lines_after(&self, sent: usize, patience: Duration) -> (Vec<Arc<str>>, bool) {
        let (inner, _) = self
            .cond
            .wait_timeout_while(self.lock(), patience, |inner| {
                inner.lines.len() == sent && !inner.phase.finished()
            })
            .expect("run entry poisoned");
        (inner.lines[sent..].to_vec(), inner.phase.finished())
    }
}

/// What the window keeps of a run whose payload was evicted.
#[derive(Debug, Clone)]
pub(crate) struct EvictedRun {
    pub record: Arc<RunRecord>,
    /// Stream lines the run emitted.
    lines: usize,
    /// The failure, if the run failed.
    pub error: Option<String>,
}

/// One slot of the window: what a lookup by id returns.
#[derive(Debug, Clone)]
pub(crate) enum Run {
    /// The store holds the run's entry: queued, running, or finished
    /// with its payload retained.
    Held(Arc<RunEntry>),
    /// Finished, payload evicted.
    Evicted(EvictedRun),
}

impl Run {
    pub fn record(&self) -> &RunRecord {
        match self {
            Run::Held(entry) => &entry.record,
            Run::Evicted(evicted) => &evicted.record,
        }
    }

    /// The run's status document. `retained` tells a client whether
    /// `/stream` (and, without a disk cache, `/envelope`) will answer.
    pub fn status_json(&self) -> Json {
        let (status, lines, error) = match self {
            Run::Held(entry) => {
                let inner = entry.lock();
                let error = inner.error().map(str::to_owned);
                (inner.phase.as_str(), inner.lines.len(), error)
            }
            Run::Evicted(evicted) => {
                let status = if evicted.error.is_some() {
                    "failed"
                } else {
                    "done"
                };
                (status, evicted.lines, evicted.error.clone())
            }
        };
        let record = self.record();
        let mut obj = Json::object()
            .with("id", record.id)
            .with("experiment", record.experiment.as_str())
            .with("scale", record.scale.as_str())
            .with("seed", record.seed)
            .with("status", status)
            .with("events", lines)
            .with("flight", record.events)
            .with("retained", matches!(self, Run::Held(_)));
        if let Some(error) = error {
            obj.set("error", error);
        }
        obj
    }
}

/// The store's counts for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Finished runs whose payload is in memory.
    pub runs_retained: u64,
    /// Bytes of those payloads (stream lines + envelope + events log).
    pub payload_bytes: u64,
    /// Finished runs whose payload was dropped, ever.
    pub runs_evicted: u64,
    /// Documents of evicted runs re-served from the disk cache, ever.
    pub envelopes_recovered: u64,
}

#[derive(Debug)]
struct StoreInner {
    /// The id the next submission gets; ids start at 1.
    next_id: u64,
    /// The most recent submissions; `window[i]` has id
    /// `next_id - window.len() + i`.
    window: VecDeque<Run>,
    /// `(id, payload bytes)` of the retained finished runs, in the
    /// order they finished.
    finished: VecDeque<(u64, usize)>,
    /// Sum of the bytes in `finished`.
    payload_bytes: usize,
    evicted: u64,
    recovered: u64,
}

impl StoreInner {
    fn slot(&mut self, id: u64) -> Option<&mut Run> {
        let first = self.next_id - self.window.len() as u64;
        let index = usize::try_from(id.checked_sub(first)?).ok()?;
        self.window.get_mut(index)
    }

    /// Swaps the oldest-finished retained run's entry for its record.
    fn evict_oldest(&mut self) {
        let Some((id, bytes)) = self.finished.pop_front() else {
            return;
        };
        self.payload_bytes -= bytes;
        self.evicted += 1;
        let slot = self.slot(id).expect("retained runs are in the window");
        let Run::Held(entry) = &*slot else {
            unreachable!("run {id} is accounted, so it is held")
        };
        let inner = entry.lock();
        let evicted = EvictedRun {
            record: Arc::clone(&entry.record),
            lines: inner.lines.len(),
            error: inner.error().map(str::to_owned),
        };
        drop(inner);
        *slot = Run::Evicted(evicted);
    }
}

/// The run table; see the module docs.
#[derive(Debug)]
pub(crate) struct RunStore {
    inner: Mutex<StoreInner>,
}

impl RunStore {
    pub fn new() -> RunStore {
        RunStore {
            inner: Mutex::new(StoreInner {
                next_id: 1,
                window: VecDeque::new(),
                finished: VecDeque::new(),
                payload_bytes: 0,
                evicted: 0,
                recovered: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("run store poisoned")
    }

    /// Admits a submission as a queued run. `None` when the window is
    /// full and its oldest run has not finished: nothing can be
    /// forgotten to make room.
    pub fn submit(
        &self,
        experiment: &str,
        scale: ScaleLevel,
        seed: u64,
        events: bool,
    ) -> Option<Arc<RunEntry>> {
        let mut store = self.lock();
        if store.window.len() == IDENTITY_WINDOW {
            if let Some(Run::Held(oldest)) = store.window.front() {
                if !oldest.lock().phase.finished() {
                    return None;
                }
                // Forgotten while still retained: its bytes go with it.
                let id = oldest.record.id;
                if let Some(at) = store.finished.iter().position(|&(held, _)| held == id) {
                    let (_, bytes) = store.finished.remove(at).expect("position is in range");
                    store.payload_bytes -= bytes;
                }
            }
            store.window.pop_front();
        }
        let entry = Arc::new(RunEntry {
            record: Arc::new(RunRecord {
                id: store.next_id,
                experiment: experiment.to_owned(),
                scale,
                seed,
                events,
            }),
            inner: Mutex::new(RunInner {
                phase: RunPhase::Queued,
                lines: Vec::new(),
                envelope: None,
                events: None,
            }),
            cond: Condvar::new(),
        });
        store.next_id += 1;
        store.window.push_back(Run::Held(Arc::clone(&entry)));
        Some(entry)
    }

    /// The run with this id, if the window still remembers it.
    pub fn get(&self, id: u64) -> Option<Run> {
        self.lock().slot(id).cloned()
    }

    /// Every run the window remembers, oldest first.
    pub fn window(&self) -> Vec<Run> {
        self.lock().window.iter().cloned().collect()
    }

    /// Ends `entry`'s run: installs the payload (or the failure), wakes
    /// the followers, accounts the payload's bytes and evicts
    /// oldest-finished runs until the budget holds — this one included
    /// if it alone is over budget; whoever holds `entry` still reads it.
    pub fn finish(&self, entry: &RunEntry, outcome: Result<Finished, String>) {
        let mut store = self.lock();
        let mut inner = entry.lock();
        match outcome {
            Ok(finished) => {
                inner.lines.push(finished.line);
                inner.envelope = Some(finished.envelope);
                inner.events = finished.events;
                inner.phase = RunPhase::Done;
            }
            Err(error) => inner.phase = RunPhase::Failed(error),
        }
        let bytes = inner.payload_bytes();
        drop(inner);
        entry.cond.notify_all();

        store.finished.push_back((entry.record.id, bytes));
        store.payload_bytes += bytes;
        while store.payload_bytes > PAYLOAD_BUDGET_BYTES {
            store.evict_oldest();
        }
    }

    /// Counts one document of an evicted run re-served from disk.
    pub fn note_recovered(&self) {
        self.lock().recovered += 1;
    }

    pub fn stats(&self) -> StoreStats {
        let store = self.lock();
        StoreStats {
            runs_retained: store.finished.len() as u64,
            payload_bytes: store.payload_bytes as u64,
            runs_evicted: store.evicted,
            envelopes_recovered: store.recovered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STARTED: &str = "{\"event\":\"started\"}\n";

    /// A payload of exactly `bytes` bytes beyond the `started` line,
    /// split over the finished line, the envelope and (if `events`) the
    /// events log.
    fn payload(bytes: usize, events: bool) -> Finished {
        let log = if events { bytes / 4 } else { 0 };
        let line = (bytes - log) / 3;
        Finished {
            line: "l".repeat(line).into(),
            envelope: "e".repeat(bytes - log - line).into(),
            events: events.then(|| "v".repeat(log).into()),
        }
    }

    fn submit(store: &RunStore, events: bool) -> Arc<RunEntry> {
        let entry = store
            .submit("fig2", ScaleLevel::Quick, 1, events)
            .expect("the window has room");
        entry.set_running();
        entry.push_line(STARTED.to_owned());
        entry
    }

    fn held(store: &RunStore, id: u64) -> bool {
        matches!(store.get(id), Some(Run::Held(_)))
    }

    /// Several budgets' worth of runs, sizes and event logs mixed: after
    /// every finish the accounted bytes are the test's own sum over the
    /// runs still held, and never over budget.
    #[test]
    fn accounted_bytes_are_the_retained_payload_lengths_and_stay_in_budget() {
        let store = RunStore::new();
        let mut sizes = Vec::new(); // by id - 1: bytes the test handed in
        for i in 0..40usize {
            let events = i % 3 == 0;
            let bytes = PAYLOAD_BUDGET_BYTES / (3 + i % 5);
            let entry = submit(&store, events);
            store.finish(&entry, Ok(payload(bytes, events)));
            sizes.push(STARTED.len() + bytes);

            let stats = store.stats();
            let retained: Vec<u64> = (1..=sizes.len() as u64)
                .filter(|&id| held(&store, id))
                .collect();
            let expected: usize = retained.iter().map(|&id| sizes[id as usize - 1]).sum();
            assert_eq!(stats.payload_bytes, expected as u64, "after run {}", i + 1);
            assert_eq!(stats.runs_retained, retained.len() as u64);
            assert_eq!(
                stats.runs_evicted,
                (sizes.len() - retained.len()) as u64,
                "every run is either retained or evicted"
            );
            assert!(stats.payload_bytes <= PAYLOAD_BUDGET_BYTES as u64);
            assert!(
                held(&store, i as u64 + 1),
                "the newest run fits, so it stays"
            );
        }
        let total: usize = sizes.iter().sum();
        assert!(
            total > 4 * PAYLOAD_BUDGET_BYTES,
            "several budgets' worth went through"
        );
    }

    /// Eviction follows finish order, not submission order, and never
    /// reaches a run that has not finished.
    #[test]
    fn eviction_is_oldest_finished_first_and_spares_unfinished_runs() {
        let store = RunStore::new();
        let queued = store
            .submit("fig2", ScaleLevel::Quick, 1, false)
            .expect("room");
        let running = submit(&store, false);
        // Three of these fill the budget to within three bytes.
        let third = || payload(PAYLOAD_BUDGET_BYTES / 3 - STARTED.len(), false);
        let (a, b, c) = (
            submit(&store, false),
            submit(&store, false),
            submit(&store, false),
        );
        // Finish order c, a, b — then one more to overflow.
        for entry in [&c, &a, &b] {
            store.finish(entry, Ok(third()));
        }
        assert_eq!(store.stats().runs_evicted, 0, "three thirds fit");
        let d = submit(&store, false);
        store.finish(&d, Ok(third()));
        assert!(
            !held(&store, c.record.id),
            "c finished first, so it goes first"
        );
        assert!(held(&store, a.record.id) && held(&store, b.record.id));
        let e = submit(&store, false);
        store.finish(&e, Ok(third()));
        assert!(!held(&store, a.record.id) && held(&store, b.record.id));

        // Many budgets later the unfinished runs are still held.
        for _ in 0..12 {
            let entry = submit(&store, false);
            store.finish(&entry, Ok(payload(PAYLOAD_BUDGET_BYTES / 2, false)));
        }
        assert!(held(&store, queued.record.id) && held(&store, running.record.id));
        let status = store
            .get(queued.record.id)
            .expect("remembered")
            .status_json();
        assert_eq!(status["status"].as_str(), Some("queued"));
        assert_eq!(status["retained"].as_bool(), Some(true));
        let evicted = store.get(c.record.id).expect("remembered").status_json();
        assert_eq!(evicted["status"].as_str(), Some("done"));
        assert_eq!(evicted["retained"].as_bool(), Some(false));
        assert_eq!(evicted["events"].as_u64(), Some(2), "started + finished");
    }

    /// A payload over the whole budget is evicted the moment it lands —
    /// the store holds nothing — yet the handle the submitter's
    /// connection took before still reads every byte.
    #[test]
    fn an_oversized_payload_still_reaches_whoever_holds_the_entry() {
        let store = RunStore::new();
        let small = submit(&store, false);
        store.finish(&small, Ok(payload(1024, false)));
        let big = submit(&store, true);
        let Some(Run::Held(follower)) = store.get(big.record.id) else {
            panic!("a running run is held");
        };
        store.finish(&big, Ok(payload(PAYLOAD_BUDGET_BYTES + 1, true)));

        let stats = store.stats();
        assert_eq!((stats.runs_retained, stats.payload_bytes), (0, 0));
        assert_eq!(stats.runs_evicted, 2);
        assert!(!held(&store, big.record.id));

        let (lines, finished) = follower.lines_after(0, Duration::ZERO);
        assert!(finished);
        assert_eq!(lines.len(), 2);
        let envelope = follower.part(Part::Envelope).expect("done");
        let events = follower.part(Part::Events).expect("recorded");
        let served = lines.iter().map(|l| l.len()).sum::<usize>() + envelope.len() + events.len();
        assert_eq!(served, STARTED.len() + PAYLOAD_BUDGET_BYTES + 1);
    }

    /// A failed run keeps its lines as payload and its error after
    /// eviction.
    #[test]
    fn a_failed_run_is_accounted_and_keeps_its_error_when_evicted() {
        let store = RunStore::new();
        let failed = submit(&store, false);
        store.finish(&failed, Err("fleet exhausted".into()));
        assert_eq!(store.stats().payload_bytes, STARTED.len() as u64);
        assert_eq!(
            failed.part(Part::Envelope),
            Err((500, "fleet exhausted".to_owned()))
        );
        let big = submit(&store, false);
        store.finish(&big, Ok(payload(PAYLOAD_BUDGET_BYTES, false)));
        let Some(Run::Evicted(evicted)) = store.get(failed.record.id) else {
            panic!("the failed run was oldest");
        };
        assert_eq!(evicted.error.as_deref(), Some("fleet exhausted"));
        let status = Run::Evicted(evicted).status_json();
        assert_eq!(status["status"].as_str(), Some("failed"));
        assert_eq!(status["error"].as_str(), Some("fleet exhausted"));
    }

    /// Ids count up forever; the window forgets the oldest finished run
    /// (and its bytes) to admit a new one, and refuses instead of
    /// forgetting a run that has not finished.
    #[test]
    fn the_window_is_bounded_and_never_forgets_an_unfinished_run() {
        let store = RunStore::new();
        let first = submit(&store, false);
        for _ in 1..IDENTITY_WINDOW {
            let entry = submit(&store, false);
            store.finish(&entry, Ok(payload(64, false)));
        }
        assert_eq!(store.window().len(), IDENTITY_WINDOW);
        assert!(
            store.submit("fig2", ScaleLevel::Quick, 1, false).is_none(),
            "the oldest run is still running"
        );
        assert!(held(&store, 1));

        store.finish(&first, Ok(payload(64, false)));
        let before = store.stats();
        for n in 1..=10u64 {
            let entry = submit(&store, false);
            assert_eq!(entry.record.id, IDENTITY_WINDOW as u64 + n);
            assert_eq!(store.window().len(), IDENTITY_WINDOW);
            assert!(store.get(n).is_none(), "run {n} is forgotten");
            assert!(store.get(n + 1).is_some());
        }
        let after = store.stats();
        assert_eq!(after.runs_retained, before.runs_retained - 10);
        assert_eq!(
            after.payload_bytes,
            before.payload_bytes - 10 * (STARTED.len() as u64 + 64)
        );
        assert_eq!(
            after.runs_evicted, 0,
            "forgetting is not eviction: nothing is left to re-serve"
        );
        assert!(store.get(0).is_none() && store.get(u64::MAX).is_none());
    }
}
