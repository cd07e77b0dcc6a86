//! The run store: every submission's identity, and the payloads of the
//! finished ones under one fixed byte budget.
//!
//! A run's *payload* is what a finished run leaves behind — its NDJSON
//! stream lines, its envelope and, for a recording run, its flight-event
//! log — each held as `Arc<str>`, so a handler answering from it takes
//! a refcount under the entry lock and writes to its socket outside
//! every lock.
//!
//! Runs are deterministic, so resubmitting a run returns the bytes it
//! returned before. The store keeps one copy of each distinct finished
//! *document* — the pretty envelope, the compact envelope that ends the
//! `finished` line ([`Line::Finished`]), the events log — per record
//! identity `(experiment, scale, seed, events)`: a finishing run whose
//! document is byte-equal to one a retained run of the same identity
//! holds takes a refcount on that one, and drops its own. Equality is a
//! byte compare, never assumed; unequal bytes are a document of their
//! own.
//!
//! The store counts the bytes it holds exactly: every retained run's own
//! lines, plus each distinct document once — charged when its first
//! holder finishes, refunded when its last holder is evicted or
//! forgotten. It keeps the sum at or under [`PAYLOAD_BUDGET_BYTES`] by
//! *evicting* the oldest-finished run first: its slot in the table swaps
//! the [`RunEntry`] for a small [`EvictedRun`] record. Nothing is torn
//! out of an entry — a stream follower (or the submitter) that already
//! holds the `Arc<RunEntry>` keeps reading it, and the payload is freed
//! when the last such holder lets go. Queued and running runs carry no
//! accounted bytes and are never evicted.
//!
//! The table itself is a window of the [`IDENTITY_WINDOW`] most recent
//! submissions with contiguous ids from a monotonic counter, so lookup
//! by id is an index. When it is full its oldest record is dropped to
//! admit a submission — unless that record is of a run that has not
//! finished, in which case the submission is refused.
//!
//! Lock order: store, then entry. Nothing takes the store lock while
//! holding an entry's.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use lh_harness::json::Json;
use lh_harness::sink::FINISHED_TAIL;
use lh_harness::{JobContext, ScaleLevel};

/// Bytes of finished-run payload the store retains at most: about
/// thirty distinct chansweep-sized quick runs, or a thousand distinct
/// fig2-sized ones. A repeat of a retained run costs only its own
/// stream lines — about 2 KB for fig2.
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
    pub(crate) experiment: String,
    pub(crate) scale: ScaleLevel,
    pub(crate) seed: u64,
    /// Whether the submission asked for flight-event recording.
    pub(crate) events: bool,
}

impl RunRecord {
    /// The context the run executes, and is re-served, under: a
    /// recording submission records into rings of the default capacity.
    /// Runs share nothing else, so any number may execute at once.
    pub(crate) fn context(&self) -> JobContext {
        JobContext {
            flight: self.events.then_some(lh_obs::flight::DEFAULT_CAP),
            ..JobContext::new(self.scale, self.seed)
        }
    }
}

/// The two finished documents a run serves over HTTP.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Part {
    /// The envelope: the exact bytes `--format json` prints.
    Envelope,
    /// The flight-event log: the exact bytes `--events-out` writes.
    Events,
}

/// What a successful run hands the store: the parts of its `finished`
/// line ([`lh_harness::sink::stream_finished_parts`]) and its documents.
#[derive(Debug)]
pub(crate) struct Finished {
    /// The `finished` line's head, through `"envelope":`.
    pub(crate) head: String,
    /// The compact envelope the `finished` line carries.
    pub(crate) compact: String,
    /// The pretty-printed envelope plus trailing newline.
    pub(crate) envelope: String,
    /// The flight-event log of a recording run.
    pub(crate) events: Option<String>,
}

/// One NDJSON stream line as the store holds it.
#[derive(Debug, Clone)]
pub(crate) enum Line {
    /// A `started` or `unit` line, whole.
    Whole(Arc<str>),
    /// The `finished` line: the run's own head, the compact envelope it
    /// may share with identical runs, then [`FINISHED_TAIL`].
    Finished { head: Arc<str>, envelope: Arc<str> },
}

impl Line {
    /// The line's bytes, in order.
    pub(crate) fn parts(&self) -> [&[u8]; 3] {
        match self {
            Line::Whole(line) => [line.as_bytes(), b"", b""],
            Line::Finished { head, envelope } => [
                head.as_bytes(),
                envelope.as_bytes(),
                FINISHED_TAIL.as_bytes(),
            ],
        }
    }

    /// The bytes the line's run is charged for: all but a shared
    /// envelope.
    fn own_bytes(&self) -> usize {
        match self {
            Line::Whole(line) => line.len(),
            Line::Finished { head, .. } => head.len() + FINISHED_TAIL.len(),
        }
    }
}

#[derive(Debug)]
struct RunInner {
    phase: RunPhase,
    /// NDJSON event lines (`started`/`unit`/`finished`) in emission
    /// order; stream followers tail this.
    lines: Vec<Line>,
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
    pub(crate) fn push_line(&self, line: String) {
        let line = Line::Whole(line.into()); // copied before the lock is taken
        self.lock().lines.push(line);
        self.cond.notify_all();
    }

    /// Marks the run as picked up by the executor.
    pub(crate) fn set_running(&self) {
        self.lock().phase = RunPhase::Running;
        self.cond.notify_all();
    }

    /// The finished `part`, by refcount; or the status and message to
    /// answer with while there is none (`409` unfinished, `500` failed).
    pub(crate) fn part(&self, part: Part) -> Result<Arc<str>, (u16, String)> {
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
    pub(crate) fn lines_after(&self, sent: usize, patience: Duration) -> (Vec<Line>, bool) {
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
    pub(crate) error: Option<String>,
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
    pub(crate) fn record(&self) -> &RunRecord {
        match self {
            Run::Held(entry) => &entry.record,
            Run::Evicted(evicted) => &evicted.record,
        }
    }

    /// The run's status document. `retained` tells a client whether
    /// `/stream` (and, without a disk cache, `/envelope`) will answer.
    pub(crate) fn status_json(&self) -> Json {
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
    pub(crate) runs_retained: u64,
    /// Bytes of those payloads as held: each run's own stream lines,
    /// plus each distinct envelope, compact envelope and events log once.
    pub(crate) payload_bytes: u64,
    /// Finished runs whose payload was dropped, ever.
    pub(crate) runs_evicted: u64,
    /// Documents of evicted runs re-served from the disk cache, ever.
    pub(crate) envelopes_recovered: u64,
}

/// Which finished document of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Doc {
    Envelope,
    Compact,
    Events,
}

/// What a shared document is filed under: the identity of the runs that
/// hold it (their record less its id) and which document it is.
type DocKey = (String, ScaleLevel, u64, bool, Doc);

fn doc_key(record: &RunRecord, doc: Doc) -> DocKey {
    let RunRecord {
        experiment,
        scale,
        seed,
        events,
        ..
    } = record;
    (experiment.clone(), *scale, *seed, *events, doc)
}

/// A distinct document retained runs hold, and how many of them do.
#[derive(Debug)]
struct HeldDoc {
    bytes: Arc<str>,
    holders: usize,
}

/// What a retained finished run is charged for: its own stream lines,
/// and a share of each document it holds.
#[derive(Debug)]
struct Account {
    record: Arc<RunRecord>,
    /// Bytes of the run's own lines.
    own: usize,
    docs: Vec<(Doc, Arc<str>)>,
}

#[derive(Debug)]
struct StoreInner {
    /// The id the next submission gets; ids start at 1.
    next_id: u64,
    /// The most recent submissions; `window[i]` has id
    /// `next_id - window.len() + i`.
    window: VecDeque<Run>,
    /// The accounts of the retained finished runs, in the order they
    /// finished.
    finished: VecDeque<Account>,
    /// Every distinct document a retained run holds.
    docs: HashMap<DocKey, Vec<HeldDoc>>,
    /// The accounts' own bytes plus each document in `docs` once.
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

    /// `bytes` as `record`'s run holds it: the byte-equal document a
    /// retained run of the same identity holds, one holder more; or
    /// `bytes` itself, charged in full to its first holder.
    fn hold(&mut self, record: &RunRecord, doc: Doc, bytes: String) -> Arc<str> {
        let held = self.docs.entry(doc_key(record, doc)).or_default();
        if let Some(shared) = held.iter_mut().find(|held| *held.bytes == *bytes) {
            shared.holders += 1;
            return Arc::clone(&shared.bytes);
        }
        self.payload_bytes += bytes.len();
        let bytes = Arc::<str>::from(bytes);
        held.push(HeldDoc {
            bytes: Arc::clone(&bytes),
            holders: 1,
        });
        bytes
    }

    /// Refunds a run that leaves the store: its own bytes, and each
    /// document it was the last holder of.
    fn release(&mut self, account: Account) {
        self.payload_bytes -= account.own;
        for (doc, bytes) in account.docs {
            let key = doc_key(&account.record, doc);
            let held = self.docs.get_mut(&key).expect("a held document is filed");
            let at = held
                .iter()
                .position(|held| Arc::ptr_eq(&held.bytes, &bytes))
                .expect("a held document is filed");
            held[at].holders -= 1;
            if held[at].holders == 0 {
                self.payload_bytes -= bytes.len();
                held.swap_remove(at);
                if held.is_empty() {
                    self.docs.remove(&key);
                }
            }
        }
    }

    /// Swaps the oldest-finished retained run's entry for its record.
    fn evict_oldest(&mut self) {
        let Some(account) = self.finished.pop_front() else {
            return;
        };
        let id = account.record.id;
        self.release(account);
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
    pub(crate) fn new() -> RunStore {
        RunStore {
            inner: Mutex::new(StoreInner {
                next_id: 1,
                window: VecDeque::new(),
                finished: VecDeque::new(),
                docs: HashMap::new(),
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
    pub(crate) fn submit(
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
                if let Some(at) = store.finished.iter().position(|held| held.record.id == id) {
                    let account = store.finished.remove(at).expect("position is in range");
                    store.release(account);
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
    pub(crate) fn get(&self, id: u64) -> Option<Run> {
        self.lock().slot(id).cloned()
    }

    /// Every run the window remembers, oldest first.
    pub(crate) fn window(&self) -> Vec<Run> {
        self.lock().window.iter().cloned().collect()
    }

    /// Ends `entry`'s run: installs the payload (or the failure) —
    /// sharing each document a retained run of the same identity holds
    /// byte for byte — wakes the followers, accounts the bytes held and
    /// evicts oldest-finished runs until the budget holds — this one
    /// included if it alone is over budget; whoever holds `entry` still
    /// reads it.
    pub(crate) fn finish(&self, entry: &RunEntry, outcome: Result<Finished, String>) {
        let mut store = self.lock();
        let record = &entry.record;
        let mut docs = Vec::new();
        let mut inner = entry.lock();
        match outcome {
            Ok(finished) => {
                let mut hold = |doc, bytes| {
                    let held = store.hold(record, doc, bytes);
                    docs.push((doc, Arc::clone(&held)));
                    held
                };
                let compact = hold(Doc::Compact, finished.compact);
                inner.lines.push(Line::Finished {
                    head: finished.head.into(),
                    envelope: compact,
                });
                inner.envelope = Some(hold(Doc::Envelope, finished.envelope));
                inner.events = finished.events.map(|log| hold(Doc::Events, log));
                inner.phase = RunPhase::Done;
            }
            Err(error) => inner.phase = RunPhase::Failed(error),
        }
        let own = inner.lines.iter().map(Line::own_bytes).sum();
        drop(inner);
        entry.cond.notify_all();

        store.payload_bytes += own;
        store.finished.push_back(Account {
            record: Arc::clone(record),
            own,
            docs,
        });
        while store.payload_bytes > PAYLOAD_BUDGET_BYTES {
            store.evict_oldest();
        }
    }

    /// Counts one document of an evicted run re-served from disk.
    pub(crate) fn note_recovered(&self) {
        self.lock().recovered += 1;
    }

    pub(crate) fn stats(&self) -> StoreStats {
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
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    const STARTED: &str = "{\"event\":\"started\"}\n";

    /// A payload with a `finished` line of `head` bytes plus the tail,
    /// and documents of the given lengths, each `fill` repeated.
    fn documents(
        head: usize,
        compact: usize,
        envelope: usize,
        events: Option<usize>,
        fill: char,
    ) -> Finished {
        let doc = |len| fill.to_string().repeat(len);
        Finished {
            head: "h".repeat(head),
            compact: doc(compact),
            envelope: doc(envelope),
            events: events.map(doc),
        }
    }

    /// A payload of exactly `bytes` bytes beyond the `started` line,
    /// split over the finished line, the envelope and (if `events`) the
    /// events log.
    fn payload(bytes: usize, events: bool) -> Finished {
        let log = if events { bytes / 4 } else { 0 };
        let line = (bytes - log) / 3;
        let head = line / 2;
        let compact = line - head - FINISHED_TAIL.len();
        documents(
            head,
            compact,
            bytes - log - line,
            events.then_some(log),
            'x',
        )
    }

    /// Submits a run of its own identity: runs of distinct identities
    /// share nothing.
    fn submit(store: &RunStore, events: bool) -> Arc<RunEntry> {
        static SEED: AtomicU64 = AtomicU64::new(1 << 32);
        submit_as(store, SEED.fetch_add(1, Ordering::Relaxed), events)
    }

    fn submit_as(store: &RunStore, seed: u64, events: bool) -> Arc<RunEntry> {
        let entry = store
            .submit("fig2", ScaleLevel::Quick, seed, events)
            .expect("the window has room");
        entry.set_running();
        entry.push_line(STARTED.to_owned());
        entry
    }

    fn held(store: &RunStore, id: u64) -> bool {
        matches!(store.get(id), Some(Run::Held(_)))
    }

    fn line_len(line: &Line) -> usize {
        line.parts().iter().map(|part| part.len()).sum()
    }

    /// The compact envelope a finished run's last line carries.
    fn compact(entry: &RunEntry) -> Arc<str> {
        let (lines, _) = entry.lines_after(0, Duration::ZERO);
        match lines.last() {
            Some(Line::Finished { envelope, .. }) => Arc::clone(envelope),
            other => panic!("the last line is not a finished line: {other:?}"),
        }
    }

    /// Several budgets' worth of runs over a few identities, sizes,
    /// event logs and same-identity runs with other bytes: after every
    /// finish the accounted bytes are the test's own sum — each retained
    /// run's own lines, plus each distinct document once — and never
    /// over budget.
    #[test]
    fn accounted_bytes_are_own_lines_plus_each_distinct_document_once() {
        let store = RunStore::new();
        // By id - 1: the run's own bytes, and its documents as
        // (identity, document, fill) -> length.
        type Documents = Vec<((u64, bool, Doc, char), usize)>;
        let mut runs: Vec<(usize, Documents)> = Vec::new();
        let mut handed_in = 0;
        for i in 0..60usize {
            let (seed, events) = (i as u64 % 4, i % 3 == 0);
            let fill = if i % 7 == 0 { 'b' } else { 'a' };
            // Same identity and fill, same bytes.
            let size = PAYLOAD_BUDGET_BYTES / (12 + 2 * seed as usize + usize::from(fill == 'b'));
            let head = 100 + 13 * i;
            let log = events.then_some(size / 2);
            let entry = submit_as(&store, seed, events);
            store.finish(&entry, Ok(documents(head, size / 3, size, log, fill)));

            let mut docs = vec![
                ((seed, events, Doc::Compact, fill), size / 3),
                ((seed, events, Doc::Envelope, fill), size),
            ];
            docs.extend(log.map(|len| ((seed, events, Doc::Events, fill), len)));
            handed_in += docs.iter().map(|(_, len)| len).sum::<usize>();
            runs.push((STARTED.len() + head + FINISHED_TAIL.len(), docs));

            let stats = store.stats();
            let retained: Vec<usize> = (0..runs.len())
                .filter(|&at| held(&store, at as u64 + 1))
                .collect();
            let mut distinct = HashSet::new();
            let mut expected = 0;
            for &at in &retained {
                let (own, docs) = &runs[at];
                expected += own;
                for &(doc, len) in docs {
                    if distinct.insert(doc) {
                        expected += len;
                    }
                }
            }
            assert_eq!(stats.payload_bytes, expected as u64, "after run {}", i + 1);
            assert_eq!(stats.runs_retained, retained.len() as u64);
            assert_eq!(
                stats.runs_evicted,
                (runs.len() - retained.len()) as u64,
                "every run is either retained or evicted"
            );
            assert!(stats.payload_bytes <= PAYLOAD_BUDGET_BYTES as u64);
            assert!(
                held(&store, i as u64 + 1),
                "the newest run fits, so it stays"
            );
        }
        assert!(store.stats().runs_evicted > 0, "the budget turned over");
        assert!(
            handed_in > 4 * PAYLOAD_BUDGET_BYTES,
            "several budgets' worth went through"
        );
    }

    /// Runs of one identity and equal bytes hold one copy of each
    /// document; other bytes, or another identity, hold their own.
    #[test]
    fn identical_runs_share_their_documents_and_other_runs_do_not() {
        let store = RunStore::new();
        let finish = |seed, fill| {
            let entry = submit_as(&store, seed, true);
            store.finish(&entry, Ok(documents(40, 300, 900, Some(5000), fill)));
            entry
        };
        let a = finish(5, 'a');
        let b = finish(5, 'a');
        let other_bytes = finish(5, 'b');
        let other_seed = finish(6, 'a');

        let envelope = |entry: &RunEntry| entry.part(Part::Envelope).expect("done");
        let events = |entry: &RunEntry| entry.part(Part::Events).expect("recorded");
        assert!(Arc::ptr_eq(&envelope(&a), &envelope(&b)));
        assert!(Arc::ptr_eq(&events(&a), &events(&b)));
        assert!(Arc::ptr_eq(&compact(&a), &compact(&b)));
        for other in [&other_bytes, &other_seed] {
            assert!(!Arc::ptr_eq(&envelope(&a), &envelope(other)));
            assert!(!Arc::ptr_eq(&events(&a), &events(other)));
            assert!(!Arc::ptr_eq(&compact(&a), &compact(other)));
        }
        assert_eq!(
            *envelope(&a),
            *envelope(&other_seed),
            "equal bytes, another identity"
        );

        let (lines, _) = b.lines_after(0, Duration::ZERO);
        let line: Vec<u8> = lines[1].parts().concat();
        let expected = format!("{}{}{FINISHED_TAIL}", "h".repeat(40), "a".repeat(300));
        assert_eq!(line, expected.as_bytes());

        let own = STARTED.len() + 40 + FINISHED_TAIL.len();
        let docs = 300 + 900 + 5000;
        assert_eq!(store.stats().payload_bytes, (4 * own + 3 * docs) as u64);
    }

    /// A shared document stays charged while any holder is retained,
    /// and is refunded with its last.
    #[test]
    fn a_shared_document_is_refunded_when_its_last_holder_is_evicted() {
        let store = RunStore::new();
        let own = STARTED.len() + 40 + FINISHED_TAIL.len();
        let docs = 300 + 900 + 5000;
        for _ in 0..2 {
            let entry = submit_as(&store, 9, true);
            store.finish(&entry, Ok(documents(40, 300, 900, Some(5000), 'a')));
        }
        assert_eq!(store.stats().payload_bytes, (2 * own + docs) as u64);

        // Just over budget with both: the first holder goes.
        let first = PAYLOAD_BUDGET_BYTES - (2 * own + docs) + 1;
        let entry = submit(&store, false);
        store.finish(&entry, Ok(payload(first - STARTED.len(), false)));
        assert!(!held(&store, 1) && held(&store, 2));
        assert_eq!(
            store.stats().payload_bytes,
            (own + docs + first) as u64,
            "run 2 still holds the documents"
        );

        // Over again: the second holder goes, and the documents with it.
        let second = own;
        let entry = submit(&store, false);
        store.finish(&entry, Ok(payload(second - STARTED.len(), false)));
        assert!(!held(&store, 2));
        assert_eq!(store.stats().payload_bytes, (first + second) as u64);
        assert_eq!(store.stats().runs_evicted, 2);
    }

    /// Forgetting a retained run through the identity window releases
    /// its holds as eviction does.
    #[test]
    fn forgetting_a_run_releases_its_hold_on_shared_documents() {
        let store = RunStore::new();
        let own = STARTED.len() + 40 + FINISHED_TAIL.len();
        let docs = 300 + 900;
        for _ in 0..2 {
            let entry = submit_as(&store, 3, false);
            store.finish(&entry, Ok(documents(40, 300, 900, None, 'a')));
        }
        while store.window().len() < IDENTITY_WINDOW {
            submit(&store, false); // left running: no bytes
        }
        assert_eq!(store.stats().payload_bytes, (2 * own + docs) as u64);

        let _ = store
            .submit("fig2", ScaleLevel::Quick, 1, false)
            .expect("run 1 is done");
        assert!(store.get(1).is_none());
        assert_eq!(store.stats().payload_bytes, (own + docs) as u64);
        assert!(
            store.submit("fig2", ScaleLevel::Quick, 1, false).is_some(),
            "run 2 is done"
        );
        assert_eq!(store.stats().payload_bytes, 0);
        assert_eq!(store.stats().runs_evicted, 0, "forgetting is not eviction");
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
        let served = lines.iter().map(line_len).sum::<usize>() + envelope.len() + events.len();
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
