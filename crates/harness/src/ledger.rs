//! The run ledger: everything about one experiment run that decides a
//! byte — cache addressing, what replays, what a unit execution
//! captures and stores, what each completion reports, and how unit
//! outputs assemble into the envelope — in one place.
//!
//! A run has three moments. [`Ledger::open`] replays the merged entry
//! if it is cached, validates the unit DAG, probes the cache per unit
//! and prunes the dependency edges of hits. [`Ledger::record`] (and
//! [`Ledger::replay`], its cache-hit twin) takes one unit's output:
//! progress line, lifetime-registry absorb, observer event, the unit's
//! slot — in any order, from any thread. [`Ledger::close`] assembles the unit-order metrics block and
//! event log, runs [`Job::finish`], writes the merged entry and counts
//! the [`RunStats`]. [`execute_unit`] is the one way a missed unit
//! runs, wherever it runs.
//!
//! The scheduling loops — [`Runner::run`](crate::Runner::run) on the
//! thread pool, `lh-coord`'s `Coordinator::run` over a worker fleet
//! with `worker::run_assignment` at the far end — are the only
//! callers. They decide *where* a missed unit executes; nothing they do
//! can change what a run returns or stores. A new rail (another
//! observability channel, another cache-entry field) is wired in
//! [`execute_unit`], [`Ledger::record`] and [`Ledger::close`], and
//! nowhere else.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::cache::{CacheKey, DiskCache};
use crate::job::{Job, JobContext};
use crate::json::Json;
use crate::metrics::{
    metrics_block, metrics_from_json, metrics_to_json, unwrap_entry_events, wrap_entry_events,
};
use crate::pool;
use crate::progress::{note, Progress, UnitOutcome};
use crate::seed::derive_seed;

/// Unit fingerprint of a job's merged (post-`finish`) result. Includes
/// the unit list digest so a changed decomposition invalidates the
/// merged entry even at an unchanged job version.
pub fn merged_fingerprint(units: &[String]) -> String {
    let mut h = crate::hash::Hasher::new();
    for u in units {
        h.field(u);
    }
    format!("merged:{}", h.digest())
}

/// The cache key of one unit (or, with [`merged_fingerprint`] as the
/// unit, of the merged result) of `job` under `ctx` — the single source
/// of truth for cache addressing.
///
/// A recording run's entries carry a flight-event log, so they live
/// under a distinct fingerprint that names the ring capacity
/// (`ctx.flight`): a plain run never replays (or misses on) a recording
/// run's entries, a recording run never replays another capacity's
/// truncated logs, and vice versa.
pub fn unit_key(job: &dyn Job, unit: &str, ctx: &JobContext) -> CacheKey {
    let fingerprint = match ctx.flight {
        Some(cap) => format!("{}+events:{cap}", job.fingerprint()),
        None => job.fingerprint(),
    };
    CacheKey {
        experiment: job.id().to_owned(),
        unit: unit.to_owned(),
        scale: ctx.scale.as_str().to_owned(),
        seed: ctx.seed,
        job_version: job.version(),
        fingerprint,
    }
}

/// Probes the cache for every unit up front and prunes the dependency
/// edges of hits: a replayed unit consumes no inputs, so on a partially
/// warm cache it neither waits for its dependencies nor re-consumes
/// their outputs. Returns `(hits, effective deps)`, hits as stored.
fn probe_unit_cache(
    job: &dyn Job,
    units: &[String],
    deps: Vec<Vec<usize>>,
    cache: Option<&DiskCache>,
    ctx: &JobContext,
) -> (Vec<Option<Json>>, Vec<Vec<usize>>) {
    let hits: Vec<Option<Json>> = units
        .iter()
        .map(|unit| cache.and_then(|c| c.get(&unit_key(job, unit, ctx))))
        .collect();
    let eff_deps = deps
        .into_iter()
        .zip(&hits)
        .map(|(d, hit)| if hit.is_some() { Vec::new() } else { d })
        .collect();
    (hits, eff_deps)
}

/// One completed unit, reported to a [`UnitObserver`] the moment it
/// finishes — from a worker thread, in completion (not unit) order.
#[derive(Debug, Clone)]
pub struct UnitEvent {
    /// Experiment id.
    pub experiment: &'static str,
    /// The unit's label.
    pub unit: String,
    /// The unit's index within the job.
    pub index: usize,
    /// Whether the result was replayed from the cache.
    pub cached: bool,
    /// Wall-clock milliseconds spent executing (0 for cache hits).
    pub wall_ms: u128,
    /// Deterministic counters recorded while the unit ran (replayed
    /// from the cache entry for hits), as a sorted-key JSON object.
    pub metrics: Json,
    /// The unit's JSON result.
    pub result: Json,
}

/// Callback invoked as each unit completes. Called concurrently from
/// worker threads; implementations serialize their own output.
pub type UnitObserver = Arc<dyn Fn(&UnitEvent) + Send + Sync>;

/// Statistics of one experiment run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Units the job decomposed into.
    pub units_total: usize,
    /// Units served from the cache.
    pub units_cached: usize,
    /// Units executed in this run.
    pub units_executed: usize,
    /// Whether the merged result was served from the cache (in which
    /// case no units were even enumerated for execution).
    pub merged_cached: bool,
    /// Wall-clock milliseconds for the whole experiment.
    pub wall_ms: u128,
}

/// One experiment's merged result plus run statistics.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Experiment id.
    pub id: &'static str,
    /// The merged (post-`finish`) result.
    pub merged: Json,
    /// The deterministic metrics block
    /// (`{"units": {label: counters}, "totals": counters}`, see
    /// [`metrics_block`]): per-unit counters in unit order plus their
    /// counter-wise sum. Byte-stable across `--jobs`, cache states and
    /// worker counts, unlike [`RunStats`].
    pub metrics: Json,
    /// The assembled flight-event log (`Some` only when `ctx.flight`
    /// asked for one): one experiment header line, then each unit's
    /// rendered log in unit order. Byte-identical across `--jobs`, worker
    /// counts and cache replay, like `metrics`.
    pub events: Option<String>,
    /// What it took.
    pub stats: RunStats,
}

/// What executing one unit produced: the payload of a unit cache entry
/// and of the coord protocol's `done` message.
#[derive(Debug, Clone)]
pub struct UnitOutput {
    /// The unit's JSON result.
    pub result: Json,
    /// Deterministic counters recorded while the unit ran.
    pub metrics: Json,
    /// The unit's rendered flight-event log, when the run records one.
    pub events: Option<String>,
    /// Wall-clock milliseconds the execution took.
    pub wall_ms: u128,
}

/// Executes unit `index` (labelled `label`) of `job` on this thread:
/// a `unit.run` span around a flight capture (when `ctx.flight` asks
/// for one) around a metric scope around [`Job::run_unit`] with the
/// unit's derived seed and `deps`, then — with a `cache` — the unit
/// entry written under [`unit_key`]. Cache write failures are reported
/// on stderr, not fatal; a panicking unit unwinds through here
/// untouched.
pub fn execute_unit(
    job: &dyn Job,
    ctx: &JobContext,
    index: usize,
    label: &str,
    deps: &[Json],
    cache: Option<&DiskCache>,
) -> UnitOutput {
    let started = Instant::now();
    let _span = lh_obs::Span::enter("unit.run", "harness");
    let run = || {
        lh_obs::record(|| job.run_unit(index, derive_seed(job.id(), index, ctx.seed), deps, ctx))
    };
    let ((result, recorded), log) = match ctx.flight {
        Some(cap) => {
            let (out, flight) = lh_obs::flight::capture_capped(cap, run);
            (out, Some(flight.render(label, index)))
        }
        None => (run(), None),
    };
    let metrics = metrics_to_json(&recorded);
    if let Some(c) = cache {
        let entry = wrap_entry_events(metrics.clone(), result.clone(), log.clone());
        if let Err(e) = c.put(&unit_key(job, label, ctx), &entry) {
            note(format_args!(
                "warning: cache write failed for {}/{label}: {e}",
                job.id()
            ));
        }
    }
    UnitOutput {
        result,
        metrics,
        events: log,
        wall_ms: started.elapsed().as_millis(),
    }
}

/// The finished run stored under `key`, the merged entry of `job`'s
/// `units_total` units, if `cache` holds it — the only decoder of a
/// merged entry. `started` is when the caller began, for the wall time.
fn replay_entry(
    job: &dyn Job,
    key: &CacheKey,
    units_total: usize,
    cache: &DiskCache,
    started: Instant,
) -> Option<ExperimentRun> {
    let (metrics, merged, events) = unwrap_entry_events(cache.get(key)?);
    Some(ExperimentRun {
        id: job.id(),
        merged,
        metrics,
        events,
        stats: RunStats {
            units_total,
            units_cached: units_total,
            units_executed: 0,
            merged_cached: true,
            wall_ms: started.elapsed().as_millis(),
        },
    })
}

/// Replays the whole run of `job` under `ctx` from its merged entry in
/// `cache`, or `None` if the entry is not there: what [`Ledger::open`]
/// returns as [`Opened::Cached`], for a caller that only wants a
/// finished run back (`lh-serve` re-serving an envelope it no longer
/// holds) and must not execute anything. `ctx.flight` picks the entry
/// family, as in [`unit_key`].
pub fn replay_merged(job: &dyn Job, ctx: &JobContext, cache: &DiskCache) -> Option<ExperimentRun> {
    let started = Instant::now();
    let units = job.units(ctx);
    let key = unit_key(job, &merged_fingerprint(&units), ctx);
    replay_entry(job, &key, units.len(), cache, started)
}

/// What [`Ledger::open`] found.
#[derive(Debug)]
pub enum Opened<'a> {
    /// The merged entry was cached: the run is already complete.
    Cached(ExperimentRun),
    /// Units remain to be replayed or executed.
    Live(Ledger<'a>),
}

/// The bookkeeping of one live experiment run; see the module docs.
pub struct Ledger<'a> {
    job: &'a dyn Job,
    ctx: &'a JobContext,
    cache: Option<DiskCache>,
    observer: Option<UnitObserver>,
    units: Vec<String>,
    /// Dependency edges with those of cache hits pruned.
    deps: Vec<Vec<usize>>,
    merged_key: CacheKey,
    /// Stored entries of the units the cache covers, until replayed.
    hits: Vec<Mutex<Option<Json>>>,
    units_cached: usize,
    /// Completed units' outputs, by unit index.
    slots: Vec<OnceLock<UnitOutput>>,
    progress: Progress,
    started: Instant,
}

impl std::fmt::Debug for Ledger<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ledger")
            .field("job", &self.job.id())
            .field("units", &self.units.len())
            .field("units_cached", &self.units_cached)
            .field("flight", &self.ctx.flight)
            .finish()
    }
}

impl<'a> Ledger<'a> {
    /// Opens the run of `job` under `ctx`: a cached merged entry is the
    /// whole run; otherwise the unit DAG is validated and the cache
    /// probed per unit — all under `ctx`, flight request included.
    /// `cache`, `progress` and `observer` are the executor's options of
    /// the same names.
    ///
    /// # Errors
    ///
    /// Fails before anything executes if the job's dependency edges do
    /// not form a DAG (a cycle, an out-of-range or a self dependency).
    pub fn open(
        job: &'a dyn Job,
        ctx: &'a JobContext,
        cache: Option<&DiskCache>,
        progress: bool,
        observer: Option<&UnitObserver>,
    ) -> Result<Opened<'a>, String> {
        let started = Instant::now();
        let units = job.units(ctx);
        let n = units.len();
        let merged_key = unit_key(job, &merged_fingerprint(&units), ctx);
        if let Some(run) = cache.and_then(|c| replay_entry(job, &merged_key, n, c, started)) {
            if progress {
                note(format_args!(
                    "{}: merged result cached, nothing to do",
                    job.id()
                ));
            }
            return Ok(Opened::Cached(run));
        }

        let deps: Vec<Vec<usize>> = (0..n).map(|i| job.deps(i, ctx)).collect();
        pool::validate_dag(&deps).map_err(|e| format!("{}: invalid unit DAG: {e}", job.id()))?;
        let (hits, deps) = probe_unit_cache(job, &units, deps, cache, ctx);
        Ok(Opened::Live(Ledger {
            job,
            ctx,
            cache: cache.cloned(),
            observer: observer.cloned(),
            deps,
            merged_key,
            units_cached: hits.iter().flatten().count(),
            hits: hits.into_iter().map(Mutex::new).collect(),
            slots: (0..n).map(|_| OnceLock::new()).collect(),
            progress: Progress::new(job.id(), n, progress),
            units,
            started,
        }))
    }

    /// Unit labels, in unit order.
    pub fn units(&self) -> &[String] {
        &self.units
    }

    /// The edges to schedule by: the job's dependency DAG with the
    /// edges of cache hits pruned (pruning cannot introduce a cycle).
    pub fn deps(&self) -> &[Vec<usize>] {
        &self.deps
    }

    /// Units no cache entry covers — the ones that must execute.
    pub fn units_missed(&self) -> usize {
        self.units.len() - self.units_cached
    }

    /// Clones of the results `unit` consumes, in declaration order.
    ///
    /// # Panics
    ///
    /// If a dependency has not completed — schedule by [`Ledger::deps`].
    pub fn dep_results(&self, unit: usize) -> Vec<Json> {
        self.deps[unit]
            .iter()
            .map(|&d| {
                let done = self.slots[d].get().expect("dependency done before use");
                done.result.clone()
            })
            .collect()
    }

    /// Completes `unit` from its cache entry, if the probe found one.
    /// Returns whether it did; `false` means the unit must execute.
    pub fn replay(&self, unit: usize) -> bool {
        let hit = self.hits[unit].lock().expect("hit slot poisoned").take();
        let Some(entry) = hit else { return false };
        let (metrics, result, events) = unwrap_entry_events(entry);
        let output = UnitOutput {
            result,
            metrics,
            events,
            wall_ms: 0,
        };
        self.settle(unit, output, true);
        true
    }

    /// Executes `unit` on the calling thread and records it.
    pub fn execute(&self, unit: usize) {
        let output = execute_unit(
            self.job,
            self.ctx,
            unit,
            &self.units[unit],
            &self.dep_results(unit),
            self.cache.as_ref(),
        );
        self.record(unit, output);
    }

    /// Records the output of a unit that executed — here or on a
    /// worker. Callable in any order, from any thread, once per unit.
    pub fn record(&self, unit: usize, output: UnitOutput) {
        self.settle(unit, output, false);
    }

    fn settle(&self, unit: usize, output: UnitOutput, cached: bool) {
        let label = &self.units[unit];
        self.progress.unit_done(
            label,
            if cached {
                UnitOutcome::Cached
            } else {
                UnitOutcome::Ran(output.wall_ms)
            },
        );
        // Lifetime accounting: the process-global registry sums every
        // completed unit's counters (cached or fresh) for dashboards;
        // the deterministic channel never reads it.
        lh_obs::Registry::global().absorb(&metrics_from_json(&output.metrics));
        if let Some(observe) = &self.observer {
            observe(&UnitEvent {
                experiment: self.job.id(),
                unit: label.clone(),
                index: unit,
                cached,
                wall_ms: output.wall_ms,
                metrics: output.metrics.clone(),
                result: output.result.clone(),
            });
        }
        let fresh = self.slots[unit].set(output).is_ok();
        assert!(fresh, "unit {unit} recorded twice");
    }

    /// Closes the run once every unit is recorded: metrics block and
    /// event log in unit order — the same bytes whichever units ran,
    /// replayed, or where and when they completed — then `finish`, the
    /// merged-entry write (failure is a warning) and the statistics.
    ///
    /// # Panics
    ///
    /// If a unit was never recorded.
    pub fn close(self) -> ExperimentRun {
        let n = self.units.len();
        let mut results = Vec::with_capacity(n);
        let mut per_unit = Vec::with_capacity(n);
        let mut events = self.ctx.flight.is_some().then(|| {
            lh_obs::flight::experiment_header(
                self.job.id(),
                self.ctx.scale.as_str(),
                self.ctx.seed,
                n,
            )
        });
        for slot in self.slots {
            let output = slot.into_inner().expect("every unit recorded before close");
            results.push(output.result);
            per_unit.push(output.metrics);
            if let (Some(blob), Some(e)) = (&mut events, &output.events) {
                blob.push_str(e);
            }
        }
        let metrics = metrics_block(&self.units, &per_unit);
        let merged = self.job.finish(results, self.ctx);
        if let Some(c) = &self.cache {
            let entry = wrap_entry_events(metrics.clone(), merged.clone(), events.clone());
            if let Err(e) = c.put(&self.merged_key, &entry) {
                note(format_args!(
                    "warning: cache write failed for {} merge: {e}",
                    self.job.id()
                ));
            }
        }
        let units_executed = n - self.units_cached;
        self.progress.finished(self.units_cached, units_executed);
        ExperimentRun {
            id: self.job.id(),
            merged,
            metrics,
            events,
            stats: RunStats {
                units_total: n,
                units_cached: self.units_cached,
                units_executed,
                merged_cached: false,
                wall_ms: self.started.elapsed().as_millis(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ScaleLevel;
    use std::sync::Barrier;

    const UNITS: usize = 12;

    struct Flat;

    impl Job for Flat {
        fn id(&self) -> &'static str {
            "flat"
        }
        fn description(&self) -> &'static str {
            "ledger test job"
        }
        fn units(&self, _ctx: &JobContext) -> Vec<String> {
            (0..UNITS).map(|i| format!("unit:{i}")).collect()
        }
        fn run_unit(&self, _unit: usize, _seed: u64, _deps: &[Json], _ctx: &JobContext) -> Json {
            unreachable!("outputs are recorded, not executed")
        }
        fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
            Json::object().with("points", Json::Array(units))
        }
        fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
            merged.to_compact()
        }
    }

    /// A context whose run records flight events.
    fn recording(seed: u64) -> JobContext {
        JobContext {
            flight: Some(lh_obs::flight::DEFAULT_CAP),
            ..JobContext::new(ScaleLevel::Quick, seed)
        }
    }

    fn output(unit: usize) -> UnitOutput {
        UnitOutput {
            result: Json::object().with("v", unit * 7),
            metrics: Json::object().with("test.count", unit + 1),
            events: Some(format!("{{\"kind\":\"unit\",\"index\":{unit}}}\n")),
            wall_ms: unit as u128,
        }
    }

    fn open_with<'a>(ctx: &'a JobContext, cache: Option<&DiskCache>) -> Ledger<'a> {
        match Ledger::open(&Flat, ctx, cache, false, None).unwrap() {
            Opened::Live(ledger) => ledger,
            Opened::Cached(_) => unreachable!("nothing is cached yet"),
        }
    }

    fn open<'a>(ctx: &'a JobContext) -> Ledger<'a> {
        open_with(ctx, None)
    }

    /// `replay_merged` hands back what `close` stored — result, metrics
    /// block and event log — and `open` replays through the same
    /// decoder; another entry family (no events, another ring capacity)
    /// or an empty cache is `None`.
    #[test]
    fn replay_merged_returns_the_closed_run_or_nothing() {
        let ctx = recording(7);
        let cache = DiskCache::new(
            std::env::temp_dir().join(format!("lh-harness-ledger-test-{}", std::process::id())),
        );
        cache.clear().unwrap();
        assert!(replay_merged(&Flat, &ctx, &cache).is_none());

        let ledger = open_with(&ctx, Some(&cache));
        for unit in 0..UNITS {
            ledger.record(unit, output(unit));
        }
        let closed = ledger.close();

        let replayed = replay_merged(&Flat, &ctx, &cache).expect("close stored the entry");
        assert_eq!(replayed.merged.to_compact(), closed.merged.to_compact());
        assert_eq!(replayed.metrics.to_compact(), closed.metrics.to_compact());
        assert_eq!(replayed.events, closed.events);
        assert!(replayed.stats.merged_cached);
        assert_eq!(replayed.stats.units_cached, UNITS);
        match Ledger::open(&Flat, &ctx, Some(&cache), false, None).unwrap() {
            Opened::Cached(run) => {
                assert_eq!(run.merged.to_compact(), replayed.merged.to_compact());
                assert_eq!(run.events, replayed.events);
            }
            Opened::Live(_) => panic!("the merged entry must replay"),
        }
        let plain = JobContext::new(ScaleLevel::Quick, 7);
        assert!(
            replay_merged(&Flat, &plain, &cache).is_none(),
            "event-less runs live under another key"
        );
        let capped = JobContext {
            flight: Some(10),
            ..recording(7)
        };
        assert!(
            replay_merged(&Flat, &capped, &cache).is_none(),
            "another ring capacity lives under another key"
        );
        cache.clear().unwrap();
    }

    /// `record` in scrambled order from several threads, then `close`,
    /// returns the bytes of in-order single-threaded use.
    #[test]
    fn record_order_and_thread_never_reach_the_bytes() {
        let ctx = recording(7);
        let in_order = open(&ctx);
        for unit in 0..UNITS {
            in_order.record(unit, output(unit));
        }
        let reference = in_order.close();

        const THREADS: usize = 4;
        let scrambled = open(&ctx);
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (scrambled, start) = (&scrambled, &start);
                scope.spawn(move || {
                    start.wait();
                    // Thread t takes units ≡ t (mod THREADS), highest
                    // first, so nothing arrives in unit order.
                    for unit in (0..UNITS).rev().filter(|u| u % THREADS == t) {
                        scrambled.record(unit, output(unit));
                    }
                });
            }
        });
        let run = scrambled.close();

        assert_eq!(run.merged.to_compact(), reference.merged.to_compact());
        assert_eq!(run.metrics.to_compact(), reference.metrics.to_compact());
        assert_eq!(run.events, reference.events);
        let log = run.events.expect("the context records");
        assert_eq!(log.lines().count(), 1 + UNITS, "header + one line per unit");
        assert_eq!(
            run.metrics["totals"]["test.count"].as_u64(),
            Some((1..=UNITS as u64).sum())
        );
        assert_eq!(run.stats.units_executed, UNITS);
    }
}
