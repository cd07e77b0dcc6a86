//! The [`Job`] trait every experiment implements, and the [`Registry`]
//! the CLI runs from.

use crate::json::Json;

/// Experiment scale, mirroring the simulator's `Scale` without
/// depending on it (the harness sits below the experiment crates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScaleLevel {
    /// Seconds-scale smoke runs.
    Quick,
    /// Minutes-scale runs with the paper's qualitative shape.
    #[default]
    Default,
    /// The paper's full sample sizes.
    Paper,
}

impl ScaleLevel {
    /// Stable identifier used in cache keys and structured output.
    pub fn as_str(&self) -> &'static str {
        match self {
            ScaleLevel::Quick => "quick",
            ScaleLevel::Default => "default",
            ScaleLevel::Paper => "paper",
        }
    }
}

impl core::str::FromStr for ScaleLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<ScaleLevel, String> {
        match s {
            "quick" => Ok(ScaleLevel::Quick),
            "default" => Ok(ScaleLevel::Default),
            "paper" | "full" => Ok(ScaleLevel::Paper),
            other => Err(format!("unknown scale '{other}' (quick|default|paper)")),
        }
    }
}

/// Everything a job may condition its work on.
///
/// A unit's *results* must be a pure function of the context's scale,
/// its unit index, and its derived seed — that is what makes parallel
/// runs bit-identical to serial runs and cached results valid. The
/// [`Memo`](crate::Memo) carried alongside is pure acceleration: units
/// may share build-once intermediates through it, but an entry's value
/// must itself be a pure function of its key, so presence or absence of
/// a memo hit can never change a result.
#[derive(Debug, Clone)]
pub struct JobContext {
    /// Experiment scale.
    pub scale: ScaleLevel,
    /// Master seed; per-unit seeds are derived from it.
    pub seed: u64,
    /// Whether the run records flight events, and into rings of how
    /// many events per unit: `None` records nothing, `Some(cap)` gives
    /// every unit a capture scope of `cap` events. It never changes a
    /// result; it decides whether the run returns an event log, and it
    /// is part of cache addressing (see
    /// [`unit_key`](crate::ledger::unit_key)).
    pub flight: Option<usize>,
    /// Build-once intermediates shared across this run's units
    /// (process-local; never part of cache addressing).
    pub memo: crate::Memo,
}

impl JobContext {
    /// A context that records no flight events, with a fresh, empty
    /// memo.
    pub fn new(scale: ScaleLevel, seed: u64) -> JobContext {
        JobContext {
            scale,
            seed,
            flight: None,
            memo: crate::Memo::new(),
        }
    }
}

impl PartialEq for JobContext {
    /// Contexts compare by what decides a run's output — the memo is an
    /// accelerator, not an input.
    fn eq(&self, other: &JobContext) -> bool {
        self.scale == other.scale && self.seed == other.seed && self.flight == other.flight
    }
}

impl Eq for JobContext {}

/// One experiment, decomposed into a DAG of runnable units.
///
/// Implementations must be stateless (`Send + Sync`, no interior
/// mutability observable across units): the runner calls `run_unit`
/// concurrently from worker threads.
pub trait Job: Send + Sync {
    /// Stable experiment identifier (`fig4`, `table2`, ...).
    fn id(&self) -> &'static str;

    /// One-line description for `lh-experiments list`.
    fn description(&self) -> &'static str;

    /// Labels of the units this job splits into under `ctx`, in
    /// canonical order. The label doubles as the unit's configuration
    /// fingerprint for cache addressing, so it must encode every
    /// parameter that distinguishes the unit within the experiment.
    fn units(&self, ctx: &JobContext) -> Vec<String>;

    /// Indices of the units whose results `unit` consumes, in the order
    /// `run_unit` expects them. The default — no dependencies — keeps
    /// flat sweep jobs flat; jobs that share expensive intermediates
    /// (e.g. a per-mix baseline simulation feeding every per-cell unit)
    /// declare them here and the runner schedules units topologically.
    /// Dependency edges must form a DAG: the runner rejects cycles and
    /// out-of-range indices before executing anything.
    fn deps(&self, unit: usize, ctx: &JobContext) -> Vec<usize> {
        let _ = (unit, ctx);
        Vec::new()
    }

    /// Runs unit `unit` with its derived seed, returning a JSON result.
    ///
    /// `deps` holds the results of [`Job::deps`]`(unit)` in declaration
    /// order — each dependency's output is delivered exactly once per
    /// edge, whether the dependency was executed or replayed from the
    /// cache. Must not read mutable state shared with other units, and
    /// must use `seed` (not `ctx.seed` directly) for all randomness.
    fn run_unit(&self, unit: usize, seed: u64, deps: &[Json], ctx: &JobContext) -> Json;

    /// Merges unit results — given in unit order — into the final
    /// result. Runs serially; may be expensive (e.g. classifier
    /// training over collected traces) because the merged result is
    /// cached too.
    fn finish(&self, units: Vec<Json>, ctx: &JobContext) -> Json;

    /// Renders the merged result as the human-readable report.
    fn render_text(&self, merged: &Json, ctx: &JobContext) -> String;

    /// Result-schema version; bump when changing this job's unit
    /// decomposition or result layout to invalidate its cache entries.
    /// Invalidation is surgical: only this job's entries are affected,
    /// never the rest of the catalog.
    fn version(&self) -> u32 {
        1
    }

    /// Content fingerprint of the code this job's results depend on,
    /// folded into every cache key alongside [`Job::version`].
    ///
    /// The canonical implementation hashes a per-crate manifest (each
    /// experiment crate's source digest, computed at build time) so
    /// editing one crate invalidates only the jobs whose results flow
    /// through it. The default — the empty fingerprint — leaves
    /// invalidation entirely to `version`.
    fn fingerprint(&self) -> String {
        String::new()
    }
}

impl std::fmt::Debug for dyn Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Job({})", self.id())
    }
}

/// An ordered collection of jobs, looked up by experiment id.
#[derive(Debug, Default)]
pub struct Registry {
    jobs: Vec<Box<dyn Job>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry { jobs: Vec::new() }
    }

    /// Adds a job. Panics on duplicate ids — that is always a
    /// programming error in the experiment catalog.
    pub fn register(&mut self, job: Box<dyn Job>) {
        assert!(
            self.get(job.id()).is_none(),
            "duplicate experiment id '{}'",
            job.id()
        );
        self.jobs.push(job);
    }

    /// Looks an experiment up by id.
    pub fn get(&self, id: &str) -> Option<&dyn Job> {
        self.jobs.iter().find(|j| j.id() == id).map(AsRef::as_ref)
    }

    /// All jobs in registration order.
    pub fn jobs(&self) -> impl Iterator<Item = &dyn Job> {
        self.jobs.iter().map(AsRef::as_ref)
    }

    /// All experiment ids in registration order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.jobs.iter().map(|j| j.id()).collect()
    }

    /// Number of registered experiments.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy(&'static str);

    impl Job for Dummy {
        fn id(&self) -> &'static str {
            self.0
        }
        fn description(&self) -> &'static str {
            "dummy"
        }
        fn units(&self, _ctx: &JobContext) -> Vec<String> {
            vec!["only".into()]
        }
        fn run_unit(&self, _unit: usize, seed: u64, _deps: &[Json], _ctx: &JobContext) -> Json {
            Json::object().with("seed", seed)
        }
        fn finish(&self, mut units: Vec<Json>, _ctx: &JobContext) -> Json {
            units.pop().unwrap()
        }
        fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
            merged.to_compact()
        }
    }

    #[test]
    fn registry_preserves_order_and_rejects_duplicates() {
        let mut r = Registry::new();
        r.register(Box::new(Dummy("a")));
        r.register(Box::new(Dummy("b")));
        assert_eq!(r.ids(), vec!["a", "b"]);
        assert!(r.get("a").is_some() && r.get("c").is_none());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.register(Box::new(Dummy("a")))
        }))
        .is_err());
    }

    #[test]
    fn scale_level_parses() {
        assert_eq!("quick".parse::<ScaleLevel>().unwrap(), ScaleLevel::Quick);
        assert_eq!("full".parse::<ScaleLevel>().unwrap(), ScaleLevel::Paper);
        assert!("nope".parse::<ScaleLevel>().is_err());
    }
}
