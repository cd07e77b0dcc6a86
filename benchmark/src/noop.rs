//! A job that does nothing, so orchestration cost is measured with no
//! simulation in it.

use lh_harness::{Job, JobContext, Json, Registry};

/// Units per run.
pub const UNITS: usize = 1_000;

/// 250 diamonds of four units — a source, two middles that consume it,
/// a sink that consumes both — with constant JSON results. Shared by
/// the `harness.dag_us_per_unit.*` and `coord.dag_us_per_unit` drivers.
pub struct NoopJob;

impl Job for NoopJob {
    fn id(&self) -> &'static str {
        "noop"
    }

    fn description(&self) -> &'static str {
        "benchmark-local no-op job: 1000 units in diamond DAGs"
    }

    fn units(&self, _ctx: &JobContext) -> Vec<String> {
        (0..UNITS).map(|i| format!("noop:{i}")).collect()
    }

    fn deps(&self, unit: usize, _ctx: &JobContext) -> Vec<usize> {
        let source = unit - unit % 4;
        match unit % 4 {
            0 => Vec::new(),
            3 => vec![source + 1, source + 2],
            _ => vec![source],
        }
    }

    fn run_unit(&self, _unit: usize, _seed: u64, deps: &[Json], _ctx: &JobContext) -> Json {
        Json::object().with("ok", true).with("inputs", deps.len())
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object().with("units", units.len())
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        merged.to_compact()
    }
}

/// A registry holding only the [`NoopJob`].
pub fn registry() -> Registry {
    let mut registry = Registry::new();
    registry.register(Box::new(NoopJob));
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_harness::{Runner, RunnerOptions, ScaleLevel};

    #[test]
    fn the_diamonds_form_a_valid_dag_and_run() {
        let ctx = JobContext::new(ScaleLevel::Quick, 1);
        let deps: Vec<Vec<usize>> = (0..UNITS).map(|i| NoopJob.deps(i, &ctx)).collect();
        assert_eq!(lh_harness::pool::validate_dag(&deps), Ok(UNITS));
        assert_eq!(deps[7], vec![5, 6]);
        let run = Runner::new(RunnerOptions {
            jobs: 2,
            ..RunnerOptions::default()
        })
        .run(&NoopJob, &ctx)
        .unwrap();
        assert_eq!(run.merged["units"].as_u64(), Some(UNITS as u64));
        assert_eq!(run.stats.units_executed, UNITS);
    }
}
