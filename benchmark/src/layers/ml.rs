//! `ml` driver: the fingerprinting study's collection and training at
//! the quick shape (4 sites x 6 traces).

use std::hint::black_box;

use leakyhammer::experiment::fingerprint::{
    collect_dataset, run_model_comparison, run_table2, to_dataset, CollectOptions,
};
use leakyhammer::Scale;

use crate::layers::timed;
use crate::report::Report;
use crate::workloads::RunConfig;

/// Cross-validation folds of the quick `fig10` job.
const FOLDS: usize = 3;

pub fn drive(cfg: &RunConfig, report: &mut Report) {
    let options = CollectOptions::for_scale(Scale::Quick, cfg.seed);
    let (traces, secs) = timed(|| collect_dataset(&options));
    report.metric("ml.collect_dataset_s", secs);
    black_box(traces.len());
    let data = to_dataset(&traces);
    let (models, secs) = timed(|| run_model_comparison(&data, FOLDS, cfg.seed));
    report.metric("ml.model_comparison_s", secs);
    black_box(models);
    let (scores, secs) = timed(|| run_table2(&data, cfg.seed));
    report.metric("ml.table2_s", secs);
    black_box(scores);
}
