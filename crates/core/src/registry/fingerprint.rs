//! Adapters for the website-fingerprinting side channel (§8): the
//! Fig. 9 trace gallery, the Fig. 10 classifier comparison and the
//! Table 2 cross-validation. Trace collection — the expensive part, one
//! full system simulation per trace — is one harness unit per trace;
//! classifier training happens in `finish` on the merged features (and
//! is itself cached with the merged result).

use lh_harness::{Job, JobContext, Json};

use crate::experiment::fingerprint::{
    collect_one, run_model_comparison, run_table2, standardized, CollectOptions, FEATURE_WINDOWS,
};
use crate::registry::{ml_fingerprint, num, off_wire_fingerprint, scale_of, text};
use crate::report;

use lh_ml::Dataset;

fn gallery_options(ctx: &JobContext) -> CollectOptions {
    let mut opts = CollectOptions::for_scale(scale_of(ctx), ctx.seed);
    opts.sites = opts.sites.min(3);
    opts.traces_per_site = 2;
    opts
}

/// Fig. 9: a small gallery of per-site back-off fingerprints.
pub(crate) struct TraceGalleryJob;

impl Job for TraceGalleryJob {
    fn id(&self) -> &'static str {
        "fig9"
    }

    fn description(&self) -> &'static str {
        "website back-off fingerprints"
    }

    fn units(&self, ctx: &JobContext) -> Vec<String> {
        collection_units(&gallery_options(ctx))
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        let opts = gallery_options(ctx);
        let site = unit / opts.traces_per_site;
        let trace = unit % opts.traces_per_site;
        let fp = collect_one(site, seed, &opts);
        let name = lh_workloads::WEBSITES[site];
        let marks: String = fp
            .events
            .iter()
            .map(|e| format!("{:.0}", e.as_us()))
            .collect::<Vec<_>>()
            .join(" ");
        Json::object()
            .with("site", site)
            .with("name", name)
            .with("trace", trace)
            .with(
                "events_us",
                Json::Array(
                    fp.events
                        .iter()
                        .map(|e| Json::from_f64(e.as_us()))
                        .collect(),
                ),
            )
            .with(
                "text",
                format!("{name:>12} trace {trace}: back-offs at us [{marks}]\n"),
            )
    }

    fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
        Json::object().with("traces", Json::Array(units))
    }

    fn fingerprint(&self) -> String {
        off_wire_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        merged["traces"]
            .as_array()
            .iter()
            .map(|t| text(t, "text"))
            .collect()
    }
}

fn collection_units(opts: &CollectOptions) -> Vec<String> {
    (0..opts.sites)
        .flat_map(|s| (0..opts.traces_per_site).map(move |t| format!("site:{s}:trace:{t}")))
        .collect()
}

fn collect_unit(unit: usize, seed: u64, opts: &CollectOptions) -> Json {
    let site = unit / opts.traces_per_site;
    let fp = collect_one(site, seed, opts);
    Json::object().with("site", site).with(
        "features",
        Json::Array(
            fp.features(FEATURE_WINDOWS)
                .into_iter()
                .map(Json::from_f64)
                .collect(),
        ),
    )
}

fn dataset_of(units: &[Json]) -> Dataset {
    standardized(
        units
            .iter()
            .map(|u| {
                u["features"]
                    .as_array()
                    .iter()
                    .map(|f| f.as_f64().unwrap_or(0.0))
                    .collect()
            })
            .collect(),
        units
            .iter()
            .map(|u| u["site"].as_u64().unwrap_or(0) as usize)
            .collect(),
    )
}

/// Fig. 10: accuracy of the eight classifiers over websites.
pub(crate) struct ClassifierJob;

impl Job for ClassifierJob {
    fn id(&self) -> &'static str {
        "fig10"
    }

    fn description(&self) -> &'static str {
        "classifier accuracy over websites"
    }

    fn units(&self, ctx: &JobContext) -> Vec<String> {
        collection_units(&CollectOptions::for_scale(scale_of(ctx), ctx.seed))
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        collect_unit(
            unit,
            seed,
            &CollectOptions::for_scale(scale_of(ctx), ctx.seed),
        )
    }

    fn finish(&self, units: Vec<Json>, ctx: &JobContext) -> Json {
        let data = dataset_of(&units);
        let folds = if scale_of(ctx) == crate::Scale::Quick {
            3
        } else {
            5
        };
        let accs = run_model_comparison(&data, folds, ctx.seed);
        let sites = CollectOptions::for_scale(scale_of(ctx), ctx.seed).sites;
        Json::object().with("sites", sites).with(
            "models",
            Json::Array(
                accs.iter()
                    .map(|a| {
                        Json::object()
                            .with("model", a.model.clone())
                            .with("accuracy", a.accuracy)
                    })
                    .collect(),
            ),
        )
    }

    fn fingerprint(&self) -> String {
        ml_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let rows: Vec<Vec<String>> = merged["models"]
            .as_array()
            .iter()
            .map(|a| vec![text(a, "model"), format!("{:.2}", num(a, "accuracy"))])
            .collect();
        let mut s = report::table(&["model", "accuracy"], &rows);
        let n = merged["sites"].as_u64().unwrap_or(1).max(1);
        s.push_str(&format!("random guess = {:.3}\n", 1.0 / n as f64));
        s
    }
}

/// Table 2: decision-tree F1/precision/recall under 10-fold CV.
pub(crate) struct Table2Job;

impl Job for Table2Job {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn description(&self) -> &'static str {
        "decision-tree F1/precision/recall, 10-fold CV"
    }

    fn units(&self, ctx: &JobContext) -> Vec<String> {
        collection_units(&CollectOptions::for_scale(scale_of(ctx), ctx.seed))
    }

    fn run_unit(&self, unit: usize, seed: u64, _deps: &[Json], ctx: &JobContext) -> Json {
        collect_unit(
            unit,
            seed,
            &CollectOptions::for_scale(scale_of(ctx), ctx.seed),
        )
    }

    fn finish(&self, units: Vec<Json>, ctx: &JobContext) -> Json {
        let data = dataset_of(&units);
        let scores = run_table2(&data, ctx.seed);
        Json::object()
            .with("accuracy", scores.accuracy)
            .with("f1_mean", scores.f1.0)
            .with("f1_std", scores.f1.1)
            .with("precision_mean", scores.precision.0)
            .with("precision_std", scores.precision.1)
            .with("recall_mean", scores.recall.0)
            .with("recall_std", scores.recall.1)
    }

    fn fingerprint(&self) -> String {
        ml_fingerprint()
    }

    fn render_text(&self, merged: &Json, _ctx: &JobContext) -> String {
        let rows = vec![vec![
            "Decision Tree".to_owned(),
            format!(
                "{:.1} ({:.1})",
                num(merged, "f1_mean"),
                num(merged, "f1_std")
            ),
            format!(
                "{:.1} ({:.1})",
                num(merged, "precision_mean"),
                num(merged, "precision_std")
            ),
            format!(
                "{:.1} ({:.1})",
                num(merged, "recall_mean"),
                num(merged, "recall_std")
            ),
        ]];
        report::table(
            &["model", "F1 % (std)", "precision % (std)", "recall % (std)"],
            &rows,
        )
    }
}
