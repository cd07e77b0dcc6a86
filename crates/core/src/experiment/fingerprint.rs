//! The website-fingerprinting side channel (§8): Figs. 9 and 10, Table 2.
//!
//! For each website, the browser profile loads while the Listing-2 probe
//! runs on another core; the probe's back-off trace becomes a
//! [`Fingerprint`] whose features feed the eight Fig. 10 classifiers.

use lh_attacks::{ChannelLayout, Fingerprint, FingerprintProbe, LatencyClassifier};
use lh_defenses::{DefenseConfig, DefenseKind};
use lh_dram::{DramTiming, Span, Time};
use lh_ml::{cross_validate, model_zoo, CvScores, Dataset};
use lh_sim::{SimConfig, SystemBuilder};
use lh_workloads::{BrowserProcess, WebsiteProfile};

use crate::Scale;

/// Feature-vector window count (execution windows of Fig. 9).
pub(crate) const FEATURE_WINDOWS: usize = 12;

/// One collected trace.
#[derive(Debug, Clone)]
pub struct CollectedTrace {
    /// Website index (label).
    pub site: usize,
    /// The back-off fingerprint.
    pub fingerprint: Fingerprint,
}

/// Options for trace collection.
#[derive(Debug, Clone)]
pub struct CollectOptions {
    /// How many sites and traces per site.
    pub sites: usize,
    /// Traces per site.
    pub traces_per_site: usize,
    /// Load duration per trace.
    pub(crate) load_span: Span,
    /// Seed.
    pub(crate) seed: u64,
}

impl CollectOptions {
    /// Options for `scale`.
    pub fn for_scale(scale: Scale, seed: u64) -> CollectOptions {
        let (sites, traces_per_site) = scale.fingerprint_shape();
        CollectOptions {
            sites,
            traces_per_site,
            load_span: Span::from_us(scale.load_span_us()),
            seed,
        }
    }
}

/// Collects one fingerprint: browser load + probe in one system.
pub fn collect_one(site: usize, trace_seed: u64, opts: &CollectOptions) -> Fingerprint {
    // §8 evaluates at NRH = 64.
    let defense = DefenseConfig::for_threshold(DefenseKind::Prac, 64, &DramTiming::ddr5_4800());
    let think = Span::from_ns(30);
    let nbo = defense.device_prac().expect("PRAC enabled").nbo;
    let sim = SimConfig::paper_default(defense);
    let cls = LatencyClassifier::from_timing(&sim.device.timing, think);
    let mut sys = SystemBuilder::from_config(sim)
        .seed(trace_seed)
        .build()
        .expect("valid configuration");
    let layout = ChannelLayout::default_bank(sys.mapping());
    let browser = BrowserProcess::new(
        WebsiteProfile::of_site(site),
        *sys.mapping(),
        trace_seed,
        Time::ZERO,
        opts.load_span,
    );
    let probe = FingerprintProbe::new(
        vec![layout.receiver_row, layout.noise_rows[0]],
        nbo.saturating_sub(1).max(1),
        think,
        Time::ZERO + opts.load_span,
    );
    sys.add_process(Box::new(browser), 1, Time::ZERO);
    let probe_id = sys.add_process(Box::new(probe), 1, Time::ZERO);
    sys.run_until(Time::ZERO + opts.load_span + Span::from_us(10));
    let trace = sys
        .process_as::<FingerprintProbe>(probe_id)
        .expect("probe present")
        .trace();
    Fingerprint::from_trace(trace, &cls, Time::ZERO, opts.load_span)
}

/// Collects the full dataset.
pub fn collect_dataset(opts: &CollectOptions) -> Vec<CollectedTrace> {
    let mut out = Vec::new();
    for site in 0..opts.sites {
        for t in 0..opts.traces_per_site {
            let trace_seed = opts.seed ^ ((site as u64) << 24) ^ (t as u64);
            out.push(CollectedTrace {
                site,
                fingerprint: collect_one(site, trace_seed, opts),
            });
        }
    }
    out
}

/// The ML dataset over per-trace `features` labeled by site, with
/// every feature standardized — the one form the classifiers train on,
/// whether the traces arrive typed ([`to_dataset`]) or as the registry
/// jobs' unit JSON.
pub(crate) fn standardized(features: Vec<Vec<f64>>, labels: Vec<usize>) -> Dataset {
    let mut d = Dataset::new(features, labels);
    d.standardize();
    d
}

/// Converts collected traces into an ML dataset (standardized features).
pub fn to_dataset(traces: &[CollectedTrace]) -> Dataset {
    standardized(
        traces
            .iter()
            .map(|t| t.fingerprint.features(FEATURE_WINDOWS))
            .collect(),
        traces.iter().map(|t| t.site).collect(),
    )
}

/// Fig. 10: per-model test accuracy via k-fold cross-validation.
#[derive(Debug, Clone)]
pub struct ClassifierAccuracy {
    /// Model name.
    pub model: String,
    /// Mean CV accuracy.
    pub accuracy: f64,
}

/// Runs the Fig. 10 model comparison on a collected dataset.
pub fn run_model_comparison(data: &Dataset, folds: usize, seed: u64) -> Vec<ClassifierAccuracy> {
    model_zoo()
        .into_iter()
        .map(|mut model| {
            let scores = cross_validate(model.as_mut(), data, folds, seed);
            ClassifierAccuracy {
                model: model.name().to_owned(),
                accuracy: scores.accuracy,
            }
        })
        .collect()
}

/// Table 2: 10-fold CV scores of the best model (decision tree).
pub fn run_table2(data: &Dataset, seed: u64) -> CvScores {
    let mut tree = lh_ml::DecisionTree::new(lh_ml::TreeConfig::default());
    cross_validate(&mut tree, data, 10, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> CollectOptions {
        let mut o = CollectOptions::for_scale(Scale::Quick, 42);
        o.sites = 3;
        o.traces_per_site = 8;
        o
    }

    #[test]
    fn browser_loads_produce_nonempty_fingerprints() {
        let opts = quick_opts();
        let fp = collect_one(0, 1, &opts);
        assert!(
            !fp.events.is_empty(),
            "a website load at NRH=64 must trigger observable back-offs"
        );
    }

    #[test]
    fn fingerprints_are_site_stable_and_site_distinct() {
        let opts = quick_opts();
        // Two traces of the same site: similar back-off counts.
        let a1 = collect_one(1, 10, &opts).events.len() as f64;
        let a2 = collect_one(1, 11, &opts).events.len() as f64;
        // A different site: different count (site 2 has a different
        // phase profile).
        let b = collect_one(2, 10, &opts).events.len() as f64;
        let within = (a1 - a2).abs();
        let across = (a1 - b).abs();
        assert!(
            within <= across + 3.0,
            "same-site traces ({a1}, {a2}) should be closer than cross-site ({b})"
        );
    }

    #[test]
    fn classifier_beats_random_guessing_on_quick_dataset() {
        let opts = quick_opts();
        let traces = collect_dataset(&opts);
        assert_eq!(traces.len(), 24);
        let data = to_dataset(&traces);
        let scores = run_table2(&data, 3);
        let random = 1.0 / 3.0;
        assert!(
            scores.accuracy > random + 0.1,
            "decision tree accuracy {} vs random {random}",
            scores.accuracy
        );
    }
}
