//! Website fingerprinting over PRAC back-offs (§8).
//!
//! Loads several synthetic website profiles while the Listing-2 probe
//! observes the channel, extracts back-off fingerprints, trains the
//! decision-tree classifier, and reports how well websites can be
//! identified — the Fig. 9 / Fig. 10 / Table 2 pipeline in miniature.
//!
//! Run with: `cargo run --release --example website_fingerprinting`

use leakyhammer::experiment::fingerprint::{
    collect_dataset, run_model_comparison, to_dataset, CollectOptions,
};
use leakyhammer::report;
use leakyhammer::Scale;
use lh_workloads::WEBSITES;

fn main() {
    println!("LeakyHammer website fingerprinting (NRH = 64)\n");
    let mut opts = CollectOptions::for_scale(Scale::Quick, 42);
    opts.sites = 5;
    opts.traces_per_site = 8;
    println!(
        "collecting {} traces ({} sites x {} loads) ...",
        opts.sites * opts.traces_per_site,
        opts.sites,
        opts.traces_per_site
    );
    let traces = collect_dataset(&opts);

    // Fig. 9 flavour: back-off counts per site.
    println!("\nback-offs observed per load:");
    for (site, name) in WEBSITES.iter().enumerate().take(opts.sites) {
        let counts: Vec<usize> = traces
            .iter()
            .filter(|t| t.site == site)
            .map(|t| t.fingerprint.events.len())
            .collect();
        println!("  {name:>12}: {counts:?}");
    }

    // Fig. 10 flavour: classifier comparison.
    let data = to_dataset(&traces);
    println!("\ntraining the model zoo (3-fold cross-validation):");
    let accs = run_model_comparison(&data, 3, 7);
    let rows: Vec<Vec<String>> = accs
        .iter()
        .map(|a| vec![a.model.clone(), format!("{:.2}", a.accuracy)])
        .collect();
    print!("{}", report::table(&["model", "accuracy"], &rows));
    println!("random guess = {:.3}", 1.0 / opts.sites as f64);
    println!(
        "\nEach website's load phases trigger PRAC back-offs at characteristic\n\
         times; the probe never causes back-offs itself (it stays below NBO)."
    );
}
