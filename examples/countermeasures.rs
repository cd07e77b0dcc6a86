//! The LeakyHammer countermeasures (§11).
//!
//! Runs the PRAC-style covert attack, beside a light SPEC-like
//! co-runner, against plain PRAC, FR-RFM and PRAC-RIAC, plus PRAC
//! wrapped in the lh-mitigate shaper and quota countermeasures, prints
//! the §11.4 capacity-reduction table, and shows the §12 qualitative
//! taxonomy of defense classes.
//!
//! The table is the `mitigation` job's, run through the harness like
//! `lh-experiments mitigation --scale quick --no-cache -q` and equal to
//! it byte for byte.
//!
//! Run with: `cargo run --release --example countermeasures`

use leakyhammer::report;
use lh_harness::{JobContext, Runner, RunnerOptions, ScaleLevel};

fn main() {
    println!("LeakyHammer countermeasures (sec. 11)\n");
    println!("running the PRAC covert attack against each configuration ...\n");
    let registry = leakyhammer::registry();
    let job = registry.get("mitigation").expect("mitigation registered");
    let ctx = JobContext::new(ScaleLevel::Quick, 1);
    let runner = Runner::new(RunnerOptions {
        jobs: 1,
        ..RunnerOptions::default()
    });
    let run = runner.run(job, &ctx).expect("mitigation run");
    print!("{}", job.render_text(&run.merged, &ctx));
    println!(
        "\nFR-RFM decouples preventive actions from access patterns (fixed-rate\n\
         RFMs) and eliminates the channel; RIAC randomizes counter phases, so\n\
         the co-runner's activations fire back-offs no one can predict, and\n\
         degrades it. The +shaper/+quota arms are lh-mitigate wrappers over\n\
         plain PRAC -- the same stack the mitsweep Pareto matrix sweeps.\n"
    );
    println!("defense taxonomy (sec. 12):");
    print!("{}", report::taxonomy_report());
    println!("\ncapability matrix (Table 3):");
    print!("{}", report::table3_report());
}
