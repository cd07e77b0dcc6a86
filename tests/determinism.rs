//! Reproducibility: identical seeds give bit-identical results across the
//! entire stack; different seeds actually change randomized components.

use leakyhammer::experiment::covert::{run_covert, ChannelKind, CovertOptions};
use lh_analysis::MessagePattern;
use lh_defenses::DefenseConfig;
use lh_dram::{BankId, DramAddr, Span, Time};
use lh_harness::{JobContext, Runner, RunnerOptions, ScaleLevel};
use lh_sim::{LoopProcess, SimConfig, System};

#[test]
fn covert_outcomes_are_reproducible() {
    let run = |seed: u64| {
        let mut opts = CovertOptions::new(ChannelKind::Prac, MessagePattern::Checkered0.bits(24));
        opts.link.noise_intensity = Some(60.0);
        opts.link.sim.seed = seed;
        let out = run_covert(&opts);
        (out.decoded, out.per_window_events, out.backoffs)
    };
    assert_eq!(run(7), run(7), "same seed, same transmission");
}

#[test]
fn randomised_defenses_follow_the_master_seed() {
    // RIAC's counter draws (mitigation) and PARA's and MINT's triggers
    // (taxonomy) run on each transmission's `sim.seed`, which every
    // covert kernel mixes from its unit seed: one master seed gives one
    // result, another master seed another.
    let registry = leakyhammer::registry();
    let runner = Runner::new(RunnerOptions {
        jobs: 2,
        ..Default::default()
    });
    for id in ["mitigation", "taxonomy"] {
        let job = registry.get(id).expect("registered");
        let result = |seed: u64| {
            runner
                .run(job, &JobContext::new(ScaleLevel::Quick, seed))
                .expect("run")
                .merged
        };
        let one = result(1);
        assert_eq!(one, result(1), "{id}: same master seed, same result");
        assert_ne!(
            one,
            result(2),
            "{id}: the master seed must reach the defense draws"
        );
    }
}

#[test]
fn riac_randomization_depends_on_seed() {
    let backoffs = |seed: u64| {
        let mut cfg = SimConfig::paper_default(DefenseConfig::riac(64));
        cfg.seed = seed;
        let mut sys = System::new(cfg).unwrap();
        let bank = BankId::new(0, 0, 0, 0);
        let a = sys.mapping().encode(DramAddr::new(bank, 10, 0));
        let b = sys.mapping().encode(DramAddr::new(bank, 20, 0));
        sys.add_process(
            Box::new(LoopProcess::new(vec![a, b], 400, Span::from_ns(30))),
            1,
            Time::ZERO,
        );
        sys.run_until(Time::from_ms(1));
        // The exact alert times depend on the random counter inits, so
        // the per-row counter values after the run form a fingerprint.
        (
            sys.controller().stats().backoffs,
            sys.controller().device().counters().value(0, 10),
        )
    };
    assert_eq!(backoffs(1), backoffs(1), "deterministic per seed");
    let differs = (2..8).any(|s| backoffs(s) != backoffs(1));
    assert!(differs, "different seeds must shift RIAC behaviour");
}

#[test]
fn fingerprint_collection_is_reproducible() {
    use leakyhammer::experiment::fingerprint::{collect_one, CollectOptions};
    use leakyhammer::Scale;
    let opts = CollectOptions::for_scale(Scale::Quick, 5);
    let a = collect_one(2, 99, &opts);
    let b = collect_one(2, 99, &opts);
    assert_eq!(
        a, b,
        "same site + trace seed must reproduce the fingerprint"
    );
}
