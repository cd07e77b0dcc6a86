//! lh-mitigate transparency gates.
//!
//! The mitigation layer's contract has a degenerate case that anchors
//! everything else: a [`PassThrough`](lh_mitigate::PassThrough) wrapper
//! — and equally an *empty* stack — must be invisible. Not merely
//! "statistically similar": the wrapped system must issue the exact
//! same command stream, wake the scheduler the exact same number of
//! times and retire the exact same defense maintenance as the bare
//! defense. Every recorded `lh-obs` counter is compared, so any
//! divergence anywhere in the simulation shows up as a named-counter
//! diff rather than a downstream statistical wobble.
//!
//! The same scenario as `frrfm_wake_count.rs` (quick-scale four-core
//! mix) keeps the comparison meaningful: it exercises scheduled
//! maintenance, reactive actions and bank contention at once.

use lh_defenses::{DefenseConfig, DefenseKind, DefenseStats};
use lh_dram::{DramTiming, Span, Time};
use lh_memctrl::AddressMapping;
use lh_mitigate::MitigationConfig;
use lh_sim::SystemBuilder;
use lh_workloads::{four_core_mixes, SyntheticApp};

/// Runs the four-core mix under `kind` with the given mitigation stack
/// and returns every deterministic counter the run recorded, plus the
/// defense engine's own stats.
fn run_mix(kind: DefenseKind, stack: Vec<MitigationConfig>) -> (lh_obs::Metrics, DefenseStats) {
    let mut defense_stats = DefenseStats::default();
    let ((), metrics) = lh_obs::record(|| {
        let timing = DramTiming::ddr5_4800();
        let defense = DefenseConfig::for_threshold(kind, 64, &timing);
        let mut sys = SystemBuilder::new(defense)
            .mitigations(stack)
            .seed(7)
            .disturb_tracking(false)
            .build()
            .expect("valid configuration");
        let mapping: AddressMapping = *sys.mapping();
        let end = Time::ZERO + Span::from_us(60);
        let mix = &four_core_mixes(2, 7)[0];
        for (i, profile) in mix.iter().enumerate() {
            let app = SyntheticApp::new(profile.clone(), mapping, 7 ^ (i as u64 * 31), end);
            let mlp = app.mlp();
            sys.add_process(Box::new(app), mlp, Time::ZERO);
        }
        sys.run_until(end + Span::from_us(5));
        defense_stats = sys.controller().defense_stats();
    });
    (metrics, defense_stats)
}

#[test]
fn pass_through_and_empty_stack_are_invisible() {
    // One periodic-maintenance defense, one reactive one and one
    // device-side one cover every delegation path a wrapper has.
    for kind in [DefenseKind::FrRfm, DefenseKind::Prfm, DefenseKind::Prac] {
        let (bare_metrics, bare_stats) = run_mix(kind, Vec::new());
        let (pass_metrics, pass_stats) = run_mix(kind, vec![MitigationConfig::PassThrough]);
        assert_eq!(
            bare_metrics,
            pass_metrics,
            "{}: a PassThrough wrapper changed a recorded counter",
            kind.label()
        );
        assert_eq!(
            bare_stats,
            pass_stats,
            "{}: a PassThrough wrapper changed the defense stats",
            kind.label()
        );
        // A stacked pair of pass-throughs must be equally invisible:
        // composition cannot introduce drift.
        let (stacked_metrics, stacked_stats) = run_mix(
            kind,
            vec![MitigationConfig::PassThrough, MitigationConfig::PassThrough],
        );
        assert_eq!(
            bare_metrics,
            stacked_metrics,
            "{}: stacking two PassThrough wrappers changed a recorded counter",
            kind.label()
        );
        assert_eq!(bare_stats, stacked_stats, "{}: stacked stats", kind.label());
        // The run must have actually done defense work, or the equality
        // above proves nothing.
        assert!(
            bare_metrics.get("sim.cmd.act") > 0,
            "{}: the scenario issued no activates",
            kind.label()
        );
    }
}

#[test]
fn active_wrappers_leave_a_visible_fingerprint() {
    // The inverse control for the transparency gate: a *non*-trivial
    // wrapper on the same scenario must change observable behavior,
    // proving the stack is actually deployed (not silently dropped by
    // some default-config path).
    let timing = DramTiming::ddr5_4800();
    let shaper = MitigationConfig::for_threshold(
        lh_mitigate::MitigationKind::ConstantRateShaper,
        64,
        &timing,
    );
    let (bare, _) = run_mix(DefenseKind::Prfm, Vec::new());
    let (shaped, _) = run_mix(DefenseKind::Prfm, vec![shaper]);
    assert_ne!(
        bare, shaped,
        "a constant-rate shaper over PRFM left every counter untouched — \
         the mitigation stack is not reaching the controller"
    );
    // The shaper replaces PRFM's reactive RFM bursts with its own
    // fixed-rate stream — the command mix must reflect the swap (here
    // the fixed rate is *sparser* than PRFM's reaction to a hammering
    // mix, which is exactly the decoupling the wrapper sells).
    assert_ne!(
        shaped.get("sim.cmd.rfm"),
        bare.get("sim.cmd.rfm"),
        "the shaper must replace the reactive RFM stream with its own"
    );
    assert!(
        shaped.get("sim.cmd.rfm") > 0,
        "the shaper's fixed-rate dummy stream never issued an RFM"
    );
}

#[test]
fn link_envelope_is_identical_for_empty_and_pass_through_stacks() {
    // The covert-channel pipeline is the consumer the sweep cares
    // about: the full calibrate → transmit outcome must be identical
    // whether the stack is absent or a PassThrough.
    use lh_link::{calibrate, transmit_message, LinkConfig, OnOffKeying, Repetition};

    let mut bare = LinkConfig::against(DefenseKind::Prfm, 128, 11);
    let mut passed = bare.clone();
    passed.sim.mitigations = vec![MitigationConfig::PassThrough];

    let bits: Vec<u8> = (0..32).map(|i| (i ^ (i >> 2)) & 1).collect();
    let mut outcomes = Vec::new();
    for cfg in [&mut bare, &mut passed] {
        let cal = calibrate(cfg, &OnOffKeying, 4);
        let out = transmit_message(cfg, &OnOffKeying, &Repetition::new(3), &cal, &bits);
        outcomes.push((
            cal.trecv,
            cal.bins.clone(),
            out.decoded.clone(),
            out.windows,
            out.backoffs,
            out.rfms,
            out.defense_stats,
            out.result.bit_errors,
        ));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "a PassThrough stack changed the link-pipeline outcome"
    );
}
