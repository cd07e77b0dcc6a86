//! RowHammer security integration tests: every *secure* defense must keep
//! ground-truth victim disturbance below `N_RH` under adversarial access
//! patterns, end-to-end through the full system.

use lh_defenses::{DefenseConfig, DefenseKind};
use lh_dram::{BankId, DramAddr, DramTiming, Span, Time};
use lh_sim::{LoopProcess, SimConfig, System};

/// Runs a double-sided hammering process (rows `target±1`) for `span` and
/// returns the maximum victim pressure ever observed.
fn hammer_and_measure(defense: DefenseConfig, span: Span) -> u64 {
    let mut sys = System::new(SimConfig::paper_default(defense)).unwrap();
    let bank = BankId::new(0, 0, 0, 0);
    let a = sys.mapping().encode(DramAddr::new(bank, 49, 0));
    let b = sys.mapping().encode(DramAddr::new(bank, 51, 0));
    // Hot double-sided pattern around victim row 50.
    let iterations = (span.as_us() * 12.0) as usize; // ~12 accesses / µs
    let hammer = LoopProcess::new(vec![a, b], iterations, Span::from_ns(30));
    sys.add_process(Box::new(hammer), 1, Time::ZERO);
    sys.run_until(Time::ZERO + span + Span::from_us(50));
    sys.controller().device().disturb().max_ever()
}

#[test]
fn prac_family_is_secure_at_every_swept_threshold() {
    let timing = DramTiming::ddr5_4800();
    for kind in [
        DefenseKind::Prac,
        DefenseKind::PracRiac,
        DefenseKind::PracBank,
    ] {
        for nrh in [256u32, 128, 64] {
            let cfg = DefenseConfig::for_threshold(kind, nrh, &timing);
            let max = hammer_and_measure(cfg, Span::from_us(400));
            assert!(
                max < nrh as u64,
                "{kind} at NRH={nrh}: victim pressure reached {max}"
            );
        }
    }
}

#[test]
fn prfm_and_fr_rfm_bound_disturbance() {
    let timing = DramTiming::ddr5_4800();
    for kind in [DefenseKind::Prfm, DefenseKind::FrRfm] {
        let nrh = 256u32;
        let cfg = DefenseConfig::for_threshold(kind, nrh, &timing);
        let max = hammer_and_measure(cfg, Span::from_us(400));
        assert!(
            max < nrh as u64,
            "{kind} at NRH={nrh}: victim pressure reached {max}"
        );
    }
}

#[test]
fn no_defense_is_insecure() {
    let max = hammer_and_measure(DefenseConfig::none(), Span::from_us(400));
    assert!(
        max >= 1024,
        "unmitigated double-sided hammering reached only {max}"
    );
}

#[test]
fn para_suppresses_disturbance_statistically() {
    let timing = DramTiming::ddr5_4800();
    let cfg = DefenseConfig::for_threshold(DefenseKind::Para, 512, &timing);
    let undefended = hammer_and_measure(DefenseConfig::none(), Span::from_us(300));
    let with_para = hammer_and_measure(cfg, Span::from_us(300));
    assert!(
        with_para * 3 < undefended,
        "PARA must cut pressure substantially: {with_para} vs {undefended}"
    );
}

/// Runs a RowPress-style aggressor: open the target row, keep it open
/// with a stream of row hits (the controller only closes it for
/// refreshes/conflicts), close it via a far-away conflict row, repeat.
fn press_and_measure(defense: DefenseConfig, span: Span) -> u64 {
    let mut sys = System::new(SimConfig::paper_default(defense)).unwrap();
    let bank = BankId::new(0, 0, 0, 0);
    let aggressor = sys.mapping().encode(DramAddr::new(bank, 49, 0));
    let closer = sys.mapping().encode(DramAddr::new(bank, 900, 0));
    // 18 hits to the aggressor keep it open several µs, then one access
    // to a far row forces the precharge; repeat.
    let mut addrs = vec![aggressor; 18];
    addrs.push(closer);
    let iterations = (span.as_us() * 5.0) as usize;
    let press = LoopProcess::new(addrs, iterations, Span::from_ns(200));
    sys.add_process(Box::new(press), 1, Time::ZERO);
    sys.run_until(Time::ZERO + span + Span::from_us(50));
    sys.controller().device().disturb().max_ever()
}

#[test]
fn rowpress_defeats_rowhammer_sized_prac_but_not_a_lower_threshold() {
    // §2.2: keeping the aggressor open amplifies disturbance per
    // activation, so a PRAC configured only for RowHammer (NBO=128 at
    // NRH=256) under-counts the RowPress aggressor and lets pressure
    // cross NRH; the same defense *configured for a lower threshold*
    // (NBO=32) fires early enough to stay safe — exactly the paper's
    // "existing RowHammer defenses can also prevent RowPress bitflips
    // when they are configured for lower NRH values".
    let nrh = 256u64;
    let span = Span::from_us(800);
    let rowhammer_sized = press_and_measure(DefenseConfig::prac(128), span);
    assert!(
        rowhammer_sized >= nrh,
        "RowPress must defeat the RowHammer-sized config, pressure {rowhammer_sized}"
    );
    let press_sized = press_and_measure(DefenseConfig::prac(32), span);
    assert!(
        press_sized < nrh,
        "the lower-threshold config must contain RowPress, pressure {press_sized}"
    );
}

#[test]
fn security_holds_while_the_covert_channel_runs() {
    // The attack exploits the defense without breaking it: during a covert
    // transmission the defense still keeps disturbance below NRH.
    use leakyhammer::experiment::covert::{run_covert, ChannelKind, CovertOptions};
    use lh_analysis::bits_of_str;
    let opts = CovertOptions::new(ChannelKind::Prac, bits_of_str("SAFE"));
    let out = run_covert(&opts);
    assert_eq!(out.decoded, opts.bits, "channel works");
    // A PRAC provisioned for NRH=256 by the repo's own scaling rule
    // (`scaled_nbo` reserves ABO-window slack below NRH/2; a bare
    // NBO=NRH/2 config lets the alert-window activations overshoot by
    // a couple of counts, which is why `for_threshold` under-provisions
    // NBO). (The covert wire discards its system, so re-run with direct
    // observation.)
    let cfg =
        DefenseConfig::for_threshold(DefenseKind::Prac, 256, &lh_dram::DramTiming::ddr5_4800());
    let max = hammer_and_measure(cfg, Span::from_us(500));
    assert!(
        max < 256,
        "PRAC must stay secure under attack, pressure {max}"
    );
}
