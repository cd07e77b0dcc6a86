//! Integration tests: the paper's headline claims, end-to-end through the
//! whole stack (DRAM device → controller → defenses → system → attacks →
//! metrics).

use leakyhammer::experiment::covert::{run_covert, ChannelKind, CovertOptions};
use leakyhammer::experiment::latency_trace::run_latency_trace;
use lh_analysis::bits_of_str;
use lh_defenses::DefenseConfig;
use lh_dram::Span;

/// §6.3 / Fig. 3: the PRAC covert channel transmits "MICRO" at ~40 Kbps
/// raw with zero errors in a quiet system.
#[test]
fn claim_prac_channel_40kbps() {
    let opts = CovertOptions::new(ChannelKind::Prac, bits_of_str("MICRO"));
    let out = run_covert(&opts);
    assert_eq!(out.decoded, opts.bits);
    assert!(
        (out.result.raw_kbps() - 40.0).abs() < 1.0,
        "raw {}",
        out.result.raw_kbps()
    );
    assert!(out.result.capacity_kbps() > 38.0);
}

/// §7.3 / Fig. 6: the RFM covert channel transmits "MICRO" at ~50 Kbps
/// raw — faster than PRAC, as the paper observes (48.7 vs 39.0).
#[test]
fn claim_rfm_channel_is_faster_than_prac() {
    let prac = run_covert(&CovertOptions::new(ChannelKind::Prac, bits_of_str("MICRO")));
    let rfm = run_covert(&CovertOptions::new(ChannelKind::Rfm, bits_of_str("MICRO")));
    assert_eq!(rfm.result.bit_errors, 0);
    assert!(
        rfm.result.raw_kbps() > prac.result.raw_kbps(),
        "RFM {} Kbps must beat PRAC {} Kbps",
        rfm.result.raw_kbps(),
        prac.result.raw_kbps()
    );
}

/// §6.2: a userspace process can distinguish back-offs from refreshes; the
/// back-off is roughly 2× the refresh latency and appears every ~255
/// conflicting requests at NBO = 128.
#[test]
fn claim_backoffs_are_userspace_observable() {
    let out = run_latency_trace(DefenseConfig::prac(128), 600, Span::from_ns(30));
    let ratio = out.backoff_over_refresh().expect("both bands observed");
    assert!(
        (1.3..2.8).contains(&ratio),
        "back-off/refresh ratio {ratio} (paper: 1.9)"
    );
    let rpb = out.requests_per_backoff.expect("back-offs observed");
    assert!(
        (180.0..340.0).contains(&rpb),
        "requests/back-off {rpb} (paper: ~255)"
    );
}

/// §7.2: under PRFM the RFM-class event appears every ~41.8 accesses at
/// TRFM = 40.
#[test]
fn claim_rfm_period_matches_trfm() {
    let out = run_latency_trace(DefenseConfig::prfm(40), 500, Span::from_ns(30));
    let rpr = out.requests_per_rfm.expect("RFM events observed");
    assert!(
        (34.0..56.0).contains(&rpr),
        "requests/RFM {rpr} (paper: 41.8)"
    );
}

/// §4: the channel only exists *because of* the defense — an undefended
/// system shows no back-off-class events at all.
#[test]
fn claim_channel_is_defense_induced() {
    let mut opts = CovertOptions::new(ChannelKind::Prac, bits_of_str("HI"));
    opts.link.sim.defense = DefenseConfig::none();
    let out = run_covert(&opts);
    assert!(
        out.decoded.iter().all(|&b| b == 0),
        "no defense, no channel"
    );
    assert_eq!(out.backoffs, 0);
}
