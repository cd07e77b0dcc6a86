//! §9: LeakyHammer defeats bank partitioning; DRAMA does not.
//!
//! Sender and receiver are placed in *different bank groups* — the
//! isolation a bank-partitioned system enforces. The PRAC back-off blocks
//! the whole channel, so the cross-bank receiver still decodes the
//! message; DRAMA's row-buffer signal never leaves the sender's bank.
//! Bank-Level PRAC (§11.3) restores the bank boundary by scoping the
//! back-off to one bank.
//!
//! Run with: `cargo run --release --example bank_partitioning`

use lh_attacks::{
    ChannelLayout, CovertReceiver, CovertSender, LatencyClassifier, ReceiverConfig, SenderConfig,
};
use lh_defenses::DefenseConfig;
use lh_dram::{Span, Time};
use lh_sim::{SimConfig, System};

const THINK: Span = Span::from_ns(30);

/// `filter` enables the §10.1 cadence filter: under Bank-Level PRAC the
/// only in-band candidates are rare refresh+contention stacks, which sit
/// exactly on the refresh grid and filter away.
fn cross_bank_prac(defense: DefenseConfig, filter: bool, bits: &[u8]) -> Vec<u8> {
    // 30 µs windows: without receiver-side conflicts the sender's own
    // alternating accesses must supply all ~255 activations (~25 µs).
    let window = Span::from_us(30);
    let start = Time::from_us(20);
    let sim = SimConfig::paper_default(defense);
    let cls = LatencyClassifier::from_timing(&sim.device.timing, THINK);
    let mut sys = System::new(sim).expect("valid configuration");
    let layout = ChannelLayout::default_bank(sys.mapping());
    let tx = CovertSender::new(SenderConfig::binary(
        layout.sender_rows,
        window,
        start,
        THINK,
        cls.backoff_threshold(),
        true,
        bits.to_vec(),
    ));
    let rx = CovertReceiver::new(ReceiverConfig {
        row_addr: layout.other_bank_row,
        window,
        start,
        n_windows: bits.len(),
        think: THINK,
        detect: cls.backoff_threshold(),
        detect_max: Span::MAX,
        sleep_after_detect: true,
        refresh_filter: filter.then(|| {
            lh_attacks::RefreshFilterConfig::from_timing(sys.controller().device().timing())
        }),
    });
    sys.add_process(Box::new(tx), 1, Time::ZERO);
    let rx_id = sys.add_process(Box::new(rx), 1, Time::ZERO);
    sys.run_until(start + window * (bits.len() as u64 + 1));
    sys.process_as::<CovertReceiver>(rx_id)
        .expect("receiver present")
        .decode_binary(1)
}

fn cross_bank_drama(bits: &[u8]) -> Vec<u8> {
    let window = Span::from_us(30);
    let sim = SimConfig::paper_default(DefenseConfig::none());
    let cls = LatencyClassifier::from_timing(&sim.device.timing, THINK);
    let mut sys = System::new(sim).expect("valid configuration");
    let layout = ChannelLayout::default_bank(sys.mapping());
    let tx = CovertSender::new(SenderConfig::binary(
        layout.sender_rows,
        window,
        Time::ZERO,
        THINK,
        cls.backoff_threshold(),
        false,
        bits.to_vec(),
    ));
    // DRAMA's receiver: every probe slower than a row hit is a conflict.
    let rx = CovertReceiver::new(ReceiverConfig {
        row_addr: layout.other_bank_row,
        window,
        start: Time::ZERO,
        n_windows: bits.len(),
        think: THINK,
        detect: cls.hit_max,
        detect_max: Span::MAX,
        sleep_after_detect: false,
        refresh_filter: None,
    });
    sys.add_process(Box::new(tx), 1, Time::ZERO);
    let rx_id = sys.add_process(Box::new(rx), 1, Time::ZERO);
    sys.run_until(Time::ZERO + window * (bits.len() as u64 + 1));
    // A window decodes 1 when at least 5 % of its ~2,500 probes conflict.
    sys.process_as::<CovertReceiver>(rx_id)
        .expect("receiver present")
        .observations()
        .iter()
        .map(|o| (o.accesses > 0 && f64::from(o.events) >= 0.05 * f64::from(o.accesses)) as u8)
        .collect()
}

fn render(label: &str, sent: &[u8], got: &[u8]) {
    let errors = sent.iter().zip(got).filter(|(a, b)| a != b).count();
    let to_s = |v: &[u8]| v.iter().map(|b| char::from(b'0' + b)).collect::<String>();
    println!(
        "  {label:<28} sent {}  decoded {}  ({errors} errors)",
        to_s(sent),
        to_s(got)
    );
}

fn main() {
    println!("LeakyHammer sec. 9: sender and receiver in different bank groups\n");
    let bits = vec![1u8, 0, 1, 1, 0, 0, 1, 0];

    let prac = cross_bank_prac(DefenseConfig::prac(128), false, &bits);
    render("LeakyHammer over PRAC:", &bits, &prac);

    let drama = cross_bank_drama(&bits);
    render("DRAMA row-buffer channel:", &bits, &drama);

    let bank_level = cross_bank_prac(DefenseConfig::prac_bank(128), true, &bits);
    render("LeakyHammer over PRAC-Bank:", &bits, &bank_level);

    println!(
        "\nThe channel-scope back-off crosses the bank-partition boundary; the\n\
         row-buffer state does not. Bank-Level PRAC (sec. 11.3) restores the\n\
         boundary by signalling per-bank alerts."
    );
}
