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

use leakyhammer::experiment::row_policy::{cross_bank_observations, CrossBank};
use lh_defenses::DefenseConfig;

/// `filter` enables the §10.1 cadence filter: under Bank-Level PRAC the
/// only in-band candidates are rare refresh+contention stacks, which
/// filter away from the kernel's 20 µs start. A window decodes 1 on any
/// back-off-band event.
fn cross_bank_prac(defense: DefenseConfig, filter: bool, bits: &[u8]) -> Vec<u8> {
    cross_bank_observations(CrossBank::LeakyHammer { defense, filter }, bits)
        .iter()
        .map(|o| u8::from(o.events >= 1))
        .collect()
}

/// A DRAMA window decodes 1 when at least 5 % of its probes (~540)
/// conflict.
fn cross_bank_drama(bits: &[u8]) -> Vec<u8> {
    cross_bank_observations(CrossBank::Drama, bits)
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
