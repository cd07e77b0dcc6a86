//! Multibit covert channels (§6.3): ternary and quaternary symbol
//! transmission over the PRAC back-off channel.
//!
//! Since the `lh-link` refactor this experiment is two link-layer
//! configurations rather than a bespoke sender/receiver pair: the
//! binary row is on/off keying with the identity codec, the
//! power-of-two rows are multi-level amplitude modulation with the
//! identity codec, and the ternary row drives the same wire in the
//! symbol domain (its alphabet carries no whole number of bits). All
//! rows share the link pipeline's calibration and preamble
//! synchronization, so the reported rates include the sync overhead a
//! real deployment pays.

use lh_analysis::{bits_of_str, bits_to_symbols, channel_capacity};
use lh_defenses::{DefenseConfig, DefenseKind};
use lh_dram::{DramTiming, Span};
use lh_link::{
    calibrate, transmit_message, transmit_payload, LinkConfig, LinkTuning, Modulator,
    MultiLevelAmplitude, OnOffKeying, Plain, PreambleSync,
};

/// Outcome of a multibit transmission (one row of the §6.3 comparison).
#[derive(Debug, Clone, Copy)]
pub struct MultibitOutcome {
    /// Symbol alphabet size (2, 3 or 4).
    pub base: u8,
    /// Raw bit rate in Kbps, preamble overhead included.
    pub raw_kbps: f64,
    /// Symbol error probability.
    pub error_probability: f64,
    /// Channel capacity in Kbps (Eq. 1 applied to the raw bit rate).
    pub capacity_kbps: f64,
}

/// The link configuration every §6.3 row runs: the paper's PRAC
/// channel (`NBO` = 128), Barker-7 synchronization, a 2-window
/// receiver lead for the synchronizer to recover.
fn link_config(seed: u64) -> LinkConfig {
    let timing = DramTiming::ddr5_4800();
    LinkConfig {
        defense: DefenseConfig::prac(128),
        mitigations: Vec::new(),
        tuning: LinkTuning::for_defense(DefenseKind::Prac, &timing, Span::from_ns(30)),
        sync: PreambleSync::barker7(4),
        noise_intensity: None,
        rx_lead_windows: 2,
        seed,
    }
}

/// The §6.3 message: `message_bytes` of the repeating payload text.
fn message_bits(message_bytes: usize) -> Vec<u8> {
    let text: String = "LeakyHammerMultibitPayload-0123456789abcdef"
        .chars()
        .cycle()
        .take(message_bytes)
        .collect();
    bits_of_str(&text)
}

/// Runs the §6.3 multibit experiment for `base` transmitting
/// `message_bytes` bytes (the paper uses 32-byte messages).
pub fn run_multibit(base: u8, message_bytes: usize, seed: u64) -> MultibitOutcome {
    let cfg = link_config(seed);
    let bits = message_bits(message_bytes);
    match base {
        2 => {
            let cal = calibrate(&cfg, &OnOffKeying, 6);
            let out = transmit_message(&cfg, &OnOffKeying, &Plain, &cal, &bits);
            MultibitOutcome {
                base,
                raw_kbps: out.result.raw_kbps(),
                error_probability: out.result.error_probability().min(0.5),
                capacity_kbps: out.result.capacity_kbps(),
            }
        }
        4 => {
            let m = MultiLevelAmplitude::new(4);
            let cal = calibrate(&cfg, &m, 6);
            let out = transmit_message(&cfg, &m, &Plain, &cal, &bits);
            MultibitOutcome {
                base,
                raw_kbps: out.result.raw_kbps(),
                error_probability: out.result.error_probability().min(0.5),
                capacity_kbps: out.result.capacity_kbps(),
            }
        }
        3 => run_ternary(&cfg, &bits),
        _ => panic!("supported bases: 2, 3, 4"),
    }
}

/// The ternary row: base-4 symbol stream folded into {0, 1, 2} (the
/// paper's 1.58 bits/symbol approximated by `log2(3)`), transmitted
/// over the shared synchronized wire and demodulated window by window.
fn run_ternary(cfg: &LinkConfig, bits: &[u8]) -> MultibitOutcome {
    let m = MultiLevelAmplitude::new(3);
    let cal = calibrate(cfg, &m, 6);
    let symbols: Vec<u8> = bits_to_symbols(bits, 4).iter().map(|&s| s % 3).collect();

    let payload = transmit_payload(cfg, &m, &cal, &symbols);
    let decoded: Vec<u8> = payload
        .observations
        .iter()
        .map(|o| m.symbol_of(o, &cal.bins))
        .collect();

    let errors = symbols.iter().zip(&decoded).filter(|(a, b)| a != b).count();
    let e = (errors as f64 / symbols.len().max(1) as f64).min(0.5);
    let raw_bps = m.bits_per_window() * symbols.len() as f64 / payload.seconds;
    MultibitOutcome {
        base: 3,
        raw_kbps: raw_bps / 1e3,
        error_probability: e,
        capacity_kbps: channel_capacity(raw_bps, e) / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_multibit_matches_the_plain_channel_minus_sync_overhead() {
        let out = run_multibit(2, 6, 11);
        // 48 payload windows + 7 preamble windows at 25 µs: the raw
        // rate is 40 Kbps scaled by 48/55.
        let expected = 40.0 * 48.0 / 55.0;
        assert!(
            (out.raw_kbps - expected).abs() < 0.5,
            "raw {} vs expected {expected}",
            out.raw_kbps
        );
        assert!(out.error_probability < 0.1, "e {}", out.error_probability);
    }

    #[test]
    fn quaternary_doubles_raw_rate_with_more_errors() {
        let bin = run_multibit(2, 6, 12);
        let quad = run_multibit(4, 6, 12);
        // 2x per payload window, diluted because the fixed-length
        // preamble weighs more against the shorter transmission
        // (48/55 vs 24/31 duty): 61.9 vs 34.9 Kbps at 6 bytes.
        assert!(
            quad.raw_kbps > 1.7 * bin.raw_kbps,
            "quaternary raw {} must be ~2x binary {}",
            quad.raw_kbps,
            bin.raw_kbps
        );
        assert!(
            quad.error_probability >= bin.error_probability,
            "quaternary e {} must be ≥ binary e {}",
            quad.error_probability,
            bin.error_probability
        );
    }

    #[test]
    fn ternary_rate_sits_between_binary_and_quaternary() {
        let tern = run_multibit(3, 6, 13);
        assert_eq!(tern.base, 3);
        assert!(tern.raw_kbps > 0.0);
        assert!(tern.error_probability <= 0.5);
        assert!(tern.capacity_kbps <= tern.raw_kbps);
    }

    #[test]
    #[should_panic]
    fn unsupported_base_panics() {
        let _ = run_multibit(5, 2, 1);
    }
}
