//! `link` and `attacks` drivers: the link pipeline's calibration and
//! transmission against two defenses, the codecs, and the paper's two
//! headline transmissions — the only place the model meets an external
//! reference.

use std::hint::black_box;

use leakyhammer::analysis::{bits_of_str, str_of_bits};
use leakyhammer::experiment::covert::{run_covert, ChannelKind, CovertOptions};
use lh_defenses::DefenseKind;
use lh_link::{
    calibrate, transmit_payload, Codec, CrcFramed, Hamming74, LinkConfig, Modulator, OnOffKeying,
    PulsePosition, Repetition,
};

use crate::layers::{timed, Rng};
use crate::report::Report;
use crate::workloads::covert_channels::{capacity_err, check_capacity_err, PAPER_KBPS};
use crate::workloads::RunConfig;

/// The provisioning point of `chansweep` and `mitsweep`.
const NRH: u32 = 128;
/// Calibration repetitions per symbol level (the quick sweeps').
const CALIBRATION_REPS: usize = 4;
/// Message bits sent per link.
const PAYLOAD_BITS: usize = 16;
/// Message bits per codec round trip.
const CODEC_BITS: usize = 1 << 16;

pub fn drive(cfg: &RunConfig, report: &mut Report) {
    let mut rng = Rng::new(cfg.seed);
    let message: Vec<u8> = (0..PAYLOAD_BITS).map(|_| rng.below(2) as u8).collect();

    type Link = (DefenseKind, Box<dyn Modulator>, Box<dyn Codec>);
    let links: [Link; 2] = [
        (
            DefenseKind::Prac,
            Box::new(OnOffKeying),
            Box::new(Repetition::new(3)),
        ),
        (
            DefenseKind::Prfm,
            Box::new(PulsePosition::new(4)),
            Box::new(Hamming74),
        ),
    ];
    let (mut calibrate_s, mut transmit_s, mut windows) = (0.0, 0.0, 0);
    for (kind, modulator, codec) in &links {
        let link = LinkConfig::against(*kind, NRH, cfg.seed);
        let (calibration, secs) = timed(|| calibrate(&link, modulator.as_ref(), CALIBRATION_REPS));
        calibrate_s += secs;
        let symbols = modulator.modulate(&codec.encode(&message));
        let (sent, secs) =
            timed(|| transmit_payload(&link, modulator.as_ref(), &calibration, &symbols));
        transmit_s += secs;
        windows += sent.windows;
    }
    report.metric("link.calibrate_s", calibrate_s);
    report.metric("link.transmit_s", transmit_s);
    report.metric("link.host_us_per_window", transmit_s * 1e6 / windows as f64);

    let long: Vec<u8> = (0..CODEC_BITS).map(|_| rng.below(2) as u8).collect();
    let codecs: [Box<dyn Codec>; 3] = [
        Box::new(Repetition::new(3)),
        Box::new(Hamming74),
        Box::new(CrcFramed::new(8)),
    ];
    let mut intact = true;
    let ((), codec_s) = timed(|| {
        for codec in &codecs {
            let decoded = codec.decode(&codec.encode(&long));
            intact &= decoded.bits[..long.len()] == long[..];
            black_box(decoded.frames);
        }
    });
    report
        .checks
        .check("every codec round-trips a clean message", intact);
    report.metric(
        "link.codec_ns_per_bit",
        codec_s * 1e9 / (codecs.len() * CODEC_BITS) as f64,
    );

    let micro = bits_of_str("MICRO");
    let mut covert_s = 0.0;
    let mut worst_err: f64 = 0.0;
    for (name, kind, (job, paper_kbps)) in [
        ("prac", ChannelKind::Prac, PAPER_KBPS[0]),
        ("rfm", ChannelKind::Rfm, PAPER_KBPS[1]),
    ] {
        let mut options = CovertOptions::new(kind, micro.clone());
        options.seed = cfg.seed;
        let (out, secs) = timed(|| run_covert(&options));
        covert_s += secs;
        report.metric_for("attacks.covert_run_s", name, secs);
        report.checks.check(
            &format!("the {job} transmission decodes MICRO"),
            str_of_bits(&out.decoded) == "MICRO",
        );
        worst_err = worst_err.max(capacity_err(out.result.capacity_kbps(), paper_kbps));
    }
    report.metric(
        "attacks.host_us_per_bit",
        covert_s * 1e6 / (2 * micro.len()) as f64,
    );
    report.metric("attacks.paper_capacity_err", worst_err);
    check_capacity_err(&mut report.checks, worst_err);
}
