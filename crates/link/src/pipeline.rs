//! The end-to-end link pipeline: calibrate, transmit, receive, decode.
//!
//! One pipeline runs every (defense × modulator × codec) combination:
//! the defense arrives as a plain [`DefenseConfig`] and is built into
//! the simulated system through the `Defense`-trait seam, so nothing
//! here knows which mechanism produces the observable maintenance
//! events — only [`LinkTuning`] does, and it is data.

use lh_analysis::ChannelResult;
use lh_attacks::{
    ChannelLayout, CovertReceiver, CovertSender, LatencyClassifier, NoiseProcess, ReceiverConfig,
    RefreshFilterConfig, SenderConfig, WindowObservation,
};
use lh_defenses::{DefenseConfig, DefenseKind, DefenseStats};
use lh_dram::{DramTiming, Span, Time};
use lh_sim::{SimConfig, SystemBuilder};
use lh_workloads::{AppProfile, SyntheticApp};

use crate::codec::Codec;
use crate::modem::{Calibration, Modulator};
use crate::sync::{Alignment, PreambleSync};

/// The attack loop's think time (loop overhead per access) against
/// every defense: the sender's full-intensity pace, and the receiver's
/// unless [`LinkTuning::receiver_think`] overrides it.
pub const ATTACK_THINK: Span = Span::from_ns(30);

/// Receiver/sender attack parameters an adaptive attacker picks per
/// defense: which latency band the preventive action lands in, how long
/// a window must be, and whether both sides should stop touching the
/// bank once the action fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTuning {
    /// Transmission-window length.
    pub window: Span,
    /// Lower edge of the receiver's detection band.
    pub detect: Span,
    /// Upper edge (exclusive) of the detection band.
    pub detect_max: Span,
    /// Default "on" threshold before calibration refines it.
    pub trecv: u32,
    /// Stop accessing for the rest of the window after an event
    /// (PRAC-family behaviour; counting channels keep probing).
    pub sleep_after_detect: bool,
    /// Receiver loop-overhead override (`None`: [`ATTACK_THINK`]). Under a
    /// strictly closed row policy every probe is an activation of the
    /// receiver's own row, so the receiver throttles itself or triggers
    /// back-offs in 0-windows.
    pub receiver_think: Option<Span>,
    /// §10.1 cadence-based refresh filter for the receiver.
    pub refresh_filter: Option<RefreshFilterConfig>,
}

impl LinkTuning {
    /// The tuning an adaptive attacker uses against `kind`, mirroring
    /// the §12 per-class analysis. This is the one per-defense attacker
    /// table: every transmission over [`transmit_windows`] starts from
    /// its window, detection band, `Trecv` and stop-on-detect, and
    /// `leakyhammer`'s `run_covert` rides that wire too.
    ///
    /// * PRAC family — the multi-RFM back-off band, stop-on-detect;
    /// * PRFM — the RFM band with the paper's `Trecv` = 3;
    /// * victim-refresh trackers (Graphene/Hydra/CoMeT/PARA) — the
    ///   single-RFM band (an in-bank ACT+PRE pair per victim refresh);
    /// * FR-RFM / MINT / no defense — the attacker's best guess is the
    ///   RFM band (there is nothing defense-triggered to see);
    /// * BlockHammer — the throttle *delay*, orders of magnitude above
    ///   any DRAM latency, with a correspondingly longer window.
    pub fn for_defense(kind: DefenseKind, timing: &DramTiming) -> LinkTuning {
        let cls = LatencyClassifier::from_timing(timing, ATTACK_THINK);
        match kind {
            DefenseKind::Prac | DefenseKind::PracRiac | DefenseKind::PracBank => LinkTuning {
                window: Span::from_us(25),
                detect: cls.backoff_threshold(),
                detect_max: Span::MAX,
                trecv: 1,
                sleep_after_detect: true,
                receiver_think: None,
                refresh_filter: None,
            },
            DefenseKind::Prfm => LinkTuning {
                window: Span::from_us(20),
                detect: cls.rfm_threshold(),
                detect_max: cls.rfm_max,
                trecv: 3,
                sleep_after_detect: false,
                receiver_think: None,
                refresh_filter: None,
            },
            DefenseKind::Graphene | DefenseKind::Hydra | DefenseKind::Comet | DefenseKind::Para => {
                LinkTuning {
                    window: Span::from_us(25),
                    detect: cls.conflict_max,
                    detect_max: cls.rfm_max,
                    trecv: 1,
                    sleep_after_detect: false,
                    receiver_think: None,
                    refresh_filter: None,
                }
            }
            DefenseKind::None | DefenseKind::FrRfm | DefenseKind::Mint => LinkTuning {
                window: Span::from_us(25),
                detect: cls.conflict_max,
                detect_max: cls.rfm_max,
                trecv: 3,
                sleep_after_detect: false,
                receiver_think: None,
                refresh_filter: None,
            },
            DefenseKind::BlockHammer => LinkTuning {
                window: Span::from_us(250),
                detect: Span::from_us(5),
                detect_max: Span::MAX,
                trecv: 1,
                sleep_after_detect: false,
                receiver_think: None,
                refresh_filter: None,
            },
        }
    }
}

/// A fully specified link over one defense.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// The simulated system: the defense under attack, the
    /// countermeasure wrappers deployed over it (the attacker
    /// calibrates and transmits against the *mitigated* system — an
    /// adaptive-adversary model) and `seed`, the one seed of a
    /// transmission (defense draws and co-runner streams).
    pub sim: SimConfig,
    /// Per-defense attack parameters.
    pub tuning: LinkTuning,
    /// Synchronizer (preamble + search space).
    pub sync: PreambleSync,
    /// Noise-generator intensity (1–100 %), if any.
    pub noise_intensity: Option<f64>,
    /// Windows the receiver starts observing *before* the sender
    /// transmits — the misalignment the synchronizer must recover.
    pub rx_lead_windows: usize,
    /// SPEC-like co-runners on extra cores (Figs. 5 / 8); co-runner `i`
    /// draws its access stream from `sim.seed ^ (i + 7)`.
    pub co_runners: Vec<AppProfile>,
}

impl LinkConfig {
    /// A link against `kind` provisioned for RowHammer threshold `nrh`,
    /// with the default Barker-7 synchronizer and a 2-window receiver
    /// lead.
    pub fn against(kind: DefenseKind, nrh: u32, seed: u64) -> LinkConfig {
        let timing = DramTiming::ddr5_4800();
        LinkConfig {
            sim: SimConfig {
                seed,
                ..SimConfig::paper_default(DefenseConfig::for_threshold(kind, nrh, &timing))
            },
            tuning: LinkTuning::for_defense(kind, &timing),
            sync: PreambleSync::barker7(4),
            noise_intensity: None,
            rx_lead_windows: 2,
            co_runners: Vec::new(),
        }
    }
}

/// Everything one transmission produced.
#[derive(Debug, Clone)]
pub struct LinkOutcome {
    /// The message bits handed to the codec.
    pub sent: Vec<u8>,
    /// The message bits recovered after sync, demodulation and
    /// decoding (same length as `sent`).
    pub decoded: Vec<u8>,
    /// Channel metrics over the *message* bits, with the raw rate
    /// charged for every transmitted window — preamble and code
    /// redundancy included.
    pub result: ChannelResult,
    /// The alignment the synchronizer recovered.
    pub alignment: Alignment,
    /// Frames the codec delimited / rejected (CRC-framed codecs only).
    pub frames: usize,
    /// Frames whose integrity check failed.
    pub frame_errors: usize,
    /// Total windows transmitted (preamble + modulated payload).
    pub windows: usize,
    /// Back-off recoveries the controller performed.
    pub backoffs: u64,
    /// RFM commands issued.
    pub rfms: u64,
    /// Defense counters.
    pub defense_stats: DefenseStats,
}

/// What the wire produced for one raw symbol schedule.
#[derive(Debug, Clone)]
pub struct WireOutcome {
    /// The receiver's per-window observations (`rx_windows` of them,
    /// starting `rx_lead_windows` before the sender's first window).
    pub observations: Vec<WindowObservation>,
    /// Back-off recoveries the controller performed.
    pub backoffs: u64,
    /// RFM commands issued.
    pub rfms: u64,
    /// Defense counters.
    pub defense_stats: DefenseStats,
}

/// The flight-log view of one transmission's symbol schedule, handed to
/// the reader of [`transmit_windows`] while the wire's system is still
/// alive: the window events land before the system's final flush.
#[derive(Debug)]
pub struct SymbolLog<'a> {
    /// The system's flight segment (`None` when not recording).
    seg: Option<u64>,
    window: Span,
    /// Windows before the sender's first symbol.
    lead: usize,
    symbols: &'a [u8],
}

impl SymbolLog<'_> {
    /// Records one [`lh_obs::FlightEvent::Link`] per read symbol: the
    /// sender's schedule from symbol `first` on (what was meant) against
    /// the receiver's `observations` of those symbols (what the
    /// maintenance channel delivered), classified "on" at `trecv`
    /// events. Each event spans its symbol's window on the sender's
    /// clock, so it sorts alongside the system's command and
    /// maintenance events. This is the only place a symbol window
    /// becomes a flight event.
    pub fn record(&self, first: usize, observations: &[WindowObservation], trecv: u32) {
        let Some(seg) = self.seg else { return };
        let link_events = self.symbols[first..]
            .iter()
            .zip(observations)
            .enumerate()
            .map(|(i, (&symbol, o))| {
                let t0 = self.window * (self.lead + first + i) as u64;
                let verdict = match (symbol != 0, o.events >= trecv) {
                    (true, true) => "hit",
                    (true, false) => "miss",
                    (false, true) => "false-positive",
                    (false, false) => "idle",
                };
                lh_obs::FlightEvent::Link {
                    t_ns: t0.as_ps() / 1_000,
                    t_end_ns: (t0 + self.window).as_ps() / 1_000,
                    window: i as u64,
                    symbol: u64::from(symbol),
                    events: u64::from(o.events),
                    verdict,
                }
            })
            .collect();
        lh_obs::flight::emit_batch(seg, link_events, std::collections::BTreeMap::new());
    }
}

/// Runs the sender/receiver pair over a raw per-window symbol schedule
/// and returns the receiver's observations plus controller counters,
/// together with what `read` made of the observations.
///
/// This is the one wire: [`calibrate`], [`transmit_payload`] (and
/// through it [`transmit_message`]) and `leakyhammer`'s `run_covert`
/// all build their sender/receiver system here. The receiver observes
/// `rx_windows` windows from time 0, the sender starts
/// `rx_lead_windows` windows later, and the run ends one window after
/// the receiver's last. When `sleep_after_detect` holds, the sender
/// stops at the back-off threshold of the system's own timing. A noise
/// process runs when `noise_intensity` is above zero.
///
/// `read` sees the observations while the system is still alive and
/// records, through its [`SymbolLog`], the symbol windows the
/// transmission reports.
///
/// # Panics
///
/// Panics if the system configuration cannot be built, or a symbol has
/// no entry in `intensity`.
pub fn transmit_windows<R>(
    cfg: &LinkConfig,
    intensity: Vec<Option<Span>>,
    symbols: &[u8],
    rx_windows: usize,
    read: impl FnOnce(&[WindowObservation], &SymbolLog) -> R,
) -> (WireOutcome, R) {
    let tuning = &cfg.tuning;
    let window = tuning.window;
    // Nothing on the wire reads the read-disturb ground truth.
    let mut sys = SystemBuilder::from_config(cfg.sim.clone())
        .disturb_tracking(false)
        .build()
        .expect("valid link system configuration");
    let layout = ChannelLayout::default_bank(sys.mapping());
    let end = Time::ZERO + window * (rx_windows as u64 + 1);
    let cls = LatencyClassifier::from_timing(&cfg.sim.device.timing, ATTACK_THINK);
    let tx = CovertSender::new(SenderConfig {
        rows: layout.sender_rows,
        window,
        start: Time::ZERO + window * cfg.rx_lead_windows as u64,
        detect: cls.backoff_threshold(),
        stop_after_detect: tuning.sleep_after_detect,
        symbols: symbols.to_vec(),
        intensity,
    });
    let rx = CovertReceiver::new(ReceiverConfig {
        row_addr: layout.receiver_row,
        window,
        start: Time::ZERO,
        n_windows: rx_windows,
        think: tuning.receiver_think.unwrap_or(ATTACK_THINK),
        detect: tuning.detect,
        detect_max: tuning.detect_max,
        sleep_after_detect: tuning.sleep_after_detect,
        refresh_filter: tuning.refresh_filter,
    });
    sys.add_process(Box::new(tx), 1, Time::ZERO);
    let rx_id = sys.add_process(Box::new(rx), 1, Time::ZERO);
    if let Some(intensity) = cfg.noise_intensity.filter(|&i| i > 0.0) {
        let noise = NoiseProcess::from_intensity(layout.noise_rows.to_vec(), intensity, end);
        sys.add_process(Box::new(noise), 1, Time::ZERO);
    }
    let mapping = *sys.mapping();
    for (i, profile) in cfg.co_runners.iter().enumerate() {
        let app = SyntheticApp::new(profile.clone(), mapping, cfg.sim.seed ^ (i as u64 + 7), end);
        let mlp = app.mlp();
        sys.add_process(Box::new(app), mlp, Time::ZERO);
    }
    sys.run_until(end);

    let log = SymbolLog {
        seg: lh_obs::flight::active().then(|| sys.flight_seg()),
        window,
        lead: cfg.rx_lead_windows,
        symbols,
    };
    let observations = sys
        .process_as::<CovertReceiver>(rx_id)
        .expect("receiver present")
        .observations()
        .to_vec();
    let reading = read(&observations, &log);
    let stats = sys.controller().stats();
    let wire = WireOutcome {
        observations,
        backoffs: stats.backoffs,
        rfms: stats.rfms,
        defense_stats: sys.controller().defense_stats(),
    };
    (wire, reading)
}

/// Calibrates the receiver's decision parameters against the link's
/// defense: an alternating on/idle transmission yields the `trecv`
/// threshold (midpoint of the on/idle event means), and — for
/// multi-level modulators — a level-cycling transmission yields the
/// amplitude bins, exactly as the §6.3 multibit calibration did.
///
/// This is the expensive per-defense step the harness runs once as a
/// baseline unit and feeds to every dependent sweep cell.
pub fn calibrate(cfg: &LinkConfig, modulator: &dyn Modulator, reps: usize) -> Calibration {
    // Threshold part: on/idle alternation with the modulator's hardest
    // symbol.
    let on = modulator.on_symbol();
    let mut symbols = Vec::with_capacity(reps * 2);
    for _ in 0..reps {
        symbols.push(on);
        symbols.push(0);
    }
    let n = symbols.len();
    let mut caldef = cfg.clone();
    caldef.rx_lead_windows = 0;
    caldef.sim.seed = cfg.sim.seed ^ 0xCA11;
    let intensity = modulator.intensity_table(ATTACK_THINK);
    let obs = transmit_windows(&caldef, intensity, &symbols, n, |_, _| ())
        .0
        .observations;
    let mean = |want_on: bool| {
        let events: Vec<f64> = symbols
            .iter()
            .zip(&obs)
            .filter(|(&s, _)| (s == on) == want_on)
            .map(|(_, o)| f64::from(o.events))
            .collect();
        events.iter().sum::<f64>() / events.len().max(1) as f64
    };
    let (on_events, off_events) = (mean(true), mean(false));
    let trecv = if on_events > off_events {
        (((on_events + off_events) / 2.0).ceil() as u32).max(1)
    } else {
        // Indistinguishable (the defense closes the channel): keep the
        // tuning default so decoding degenerates honestly instead of
        // thresholding at 0 and decoding all-ones.
        cfg.tuning.trecv
    };

    // Amplitude part: cycle the non-idle levels and learn the bin
    // boundaries between adjacent symbols' access counts.
    let levels = modulator.symbol_levels();
    let mut bins = Vec::new();
    if levels > 2 {
        let mut symbols = Vec::new();
        for _ in 0..reps {
            for s in 1..levels {
                symbols.push(s);
            }
        }
        let n = symbols.len();
        let mut calmla = cfg.clone();
        calmla.rx_lead_windows = 0;
        calmla.sim.seed = cfg.sim.seed ^ 0xB145;
        let intensity = modulator.intensity_table(ATTACK_THINK);
        let obs = transmit_windows(&calmla, intensity, &symbols, n, |_, _| ())
            .0
            .observations;
        let mut means = Vec::new();
        for s in 1..levels {
            let counts: Vec<f64> = symbols
                .iter()
                .zip(&obs)
                .filter(|(&sym, o)| sym == s && o.events > 0)
                .map(|(_, o)| f64::from(o.accesses_before_event))
                .collect();
            means.push(if counts.is_empty() {
                0.0
            } else {
                counts.iter().sum::<f64>() / counts.len() as f64
            });
        }
        for w in means.windows(2) {
            bins.push(((w[0] + w[1]) / 2.0).round() as u32);
        }
        bins.sort_unstable();
    }
    Calibration {
        trecv,
        bins,
        on_events,
        off_events,
    }
}

/// A synchronized symbol-domain transmission: the preamble+payload
/// schedule went over the wire, the preamble was searched for, and the
/// payload observations were extracted under the found alignment.
#[derive(Debug, Clone)]
pub struct PayloadOutcome {
    /// The aligned payload observations, one per payload window.
    pub observations: Vec<WindowObservation>,
    /// The alignment the synchronizer recovered.
    pub alignment: Alignment,
    /// Total windows transmitted (preamble + payload).
    pub windows: usize,
    /// Wall-clock seconds those windows occupied — the denominator
    /// every rate is charged against, preamble overhead included.
    pub seconds: f64,
    /// The raw wire outcome (full observation stream + counters).
    pub wire: WireOutcome,
}

/// Transmits `payload_symbols` behind the synchronizer's preamble
/// (pattern 1 → the modulator's hardest symbol, 0 → idle), recovers
/// the alignment, and extracts the payload observations.
///
/// [`transmit_message`] and symbol-domain callers (the ternary §6.3
/// row) share this path, so the schedule shape, receiver margin and
/// rate accounting cannot drift apart between them.
///
/// # Panics
///
/// Panics if the defense configuration cannot be built into a system.
pub fn transmit_payload(
    cfg: &LinkConfig,
    modulator: &dyn Modulator,
    cal: &Calibration,
    payload_symbols: &[u8],
) -> PayloadOutcome {
    let on = modulator.on_symbol();
    let mut symbols: Vec<u8> = cfg
        .sync
        .pattern
        .iter()
        .map(|&p| if p == 1 { on } else { 0 })
        .collect();
    symbols.extend(payload_symbols);
    let windows = symbols.len();
    let rx_windows = cfg.rx_lead_windows + windows + 1;
    let intensity = modulator.intensity_table(ATTACK_THINK);
    let (wire, (alignment, observations)) =
        transmit_windows(cfg, intensity, &symbols, rx_windows, |obs, log| {
            let alignment = cfg.sync.align(obs, cal);
            let payload = cfg
                .sync
                .extract_payload(obs, &alignment, payload_symbols.len());
            log.record(cfg.sync.pattern.len(), &payload, cal.trecv);
            (alignment, payload)
        });
    PayloadOutcome {
        observations,
        alignment,
        windows,
        // Charge every window on the wire: preamble and code redundancy
        // are link overhead, so low-rate configurations honestly show
        // lower raw (and thus peak) throughput.
        seconds: (cfg.tuning.window * windows as u64).as_secs(),
        wire,
    }
}

/// Transmits `message` through codec → modulator → simulated system →
/// synchronizer → demodulator → decoder and scores the round trip.
///
/// # Panics
///
/// Panics if the defense configuration cannot be built into a system.
pub fn transmit_message(
    cfg: &LinkConfig,
    modulator: &dyn Modulator,
    codec: &dyn Codec,
    cal: &Calibration,
    message: &[u8],
) -> LinkOutcome {
    let coded = codec.encode(message);
    let payload_symbols = modulator.modulate(&coded);
    let payload = transmit_payload(cfg, modulator, cal, &payload_symbols);

    let mut recovered = modulator.demodulate(&payload.observations, cal);
    recovered.truncate(coded.len());
    recovered.resize(coded.len(), 0);
    let decoded_full = codec.decode(&recovered);
    let mut decoded = decoded_full.bits;
    decoded.truncate(message.len());
    decoded.resize(message.len(), 0);

    let result = ChannelResult::from_bits(message, &decoded, payload.seconds);
    LinkOutcome {
        sent: message.to_vec(),
        decoded,
        result,
        alignment: payload.alignment,
        frames: decoded_full.frames,
        frame_errors: decoded_full.frame_errors,
        windows: payload.windows,
        backoffs: payload.wire.backoffs,
        rfms: payload.wire.rfms,
        defense_stats: payload.wire.defense_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CrcFramed, Hamming74, Plain, Repetition};
    use crate::modem::{MultiLevelAmplitude, OnOffKeying, PulsePosition};
    use lh_analysis::message::bits_of_str;

    #[test]
    fn ook_plain_link_over_prac_recovers_the_message() {
        let cfg = LinkConfig::against(DefenseKind::Prac, 256, 1);
        let cal = calibrate(&cfg, &OnOffKeying, 6);
        assert!(cal.separable(), "PRAC calibration must separate on/off");
        let msg = bits_of_str("HI");
        let out = transmit_message(&cfg, &OnOffKeying, &Plain, &cal, &msg);
        assert!(out.alignment.locked(), "{:?}", out.alignment);
        assert_eq!(out.alignment.offset, cfg.rx_lead_windows);
        assert_eq!(out.decoded, msg, "OOK over PRAC must be error-free");
        assert_eq!(out.result.bit_errors, 0);
    }

    #[test]
    fn repetition_coding_survives_where_plain_does_not_necessarily() {
        let mut cfg = LinkConfig::against(DefenseKind::Prac, 256, 2);
        cfg.noise_intensity = Some(60.0);
        let cal = calibrate(&cfg, &OnOffKeying, 6);
        let msg = bits_of_str("OK");
        let rep = transmit_message(&cfg, &OnOffKeying, &Repetition::new(3), &cal, &msg);
        let plain = transmit_message(&cfg, &OnOffKeying, &Plain, &cal, &msg);
        assert!(
            rep.result.bit_errors <= plain.result.bit_errors,
            "repetition ({} errors) must not lose to plain ({} errors)",
            rep.result.bit_errors,
            plain.result.bit_errors
        );
        // The redundancy shows up as a lower raw rate.
        assert!(rep.result.raw_bit_rate < plain.result.raw_bit_rate);
    }

    #[test]
    fn ppm_and_hamming_compose_over_prfm() {
        let cfg = LinkConfig::against(DefenseKind::Prfm, 256, 3);
        let cal = calibrate(&cfg, &PulsePosition::new(4), 6);
        let msg = bits_of_str("Y");
        let out = transmit_message(&cfg, &PulsePosition::new(4), &Hamming74, &cal, &msg);
        assert!(out.alignment.locked());
        assert_eq!(out.decoded, msg, "PPM+Hamming over PRFM must round-trip");
    }

    #[test]
    fn mla_link_carries_two_bits_per_window() {
        // NBO 56 (NRH 128): every amplitude level reliably crosses the
        // back-off threshold within one window, so the levels separate.
        // At looser provisioning the weak levels straddle windows and
        // the symbol error rate climbs — that regime is what the
        // chansweep BER curves chart, not what this test pins.
        let cfg = LinkConfig::against(DefenseKind::Prac, 128, 4);
        let m = MultiLevelAmplitude::new(4);
        let cal = calibrate(&cfg, &m, 6);
        assert_eq!(cal.bins.len(), 2, "4 levels need 2 bins: {:?}", cal.bins);
        let msg = bits_of_str("Zq");
        let out = transmit_message(&cfg, &m, &Plain, &cal, &msg);
        let e = out.result.error_probability();
        assert!(e < 0.1, "MLA over tight PRAC must decode, e={e}");
        // Twice OOK's per-window rate at the same window length.
        assert!((m.bits_per_window() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn crc_framing_reports_packet_integrity() {
        let cfg = LinkConfig::against(DefenseKind::Prac, 256, 5);
        let cal = calibrate(&cfg, &OnOffKeying, 6);
        let msg = bits_of_str("AB");
        let out = transmit_message(&cfg, &OnOffKeying, &CrcFramed::new(8), &cal, &msg);
        assert_eq!(out.frames, 2);
        if out.result.bit_errors == 0 {
            assert_eq!(out.frame_errors, 0);
        } else {
            assert!(out.frame_errors > 0, "bit errors must fail a CRC");
        }
    }

    #[test]
    fn fr_rfm_closes_every_modulation() {
        let cfg = LinkConfig::against(DefenseKind::FrRfm, 256, 6);
        let cal = calibrate(&cfg, &OnOffKeying, 6);
        assert!(!cal.separable(), "FR-RFM must not separate on/off: {cal:?}");
        let msg = bits_of_str("SECRET")[..16].to_vec();
        let out = transmit_message(&cfg, &OnOffKeying, &Plain, &cal, &msg);
        // Half the bits wrong is zero information; allow a wide band
        // around it but require the capacity collapse.
        assert!(
            out.result.capacity() < 0.15 * out.result.raw_bit_rate,
            "FR-RFM capacity must collapse: e={} cap={}",
            out.result.error_probability(),
            out.result.capacity()
        );
    }

    #[test]
    fn tuning_covers_every_defense_kind() {
        let timing = DramTiming::ddr5_4800();
        for kind in DefenseKind::all() {
            let t = LinkTuning::for_defense(kind, &timing);
            assert!(t.window >= Span::from_us(20));
            assert!(t.detect < t.detect_max);
            assert!(t.trecv >= 1);
        }
    }
}
