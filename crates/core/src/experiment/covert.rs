//! The covert-channel experiment runner (case studies 1 and 2).
//!
//! [`run_covert`] wires a sender/receiver pair — plus optional noise
//! generator and SPEC-like co-runners — into a full system and measures
//! the channel: decoded bits, error probability and capacity (Eq. 1).
//!
//! The attack parameters (window, detection band, `Trecv`,
//! stop-on-detect) are not stated here: they come from
//! [`LinkTuning::for_defense`], the one §12 attacker table, looked up
//! for the channel's defense kind. Experiments that study a *different*
//! attacker (fig11, fig12, §9, §12) override `window`,
//! `detection_band` or `trecv` on [`CovertOptions`].

use lh_analysis::{ChannelResult, MessagePattern};
use lh_attacks::{
    ChannelLayout, CovertReceiver, CovertSender, LatencyClassifier, NoiseProcess, ReceiverConfig,
    SenderConfig,
};
use lh_defenses::{DefenseConfig, DefenseStats};
use lh_dram::{Span, Time};
use lh_link::LinkTuning;
use lh_memctrl::AddressMapping;
use lh_sim::{SimConfig, SystemBuilder};
use lh_workloads::{AppProfile, SyntheticApp};

/// Which LeakyHammer covert channel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// PRAC back-off channel (§6.3): 25 µs windows, `NBO` = 128.
    Prac,
    /// PRFM RFM channel (§7.3): 20 µs windows, `TRFM` = 40, `Trecv` = 3.
    Rfm,
}

impl ChannelKind {
    /// The paper's defense configuration for this channel.
    pub fn defense(&self) -> DefenseConfig {
        match self {
            ChannelKind::Prac => DefenseConfig::prac(128),
            ChannelKind::Rfm => DefenseConfig::prfm(40),
        }
    }
}

/// Options for one covert transmission.
#[derive(Debug, Clone)]
pub struct CovertOptions {
    /// Which channel.
    pub kind: ChannelKind,
    /// The bits to transmit.
    pub bits: Vec<u8>,
    /// Full system configuration (override for countermeasure and
    /// sensitivity studies).
    pub sim: SimConfig,
    /// Transmission window (defaults to the attacker's window against
    /// the channel's defense).
    pub window: Span,
    /// Noise-generator intensity (1–100 %), if any (§6.3 noise study).
    pub noise_intensity: Option<f64>,
    /// SPEC-like co-runners on extra cores (Figs. 5 / 8).
    pub co_runners: Vec<AppProfile>,
    /// Receiver detection band override.
    pub detection_band: Option<(Span, Span)>,
    /// `Trecv` override.
    pub trecv: Option<u32>,
    /// Loop overhead of the attack processes.
    pub think: Span,
    /// Receiver loop-overhead override. Under a strictly closed row
    /// policy the receiver throttles itself (every probe is an activation
    /// that increments its own row's counter; an unthrottled receiver
    /// triggers spurious back-offs in 0-windows).
    pub receiver_think: Option<Span>,
    /// §10.1 cadence-based refresh filter for the receiver.
    pub refresh_filter: Option<lh_attacks::RefreshFilterConfig>,
    /// Seed of the co-runners' access streams. It does not reach
    /// `sim.seed` (a defect the ROADMAP's paper-fidelity ledger records):
    /// a transmission without co-runners is the same for every value.
    pub seed: u64,
}

impl CovertOptions {
    /// Paper-default options for `kind` transmitting `bits`.
    pub fn new(kind: ChannelKind, bits: Vec<u8>) -> CovertOptions {
        let sim = SimConfig::paper_default(kind.defense());
        let think = Span::from_ns(30);
        CovertOptions {
            kind,
            bits,
            window: attacker_tuning(kind, &sim, think).window,
            sim,
            noise_intensity: None,
            co_runners: Vec::new(),
            detection_band: None,
            trecv: None,
            think,
            receiver_think: None,
            refresh_filter: None,
            seed: 1,
        }
    }
}

/// The §12 attacker's parameters against `kind`'s defense at the given
/// timing and think time.
fn attacker_tuning(kind: ChannelKind, sim: &SimConfig, think: Span) -> LinkTuning {
    LinkTuning::for_defense(kind.defense().kind(), &sim.device.timing, think)
}

/// Result of one covert transmission.
#[derive(Debug, Clone)]
pub struct CovertOutcome {
    /// Channel metrics (raw rate, error probability, capacity).
    pub result: ChannelResult,
    /// The decoded bit string.
    pub decoded: Vec<u8>,
    /// Events the receiver observed per window.
    pub per_window_events: Vec<u32>,
    /// Back-off recoveries the controller performed.
    pub backoffs: u64,
    /// RFM commands issued.
    pub rfms: u64,
    /// Defense counters, including the scheduling-pressure split of
    /// scheduled maintenance (taken exactly at the deadline vs deferred
    /// past it because the rank could not quiesce in time).
    pub defense_stats: DefenseStats,
}

/// Runs one covert transmission.
///
/// # Panics
///
/// Panics if the system cannot be constructed (invalid configuration).
pub fn run_covert(opts: &CovertOptions) -> CovertOutcome {
    let mut sys = SystemBuilder::from_config(opts.sim.clone())
        .build()
        .expect("valid system configuration");
    let cls = LatencyClassifier::from_timing(&opts.sim.device.timing, opts.think);
    // Looked up here, not in `CovertOptions::new`: callers edit the
    // timing (fig12) and replace `sim` (§12) after construction.
    let tuning = attacker_tuning(opts.kind, &opts.sim, opts.think);
    let (detect, detect_max) = opts
        .detection_band
        .unwrap_or((tuning.detect, tuning.detect_max));
    let trecv = opts.trecv.unwrap_or(tuning.trecv);
    let layout = ChannelLayout::default_bank(sys.mapping());
    let start = Time::ZERO;
    let end = start + opts.window * (opts.bits.len() as u64 + 1);

    let tx = CovertSender::new(SenderConfig::binary(
        layout.sender_rows,
        opts.window,
        start,
        opts.think,
        cls.backoff_threshold(),
        tuning.sleep_after_detect,
        opts.bits.clone(),
    ));
    let rx = CovertReceiver::new(ReceiverConfig {
        row_addr: layout.receiver_row,
        window: opts.window,
        start,
        n_windows: opts.bits.len(),
        think: opts.receiver_think.unwrap_or(opts.think),
        detect,
        detect_max,
        sleep_after_detect: tuning.sleep_after_detect,
        refresh_filter: opts.refresh_filter,
    });
    sys.add_process(Box::new(tx), 1, start);
    let rx_id = sys.add_process(Box::new(rx), 1, start);

    if let Some(intensity) = opts.noise_intensity {
        let noise = NoiseProcess::from_intensity(layout.noise_rows.to_vec(), intensity, end);
        sys.add_process(Box::new(noise), 1, start);
    }
    let mapping: AddressMapping = *sys.mapping();
    for (i, profile) in opts.co_runners.iter().enumerate() {
        let app = SyntheticApp::new(profile.clone(), mapping, opts.seed ^ (i as u64 + 7), end);
        let mlp = app.mlp();
        sys.add_process(Box::new(app), mlp, start);
    }

    sys.run_until(end);

    // Reserve the flight segment before borrowing the receiver: the
    // symbol-window events below must land on this system's timeline.
    let flight_seg = lh_obs::flight::active().then(|| sys.flight_seg());
    let rx_proc = sys
        .process_as::<CovertReceiver>(rx_id)
        .expect("receiver present");
    let decoded = rx_proc.decode_binary(trecv);
    if let Some(seg) = flight_seg {
        lh_link::emit_link_events(
            seg,
            opts.window,
            0,
            &opts.bits,
            rx_proc.observations(),
            trecv,
        );
    }
    let per_window_events = rx_proc.observations().iter().map(|o| o.events).collect();
    let seconds = (opts.window * opts.bits.len() as u64).as_secs();
    let result = ChannelResult::from_bits(&opts.bits, &decoded, seconds);
    CovertOutcome {
        result,
        decoded,
        per_window_events,
        backoffs: sys.controller().stats().backoffs,
        rfms: sys.controller().stats().rfms,
        defense_stats: sys.controller().defense_stats(),
    }
}

/// Transmits the four paper message patterns
/// ([`MessagePattern::paper_set`], `bits_per_pattern` bits each) over
/// `kind` and merges the results — the Fig. 4 methodology: a single
/// short pattern under-samples events whose inter-arrival time spans
/// several windows. `configure(i, opts)` edits pattern `i`'s
/// paper-default options; every kernel sets its own `opts.seed` mix
/// there, so this is the one loop the per-pattern seeds pass through —
/// and the place the `.seed(opts.seed)` of the ROADMAP's paper-fidelity
/// ledger item goes once the seed is to reach `SimConfig::seed`.
pub fn run_patterns(
    kind: ChannelKind,
    bits_per_pattern: usize,
    mut configure: impl FnMut(u64, &mut CovertOptions),
) -> ChannelResult {
    let results: Vec<ChannelResult> = MessagePattern::paper_set()
        .iter()
        .zip(0..)
        .map(|(pattern, i)| {
            let mut opts = CovertOptions::new(kind, pattern.bits(bits_per_pattern));
            configure(i, &mut opts);
            run_covert(&opts).result
        })
        .collect();
    ChannelResult::merge(&results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_analysis::message::bits_of_str;

    #[test]
    fn prac_channel_fig3_micro() {
        let opts = CovertOptions::new(ChannelKind::Prac, bits_of_str("MICRO"));
        let out = run_covert(&opts);
        assert_eq!(out.decoded, opts.bits, "Fig. 3 transmission must be exact");
        assert_eq!(out.result.bit_errors, 0);
        // Raw bit rate: 1 bit / 25 µs = 40 Kbps (paper reports 39.0 after
        // sync overheads).
        assert!((out.result.raw_kbps() - 40.0).abs() < 1.0);
        assert!(
            out.backoffs >= 15,
            "one back-off per 1-bit, got {}",
            out.backoffs
        );
    }

    #[test]
    fn rfm_channel_fig6_micro() {
        let opts = CovertOptions::new(ChannelKind::Rfm, bits_of_str("MICRO"));
        let out = run_covert(&opts);
        assert_eq!(out.decoded, opts.bits, "Fig. 6 transmission must be exact");
        // 1 bit / 20 µs = 50 Kbps raw (paper: 48.7).
        assert!((out.result.raw_kbps() - 50.0).abs() < 1.5);
        assert!(out.rfms > 30);
    }

    #[test]
    fn noise_degrades_the_prac_channel_monotonically_at_extremes() {
        let run_at = |intensity: f64| {
            run_patterns(ChannelKind::Prac, 16, |i, opts| {
                opts.noise_intensity = Some(intensity);
                opts.seed = 2 ^ (i << 12) ^ (intensity as u64);
            })
            .error_probability()
        };
        let e_quiet = run_at(1.0);
        let e_loud = run_at(100.0);
        assert!(
            e_loud > e_quiet,
            "max noise must hurt more: quiet e={e_quiet}, loud e={e_loud}"
        );
        assert!(
            e_quiet < 0.15,
            "1% noise keeps the channel usable, e={e_quiet}"
        );
    }

    #[test]
    fn pattern_merge_aggregates_bits() {
        let merged = run_patterns(ChannelKind::Prac, 12, |_, _| {});
        assert_eq!(merged.bits, 48);
        assert!(merged.error_probability() < 0.2);
    }
}
