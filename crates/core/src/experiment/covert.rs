//! The covert-channel experiment runner (case studies 1 and 2).
//!
//! [`run_covert`] is an adapter over [`lh_link::transmit_windows`], the
//! one sender/receiver wire: it hands the wire [`CovertOptions::link`]
//! (no preamble, no receiver lead — the paper's sender and receiver
//! share the wall clock), thresholds the receiver's observations at
//! `Trecv` and scores them: decoded bits, error probability and
//! capacity (Eq. 1).
//!
//! The attack parameters (window, detection band, `Trecv`,
//! stop-on-detect) are not stated here: [`CovertOptions::new`] takes
//! them from [`LinkTuning::for_defense`], the one §12 attacker table,
//! for the channel's defense kind. Experiments that study a *different*
//! attacker (fig11, fig12, §9, §12) edit `link.tuning`.

use lh_analysis::{ChannelResult, MessagePattern};
use lh_defenses::{DefenseConfig, DefenseStats};
use lh_dram::Span;
use lh_link::{
    transmit_windows, Calibration, LinkConfig, LinkTuning, Modulator, OnOffKeying, PreambleSync,
};
use lh_sim::SimConfig;

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
    /// The wire the bits travel: the simulated system (`link.sim`, whose
    /// `seed` is the one seed of the transmission), the attacker's
    /// window, detection band, `Trecv` and think times (`link.tuning`),
    /// the §6.3 noise generator and the Figs. 5 / 8 co-runners.
    /// [`CovertOptions::new`] looks the tuning up for the channel's
    /// defense *at the default timing*: a caller that edits
    /// `link.sim.device.timing` (fig12) sets the detection band too.
    pub link: LinkConfig,
    /// Read by nothing: the transmission's seed is `link.sim.seed`. The
    /// field stays because the `benchmark/` package assigns it.
    pub seed: u64,
}

impl CovertOptions {
    /// Paper-default options for `kind` transmitting `bits`: no
    /// preamble (the receiver trusts the shared clock), no receiver
    /// lead, no noise, no co-runners.
    pub fn new(kind: ChannelKind, bits: Vec<u8>) -> CovertOptions {
        let sim = SimConfig::paper_default(kind.defense());
        CovertOptions {
            kind,
            bits,
            link: LinkConfig {
                tuning: LinkTuning::for_defense(
                    kind.defense().kind(),
                    &sim.device.timing,
                    Span::from_ns(30),
                ),
                sim,
                sync: PreambleSync::default(),
                noise_intensity: None,
                rx_lead_windows: 0,
                co_runners: Vec::new(),
            },
            seed: 1,
        }
    }
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

/// Runs one covert transmission: [`CovertOptions::bits`] on-off keyed
/// over the wire, one receiver window per bit.
///
/// # Panics
///
/// Panics if the system cannot be constructed (invalid configuration).
pub fn run_covert(opts: &CovertOptions) -> CovertOutcome {
    let tuning = &opts.link.tuning;
    let trecv = tuning.trecv;
    let intensity = OnOffKeying.intensity_table(tuning.think);
    let (wire, ()) = transmit_windows(
        &opts.link,
        intensity,
        &opts.bits,
        opts.bits.len(),
        |obs, log| log.record(0, obs, trecv),
    );
    let decoded = OnOffKeying.demodulate(&wire.observations, &Calibration::nominal(trecv));
    let seconds = (tuning.window * opts.bits.len() as u64).as_secs();
    CovertOutcome {
        result: ChannelResult::from_bits(&opts.bits, &decoded, seconds),
        decoded,
        per_window_events: wire.observations.iter().map(|o| o.events).collect(),
        backoffs: wire.backoffs,
        rfms: wire.rfms,
        defense_stats: wire.defense_stats,
    }
}

/// Transmits the four paper message patterns
/// ([`MessagePattern::paper_set`], `bits_per_pattern` bits each) over
/// `kind` and merges the results — the Fig. 4 methodology: a single
/// short pattern under-samples events whose inter-arrival time spans
/// several windows. `configure(i, opts)` edits pattern `i`'s
/// paper-default options; every kernel mixes its own per-pattern
/// `opts.link.sim.seed` there, so this is the one loop the per-pattern
/// seeds pass through.
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
                opts.link.noise_intensity = Some(intensity);
                opts.link.sim.seed = 2 ^ (i << 12) ^ (intensity as u64);
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
