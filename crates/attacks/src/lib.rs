//! # lh-attacks — the LeakyHammer attack programs
//!
//! Implementations of every attack the paper builds:
//!
//! * [`LatencyClassifier`] — the Fig. 2 latency bands (hit / conflict /
//!   RFM / refresh / back-off) an attacker uses to decode events;
//! * [`CovertSender`] / [`CovertReceiver`] — the window-synchronized
//!   covert channels over PRAC back-offs (§6.3) and PRFM RFMs (§7.3),
//!   including the multibit (ternary/quaternary) sender intensity
//!   tables; demodulation beyond the binary threshold lives in the
//!   `lh-link` link layer;
//! * [`NoiseProcess`] — the §6.3 noise-generator microbenchmark (Eq. 2);
//! * [`FingerprintProbe`] / [`Fingerprint`] — the §8 website
//!   fingerprinting routine (Listing 2) and its feature extraction;
//! * [`CounterLeakAttacker`] — the §9.1 activation-counter value leak;
//! * [`ChannelLayout`] — row/bank placement helpers (memory massaging).
//!
//! The DRAMA row-buffer baseline LeakyHammer is compared against in §9
//! and Table 3 is no program of its own: it is a configuration of the
//! same sender/receiver pair (a receiver whose band starts at the
//! row-hit latency, a sparse sender, a fraction-of-probes decoder),
//! which `leakyhammer`'s row-policy experiment runs over `lh-link`'s
//! wire.
//!
//! ## Example: a 3-bit PRAC covert transmission
//!
//! ```
//! use lh_attacks::{ChannelLayout, CovertReceiver, CovertSender, LatencyClassifier,
//!                  ReceiverConfig, SenderConfig};
//! use lh_defenses::DefenseConfig;
//! use lh_dram::{Span, Time};
//! use lh_sim::SystemBuilder;
//!
//! let mut sys = SystemBuilder::new(DefenseConfig::prac(128)).build().unwrap();
//! let layout = ChannelLayout::default_bank(sys.mapping());
//! let cls = LatencyClassifier::from_timing(&lh_dram::DramTiming::ddr5_4800(), Span::from_ns(30));
//! let bits = vec![1, 0, 1];
//! let window = Span::from_us(25);
//! let tx = CovertSender::new(SenderConfig::binary(
//!     layout.sender_rows, window, Time::ZERO, Span::from_ns(30),
//!     cls.backoff_threshold(), true, bits.clone(),
//! ));
//! let rx = CovertReceiver::new(ReceiverConfig {
//!     row_addr: layout.receiver_row, window, start: Time::ZERO, n_windows: bits.len(),
//!     think: Span::from_ns(30), detect: cls.backoff_threshold(), detect_max: Span::MAX,
//!     sleep_after_detect: true, refresh_filter: None,
//! });
//! sys.add_process(Box::new(tx), 1, Time::ZERO);
//! let rx_id = sys.add_process(Box::new(rx), 1, Time::ZERO);
//! sys.run_until(Time::ZERO + window * 4);
//! let rx = sys.process_as::<CovertReceiver>(rx_id).unwrap();
//! let decoded: Vec<u8> = rx.observations().iter().map(|o| u8::from(o.events >= 1)).collect();
//! assert_eq!(decoded, bits);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod classify;
mod counter_leak;
mod covert;
mod fingerprint;
mod layout;
mod noisegen;

pub use classify::{LatencyClass, LatencyClassifier};
pub use counter_leak::{CounterLeakAttacker, CounterLeakResult, CounterLeakVictim};
pub use covert::{
    CovertReceiver, CovertSender, ReceiverConfig, RefreshFilterConfig, SenderConfig,
    WindowObservation,
};
pub use fingerprint::{Fingerprint, FingerprintProbe};
pub use layout::ChannelLayout;
pub use noisegen::NoiseProcess;

#[cfg(test)]
mod tests {
    use super::*;
    use lh_analysis::bits_of_str;
    use lh_defenses::DefenseConfig;
    use lh_dram::{DramTiming, Span, Time};
    use lh_sim::{SimConfig, SystemBuilder};

    const THINK: Span = Span::from_ns(30);

    fn classifier() -> LatencyClassifier {
        LatencyClassifier::from_timing(&DramTiming::ddr5_4800(), THINK)
    }

    /// Sets up a system and the standard sender/receiver pair; returns the
    /// decoded bits.
    fn run_channel(
        defense: DefenseConfig,
        bits: &[u8],
        window: Span,
        detect: Span,
        detect_max: Span,
        trecv: u32,
        sleep_after_detect: bool,
    ) -> Vec<u8> {
        let mut sys = SystemBuilder::new(defense).build().unwrap();
        let layout = ChannelLayout::default_bank(sys.mapping());
        let tx = CovertSender::new(SenderConfig::binary(
            layout.sender_rows,
            window,
            Time::ZERO,
            THINK,
            classifier().backoff_threshold(),
            sleep_after_detect,
            bits.to_vec(),
        ));
        let rx = CovertReceiver::new(ReceiverConfig {
            row_addr: layout.receiver_row,
            window,
            start: Time::ZERO,
            n_windows: bits.len(),
            think: THINK,
            detect,
            detect_max,
            sleep_after_detect,
            refresh_filter: None,
        });
        sys.add_process(Box::new(tx), 1, Time::ZERO);
        let rx_id = sys.add_process(Box::new(rx), 1, Time::ZERO);
        sys.run_until(Time::ZERO + window * (bits.len() as u64 + 1));
        sys.process_as::<CovertReceiver>(rx_id)
            .unwrap()
            .observations()
            .iter()
            .map(|o| u8::from(o.events >= trecv))
            .collect()
    }

    #[test]
    fn prac_channel_transmits_micro_error_free() {
        let bits = bits_of_str("MICRO");
        let decoded = run_channel(
            DefenseConfig::prac(128),
            &bits,
            Span::from_us(25),
            classifier().backoff_threshold(),
            Span::MAX,
            1,
            true,
        );
        assert_eq!(
            decoded, bits,
            "PRAC covert channel must decode MICRO exactly"
        );
    }

    #[test]
    fn rfm_channel_transmits_micro_error_free() {
        let bits = bits_of_str("MICRO");
        let cls = classifier();
        let decoded = run_channel(
            DefenseConfig::prfm(40),
            &bits,
            Span::from_us(20),
            cls.rfm_threshold(),
            cls.rfm_max,
            3,
            false,
        );
        assert_eq!(
            decoded, bits,
            "RFM covert channel must decode MICRO exactly"
        );
    }

    #[test]
    fn no_defense_means_no_channel() {
        // Without a RowHammer defense the receiver sees no back-off-class
        // events, so everything decodes to zero.
        let bits = bits_of_str("M");
        let decoded = run_channel(
            DefenseConfig::none(),
            &bits,
            Span::from_us(25),
            classifier().backoff_threshold(),
            Span::MAX,
            1,
            true,
        );
        assert_eq!(decoded, vec![0; 8]);
    }

    #[test]
    fn fr_rfm_closes_the_channel() {
        // Under FR-RFM, preventive actions happen on a fixed schedule:
        // 1) the PRAC-style decoder sees no back-off-class events at all,
        // and 2) the RFM-style decoder sees ≥Trecv events in *every*
        // window regardless of the transmitted bit — every window decodes
        // to the same symbol, i.e. zero information. (The residual
        // possibility of *missing* events under contention is the memory
        // contention channel the paper scopes out in footnote 9.)
        let t_rc = DramTiming::ddr5_4800().t_rc;
        let cls = classifier();
        let bits = bits_of_str("MICRO");
        let prac_style = run_channel(
            DefenseConfig::fr_rfm(64, t_rc),
            &bits,
            Span::from_us(25),
            cls.backoff_threshold(),
            Span::MAX,
            1,
            true,
        );
        assert_eq!(
            prac_style,
            vec![0; 40],
            "FR-RFM must produce no back-off events"
        );
        // 2) The RFM-band decoder's output carries (essentially) zero
        // information: error probability ≈ 0.5, i.e. the §11.4 claim that
        // FR-RFM reduces channel capacity by 100 %. (Whatever correlation
        // remains rides on row-buffer contention, which exists without
        // any defense — the DRAMA scope, excluded by footnote 9.)
        let rfm_style = run_channel(
            DefenseConfig::fr_rfm(64, t_rc),
            &bits,
            Span::from_us(25),
            cls.rfm_threshold(),
            cls.rfm_max,
            3,
            false,
        );
        let seconds = (Span::from_us(25) * 40).as_secs();
        let r = lh_analysis::ChannelResult::from_bits(&bits, &rfm_style, seconds);
        assert!(
            r.capacity() < 0.1 * r.raw_bit_rate,
            "FR-RFM must collapse capacity: e={:.2}, capacity {:.1} bps of {:.1} raw",
            r.error_probability(),
            r.capacity(),
            r.raw_bit_rate
        );
    }

    #[test]
    fn counter_leak_recovers_victim_activation_count() {
        let mut cfg = SimConfig::paper_default(DefenseConfig::prac(128));
        cfg.defense.prac_mut().unwrap().nbo = 128;
        let mut sys = SystemBuilder::from_config(cfg).build().unwrap();
        let layout = ChannelLayout::default_bank(sys.mapping());
        let secret = 60u32;
        // Victim activates the shared row `secret` times, finishing well
        // before the attacker starts at 40 us.
        let victim =
            CounterLeakVictim::new(layout.sender_rows[0], layout.sender_rows[1], secret, THINK);
        let attacker = CounterLeakAttacker::new(
            layout.sender_rows[0],
            layout.receiver_row,
            THINK,
            classifier().backoff_threshold(),
            Time::from_us(40),
        );
        sys.add_process(Box::new(victim), 1, Time::ZERO);
        let aid = sys.add_process(Box::new(attacker), 1, Time::ZERO);
        sys.run_until(Time::from_us(200));
        let result = sys
            .process_as::<CounterLeakAttacker>(aid)
            .unwrap()
            .result()
            .expect("attacker must observe a back-off");
        let estimate = result.estimate_victim(128);
        let err = estimate.abs_diff(secret);
        assert!(
            err <= 8,
            "estimated {estimate} vs secret {secret} (attacker did {} acts)",
            result.own_activations
        );
    }

    #[test]
    fn drama_baseline_works_without_any_defense() {
        let mut sys = SystemBuilder::new(DefenseConfig::none()).build().unwrap();
        let layout = ChannelLayout::default_bank(sys.mapping());
        let bits = bits_of_str("OK");
        let window = Span::from_us(4);
        let cls = classifier();
        // DRAMA is the covert pair with a band from the row-hit
        // latency up: every probe the sender's accesses turn into a
        // row-buffer conflict counts.
        let tx = CovertSender::new(SenderConfig::binary(
            layout.sender_rows,
            window,
            Time::ZERO,
            THINK,
            cls.backoff_threshold(),
            false,
            bits.clone(),
        ));
        let rx = CovertReceiver::new(ReceiverConfig {
            row_addr: layout.receiver_row,
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
        // A window decodes 1 when at least 30 % of its probes conflict.
        let decoded: Vec<u8> = sys
            .process_as::<CovertReceiver>(rx_id)
            .unwrap()
            .observations()
            .iter()
            .map(|o| (o.accesses > 0 && f64::from(o.events) >= 0.3 * f64::from(o.accesses)) as u8)
            .collect();
        assert_eq!(decoded, bits, "DRAMA row-buffer channel must work");
    }

    #[test]
    fn fingerprint_probe_avoids_triggering_backoffs() {
        // The probe alone (T = NBO-1 accesses per row, mostly row hits)
        // must not cause back-offs.
        let mut sys = SystemBuilder::new(DefenseConfig::prac(128))
            .build()
            .unwrap();
        let layout = ChannelLayout::default_bank(sys.mapping());
        let probe = FingerprintProbe::new(
            vec![layout.receiver_row, layout.noise_rows[0]],
            127,
            THINK,
            Time::from_us(300),
        );
        sys.add_process(Box::new(probe), 1, Time::ZERO);
        sys.run_until(Time::from_us(350));
        assert_eq!(
            sys.controller().stats().backoffs,
            0,
            "the probe must stay below the back-off threshold"
        );
    }

    #[test]
    fn fingerprint_probe_observes_other_processes_backoffs() {
        let mut sys = SystemBuilder::new(DefenseConfig::prac(128))
            .build()
            .unwrap();
        let layout = ChannelLayout::default_bank(sys.mapping());
        // A hammering "victim" in another bank triggers back-offs...
        let victim_rows = {
            let m = sys.mapping();
            let a = m.decode(layout.other_bank_row);
            [
                layout.other_bank_row,
                m.encode(lh_dram::DramAddr::new(a.bank, a.row + 7, 0)),
            ]
        };
        let hammer = NoiseProcess::new(victim_rows.to_vec(), Span::from_ns(30), Time::from_us(300));
        // ...the probe observes them from its own bank (channel-wide
        // blocking).
        let probe =
            FingerprintProbe::new(vec![layout.receiver_row], 127, THINK, Time::from_us(300));
        sys.add_process(Box::new(hammer), 1, Time::ZERO);
        let pid = sys.add_process(Box::new(probe), 1, Time::ZERO);
        sys.run_until(Time::from_us(350));
        assert!(
            sys.controller().stats().backoffs > 0,
            "victim must trigger back-offs"
        );
        let trace = sys.process_as::<FingerprintProbe>(pid).unwrap().trace();
        let fp = Fingerprint::from_trace(trace, &classifier(), Time::ZERO, Span::from_us(300));
        assert!(
            !fp.events.is_empty(),
            "the probe must observe the victim's back-offs cross-bank"
        );
    }
}
