//! §9 "effectiveness of existing mitigations": a strictly closed-row
//! policy kills the DRAMA row-buffer channel but *not* LeakyHammer.
//!
//! DRAMA (Pessl et al., USENIX Security'16) transmits by modulating
//! *row-buffer state*: sender and receiver colocate in one bank, the
//! receiver times repeated accesses to its own row, and while the
//! sender is active (accessing another row of the bank) those accesses
//! turn from row hits into row-buffer conflicts. A closed-row policy
//! makes every access a row miss and removes the signal. LeakyHammer's
//! signal is the *preventive action*: under a closed-row policy every
//! access is an activation, so the defense's counters climb even faster
//! and the channel survives.
//!
//! Both channels ride the one wire, [`lh_link::transmit_windows`]:
//! DRAMA is that wire with a conflict-band receiver, a sparse sender
//! and a fraction decoder.
//!
//! The scope claims — LeakyHammer crosses bank groups where DRAMA does
//! not, and Bank-Level PRAC (§11.3) shrinks LeakyHammer back to one
//! bank — need the receiver in another bank group and a lead-in before
//! the first window, which the wire does not offer:
//! [`cross_bank_observations`] runs that pair off it.

use lh_analysis::ChannelResult;
use lh_attacks::{
    ChannelLayout, CovertReceiver, CovertSender, LatencyClassifier, ReceiverConfig,
    RefreshFilterConfig, SenderConfig, WindowObservation,
};
use lh_defenses::DefenseConfig;
use lh_dram::{Span, Time};
use lh_link::{transmit_windows, LinkConfig, LinkTuning, PreambleSync};
use lh_memctrl::RowPolicy;
use lh_sim::{SimConfig, System};

use crate::experiment::covert::{run_covert, ChannelKind, CovertOptions};

/// Channel capacities under one row policy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowPolicyPoint {
    /// DRAMA row-buffer channel capacity (Kbps).
    pub(crate) drama_kbps: f64,
    /// LeakyHammer PRAC channel capacity (Kbps).
    pub(crate) leakyhammer_kbps: f64,
}

/// The DRAMA receiver's loop overhead per probe.
const DRAMA_THINK: Span = Span::from_ns(150);

/// The share of a window's probes that must land in the conflict band
/// for the window to decode 1.
const DRAMA_FRACTION: f64 = 0.15;

/// DRAMA's decision rule: a window decodes 1 when at least
/// [`DRAMA_FRACTION`] of its probes were conflicts; a window with no
/// probes decodes 0.
fn drama_decode(observations: &[WindowObservation]) -> Vec<u8> {
    observations
        .iter()
        .map(|o| {
            (o.accesses > 0 && f64::from(o.events) / f64::from(o.accesses) >= DRAMA_FRACTION) as u8
        })
        .collect()
}

/// Runs the DRAMA baseline under `policy` and returns its capacity.
///
/// DRAMA needs no defense, a short window (a single conflict suffices)
/// and a receiver that counts every probe slower than a row hit. The
/// sender touches its rows *sparsely* (one access every 700 ns): each
/// touch flips the bank's row-buffer state, which is DRAMA's signal,
/// while keeping bank-bandwidth contention negligible. (An unthrottled
/// sender would morph DRAMA into a memory-*contention* channel that no
/// row policy can close — a different attack class the paper scopes out
/// in footnote 9.)
fn drama_capacity(policy: RowPolicy, bits: &[u8], seed: u64) -> f64 {
    let mut sim = SimConfig::paper_default(DefenseConfig::none());
    sim.ctrl.row_policy = policy;
    sim.seed = seed;
    let cls = LatencyClassifier::from_timing(&sim.device.timing, DRAMA_THINK);
    let link = LinkConfig {
        tuning: LinkTuning {
            window: Span::from_us(4),
            detect: cls.hit_max,
            detect_max: Span::MAX,
            // Unused: windows decode by the fraction rule.
            trecv: 1,
            sleep_after_detect: false,
            receiver_think: Some(DRAMA_THINK),
            refresh_filter: None,
        },
        sim,
        sync: PreambleSync::default(),
        noise_intensity: None,
        rx_lead_windows: 0,
        co_runners: Vec::new(),
    };
    let intensity = vec![None, Some(Span::from_ns(700))];
    let (wire, ()) = transmit_windows(&link, intensity, bits, bits.len(), |_, _| ());
    let seconds = (link.tuning.window * bits.len() as u64).as_secs();
    ChannelResult::from_bits(bits, &drama_decode(&wire.observations), seconds).capacity_kbps()
}

/// Runs the LeakyHammer PRAC channel under `policy`.
///
/// Under the strictly closed policy every probe is an activation, so the
/// attacker adapts (as a real attacker would): the receiver throttles its
/// probe rate so its own row stays below `NBO` per window while the
/// (unthrottled) sender still drives back-offs. The 1.4 µs back-off
/// remains trivially visible at a 0.5 µs probe period.
fn leakyhammer_capacity(policy: RowPolicy, bits: &[u8], seed: u64) -> f64 {
    let mut opts = CovertOptions::new(ChannelKind::Prac, bits.to_vec());
    opts.link.sim.ctrl.row_policy = policy;
    opts.link.sim.seed = seed;
    if policy == RowPolicy::Closed {
        opts.link.tuning.receiver_think = Some(Span::from_ns(420));
    }
    run_covert(&opts).result.capacity_kbps()
}

/// The §9 comparison under one row policy: both channels.
pub(crate) fn row_policy_point(
    policy: RowPolicy,
    bits_per_channel: usize,
    seed: u64,
) -> RowPolicyPoint {
    let bits = lh_analysis::MessagePattern::Checkered0.bits(bits_per_channel);
    RowPolicyPoint {
        drama_kbps: drama_capacity(policy, &bits, seed),
        leakyhammer_kbps: leakyhammer_capacity(policy, &bits, seed),
    }
}

/// The channel a [`cross_bank_observations`] run carries.
#[derive(Debug, Clone)]
pub enum CrossBank {
    /// LeakyHammer under `defense`: the sender hammers until the
    /// receiver sees a back-off, and both sleep out the window. With
    /// `filter` the receiver also runs the §10.1 cadence filter: rare
    /// refresh+contention stacks brush the back-off band from below,
    /// and they are the only in-band candidates when the defense's
    /// back-off is invisible from the receiver's bank.
    LeakyHammer {
        /// The defense whose back-off carries the signal.
        defense: DefenseConfig,
        /// Whether the receiver runs the §10.1 cadence filter.
        filter: bool,
    },
    /// DRAMA's row-buffer channel, undefended: the receiver counts every
    /// probe slower than a row hit.
    Drama,
}

/// Runs one cross-bank transmission of `bits` — the receiver probes a
/// row in a *different bank group* than the sender's, the isolation a
/// bank-partitioned system enforces — and returns the receiver's
/// per-window observations. Decoding is the caller's.
///
/// Windows are 30 µs, wider than the same-bank channel's 25 µs: the
/// receiver's probes do not conflict with the sender, so the sender's
/// own alternating accesses must supply all ~255 activations (~25 µs
/// alone). LeakyHammer transmits from 20 µs, which lets the
/// controller's start-of-time refresh catch-up (a back-off-sized
/// latency stack) complete before the first window, so plain magnitude
/// detection suffices; the receiver sleeps until then. DRAMA transmits
/// from time 0.
pub fn cross_bank_observations(channel: CrossBank, bits: &[u8]) -> Vec<WindowObservation> {
    const THINK: Span = Span::from_ns(30);
    let window = Span::from_us(30);
    let drama = matches!(channel, CrossBank::Drama);
    let (defense, start, filter) = match channel {
        CrossBank::LeakyHammer { defense, filter } => (defense, Time::from_us(20), filter),
        CrossBank::Drama => (DefenseConfig::none(), Time::ZERO, false),
    };
    let sim = SimConfig::paper_default(defense);
    let cls = LatencyClassifier::from_timing(&sim.device.timing, THINK);
    let refresh_filter = filter.then(|| RefreshFilterConfig::from_timing(&sim.device.timing));
    let mut sys = System::new(sim).expect("the paper configuration is valid");
    let layout = ChannelLayout::default_bank(sys.mapping());
    let tx = CovertSender::new(SenderConfig::binary(
        layout.sender_rows,
        window,
        start,
        THINK,
        cls.backoff_threshold(),
        !drama,
        bits.to_vec(),
    ));
    let rx = CovertReceiver::new(ReceiverConfig {
        row_addr: layout.other_bank_row,
        window,
        start,
        n_windows: bits.len(),
        think: THINK,
        detect: if drama {
            cls.hit_max
        } else {
            cls.backoff_threshold()
        },
        detect_max: Span::MAX,
        sleep_after_detect: !drama,
        refresh_filter,
    });
    sys.add_process(Box::new(tx), 1, Time::ZERO);
    let rx_id = sys.add_process(Box::new(rx), 1, Time::ZERO);
    sys.run_until(start + window * (bits.len() as u64 + 1));
    sys.process_as::<CovertReceiver>(rx_id)
        .expect("the receiver was added")
        .observations()
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(events: u32, accesses: u32) -> WindowObservation {
        WindowObservation {
            events,
            accesses_before_event: 0,
            accesses,
        }
    }

    #[test]
    fn decode_counts_conflicts_per_window() {
        let observations = [
            // Three conflict-latency probes.
            window(3, 3),
            // Hits only.
            window(0, 3),
            // No probe completed: nothing to decode.
            window(0, 0),
            // The fraction's edge: 3 of 20 is 15 %, 2 of 20 is not.
            window(3, 20),
            window(2, 20),
        ];
        assert_eq!(drama_decode(&observations), vec![1, 0, 0, 1, 0]);
    }

    #[test]
    fn closed_page_kills_drama_but_not_leakyhammer() {
        let open = row_policy_point(RowPolicy::Open, 24, 7);
        let closed = row_policy_point(RowPolicy::Closed, 24, 7);
        // DRAMA needs the open-row state: works under Open, dies under
        // Closed.
        assert!(
            open.drama_kbps > 50.0,
            "DRAMA open-page {}",
            open.drama_kbps
        );
        assert!(
            closed.drama_kbps < open.drama_kbps * 0.2,
            "closed page must kill DRAMA: {} vs {}",
            closed.drama_kbps,
            open.drama_kbps
        );
        // LeakyHammer survives the closed-row policy (§9).
        assert!(
            closed.leakyhammer_kbps > 0.7 * open.leakyhammer_kbps,
            "LeakyHammer must survive closed page: {} vs {}",
            closed.leakyhammer_kbps,
            open.leakyhammer_kbps
        );
        assert!(closed.leakyhammer_kbps > 20.0);
    }
}
