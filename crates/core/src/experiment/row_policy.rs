//! §9 "effectiveness of existing mitigations": a strictly closed-row
//! policy kills the DRAMA row-buffer channel but *not* LeakyHammer.
//!
//! DRAMA's signal is the row-buffer state (hit vs conflict); a closed-row
//! policy makes every access a row miss and removes the signal.
//! LeakyHammer's signal is the *preventive action*: under a closed-row
//! policy every access is an activation, so the defense's counters climb
//! even faster and the channel survives.

use lh_analysis::ChannelResult;
use lh_attacks::{ChannelLayout, DramaConfig, DramaReceiver, DramaSender, LatencyClassifier};
use lh_defenses::DefenseConfig;
use lh_dram::{Span, Time};
use lh_memctrl::RowPolicy;
use lh_sim::{SimConfig, SystemBuilder};

use crate::experiment::covert::{run_covert, ChannelKind, CovertOptions};

/// Channel capacities under one row policy.
#[derive(Debug, Clone, Copy)]
pub struct RowPolicyPoint {
    /// The row policy.
    pub policy: RowPolicy,
    /// DRAMA row-buffer channel capacity (Kbps).
    pub drama_kbps: f64,
    /// LeakyHammer PRAC channel capacity (Kbps).
    pub leakyhammer_kbps: f64,
}

/// Runs the DRAMA baseline under `policy` and returns its capacity.
///
/// The sender touches its row *sparsely* (one access every 700 ns): each
/// touch flips the bank's row-buffer state, which is DRAMA's signal, while
/// keeping bank-bandwidth contention negligible. (An unthrottled sender
/// would morph DRAMA into a memory-*contention* channel that no row
/// policy can close — a different attack class the paper scopes out in
/// footnote 9.)
fn drama_capacity(policy: RowPolicy, bits: &[u8], seed: u64) -> f64 {
    let rx_think = Span::from_ns(150);
    let tx_think = Span::from_ns(700);
    let window = Span::from_us(4);
    let sim = SimConfig::paper_default(DefenseConfig::none());
    let cls = LatencyClassifier::from_timing(&sim.device.timing, rx_think);
    let mut sys = SystemBuilder::from_config(sim)
        .row_policy(policy)
        .seed(seed)
        .build()
        .expect("valid configuration");
    let layout = ChannelLayout::default_bank(sys.mapping());
    let tx = DramaSender::new(
        layout.sender_rows[0],
        window,
        Time::ZERO,
        tx_think,
        bits.to_vec(),
    );
    let rx = DramaReceiver::new(DramaConfig {
        row_addr: layout.receiver_row,
        window,
        start: Time::ZERO,
        n_windows: bits.len(),
        think: rx_think,
        conflict_threshold: cls.hit_max,
    });
    sys.add_process(Box::new(tx), 1, Time::ZERO);
    let rx_id = sys.add_process(Box::new(rx), 1, Time::ZERO);
    sys.run_until(Time::ZERO + window * (bits.len() as u64 + 1));
    let decoded = sys
        .process_as::<DramaReceiver>(rx_id)
        .expect("receiver present")
        .decode(0.15);
    let seconds = (window * bits.len() as u64).as_secs();
    ChannelResult::from_bits(bits, &decoded, seconds).capacity_kbps()
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
pub fn row_policy_point(policy: RowPolicy, bits_per_channel: usize, seed: u64) -> RowPolicyPoint {
    let bits = lh_analysis::MessagePattern::Checkered0.bits(bits_per_channel);
    RowPolicyPoint {
        policy,
        drama_kbps: drama_capacity(policy, &bits, seed),
        leakyhammer_kbps: leakyhammer_capacity(policy, &bits, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
