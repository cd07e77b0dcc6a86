//! Activation-counter value leakage (§9.1).
//!
//! A victim activates a shared row a secret number of times; the attacker
//! then hammers the same row until the PRAC back-off fires and infers the
//! secret from its own activation count. The paper reports leaking a
//! 7-bit counter value in 13.6 µs on average (≈501 Kbps).

use lh_attacks::{ChannelLayout, CounterLeakAttacker, CounterLeakVictim, LatencyClassifier};
use lh_defenses::DefenseConfig;
use lh_dram::{Span, Time};
use lh_sim::{SimConfig, SystemBuilder};

/// One trial's result.
#[derive(Debug, Clone, Copy)]
pub struct LeakTrial {
    /// The victim's secret activation count.
    pub secret: u32,
    /// The attacker's estimate.
    pub estimate: u32,
    /// Time the attacker spent measuring.
    pub elapsed: Span,
}

/// Aggregate over many trials.
#[derive(Debug, Clone)]
pub struct CounterLeakOutcome {
    /// The back-off threshold used.
    pub(crate) nbo: u32,
    /// All trials.
    pub trials: Vec<LeakTrial>,
    /// Mean absolute estimation error (activations).
    pub(crate) mean_abs_error: f64,
    /// Mean measurement time in µs.
    pub(crate) mean_elapsed_us: f64,
    /// Leakage throughput in Kbps (log2(NBO) bits per measurement).
    pub(crate) throughput_kbps: f64,
}

/// Runs `trials` counter-leak measurements with secrets spread over
/// `8..NBO-8`.
pub fn run_counter_leak(trials: usize, seed: u64) -> CounterLeakOutcome {
    let nbo = 128u32;
    let think = Span::from_ns(30);
    let mut out = Vec::new();
    for t in 0..trials {
        let secret = 8 + ((seed ^ (t as u64).wrapping_mul(0x9e37_79b9)) % (nbo as u64 - 16)) as u32;
        let sim = SimConfig::paper_default(DefenseConfig::prac(nbo));
        let cls = LatencyClassifier::from_timing(&sim.device.timing, think);
        let mut sys = SystemBuilder::from_config(sim)
            .seed(seed ^ t as u64)
            .build()
            .expect("valid configuration");
        let layout = ChannelLayout::default_bank(sys.mapping());
        let victim =
            CounterLeakVictim::new(layout.sender_rows[0], layout.sender_rows[1], secret, think);
        let attacker = CounterLeakAttacker::new(
            layout.sender_rows[0],
            layout.receiver_row,
            think,
            cls.backoff_threshold(),
            Time::from_us(60),
        );
        sys.add_process(Box::new(victim), 1, Time::ZERO);
        let aid = sys.add_process(Box::new(attacker), 1, Time::ZERO);
        sys.run_until(Time::from_us(300));
        if let Some(result) = sys
            .process_as::<CounterLeakAttacker>(aid)
            .expect("attacker present")
            .result()
        {
            out.push(LeakTrial {
                secret,
                estimate: result.estimate_victim(nbo),
                elapsed: result.elapsed,
            });
        }
    }
    let mean_abs_error = out
        .iter()
        .map(|t| t.secret.abs_diff(t.estimate) as f64)
        .sum::<f64>()
        / out.len().max(1) as f64;
    let mean_elapsed_us =
        out.iter().map(|t| t.elapsed.as_us()).sum::<f64>() / out.len().max(1) as f64;
    let bits = (nbo as f64).log2();
    let throughput_kbps = if mean_elapsed_us > 0.0 {
        bits / (mean_elapsed_us * 1e-6) / 1e3
    } else {
        0.0
    };
    CounterLeakOutcome {
        nbo,
        trials: out,
        mean_abs_error,
        mean_elapsed_us,
        throughput_kbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leak_recovers_secrets_with_small_error() {
        let out = run_counter_leak(6, 21);
        assert_eq!(out.trials.len(), 6, "every trial must observe a back-off");
        assert!(
            out.mean_abs_error <= 10.0,
            "mean |error| {} activations",
            out.mean_abs_error
        );
    }

    #[test]
    fn throughput_is_hundreds_of_kbps() {
        // §9.1: 7 bits in ~13.6 µs ≈ 501 Kbps. Our loop overheads differ,
        // but the order of magnitude must match.
        let out = run_counter_leak(4, 9);
        assert!(
            (100.0..2_000.0).contains(&out.throughput_kbps),
            "throughput {} Kbps",
            out.throughput_kbps
        );
        assert!(
            out.mean_elapsed_us < 40.0,
            "elapsed {} µs",
            out.mean_elapsed_us
        );
    }
}
