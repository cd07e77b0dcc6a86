//! Cache-hierarchy and prefetching sensitivity (§10.3).
//!
//! Reruns both covert channels on a system with a 256 KB L2, a 6 MB LLC
//! and Best-Offset prefetching; the paper finds small capacity reductions
//! (5.8 % for PRAC, 2.1 % for RFM) — the attacks bypass the caches with
//! `clflush`, so only second-order effects remain.

use lh_analysis::MessagePattern;
use lh_sim::{BopConfig, CacheConfig};

use crate::experiment::covert::{run_patterns, ChannelKind};

/// Capacity of one channel under the two hierarchies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CachePoint {
    /// Capacity with the Table 1 hierarchy (Kbps).
    pub(crate) baseline_kbps: f64,
    /// Capacity with the large hierarchy + prefetcher (Kbps).
    pub(crate) large_kbps: f64,
}

impl CachePoint {
    /// Relative capacity change (negative = reduction), in percent.
    pub(crate) fn change_pct(&self) -> f64 {
        if self.baseline_kbps == 0.0 {
            0.0
        } else {
            (self.large_kbps - self.baseline_kbps) / self.baseline_kbps * 100.0
        }
    }
}

fn capacity(kind: ChannelKind, large: bool, bits: usize, seed: u64) -> f64 {
    run_patterns(
        &kind.defense(),
        &MessagePattern::paper_set(),
        bits,
        |i, opts| {
            opts.link.sim.seed = seed ^ (i << 6);
            if large {
                opts.link.sim.caches = CacheConfig::large_hierarchy();
                opts.link.sim.prefetch = Some(BopConfig::paper_default());
            }
        },
    )
    .capacity_kbps()
}

/// One channel's §10.3 measurement (both hierarchies).
pub(crate) fn cache_point(kind: ChannelKind, bits_per_pattern: usize, seed: u64) -> CachePoint {
    CachePoint {
        baseline_kbps: capacity(kind, false, bits_per_pattern, seed),
        large_kbps: capacity(kind, true, bits_per_pattern, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_caches_do_not_prevent_the_channels() {
        for kind in [ChannelKind::Prac, ChannelKind::Rfm] {
            let p = cache_point(kind, 12, 8);
            assert!(
                p.large_kbps > 0.6 * p.baseline_kbps,
                "{kind:?}: large-hierarchy capacity {} vs baseline {}",
                p.large_kbps,
                p.baseline_kbps
            );
            assert!(p.baseline_kbps > 15.0, "{kind:?} baseline too low");
        }
    }
}
