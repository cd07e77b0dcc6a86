//! Best-Offset hardware prefetcher (Michaud, HPCA 2016), simplified.
//!
//! Used by the §10.3 sensitivity study. The prefetcher observes the miss
//! stream of one core, learns the best line offset `D` by scoring
//! candidate offsets against a recent-requests table, and emits a
//! prefetch for `X + D` on every (miss or prefetched-hit) access to `X`
//! while the learned score is above the activation threshold.

/// Best-Offset prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BopConfig {
    /// Candidate offsets to score (in cache lines).
    pub(crate) max_offset: i64,
    /// Rounds a candidate must win to become the active offset.
    pub(crate) score_max: u32,
    /// Minimum winning score for prefetching to be active at all.
    pub(crate) bad_score: u32,
    /// Recent-requests table size (entries).
    pub(crate) rr_size: usize,
}

impl BopConfig {
    /// The configuration used by the paper's sensitivity study (a standard
    /// small Best-Offset setup).
    pub fn paper_default() -> BopConfig {
        BopConfig {
            max_offset: 8,
            score_max: 31,
            bad_score: 1,
            rr_size: 64,
        }
    }
}

impl Default for BopConfig {
    fn default() -> BopConfig {
        BopConfig::paper_default()
    }
}

/// Best-Offset prefetcher state for one core.
///
/// # Examples
///
/// ```
/// use lh_sim::{BestOffsetPrefetcher, BopConfig};
///
/// let mut p = BestOffsetPrefetcher::new(BopConfig::paper_default());
/// // A clean stride-1 stream quickly trains offset 1.
/// let mut prefetches = 0;
/// for i in 0..200u64 {
///     prefetches += p.on_miss(i * 64).is_some() as u32;
/// }
/// assert!(prefetches > 0);
/// ```
#[derive(Debug, Clone)]
pub struct BestOffsetPrefetcher {
    config: BopConfig,
    /// Recent requests: line addresses recently *filled*.
    rr: Vec<u64>,
    rr_pos: usize,
    /// Scores per candidate offset (1..=max_offset, then negatives).
    offsets: Vec<i64>,
    scores: Vec<u32>,
    /// Index of the offset currently being tested.
    test_idx: usize,
    /// The active prefetch offset (lines) and whether prefetching is on.
    active_offset: i64,
    enabled: bool,
    round: u32,
}

impl BestOffsetPrefetcher {
    /// Builds a prefetcher.
    pub fn new(config: BopConfig) -> BestOffsetPrefetcher {
        let mut offsets: Vec<i64> = (1..=config.max_offset).collect();
        offsets.extend((1..=config.max_offset / 2).map(|d| -d));
        let n = offsets.len();
        BestOffsetPrefetcher {
            config,
            rr: Vec::with_capacity(config.rr_size),
            rr_pos: 0,
            offsets,
            scores: vec![0; n],
            test_idx: 0,
            active_offset: 1,
            enabled: false,
            round: 0,
        }
    }

    /// The currently learned offset in lines (meaningful when enabled).
    #[cfg(test)]
    pub(crate) fn active_offset(&self) -> i64 {
        self.active_offset
    }

    /// Whether prefetching is currently active.
    #[cfg(test)]
    fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records that the line of `addr` was filled (demand or prefetch);
    /// feeds the recent-requests table.
    pub(crate) fn on_fill(&mut self, addr: u64) {
        let line = addr / lh_dram::LINE_BYTES;
        if self.rr.len() < self.config.rr_size {
            self.rr.push(line);
        } else {
            self.rr[self.rr_pos] = line;
            self.rr_pos = (self.rr_pos + 1) % self.config.rr_size;
        }
    }

    /// Observes a demand miss to `addr`; returns the address to prefetch,
    /// if prefetching is active.
    pub fn on_miss(&mut self, addr: u64) -> Option<u64> {
        let line = (addr / lh_dram::LINE_BYTES) as i64;
        // Learning: would the tested offset have predicted this miss?
        // I.e. is `line - offset` in the recent-requests table?
        let tested = self.offsets[self.test_idx];
        let base = line - tested;
        if base >= 0 && self.rr.contains(&(base as u64)) {
            self.scores[self.test_idx] += 1;
            if self.scores[self.test_idx] >= self.config.score_max {
                self.adopt_best();
            }
        }
        self.test_idx = (self.test_idx + 1) % self.offsets.len();
        if self.test_idx == 0 {
            self.round += 1;
            if self.round >= 4 {
                self.adopt_best();
            }
        }
        self.on_fill(addr);
        // Prediction.
        if self.enabled {
            let target = line + self.active_offset;
            if target >= 0 {
                return Some(target as u64 * lh_dram::LINE_BYTES);
            }
        }
        None
    }

    fn adopt_best(&mut self) {
        let (best_idx, &best_score) = self
            .scores
            .iter()
            .enumerate()
            .max_by_key(|&(i, s)| (*s, core::cmp::Reverse(i)))
            .expect("non-empty scores");
        self.enabled = best_score > self.config.bad_score;
        if self.enabled {
            self.active_offset = self.offsets[best_idx];
        }
        self.scores.iter_mut().for_each(|s| *s = 0);
        self.round = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_one_stream_trains_offset_one() {
        let mut p = BestOffsetPrefetcher::new(BopConfig::paper_default());
        let mut issued = 0;
        for i in 0..300u64 {
            issued += usize::from(p.on_miss(i * 64).is_some());
        }
        assert!(
            p.is_enabled(),
            "sequential stream must activate prefetching"
        );
        assert_eq!(p.active_offset(), 1);
        assert!(issued > 0);
    }

    #[test]
    fn stride_four_stream_trains_offset_four() {
        let mut p = BestOffsetPrefetcher::new(BopConfig::paper_default());
        for i in 0..400u64 {
            p.on_miss(i * 4 * 64);
        }
        assert!(p.is_enabled());
        assert_eq!(p.active_offset(), 4);
    }

    #[test]
    fn random_stream_disables_prefetching() {
        let mut p = BestOffsetPrefetcher::new(BopConfig::paper_default());
        let mut x = 0x12345u64;
        for _ in 0..500 {
            // xorshift-ish scatter, far beyond any candidate offset.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            p.on_miss((x % (1 << 30)) * 64);
        }
        assert!(
            !p.is_enabled(),
            "random stream must not sustain prefetching"
        );
    }

    #[test]
    fn prefetch_targets_follow_the_stream() {
        let mut p = BestOffsetPrefetcher::new(BopConfig::paper_default());
        let mut last = None;
        for i in 0..300u64 {
            last = p.on_miss(i * 64).or(last);
        }
        let t = last.expect("prefetches issued");
        assert_eq!(t % 64, 0, "prefetch addresses are line aligned");
    }
}
