//! Per-row activation counters (the PRAC counter array).
//!
//! The device always maintains per-row activation counts: PRAC reads them
//! to decide when to assert ABO, preventive refreshes reset them, and the
//! security tests use them as ground truth. Counters are stored sparsely
//! (one [`RowMap`] per bank) because workloads touch a small fraction of
//! the 4 M+ rows of a channel.
//!
//! [`CounterInit`] selects the (re)initialization policy, which is how the
//! RIAC countermeasure (§11.2 of the paper) is expressed: counters start at
//! — and reset to — uniformly random values instead of zero.

use core::cmp::Reverse;

use crate::rowmap::RowMap;

/// Counter (re)initialization policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterInit {
    /// Counters start at zero (plain PRAC).
    Zero,
    /// Counters start at a uniformly random value in `0..max`
    /// (the RIAC countermeasure). New random values are drawn at boot
    /// (lazily, per row) and after every preventive refresh.
    Uniform {
        /// Exclusive upper bound of the random initial value; RIAC uses
        /// the back-off threshold `NBO`.
        max: u32,
    },
}

impl CounterInit {
    fn value(self, seed: u64, bank: usize, row: u32, nonce: u64) -> u32 {
        match self {
            CounterInit::Zero => 0,
            CounterInit::Uniform { max } => {
                let max = max.max(1);
                let h = splitmix64(
                    seed ^ (bank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ (row as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
                        ^ nonce.wrapping_mul(0x94d0_49bb_1331_11eb),
                );
                (h % max as u64) as u32
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sparse per-row activation counter array for one channel.
///
/// # Examples
///
/// ```
/// use lh_dram::{CounterInit, RowCounters};
///
/// let mut c = RowCounters::new(4, CounterInit::Zero, 7);
/// assert_eq!(c.increment(0, 100), 1);
/// assert_eq!(c.increment(0, 100), 2);
/// c.reset(0, 100);
/// assert_eq!(c.value(0, 100), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RowCounters {
    banks: Vec<RowMap<u32>>,
    init: CounterInit,
    seed: u64,
    reset_nonce: u64,
}

impl RowCounters {
    /// Creates counters for `num_banks` banks with the given init policy.
    pub fn new(num_banks: usize, init: CounterInit, seed: u64) -> RowCounters {
        RowCounters {
            banks: vec![RowMap::default(); num_banks],
            init,
            seed,
            reset_nonce: 0,
        }
    }

    /// Current counter value of `(bank, row)` (lazily initialized).
    pub fn value(&self, bank: usize, row: u32) -> u32 {
        self.banks[bank]
            .get(&row)
            .copied()
            .unwrap_or_else(|| self.init.value(self.seed, bank, row, 0))
    }

    /// Increments the counter of `(bank, row)` and returns the new value.
    pub fn increment(&mut self, bank: usize, row: u32) -> u32 {
        let init = self.init;
        let seed = self.seed;
        let e = self.banks[bank]
            .entry(row)
            .or_insert_with(|| init.value(seed, bank, row, 0));
        *e = e.saturating_add(1);
        *e
    }

    /// Resets the counter of `(bank, row)` to a fresh initial value
    /// (zero, or a new random draw for [`CounterInit::Uniform`]).
    pub fn reset(&mut self, bank: usize, row: u32) {
        self.reset_nonce += 1;
        let v = self.init.value(self.seed, bank, row, self.reset_nonce);
        self.banks[bank].insert(row, v);
    }

    /// The row with the highest counter in `bank`, if any row was touched.
    pub(crate) fn top_row(&self, bank: usize) -> Option<(u32, u32)> {
        self.banks[bank]
            .iter()
            .max_by_key(|&(row, count)| (*count, Reverse(*row)))
            .map(|(&row, &count)| (row, count))
    }

    /// The `k` highest (bank, row, count) triples across `banks`, highest
    /// first.
    ///
    /// Ties break towards lower bank / row indices so results are
    /// deterministic. A bounded selection: one pass over the materialized
    /// counters against the `k` best seen so far, which an all-bank RFM
    /// pays on every issue with `k` a handful of aggressors.
    pub fn top_rows_in(
        &self,
        banks: impl IntoIterator<Item = usize>,
        k: usize,
    ) -> Vec<(usize, u32, u32)> {
        // Ascending under this key is the documented order.
        let key = |&(bank, row, count): &(usize, u32, u32)| (Reverse(count), bank, row);
        let mut top: Vec<(usize, u32, u32)> = Vec::new();
        for b in banks {
            for (&row, &count) in &self.banks[b] {
                let cand = (b, row, count);
                if top.len() == k {
                    if top.last().is_none_or(|worst| key(&cand) >= key(worst)) {
                        continue;
                    }
                    top.pop();
                }
                let at = top.partition_point(|t| key(t) < key(&cand));
                top.insert(at, cand);
            }
        }
        top
    }

    /// The maximum counter value across the whole channel (0 if untouched).
    pub fn max_value(&self) -> u32 {
        self.banks
            .iter()
            .flat_map(|b| b.values())
            .copied()
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_init_counts_from_zero() {
        let mut c = RowCounters::new(2, CounterInit::Zero, 1);
        assert_eq!(c.value(0, 5), 0);
        assert_eq!(c.increment(0, 5), 1);
        assert_eq!(c.increment(0, 5), 2);
        assert_eq!(c.value(1, 5), 0, "banks are independent");
    }

    #[test]
    fn uniform_init_is_deterministic_and_bounded() {
        let c1 = RowCounters::new(2, CounterInit::Uniform { max: 128 }, 42);
        let c2 = RowCounters::new(2, CounterInit::Uniform { max: 128 }, 42);
        for row in 0..200 {
            let v = c1.value(0, row);
            assert!(v < 128);
            assert_eq!(v, c2.value(0, row), "same seed, same init");
        }
        let c3 = RowCounters::new(2, CounterInit::Uniform { max: 128 }, 43);
        let differs = (0..200).any(|row| c1.value(0, row) != c3.value(0, row));
        assert!(differs, "different seeds should differ somewhere");
    }

    #[test]
    fn uniform_values_are_spread_out() {
        let c = RowCounters::new(1, CounterInit::Uniform { max: 128 }, 9);
        let mean: f64 = (0..1000).map(|row| c.value(0, row) as f64).sum::<f64>() / 1000.0;
        assert!((40.0..90.0).contains(&mean), "mean {mean} not near 63.5");
    }

    #[test]
    fn reset_redraws_random_values() {
        let mut c = RowCounters::new(1, CounterInit::Uniform { max: 1024 }, 5);
        let before = c.value(0, 7);
        let mut changed = false;
        for _ in 0..8 {
            c.reset(0, 7);
            if c.value(0, 7) != before {
                changed = true;
            }
        }
        assert!(changed, "reset should eventually draw a different value");
    }

    #[test]
    fn top_rows_ranks_by_count() {
        let mut c = RowCounters::new(2, CounterInit::Zero, 0);
        for _ in 0..5 {
            c.increment(0, 10);
        }
        for _ in 0..9 {
            c.increment(1, 20);
        }
        for _ in 0..2 {
            c.increment(0, 30);
        }
        let top = c.top_rows_in([0, 1], 2);
        assert_eq!(top, vec![(1, 20, 9), (0, 10, 5)]);
        assert_eq!(c.top_row(0), Some((10, 5)));
        assert_eq!(c.max_value(), 9);
    }

    #[test]
    fn saturating_increment_never_overflows() {
        let mut c = RowCounters::new(1, CounterInit::Zero, 0);
        c.banks[0].insert(1, u32::MAX - 1);
        assert_eq!(c.increment(0, 1), u32::MAX);
        assert_eq!(c.increment(0, 1), u32::MAX);
    }
}
