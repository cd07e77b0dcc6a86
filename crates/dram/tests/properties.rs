//! Property-based tests on `lh-dram`'s sparse per-bank bookkeeping: the
//! structures are optimized (sparse maps, sweep fast paths, bounded
//! selection), the reference models here are the obvious dense ones.

use proptest::prelude::*;

use lh_dram::{CounterInit, DisturbTracker, RowCounters};

const BANKS: usize = 2;

/// The ground truth `DisturbTracker` documents, as a dense array: one
/// pressure cell per row, every operation a plain loop.
struct DenseDisturb {
    pressure: Vec<Vec<u64>>,
    rows: u32,
    radius: u32,
    max_ever: u64,
}

impl DenseDisturb {
    fn new(rows: u32, radius: u32) -> DenseDisturb {
        DenseDisturb {
            pressure: vec![vec![0; rows as usize]; BANKS],
            rows,
            radius,
            max_ever: 0,
        }
    }

    fn victims(&self, row: u32) -> Vec<usize> {
        let (row, radius, rows) = (i64::from(row), i64::from(self.radius), i64::from(self.rows));
        (row - radius..=row + radius)
            .filter(|&v| v != row && (0..rows).contains(&v))
            .map(|v| v as usize)
            .collect()
    }

    fn press(&mut self, bank: usize, row: u32) {
        for v in self.victims(row) {
            self.pressure[bank][v] += 1;
            self.max_ever = self.max_ever.max(self.pressure[bank][v]);
        }
    }

    fn activate(&mut self, bank: usize, row: u32) {
        self.pressure[bank][row as usize] = 0;
        self.press(bank, row);
    }

    fn refresh_victims_of(&mut self, bank: usize, row: u32) {
        for v in self.victims(row) {
            self.pressure[bank][v] = 0;
        }
    }

    fn sweep(&mut self, bank: usize, start: u32, count: u32) {
        for i in 0..u64::from(count) {
            let row = (u64::from(start) + i) % u64::from(self.rows);
            self.pressure[bank][row as usize] = 0;
        }
    }

    fn max_current(&self) -> u64 {
        self.pressure.iter().flatten().copied().max().unwrap_or(0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The sparse tracker equals the dense model after every operation of
    /// a random sequence: hammering confined to a few hot rows (so
    /// pressure builds up) next to uniform traffic, and sweeps that are
    /// unaligned, start past the bank's end, wrap around it, cover it
    /// more than once, and take both the few-victims and the
    /// many-victims walk.
    #[test]
    fn disturb_tracker_matches_the_dense_model(
        rows in 8u32..48,
        radius in 1u32..3,
        ops in proptest::collection::vec(
            (0u8..12, 0usize..BANKS, 0u32..1_000, 0u32..120, any::<bool>()),
            1..250,
        ),
    ) {
        let mut sparse = DisturbTracker::new(BANKS, rows, radius);
        let mut dense = DenseDisturb::new(rows, radius);
        for &(op, bank, pick, count, hot) in &ops {
            // Hot picks land on four neighbouring rows, cold ones anywhere.
            let row = if hot { rows / 2 + pick % 4 } else { pick % rows };
            match op {
                0..=4 => {
                    sparse.on_activate(bank, row);
                    dense.activate(bank, row);
                }
                5 | 6 => {
                    sparse.on_press(bank, row);
                    dense.press(bank, row);
                }
                7 => {
                    sparse.refresh_row(bank, row);
                    dense.pressure[bank][row as usize] = 0;
                }
                8 => {
                    sparse.refresh_victims_of(bank, row);
                    dense.refresh_victims_of(bank, row);
                }
                _ => {
                    // `pick` as the start: up to 1 000, far past the end.
                    sparse.sweep(bank, pick, count);
                    dense.sweep(bank, pick, count);
                }
            }
            for b in 0..BANKS {
                for r in 0..rows {
                    prop_assert_eq!(
                        sparse.pressure(b, r),
                        dense.pressure[b][r as usize],
                        "bank {} row {} after op {:?}", b, r, (op, bank, pick, count, hot)
                    );
                }
            }
            prop_assert_eq!(sparse.max_ever(), dense.max_ever);
            prop_assert_eq!(sparse.max_current(), dense.max_current());
        }
    }

    /// `top_rows_in` is sort-and-truncate under (count desc, bank, row)
    /// over the materialized counters of the requested banks, for every
    /// `k` — with few distinct counts, so ties are the common case.
    #[test]
    fn top_rows_selection_equals_sort_and_truncate(
        touches in proptest::collection::vec((0usize..4, 0u32..24, 0u32..6), 0..120),
        k in 0usize..12,
        first_bank in 0usize..4,
        num_banks in 0usize..5,
    ) {
        let mut counters = RowCounters::new(4, CounterInit::Zero, 3);
        let mut touched = std::collections::BTreeSet::new();
        for &(bank, row, times) in &touches {
            // `times == 0` materializes a zero counter, as a preventive
            // refresh does.
            counters.reset(bank, row);
            for _ in 0..times {
                counters.increment(bank, row);
            }
            touched.insert((bank, row));
        }
        let banks = first_bank..(first_bank + num_banks).min(4);
        let mut want: Vec<(usize, u32, u32)> = touched
            .iter()
            .filter(|&&(bank, _)| banks.contains(&bank))
            .map(|&(bank, row)| (bank, row, counters.value(bank, row)))
            .collect();
        want.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        want.truncate(k);
        prop_assert_eq!(counters.top_rows_in(banks, k), want);
    }
}
