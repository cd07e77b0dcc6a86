//! Ground-truth read-disturb (RowHammer) bookkeeping.
//!
//! Independently of any defense, the device tracks for every *victim* row
//! the number of times one of its neighbors (within the blast radius) was
//! activated since the victim was last refreshed — by the periodic-refresh
//! sweep or by a preventive refresh. A victim whose pressure ever reaches
//! the RowHammer threshold `N_RH` would flip bits on real hardware; the
//! security tests in this repository assert that secure defenses keep the
//! maximum pressure below `N_RH` under adversarial access patterns.
//!
//! ## The sweep contract
//!
//! Every periodic REF sweeps a stripe of rows in every bank of its rank
//! ([`DisturbTracker::sweep`]), and almost every stripe holds no victim at
//! all. Pressure is therefore stored sparsely — only rows with non-zero
//! pressure have an entry — and a sweep costs `min(live victims of the
//! bank, rows swept)` map operations: nothing on an empty bank, one pass
//! over the bank's entries when they are fewer than the stripe, one
//! removal per swept row otherwise. Which of the two walks runs is
//! unobservable: both annul exactly the rows `(start + i) % rows_per_bank`
//! for `i < count`.

use crate::rowmap::RowMap;

/// Tracks per-victim-row disturbance pressure for one channel.
///
/// # Examples
///
/// ```
/// use lh_dram::DisturbTracker;
///
/// let mut d = DisturbTracker::new(2, 1024, 1);
/// d.on_activate(0, 100);
/// assert_eq!(d.pressure(0, 99), 1);
/// assert_eq!(d.pressure(0, 101), 1);
/// d.refresh_victims_of(0, 100);
/// assert_eq!(d.pressure(0, 99), 0);
/// assert_eq!(d.max_ever(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DisturbTracker {
    banks: Vec<RowMap<u64>>,
    rows_per_bank: u32,
    blast_radius: u32,
    max_ever: u64,
    enabled: bool,
}

impl DisturbTracker {
    /// Creates a tracker for `num_banks` banks of `rows_per_bank` rows with
    /// the given blast radius (1 = immediate neighbors only).
    pub fn new(num_banks: usize, rows_per_bank: u32, blast_radius: u32) -> DisturbTracker {
        DisturbTracker {
            banks: vec![RowMap::default(); num_banks],
            rows_per_bank,
            blast_radius,
            max_ever: 0,
            enabled: true,
        }
    }

    /// Enables or disables tracking (disable for performance-only runs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether tracking is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The blast radius used for neighbor accounting.
    pub fn blast_radius(&self) -> u32 {
        self.blast_radius
    }

    /// Records an activation of `(bank, row)`: every neighbor within the
    /// blast radius accumulates one unit of disturbance, and the activated
    /// row's own pressure resets (activation restores the row's charge —
    /// this is why PARA can mitigate RowHammer by activating victims).
    pub fn on_activate(&mut self, bank: usize, row: u32) {
        if !self.enabled {
            return;
        }
        self.banks[bank].remove(&row);
        for victim in neighbors(row, self.blast_radius, self.rows_per_bank) {
            let e = self.banks[bank].entry(victim).or_insert(0);
            *e += 1;
            if *e > self.max_ever {
                self.max_ever = *e;
            }
        }
    }

    /// Records one unit of RowPress disturbance from `(bank, row)` staying
    /// open: like [`DisturbTracker::on_activate`] for the neighbors, but
    /// without restoring the (still open) aggressor row.
    pub fn on_press(&mut self, bank: usize, row: u32) {
        if !self.enabled {
            return;
        }
        for victim in neighbors(row, self.blast_radius, self.rows_per_bank) {
            let e = self.banks[bank].entry(victim).or_insert(0);
            *e += 1;
            if *e > self.max_ever {
                self.max_ever = *e;
            }
        }
    }

    /// Records that `(bank, row)` itself was refreshed: its accumulated
    /// pressure is annulled.
    pub fn refresh_row(&mut self, bank: usize, row: u32) {
        if !self.enabled {
            return;
        }
        self.banks[bank].remove(&row);
    }

    /// Records a preventive refresh of the victims of aggressor
    /// `(bank, row)`: every neighbor within the blast radius is refreshed.
    pub fn refresh_victims_of(&mut self, bank: usize, row: u32) {
        if !self.enabled {
            return;
        }
        for victim in neighbors(row, self.blast_radius, self.rows_per_bank) {
            self.banks[bank].remove(&victim);
        }
    }

    /// Records a periodic-refresh sweep of `count` rows starting at
    /// `start` (wrapping at the end of the bank) in `bank`. The cost is
    /// proportional to the victims the bank holds, not to `count` (see
    /// the module docs).
    pub fn sweep(&mut self, bank: usize, start: u32, count: u32) {
        if !self.enabled {
            return;
        }
        let victims = &mut self.banks[bank];
        if victims.is_empty() {
            return;
        }
        let rows = self.rows_per_bank;
        let start = start % rows;
        let count = count.min(rows);
        if victims.len() < count as usize {
            // Keep a row unless its offset into the stripe, modulo the
            // bank size, is inside it. (The other walk never touches a
            // row index past the bank's end either.)
            victims.retain(|&row, _| {
                let offset = if row >= start {
                    row - start
                } else {
                    row + (rows - start)
                };
                row >= rows || offset >= count
            });
        } else {
            let until_wrap = count.min(rows - start);
            for row in (start..start + until_wrap).chain(0..count - until_wrap) {
                victims.remove(&row);
            }
        }
    }

    /// Current disturbance pressure on `(bank, row)`.
    pub fn pressure(&self, bank: usize, row: u32) -> u64 {
        self.banks[bank].get(&row).copied().unwrap_or(0)
    }

    /// The highest pressure any victim row ever accumulated (including
    /// pressure that was since annulled by a refresh).
    ///
    /// A defense is RowHammer-secure at threshold `n_rh` iff this never
    /// reaches `n_rh`.
    pub fn max_ever(&self) -> u64 {
        self.max_ever
    }

    /// The highest pressure currently outstanding.
    pub fn max_current(&self) -> u64 {
        self.banks
            .iter()
            .flat_map(|b| b.values())
            .copied()
            .max()
            .unwrap_or(0)
    }
}

fn neighbors(row: u32, radius: u32, rows: u32) -> impl Iterator<Item = u32> {
    (1..=radius).flat_map(move |d| {
        let below = row.checked_sub(d);
        let above = row.checked_add(d).filter(|&r| r < rows);
        below.into_iter().chain(above)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blast_radius_two_reaches_two_rows_each_side() {
        let mut d = DisturbTracker::new(1, 100, 2);
        d.on_activate(0, 50);
        for v in [48, 49, 51, 52] {
            assert_eq!(d.pressure(0, v), 1);
        }
        assert_eq!(d.pressure(0, 47), 0);
        assert_eq!(d.pressure(0, 53), 0);
    }

    #[test]
    fn edge_rows_have_one_sided_victims() {
        let mut d = DisturbTracker::new(1, 100, 1);
        d.on_activate(0, 0);
        assert_eq!(d.pressure(0, 1), 1);
        d.on_activate(0, 99);
        assert_eq!(d.pressure(0, 98), 1);
    }

    #[test]
    fn double_sided_hammering_doubles_pressure() {
        let mut d = DisturbTracker::new(1, 100, 1);
        for _ in 0..10 {
            d.on_activate(0, 49);
            d.on_activate(0, 51);
        }
        assert_eq!(d.pressure(0, 50), 20);
        assert_eq!(d.pressure(0, 48), 10);
        assert_eq!(d.max_ever(), 20);
    }

    #[test]
    fn max_ever_survives_refresh() {
        let mut d = DisturbTracker::new(1, 100, 1);
        for _ in 0..5 {
            d.on_activate(0, 10);
        }
        d.refresh_victims_of(0, 10);
        assert_eq!(d.pressure(0, 9), 0);
        assert_eq!(d.max_current(), 0);
        assert_eq!(d.max_ever(), 5);
    }

    #[test]
    fn sweep_wraps_around_bank_end() {
        let mut d = DisturbTracker::new(1, 16, 1);
        d.on_activate(0, 0);
        d.on_activate(0, 15);
        d.sweep(0, 14, 4); // refreshes rows 14, 15, 0, 1
        assert_eq!(d.pressure(0, 1), 0);
        assert_eq!(d.pressure(0, 14), 0);
    }

    #[test]
    fn activating_a_row_restores_it() {
        let mut d = DisturbTracker::new(1, 100, 1);
        for _ in 0..10 {
            d.on_activate(0, 49); // row 50 accumulates pressure
        }
        assert_eq!(d.pressure(0, 50), 10);
        d.on_activate(0, 50); // activating the victim restores it
        assert_eq!(d.pressure(0, 50), 0);
        // ...but now rows 49 and 51 each gained one unit.
        assert_eq!(d.pressure(0, 51), 1);
    }

    #[test]
    fn disabled_tracker_records_nothing() {
        let mut d = DisturbTracker::new(1, 100, 1);
        d.set_enabled(false);
        d.on_activate(0, 50);
        assert_eq!(d.pressure(0, 49), 0);
        assert_eq!(d.max_ever(), 0);
        assert!(!d.is_enabled());
    }
}
