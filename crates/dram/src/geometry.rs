//! DRAM organization: channels, ranks, bank groups, banks, rows, columns.
//!
//! The default geometry matches Table 1 of the LeakyHammer paper: one DDR5
//! channel with 2 ranks, 8 bank groups of 4 banks each, and 128 K rows per
//! bank. Columns are tracked at cache-line (64 B) granularity.

use core::fmt;

use crate::error::DramError;

/// Cache-line size in bytes; columns are addressed at this granularity.
pub const LINE_BYTES: u64 = 64;

/// Shape of a DRAM subsystem.
///
/// # Examples
///
/// ```
/// use lh_dram::Geometry;
///
/// let g = Geometry::paper_default();
/// assert_eq!(g.banks_per_rank(), 32);
/// assert_eq!(g.banks_per_channel(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    channels: u32,
    ranks_per_channel: u32,
    bank_groups_per_rank: u32,
    banks_per_group: u32,
    rows_per_bank: u32,
    cols_per_row: u32,
}

impl Geometry {
    /// Creates a geometry, validating that every dimension is non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidGeometry`] if any dimension is zero.
    pub fn new(
        channels: u32,
        ranks_per_channel: u32,
        bank_groups_per_rank: u32,
        banks_per_group: u32,
        rows_per_bank: u32,
        cols_per_row: u32,
    ) -> Result<Geometry, DramError> {
        let dims = [
            channels,
            ranks_per_channel,
            bank_groups_per_rank,
            banks_per_group,
            rows_per_bank,
            cols_per_row,
        ];
        if dims.contains(&0) {
            return Err(DramError::InvalidGeometry);
        }
        Ok(Geometry {
            channels,
            ranks_per_channel,
            bank_groups_per_rank,
            banks_per_group,
            rows_per_bank,
            cols_per_row,
        })
    }

    /// The configuration evaluated in the paper (Table 1): DDR5, 1 channel,
    /// 2 ranks/channel, 8 bank groups, 4 banks/bank group, 128 K rows/bank.
    ///
    /// Rows hold 8 KB (128 cache lines).
    pub fn paper_default() -> Geometry {
        Geometry::new(1, 2, 8, 4, 128 * 1024, 128).expect("paper geometry is valid")
    }

    /// A small geometry for fast unit tests: 1 channel, 1 rank, 2 bank
    /// groups of 2 banks, 1 K rows, 128 columns.
    pub fn tiny() -> Geometry {
        Geometry::new(1, 1, 2, 2, 1024, 128).expect("tiny geometry is valid")
    }

    /// Number of memory channels.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Ranks per channel.
    pub fn ranks_per_channel(&self) -> u32 {
        self.ranks_per_channel
    }

    /// Bank groups per rank.
    pub fn bank_groups_per_rank(&self) -> u32 {
        self.bank_groups_per_rank
    }

    /// Banks per bank group.
    pub fn banks_per_group(&self) -> u32 {
        self.banks_per_group
    }

    /// Rows per bank.
    pub fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }

    /// Columns (cache lines) per row.
    pub fn cols_per_row(&self) -> u32 {
        self.cols_per_row
    }

    /// Total banks in one rank.
    pub fn banks_per_rank(&self) -> u32 {
        self.bank_groups_per_rank * self.banks_per_group
    }

    /// Total banks in one channel.
    pub fn banks_per_channel(&self) -> u32 {
        self.ranks_per_channel * self.banks_per_rank()
    }

    /// Row size in bytes.
    pub fn row_bytes(&self) -> u64 {
        self.cols_per_row as u64 * LINE_BYTES
    }

    /// Capacity of one channel in bytes.
    pub fn channel_bytes(&self) -> u64 {
        self.banks_per_channel() as u64 * self.rows_per_bank as u64 * self.row_bytes()
    }

    /// Flat index of a bank within its channel, in
    /// rank-major / bank-group / bank order.
    ///
    /// # Panics
    ///
    /// Panics if the bank's coordinates are outside this geometry.
    pub fn flat_bank(&self, bank: BankId) -> usize {
        assert!(
            self.contains_bank(bank),
            "bank {bank} out of range for {self:?}"
        );
        (bank.rank * self.banks_per_rank() + bank.bank_group * self.banks_per_group + bank.bank)
            as usize
    }

    /// Inverse of [`Geometry::flat_bank`] for a given channel.
    pub fn bank_from_flat(&self, channel: u32, flat: usize) -> BankId {
        let flat = flat as u32;
        let rank = flat / self.banks_per_rank();
        let in_rank = flat % self.banks_per_rank();
        BankId {
            channel,
            rank,
            bank_group: in_rank / self.banks_per_group,
            bank: in_rank % self.banks_per_group,
        }
    }

    /// Whether `bank` is a valid coordinate in this geometry.
    pub fn contains_bank(&self, bank: BankId) -> bool {
        bank.channel < self.channels
            && bank.rank < self.ranks_per_channel
            && bank.bank_group < self.bank_groups_per_rank
            && bank.bank < self.banks_per_group
    }

    /// Whether `addr` (bank, row and column) is valid in this geometry.
    pub fn contains(&self, addr: DramAddr) -> bool {
        self.contains_bank(addr.bank)
            && addr.row < self.rows_per_bank
            && addr.col < self.cols_per_row
    }

    /// Iterates over every bank coordinate of one channel.
    pub fn banks_in_channel(&self, channel: u32) -> impl Iterator<Item = BankId> + '_ {
        (0..self.banks_per_channel() as usize).map(move |f| self.bank_from_flat(channel, f))
    }
}

impl Default for Geometry {
    fn default() -> Geometry {
        Geometry::paper_default()
    }
}

/// Coordinates of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BankId {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank group index within the rank.
    pub bank_group: u32,
    /// Bank index within the bank group.
    pub bank: u32,
}

impl BankId {
    /// Creates a bank coordinate.
    pub fn new(channel: u32, rank: u32, bank_group: u32, bank: u32) -> BankId {
        BankId {
            channel,
            rank,
            bank_group,
            bank,
        }
    }
}

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/ra{}/bg{}/ba{}",
            self.channel, self.rank, self.bank_group, self.bank
        )
    }
}

/// A fully decoded DRAM location: bank, row and column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DramAddr {
    /// The bank holding the row.
    pub bank: BankId,
    /// Row index within the bank.
    pub row: u32,
    /// Column (cache-line) index within the row.
    pub col: u32,
}

impl DramAddr {
    /// Creates a DRAM location.
    pub fn new(bank: BankId, row: u32, col: u32) -> DramAddr {
        DramAddr { bank, row, col }
    }
}

impl fmt::Display for DramAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/row{}/col{}", self.bank, self.row, self.col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_dimension_is_rejected() {
        assert!(Geometry::new(0, 1, 1, 1, 1, 1).is_err());
        assert!(Geometry::new(1, 1, 1, 1, 0, 1).is_err());
    }

    #[test]
    fn paper_default_matches_table1() {
        let g = Geometry::paper_default();
        assert_eq!(g.channels(), 1);
        assert_eq!(g.ranks_per_channel(), 2);
        assert_eq!(g.bank_groups_per_rank(), 8);
        assert_eq!(g.banks_per_group(), 4);
        assert_eq!(g.rows_per_bank(), 128 * 1024);
        assert_eq!(g.banks_per_channel(), 64);
    }

    #[test]
    fn flat_bank_roundtrips() {
        let g = Geometry::paper_default();
        for flat in 0..g.banks_per_channel() as usize {
            let bank = g.bank_from_flat(0, flat);
            assert_eq!(g.flat_bank(bank), flat);
        }
    }

    #[test]
    fn flat_bank_is_dense_and_unique() {
        let g = Geometry::tiny();
        let mut seen = std::collections::HashSet::new();
        for bank in g.banks_in_channel(0) {
            assert!(seen.insert(g.flat_bank(bank)));
        }
        assert_eq!(seen.len(), g.banks_per_channel() as usize);
    }

    #[test]
    fn contains_checks_every_dimension() {
        let g = Geometry::tiny();
        let ok = DramAddr::new(BankId::new(0, 0, 1, 1), 1023, 127);
        assert!(g.contains(ok));
        let bad_row = DramAddr::new(BankId::new(0, 0, 1, 1), 1024, 0);
        assert!(!g.contains(bad_row));
        let bad_bank = DramAddr::new(BankId::new(0, 0, 2, 0), 0, 0);
        assert!(!g.contains(bad_bank));
    }

    #[test]
    fn capacity_math() {
        let g = Geometry::tiny();
        assert_eq!(g.row_bytes(), 128 * 64);
        assert_eq!(g.channel_bytes(), 4 * 1024 * 128 * 64);
    }

    #[test]
    #[should_panic]
    fn flat_bank_panics_out_of_range() {
        let g = Geometry::tiny();
        let _ = g.flat_bank(BankId::new(0, 3, 0, 0));
    }
}
