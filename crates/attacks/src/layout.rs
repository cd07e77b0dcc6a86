//! Memory layout helpers: placing attack data in chosen banks and rows.
//!
//! In a real system the attacker reverse engineers the DRAM address
//! mapping and uses memory-massaging to colocate pages (§5.2); inside the
//! simulator the attacker is its own allocator and simply inverts the
//! controller's mapping.

use lh_dram::{BankId, DramAddr};
use lh_memctrl::AddressMapping;

/// The standard row placement of the covert-channel case studies:
/// sender, receiver and noise generator each own private rows of the same
/// bank (colocation at bank granularity maximizes row-buffer conflicts;
/// §5.2 notes even this is not strictly required).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelLayout {
    /// The bank everything is placed in.
    pub(crate) bank: BankId,
    /// The sender's two alternating rows (`RowS1`, `RowS2`).
    pub sender_rows: [u64; 2],
    /// The receiver's private row (`RowR`).
    pub receiver_row: u64,
    /// Four rows for the noise-generator microbenchmark (enough that
    /// the 4-aggressor back-off recovery cannot wipe all of them).
    pub noise_rows: [u64; 4],
    /// A probe row in a *different* bank (for cross-bank observation
    /// experiments, e.g. Bank-Level PRAC).
    pub other_bank_row: u64,
}

impl ChannelLayout {
    /// Builds the layout in `bank` using the controller's mapping.
    pub(crate) fn in_bank(mapping: &AddressMapping, bank: BankId) -> ChannelLayout {
        let addr = |row: u32| mapping.encode(DramAddr::new(bank, row, 0));
        let other_bank = BankId::new(
            bank.channel,
            bank.rank,
            (bank.bank_group + 1) % mapping.geometry().bank_groups_per_rank(),
            bank.bank,
        );
        ChannelLayout {
            bank,
            sender_rows: [addr(100), addr(200)],
            receiver_row: addr(300),
            noise_rows: [addr(400), addr(500), addr(600), addr(700)],
            other_bank_row: mapping.encode(DramAddr::new(other_bank, 300, 0)),
        }
    }

    /// The default layout: bank 0 of rank 0.
    pub fn default_bank(mapping: &AddressMapping) -> ChannelLayout {
        ChannelLayout::in_bank(mapping, BankId::new(0, 0, 0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_dram::Geometry;
    use lh_memctrl::MappingScheme;

    #[test]
    fn all_rows_land_in_the_chosen_bank() {
        let m = AddressMapping::new(MappingScheme::RowBankCol, Geometry::paper_default());
        let bank = BankId::new(0, 1, 3, 2);
        let layout = ChannelLayout::in_bank(&m, bank);
        for a in [
            layout.sender_rows[0],
            layout.sender_rows[1],
            layout.receiver_row,
            layout.noise_rows[0],
            layout.noise_rows[3],
        ] {
            assert_eq!(m.decode(a).bank, bank, "address {a:#x}");
        }
        // Distinct rows.
        let mut rows: Vec<u64> = vec![
            layout.sender_rows[0],
            layout.sender_rows[1],
            layout.receiver_row,
        ];
        rows.extend(layout.noise_rows);
        let distinct: std::collections::HashSet<u32> =
            rows.iter().map(|&a| m.decode(a).row).collect();
        assert_eq!(distinct.len(), 7);
    }

    #[test]
    fn other_bank_probe_is_in_a_different_bank_same_rank() {
        let m = AddressMapping::new(MappingScheme::RowBankCol, Geometry::paper_default());
        let layout = ChannelLayout::default_bank(&m);
        let other = m.decode(layout.other_bank_row).bank;
        assert_ne!(other, layout.bank);
        assert_eq!(other.rank, layout.bank.rank);
    }

    #[test]
    fn works_with_xor_mapping_too() {
        let m = AddressMapping::new(MappingScheme::XorBank, Geometry::paper_default());
        let layout = ChannelLayout::default_bank(&m);
        assert_eq!(m.decode(layout.receiver_row).bank, layout.bank);
    }
}
