//! DDR5 command set used by the memory controller.

use core::fmt;

use crate::geometry::BankId;

/// Scope of an RFM (refresh management) command.
///
/// The scope determines which banks are blocked while the device performs
/// preventive refreshes — this is exactly the property the LeakyHammer
/// attacks observe (§5.2 of the paper: PRAC back-offs block the channel,
/// RFM blocks the same bank across bank groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RfmScope {
    /// All banks of the rank are blocked (RFMab). Used for PRAC back-off
    /// recovery and FR-RFM.
    AllBank,
    /// The same bank index in every bank group of the rank is blocked
    /// (RFMsb). Used by Periodic RFM.
    SameBank {
        /// Bank index within each bank group (0..banks_per_group).
        bank: u32,
    },
    /// A single bank is blocked. Used by Bank-Level PRAC (§11.3), which
    /// requires per-bank ABO signalling.
    SingleBank {
        /// Bank group index.
        bank_group: u32,
        /// Bank index within the bank group.
        bank: u32,
    },
}

impl fmt::Display for RfmScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RfmScope::AllBank => write!(f, "ab"),
            RfmScope::SameBank { bank } => write!(f, "sb{bank}"),
            RfmScope::SingleBank { bank_group, bank } => write!(f, "bg{bank_group}b{bank}"),
        }
    }
}

/// A DRAM command as issued on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Open `row` in `bank`, loading it into the row buffer.
    Activate {
        /// Target bank.
        bank: BankId,
        /// Row to open.
        row: u32,
    },
    /// Close the open row of `bank`.
    Precharge {
        /// Target bank.
        bank: BankId,
    },
    /// Close the open rows of every bank in a rank.
    PrechargeAll {
        /// Target channel.
        channel: u32,
        /// Target rank.
        rank: u32,
    },
    /// Read one column (cache line) from the open row.
    Read {
        /// Target bank.
        bank: BankId,
        /// Column to read.
        col: u32,
    },
    /// Write one column (cache line) into the open row.
    Write {
        /// Target bank.
        bank: BankId,
        /// Column to write.
        col: u32,
    },
    /// All-bank periodic refresh for a rank.
    Refresh {
        /// Target channel.
        channel: u32,
        /// Target rank.
        rank: u32,
    },
    /// Refresh-management command: grants the device a `t_rfm` window to
    /// preventively refresh potential RowHammer victims.
    Rfm {
        /// Target channel.
        channel: u32,
        /// Target rank.
        rank: u32,
        /// Which banks the command blocks.
        scope: RfmScope,
    },
}

impl Command {
    /// The channel this command is issued on.
    pub fn channel(&self) -> u32 {
        match *self {
            Command::Activate { bank, .. }
            | Command::Precharge { bank }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. } => bank.channel,
            Command::PrechargeAll { channel, .. }
            | Command::Refresh { channel, .. }
            | Command::Rfm { channel, .. } => channel,
        }
    }

    /// The rank this command targets.
    pub fn rank(&self) -> u32 {
        match *self {
            Command::Activate { bank, .. }
            | Command::Precharge { bank }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. } => bank.rank,
            Command::PrechargeAll { rank, .. }
            | Command::Refresh { rank, .. }
            | Command::Rfm { rank, .. } => rank,
        }
    }

    /// The single bank this command targets, if it targets exactly one.
    pub fn bank(&self) -> Option<BankId> {
        match *self {
            Command::Activate { bank, .. }
            | Command::Precharge { bank }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. } => Some(bank),
            _ => None,
        }
    }

    /// Whether this is a column command (`RD`/`WR`).
    pub fn is_column(&self) -> bool {
        matches!(self, Command::Read { .. } | Command::Write { .. })
    }

    /// Short mnemonic, e.g. `"ACT"`.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Command::Activate { .. } => "ACT",
            Command::Precharge { .. } => "PRE",
            Command::PrechargeAll { .. } => "PREA",
            Command::Read { .. } => "RD",
            Command::Write { .. } => "WR",
            Command::Refresh { .. } => "REF",
            Command::Rfm { .. } => "RFM",
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Command::Activate { bank, row } => write!(f, "ACT {bank} row{row}"),
            Command::Precharge { bank } => write!(f, "PRE {bank}"),
            Command::PrechargeAll { channel, rank } => write!(f, "PREA ch{channel}/ra{rank}"),
            Command::Read { bank, col } => write!(f, "RD {bank} col{col}"),
            Command::Write { bank, col } => write!(f, "WR {bank} col{col}"),
            Command::Refresh { channel, rank } => write!(f, "REF ch{channel}/ra{rank}"),
            Command::Rfm {
                channel,
                rank,
                scope,
            } => write!(f, "RFM{scope} ch{channel}/ra{rank}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> BankId {
        BankId::new(0, 1, 2, 3)
    }

    #[test]
    fn channel_and_rank_extraction() {
        let cmds = [
            Command::Activate {
                bank: bank(),
                row: 7,
            },
            Command::Precharge { bank: bank() },
            Command::Read {
                bank: bank(),
                col: 1,
            },
            Command::Write {
                bank: bank(),
                col: 1,
            },
        ];
        for c in cmds {
            assert_eq!(c.channel(), 0);
            assert_eq!(c.rank(), 1);
            assert_eq!(c.bank(), Some(bank()));
        }
        let ref_cmd = Command::Refresh {
            channel: 0,
            rank: 1,
        };
        assert_eq!(ref_cmd.rank(), 1);
        assert_eq!(ref_cmd.bank(), None);
    }

    #[test]
    fn column_classification() {
        assert!(Command::Read {
            bank: bank(),
            col: 0
        }
        .is_column());
        assert!(Command::Write {
            bank: bank(),
            col: 0
        }
        .is_column());
        assert!(!Command::Precharge { bank: bank() }.is_column());
    }

    #[test]
    fn display_mnemonics() {
        let rfm = Command::Rfm {
            channel: 0,
            rank: 0,
            scope: RfmScope::SameBank { bank: 2 },
        };
        assert_eq!(rfm.mnemonic(), "RFM");
        assert!(rfm.to_string().contains("sb2"));
        assert!(Command::Activate {
            bank: bank(),
            row: 9
        }
        .to_string()
        .contains("row9"));
    }
}
