//! Table 3 (information leaked by LeakyHammer vs DRAMA per colocation
//! granularity) and the §12 defense-taxonomy table, as data.

use lh_defenses::taxonomy::{profile_of, ChannelRisk};
use lh_defenses::DefenseKind;

/// Colocation granularity between attacker and victim data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Colocation {
    /// Same channel / bank group only.
    ChannelOrBankGroup,
    /// Same DRAM bank.
    Bank,
    /// Same DRAM row.
    Row,
}

/// What an attack leaks at a given colocation granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Leak {
    /// Nothing observable.
    Nothing,
    /// That the victim triggered a preventive action (i.e. exhibited a
    /// specific memory access pattern).
    PreventiveAction,
    /// How many times the victim activated rows in the shared bank.
    BankActivationCount,
    /// How many times the victim activated the shared row.
    RowActivationCount,
    /// Whether the victim accessed a conflicting (or the same) row.
    RowBufferState,
}

/// The attacks compared in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackName {
    /// LeakyHammer over PRAC back-offs.
    LeakyHammerPrac,
    /// LeakyHammer over RFM commands.
    LeakyHammerRfm,
    /// DRAMA row-buffer attacks (prior work).
    Drama,
}

impl AttackName {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            AttackName::LeakyHammerPrac => "LeakyHammer-PRAC",
            AttackName::LeakyHammerRfm => "LeakyHammer-RFM",
            AttackName::Drama => "DRAMA",
        }
    }
}

/// The Table 3 capability matrix.
pub fn capability_matrix() -> Vec<(AttackName, [(Colocation, Leak); 3])> {
    use AttackName::*;
    use Colocation::*;
    use Leak::*;
    vec![
        (
            LeakyHammerPrac,
            [
                (ChannelOrBankGroup, PreventiveAction),
                (Bank, PreventiveAction),
                (Row, RowActivationCount),
            ],
        ),
        (
            LeakyHammerRfm,
            [
                (ChannelOrBankGroup, PreventiveAction),
                (Bank, BankActivationCount),
                (Row, BankActivationCount),
            ],
        ),
        (
            Drama,
            [
                (ChannelOrBankGroup, Nothing),
                (Bank, RowBufferState),
                (Row, RowBufferState),
            ],
        ),
    ]
}

/// What one attack leaks at one granularity.
pub fn leak_of(attack: AttackName, colocation: Colocation) -> Leak {
    capability_matrix()
        .into_iter()
        .find(|(a, _)| *a == attack)
        .and_then(|(_, cells)| {
            cells
                .iter()
                .find(|(c, _)| *c == colocation)
                .map(|&(_, l)| l)
        })
        .expect("matrix covers all attacks and granularities")
}

/// One row of the §12 qualitative defense analysis.
#[derive(Debug, Clone)]
pub struct TaxonomyRow {
    /// The defense.
    pub defense: DefenseKind,
    /// Its timing-channel risk per the §12 classification.
    pub risk: Option<ChannelRisk>,
}

/// The §12 taxonomy table over every modeled defense.
pub fn taxonomy_table() -> Vec<TaxonomyRow> {
    [
        DefenseKind::Prac,
        DefenseKind::Prfm,
        DefenseKind::PracRiac,
        DefenseKind::PracBank,
        DefenseKind::FrRfm,
        DefenseKind::Para,
        DefenseKind::Graphene,
        DefenseKind::Hydra,
        DefenseKind::Comet,
        DefenseKind::Mint,
        DefenseKind::BlockHammer,
        DefenseKind::None,
    ]
    .into_iter()
    .map(|d| TaxonomyRow {
        defense: d,
        risk: profile_of(d).map(|p| p.channel_risk()),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_leakyhammer_leaks_at_channel_granularity() {
        // Table 3's key claim: at channel/bank-group colocation DRAMA
        // leaks nothing while both LeakyHammer variants leak the access
        // pattern.
        assert_eq!(
            leak_of(AttackName::Drama, Colocation::ChannelOrBankGroup),
            Leak::Nothing
        );
        assert_eq!(
            leak_of(AttackName::LeakyHammerPrac, Colocation::ChannelOrBankGroup),
            Leak::PreventiveAction
        );
        assert_eq!(
            leak_of(AttackName::LeakyHammerRfm, Colocation::ChannelOrBankGroup),
            Leak::PreventiveAction
        );
    }

    #[test]
    fn row_colocation_leaks_counter_values() {
        assert_eq!(
            leak_of(AttackName::LeakyHammerPrac, Colocation::Row),
            Leak::RowActivationCount
        );
        assert_eq!(
            leak_of(AttackName::LeakyHammerRfm, Colocation::Bank),
            Leak::BankActivationCount
        );
    }

    #[test]
    fn taxonomy_matches_section_12() {
        let table = taxonomy_table();
        let risk = |d: DefenseKind| table.iter().find(|r| r.defense == d).and_then(|r| r.risk);
        assert_eq!(risk(DefenseKind::Prac), Some(ChannelRisk::Full));
        assert_eq!(risk(DefenseKind::FrRfm), Some(ChannelRisk::None));
        assert_eq!(risk(DefenseKind::PracRiac), Some(ChannelRisk::Degraded));
        assert_eq!(risk(DefenseKind::Para), Some(ChannelRisk::Degraded));
        assert_eq!(risk(DefenseKind::None), None);
    }
}
