//! The `Defense` scheduling contract of `crates/defenses/README.md`,
//! checked for every defense kind, bare and under every wrapper, at two
//! RowHammer thresholds:
//!
//! * repeated peeks are equal;
//! * a take before the presented `due` returns `None` and leaves the
//!   peek unchanged;
//! * a take at or after `due` returns the peeked operation;
//! * presented deadlines on a rank never decrease, and consecutive ones
//!   are at least `maintenance_period()` apart.

use lh_defenses::{build_defense, Defense, DefenseConfig, DefenseKind, Maintenance};
use lh_dram::{DramTiming, Geometry, Span, Time};
use lh_mitigate::{apply_mitigations, MitigationConfig, MitigationKind};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A tight threshold (FR-RFM's period sits on its floor) and a loose one.
const NRHS: [u32; 2] = [64, 1024];

#[derive(Debug, Clone)]
enum Op {
    /// An ACT `dt_ns` after the previous operation.
    Activate { bank: u32, row: u32, dt_ns: u64 },
    /// A take on `rank` at the current instant, due or not.
    TakeNow { rank: u32 },
    /// Advance to `late_ns` past the presented deadline on `rank` (when
    /// later than now) and take there.
    TakeDue { rank: u32, late_ns: u64 },
}

/// Activations four times in seven, early-or-due takes once, due takes
/// (on time half the time) twice.
fn op() -> impl Strategy<Value = Op> {
    (0u32..7, 0u32..64, 0u32..8, 0u64..200, 0u32..2, 0u64..4_000).prop_map(
        |(pick, bank, row, dt_ns, rank, late)| match pick {
            0..=3 => Op::Activate { bank, row, dt_ns },
            4 => Op::TakeNow { rank },
            _ => Op::TakeDue {
                rank,
                late_ns: late.saturating_sub(2_000),
            },
        },
    )
}

/// Every engine under test: each kind at each threshold, bare and
/// under each single-layer stack.
fn engines(g: &Geometry, seed: u64) -> Vec<(String, Box<dyn Defense>)> {
    let t = DramTiming::ddr5_4800();
    let mut out = Vec::new();
    for kind in DefenseKind::all() {
        for nrh in NRHS {
            let config = DefenseConfig::for_threshold(kind, nrh, &t);
            out.push((format!("{kind}@{nrh}"), build_defense(&config, g, seed)));
            for mitigation in MitigationKind::all() {
                let stack = [MitigationConfig::for_threshold(mitigation, nrh, &t)];
                let inner = build_defense(&config, g, seed);
                out.push((
                    format!("{kind}@{nrh}+{mitigation}"),
                    apply_mitigations(&stack, g, seed, inner),
                ));
            }
        }
    }
    out
}

/// Peeks `rank` twice and checks the two answers agree.
fn peek(engine: &dyn Defense, rank: u32, name: &str) -> Result<Option<Maintenance>, TestCaseError> {
    let first = engine.next_maintenance(rank);
    prop_assert_eq!(
        first,
        engine.next_maintenance(rank),
        "{}: peeks differ",
        name
    );
    Ok(first)
}

fn check(
    name: &str,
    engine: &mut dyn Defense,
    g: &Geometry,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let ranks = g.ranks_per_channel();
    let period = engine.maintenance_period();
    let mut now = Time::ZERO;
    let mut last_peek: Vec<Option<Time>> = (0..ranks)
        .map(|r| peek(engine, r, name).map(|m| m.map(|m| m.due)))
        .collect::<Result<_, _>>()?;
    for op in ops {
        let mut taken = None;
        match *op {
            Op::Activate { bank, row, dt_ns } => {
                now += Span::from_ns(dt_ns);
                let bank = g.bank_from_flat(0, (bank % g.banks_per_channel()) as usize);
                engine.on_activate(bank, row, now);
            }
            Op::TakeNow { rank } => {
                let rank = rank % ranks;
                let before = peek(engine, rank, name)?;
                let got = engine.take_maintenance(rank, now);
                match before {
                    Some(m) if now >= m.due => {
                        prop_assert_eq!(got, Some(m), "{}: a due take must return the peek", name);
                        taken = Some((rank, m.due));
                    }
                    _ => {
                        prop_assert_eq!(got, None, "{}: take before due at {:?}", name, now);
                        prop_assert_eq!(
                            peek(engine, rank, name)?,
                            before,
                            "{}: an early take moved the schedule",
                            name
                        );
                    }
                }
            }
            Op::TakeDue { rank, late_ns } => {
                let rank = rank % ranks;
                if let Some(m) = peek(engine, rank, name)? {
                    now = now.max(m.due + Span::from_ns(late_ns));
                    let got = engine.take_maintenance(rank, now);
                    prop_assert_eq!(got, Some(m), "{}: a due take must return the peek", name);
                    taken = Some((rank, m.due));
                }
            }
        }
        for rank in 0..ranks {
            let due = peek(engine, rank, name)?.map(|m| m.due);
            if let (Some(prev), Some(due)) = (last_peek[rank as usize], due) {
                prop_assert!(due >= prev, "{}: rank {} deadline went back", name, rank);
            }
            if let (Some((r, taken_due)), Some(due), Some(period)) = (taken, due, period) {
                if r == rank {
                    prop_assert!(
                        due >= taken_due + period,
                        "{}: deadlines {:?} and {:?} closer than the period {:?}",
                        name,
                        taken_due,
                        due,
                        period
                    );
                }
            }
            last_peek[rank as usize] = due;
        }
    }
    prop_assert_eq!(
        engine.maintenance_period(),
        period,
        "{}: period changed",
        name
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_engine_honours_the_scheduling_contract(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op(), 1..128),
    ) {
        let g = Geometry::paper_default();
        for (name, mut engine) in engines(&g, seed) {
            check(&name, engine.as_mut(), &g, &ops)?;
        }
    }
}
