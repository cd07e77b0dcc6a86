//! Property-based tests on the §12 tracker implementations.
//!
//! The trackers' *security* rests on one property: their estimate of a
//! row's activation count never falls below the true count, so firing at
//! the threshold is always conservative. Their *noise* (the §12
//! prediction LeakyHammer exploits) is the flip side: estimates may
//! exceed truth. These tests drive the structures with arbitrary access
//! streams and check both directions.

use proptest::prelude::*;
use std::collections::HashMap;

use lh_defenses::trackers::{
    BlockHammerBank, BlockHammerConfig, CometBank, CometConfig, GrapheneBank, GrapheneConfig,
    HydraBank, HydraConfig, MintBank, MintConfig,
};
use lh_dram::{Span, Time};

fn epoch() -> Span {
    Span::from_ms(32)
}

/// The space-saving summary as a plain table scan: the reference the
/// indexed [`GrapheneBank`] must reproduce trigger for trigger,
/// including which slot a full table evicts (the first minimum in table
/// order).
struct ScanGraphene {
    cfg: GrapheneConfig,
    table: Vec<(u32, u32)>,
    epoch_end: Time,
}

impl ScanGraphene {
    fn new(cfg: GrapheneConfig) -> ScanGraphene {
        ScanGraphene {
            cfg,
            table: Vec::new(),
            epoch_end: Time::ZERO + cfg.epoch,
        }
    }

    fn estimate(&self, row: u32) -> Option<u32> {
        self.table.iter().find(|e| e.0 == row).map(|e| e.1)
    }

    fn reset(&mut self, row: u32) {
        if let Some(e) = self.table.iter_mut().find(|e| e.0 == row) {
            e.1 = 0;
        }
    }

    fn on_activate(&mut self, row: u32, now: Time) -> Option<u32> {
        if now >= self.epoch_end {
            self.table.clear();
            while self.epoch_end <= now {
                self.epoch_end += self.cfg.epoch;
            }
        }
        let count = if let Some(e) = self.table.iter_mut().find(|e| e.0 == row) {
            e.1 += 1;
            e.1
        } else if self.table.len() < self.cfg.entries {
            self.table.push((row, 1));
            1
        } else {
            let min = self.table.iter_mut().min_by_key(|e| e.1).unwrap();
            *min = (row, min.1 + 1);
            min.1
        };
        if count >= self.cfg.threshold {
            self.reset(row);
            Some(row)
        } else {
            None
        }
    }
}

proptest! {
    /// Space-saving (Graphene): tracked estimates never underestimate.
    #[test]
    fn graphene_never_underestimates(
        rows in proptest::collection::vec(0u32..16, 1..300),
        entries in 1usize..8,
    ) {
        let mut g = GrapheneBank::new(GrapheneConfig {
            entries,
            threshold: u32::MAX,
            epoch: epoch(),
        });
        let mut truth: HashMap<u32, u32> = HashMap::new();
        for &r in &rows {
            g.on_activate(r, Time::ZERO);
            *truth.entry(r).or_insert(0) += 1;
        }
        for (&r, &t) in &truth {
            if let Some(est) = g.estimate(r) {
                prop_assert!(est >= t, "row {r}: estimate {est} < true {t}");
            }
        }
    }

    /// Space-saving guarantee: any row with true count > N/entries is in
    /// the table at the end of the stream.
    #[test]
    fn graphene_tracks_every_heavy_hitter(
        rows in proptest::collection::vec(0u32..32, 1..400),
        entries in 2usize..10,
    ) {
        let mut g = GrapheneBank::new(GrapheneConfig {
            entries,
            threshold: u32::MAX,
            epoch: epoch(),
        });
        let mut truth: HashMap<u32, u32> = HashMap::new();
        for &r in &rows {
            g.on_activate(r, Time::ZERO);
            *truth.entry(r).or_insert(0) += 1;
        }
        let n = rows.len() as u32;
        for (&r, &t) in &truth {
            if u64::from(t) * entries as u64 > u64::from(n) {
                prop_assert!(
                    g.estimate(r).is_some(),
                    "heavy hitter {r} ({t}/{n} with {entries} entries) untracked"
                );
            }
        }
    }

    /// Graphene fires no later than the threshold: a row's true
    /// activations since its last trigger/reset never exceed `threshold`.
    #[test]
    fn graphene_triggers_at_or_before_threshold(
        rows in proptest::collection::vec(0u32..8, 1..500),
        threshold in 2u32..20,
    ) {
        // Enough entries that nothing is evicted: estimates are exact for
        // tracked rows, so the trigger must land exactly on `threshold`.
        let mut g = GrapheneBank::new(GrapheneConfig { entries: 8, threshold, epoch: epoch() });
        let mut since_reset: HashMap<u32, u32> = HashMap::new();
        for &r in &rows {
            let fired = g.on_activate(r, Time::ZERO);
            let c = since_reset.entry(r).or_insert(0);
            *c += 1;
            prop_assert!(*c <= threshold, "row {r} reached {c} without firing");
            if fired == Some(r) {
                prop_assert_eq!(*c, threshold, "exact tracking fires exactly at threshold");
                *c = 0;
            }
        }
    }

    /// The indexed Graphene emits the scan's exact trigger stream and
    /// holds the scan's exact estimates — on uniform streams over more
    /// rows than entries (constant replace-min with ties everywhere), on
    /// double-sided pairs hammered through the noise, across external
    /// resets and across epoch boundaries.
    #[test]
    fn graphene_index_matches_the_table_scan(
        stream in proptest::collection::vec(
            (0u32..40, 0u8..8, 0u64..600),
            1..600,
        ),
        entries in 1usize..12,
        threshold in 2u32..24,
    ) {
        let cfg = GrapheneConfig { entries, threshold, epoch: Span::from_us(20) };
        let mut indexed = GrapheneBank::new(cfg);
        let mut scan = ScanGraphene::new(cfg);
        let mut now = Time::ZERO;
        for (i, &(pick, shape, gap_ns)) in stream.iter().enumerate() {
            // Epochs are 20 µs: most runs cross a few, some gaps skip one.
            now += Span::from_ns(gap_ns);
            let row = match shape {
                // A double-sided pair around row 100.
                0..=2 => 99 + 2 * (i as u32 % 2),
                _ => pick,
            };
            if shape == 7 {
                indexed.reset(row);
                scan.reset(row);
            }
            prop_assert_eq!(
                indexed.on_activate(row, now),
                scan.on_activate(row, now),
                "activation {} of row {}", i, row
            );
            for r in (0..40).chain([99, 101]) {
                prop_assert_eq!(indexed.estimate(r), scan.estimate(r), "estimate of row {}", r);
            }
        }
    }

    /// Count-min (CoMeT): the estimate never underestimates, for any
    /// stream and any (width, depth).
    #[test]
    fn comet_never_underestimates(
        rows in proptest::collection::vec(0u32..64, 1..300),
        width_pow in 2u32..7,
        depth in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut c = CometBank::new(CometConfig {
            width: 1 << width_pow,
            depth,
            threshold: u32::MAX,
            epoch: epoch(),
            seed,
        });
        let mut truth: HashMap<u32, u32> = HashMap::new();
        for &r in &rows {
            c.on_activate(r, Time::ZERO);
            *truth.entry(r).or_insert(0) += 1;
        }
        for (&r, &t) in &truth {
            prop_assert!(c.estimate(r) >= t, "row {r}: {} < {t}", c.estimate(r));
        }
    }

    /// CoMeT fires at or before the threshold (overestimates only make it
    /// fire earlier — the §12 noise, never a security loss).
    #[test]
    fn comet_triggers_at_or_before_threshold(
        rows in proptest::collection::vec(0u32..16, 1..400),
        threshold in 2u32..16,
        seed in any::<u64>(),
    ) {
        let mut c = CometBank::new(CometConfig {
            width: 128,
            depth: 4,
            threshold,
            epoch: epoch(),
            seed,
        });
        let mut since_reset: HashMap<u32, u32> = HashMap::new();
        for &r in &rows {
            let fired = c.on_activate(r, Time::ZERO);
            let cnt = since_reset.entry(r).or_insert(0);
            *cnt += 1;
            prop_assert!(*cnt <= threshold, "row {r} reached {cnt} unfired");
            if fired == Some(r) {
                *cnt = 0;
            }
        }
    }

    /// Hydra: a row's true activations since its last trigger never
    /// exceed the row threshold (the pessimistic group-count
    /// initialization can only make it fire earlier).
    #[test]
    fn hydra_triggers_at_or_before_row_threshold(
        rows in proptest::collection::vec(0u32..32, 1..400),
        group_threshold in 1u32..6,
        row_threshold in 6u32..24,
    ) {
        let mut h = HydraBank::new(HydraConfig {
            group_size: 4,
            group_threshold,
            row_threshold,
            row_cache_cap: 64,
            epoch: epoch(),
        });
        let mut since: HashMap<u32, u32> = HashMap::new();
        for &r in &rows {
            let fired = h.on_activate(r, Time::ZERO);
            let c = since.entry(r).or_insert(0);
            *c += 1;
            prop_assert!(*c <= row_threshold, "row {r} reached {c} unfired");
            if fired == Some(r) {
                *c = 0;
            }
        }
    }

    /// MINT: the sampled aggressor is always one of the interval's
    /// activations, and an empty interval samples nothing.
    #[test]
    fn mint_sample_is_a_real_activation(
        intervals in proptest::collection::vec(
            proptest::collection::vec(0u32..100, 0..20),
            1..20,
        ),
        seed in any::<u64>(),
    ) {
        let mut m = MintBank::new(MintConfig { seed });
        for rows in &intervals {
            for &r in rows {
                m.on_activate(r);
            }
            match m.take_sample() {
                Some(s) => prop_assert!(rows.contains(&s), "sample {s} not in {rows:?}"),
                None => prop_assert!(rows.is_empty()),
            }
        }
    }

    /// BlockHammer: a hammered row is throttled no later than its
    /// `blacklist_threshold`-th activation within the window (count-min
    /// overestimation fires earlier, never later).
    #[test]
    fn blockhammer_throttles_by_the_threshold(
        row in 0u32..1000,
        threshold in 2u32..32,
        seed in any::<u64>(),
    ) {
        let mut b = BlockHammerBank::new(BlockHammerConfig {
            width: 128,
            depth: 4,
            blacklist_threshold: threshold,
            window: Span::from_ms(16),
            delay: Span::from_us(2),
            seed,
        });
        let mut throttled_at = None;
        for i in 1..=threshold {
            if b.on_activate(row, Time::ZERO).is_some() {
                throttled_at = Some(i);
                break;
            }
        }
        prop_assert!(
            throttled_at.is_some(),
            "row {row} unthrottled after {threshold} activations"
        );
    }
}
