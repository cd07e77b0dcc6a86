//! Property-based tests on the §12 tracker implementations.
//!
//! The trackers' *security* rests on one property: their estimate of a
//! row's activation count never falls below the true count, so firing at
//! the threshold is always conservative. Their *noise* (the §12
//! prediction LeakyHammer exploits) is the flip side: estimates may
//! exceed truth. These tests drive the structures with arbitrary access
//! streams and check both directions.
//!
//! Two trackers are also checked step for step against a reference that
//! keeps the obvious, slower or larger layout: the indexed Graphene
//! against a table scan, and the sparse count-min sketches of CoMeT and
//! BlockHammer against the dense `width × depth` arrays they replaced.

use proptest::prelude::*;
use std::collections::HashMap;

use lh_defenses::trackers::{
    BlockHammerBank, BlockHammerConfig, CometBank, CometConfig, GrapheneBank, GrapheneConfig,
    HydraBank, HydraConfig, MintBank, MintConfig,
};
use lh_dram::{DramTiming, Span, Time};

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

/// The index of `row`'s cell in hash row `level` of a dense
/// `depth × width` array: the sketches' SplitMix64 cell hash.
fn dense_cell(seed: u64, width: usize, level: usize, row: u32) -> usize {
    let mut x = seed
        .wrapping_add((level as u64) << 32)
        .wrapping_add(row as u64)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    level * width + (x as usize % width)
}

/// A count-min sketch as one zeroed `width × depth` array: the layout
/// CoMeT and BlockHammer stored before their sketches went sparse.
struct DenseSketch {
    width: usize,
    depth: usize,
    seed: u64,
    cells: Vec<u32>,
}

impl DenseSketch {
    fn new(width: usize, depth: usize, seed: u64) -> DenseSketch {
        DenseSketch {
            width,
            depth,
            seed,
            cells: vec![0; width * depth],
        }
    }

    fn add(&mut self, row: u32) {
        for l in 0..self.depth {
            let i = dense_cell(self.seed, self.width, l, row);
            self.cells[i] = self.cells[i].saturating_add(1);
        }
    }

    fn raw(&self, row: u32) -> u32 {
        (0..self.depth)
            .map(|l| self.cells[dense_cell(self.seed, self.width, l, row)])
            .min()
            .unwrap_or(0)
    }
}

/// CoMeT over a dense sketch: the reference [`CometBank`] must match.
struct DenseComet {
    cfg: CometConfig,
    sketch: DenseSketch,
    offsets: HashMap<u32, u32>,
    epoch_end: Time,
}

impl DenseComet {
    fn new(cfg: CometConfig) -> DenseComet {
        DenseComet {
            sketch: DenseSketch::new(cfg.width, cfg.depth, cfg.seed),
            offsets: HashMap::new(),
            epoch_end: Time::ZERO + cfg.epoch,
            cfg,
        }
    }

    fn estimate(&self, row: u32) -> u32 {
        self.sketch
            .raw(row)
            .saturating_sub(self.offsets.get(&row).copied().unwrap_or(0))
    }

    fn on_activate(&mut self, row: u32, now: Time) -> Option<u32> {
        if now >= self.epoch_end {
            self.sketch.cells.fill(0);
            self.offsets.clear();
            while self.epoch_end <= now {
                self.epoch_end += self.cfg.epoch;
            }
        }
        self.sketch.add(row);
        if self.estimate(row) >= self.cfg.threshold {
            self.offsets.insert(row, self.sketch.raw(row));
            Some(row)
        } else {
            None
        }
    }
}

/// BlockHammer over two dense epoch sketches: the reference
/// [`BlockHammerBank`] must match.
struct DenseBlockHammer {
    cfg: BlockHammerConfig,
    sketches: [DenseSketch; 2],
    active: usize,
    epoch_end: Time,
}

impl DenseBlockHammer {
    fn new(cfg: BlockHammerConfig) -> DenseBlockHammer {
        let sketch = || DenseSketch::new(cfg.width, cfg.depth, cfg.seed);
        DenseBlockHammer {
            sketches: [sketch(), sketch()],
            active: 0,
            epoch_end: Time::ZERO + cfg.window,
            cfg,
        }
    }

    fn estimate(&self, row: u32) -> u32 {
        self.sketches[0].raw(row) + self.sketches[1].raw(row)
    }

    fn on_activate(&mut self, row: u32, now: Time) -> Option<Time> {
        while now >= self.epoch_end {
            self.active ^= 1;
            self.sketches[self.active].cells.fill(0);
            self.epoch_end += self.cfg.window;
        }
        self.sketches[self.active].add(row);
        if self.estimate(row) >= self.cfg.blacklist_threshold {
            Some(now + self.cfg.delay)
        } else {
            None
        }
    }
}

/// The sketch epoch (CoMeT) and window (BlockHammer) of the oracle
/// tests: short enough that a few hundred activations cross several.
const SKETCH_EPOCH_NS: u64 = 20_000;

/// Activation times and rows for the sketch oracle tests, from
/// `(pick, shape, gap_ns)` draws. Most rows come from 40 background rows
/// or a double-sided pair around row 100, so thresholds are reached. A
/// third and two thirds of the way through, the clock jumps one whole
/// epoch, so every stream crosses at least two epoch boundaries; at
/// `long_gap_at` it jumps two and a half, so one boundary crossing
/// skips an epoch that saw no activation at all.
fn sketch_stream(draws: &[(u32, u8, u64)], long_gap_at: usize) -> Vec<(u32, Time)> {
    let epoch = Span::from_ns(SKETCH_EPOCH_NS);
    let n = draws.len();
    let mut now = Time::ZERO;
    draws
        .iter()
        .enumerate()
        .map(|(i, &(pick, shape, gap_ns))| {
            now += Span::from_ns(gap_ns);
            if i == n / 3 || i == 2 * n / 3 {
                now += epoch;
            }
            if i == long_gap_at % n {
                now += Span::from_ns(SKETCH_EPOCH_NS * 5 / 2);
            }
            let row = match shape {
                0..=3 => 99 + 2 * (i as u32 % 2),
                _ => pick,
            };
            (row, now)
        })
        .collect()
}

/// Rows whose estimates the oracle tests compare after every step.
fn probed_rows() -> impl Iterator<Item = u32> {
    (0..40).chain([99, 101])
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

    /// The sparse CoMeT sketch returns the dense sketch's trigger and
    /// estimates after every activation, across epoch resets (one of
    /// them after a gap longer than two epochs), at a width where every
    /// row collides and at the N_RH = 128 width.
    #[test]
    fn comet_matches_the_dense_sketch(
        draws in proptest::collection::vec((0u32..40, 0u8..8, 0u64..400), 30..400),
        long_gap_at in any::<usize>(),
        wide in any::<bool>(),
        tiny_width in 1usize..8,
        threshold in 2u32..24,
        seed in any::<u64>(),
    ) {
        let t = DramTiming::ddr5_4800();
        let nrh128 = CometConfig::for_threshold(128, t.t_rc, t.t_refw, seed);
        let cfg = CometConfig {
            // A tiny width where rows collide, or the N_RH = 128 width.
            width: if wide { nrh128.width } else { tiny_width },
            depth: nrh128.depth,
            threshold,
            epoch: Span::from_ns(SKETCH_EPOCH_NS),
            seed,
        };
        let mut sparse = CometBank::new(cfg);
        let mut dense = DenseComet::new(cfg);
        for (i, (row, now)) in sketch_stream(&draws, long_gap_at).into_iter().enumerate() {
            prop_assert_eq!(
                sparse.on_activate(row, now),
                dense.on_activate(row, now),
                "activation {} of row {}", i, row
            );
            for r in probed_rows() {
                prop_assert_eq!(sparse.estimate(r), dense.estimate(r), "estimate of row {}", r);
            }
        }
    }

    /// The sparse BlockHammer epoch sketches return the dense pair's
    /// throttle and estimates after every activation, across rotations
    /// (one of them after a gap longer than two windows, which must
    /// clear both), at a colliding width and at the N_RH = 128 width.
    #[test]
    fn blockhammer_matches_the_dense_sketches(
        draws in proptest::collection::vec((0u32..40, 0u8..8, 0u64..400), 30..400),
        long_gap_at in any::<usize>(),
        wide in any::<bool>(),
        tiny_width in 1usize..8,
        threshold in 2u32..24,
        seed in any::<u64>(),
    ) {
        let t = DramTiming::ddr5_4800();
        let nrh128 = BlockHammerConfig::for_threshold(128, t.t_rc, t.t_refw, seed);
        let cfg = BlockHammerConfig {
            // A tiny width where rows collide, or the N_RH = 128 width.
            width: if wide { nrh128.width } else { tiny_width },
            depth: nrh128.depth,
            blacklist_threshold: threshold,
            window: Span::from_ns(SKETCH_EPOCH_NS),
            delay: Span::from_us(2),
            seed,
        };
        let mut sparse = BlockHammerBank::new(cfg);
        let mut dense = DenseBlockHammer::new(cfg);
        for (i, (row, now)) in sketch_stream(&draws, long_gap_at).into_iter().enumerate() {
            prop_assert_eq!(
                sparse.on_activate(row, now),
                dense.on_activate(row, now),
                "activation {} of row {}", i, row
            );
            for r in probed_rows() {
                prop_assert_eq!(sparse.estimate(r), dense.estimate(r), "estimate of row {}", r);
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
