//! Approximate and stateless trigger algorithms (§12 of the paper).
//!
//! The paper's §12 classifies RowHammer-defense *trigger algorithms* into
//! three classes and argues how each interacts with the LeakyHammer timing
//! channel:
//!
//! * **exact** trackers (PRAC, PRFM) — one counter per resource; an
//!   attacker triggers preventive actions deterministically;
//! * **approximate** trackers (Graphene, Hydra, CoMeT, BlockHammer) — fewer
//!   trackers than rows; tracker sharing adds noise but the channel
//!   remains;
//! * **random** triggers (PARA, MINT's random sampling) — stateless; the
//!   attacker cannot reliably trigger or observe actions.
//!
//! This module implements one representative of each approximate family as
//! a per-bank data structure, so the quantitative taxonomy experiment
//! (`leakyhammer::experiment::taxonomy`) can measure the *realized*
//! channel capacity against every class instead of arguing qualitatively:
//!
//! | Tracker | Literature analog | Structure | State per bank |
//! |---|---|---|---|
//! | [`GrapheneBank`] | Graphene (MICRO'20) | Misra-Gries / space-saving summary | per tracked row, up to `entries` |
//! | [`HydraBank`] | Hydra (ISCA'22) | group counters + per-row spill cache | per group up to the highest touched, per engaged row |
//! | [`CometBank`] | CoMeT (HPCA'24) | count-min sketch | per touched cell, per mitigated row |
//! | [`MintBank`] | MINT/PrIDE (MICRO/ISCA'24) | reservoir-sampled in-REF refresh | constant |
//! | [`BlockHammerBank`] | BlockHammer (HPCA'21) | epoch-rotated count-min rate filter | per touched cell, two epochs |
//!
//! CoMeT and BlockHammer share one sparse [`CountMin`] sketch: its `width`
//! is logical, and memory follows the cells activations touch, not
//! `width × depth`.
//!
//! All trackers are deterministic given their seed, like everything else
//! in this workspace.

use std::collections::BTreeSet;

use lh_dram::{RowMap, Span, Time};

// ---------------------------------------------------------------------------
// Graphene: Misra-Gries (space-saving) summary
// ---------------------------------------------------------------------------

/// Configuration of a Graphene-style per-bank frequent-item tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrapheneConfig {
    /// Number of counter entries per bank.
    ///
    /// With the space-saving summary, any row activated more than
    /// `N / entries` times within an epoch of `N` bank activations is
    /// guaranteed to be tracked, so `entries` must be at least
    /// `acts_per_epoch / threshold` for security.
    pub entries: usize,
    /// Estimated-count threshold at which the tracked row's victims are
    /// preventively refreshed (and its counter reset).
    pub threshold: u32,
    /// Epoch length after which all counters reset (Graphene resets its
    /// tables every refresh window `tREFW`).
    pub epoch: Span,
}

impl GrapheneConfig {
    /// Sizes the tracker for RowHammer threshold `nrh` on a device with
    /// row-cycle time `t_rc` and refresh window `t_refw`.
    ///
    /// `threshold = max(1, nrh/2 − 8)` mirrors [`crate::scaled_nbo`]; the
    /// table holds one entry per `threshold` activations that fit in a
    /// `tREFW` epoch, plus one, which makes the space-saving guarantee
    /// cover every possible aggressor.
    pub fn for_threshold(nrh: u32, t_rc: Span, t_refw: Span) -> GrapheneConfig {
        let threshold = crate::scaled_nbo(nrh);
        let acts_per_epoch = (t_refw / t_rc).max(1);
        let entries = (acts_per_epoch / threshold as u64 + 1) as usize;
        GrapheneConfig {
            entries,
            threshold,
            epoch: t_refw,
        }
    }
}

/// One bank's Graphene tracker: a space-saving frequent-item summary.
///
/// The summary maintains `entries` `(row, count)` pairs. A tracked row's
/// activation increments its counter; an untracked row replaces the
/// minimum entry, inheriting `min + 1` as its (over)estimate. The classic
/// guarantee — estimates never underestimate, and any row with true count
/// `> N / entries` is present — is what makes Graphene secure; the
/// *over*-estimation and entry-stealing are what §12 predicts will add
/// noise to a LeakyHammer channel.
///
/// # Examples
///
/// ```
/// use lh_defenses::trackers::{GrapheneBank, GrapheneConfig};
/// use lh_dram::{Span, Time};
///
/// let cfg = GrapheneConfig { entries: 4, threshold: 3, epoch: Span::from_ms(32) };
/// let mut g = GrapheneBank::new(cfg);
/// assert_eq!(g.on_activate(7, Time::ZERO), None);
/// assert_eq!(g.on_activate(7, Time::ZERO), None);
/// // Third activation reaches the threshold: row 7 must be mitigated.
/// assert_eq!(g.on_activate(7, Time::ZERO), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct GrapheneBank {
    cfg: GrapheneConfig,
    /// `(row, estimated count)` slots in insertion order. Grows as rows
    /// arrive rather than reserving `entries` slots up front: at
    /// N_RH = 256 that reservation is 44 KB per bank, 2.8 MB per 64-bank
    /// system, of which a covert-channel run fills a few slots, and on a
    /// pool thread it raised the process's peak memory by up to 2.3 MB
    /// depending on which thread's heap it landed in.
    table: Vec<(u32, u32)>,
    /// Row → its slot in `table` (rows are unique in the table).
    slot_of: RowMap<usize>,
    /// `(count, slot)` of every slot, so the first element is the
    /// replace-min victim: the minimum count, first in table order among
    /// equals. Only a full table ever needs its minimum, so the set is
    /// built by the first eviction of an epoch and empty until then.
    by_count: BTreeSet<(u32, usize)>,
    epoch_end: Time,
    /// Preventive triggers fired (for instrumentation).
    triggers: u64,
}

impl GrapheneBank {
    /// Creates an empty tracker.
    pub fn new(cfg: GrapheneConfig) -> GrapheneBank {
        GrapheneBank {
            table: Vec::new(),
            slot_of: RowMap::default(),
            by_count: BTreeSet::new(),
            cfg,
            epoch_end: Time::ZERO + cfg.epoch,
            triggers: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GrapheneConfig {
        &self.cfg
    }

    /// Number of preventive triggers fired so far.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// The tracker's current estimate for `row` (`None` when untracked).
    pub fn estimate(&self, row: u32) -> Option<u32> {
        self.slot_of.get(&row).map(|&slot| self.table[slot].1)
    }

    /// Sets `slot`'s count, keeping the ordered view (when built) in step.
    fn set_count(&mut self, slot: usize, count: u32) {
        let old = std::mem::replace(&mut self.table[slot].1, count);
        if !self.by_count.is_empty() {
            self.by_count.remove(&(old, slot));
            self.by_count.insert((count, slot));
        }
    }

    /// Records an activation of `row` at `now`; returns the row whose
    /// victims must be preventively refreshed, if the estimate crossed the
    /// threshold.
    pub fn on_activate(&mut self, row: u32, now: Time) -> Option<u32> {
        if now >= self.epoch_end {
            self.table.clear();
            self.slot_of.clear();
            self.by_count.clear();
            // Skip whole idle epochs rather than looping one at a time.
            while self.epoch_end <= now {
                self.epoch_end += self.cfg.epoch;
            }
        }
        let count = if let Some(&slot) = self.slot_of.get(&row) {
            let count = self.table[slot].1 + 1;
            self.set_count(slot, count);
            count
        } else if self.table.len() < self.cfg.entries {
            self.slot_of.insert(row, self.table.len());
            self.table.push((row, 1));
            1
        } else {
            // Replace the minimum entry (space-saving): the newcomer
            // inherits min+1, an overestimate of its true count.
            if self.by_count.is_empty() {
                self.by_count = self
                    .table
                    .iter()
                    .enumerate()
                    .map(|(slot, &(_, count))| (count, slot))
                    .collect();
            }
            let (min, slot) = self.by_count.pop_first().expect("table is non-empty");
            self.by_count.insert((min + 1, slot));
            self.slot_of.remove(&self.table[slot].0);
            self.slot_of.insert(row, slot);
            self.table[slot] = (row, min + 1);
            min + 1
        };
        if count >= self.cfg.threshold {
            self.reset(row);
            self.triggers += 1;
            Some(row)
        } else {
            None
        }
    }

    /// Resets `row`'s counter after its victims were refreshed.
    pub fn reset(&mut self, row: u32) {
        if let Some(&slot) = self.slot_of.get(&row) {
            self.set_count(slot, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Hydra: group counters with per-row spill
// ---------------------------------------------------------------------------

/// Configuration of a Hydra-style two-level tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HydraConfig {
    /// Rows per group counter.
    pub group_size: u32,
    /// Group-counter value at which the group switches to per-row
    /// tracking.
    pub group_threshold: u32,
    /// Per-row count at which the row's victims are refreshed.
    pub row_threshold: u32,
    /// Capacity of the per-row count cache; when full, the incoming row is
    /// mitigated immediately (a conservative stand-in for Hydra's RCC
    /// write-back traffic, which is itself an observable preventive
    /// action).
    pub row_cache_cap: usize,
    /// Epoch after which all counters reset.
    pub epoch: Span,
}

impl HydraConfig {
    /// Sizes the tracker for RowHammer threshold `nrh`.
    ///
    /// Rows are mitigated at the PRAC-equivalent threshold
    /// ([`crate::scaled_nbo`]); groups of 128 rows engage per-row tracking
    /// at half that, so the pessimistic per-row initialization still
    /// leaves headroom before the row threshold. The cache holds 4 K rows,
    /// matching the flavor of Hydra's SRAM row-count cache.
    pub fn for_threshold(nrh: u32, t_refw: Span) -> HydraConfig {
        let row_threshold = crate::scaled_nbo(nrh);
        HydraConfig {
            group_size: 128,
            group_threshold: (row_threshold / 2).max(1),
            row_threshold,
            row_cache_cap: 4096,
            epoch: t_refw,
        }
    }
}

/// One bank's Hydra tracker.
///
/// All rows of a group share one counter until the group gets hot
/// (`group_threshold`); from then on the group's rows are tracked
/// individually, *initialized pessimistically to the group count* so no
/// activation is ever lost. §12's prediction: the shared group counters
/// let co-running processes advance each other's trackers, adding noise to
/// a LeakyHammer channel but not closing it.
///
/// # Examples
///
/// ```
/// use lh_defenses::trackers::{HydraBank, HydraConfig};
/// use lh_dram::{Span, Time};
///
/// let cfg = HydraConfig {
///     group_size: 8,
///     group_threshold: 2,
///     row_threshold: 4,
///     row_cache_cap: 16,
///     epoch: Span::from_ms(32),
/// };
/// let mut h = HydraBank::new(cfg);
/// // Two activations anywhere in the group engage per-row tracking…
/// assert_eq!(h.on_activate(0, Time::ZERO), None);
/// assert_eq!(h.on_activate(1, Time::ZERO), None);
/// // …and the per-row counter starts at the group count (2), so two more
/// // activations of row 0 reach the row threshold of 4.
/// assert_eq!(h.on_activate(0, Time::ZERO), None);
/// assert_eq!(h.on_activate(0, Time::ZERO), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct HydraBank {
    cfg: HydraConfig,
    groups: Vec<u32>,
    /// Engaged per-row counters `(row, count)`.
    rows: Vec<(u32, u32)>,
    epoch_end: Time,
    triggers: u64,
}

impl HydraBank {
    /// Creates a tracker covering `rows_per_bank` rows.
    pub fn new(cfg: HydraConfig) -> HydraBank {
        HydraBank {
            groups: Vec::new(),
            rows: Vec::new(),
            epoch_end: Time::ZERO + cfg.epoch,
            cfg,
            triggers: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HydraConfig {
        &self.cfg
    }

    /// Number of preventive triggers fired so far.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// The group counter for `row`'s group.
    pub fn group_count(&self, row: u32) -> u32 {
        let g = (row / self.cfg.group_size) as usize;
        self.groups.get(g).copied().unwrap_or(0)
    }

    /// Records an activation of `row` at `now`; returns the row to
    /// mitigate when its (pessimistic) count crosses the row threshold.
    pub fn on_activate(&mut self, row: u32, now: Time) -> Option<u32> {
        if now >= self.epoch_end {
            self.groups.clear();
            self.rows.clear();
            while self.epoch_end <= now {
                self.epoch_end += self.cfg.epoch;
            }
        }
        let g = (row / self.cfg.group_size) as usize;
        if self.groups.len() <= g {
            self.groups.resize(g + 1, 0);
        }
        if self.groups[g] < self.cfg.group_threshold {
            self.groups[g] += 1;
            return None;
        }
        // Group is hot: per-row tracking, initialized to the group count.
        let init = self.groups[g];
        let count = if let Some(e) = self.rows.iter_mut().find(|e| e.0 == row) {
            e.1 += 1;
            e.1
        } else if self.rows.len() < self.cfg.row_cache_cap {
            self.rows.push((row, init + 1));
            init + 1
        } else {
            // Cache full: mitigate immediately (conservative).
            self.triggers += 1;
            return Some(row);
        };
        if count >= self.cfg.row_threshold {
            if let Some(e) = self.rows.iter_mut().find(|e| e.0 == row) {
                e.1 = 0;
            }
            self.triggers += 1;
            Some(row)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// CoMeT: count-min sketch
// ---------------------------------------------------------------------------

/// Configuration of a CoMeT-style count-min-sketch tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CometConfig {
    /// Counters per hash row. The width is logical: it sets which cell a
    /// row hashes to, and the sketch stores only the cells activations
    /// have touched (see [`CountMin`]).
    pub width: usize,
    /// Number of hash rows.
    pub depth: usize,
    /// Estimated-count threshold for mitigation.
    pub threshold: u32,
    /// Epoch after which the sketch resets.
    pub epoch: Span,
    /// Seed of the hash family.
    pub seed: u64,
}

impl CometConfig {
    /// Sizes the sketch for RowHammer threshold `nrh`: depth 4 and a width
    /// that keeps the expected collision inflation within the threshold's
    /// safety margin for a `tREFW` epoch of activations.
    pub fn for_threshold(nrh: u32, t_rc: Span, t_refw: Span, seed: u64) -> CometConfig {
        let threshold = crate::scaled_nbo(nrh);
        let acts_per_epoch = (t_refw / t_rc).max(1);
        // Expected collision contribution per cell ≈ acts/width; keep it
        // below an eighth of the threshold.
        let width = (acts_per_epoch / (threshold as u64 / 8).max(1)).next_power_of_two() as usize;
        CometConfig {
            width: width.max(64),
            depth: 4,
            threshold,
            epoch: t_refw,
            seed,
        }
    }
}

/// One bank's count-min-sketch tracker.
///
/// Every activation increments `depth` hashed cells; a row's estimate is
/// the minimum over its cells and never underestimates, so mitigating at
/// `threshold` is secure. Collisions inflate estimates — other processes'
/// activations can fire the attacker's trigger early, the noise source
/// §12 predicts for sketch-based trackers.
///
/// A mitigated row's count restarts via a per-row *offset* (the moral
/// equivalent of CoMeT's recent-aggressor table): zeroing the shared
/// cells instead would silently deflate colliding rows' estimates below
/// their true counts, breaking the sketch's security guarantee.
///
/// # Examples
///
/// ```
/// use lh_defenses::trackers::{CometBank, CometConfig};
/// use lh_dram::{Span, Time};
///
/// let cfg = CometConfig {
///     width: 64,
///     depth: 4,
///     threshold: 2,
///     epoch: Span::from_ms(32),
///     seed: 7,
/// };
/// let mut c = CometBank::new(cfg);
/// assert_eq!(c.on_activate(3, Time::ZERO), None);
/// assert_eq!(c.on_activate(3, Time::ZERO), Some(3));
/// assert_eq!(c.estimate(3), 0); // restarted after the trigger
/// ```
#[derive(Debug, Clone)]
pub struct CometBank {
    cfg: CometConfig,
    sketch: CountMin,
    /// Raw sketch value at each row's last mitigation (bounded by the
    /// number of mitigations per epoch).
    offsets: RowMap<u32>,
    epoch_end: Time,
    triggers: u64,
}

impl CometBank {
    /// Creates an empty sketch.
    pub fn new(cfg: CometConfig) -> CometBank {
        CometBank {
            sketch: CountMin::new(cfg.width, cfg.depth, cfg.seed),
            offsets: RowMap::default(),
            epoch_end: Time::ZERO + cfg.epoch,
            cfg,
            triggers: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CometConfig {
        &self.cfg
    }

    /// Number of preventive triggers fired so far.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// `raw` minus `row`'s offset: the count since its last mitigation.
    fn since_mitigation(&self, row: u32, raw: u32) -> u32 {
        raw.saturating_sub(self.offsets.get(&row).copied().unwrap_or(0))
    }

    /// The sketch's estimate for `row` since its last mitigation (an
    /// overestimate of the true count).
    pub fn estimate(&self, row: u32) -> u32 {
        self.since_mitigation(row, self.sketch.min(row))
    }

    /// Records an activation of `row` at `now`; returns the row to
    /// mitigate when its estimate crosses the threshold.
    pub fn on_activate(&mut self, row: u32, now: Time) -> Option<u32> {
        if now >= self.epoch_end {
            self.sketch.clear();
            self.offsets.clear();
            while self.epoch_end <= now {
                self.epoch_end += self.cfg.epoch;
            }
        }
        let raw = self.sketch.add(row);
        if self.since_mitigation(row, raw) >= self.cfg.threshold {
            self.offsets.insert(row, raw);
            self.triggers += 1;
            Some(row)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// MINT: reservoir-sampled in-REF preventive refresh (overlapped latency)
// ---------------------------------------------------------------------------

/// Configuration of a MINT-style in-refresh mitigator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MintConfig {
    /// Seed of the reservoir sampler.
    pub seed: u64,
}

/// One bank's MINT tracker: between two periodic refreshes, sample one of
/// the bank's activations uniformly at random (reservoir sampling); at the
/// next REF the sampled row's victims are refreshed *inside the REF
/// window*, costing no extra time.
///
/// This is the paper's **overlapped latency** class (§12): there is no
/// observable preventive action, so no LeakyHammer channel — but the
/// mitigation capacity is limited to one aggressor per `tREFI`, which only
/// suffices for `N_RH` in the thousands (the trade-off §12 points out).
///
/// # Examples
///
/// ```
/// use lh_defenses::trackers::{MintBank, MintConfig};
///
/// let mut m = MintBank::new(MintConfig { seed: 1 });
/// m.on_activate(10);
/// m.on_activate(20);
/// let sampled = m.take_sample().unwrap();
/// assert!(sampled == 10 || sampled == 20);
/// assert!(m.take_sample().is_none()); // interval restarts
/// ```
#[derive(Debug, Clone)]
pub struct MintBank {
    /// xorshift64* state.
    rng: u64,
    candidate: Option<u32>,
    acts: u64,
}

impl MintBank {
    /// Creates an empty sampler.
    pub fn new(cfg: MintConfig) -> MintBank {
        MintBank {
            rng: cfg.seed | 1,
            candidate: None,
            acts: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: tiny, deterministic, good enough for sampling.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Records an activation of `row`; the reservoir keeps each activation
    /// of the interval with equal probability.
    pub fn on_activate(&mut self, row: u32) {
        self.acts += 1;
        if self.next_u64().is_multiple_of(self.acts) {
            self.candidate = Some(row);
        }
    }

    /// Takes the interval's sampled aggressor (called at each periodic
    /// REF) and restarts the interval.
    pub fn take_sample(&mut self) -> Option<u32> {
        self.acts = 0;
        self.candidate.take()
    }
}

// ---------------------------------------------------------------------------
// BlockHammer: epoch-rotated count-min rate filter with throttling
// ---------------------------------------------------------------------------

/// Configuration of a BlockHammer-style throttling filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHammerConfig {
    /// Counters per hash row of each epoch sketch. The width is logical:
    /// it sets which cell a row hashes to, and each sketch stores only the
    /// cells activations have touched (see [`CountMin`]).
    pub width: usize,
    /// Hash rows per epoch sketch.
    pub depth: usize,
    /// Estimated activations within the observation window at which a row
    /// is blacklisted.
    pub blacklist_threshold: u32,
    /// Observation window (one epoch; two epochs alternate like
    /// BlockHammer's dual counting Bloom filters).
    pub window: Span,
    /// Minimum time between two activations of a blacklisted row: the
    /// *throttle* — the observable preventive action of this defense.
    pub delay: Span,
    /// Seed of the hash family.
    pub seed: u64,
}

impl BlockHammerConfig {
    /// Sizes the filter for RowHammer threshold `nrh`: blacklist at an
    /// eighth of `nrh` per half-`tREFW` window and delay blacklisted rows
    /// so that no row can exceed `nrh` activations per `tREFW`.
    pub fn for_threshold(nrh: u32, t_rc: Span, t_refw: Span, seed: u64) -> BlockHammerConfig {
        let blacklist_threshold = (nrh / 8).max(1);
        let window = t_refw / 2;
        // A blacklisted row may perform at most (nrh − threshold) further
        // ACTs per window: space them out accordingly.
        let remaining = (nrh - blacklist_threshold).max(1) as u64;
        let delay = (window / remaining).max(t_rc);
        let acts_per_window = (window / t_rc).max(1);
        let width = (acts_per_window / (blacklist_threshold as u64 / 8).max(1)).next_power_of_two()
            as usize;
        BlockHammerConfig {
            width: width.max(64),
            depth: 4,
            blacklist_threshold,
            window,
            delay,
            seed,
        }
    }
}

/// One bank's BlockHammer filter.
///
/// Activation rates are estimated with two alternating count-min sketches
/// (the active epoch counts; the previous epoch still contributes to the
/// estimate, so a hammering row cannot hide by straddling the boundary).
/// Rows whose estimate crosses the blacklist threshold are *throttled*:
/// their next activation must wait [`BlockHammerConfig::delay`]. Throttling
/// is an observable preventive action — §12 places BlockHammer with the
/// approximate/observable class, and the delay is exactly what a
/// LeakyHammer receiver would time.
///
/// # Examples
///
/// ```
/// use lh_defenses::trackers::{BlockHammerBank, BlockHammerConfig};
/// use lh_dram::{Span, Time};
///
/// let cfg = BlockHammerConfig {
///     width: 64,
///     depth: 4,
///     blacklist_threshold: 3,
///     window: Span::from_ms(16),
///     delay: Span::from_us(1),
///     seed: 3,
/// };
/// let mut b = BlockHammerBank::new(cfg);
/// assert_eq!(b.on_activate(5, Time::ZERO), None);
/// assert_eq!(b.on_activate(5, Time::ZERO), None);
/// // Third activation crosses the blacklist threshold: throttle.
/// let until = b.on_activate(5, Time::ZERO).unwrap();
/// assert_eq!(until, Time::ZERO + Span::from_us(1));
/// ```
#[derive(Debug, Clone)]
pub struct BlockHammerBank {
    cfg: BlockHammerConfig,
    /// The two epoch sketches; `sketches[active]` counts.
    sketches: [CountMin; 2],
    active: usize,
    epoch_end: Time,
    throttles: u64,
}

impl BlockHammerBank {
    /// Creates an empty filter.
    pub fn new(cfg: BlockHammerConfig) -> BlockHammerBank {
        let sketch = CountMin::new(cfg.width, cfg.depth, cfg.seed);
        BlockHammerBank {
            sketches: [sketch.clone(), sketch],
            active: 0,
            epoch_end: Time::ZERO + cfg.window,
            cfg,
            throttles: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BlockHammerConfig {
        &self.cfg
    }

    /// Number of throttle decisions so far.
    pub fn throttles(&self) -> u64 {
        self.throttles
    }

    fn rotate(&mut self, now: Time) {
        while now >= self.epoch_end {
            self.active ^= 1;
            self.sketches[self.active].clear();
            self.epoch_end += self.cfg.window;
        }
    }

    /// The filter's rate estimate for `row` (active + previous epoch).
    pub fn estimate(&self, row: u32) -> u32 {
        self.sketches[self.active].min(row) + self.sketches[self.active ^ 1].min(row)
    }

    /// Records an activation of `row` at `now`; returns the time until
    /// which further activations of `row` must be delayed, when the row is
    /// blacklisted.
    pub fn on_activate(&mut self, row: u32, now: Time) -> Option<Time> {
        self.rotate(now);
        let active = self.sketches[self.active].add(row);
        if active + self.sketches[self.active ^ 1].min(row) >= self.cfg.blacklist_threshold {
            self.throttles += 1;
            Some(now + self.cfg.delay)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// The count-min sketch CoMeT and BlockHammer share
// ---------------------------------------------------------------------------

/// A count-min sketch of `depth` hash rows of `width` saturating counters,
/// stored sparsely: only the cells an activation has touched hold an
/// entry, and an absent cell reads 0.
///
/// `width` and `depth` are the logical sketch size — they fix which cells
/// a row hashes to — so the sketch reads and writes exactly the cells a
/// dense `width × depth` array would, and nothing observable depends on
/// the map's iteration order because nothing iterates it. What it saves
/// is the array: at N_RH = 128 a dense BlockHammer epoch sketch is 4 MiB
/// per bank, of which a covert transmission touches a few dozen cells.
///
/// # Examples
///
/// ```
/// use lh_defenses::trackers::CountMin;
///
/// let mut s = CountMin::new(1 << 20, 4, 9);
/// assert_eq!(s.add(5), 1);
/// assert_eq!(s.add(5), 2);
/// assert_eq!(s.min(5), 2);
/// s.clear();
/// assert_eq!(s.min(5), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CountMin {
    width: usize,
    depth: usize,
    seed: u64,
    /// Flat cell index (`level × width + column`) → count.
    cells: RowMap<u32>,
}

impl CountMin {
    /// Creates an empty sketch.
    ///
    /// # Panics
    ///
    /// If a flat cell index would not fit in a `u32`.
    pub fn new(width: usize, depth: usize, seed: u64) -> CountMin {
        assert!(
            u32::try_from((width * depth).saturating_sub(1)).is_ok(),
            "a {width} × {depth} sketch overflows u32 cell indices"
        );
        CountMin {
            width,
            depth,
            seed,
            cells: RowMap::default(),
        }
    }

    /// The flat index of `row`'s cell in hash row `level`.
    fn cell(&self, level: usize, row: u32) -> u32 {
        // SplitMix64-style mix of (seed, level, row): cheap, deterministic
        // and well-distributed — cryptographic strength is irrelevant here.
        let mut x = self
            .seed
            .wrapping_add((level as u64) << 32)
            .wrapping_add(row as u64)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (level * self.width + (x as usize % self.width)) as u32
    }

    /// Increments `row`'s cells (saturating) and returns its new estimate.
    pub fn add(&mut self, row: u32) -> u32 {
        let mut min = u32::MAX;
        for level in 0..self.depth {
            let cell = self.cells.entry(self.cell(level, row)).or_insert(0);
            *cell = cell.saturating_add(1);
            min = min.min(*cell);
        }
        if self.depth == 0 {
            0
        } else {
            min
        }
    }

    /// `row`'s estimate: the minimum over its cells, never below its true
    /// count since the last [`CountMin::clear`].
    pub fn min(&self, row: u32) -> u32 {
        (0..self.depth)
            .map(|level| self.cells.get(&self.cell(level, row)).copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
    }

    /// Zeroes every cell.
    pub fn clear(&mut self) {
        self.cells.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Time {
        Time::ZERO
    }

    // --- Graphene ---------------------------------------------------------

    fn graphene(entries: usize, threshold: u32) -> GrapheneBank {
        GrapheneBank::new(GrapheneConfig {
            entries,
            threshold,
            epoch: Span::from_ms(32),
        })
    }

    #[test]
    fn graphene_triggers_at_threshold_and_resets() {
        let mut g = graphene(8, 4);
        for _ in 0..3 {
            assert_eq!(g.on_activate(1, t0()), None);
        }
        assert_eq!(g.on_activate(1, t0()), Some(1));
        assert_eq!(g.estimate(1), Some(0));
        assert_eq!(g.triggers(), 1);
    }

    #[test]
    fn graphene_never_underestimates() {
        // 2 entries, 3 distinct rows: estimates must stay ≥ true counts.
        let mut g = graphene(2, u32::MAX);
        let mut truth = [0u32; 3];
        let pattern = [0u32, 1, 2, 0, 2, 2, 1, 0, 0, 2];
        for &r in &pattern {
            g.on_activate(r, t0());
            truth[r as usize] += 1;
        }
        for r in 0..3u32 {
            if let Some(est) = g.estimate(r) {
                assert!(
                    est >= truth[r as usize],
                    "row {r}: est {est} < true {}",
                    truth[r as usize]
                );
            }
        }
    }

    #[test]
    fn graphene_heavy_hitter_is_always_tracked() {
        // Space-saving guarantee: a row with count > N/entries is present.
        let mut g = graphene(4, u32::MAX);
        // 100 activations total; row 9 gets 30 (> 100/4).
        let mut n = 0;
        for i in 0..70u32 {
            g.on_activate(i % 7, t0());
            n += 1;
            if i % 7 == 0 && n < 100 {
                // interleave the heavy hitter
            }
        }
        for _ in 0..30 {
            g.on_activate(9, t0());
        }
        assert!(g.estimate(9).is_some(), "heavy hitter must be tracked");
        assert!(g.estimate(9).unwrap() >= 30);
    }

    #[test]
    fn graphene_epoch_reset_clears_table() {
        let mut g = graphene(4, 100);
        g.on_activate(5, t0());
        assert_eq!(g.estimate(5), Some(1));
        let later = Time::ZERO + Span::from_ms(33);
        g.on_activate(6, later);
        assert_eq!(g.estimate(5), None, "old epoch entries cleared");
    }

    #[test]
    fn graphene_eviction_inherits_min_plus_one() {
        let mut g = graphene(1, u32::MAX);
        g.on_activate(1, t0());
        g.on_activate(1, t0());
        // Row 2 evicts row 1 and inherits 2 + 1 = 3 (overestimate).
        g.on_activate(2, t0());
        assert_eq!(g.estimate(1), None);
        assert_eq!(g.estimate(2), Some(3));
    }

    #[test]
    fn graphene_for_threshold_sizing_covers_worst_case() {
        let t_rc = Span::from_ns(48);
        let t_refw = Span::from_ms(32);
        let cfg = GrapheneConfig::for_threshold(1024, t_rc, t_refw);
        let acts_per_epoch = t_refw / t_rc;
        // Any row activated ≥ threshold times must be caught: requires
        // entries > acts/threshold.
        assert!(cfg.entries as u64 > acts_per_epoch / cfg.threshold as u64);
    }

    // --- Hydra ------------------------------------------------------------

    fn hydra() -> HydraBank {
        HydraBank::new(HydraConfig {
            group_size: 4,
            group_threshold: 3,
            row_threshold: 6,
            row_cache_cap: 8,
            epoch: Span::from_ms(32),
        })
    }

    #[test]
    fn hydra_group_counter_is_shared() {
        let mut h = hydra();
        // Rows 0..3 share group 0.
        h.on_activate(0, t0());
        h.on_activate(1, t0());
        h.on_activate(2, t0());
        assert_eq!(h.group_count(3), 3, "whole group sees the count");
    }

    #[test]
    fn hydra_row_counter_initializes_pessimistically() {
        let mut h = hydra();
        for _ in 0..3 {
            h.on_activate(0, t0()); // group reaches 3
        }
        // Row 1 never activated before; its first tracked count is
        // group(3) + 1 = 4, and two more activations reach 6.
        assert_eq!(h.on_activate(1, t0()), None); // 4
        assert_eq!(h.on_activate(1, t0()), None); // 5
        assert_eq!(h.on_activate(1, t0()), Some(1)); // 6 → mitigate
        assert_eq!(h.triggers(), 1);
    }

    #[test]
    fn hydra_full_cache_mitigates_conservatively() {
        let mut h = HydraBank::new(HydraConfig {
            group_size: 1,
            group_threshold: 1,
            row_threshold: 100,
            row_cache_cap: 1,
            epoch: Span::from_ms(32),
        });
        // Row 0: engages group 0 (count 1). Next ACT inserts row 0.
        h.on_activate(0, t0());
        h.on_activate(0, t0());
        // Row 1: engages group 1, then the row cache is full → mitigate.
        h.on_activate(1, t0());
        assert_eq!(h.on_activate(1, t0()), Some(1));
    }

    #[test]
    fn hydra_epoch_reset() {
        let mut h = hydra();
        for _ in 0..5 {
            h.on_activate(0, t0());
        }
        let later = Time::ZERO + Span::from_ms(40);
        h.on_activate(0, later);
        assert_eq!(h.group_count(0), 1, "epoch reset restarted the group");
    }

    #[test]
    fn hydra_for_threshold_row_threshold_matches_nbo_rule() {
        let cfg = HydraConfig::for_threshold(1024, Span::from_ms(32));
        assert_eq!(cfg.row_threshold, crate::scaled_nbo(1024));
        assert!(cfg.group_threshold < cfg.row_threshold);
    }

    // --- CoMeT ------------------------------------------------------------

    fn comet(threshold: u32) -> CometBank {
        CometBank::new(CometConfig {
            width: 128,
            depth: 4,
            threshold,
            epoch: Span::from_ms(32),
            seed: 11,
        })
    }

    #[test]
    fn comet_estimate_never_underestimates() {
        let mut c = comet(u32::MAX);
        for _ in 0..17 {
            c.on_activate(42, t0());
        }
        assert!(c.estimate(42) >= 17);
    }

    #[test]
    fn comet_triggers_and_resets_cells() {
        let mut c = comet(5);
        for i in 0..4 {
            assert_eq!(c.on_activate(9, t0()), None, "iteration {i}");
        }
        assert_eq!(c.on_activate(9, t0()), Some(9));
        assert_eq!(c.estimate(9), 0);
        assert_eq!(c.triggers(), 1);
    }

    #[test]
    fn comet_collisions_inflate_other_rows() {
        // With width 1 every row shares one cell per level: perfect
        // collision. Activating row A advances row B's estimate.
        let mut c = CometBank::new(CometConfig {
            width: 1,
            depth: 2,
            threshold: u32::MAX,
            epoch: Span::from_ms(32),
            seed: 1,
        });
        c.on_activate(1, t0());
        c.on_activate(1, t0());
        assert_eq!(c.estimate(2), 2, "full collision transfers counts");
    }

    #[test]
    fn comet_epoch_resets_sketch() {
        let mut c = comet(1000);
        c.on_activate(3, t0());
        assert_eq!(c.estimate(3), 1);
        c.on_activate(4, Time::ZERO + Span::from_ms(33));
        assert_eq!(c.estimate(3), 0);
    }

    #[test]
    fn comet_distinct_rows_mostly_do_not_collide() {
        let mut c = comet(u32::MAX);
        for row in 0..8 {
            c.on_activate(row, t0());
        }
        // With width 128 and 8 rows, most estimates should be exactly 1.
        let exact = (0..8).filter(|&r| c.estimate(r) == 1).count();
        assert!(exact >= 6, "{exact}/8 rows estimated exactly");
    }

    // --- MINT --------------------------------------------------------------

    #[test]
    fn mint_samples_one_of_the_intervals_activations() {
        let mut m = MintBank::new(MintConfig { seed: 9 });
        for row in [3u32, 5, 7] {
            m.on_activate(row);
        }
        let s = m.take_sample().unwrap();
        assert!([3, 5, 7].contains(&s));
    }

    #[test]
    fn mint_empty_interval_samples_nothing() {
        let mut m = MintBank::new(MintConfig { seed: 9 });
        assert!(m.take_sample().is_none());
        m.on_activate(1);
        let _ = m.take_sample();
        assert!(m.take_sample().is_none(), "interval restarted");
    }

    #[test]
    fn mint_sampling_is_roughly_uniform() {
        let mut m = MintBank::new(MintConfig { seed: 4 });
        let mut hits = [0u32; 4];
        for _ in 0..4000 {
            for row in 0..4u32 {
                m.on_activate(row);
            }
            hits[m.take_sample().unwrap() as usize] += 1;
        }
        for (row, &h) in hits.iter().enumerate() {
            assert!(
                (700..=1300).contains(&h),
                "row {row} sampled {h}/4000 times; expected ≈1000"
            );
        }
    }

    #[test]
    fn mint_single_activation_is_always_sampled() {
        let mut m = MintBank::new(MintConfig { seed: 2 });
        for _ in 0..50 {
            m.on_activate(77);
            assert_eq!(m.take_sample(), Some(77));
        }
    }

    // --- BlockHammer --------------------------------------------------------

    fn blockhammer(threshold: u32) -> BlockHammerBank {
        BlockHammerBank::new(BlockHammerConfig {
            width: 128,
            depth: 4,
            blacklist_threshold: threshold,
            window: Span::from_ms(16),
            delay: Span::from_us(2),
            seed: 5,
        })
    }

    #[test]
    fn blockhammer_throttles_above_threshold() {
        let mut b = blockhammer(4);
        for _ in 0..3 {
            assert_eq!(b.on_activate(1, t0()), None);
        }
        let until = b.on_activate(1, t0()).unwrap();
        assert_eq!(until, Time::ZERO + Span::from_us(2));
        assert_eq!(b.throttles(), 1);
    }

    #[test]
    fn blockhammer_estimate_spans_two_epochs() {
        let mut b = blockhammer(u32::MAX);
        b.on_activate(6, t0());
        b.on_activate(6, t0());
        // Next epoch: previous epoch still counts toward the estimate.
        let e1 = Time::ZERO + Span::from_ms(17);
        b.on_activate(6, e1);
        assert_eq!(b.estimate(6), 3);
        // Two epochs later the old counts are gone.
        let e2 = Time::ZERO + Span::from_ms(33);
        b.on_activate(6, e2);
        assert_eq!(b.estimate(6), 2, "epoch e1's single count + this one");
    }

    #[test]
    fn blockhammer_cold_rows_are_never_throttled() {
        let mut b = blockhammer(8);
        for row in 0..200u32 {
            assert_eq!(b.on_activate(row, t0()), None, "row {row}");
        }
    }

    #[test]
    fn blockhammer_for_threshold_delay_bounds_rate() {
        let t_rc = Span::from_ns(48);
        let t_refw = Span::from_ms(32);
        let cfg = BlockHammerConfig::for_threshold(1024, t_rc, t_refw, 1);
        // After blacklisting, a row can do at most window/delay more ACTs
        // per window; together with the threshold that stays under nrh.
        let max_acts = cfg.blacklist_threshold as u64 + (cfg.window / cfg.delay);
        assert!(max_acts <= 1024, "max acts per window {max_acts}");
        assert!(cfg.delay >= t_rc);
    }
}
