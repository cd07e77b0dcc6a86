//! The [`Defense`] trait — the uniform controller↔defense scheduling
//! contract.
//!
//! The memory controller owns one `Box<dyn Defense>` per channel and
//! talks to it through four calls, none of which name a concrete
//! defense:
//!
//! * [`Defense::on_activate`] — notify the defense of an `ACT`; it
//!   answers with the preventive [`DefenseAction`]s the controller must
//!   schedule (reactive half of the contract);
//! * [`Defense::next_maintenance`] — peek the next *scheduled*
//!   maintenance operation on a rank (proactive half; only time-driven
//!   defenses such as FR-RFM have one);
//! * [`Defense::take_maintenance`] — consume a due maintenance operation
//!   once the controller is about to issue it;
//! * [`Defense::on_periodic_refresh`] — piggyback preventive refreshes
//!   inside an already-blocking REF window (MINT's overlapped-latency
//!   design).
//!
//! Adding a defense means implementing this trait and extending
//! [`build_defense`]; the controller never changes. See
//! `crates/defenses/README.md` for the full contract (deadline
//! stability, `take_maintenance` idempotency rules).

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lh_dram::{BankId, Geometry, RfmScope, Span, Time};

use crate::config::DefenseConfig;
use crate::trackers::{BlockHammerBank, CometBank, GrapheneBank, HydraBank, MintBank, MintConfig};

/// A preventive action the controller must perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseAction {
    /// Issue an RFM command on `rank` with the given scope.
    IssueRfm {
        /// Target rank.
        rank: u32,
        /// Blocking scope.
        scope: RfmScope,
    },
    /// Refresh the neighbors of `(bank, row)` (PARA, Graphene, Hydra,
    /// CoMeT): the controller performs it as activate+precharge of the
    /// victim rows.
    RefreshNeighbors {
        /// Aggressor bank.
        bank: BankId,
        /// Aggressor row whose neighbors must be refreshed.
        row: u32,
    },
    /// Delay further activations of `(bank, row)` until `until`
    /// (BlockHammer's throttle — its observable preventive action).
    ThrottleRow {
        /// Throttled bank.
        bank: BankId,
        /// Throttled row.
        row: u32,
        /// Earliest time the row may be activated again.
        until: Time,
    },
}

/// A scheduled maintenance operation owed to the device.
///
/// Today every scheduled maintenance is an RFM (FR-RFM's fixed-rate
/// all-bank stream); the struct still carries the scope so a future
/// defense can schedule narrower operations without touching the
/// controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Maintenance {
    /// Target rank.
    pub rank: u32,
    /// RFM blocking scope.
    pub scope: RfmScope,
    /// The instant the operation is scheduled for. The controller aims
    /// to issue exactly at `due` — for FR-RFM, zero jitter *is* the
    /// security property (§11.1) — and [`Defense::take_maintenance`]
    /// only surrenders the operation once `now >= due`.
    pub due: Time,
}

/// Counters kept by every defense.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseStats {
    /// RFMs requested by PRFM counters.
    pub prfm_rfms: u64,
    /// RFMs requested by the FR-RFM timer.
    pub fr_rfm_rfms: u64,
    /// Neighbor refreshes requested by PARA.
    pub para_refreshes: u64,
    /// Neighbor refreshes requested by the approximate trackers
    /// (Graphene/Hydra/CoMeT).
    pub tracker_refreshes: u64,
    /// Throttle decisions made by BlockHammer.
    pub throttles: u64,
    /// Aggressors preventively refreshed inside periodic REFs (MINT).
    pub mint_refreshes: u64,
    /// Scheduled maintenance operations taken exactly at their deadline
    /// (the controller quiesced in time).
    pub maintenance_on_time: u64,
    /// Scheduled maintenance operations taken *after* their deadline —
    /// scheduling pressure: the rank could not be quiesced by `due`, so
    /// the operation slipped. Under FR-RFM this is the observable jitter
    /// the covert-channel experiments report.
    pub maintenance_deferred: u64,
}

/// The uniform controller↔defense scheduling contract.
///
/// # Contract
///
/// * `next_maintenance(rank)` is a pure peek: it may be called any
///   number of times and never changes the schedule. The returned `due`
///   instant only moves **forward**, and only as a result of
///   `take_maintenance` — never because of traffic (that independence is
///   FR-RFM's whole point).
/// * `take_maintenance(rank, now)` consumes: it returns `Some` exactly
///   when a maintenance operation is due (`now >= due`) and advances the
///   schedule past it. Callers must issue the operation they took.
///   Calling again at the same `now` returns `None` unless a *second*
///   operation is already due (degenerately dense schedules). Peeking
///   via `take_maintenance` is a contract violation.
/// * `on_activate` is invoked for **every** ACT the controller issues,
///   in simulation-time order; the returned slice is only valid until
///   the next call.
pub trait Defense: fmt::Debug {
    /// Notifies the defense of an `ACT` to `(bank, row)` at `now`;
    /// returns the preventive actions the controller must schedule
    /// (possibly none). The slice is valid until the next call.
    fn on_activate(&mut self, bank: BankId, row: u32, now: Time) -> &[DefenseAction];

    /// Peeks the next scheduled maintenance operation on `rank`, or
    /// `None` when this defense schedules none (the default). Pure; its
    /// `due` is the instant the controller must have the rank quiesced
    /// by. See the trait contract for deadline-stability rules.
    fn next_maintenance(&self, rank: u32) -> Option<Maintenance> {
        let _ = rank;
        None
    }

    /// Consumes the maintenance operation due on `rank` (`now >= due`),
    /// advancing the schedule by one period; `None` when nothing is due
    /// yet (always, by default). Classifies the take as on-time or
    /// deferred in [`DefenseStats`].
    fn take_maintenance(&mut self, rank: u32, now: Time) -> Option<Maintenance> {
        let _ = (rank, now);
        None
    }

    /// Minimum spacing between two scheduled maintenance operations on
    /// one rank, or `None` when the defense schedules none. The
    /// controller uses this to decide whether a REF can fit between two
    /// maintenance windows.
    fn maintenance_period(&self) -> Option<Span> {
        None
    }

    /// Notifies the defense that a periodic REF is being issued on
    /// `rank`; returns the aggressor rows whose victims the device
    /// should refresh *inside* the REF window (MINT's overlapped-latency
    /// mitigation — zero extra blocking time, hence nothing for a
    /// LeakyHammer receiver to observe).
    fn on_periodic_refresh(&mut self, rank: u32) -> Vec<(BankId, u32)> {
        let _ = rank;
        Vec::new()
    }

    /// Counters.
    fn stats(&self) -> DefenseStats;

    /// Drains any flight-recorder events this defense (or a wrapper
    /// around it) buffered since the last drain into `sink`, drop
    /// accounting included. The simulator calls this at obs-flush time
    /// so events land in the per-unit capture scope with the right
    /// segment tag; defenses with nothing to report (the default) do
    /// nothing. Implementations wrapping an inner defense must drain
    /// the inner one too.
    fn drain_flight(&mut self, sink: &mut lh_obs::flight::EventBuffer) {
        let _ = sink;
    }
}

/// Builds the defense for a channel of shape `geometry`.
///
/// Every defense kind of [`DefenseConfig`] maps to one concrete type;
/// the PRAC family (plain, RIAC, bank-level) is entirely device-side
/// and needs no controller-side trigger state, so it maps to
/// `DeviceSideDefense`.
pub fn build_defense(config: &DefenseConfig, geometry: &Geometry, seed: u64) -> Box<dyn Defense> {
    match *config {
        DefenseConfig::None
        | DefenseConfig::Prac(_)
        | DefenseConfig::PracRiac(_)
        | DefenseConfig::PracBank(_) => Box::new(DeviceSideDefense),
        DefenseConfig::Prfm { trfm } => Box::new(PrfmDefense::new(trfm, geometry)),
        DefenseConfig::FrRfm { period } => Box::new(FrRfmDefense::new(period, geometry)),
        DefenseConfig::Para { probability } => Box::new(ParaDefense::new(probability, seed)),
        DefenseConfig::Graphene(g) => {
            Box::new(TrackerDefense::new(geometry, |_bank| GrapheneBank::new(g)))
        }
        DefenseConfig::Hydra(h) => {
            Box::new(TrackerDefense::new(geometry, |_bank| HydraBank::new(h)))
        }
        DefenseConfig::Comet(c) => Box::new(TrackerDefense::new(geometry, |bank| {
            // Per-bank hash families: a row index must not collide
            // identically in every bank.
            let mut cfg = c;
            cfg.seed = c.seed ^ ((bank as u64) << 48);
            CometBank::new(cfg)
        })),
        DefenseConfig::Mint => Box::new(MintDefense::new(seed, geometry)),
        DefenseConfig::BlockHammer(bh) => Box::new(BlockHammerDefense::new(bh, geometry)),
    }
}

/// Defenses that live entirely in the device (`None` and the PRAC
/// family): the DRAM chip asserts ABO on its own and the controller only
/// runs the recovery protocol, so there is no controller-side trigger
/// state at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeviceSideDefense;

impl Defense for DeviceSideDefense {
    fn on_activate(&mut self, _bank: BankId, _row: u32, _now: Time) -> &[DefenseAction] {
        &[]
    }

    fn stats(&self) -> DefenseStats {
        DefenseStats::default()
    }
}

/// PRFM: per-bank activation counters that request a same-bank RFM when
/// a bank crosses `TRFM` (§7).
#[derive(Debug, Clone)]
pub struct PrfmDefense {
    trfm: u32,
    geometry: Geometry,
    counters: Vec<u32>,
    actions: Vec<DefenseAction>,
    stats: DefenseStats,
}

impl PrfmDefense {
    /// Creates PRFM trigger state for a channel of shape `geometry`.
    pub fn new(trfm: u32, geometry: &Geometry) -> PrfmDefense {
        PrfmDefense {
            trfm,
            geometry: *geometry,
            counters: vec![0; geometry.banks_per_channel() as usize],
            actions: Vec::new(),
            stats: DefenseStats::default(),
        }
    }

    /// Current activation counter of a bank (tests, instrumentation).
    pub fn counter(&self, bank: BankId) -> u32 {
        self.counters[self.geometry.flat_bank(bank)]
    }
}

impl Defense for PrfmDefense {
    fn on_activate(&mut self, bank: BankId, _row: u32, _now: Time) -> &[DefenseAction] {
        self.actions.clear();
        let flat = self.geometry.flat_bank(bank);
        self.counters[flat] += 1;
        if self.counters[flat] >= self.trfm {
            self.counters[flat] -= self.trfm;
            self.stats.prfm_rfms += 1;
            self.actions.push(DefenseAction::IssueRfm {
                rank: bank.rank,
                scope: RfmScope::SameBank { bank: bank.bank },
            });
        }
        &self.actions
    }

    fn stats(&self) -> DefenseStats {
        self.stats
    }
}

/// FR-RFM: a per-rank timer that schedules an all-bank RFM at a fixed
/// period, *independent* of traffic — the key to its security (§11.1).
#[derive(Debug, Clone)]
pub struct FrRfmDefense {
    period: Span,
    due: Vec<Time>,
    stats: DefenseStats,
}

impl FrRfmDefense {
    /// Creates the fixed-rate schedule: first RFM one period in.
    pub fn new(period: Span, geometry: &Geometry) -> FrRfmDefense {
        FrRfmDefense {
            period,
            due: vec![Time::ZERO + period; geometry.ranks_per_channel() as usize],
            stats: DefenseStats::default(),
        }
    }
}

impl Defense for FrRfmDefense {
    fn on_activate(&mut self, _bank: BankId, _row: u32, _now: Time) -> &[DefenseAction] {
        &[]
    }

    fn next_maintenance(&self, rank: u32) -> Option<Maintenance> {
        Some(Maintenance {
            rank,
            scope: RfmScope::AllBank,
            due: self.due[rank as usize],
        })
    }

    fn take_maintenance(&mut self, rank: u32, now: Time) -> Option<Maintenance> {
        let due = self.due[rank as usize];
        if now < due {
            return None;
        }
        self.due[rank as usize] = due + self.period;
        self.stats.fr_rfm_rfms += 1;
        if now == due {
            self.stats.maintenance_on_time += 1;
        } else {
            self.stats.maintenance_deferred += 1;
        }
        Some(Maintenance {
            rank,
            scope: RfmScope::AllBank,
            due,
        })
    }

    fn maintenance_period(&self) -> Option<Span> {
        Some(self.period)
    }

    fn stats(&self) -> DefenseStats {
        self.stats
    }
}

/// PARA: refresh a neighbor with fixed probability on every activation
/// (Kim et al., ISCA'14).
#[derive(Debug)]
pub(crate) struct ParaDefense {
    probability: f64,
    rng: StdRng,
    actions: Vec<DefenseAction>,
    stats: DefenseStats,
}

impl ParaDefense {
    /// Creates the coin-flip trigger with the engine's seed convention.
    pub(crate) fn new(probability: f64, seed: u64) -> ParaDefense {
        ParaDefense {
            probability,
            rng: StdRng::seed_from_u64(seed),
            actions: Vec::new(),
            stats: DefenseStats::default(),
        }
    }
}

impl Defense for ParaDefense {
    fn on_activate(&mut self, bank: BankId, row: u32, _now: Time) -> &[DefenseAction] {
        self.actions.clear();
        if self.rng.gen_bool(self.probability.clamp(0.0, 1.0)) {
            self.stats.para_refreshes += 1;
            self.actions
                .push(DefenseAction::RefreshNeighbors { bank, row });
        }
        &self.actions
    }

    fn stats(&self) -> DefenseStats {
        self.stats
    }
}

/// A per-bank aggressor tracker (the §12 approximate trigger classes).
pub(crate) trait AggressorTracker: fmt::Debug {
    /// Records an activation of `row` at `now`; returns an aggressor row
    /// whose neighbors must be refreshed when the estimate crosses the
    /// threshold.
    fn track_activate(&mut self, row: u32, now: Time) -> Option<u32>;
}

impl AggressorTracker for GrapheneBank {
    fn track_activate(&mut self, row: u32, now: Time) -> Option<u32> {
        self.on_activate(row, now)
    }
}

impl AggressorTracker for HydraBank {
    fn track_activate(&mut self, row: u32, now: Time) -> Option<u32> {
        self.on_activate(row, now)
    }
}

impl AggressorTracker for CometBank {
    fn track_activate(&mut self, row: u32, now: Time) -> Option<u32> {
        self.on_activate(row, now)
    }
}

/// Graphene / Hydra / CoMeT: one approximate tracker per bank that
/// requests a neighbor refresh when its estimate crosses the threshold
/// (§12).
#[derive(Debug, Clone)]
pub(crate) struct TrackerDefense<T: AggressorTracker> {
    geometry: Geometry,
    banks: Vec<T>,
    actions: Vec<DefenseAction>,
    stats: DefenseStats,
}

impl<T: AggressorTracker> TrackerDefense<T> {
    /// Creates one tracker per bank via `make` (passed the flat bank
    /// index so sketch hash families can differ per bank).
    pub(crate) fn new(geometry: &Geometry, make: impl FnMut(usize) -> T) -> TrackerDefense<T> {
        let banks = (0..geometry.banks_per_channel() as usize)
            .map(make)
            .collect();
        TrackerDefense {
            geometry: *geometry,
            banks,
            actions: Vec::new(),
            stats: DefenseStats::default(),
        }
    }
}

impl<T: AggressorTracker> Defense for TrackerDefense<T> {
    fn on_activate(&mut self, bank: BankId, row: u32, now: Time) -> &[DefenseAction] {
        self.actions.clear();
        let flat = self.geometry.flat_bank(bank);
        if let Some(aggressor) = self.banks[flat].track_activate(row, now) {
            self.stats.tracker_refreshes += 1;
            self.actions.push(DefenseAction::RefreshNeighbors {
                bank,
                row: aggressor,
            });
        }
        &self.actions
    }

    fn stats(&self) -> DefenseStats {
        self.stats
    }
}

/// MINT: a per-bank reservoir sampler whose chosen aggressor is
/// refreshed inside the next periodic REF (§12, overlapped latency).
#[derive(Debug, Clone)]
pub(crate) struct MintDefense {
    geometry: Geometry,
    banks: Vec<MintBank>,
    stats: DefenseStats,
}

impl MintDefense {
    /// Creates one reservoir per bank with the engine's per-bank seed
    /// convention.
    pub(crate) fn new(seed: u64, geometry: &Geometry) -> MintDefense {
        let banks = (0..geometry.banks_per_channel() as usize)
            .map(|b| {
                MintBank::new(MintConfig {
                    seed: seed ^ ((b as u64 + 1) << 32),
                })
            })
            .collect();
        MintDefense {
            geometry: *geometry,
            banks,
            stats: DefenseStats::default(),
        }
    }
}

impl Defense for MintDefense {
    fn on_activate(&mut self, bank: BankId, row: u32, _now: Time) -> &[DefenseAction] {
        let flat = self.geometry.flat_bank(bank);
        self.banks[flat].on_activate(row);
        &[]
    }

    fn on_periodic_refresh(&mut self, rank: u32) -> Vec<(BankId, u32)> {
        let mut refreshed = Vec::new();
        for flat in 0..self.banks.len() {
            let bank = self.geometry.bank_from_flat(0, flat);
            if bank.rank != rank {
                continue;
            }
            if let Some(row) = self.banks[flat].take_sample() {
                self.stats.mint_refreshes += 1;
                refreshed.push((bank, row));
            }
        }
        refreshed
    }

    fn stats(&self) -> DefenseStats {
        self.stats
    }
}

/// BlockHammer: a per-bank rate filter that *throttles* blacklisted rows
/// instead of refreshing victims (§12).
#[derive(Debug, Clone)]
pub(crate) struct BlockHammerDefense {
    geometry: Geometry,
    banks: Vec<BlockHammerBank>,
    actions: Vec<DefenseAction>,
    stats: DefenseStats,
}

impl BlockHammerDefense {
    /// Creates one rate filter per bank with the engine's per-bank seed
    /// convention.
    pub(crate) fn new(
        cfg: crate::trackers::BlockHammerConfig,
        geometry: &Geometry,
    ) -> BlockHammerDefense {
        let banks = (0..geometry.banks_per_channel() as usize)
            .map(|b| {
                let mut c = cfg;
                c.seed = cfg.seed ^ ((b as u64) << 40);
                BlockHammerBank::new(c)
            })
            .collect();
        BlockHammerDefense {
            geometry: *geometry,
            banks,
            actions: Vec::new(),
            stats: DefenseStats::default(),
        }
    }
}

impl Defense for BlockHammerDefense {
    fn on_activate(&mut self, bank: BankId, row: u32, now: Time) -> &[DefenseAction] {
        self.actions.clear();
        let flat = self.geometry.flat_bank(bank);
        if let Some(until) = self.banks[flat].on_activate(row, now) {
            self.stats.throttles += 1;
            self.actions
                .push(DefenseAction::ThrottleRow { bank, row, until });
        }
        &self.actions
    }

    fn stats(&self) -> DefenseStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DefenseKind;
    use crate::trackers::GrapheneConfig;
    use lh_dram::DramTiming;

    fn bank(bg: u32, b: u32) -> BankId {
        BankId::new(0, 0, bg, b)
    }

    fn build(cfg: &DefenseConfig, seed: u64) -> Box<dyn Defense> {
        build_defense(cfg, &Geometry::tiny(), seed)
    }

    #[test]
    fn prfm_counts_per_bank_independently() {
        let mut eng = PrfmDefense::new(3, &Geometry::tiny());
        // Two different banks interleaved: no single bank reaches 3.
        for _ in 0..2 {
            assert!(eng.on_activate(bank(0, 0), 1, Time::ZERO).is_empty());
            assert!(eng.on_activate(bank(1, 1), 1, Time::ZERO).is_empty());
        }
        // Third ACT to bank (0,0) fires.
        let a = eng.on_activate(bank(0, 0), 1, Time::ZERO).to_vec();
        assert_eq!(
            a,
            vec![DefenseAction::IssueRfm {
                rank: 0,
                scope: RfmScope::SameBank { bank: 0 }
            }]
        );
        assert_eq!(eng.counter(bank(0, 0)), 0);
        assert_eq!(eng.counter(bank(1, 1)), 2);
        assert_eq!(eng.stats().prfm_rfms, 1);
    }

    #[test]
    fn prfm_counter_keeps_remainder() {
        let mut eng = build(&DefenseConfig::prfm(2), 0);
        for i in 0..10 {
            let fired = !eng.on_activate(bank(0, 0), 1, Time::ZERO).is_empty();
            assert_eq!(fired, i % 2 == 1, "fires on every second ACT");
        }
    }

    #[test]
    fn fr_rfm_deadline_advances_independently_of_traffic() {
        let t = DramTiming::ddr5_4800();
        let cfg = DefenseConfig::fr_rfm(4, t.t_rc);
        let DefenseConfig::FrRfm { period } = cfg else {
            unreachable!("fr_rfm builds an FR-RFM config")
        };
        let mut eng = build(&cfg, 0);
        let deadline = |eng: &dyn Defense| eng.next_maintenance(0).unwrap().due;
        let d0 = deadline(eng.as_ref());
        assert_eq!(d0, Time::ZERO + period);
        // Activations do not move the deadline.
        for _ in 0..100 {
            assert!(eng.on_activate(bank(0, 0), 1, Time::ZERO).is_empty());
        }
        assert_eq!(deadline(eng.as_ref()), d0);
        // Not due yet: take refuses to surrender the operation.
        assert_eq!(eng.take_maintenance(0, d0 - Span::from_ps(1)), None);
        // Due: take returns it and advances the schedule by one period.
        let m = eng.take_maintenance(0, d0).unwrap();
        assert_eq!(m.due, d0);
        assert_eq!(m.scope, RfmScope::AllBank);
        assert_eq!(deadline(eng.as_ref()), d0 + period);
        assert_eq!(eng.stats().fr_rfm_rfms, 1);
        assert_eq!(eng.stats().maintenance_on_time, 1);
        assert_eq!(eng.stats().maintenance_deferred, 0);
        // Taking late counts as deferred (scheduling pressure).
        let late = d0 + period + Span::from_ns(3);
        let m2 = eng.take_maintenance(0, late).unwrap();
        assert_eq!(m2.due, d0 + period);
        assert_eq!(eng.stats().maintenance_deferred, 1);
        // Idempotency: nothing further is due at the same instant.
        assert_eq!(eng.take_maintenance(0, late), None);
    }

    #[test]
    fn fr_rfm_reports_its_period() {
        let t = DramTiming::ddr5_4800();
        let cfg = DefenseConfig::fr_rfm(4, t.t_rc);
        let eng = build(&cfg, 0);
        assert_eq!(
            cfg,
            DefenseConfig::FrRfm {
                period: eng.maintenance_period().unwrap()
            }
        );
        assert_eq!(
            build(&DefenseConfig::prac(128), 0).maintenance_period(),
            None
        );
    }

    #[test]
    fn para_fires_probabilistically() {
        let mut eng = build(&DefenseConfig::para(0.25), 42);
        let mut fired = 0;
        for _ in 0..10_000 {
            fired += eng.on_activate(bank(0, 0), 7, Time::ZERO).len();
        }
        let rate = fired as f64 / 10_000.0;
        assert!((0.2..0.3).contains(&rate), "observed PARA rate {rate}");
        assert_eq!(eng.stats().para_refreshes as usize, fired);
    }

    #[test]
    fn none_and_prac_request_nothing_from_the_controller() {
        for cfg in [DefenseConfig::none(), DefenseConfig::prac(128)] {
            let mut eng = build(&cfg, 0);
            for _ in 0..500 {
                assert!(eng.on_activate(bank(0, 0), 1, Time::ZERO).is_empty());
            }
            assert!(eng.next_maintenance(0).is_none());
            assert!(eng.take_maintenance(0, Time::from_ms(100)).is_none());
        }
    }

    #[test]
    fn graphene_requests_neighbor_refresh_at_threshold() {
        let t = DramTiming::ddr5_4800();
        let g = GrapheneConfig {
            entries: 8,
            ..GrapheneConfig::for_threshold(64, t.t_rc, t.t_refw)
        };
        let threshold = g.threshold;
        let mut eng = build(&DefenseConfig::Graphene(g), 0);
        let mut fired = Vec::new();
        for _ in 0..threshold {
            fired.extend(eng.on_activate(bank(0, 0), 42, Time::ZERO).iter().copied());
        }
        assert_eq!(
            fired,
            vec![DefenseAction::RefreshNeighbors {
                bank: bank(0, 0),
                row: 42
            }]
        );
        assert_eq!(eng.stats().tracker_refreshes, 1);
    }

    #[test]
    fn tracker_state_is_per_bank() {
        let t = DramTiming::ddr5_4800();
        let g = GrapheneConfig {
            entries: 8,
            ..GrapheneConfig::for_threshold(64, t.t_rc, t.t_refw)
        };
        let threshold = g.threshold;
        let mut eng = build(&DefenseConfig::Graphene(g), 0);
        // Alternate banks: neither bank's tracker reaches the threshold
        // even after `threshold` total activations of row 42.
        let mut fired = 0;
        for i in 0..threshold {
            fired += eng.on_activate(bank(0, i % 2), 42, Time::ZERO).len();
        }
        assert_eq!(fired, 0);
    }

    #[test]
    fn hydra_and_comet_fire_eventually_under_hammering() {
        let t = DramTiming::ddr5_4800();
        for cfg in [
            DefenseConfig::hydra(64, &t),
            DefenseConfig::comet(64, &t, 9),
        ] {
            let kind = cfg.kind();
            let mut eng = build(&cfg, 0);
            let mut fired = 0;
            for _ in 0..256 {
                fired += eng.on_activate(bank(0, 0), 7, Time::ZERO).len();
            }
            assert!(fired >= 1, "{kind} never fired under 256 single-row ACTs");
        }
    }

    #[test]
    fn blockhammer_throttles_hammered_row_only() {
        let t = DramTiming::ddr5_4800();
        let cfg = DefenseConfig::blockhammer(64, &t, 5);
        let mut eng = build(&cfg, 0);
        let mut throttles = Vec::new();
        for _ in 0..64 {
            throttles.extend(eng.on_activate(bank(0, 0), 3, Time::ZERO).iter().copied());
        }
        assert!(!throttles.is_empty(), "hammered row must be throttled");
        assert!(throttles
            .iter()
            .all(|a| matches!(a, DefenseAction::ThrottleRow { row: 3, .. })));
        // A cold row on the same bank is not throttled.
        assert!(eng.on_activate(bank(0, 0), 999, Time::ZERO).is_empty());
        assert_eq!(eng.stats().throttles, throttles.len() as u64);
    }

    #[test]
    fn mint_samples_one_aggressor_per_bank_per_ref() {
        let mut eng = build(&DefenseConfig::mint(), 11);
        // ACTs never produce inline actions (overlapped latency).
        for _ in 0..100 {
            assert!(eng.on_activate(bank(0, 0), 5, Time::ZERO).is_empty());
        }
        for _ in 0..100 {
            assert!(eng.on_activate(bank(1, 1), 6, Time::ZERO).is_empty());
        }
        let refreshed = eng.on_periodic_refresh(0);
        assert_eq!(refreshed.len(), 2, "one sample per active bank");
        assert!(refreshed.contains(&(bank(0, 0), 5)));
        assert!(refreshed.contains(&(bank(1, 1), 6)));
        assert_eq!(eng.stats().mint_refreshes, 2);
        // The interval restarted: nothing to refresh now.
        assert!(eng.on_periodic_refresh(0).is_empty());
    }

    #[test]
    fn mint_follows_the_system_seed() {
        // One MINT configuration under two system seeds: the reservoir
        // draws must differ, as PARA's do. A randomised defense judged
        // under one fixed draw has not been tested as a random defense.
        let cfg = DefenseConfig::for_threshold(DefenseKind::Mint, 256, &DramTiming::ddr5_4800());
        let samples = |seed| {
            let mut eng = build(&cfg, seed);
            (0..16)
                .map(|_| {
                    for row in 0..64 {
                        eng.on_activate(bank(0, 0), row, Time::ZERO);
                    }
                    eng.on_periodic_refresh(0)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(samples(1), samples(1), "one seed, one draw sequence");
        assert_ne!(
            samples(1),
            samples(2),
            "MINT must sample from the system seed, not a constant"
        );
    }

    #[test]
    fn mint_refresh_only_covers_the_refreshed_rank() {
        let g = Geometry::tiny();
        let mut eng = build(&DefenseConfig::mint(), 11);
        if g.ranks_per_channel() < 2 {
            // tiny geometry has one rank; sampling on rank 0 must still
            // return nothing for an out-of-range rank.
            eng.on_activate(bank(0, 0), 5, Time::ZERO);
            assert!(eng.on_periodic_refresh(7).is_empty());
        }
    }

    #[test]
    fn every_kind_builds_its_own_type() {
        let t = DramTiming::ddr5_4800();
        for kind in DefenseKind::all() {
            let cfg = DefenseConfig::for_threshold(kind, 256, &t);
            assert_eq!(cfg.kind(), kind, "provisioning must preserve the kind");
            let (outer, inner) = match kind {
                DefenseKind::None
                | DefenseKind::Prac
                | DefenseKind::PracRiac
                | DefenseKind::PracBank => ("DeviceSideDefense", ""),
                DefenseKind::Prfm => ("PrfmDefense", ""),
                DefenseKind::FrRfm => ("FrRfmDefense", ""),
                DefenseKind::Para => ("ParaDefense", ""),
                DefenseKind::Graphene => ("TrackerDefense", "GrapheneBank"),
                DefenseKind::Hydra => ("TrackerDefense", "HydraBank"),
                DefenseKind::Comet => ("TrackerDefense", "CometBank"),
                DefenseKind::Mint => ("MintDefense", ""),
                DefenseKind::BlockHammer => ("BlockHammerDefense", ""),
            };
            let debug = format!("{:?}", build(&cfg, 1));
            assert!(
                debug.starts_with(outer) && debug.contains(inner),
                "{kind} built {debug:.60}"
            );
        }
    }
}
