//! The countermeasure wrappers: [`Defense`] implementations that
//! delegate to an inner defense and reshape only its observable
//! surface.
//!
//! Every wrapper honors the full `Defense` contract the controller
//! relies on (see `crates/defenses/README.md` and the crate README):
//!
//! * `next_maintenance` stays a pure peek — [`Retime`] derives the
//!   presented deadline as a *pure function* of the inner deadline, so
//!   repeated peeks agree and the deadline only moves forward when
//!   `take_maintenance` advances the inner schedule;
//! * `take_maintenance` surrenders an operation exactly when `now` has
//!   reached the *presented* deadline — which is never earlier than the
//!   inner one, so the inner take below it cannot fail;
//! * on-time/deferred classification happens against the presented
//!   schedule (the one the controller actually aims for), overriding
//!   the inner defense's own classification in the reported stats.
//!
//! A wrapper's `stats()` is computed when read: the inner defense's
//! counters with the wrapper's own counts laid over them.

use std::collections::HashMap;

use lh_defenses::{
    build_defense, Defense, DefenseAction, DefenseConfig, DefenseStats, Maintenance,
};
use lh_dram::{BankId, Geometry, RfmScope, Span, Time};
use lh_obs::flight::{self, EventBuffer, FlightEvent};

use crate::config::MitigationConfig;

/// SplitMix64 finalizer: the stateless hash behind every seeded
/// mitigation decision. Statelessness (rather than a sequential RNG)
/// is what keeps re-timing decisions a pure function of the schedule,
/// so peeks are stable no matter how often the controller polls.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Pure delegation: the control arm. A `PassThrough` stack must be
/// command-stream and envelope byte-identical to the bare defense —
/// pinned by `tests/mitigate_transparency.rs` at the workspace root.
#[derive(Debug)]
pub struct PassThrough {
    inner: Box<dyn Defense>,
}

impl PassThrough {
    /// Wraps `inner` without changing anything.
    pub(crate) fn new(inner: Box<dyn Defense>) -> PassThrough {
        PassThrough { inner }
    }
}

impl Defense for PassThrough {
    fn on_activate(&mut self, bank: BankId, row: u32, now: Time) -> &[DefenseAction] {
        self.inner.on_activate(bank, row, now)
    }

    fn next_maintenance(&self, rank: u32) -> Option<Maintenance> {
        self.inner.next_maintenance(rank)
    }

    fn take_maintenance(&mut self, rank: u32, now: Time) -> Option<Maintenance> {
        self.inner.take_maintenance(rank, now)
    }

    fn maintenance_period(&self) -> Option<Span> {
        self.inner.maintenance_period()
    }

    fn on_periodic_refresh(&mut self, rank: u32) -> Vec<(BankId, u32)> {
        self.inner.on_periodic_refresh(rank)
    }

    fn stats(&self) -> DefenseStats {
        self.inner.stats()
    }

    fn drain_flight(&mut self, sink: &mut EventBuffer) {
        self.inner.drain_flight(sink);
    }
}

/// How a [`Retime`] wrapper presents an inner deadline.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Slip forward by `hash(seed, rank, deadline) mod (max + 1)` ps.
    Jitter { max: Span, seed: u64 },
    /// Defer to the next multiple of `quantum`.
    Batch { quantum: Span },
}

/// Re-timing of scheduled maintenance: every inner deadline is
/// presented to the controller moved forward by one of two rules.
///
/// * Jitter ([`Retime::jitter`], `MaintenanceJitter`) slips each
///   deadline by a seeded hash of it, decorrelating the observable
///   instants from the defense's period.
/// * Batch ([`Retime::batch`], `DeferredBatch`) defers each deadline to
///   the next quantum boundary, so release times carry only the
///   quantizer's clock; operations from several ranks whose deadlines
///   fall in one quantum release back-to-back at its boundary.
///
/// Both rules are pure functions of the inner deadline, so peeks are
/// stable; both are non-negative, so the inner operation is always due
/// by the time the presented deadline arrives; and the jitter bound is
/// clamped to the inner maintenance period, so the presented schedule
/// stays monotone.
#[derive(Debug)]
pub(crate) struct Retime {
    inner: Box<dyn Defense>,
    rule: Rule,
    on_time: u64,
    deferred: u64,
    flight: EventBuffer,
}

impl Retime {
    /// Wraps `inner`, slipping each deadline forward by up to `max`.
    pub(crate) fn jitter(inner: Box<dyn Defense>, max: Span, seed: u64) -> Retime {
        // Clamp so consecutive presented deadlines cannot reorder.
        let max = inner
            .maintenance_period()
            .map_or(max, |period| max.min(period));
        Retime::new(inner, Rule::Jitter { max, seed })
    }

    /// Wraps `inner`, quantizing deadlines up to multiples of
    /// `quantum`.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub(crate) fn batch(inner: Box<dyn Defense>, quantum: Span) -> Retime {
        assert!(!quantum.is_zero(), "batch quantum must be non-zero");
        Retime::new(inner, Rule::Batch { quantum })
    }

    fn new(inner: Box<dyn Defense>, rule: Rule) -> Retime {
        Retime {
            inner,
            rule,
            on_time: 0,
            deferred: 0,
            flight: EventBuffer::new(),
        }
    }

    /// The presented deadline for an inner operation.
    fn present(&self, m: Maintenance) -> Maintenance {
        let due = match self.rule {
            Rule::Jitter { max, seed } => {
                let h = mix(seed ^ m.due.as_ps().rotate_left(17) ^ (u64::from(m.rank) << 56));
                m.due + Span::from_ps(h % (max.as_ps() + 1))
            }
            Rule::Batch { quantum } => {
                let q = quantum.as_ps();
                Time::from_ps(m.due.as_ps().div_ceil(q) * q)
            }
        };
        Maintenance { due, ..m }
    }
}

impl Defense for Retime {
    fn on_activate(&mut self, bank: BankId, row: u32, now: Time) -> &[DefenseAction] {
        self.inner.on_activate(bank, row, now)
    }

    fn next_maintenance(&self, rank: u32) -> Option<Maintenance> {
        self.inner.next_maintenance(rank).map(|m| self.present(m))
    }

    fn take_maintenance(&mut self, rank: u32, now: Time) -> Option<Maintenance> {
        let presented = self.next_maintenance(rank)?;
        if now < presented.due {
            return None;
        }
        let inner = self
            .inner
            .take_maintenance(rank, now)
            .expect("inner deadline precedes the presented one");
        if now == presented.due {
            self.on_time += 1;
        } else {
            self.deferred += 1;
        }
        if flight::active() {
            let (wrapper, action) = match self.rule {
                Rule::Jitter { .. } => ("jitter", "slip"),
                Rule::Batch { .. } => ("batch", "defer"),
            };
            self.flight.push(FlightEvent::Mitigation {
                t_ns: now.as_ps() / 1_000,
                wrapper,
                action,
                rank,
                amount_ns: presented.due.saturating_since(inner.due).as_ps() / 1_000,
            });
        }
        Some(presented)
    }

    fn maintenance_period(&self) -> Option<Span> {
        let period = self.inner.maintenance_period()?;
        Some(match self.rule {
            // Worst-case spacing between presented deadlines: the REF
            // fitting heuristic must plan for the densest case.
            Rule::Jitter { max, .. } => period.saturating_sub(max),
            // Two deadlines one inner period apart can quantize to
            // boundaries as close as floor(period / quantum) quanta
            // (zero when the quantum exceeds the period: a batch
            // releases back-to-back).
            Rule::Batch { quantum } => {
                let q = quantum.as_ps();
                Span::from_ps(period.as_ps() / q * q)
            }
        })
    }

    fn on_periodic_refresh(&mut self, rank: u32) -> Vec<(BankId, u32)> {
        self.inner.on_periodic_refresh(rank)
    }

    fn stats(&self) -> DefenseStats {
        DefenseStats {
            maintenance_on_time: self.on_time,
            maintenance_deferred: self.deferred,
            ..self.inner.stats()
        }
    }

    fn drain_flight(&mut self, sink: &mut EventBuffer) {
        sink.absorb(&mut self.flight);
        self.inner.drain_flight(sink);
    }
}

/// Inject dummy maintenance at a fixed rate and absorb the inner
/// defense's RFM-shaped output, so the RFM stream the attacker observes
/// is pattern-independent.
///
/// * Reactive `IssueRfm` actions the inner defense requests are
///   filtered out of `on_activate`'s answer (the fixed-rate all-bank
///   stream covers the preventive work they asked for).
/// * The wrapper publishes its own fixed-period all-bank schedule
///   through `next_maintenance`; inner *scheduled* operations that
///   come due are silently drained when the wrapper's own operation is
///   taken.
/// * Non-RFM actions (neighbor refreshes, throttles) pass through
///   untouched: their observables are not RFM-shaped, and dropping
///   them would weaken the inner defense's RowHammer guarantee.
#[derive(Debug)]
pub struct ConstantRateShaper {
    inner: Box<dyn Defense>,
    period: Span,
    due: Vec<Time>,
    emitted: u64,
    on_time: u64,
    deferred: u64,
    actions: Vec<DefenseAction>,
    flight: EventBuffer,
}

impl ConstantRateShaper {
    /// Wraps `inner` with a fixed-period dummy all-bank RFM stream.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub(crate) fn new(
        inner: Box<dyn Defense>,
        period: Span,
        geometry: &Geometry,
    ) -> ConstantRateShaper {
        assert!(!period.is_zero(), "shaper period must be non-zero");
        ConstantRateShaper {
            inner,
            period,
            due: vec![Time::ZERO + period; geometry.ranks_per_channel() as usize],
            emitted: 0,
            on_time: 0,
            deferred: 0,
            actions: Vec::new(),
            flight: EventBuffer::new(),
        }
    }
}

impl Defense for ConstantRateShaper {
    fn on_activate(&mut self, bank: BankId, row: u32, now: Time) -> &[DefenseAction] {
        let record = flight::active();
        self.actions.clear();
        for &action in self.inner.on_activate(bank, row, now) {
            if !matches!(action, DefenseAction::IssueRfm { .. }) {
                self.actions.push(action);
                continue;
            }
            if record {
                self.flight.push(FlightEvent::Mitigation {
                    t_ns: now.as_ps() / 1_000,
                    wrapper: "shaper",
                    action: "absorb",
                    rank: bank.rank,
                    amount_ns: 0,
                });
            }
        }
        &self.actions
    }

    fn next_maintenance(&self, rank: u32) -> Option<Maintenance> {
        Some(Maintenance {
            rank,
            scope: RfmScope::AllBank,
            due: self.due[rank as usize],
        })
    }

    fn take_maintenance(&mut self, rank: u32, now: Time) -> Option<Maintenance> {
        let taken = self.next_maintenance(rank)?;
        if now < taken.due {
            return None;
        }
        self.due[rank as usize] = taken.due + self.period;
        self.emitted += 1;
        // Inner scheduled operations that came due are covered by this
        // all-bank RFM; drain them so the inner schedule keeps moving.
        let mut covered = 0u64;
        while self.inner.take_maintenance(rank, now).is_some() {
            covered += 1;
        }
        if flight::active() && covered == 0 {
            // No inner operation was due: the emitted RFM is pure chaff
            // keeping the observable rate constant.
            self.flight.push(FlightEvent::Mitigation {
                t_ns: now.as_ps() / 1_000,
                wrapper: "shaper",
                action: "dummy-rfm",
                rank,
                amount_ns: 0,
            });
        }
        if now == taken.due {
            self.on_time += 1;
        } else {
            self.deferred += 1;
        }
        Some(taken)
    }

    fn maintenance_period(&self) -> Option<Span> {
        Some(self.period)
    }

    fn on_periodic_refresh(&mut self, rank: u32) -> Vec<(BankId, u32)> {
        self.inner.on_periodic_refresh(rank)
    }

    fn stats(&self) -> DefenseStats {
        let inner = self.inner.stats();
        DefenseStats {
            // The dummy stream is fixed-rate maintenance; account it
            // where FR-RFM accounts its own RFMs.
            fr_rfm_rfms: inner.fr_rfm_rfms + self.emitted,
            maintenance_on_time: self.on_time,
            maintenance_deferred: self.deferred,
            ..inner
        }
    }

    fn drain_flight(&mut self, sink: &mut EventBuffer) {
        sink.absorb(&mut self.flight);
        self.inner.drain_flight(sink);
    }
}

/// Per-(bank, row) activation budget per epoch: a row activated more
/// than `budget` times within one epoch is throttled to the epoch
/// boundary, capping the trigger pressure any single aggressor can
/// generate. Epochs are aligned to time zero.
///
/// Only the current epoch's counts are kept: `on_activate` arrives in
/// simulation-time order, so a new epoch index clears them. The counts
/// are consulted only point-wise (never iterated), so the wrapper stays
/// deterministic.
#[derive(Debug)]
pub struct IsolationQuota {
    inner: Box<dyn Defense>,
    budget: u32,
    epoch: Span,
    /// Index of the epoch `counts` belongs to.
    current: u64,
    /// Activations per (bank, row) inside the current epoch.
    counts: HashMap<(BankId, u32), u32>,
    throttled: u64,
    actions: Vec<DefenseAction>,
    flight: EventBuffer,
}

impl IsolationQuota {
    /// Wraps `inner` with the budget/epoch quota.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub(crate) fn new(inner: Box<dyn Defense>, budget: u32, epoch: Span) -> IsolationQuota {
        assert!(!epoch.is_zero(), "quota epoch must be non-zero");
        IsolationQuota {
            inner,
            budget,
            epoch,
            current: 0,
            counts: HashMap::new(),
            throttled: 0,
            actions: Vec::new(),
            flight: EventBuffer::new(),
        }
    }
}

impl Defense for IsolationQuota {
    fn on_activate(&mut self, bank: BankId, row: u32, now: Time) -> &[DefenseAction] {
        let epoch_ps = self.epoch.as_ps();
        let idx = now.as_ps() / epoch_ps;
        if idx != self.current {
            self.counts.clear();
            self.current = idx;
        }
        let count = self.counts.entry((bank, row)).or_insert(0);
        *count += 1;
        let over_budget = *count > self.budget;
        self.actions.clear();
        self.actions
            .extend_from_slice(self.inner.on_activate(bank, row, now));
        if over_budget {
            self.throttled += 1;
            let until = Time::from_ps((idx + 1) * epoch_ps);
            self.actions
                .push(DefenseAction::ThrottleRow { bank, row, until });
            if flight::active() {
                self.flight.push(FlightEvent::Mitigation {
                    t_ns: now.as_ps() / 1_000,
                    wrapper: "quota",
                    action: "throttle",
                    rank: bank.rank,
                    amount_ns: until.saturating_since(now).as_ps() / 1_000,
                });
            }
        }
        &self.actions
    }

    fn next_maintenance(&self, rank: u32) -> Option<Maintenance> {
        self.inner.next_maintenance(rank)
    }

    fn take_maintenance(&mut self, rank: u32, now: Time) -> Option<Maintenance> {
        self.inner.take_maintenance(rank, now)
    }

    fn maintenance_period(&self) -> Option<Span> {
        self.inner.maintenance_period()
    }

    fn on_periodic_refresh(&mut self, rank: u32) -> Vec<(BankId, u32)> {
        self.inner.on_periodic_refresh(rank)
    }

    fn stats(&self) -> DefenseStats {
        let inner = self.inner.stats();
        DefenseStats {
            throttles: inner.throttles + self.throttled,
            ..inner
        }
    }

    fn drain_flight(&mut self, sink: &mut EventBuffer) {
        sink.absorb(&mut self.flight);
        self.inner.drain_flight(sink);
    }
}

/// Wraps `inner` in the configured mitigation — the factory mirroring
/// [`build_defense`]. Adding a mitigation means implementing the
/// wrapper and extending this match; the controller never changes.
pub(crate) fn build_mitigation(
    config: &MitigationConfig,
    geometry: &Geometry,
    seed: u64,
    inner: Box<dyn Defense>,
) -> Box<dyn Defense> {
    match *config {
        MitigationConfig::PassThrough => Box::new(PassThrough::new(inner)),
        MitigationConfig::Jitter { max } => Box::new(Retime::jitter(inner, max, seed)),
        MitigationConfig::Batch { quantum } => Box::new(Retime::batch(inner, quantum)),
        MitigationConfig::Shaper { period } => {
            Box::new(ConstantRateShaper::new(inner, period, geometry))
        }
        MitigationConfig::Quota { budget, epoch } => {
            Box::new(IsolationQuota::new(inner, budget, epoch))
        }
    }
}

/// Applies a mitigation stack over `inner`, innermost layer first — an
/// empty stack returns `inner` unchanged, so an unmitigated system is
/// bit-identical to one built before this crate existed. Each layer
/// derives its own seed from `seed` and its stack position.
pub fn apply_mitigations(
    configs: &[MitigationConfig],
    geometry: &Geometry,
    seed: u64,
    inner: Box<dyn Defense>,
) -> Box<dyn Defense> {
    configs.iter().enumerate().fold(inner, |engine, (i, cfg)| {
        build_mitigation(cfg, geometry, mix(seed ^ ((i as u64) << 32)), engine)
    })
}

/// Builds the defense and its mitigation stack in one call — the shape
/// the memory controller uses.
pub fn build_mitigated_defense(
    defense: &DefenseConfig,
    mitigations: &[MitigationConfig],
    geometry: &Geometry,
    defense_seed: u64,
    mitigation_seed: u64,
) -> Box<dyn Defense> {
    let inner = build_defense(defense, geometry, defense_seed);
    apply_mitigations(mitigations, geometry, mitigation_seed, inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_defenses::{FrRfmDefense, PrfmDefense};
    use proptest::prelude::*;

    fn frrfm(period_ns: u64) -> Box<dyn Defense> {
        Box::new(FrRfmDefense::new(
            Span::from_ns(period_ns),
            &Geometry::paper_default(),
        ))
    }

    /// Drives `engine` with takes issued exactly at each presented
    /// deadline and returns the first `n` presented due instants.
    fn take_schedule(engine: &mut dyn Defense, n: usize) -> Vec<Time> {
        (0..n)
            .map(|_| {
                let due = engine.next_maintenance(0).expect("scheduled defense").due;
                let taken = engine.take_maintenance(0, due).expect("due reached");
                assert_eq!(taken.due, due, "take must surrender the peeked operation");
                due
            })
            .collect()
    }

    #[test]
    fn empty_stack_returns_the_inner_defense_unwrapped() {
        let g = Geometry::paper_default();
        let engine = apply_mitigations(&[], &g, 7, frrfm(1000));
        assert!(
            format!("{engine:?}").starts_with("FrRfmDefense"),
            "an empty stack must not add a wrapper layer"
        );
    }

    #[test]
    fn pass_through_matches_the_bare_defense() {
        let g = Geometry::paper_default();
        let mut bare = frrfm(1000);
        let mut wrapped = apply_mitigations(&[MitigationConfig::PassThrough], &g, 7, frrfm(1000));
        assert_eq!(
            take_schedule(bare.as_mut(), 16),
            take_schedule(wrapped.as_mut(), 16)
        );
        assert_eq!(bare.stats(), wrapped.stats());
        assert_eq!(bare.maintenance_period(), wrapped.maintenance_period());
    }

    #[test]
    fn jitter_peeks_are_stable_and_never_early() {
        let g = Geometry::paper_default();
        let stack = [MitigationConfig::Jitter {
            max: Span::from_ns(400),
        }];
        let mut engine = apply_mitigations(&stack, &g, 9, frrfm(1000));
        let peek1 = engine.next_maintenance(0).unwrap().due;
        let peek2 = engine.next_maintenance(0).unwrap().due;
        assert_eq!(peek1, peek2, "peeking must not perturb the schedule");
        assert!(
            peek1 >= Time::ZERO + Span::from_ns(1000),
            "jitter only slips forward"
        );
        let schedule = take_schedule(engine.as_mut(), 32);
        for pair in schedule.windows(2) {
            assert!(pair[0] <= pair[1], "jittered schedule must stay monotone");
        }
        // With max = 400 ns of slip on a 1 µs period, some deadline in
        // 32 periods moves off the bare grid.
        assert!(
            schedule.iter().any(|t| t.as_ps() % 1_000_000 != 0),
            "a non-degenerate jitter config must actually move deadlines"
        );
    }

    #[test]
    fn jitter_classifies_against_the_presented_schedule() {
        let g = Geometry::paper_default();
        let stack = [MitigationConfig::Jitter {
            max: Span::from_ns(400),
        }];
        let mut engine = apply_mitigations(&stack, &g, 9, frrfm(1000));
        let due = engine.next_maintenance(0).unwrap().due;
        engine.take_maintenance(0, due).unwrap();
        let due = engine.next_maintenance(0).unwrap().due;
        engine.take_maintenance(0, due + Span::from_ns(5)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.maintenance_on_time, 1);
        assert_eq!(stats.maintenance_deferred, 1);
        // The inner FR-RFM counter still reports the work performed.
        assert_eq!(stats.fr_rfm_rfms, 2);
    }

    #[test]
    fn batch_quantizes_deadlines_up() {
        let g = Geometry::paper_default();
        // 700 ns inner period, 1 µs quantum: releases happen only on
        // microsecond boundaries, and two inner operations (at 1400 and
        // 2100 ns) share none / the 2 µs and 3 µs boundaries.
        let stack = [MitigationConfig::Batch {
            quantum: Span::from_us(1),
        }];
        let mut engine = apply_mitigations(&stack, &g, 7, frrfm(700));
        let schedule = take_schedule(engine.as_mut(), 8);
        for due in &schedule {
            assert_eq!(due.as_ps() % 1_000_000, 0, "{due:?} off the quantum grid");
        }
        for pair in schedule.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }

    #[test]
    fn shaper_absorbs_reactive_rfms_and_emits_fixed_rate() {
        let g = Geometry::paper_default();
        let inner = Box::new(PrfmDefense::new(4, &g));
        let mut shaper = ConstantRateShaper::new(inner, Span::from_us(1), &g);
        let bank = BankId::new(0, 0, 0, 0);
        // 8 activations on one bank: bare PRFM would emit 2 RFMs.
        for i in 0..8 {
            let actions = shaper.on_activate(bank, 3, Time::from_ps(1000 * i));
            assert!(
                !actions
                    .iter()
                    .any(|a| matches!(a, DefenseAction::IssueRfm { .. })),
                "reactive RFMs must be absorbed into the shaped stream"
            );
        }
        // The observable stream is the wrapper's own fixed-rate
        // schedule, present even with zero traffic.
        let first = shaper.next_maintenance(0).unwrap();
        assert_eq!(first.due, Time::ZERO + Span::from_us(1));
        assert_eq!(first.scope, RfmScope::AllBank);
        shaper.take_maintenance(0, first.due).unwrap();
        assert_eq!(
            shaper.next_maintenance(0).unwrap().due,
            Time::ZERO + Span::from_us(2)
        );
        // The dummy stream is accounted as fixed-rate maintenance; the
        // inner defense's trigger counter is preserved alongside.
        assert_eq!(shaper.stats().fr_rfm_rfms, 1);
        assert_eq!(shaper.stats().prfm_rfms, 2);
    }

    #[test]
    fn quota_throttles_only_over_budget_rows() {
        let g = Geometry::paper_default();
        let inner = build_defense(&DefenseConfig::none(), &g, 7);
        let mut quota = IsolationQuota::new(inner, 3, Span::from_us(1));
        let bank = BankId::new(0, 0, 0, 0);
        let t = |ns| Time::ZERO + Span::from_ns(ns);
        for i in 0..3 {
            assert!(quota.on_activate(bank, 5, t(10 * (i + 1))).is_empty());
        }
        // Fourth activation in the same epoch crosses the budget.
        let actions = quota.on_activate(bank, 5, t(40)).to_vec();
        assert_eq!(
            actions,
            vec![DefenseAction::ThrottleRow {
                bank,
                row: 5,
                until: t(1000),
            }]
        );
        // A different row in the same bank has its own ledger…
        assert!(quota.on_activate(bank, 6, t(50)).is_empty());
        // …and the next epoch resets the offender's budget.
        assert!(quota.on_activate(bank, 5, t(1200)).is_empty());
        assert_eq!(quota.stats().throttles, 1);
    }

    #[test]
    fn stacks_compose_in_order() {
        let g = Geometry::paper_default();
        let stack = [
            MitigationConfig::Jitter {
                max: Span::from_ns(400),
            },
            MitigationConfig::Batch {
                quantum: Span::from_us(1),
            },
        ];
        // Outermost layer is the last entry: the controller sees the
        // batcher, whose deadlines sit on the quantum grid even though
        // the layer beneath jitters them.
        let mut engine = apply_mitigations(&stack, &g, 11, frrfm(1000));
        for due in take_schedule(engine.as_mut(), 8) {
            assert_eq!(due.as_ps() % 1_000_000, 0, "{due:?} off the quantum grid");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Satellite invariant: `MaintenanceJitter` is deterministic
        /// under a fixed seed — same seed ⇒ same presented schedule —
        /// and stays within its configured slip bound.
        #[test]
        fn jitter_same_seed_same_schedule(
            seed in any::<u64>(),
            period_ns in 500u64..5000,
            max_ns in 0u64..2000,
            steps in 1usize..24,
        ) {
            let g = Geometry::paper_default();
            let stack = [MitigationConfig::Jitter { max: Span::from_ns(max_ns) }];
            let mut a = apply_mitigations(&stack, &g, seed, frrfm(period_ns));
            let mut b = apply_mitigations(&stack, &g, seed, frrfm(period_ns));
            let sa = take_schedule(a.as_mut(), steps);
            let sb = take_schedule(b.as_mut(), steps);
            prop_assert_eq!(&sa, &sb, "same seed must reproduce the schedule");
            let max = Span::from_ns(max_ns.min(period_ns));
            for (i, due) in sa.iter().enumerate() {
                let bare = Time::ZERO + Span::from_ns(period_ns) * (i as u64 + 1);
                prop_assert!(*due >= bare, "slip must be non-negative");
                prop_assert!(*due <= bare + max, "slip must respect the clamped bound");
            }
        }
    }
}
