//! # lh-memctrl — memory controller for the LeakyHammer reproduction
//!
//! A per-channel DDR5 memory controller implementing the system of Table 1
//! of the paper:
//!
//! * 64-entry read/write queues with back-pressure,
//! * FR-FCFS scheduling with a column cap of 16,
//! * open-page policy with write-drain hysteresis,
//! * per-rank periodic refresh with one-interval postponing and
//!   back-to-back catch-up (paper footnote 3),
//! * the PRAC alert-back-off (ABO) recovery protocol,
//! * PRFM same-bank RFMs, FR-RFM fixed-rate RFMs, PARA/tracker neighbor
//!   refreshes and BlockHammer throttles via the defense-agnostic
//!   [`lh_defenses::Defense`] trait,
//! * physical-address ↔ DRAM-coordinate mapping ([`AddressMapping`]) with
//!   an exact inverse used by attack code to colocate rows.
//!
//! ## Example
//!
//! ```
//! use lh_defenses::DefenseConfig;
//! use lh_dram::{DeviceConfig, Geometry, Time};
//! use lh_memctrl::{
//!     AccessKind, AddressMapping, CtrlConfig, MappingScheme, MemRequest, MemoryController,
//! };
//!
//! # fn main() -> Result<(), lh_dram::DramError> {
//! let mut dev = DeviceConfig::paper_default();
//! dev.geometry = Geometry::tiny();
//! let mapping = AddressMapping::new(MappingScheme::RowBankCol, dev.geometry);
//! let mut mc = MemoryController::new(
//!     CtrlConfig::paper_default(),
//!     dev,
//!     DefenseConfig::prac(128),
//!     42,
//! )?;
//! let addr = mapping.decode(0x8000);
//! mc.enqueue(MemRequest { id: 0, addr, kind: AccessKind::Read, arrival: Time::ZERO, source: 0 })
//!     .unwrap();
//! let mut now = Time::ZERO;
//! let done = loop {
//!     now = mc.service(now);
//!     let done = mc.take_completed();
//!     if !done.is_empty() {
//!         break done;
//!     }
//! };
//! assert_eq!(done[0].id, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod controller;
mod mapping;
mod request;

pub use controller::{CtrlConfig, CtrlScratch, CtrlStats, MemoryController, RowPolicy};
pub use mapping::{AddressMapping, MappingScheme};
pub use request::{AccessKind, Completion, MemRequest};

#[cfg(test)]
mod tests {
    use super::*;
    use lh_defenses::{DefenseConfig, DefenseKind};
    use lh_dram::{BankId, DeviceConfig, DramAddr, Geometry, Span, Time};

    fn make(defense: DefenseConfig) -> MemoryController {
        let mut dev = DeviceConfig::paper_default();
        dev.geometry = Geometry::tiny();
        MemoryController::new(CtrlConfig::paper_default(), dev, defense, 7).unwrap()
    }

    fn req(id: u64, bank: BankId, row: u32, col: u32, at: Time) -> MemRequest {
        MemRequest {
            id,
            addr: DramAddr::new(bank, row, col),
            kind: AccessKind::Read,
            arrival: at,
            source: 0,
        }
    }

    /// Drives the controller until `t_end`, feeding `arrivals` (sorted by
    /// time) and collecting completions.
    fn drive(
        mc: &mut MemoryController,
        mut arrivals: Vec<MemRequest>,
        t_end: Time,
    ) -> Vec<Completion> {
        arrivals.sort_by_key(|r| r.arrival);
        let mut pending: std::collections::VecDeque<_> = arrivals.into();
        let mut done = Vec::new();
        let mut now = Time::ZERO;
        while now < t_end {
            while pending.front().is_some_and(|r| r.arrival <= now) {
                let mut r = pending.pop_front().unwrap();
                r.arrival = now;
                mc.enqueue(r).expect("queue full in test driver");
            }
            // Wakes are strictly future (the total-time contract), and
            // any still-pending arrival is strictly future too (due ones
            // were drained above), so no anti-livelock guard is needed.
            let mut next = mc.service(now);
            done.extend(mc.take_completed());
            if let Some(r) = pending.front() {
                next = next.min(r.arrival);
            }
            now = next;
        }
        done
    }

    fn bank0() -> BankId {
        BankId::new(0, 0, 0, 0)
    }

    #[test]
    fn closed_bank_read_latency_is_act_plus_cas() {
        let mut mc = make(DefenseConfig::none());
        let t = *mc.device().timing();
        let done = drive(
            &mut mc,
            vec![req(1, bank0(), 5, 0, Time::ZERO)],
            Time::from_us(2),
        );
        assert_eq!(done.len(), 1);
        let lat = done[0].latency();
        let ideal = t.t_rcd + t.read_latency();
        assert!(lat >= ideal, "latency {lat} below ideal {ideal}");
        assert!(lat <= ideal + Span::from_ns(5), "latency {lat} too high");
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let mut mc = make(DefenseConfig::none());
        // First request opens row 5; second hits it; third conflicts.
        let reqs = vec![
            req(1, bank0(), 5, 0, Time::ZERO),
            req(2, bank0(), 5, 1, Time::from_ns(200)),
            req(3, bank0(), 9, 0, Time::from_ns(400)),
        ];
        let done = drive(&mut mc, reqs, Time::from_us(3));
        assert_eq!(done.len(), 3);
        let hit = done.iter().find(|c| c.id == 2).unwrap().latency();
        let conflict = done.iter().find(|c| c.id == 3).unwrap().latency();
        assert!(
            conflict > hit + Span::from_ns(20),
            "conflict {conflict} should exceed hit {hit} by ~tRP+tRCD"
        );
    }

    #[test]
    fn frfcfs_prefers_row_hits_up_to_column_cap() {
        let mut mc = make(DefenseConfig::none());
        // Open row 1, then enqueue one conflict (row 2, oldest) followed
        // by many hits (row 1) at the same instant. Row-hit-first serves
        // hits ahead of the older conflict, but the column cap of 16 bounds
        // the streak, after which the oldest request (the conflict) wins.
        let mut reqs = vec![req(0, bank0(), 1, 0, Time::ZERO)];
        reqs.push(req(100, bank0(), 2, 0, Time::from_ns(100)));
        for i in 0..30 {
            reqs.push(req(1 + i, bank0(), 1, (i + 1) as u32, Time::from_ns(100)));
        }
        let done = drive(&mut mc, reqs, Time::from_us(4));
        let pos_conflict = done.iter().position(|c| c.id == 100).unwrap();
        assert!(
            pos_conflict > 4,
            "younger hits must be served first (row-hit-first)"
        );
        assert!(
            pos_conflict <= 18,
            "column cap must bound the hit streak; conflict at {pos_conflict}"
        );
    }

    #[test]
    fn periodic_refresh_happens_roughly_every_trefi() {
        let mut mc = make(DefenseConfig::none());
        drive(&mut mc, vec![], Time::from_us(40));
        let t_refi_us = mc.device().timing().t_refi.as_us();
        let expected = (40.0 / t_refi_us) as u64; // per rank
        let ranks = mc.device().geometry().ranks_per_channel() as u64;
        let refs = mc.stats().refreshes;
        let want = expected * ranks;
        assert!(
            refs >= want.saturating_sub(ranks) && refs <= want + ranks,
            "refreshes {refs} not close to {want}"
        );
    }

    #[test]
    fn busy_rank_postpones_then_catches_up() {
        let mut mc = make(DefenseConfig::none());
        // Saturate the bank with hits around the first tREFI boundary.
        let mut reqs = Vec::new();
        for i in 0..120u64 {
            reqs.push(req(
                i,
                bank0(),
                1,
                (i % 128) as u32,
                Time::from_ns(3_700 + i * 5),
            ));
        }
        drive(&mut mc, reqs, Time::from_us(12));
        assert!(
            mc.stats().refreshes_postponed >= 1,
            "expected at least one postpone"
        );
        assert!(mc.stats().refreshes >= 2);
    }

    #[test]
    fn prac_backoff_delays_requests_by_over_a_microsecond() {
        let mut prac = DefenseConfig::prac(64);
        prac.prac_mut().unwrap().nbo = 64;
        let mut mc = make(prac);
        // Alternate two rows in one bank: every access is a conflict, the
        // activation counters climb to NBO and trigger a back-off.
        let mut reqs = Vec::new();
        for i in 0..200u64 {
            let row = if i % 2 == 0 { 10 } else { 20 };
            reqs.push(req(i, bank0(), row, 0, Time::from_ns(i * 120)));
        }
        let done = drive(&mut mc, reqs, Time::from_us(60));
        assert!(
            mc.stats().backoffs >= 1,
            "hammering must trigger a back-off"
        );
        // A request arriving just as the recovery begins absorbs (almost)
        // the full 4-RFM back-off latency of 1400 ns.
        let max_lat = done.iter().map(|c| c.latency()).max().unwrap();
        assert!(
            max_lat >= Span::from_ns(1_200),
            "some request must absorb most of the 1400 ns back-off, max was {max_lat}"
        );
    }

    #[test]
    fn prfm_issues_rfm_every_trfm_activations() {
        let mut mc = make(DefenseConfig::prfm(10));
        // 60 conflicting accesses → 60 ACTs to one bank → ~6 RFMs.
        let mut reqs = Vec::new();
        for i in 0..60u64 {
            let row = if i % 2 == 0 { 10 } else { 20 };
            reqs.push(req(i, bank0(), row, 0, Time::from_ns(i * 150)));
        }
        drive(&mut mc, reqs, Time::from_us(40));
        let rfms = mc.stats().rfms;
        assert!((5..=7).contains(&rfms), "expected ~6 RFMs, got {rfms}");
    }

    #[test]
    fn fr_rfm_fires_on_schedule_with_zero_jitter_when_idle() {
        let t_rc = lh_dram::DramTiming::ddr5_4800().t_rc;
        let mut mc = make(DefenseConfig::fr_rfm(20, t_rc));
        drive(&mut mc, vec![], Time::from_us(20));
        let period = t_rc * 20;
        let expected = (Time::from_us(20) - Time::ZERO) / period;
        let got = mc.stats().rfms;
        let ranks = mc.device().geometry().ranks_per_channel() as u64;
        assert!(
            got + 2 * ranks >= expected * ranks && got <= expected * ranks,
            "expected ~{} fixed-rate RFMs, got {got}",
            expected * ranks
        );
        assert_eq!(
            mc.stats().fr_rfm_jitter_max,
            Span::ZERO,
            "idle FR-RFM must be exact"
        );
    }

    #[test]
    fn fr_rfm_schedule_is_independent_of_traffic() {
        let t_rc = lh_dram::DramTiming::ddr5_4800().t_rc;
        let horizon = Time::from_us(30);
        // Idle system.
        let mut idle = make(DefenseConfig::fr_rfm(20, t_rc));
        drive(&mut idle, vec![], horizon);
        // Hammering system.
        let mut busy = make(DefenseConfig::fr_rfm(20, t_rc));
        let mut reqs = Vec::new();
        for i in 0..250u64 {
            let row = if i % 2 == 0 { 10 } else { 20 };
            reqs.push(req(i, bank0(), row, 0, Time::from_ns(i * 100)));
        }
        drive(&mut busy, reqs, horizon);
        // Same RFM count (the fixed-rate deadlines are traffic-blind).
        assert_eq!(idle.stats().rfms, busy.stats().rfms);
        assert!(
            busy.stats().fr_rfm_jitter_max <= Span::from_ns(50),
            "jitter {} too large",
            busy.stats().fr_rfm_jitter_max
        );
    }

    #[test]
    fn prac_keeps_disturbance_below_nrh_under_hammering() {
        let nrh = 128u64;
        let mut cfg = DefenseConfig::for_threshold(
            DefenseKind::Prac,
            nrh as u32,
            &lh_dram::DramTiming::ddr5_4800(),
        );
        cfg.prac_mut().unwrap().cooldown = Span::from_ns(100);
        let mut mc = make(cfg);
        // Adversarial double-sided pattern around row 15.
        let mut reqs = Vec::new();
        for i in 0..3000u64 {
            let row = if i % 2 == 0 { 14 } else { 16 };
            reqs.push(req(i, bank0(), row, 0, Time::from_ns(i * 100)));
        }
        drive(&mut mc, reqs, Time::from_us(400));
        let max = mc.device().disturb().max_ever();
        assert!(mc.stats().backoffs > 5, "defense must have fired");
        assert!(max < nrh, "victim pressure {max} reached NRH {nrh}");
    }

    #[test]
    fn no_defense_lets_disturbance_exceed_threshold() {
        let mut mc = make(DefenseConfig::none());
        let mut reqs = Vec::new();
        for i in 0..600u64 {
            let row = if i % 2 == 0 { 14 } else { 16 };
            reqs.push(req(i, bank0(), row, 0, Time::from_ns(i * 100)));
        }
        drive(&mut mc, reqs, Time::from_us(80));
        assert!(
            mc.device().disturb().max_ever() >= 256,
            "unmitigated hammering must accumulate pressure"
        );
    }

    #[test]
    fn writes_drain_and_complete() {
        let mut mc = make(DefenseConfig::none());
        let mut reqs = Vec::new();
        for i in 0..50u64 {
            reqs.push(MemRequest {
                id: i,
                addr: DramAddr::new(bank0(), (i % 4) as u32, (i % 16) as u32),
                kind: AccessKind::Write,
                arrival: Time::from_ns(i * 10),
                source: 1,
            });
        }
        let done = drive(&mut mc, reqs, Time::from_us(20));
        assert_eq!(done.len(), 50);
        assert_eq!(mc.stats().writes_served, 50);
    }

    #[test]
    fn queue_full_exerts_backpressure() {
        let mut mc = make(DefenseConfig::none());
        for i in 0..64u64 {
            mc.enqueue(req(i, bank0(), i as u32, 0, Time::ZERO))
                .unwrap();
        }
        let err = mc.enqueue(req(99, bank0(), 1, 0, Time::ZERO));
        assert!(err.is_err());
        assert_eq!(mc.stats().rejections, 1);
        // After service makes progress, a slot frees up.
        let mut now = Time::ZERO;
        while mc.read_queue_len() >= 64 {
            now = mc.service(now);
            mc.take_completed();
        }
        assert!(mc.enqueue(req(99, bank0(), 1, 0, now)).is_ok());
    }

    #[test]
    fn closed_page_policy_precharges_idle_rows() {
        let mut dev = DeviceConfig::paper_default();
        dev.geometry = Geometry::tiny();
        let cfg = CtrlConfig {
            row_policy: RowPolicy::Closed,
            ..CtrlConfig::paper_default()
        };
        let mut mc = MemoryController::new(cfg, dev, DefenseConfig::none(), 7).unwrap();
        let done = drive(
            &mut mc,
            vec![
                req(1, bank0(), 5, 0, Time::ZERO),
                req(2, bank0(), 5, 1, Time::from_us(1)),
            ],
            Time::from_us(4),
        );
        assert_eq!(done.len(), 2);
        // The row was closed between the two accesses: the second is a
        // full ACT+RD again, not a hit.
        let second = done.iter().find(|c| c.id == 2).unwrap().latency();
        let t = mc.device().timing();
        assert!(
            second >= t.t_rcd + t.read_latency(),
            "closed page forces re-ACT"
        );
        assert!(
            mc.device().open_row(bank0()).is_none(),
            "row closed after service"
        );
        // Every access became an activation.
        assert_eq!(mc.device().stats().activates, 2);
    }

    #[test]
    fn closed_page_makes_activation_counters_climb_faster() {
        // §9: a strictly closed-row policy *accelerates* PRAC counters
        // (every access is an activation), so LeakyHammer still works.
        let count_backoffs = |policy: RowPolicy| {
            let mut dev = DeviceConfig::paper_default();
            dev.geometry = Geometry::tiny();
            let cfg = CtrlConfig {
                row_policy: policy,
                ..CtrlConfig::paper_default()
            };
            let mut prac = DefenseConfig::prac(64);
            prac.prac_mut().unwrap().nbo = 64;
            let mut mc = MemoryController::new(cfg, dev, prac, 7).unwrap();
            // A *single-row* access stream: under open-page these are row
            // hits (no activations); under closed-page each one activates.
            let reqs: Vec<MemRequest> = (0..400u64)
                .map(|i| req(i, bank0(), 7, (i % 128) as u32, Time::from_ns(i * 150)))
                .collect();
            drive(&mut mc, reqs, Time::from_us(80));
            mc.stats().backoffs
        };
        assert_eq!(count_backoffs(RowPolicy::Open), 0, "hits do not hammer");
        assert!(
            count_backoffs(RowPolicy::Closed) >= 4,
            "closed-page turns the same stream into a hammer"
        );
    }

    #[test]
    fn para_refreshes_neighbors_probabilistically() {
        let mut mc = make(DefenseConfig::para(0.5));
        let mut reqs = Vec::new();
        for i in 0..100u64 {
            let row = if i % 2 == 0 { 10 } else { 20 };
            reqs.push(req(i, bank0(), row, 0, Time::from_ns(i * 200)));
        }
        drive(&mut mc, reqs, Time::from_us(60));
        assert!(
            mc.stats().para_victim_acts > 20,
            "PARA must activate victims, got {}",
            mc.stats().para_victim_acts
        );
    }

    #[test]
    fn bank_level_prac_blocks_only_the_offending_bank() {
        let mut cfg = DefenseConfig::prac_bank(32);
        cfg.prac_mut().unwrap().nbo = 32;
        let mut mc = make(cfg);
        let other = BankId::new(0, 0, 1, 0);
        let mut reqs = Vec::new();
        // Hammer bank0 while probing `other` with hits.
        for i in 0..300u64 {
            let row = if i % 2 == 0 { 10 } else { 20 };
            reqs.push(req(i, bank0(), row, 0, Time::from_ns(i * 120)));
        }
        for i in 0..300u64 {
            reqs.push(req(
                10_000 + i,
                other,
                1,
                (i % 128) as u32,
                Time::from_ns(i * 120),
            ));
        }
        let done = drive(&mut mc, reqs, Time::from_us(80));
        assert!(mc.stats().backoffs >= 1);
        let t = mc.device().timing();
        // Probe requests in the other bank never absorb a full back-off.
        let max_other = done
            .iter()
            .filter(|c| c.id >= 10_000)
            .map(|c| c.latency())
            .max()
            .unwrap();
        assert!(
            max_other < t.backoff_latency(4),
            "bank-level back-off leaked across banks: {max_other}"
        );
    }
}
