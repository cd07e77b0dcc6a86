//! Rank-level constraints: tFAW, tRRD and rank-wide blocking.

use crate::time::Time;
use crate::timing::DramTiming;

/// Rank-level timing state: the rolling four-activate window (tFAW),
/// activate-to-activate spacing (tRRD_L/S) and rank-wide blocking caused by
/// refresh or all-bank RFM.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankState {
    /// Issue times of the four most recent activates: a ring whose
    /// oldest entry sits at `acts % 4` once it is full.
    recent_acts: [Time; 4],
    /// Activates recorded so far.
    acts: u64,
    /// Time and bank group of the most recent activate.
    last_act: Option<(Time, u32)>,
    /// Until when the whole rank is blocked (REF / RFMab).
    blocked_until: Time,
}

impl RankState {
    /// A fresh, unblocked rank.
    pub fn new() -> RankState {
        RankState::default()
    }

    /// Until when the whole rank is blocked.
    pub fn blocked_until(&self) -> Time {
        self.blocked_until
    }

    /// Earliest time an `ACT` to `bank_group` may be issued under
    /// rank-level constraints.
    pub fn earliest_act(&self, bank_group: u32, t: &DramTiming) -> Time {
        let mut earliest = self.blocked_until;
        if self.acts >= 4 {
            earliest = earliest.max(self.recent_acts[(self.acts % 4) as usize] + t.t_faw);
        }
        if let Some((last, bg)) = self.last_act {
            let rrd = if bg == bank_group {
                t.t_rrd_l
            } else {
                t.t_rrd_s
            };
            earliest = earliest.max(last + rrd);
        }
        earliest
    }

    /// Earliest time any non-ACT command may be issued (rank blocking only).
    pub fn earliest_any(&self) -> Time {
        self.blocked_until
    }

    /// Records an `ACT` issued at `now` to `bank_group`.
    pub fn apply_act(&mut self, now: Time, bank_group: u32) {
        self.recent_acts[(self.acts % 4) as usize] = now;
        self.acts += 1;
        self.last_act = Some((now, bank_group));
    }

    /// Blocks the entire rank until `until` (REF or all-bank RFM).
    pub fn block_until(&mut self, until: Time) {
        self.blocked_until = self.blocked_until.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Span;

    fn timing() -> DramTiming {
        DramTiming::ddr5_4800()
    }

    #[test]
    fn trrd_applies_between_activates() {
        let t = timing();
        let mut r = RankState::new();
        r.apply_act(Time::ZERO, 0);
        // Same bank group: long delay.
        assert_eq!(r.earliest_act(0, &t), Time::ZERO + t.t_rrd_l);
        // Different bank group: short delay.
        assert_eq!(r.earliest_act(1, &t), Time::ZERO + t.t_rrd_s);
    }

    #[test]
    fn tfaw_limits_burst_of_activates() {
        let t = timing();
        let mut r = RankState::new();
        let mut now = Time::ZERO;
        for bg in 0..4 {
            now = r.earliest_act(bg, &t).max(now);
            r.apply_act(now, bg);
        }
        // The fifth activate must wait for the first to leave the window.
        let fifth = r.earliest_act(4, &t);
        assert!(fifth >= Time::ZERO + t.t_faw, "fifth ACT at {fifth} < tFAW");
    }

    #[test]
    fn window_slides_after_four_acts() {
        let t = timing();
        let mut r = RankState::new();
        for i in 0..8u64 {
            r.apply_act(Time::from_ns(100 * i), (i % 4) as u32);
        }
        // Only the last four activates matter for tFAW.
        let earliest = r.earliest_act(0, &t);
        assert!(earliest >= Time::from_ns(400) + t.t_faw);
    }

    #[test]
    fn blocking_gates_everything() {
        let t = timing();
        let mut r = RankState::new();
        r.block_until(Time::from_us(1));
        assert_eq!(r.earliest_any(), Time::from_us(1));
        assert!(r.earliest_act(0, &t) >= Time::from_us(1));
        // Blocking never moves backwards.
        r.block_until(Time::from_ns(10));
        assert_eq!(r.blocked_until(), Time::from_us(1));
    }

    #[test]
    fn no_constraint_when_idle() {
        let t = timing();
        let r = RankState::new();
        assert_eq!(r.earliest_act(0, &t), Time::ZERO);
        let _ = Span::ZERO;
    }
}
