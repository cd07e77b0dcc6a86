//! Per-bank state machine and timing bookkeeping.

use crate::time::{Span, Time};
use crate::timing::DramTiming;

/// State of one DRAM bank: which row (if any) is open, and the earliest
/// instants at which each command class may next be issued to it.
///
/// The bank does not validate commands by itself — the
/// [`DramDevice`](crate::DramDevice) combines bank, rank and channel
/// constraints and performs protocol checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bank {
    open_row: Option<u32>,
    /// When the open row was activated (for RowPress dwell accounting).
    opened_at: Time,
    next_act: Time,
    next_pre: Time,
    next_rd: Time,
    next_wr: Time,
    /// Until when the bank is blocked by REF/RFM.
    blocked_until: Time,
}

impl Bank {
    /// A freshly initialized (precharged, idle) bank.
    pub fn new() -> Bank {
        Bank::default()
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Earliest time an `ACT` may be issued (bank-local constraints only).
    pub fn earliest_act(&self) -> Time {
        self.next_act.max(self.blocked_until)
    }

    /// Earliest time a `PRE` may be issued.
    pub fn earliest_pre(&self) -> Time {
        self.next_pre.max(self.blocked_until)
    }

    /// Earliest time a `RD` may be issued.
    pub fn earliest_rd(&self) -> Time {
        self.next_rd.max(self.blocked_until)
    }

    /// Earliest time a `WR` may be issued.
    pub fn earliest_wr(&self) -> Time {
        self.next_wr.max(self.blocked_until)
    }

    /// Applies an `ACT` issued at `now` opening `row`.
    pub(crate) fn apply_act(&mut self, now: Time, row: u32, t: &DramTiming) {
        debug_assert!(self.open_row.is_none(), "ACT to open bank");
        debug_assert!(now >= self.earliest_act(), "ACT timing violation");
        self.open_row = Some(row);
        self.opened_at = now;
        self.next_rd = now + t.t_rcd;
        self.next_wr = now + t.t_rcd;
        self.next_pre = now + t.t_ras;
        self.next_act = now + t.t_rc;
    }

    /// Applies a `RD` issued at `now`; returns the end of the data burst.
    pub(crate) fn apply_rd(&mut self, now: Time, t: &DramTiming) -> Time {
        debug_assert!(self.open_row.is_some(), "RD to closed bank");
        self.next_pre = self.next_pre.max(now + t.t_rtp);
        self.next_rd = self.next_rd.max(now + t.t_ccd_l);
        self.next_wr = self.next_wr.max(now + t.t_ccd_l);
        now + t.read_latency()
    }

    /// Applies a `WR` issued at `now`; returns the end of the data burst.
    pub(crate) fn apply_wr(&mut self, now: Time, t: &DramTiming) -> Time {
        debug_assert!(self.open_row.is_some(), "WR to closed bank");
        let data_end = now + t.write_latency();
        self.next_pre = self.next_pre.max(data_end + t.t_wr);
        self.next_rd = self.next_rd.max(data_end + t.t_wtr_l);
        self.next_wr = self.next_wr.max(now + t.t_ccd_l);
        data_end
    }

    /// Applies a `PRE` issued at `now`; returns the closed row and how
    /// long it was open (the RowPress dwell time).
    pub(crate) fn apply_pre(&mut self, now: Time, t: &DramTiming) -> Option<(u32, Span)> {
        let row = self.open_row.take();
        self.next_act = self.next_act.max(now + t.t_rp);
        row.map(|r| (r, now.saturating_since(self.opened_at)))
    }

    /// Blocks the bank (REF/RFM) until `until`.
    ///
    /// The bank must already be precharged.
    pub(crate) fn block_until(&mut self, until: Time) {
        debug_assert!(self.open_row.is_none(), "blocking a bank with an open row");
        self.blocked_until = self.blocked_until.max(until);
        self.next_act = self.next_act.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> DramTiming {
        DramTiming::ddr5_4800()
    }

    #[test]
    fn act_opens_row_and_sets_constraints() {
        let t = timing();
        let mut b = Bank::new();
        let now = Time::from_ns(100);
        b.apply_act(now, 42, &t);
        assert_eq!(b.open_row(), Some(42));
        assert_eq!(b.earliest_rd(), now + t.t_rcd);
        assert_eq!(b.earliest_pre(), now + t.t_ras);
        assert_eq!(b.earliest_act(), now + t.t_rc);
    }

    #[test]
    fn read_pushes_precharge_by_trtp() {
        let t = timing();
        let mut b = Bank::new();
        b.apply_act(Time::ZERO, 1, &t);
        let rd_at = b.earliest_rd();
        let done = b.apply_rd(rd_at, &t);
        assert_eq!(done, rd_at + t.read_latency());
        // tRAS dominates tRTP here.
        assert_eq!(b.earliest_pre(), Time::ZERO + t.t_ras);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let t = timing();
        let mut b = Bank::new();
        b.apply_act(Time::ZERO, 1, &t);
        let wr_at = b.earliest_wr();
        let data_end = b.apply_wr(wr_at, &t);
        assert_eq!(b.earliest_pre(), data_end + t.t_wr);
        assert!(b.earliest_rd() >= data_end + t.t_wtr_l);
    }

    #[test]
    fn precharge_closes_and_enforces_trp() {
        let t = timing();
        let mut b = Bank::new();
        b.apply_act(Time::ZERO, 7, &t);
        let pre_at = b.earliest_pre();
        let (row, dwell) = b.apply_pre(pre_at, &t).unwrap();
        assert_eq!(row, 7);
        assert_eq!(dwell, t.t_ras, "row was open exactly tRAS");
        assert_eq!(b.open_row(), None);
        assert_eq!(b.earliest_act(), pre_at + t.t_rp);
    }

    #[test]
    fn full_act_pre_act_cycle_respects_trc() {
        let t = timing();
        let mut b = Bank::new();
        b.apply_act(Time::ZERO, 1, &t);
        b.apply_pre(b.earliest_pre(), &t);
        // tRAS + tRP == tRC for this part, so both bounds agree.
        assert_eq!(b.earliest_act(), Time::ZERO + t.t_rc);
    }

    #[test]
    fn blocking_delays_activation() {
        let t = timing();
        let mut b = Bank::new();
        b.block_until(Time::from_ns(500));
        assert_eq!(b.earliest_act(), Time::from_ns(500));
        b.apply_act(Time::from_ns(500), 3, &t);
        assert_eq!(b.open_row(), Some(3));
    }

    #[test]
    fn precharging_a_closed_bank_returns_none() {
        let t = timing();
        let mut b = Bank::new();
        assert_eq!(b.apply_pre(Time::from_ns(1), &t), None);
        assert_eq!(b.open_row(), None);
    }
}
