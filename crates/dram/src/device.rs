//! The DRAM device model for one channel.
//!
//! [`DramDevice`] combines the per-bank and per-rank state machines, the
//! command/data buses, the per-row activation counters, the read-disturb
//! ground truth, and (optionally) the PRAC alert mechanism. The memory
//! controller drives it through two calls:
//!
//! * [`DramDevice::earliest_legal`] — first instant at or after `now` at
//!   which this command could legally issue (a *total* query: transiently
//!   illegal commands get the instant they become issuable, never an
//!   error);
//! * [`DramDevice::issue`] — issue it, returning data timing and any alert.
//!
//! The device *refuses* protocol violations at issue time instead of
//! mis-modelling them, so controller bugs surface as [`DramError`]s in
//! tests.

use crate::bank::Bank;
use crate::command::{Command, RfmScope};
use crate::counters::{CounterInit, RowCounters};
use crate::disturb::DisturbTracker;
use crate::error::DramError;
use crate::geometry::{BankId, Geometry};
use crate::prac::{Alert, PracConfig, PracState};
use crate::rank::RankState;
use crate::stats::DeviceStats;
use crate::time::{Span, Time};
use crate::timing::DramTiming;

/// Result of issuing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IssueOutcome {
    /// For `RD`/`WR`: when the data burst completes.
    pub data_ready: Option<Time>,
    /// A newly asserted ABO alert, if the command triggered one.
    pub alert: Option<Alert>,
}

/// Configuration for [`DramDevice`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Shape of the device.
    pub geometry: Geometry,
    /// Timing parameters.
    pub timing: DramTiming,
    /// PRAC configuration, or `None` when the device does not implement
    /// per-row activation counting. Only a bare [`DramDevice`] reads
    /// the value set here: `MemoryController::with_mitigations`, which
    /// builds the device of every simulated system, overwrites it with
    /// the defense's own PRAC configuration.
    pub prac: Option<PracConfig>,
    /// Blast radius for disturb bookkeeping and preventive refreshes.
    pub blast_radius: u32,
    /// Aggressor rows whose victims are refreshed per all-bank RFM.
    pub aggressors_per_rfm: u32,
    /// RowPress accounting (§2.2): every `press_unit` a row stays open
    /// beyond `tRAS` disturbs its neighbors like one extra activation.
    /// `None` disables RowPress modeling.
    pub press_unit: Option<Span>,
    /// Seed for RIAC counter randomization. Only a bare [`DramDevice`]
    /// reads the value set here: `MemoryController::with_mitigations`
    /// overwrites it with the system seed.
    pub seed: u64,
}

impl DeviceConfig {
    /// Paper-default device: Table 1 geometry, DDR5 timings, PRAC with
    /// `NBO` = 128, blast radius 1.
    pub fn paper_default() -> DeviceConfig {
        DeviceConfig {
            geometry: Geometry::paper_default(),
            timing: DramTiming::ddr5_4800(),
            prac: Some(PracConfig::paper_default()),
            blast_radius: 1,
            aggressors_per_rfm: 1,
            press_unit: Some(Span::from_us(1)),
            seed: 0,
        }
    }
}

impl Default for DeviceConfig {
    fn default() -> DeviceConfig {
        DeviceConfig::paper_default()
    }
}

/// Cycle-level model of one DRAM channel.
///
/// # Examples
///
/// ```
/// use lh_dram::{BankId, Command, DeviceConfig, DramDevice, Time};
///
/// let mut dev = DramDevice::new(DeviceConfig::paper_default()).unwrap();
/// let bank = BankId::new(0, 0, 0, 0);
/// let act = Command::Activate { bank, row: 7 };
/// let at = dev.earliest_legal(&act, Time::ZERO);
/// dev.issue(&act, at).unwrap();
/// assert_eq!(dev.open_row(bank), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct DramDevice {
    config: DeviceConfig,
    banks: Vec<Bank>,
    ranks: Vec<RankState>,
    /// Command-bus free time.
    cmd_free: Time,
    /// Data-bus free time.
    data_free: Time,
    /// Last column command: (issue time, bank group) for tCCD.
    last_col: Option<(Time, u32)>,
    counters: RowCounters,
    disturb: DisturbTracker,
    prac: Option<PracState>,
    pending_alert: Option<Alert>,
    /// Per-rank periodic-refresh sweep position.
    sweep_pos: Vec<u32>,
    /// Rows refreshed per REF command per bank.
    rows_per_ref: u32,
    stats: DeviceStats,
}

impl DramDevice {
    /// Builds a device from a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the timing parameters are inconsistent.
    pub fn new(config: DeviceConfig) -> Result<DramDevice, DramError> {
        config.timing.validate()?;
        let g = config.geometry;
        let num_banks = g.banks_per_channel() as usize;
        let refs_per_window = (config.timing.t_refw / config.timing.t_refi).max(1);
        let rows_per_ref = (g.rows_per_bank() as u64).div_ceil(refs_per_window) as u32;
        let counter_init = config
            .prac
            .as_ref()
            .map(|p| p.counter_init)
            .unwrap_or(CounterInit::Zero);
        let prac = config.prac.map(PracState::new);
        let counters = RowCounters::new(num_banks, counter_init, config.seed);
        let disturb = DisturbTracker::new(num_banks, g.rows_per_bank(), config.blast_radius);
        Ok(DramDevice {
            config,
            banks: vec![Bank::new(); num_banks],
            ranks: vec![RankState::new(); g.ranks_per_channel() as usize],
            cmd_free: Time::ZERO,
            data_free: Time::ZERO,
            last_col: None,
            counters,
            disturb,
            prac,
            pending_alert: None,
            sweep_pos: vec![0; g.ranks_per_channel() as usize],
            rows_per_ref,
            stats: DeviceStats::default(),
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.config.geometry
    }

    /// The timing parameters.
    pub fn timing(&self) -> &DramTiming {
        &self.config.timing
    }

    /// The currently open row of `bank`, if any.
    pub fn open_row(&self, bank: BankId) -> Option<u32> {
        self.banks[self.flat(bank)].open_row()
    }

    /// Device statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Per-row activation counters (ground truth / PRAC counters).
    pub fn counters(&self) -> &RowCounters {
        &self.counters
    }

    /// Read-disturb ground truth.
    pub fn disturb(&self) -> &DisturbTracker {
        &self.disturb
    }

    /// Enables or disables read-disturb bookkeeping.
    pub fn set_disturb_enabled(&mut self, enabled: bool) {
        self.disturb.set_enabled(enabled);
    }

    /// The alert that is currently asserted and awaiting recovery, if any.
    pub fn pending_alert(&self) -> Option<Alert> {
        self.pending_alert
    }

    /// The PRAC configuration, if PRAC is enabled.
    pub fn prac_config(&self) -> Option<&PracConfig> {
        self.prac.as_ref().map(|p| p.config())
    }

    /// Marks the back-off recovery complete (controller has issued all
    /// recovery RFMs); starts the PRAC cool-down window.
    pub fn recovery_complete(&mut self, now: Time) {
        if let Some(prac) = &mut self.prac {
            prac.recovery_complete(now);
        }
        self.pending_alert = None;
    }

    fn flat(&self, bank: BankId) -> usize {
        self.config.geometry.flat_bank(bank)
    }

    /// Banks blocked by an RFM of `scope` on `rank`, as flat indices.
    pub fn rfm_banks(&self, rank: u32, scope: RfmScope) -> Vec<usize> {
        self.rfm_flats(rank, scope).collect()
    }

    /// [`DramDevice::rfm_banks`] without the allocation: every scope is
    /// an arithmetic progression over the rank's flat-index range, in
    /// ascending order.
    fn rfm_flats(&self, rank: u32, scope: RfmScope) -> impl Iterator<Item = usize> {
        let g = &self.config.geometry;
        let (start, step, count) = match scope {
            RfmScope::AllBank => (self.flat(BankId::new(0, rank, 0, 0)), 1, g.banks_per_rank()),
            RfmScope::SameBank { bank } => (
                self.flat(BankId::new(0, rank, 0, bank)),
                g.banks_per_group() as usize,
                g.bank_groups_per_rank(),
            ),
            RfmScope::SingleBank { bank_group, bank } => {
                (self.flat(BankId::new(0, rank, bank_group, bank)), 1, 1)
            }
        };
        (0..count as usize).map(move |i| start + i * step)
    }

    /// Read-only view of the per-bank state machines, indexed by flat
    /// bank ([`Geometry::flat_bank`]). Together with
    /// [`DramDevice::rank_states`] and [`DramDevice::bus_state`] this is
    /// everything [`DramDevice::earliest_legal`] folds for a state-legal
    /// `ACT`/`PRE`/`RD`/`WR`, so a batched scheduler can fold the
    /// bank/rank terms per candidate and the channel-global terms once
    /// per scan.
    pub fn bank_states(&self) -> &[Bank] {
        &self.banks
    }

    /// Read-only view of the per-rank timing state (tRRD/tFAW window,
    /// rank-wide blocking), indexed by rank.
    pub fn rank_states(&self) -> &[RankState] {
        &self.ranks
    }

    /// The channel-global timing state a batched scheduler mirrors:
    /// `(cmd_free, last_col, data_free)` — the command-bus free instant,
    /// the last column command's `(issue time, bank group)`, and the
    /// data-bus free instant.
    pub fn bus_state(&self) -> (Time, Option<(Time, u32)>, Time) {
        (self.cmd_free, self.last_col, self.data_free)
    }

    /// First instant **at or after `now`** at which `cmd` could legally
    /// issue, considering bank, rank and bus constraints.
    ///
    /// This query is *total* over well-formed commands — it never fails
    /// for transient illegality. When `cmd` is legal in the current FSM
    /// state, the returned instant is exact: issuing at it succeeds, and
    /// issuing earlier is a timing violation. When `cmd` is transiently
    /// illegal (an `ACT` while a row is open, a column command to a
    /// closed bank, a `REF`/`RFM` while affected banks hold open rows),
    /// the device returns a *lower bound* on when the command can become
    /// legal, assuming the controller performs the implied preparatory
    /// commands (`PRE` before `ACT`, `ACT` before `RD`/`WR`) at their own
    /// earliest instants. Schedulers wake at the returned time and
    /// re-evaluate; they never need to poll.
    ///
    /// Guarantees relied upon by `lh-memctrl` and asserted by its
    /// property tests:
    ///
    /// * **total** — returns a `Time` for every address-valid command in
    ///   every device state;
    /// * **monotone** — for `now1 <= now2`,
    ///   `earliest_legal(cmd, now1) <= earliest_legal(cmd, now2)`, and the
    ///   result is always `>= now`;
    /// * **sound** — whenever the returned instant is strictly after
    ///   `now` (i.e. a device constraint, not the `now` clamp, is the
    ///   binding bound), `issue(cmd, t)` fails with a timing violation
    ///   for every earlier `t`.
    ///
    /// # Panics
    ///
    /// Panics on malformed commands (addresses outside the geometry):
    /// those are programming errors, not scheduling states. Use
    /// [`DramDevice::issue`] if you need an `Err` for them.
    pub fn earliest_legal(&self, cmd: &Command, now: Time) -> Time {
        if let Err(e) = self.check_address(cmd) {
            panic!("earliest_legal on malformed command: {e}");
        }
        self.earliest_from_state(cmd).max(now)
    }

    /// Whether `cmd` is legal in the *current* FSM state (row open/closed
    /// requirements); timing constraints are checked separately.
    fn check_state(&self, cmd: &Command) -> Result<(), DramError> {
        match *cmd {
            Command::Activate { bank, .. } => {
                if self.banks[self.flat(bank)].open_row().is_some() {
                    return Err(DramError::ProtocolViolation {
                        command: *cmd,
                        reason: "ACT to a bank with an open row",
                    });
                }
            }
            Command::Read { bank, .. } | Command::Write { bank, .. } => {
                if self.banks[self.flat(bank)].open_row().is_none() {
                    return Err(DramError::ProtocolViolation {
                        command: *cmd,
                        reason: "column command to a closed bank",
                    });
                }
            }
            Command::Refresh { .. } | Command::Rfm { .. } => {
                for flat in self.affected_banks(cmd) {
                    if self.banks[flat].open_row().is_some() {
                        return Err(DramError::ProtocolViolation {
                            command: *cmd,
                            reason: "REF/RFM requires affected banks precharged",
                        });
                    }
                }
            }
            Command::Precharge { .. } | Command::PrechargeAll { .. } => {}
        }
        Ok(())
    }

    /// Unclamped earliest-issue computation shared by
    /// [`DramDevice::earliest_legal`] and the [`DramDevice::issue`]
    /// validation path. Total over address-valid commands: transiently
    /// illegal commands get the implied-preparation lower bound.
    fn earliest_from_state(&self, cmd: &Command) -> Time {
        let t = &self.config.timing;
        let mut earliest = self.cmd_free;
        match *cmd {
            Command::Activate { bank, .. } => {
                let b = &self.banks[self.flat(bank)];
                earliest = earliest
                    .max(b.earliest_act())
                    .max(self.ranks[bank.rank as usize].earliest_act(bank.bank_group, t));
                if b.open_row().is_some() {
                    // Transiently illegal: the open row must close first.
                    // The implied PRE at its earliest instant starts tRP.
                    earliest = earliest.max(b.earliest_pre() + t.t_rp);
                }
            }
            Command::Precharge { bank } => {
                let b = &self.banks[self.flat(bank)];
                earliest = earliest
                    .max(b.earliest_pre())
                    .max(self.ranks[bank.rank as usize].earliest_any());
            }
            Command::PrechargeAll { rank, .. } => {
                for flat in self.rank_banks(rank) {
                    earliest = earliest.max(self.banks[flat].earliest_pre());
                }
                earliest = earliest.max(self.ranks[rank as usize].earliest_any());
            }
            Command::Read { bank, .. } | Command::Write { bank, .. } => {
                let is_read = matches!(cmd, Command::Read { .. });
                let b = &self.banks[self.flat(bank)];
                earliest = earliest
                    .max(if is_read {
                        b.earliest_rd()
                    } else {
                        b.earliest_wr()
                    })
                    .max(self.ranks[bank.rank as usize].earliest_any());
                if b.open_row().is_none() {
                    // Transiently illegal: a row must open first. The
                    // implied ACT at its earliest instant starts tRCD.
                    let act = self
                        .cmd_free
                        .max(b.earliest_act())
                        .max(self.ranks[bank.rank as usize].earliest_act(bank.bank_group, t));
                    earliest = earliest.max(act + t.t_rcd);
                }
                if let Some((last, bg)) = self.last_col {
                    let ccd = if bg == bank.bank_group {
                        t.t_ccd_l
                    } else {
                        t.t_ccd_s
                    };
                    earliest = earliest.max(last + ccd);
                }
                // The data burst must not start before the data bus frees.
                let lat = if is_read { t.t_cl } else { t.t_cwl };
                let min_issue = self.data_free.saturating_since(Time::ZERO + lat);
                earliest = earliest.max(Time::ZERO + min_issue);
            }
            Command::Refresh { rank, .. } | Command::Rfm { rank, .. } => {
                for flat in self.affected_banks(cmd) {
                    let b = &self.banks[flat];
                    earliest = earliest.max(b.earliest_act());
                    if b.open_row().is_some() {
                        // Transiently illegal: the bank must precharge
                        // before it can absorb a REF/RFM.
                        earliest = earliest.max(b.earliest_pre() + t.t_rp);
                    }
                }
                earliest = earliest.max(self.ranks[rank as usize].earliest_any());
            }
        }
        earliest
    }

    /// Flat indices of the banks a REF/RFM on `rank` blocks (a REF
    /// covers the rank like an all-bank RFM).
    fn affected_banks(&self, cmd: &Command) -> impl Iterator<Item = usize> {
        match *cmd {
            Command::Refresh { rank, .. } => self.rfm_flats(rank, RfmScope::AllBank),
            Command::Rfm { rank, scope, .. } => self.rfm_flats(rank, scope),
            _ => unreachable!("affected_banks is only defined for REF/RFM"),
        }
    }

    fn rank_banks(&self, rank: u32) -> std::ops::Range<usize> {
        let per_rank = self.config.geometry.banks_per_rank() as usize;
        let base = rank as usize * per_rank;
        base..base + per_rank
    }

    fn check_address(&self, cmd: &Command) -> Result<(), DramError> {
        let g = &self.config.geometry;
        let ok = match *cmd {
            Command::Activate { bank, row } => g.contains_bank(bank) && row < g.rows_per_bank(),
            Command::Precharge { bank } => g.contains_bank(bank),
            Command::Read { bank, col } | Command::Write { bank, col } => {
                g.contains_bank(bank) && col < g.cols_per_row()
            }
            Command::PrechargeAll { channel, rank } | Command::Refresh { channel, rank } => {
                channel < g.channels() && rank < g.ranks_per_channel()
            }
            Command::Rfm {
                channel,
                rank,
                scope,
            } => {
                let scope_ok = match scope {
                    RfmScope::AllBank => true,
                    RfmScope::SameBank { bank } => bank < g.banks_per_group(),
                    RfmScope::SingleBank { bank_group, bank } => {
                        bank_group < g.bank_groups_per_rank() && bank < g.banks_per_group()
                    }
                };
                channel < g.channels() && rank < g.ranks_per_channel() && scope_ok
            }
        };
        if ok {
            Ok(())
        } else {
            Err(DramError::AddressOutOfRange { command: *cmd })
        }
    }

    /// Issues `cmd` at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::TimingViolation`] if `now` precedes the
    /// earliest legal issue time ([`DramDevice::earliest_legal`]),
    /// [`DramError::ProtocolViolation`] if the command is illegal in the
    /// current bank state, and [`DramError::AddressOutOfRange`] for
    /// invalid coordinates.
    pub fn issue(&mut self, cmd: &Command, now: Time) -> Result<IssueOutcome, DramError> {
        self.check_address(cmd)?;
        self.check_state(cmd)?;
        let earliest = self.earliest_from_state(cmd);
        if now < earliest {
            return Err(DramError::TimingViolation {
                command: *cmd,
                issued_at: now,
                earliest,
            });
        }
        let t = self.config.timing;
        self.cmd_free = now + t.t_cmd;
        let mut outcome = IssueOutcome::default();
        match *cmd {
            Command::Activate { bank, row } => {
                let flat = self.flat(bank);
                self.banks[flat].apply_act(now, row, &t);
                self.ranks[bank.rank as usize].apply_act(now, bank.bank_group);
                self.disturb.on_activate(flat, row);
                self.stats.activates += 1;
            }
            Command::Precharge { bank } => {
                let flat = self.flat(bank);
                if let Some((row, dwell)) = self.banks[flat].apply_pre(now, &t) {
                    self.stats.precharges += 1;
                    outcome.alert = self.close_row(bank, flat, row, dwell, now);
                }
            }
            Command::PrechargeAll { rank, .. } => {
                let mut best: Option<Alert> = None;
                for flat in self.rank_banks(rank) {
                    if let Some((row, dwell)) = self.banks[flat].apply_pre(now, &t) {
                        self.stats.precharges += 1;
                        let bank = self.config.geometry.bank_from_flat(cmd.channel(), flat);
                        if let Some(alert) = self.close_row(bank, flat, row, dwell, now) {
                            best = best.or(Some(alert));
                        }
                    }
                }
                outcome.alert = best;
            }
            Command::Read { bank, .. } => {
                let flat = self.flat(bank);
                let data_end = self.banks[flat].apply_rd(now, &t);
                self.data_free = self.data_free.max(data_end);
                self.last_col = Some((now, bank.bank_group));
                self.stats.reads += 1;
                outcome.data_ready = Some(data_end);
            }
            Command::Write { bank, .. } => {
                let flat = self.flat(bank);
                let data_end = self.banks[flat].apply_wr(now, &t);
                self.data_free = self.data_free.max(data_end);
                self.last_col = Some((now, bank.bank_group));
                self.stats.writes += 1;
                outcome.data_ready = Some(data_end);
            }
            Command::Refresh { rank, .. } => {
                let until = now + t.t_rfc;
                let start = self.sweep_pos[rank as usize];
                for flat in self.rank_banks(rank) {
                    self.banks[flat].block_until(until);
                    self.disturb.sweep(flat, start, self.rows_per_ref);
                }
                self.ranks[rank as usize].block_until(until);
                self.sweep_pos[rank as usize] =
                    (start + self.rows_per_ref) % self.config.geometry.rows_per_bank();
                self.stats.refreshes += 1;
                self.stats.ref_blocked += t.t_rfc;
            }
            Command::Rfm { rank, scope, .. } => {
                let until = now + t.t_rfm;
                for flat in self.rfm_flats(rank, scope) {
                    self.banks[flat].block_until(until);
                }
                if scope == RfmScope::AllBank {
                    self.ranks[rank as usize].block_until(until);
                }
                self.preventive_refresh(rank, scope);
                self.stats.rfms += 1;
                self.stats.rfm_blocked += t.t_rfm;
            }
        }
        if let Some(alert) = outcome.alert {
            self.pending_alert = Some(alert);
            self.stats.alerts += 1;
        }
        Ok(outcome)
    }

    /// PRAC counter increment + RowPress accounting + alert check when a
    /// row closes.
    fn close_row(
        &mut self,
        bank: BankId,
        flat: usize,
        row: u32,
        dwell: Span,
        now: Time,
    ) -> Option<Alert> {
        let count = self.counters.increment(flat, row);
        // RowPress (§2.2): extra disturbance proportional to how long the
        // row stayed open beyond a nominal activation.
        if let Some(unit) = self.config.press_unit {
            let extra = dwell.saturating_sub(self.config.timing.t_ras) / unit;
            for _ in 0..extra.min(64) {
                self.disturb.on_press(flat, row);
            }
        }
        let abo_delay = self.config.timing.t_abo_delay;
        self.prac
            .as_mut()
            .and_then(|p| p.on_row_closed(bank, count, now, abo_delay))
    }

    /// Performs a preventive refresh of `(bank, row)`'s victims *inside an
    /// already-blocking maintenance window* (the MINT/PrIDE "borrowed
    /// time" design, §12): the aggressor's activation counter resets and
    /// its victims' disturbance is annulled without consuming any extra
    /// DRAM time — which is precisely why overlapped-latency defenses give
    /// a LeakyHammer receiver nothing to observe.
    ///
    /// The caller is responsible for only invoking this while the bank is
    /// actually blocked by a REF/RFM window; the device does not re-check.
    pub fn hidden_preventive_refresh(&mut self, bank: BankId, row: u32) {
        let flat = self.flat(bank);
        self.counters.reset(flat, row);
        self.disturb.refresh_victims_of(flat, row);
        self.stats.preventive_refreshes += 1;
        self.stats.hidden_refreshes += 1;
    }

    /// Refreshes the victims of the highest-counted aggressor rows in the
    /// RFM's scope, resetting their counters.
    fn preventive_refresh(&mut self, rank: u32, scope: RfmScope) {
        let aggressors: Vec<(usize, u32)> = match scope {
            RfmScope::AllBank => self
                .counters
                .top_rows_in(
                    self.rank_banks(rank),
                    self.config.aggressors_per_rfm as usize,
                )
                .into_iter()
                .filter(|&(_, _, count)| count > 0)
                .map(|(b, row, _)| (b, row))
                .collect(),
            RfmScope::SameBank { .. } | RfmScope::SingleBank { .. } => self
                .rfm_flats(rank, scope)
                .filter_map(|b| {
                    self.counters
                        .top_row(b)
                        .filter(|&(_, count)| count > 0)
                        .map(|(row, _)| (b, row))
                })
                .collect(),
        };
        for (b, row) in aggressors {
            self.counters.reset(b, row);
            self.disturb.refresh_victims_of(b, row);
            self.stats.preventive_refreshes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_device(prac: Option<PracConfig>) -> DramDevice {
        let config = DeviceConfig {
            geometry: Geometry::tiny(),
            timing: DramTiming::ddr5_4800(),
            prac,
            blast_radius: 1,
            aggressors_per_rfm: 1,
            press_unit: Some(Span::from_us(1)),
            seed: 1,
        };
        DramDevice::new(config).unwrap()
    }

    fn bank0() -> BankId {
        BankId::new(0, 0, 0, 0)
    }

    /// Issue `cmd` at its earliest legal time; returns (time, outcome).
    fn issue_asap(dev: &mut DramDevice, cmd: Command) -> (Time, IssueOutcome) {
        let at = dev.earliest_legal(&cmd, Time::ZERO);
        let out = dev.issue(&cmd, at).unwrap();
        (at, out)
    }

    #[test]
    fn read_needs_open_row() {
        let mut dev = tiny_device(None);
        let cmd = Command::Read {
            bank: bank0(),
            col: 0,
        };
        // Issuing to a closed bank is a protocol violation...
        let err = dev.issue(&cmd, Time::ZERO).unwrap_err();
        assert!(matches!(err, DramError::ProtocolViolation { .. }));
        // ...but the legality query stays total: it answers with the
        // implied-ACT lower bound instead of an error.
        let t = *dev.timing();
        assert_eq!(dev.earliest_legal(&cmd, Time::ZERO), Time::ZERO + t.t_rcd);
    }

    #[test]
    fn act_read_pre_sequence_produces_data() {
        let mut dev = tiny_device(None);
        issue_asap(
            &mut dev,
            Command::Activate {
                bank: bank0(),
                row: 3,
            },
        );
        let (rd_at, out) = issue_asap(
            &mut dev,
            Command::Read {
                bank: bank0(),
                col: 1,
            },
        );
        let data = out.data_ready.unwrap();
        assert_eq!(data, rd_at + dev.timing().read_latency());
        issue_asap(&mut dev, Command::Precharge { bank: bank0() });
        assert!(dev.open_row(bank0()).is_none());
        assert_eq!(dev.stats().reads, 1);
        assert_eq!(dev.stats().activates, 1);
        assert_eq!(dev.stats().precharges, 1);
    }

    #[test]
    fn double_activate_is_protocol_violation() {
        let mut dev = tiny_device(None);
        issue_asap(
            &mut dev,
            Command::Activate {
                bank: bank0(),
                row: 3,
            },
        );
        let second = Command::Activate {
            bank: bank0(),
            row: 4,
        };
        let err = dev.issue(&second, Time::from_us(1)).unwrap_err();
        assert!(matches!(err, DramError::ProtocolViolation { .. }));
        // The total query answers with the implied PRE→ACT bound.
        let t = *dev.timing();
        assert_eq!(
            dev.earliest_legal(&second, Time::ZERO),
            Time::ZERO + t.t_ras + t.t_rp
        );
    }

    #[test]
    fn early_issue_is_timing_violation() {
        let mut dev = tiny_device(None);
        issue_asap(
            &mut dev,
            Command::Activate {
                bank: bank0(),
                row: 3,
            },
        );
        // RD before tRCD elapses must be rejected.
        let err = dev.issue(
            &Command::Read {
                bank: bank0(),
                col: 0,
            },
            Time::from_ns(1),
        );
        assert!(matches!(err, Err(DramError::TimingViolation { .. })));
    }

    #[test]
    fn out_of_range_address_is_rejected() {
        let mut dev = tiny_device(None);
        let bad = Command::Activate {
            bank: bank0(),
            row: 1_000_000,
        };
        assert!(matches!(
            dev.issue(&bad, Time::ZERO),
            Err(DramError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn hammering_to_nbo_asserts_alert_after_pre() {
        let mut prac = PracConfig::paper_default();
        prac.nbo = 4;
        let mut dev = tiny_device(Some(prac));
        let mut alert = None;
        for i in 0..4 {
            issue_asap(
                &mut dev,
                Command::Activate {
                    bank: bank0(),
                    row: 5,
                },
            );
            let (pre_at, out) = issue_asap(&mut dev, Command::Precharge { bank: bank0() });
            if out.alert.is_some() {
                alert = out.alert;
                assert_eq!(i, 3, "alert exactly at the 4th close");
                assert_eq!(
                    alert.unwrap().asserted_at,
                    pre_at + dev.timing().t_abo_delay
                );
            }
        }
        assert!(alert.is_some());
        assert_eq!(dev.stats().alerts, 1);
        assert_eq!(dev.pending_alert(), alert);
    }

    #[test]
    fn rfm_refreshes_top_aggressor_and_resets_counter() {
        let mut prac = PracConfig::paper_default();
        prac.nbo = 1000; // do not alert in this test
        let mut dev = tiny_device(Some(prac));
        for _ in 0..6 {
            issue_asap(
                &mut dev,
                Command::Activate {
                    bank: bank0(),
                    row: 9,
                },
            );
            issue_asap(&mut dev, Command::Precharge { bank: bank0() });
        }
        assert_eq!(dev.counters().value(0, 9), 6);
        let victim_pressure_before = dev.disturb().pressure(0, 10);
        assert_eq!(victim_pressure_before, 6);
        issue_asap(
            &mut dev,
            Command::Rfm {
                channel: 0,
                rank: 0,
                scope: RfmScope::AllBank,
            },
        );
        assert_eq!(dev.counters().value(0, 9), 0, "aggressor counter reset");
        assert_eq!(dev.disturb().pressure(0, 10), 0, "victim refreshed");
        assert_eq!(dev.stats().preventive_refreshes, 1);
    }

    #[test]
    fn refresh_blocks_whole_rank() {
        let mut dev = tiny_device(None);
        let (ref_at, _) = issue_asap(
            &mut dev,
            Command::Refresh {
                channel: 0,
                rank: 0,
            },
        );
        let act = Command::Activate {
            bank: bank0(),
            row: 1,
        };
        let earliest = dev.earliest_legal(&act, Time::ZERO);
        assert!(earliest >= ref_at + dev.timing().t_rfc);
        assert_eq!(dev.stats().refreshes, 1);
    }

    #[test]
    fn refresh_requires_precharged_banks() {
        let mut dev = tiny_device(None);
        let (act_at, _) = issue_asap(
            &mut dev,
            Command::Activate {
                bank: bank0(),
                row: 1,
            },
        );
        let refresh = Command::Refresh {
            channel: 0,
            rank: 0,
        };
        let err = dev.issue(&refresh, Time::ZERO).unwrap_err();
        assert!(matches!(err, DramError::ProtocolViolation { .. }));
        // Total query: legal once the open bank can be precharged.
        let t = *dev.timing();
        assert_eq!(
            dev.earliest_legal(&refresh, Time::ZERO),
            act_at + t.t_ras + t.t_rp
        );
    }

    #[test]
    fn same_bank_rfm_blocks_only_that_bank_index() {
        let mut dev = tiny_device(None);
        let (rfm_at, _) = issue_asap(
            &mut dev,
            Command::Rfm {
                channel: 0,
                rank: 0,
                scope: RfmScope::SameBank { bank: 0 },
            },
        );
        // Bank index 0 of both groups is blocked...
        for bg in 0..2 {
            let blocked = Command::Activate {
                bank: BankId::new(0, 0, bg, 0),
                row: 1,
            };
            let e = dev.earliest_legal(&blocked, Time::ZERO);
            assert!(
                e >= rfm_at + dev.timing().t_rfm,
                "bg{bg} bank0 must be blocked"
            );
        }
        // ...but bank index 1 is not.
        let free = Command::Activate {
            bank: BankId::new(0, 0, 0, 1),
            row: 1,
        };
        let e = dev.earliest_legal(&free, Time::ZERO);
        assert!(e < rfm_at + dev.timing().t_rfm);
    }

    #[test]
    fn precharge_all_closes_every_open_row() {
        let mut dev = tiny_device(None);
        for bg in 0..2 {
            for b in 0..2 {
                issue_asap(
                    &mut dev,
                    Command::Activate {
                        bank: BankId::new(0, 0, bg, b),
                        row: 7,
                    },
                );
            }
        }
        issue_asap(
            &mut dev,
            Command::PrechargeAll {
                channel: 0,
                rank: 0,
            },
        );
        for bg in 0..2 {
            for b in 0..2 {
                assert!(dev.open_row(BankId::new(0, 0, bg, b)).is_none());
            }
        }
        assert_eq!(dev.stats().precharges, 4);
    }

    #[test]
    fn periodic_refresh_sweep_clears_disturb() {
        let mut dev = tiny_device(None);
        // Hammer row 0 so row 1 accumulates pressure.
        for _ in 0..5 {
            issue_asap(
                &mut dev,
                Command::Activate {
                    bank: bank0(),
                    row: 0,
                },
            );
            issue_asap(&mut dev, Command::Precharge { bank: bank0() });
        }
        assert!(dev.disturb().pressure(0, 1) > 0);
        // The tiny geometry has 1024 rows and ~8205 REFs per tREFW, so one
        // REF sweeps at least one row; sweep from row 0 upward.
        issue_asap(
            &mut dev,
            Command::Refresh {
                channel: 0,
                rank: 0,
            },
        );
        assert_eq!(dev.disturb().pressure(0, 0), 0);
    }

    #[test]
    fn data_bus_serializes_reads_across_banks() {
        let mut dev = tiny_device(None);
        let b0 = BankId::new(0, 0, 0, 0);
        let b1 = BankId::new(0, 0, 1, 0);
        issue_asap(&mut dev, Command::Activate { bank: b0, row: 1 });
        issue_asap(&mut dev, Command::Activate { bank: b1, row: 1 });
        let (_, out0) = issue_asap(&mut dev, Command::Read { bank: b0, col: 0 });
        let (_, out1) = issue_asap(&mut dev, Command::Read { bank: b1, col: 0 });
        let d0 = out0.data_ready.unwrap();
        let d1 = out1.data_ready.unwrap();
        assert!(d1 >= d0 + dev.timing().t_burst, "bursts must not overlap");
    }

    #[test]
    fn rowpress_dwell_adds_disturbance() {
        // Keep a row open for ~5 µs before precharging: its neighbors
        // absorb ~5 extra units of RowPress pressure on top of the one
        // activation.
        let mut dev = tiny_device(None);
        issue_asap(
            &mut dev,
            Command::Activate {
                bank: bank0(),
                row: 9,
            },
        );
        let pre = Command::Precharge { bank: bank0() };
        dev.issue(&pre, Time::from_us(5)).unwrap();
        let pressure = dev.disturb().pressure(0, 10);
        assert!(
            (4..=7).contains(&pressure),
            "RowPress pressure {pressure}, expected ~1 ACT + ~4-5 dwell units"
        );

        // A quick ACT+PRE adds only the single activation unit.
        let mut dev = tiny_device(None);
        issue_asap(
            &mut dev,
            Command::Activate {
                bank: bank0(),
                row: 9,
            },
        );
        issue_asap(&mut dev, Command::Precharge { bank: bank0() });
        assert_eq!(dev.disturb().pressure(0, 10), 1);
    }

    #[test]
    fn rowpress_can_be_disabled() {
        let config = DeviceConfig {
            geometry: Geometry::tiny(),
            timing: DramTiming::ddr5_4800(),
            prac: None,
            blast_radius: 1,
            aggressors_per_rfm: 1,
            press_unit: None,
            seed: 1,
        };
        let mut dev = DramDevice::new(config).unwrap();
        issue_asap(
            &mut dev,
            Command::Activate {
                bank: bank0(),
                row: 9,
            },
        );
        dev.issue(&Command::Precharge { bank: bank0() }, Time::from_us(5))
            .unwrap();
        assert_eq!(
            dev.disturb().pressure(0, 10),
            1,
            "dwell ignored when disabled"
        );
    }

    #[test]
    fn riac_counters_start_randomized() {
        let dev = tiny_device(Some(PracConfig::riac(128)));
        let spread: Vec<u32> = (0..50).map(|row| dev.counters().value(0, row)).collect();
        assert!(
            spread.iter().any(|&v| v > 0),
            "some counter starts above zero"
        );
        assert!(spread.iter().all(|&v| v < 128));
    }
}
