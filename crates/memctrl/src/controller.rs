//! The memory controller: FR-FCFS scheduling, refresh management, RFM
//! issuing and the PRAC alert-back-off protocol.
//!
//! The controller is driven by two calls:
//!
//! * [`MemoryController::enqueue`] — add a request (fails when the queue is
//!   full, like a real controller exerting back-pressure);
//! * [`MemoryController::service`] — issue every command that is legal at
//!   `now` and return the next instant at which calling `service` again may
//!   make progress.
//!
//! Completed requests are drained with [`MemoryController::take_completed`].
//!
//! The scheduler itself lives in `controller/batch.rs`: sections 1–5
//! (ABO, refresh, scheduled maintenance, reactive RFMs, PARA) and a
//! demand stage that folds a per-bank candidate table instead of walking
//! the queues, for every defense and mitigation wrapper, row throttles
//! included. This file holds the controller's state, the mode updates
//! between steps, command issue, and the per-entry FR-FCFS scan
//! (`scan_queue`) that is the table's oracle: it shadows every table
//! verdict under `debug_assertions` and answers the `demand_verdicts`
//! test hook, and no release path reaches it.
//!
//! ## Modeled behaviour (Table 1 + §5 of the paper)
//!
//! * 64-entry read and write queues, FR-FCFS with a **column cap of 16**;
//! * open-page row policy with write draining between watermarks;
//! * per-rank periodic refresh every `tREFI`, postponable by one interval
//!   when the rank is busy, after which **two REFs issue back-to-back**
//!   (footnote 3 of the paper);
//! * the PRAC ABO protocol: alert ≈5 ns after `PRE` → `tABO_ACT` of normal
//!   traffic → `rfms_per_backoff` RFM commands back-to-back → cool-down;
//! * preventive work — reactive [`DefenseAction`]s (PRFM RFMs, PARA and
//!   tracker neighbor refreshes, BlockHammer throttles) and scheduled
//!   [`lh_defenses::Maintenance`] operations (FR-RFM's fixed-rate
//!   all-bank RFMs) — via the defense-agnostic [`Defense`] trait.
//!
//! ## Total-time scheduling
//!
//! The controller never polls. Every wake instant it returns from
//! [`MemoryController::service`] is the *exact* future time at which a
//! scheduling decision can change: command legality comes from the total
//! [`DramDevice::earliest_legal`] query, maintenance timing from
//! [`Defense::next_maintenance`]. There is no 1-ps re-arm anywhere; a wake
//! at or before `now` is a bug and asserts.

mod batch;

pub use batch::CtrlScratch;

use std::collections::{HashMap, VecDeque};

use lh_defenses::{build_defense, Defense, DefenseAction, DefenseConfig, DefenseStats};
use lh_dram::{
    Alert, AlertScope, BankId, Command, DeviceConfig, DramDevice, DramError, RfmScope, Span, Time,
};
use lh_mitigate::MitigationConfig;
use lh_obs::flight::{self, EventBuffer, FlightEvent};

use crate::request::{AccessKind, Completion, MemRequest};

/// Row-buffer management policy.
///
/// A *strictly closed* policy — precharging a row immediately after its
/// accesses are served — is a classic defense against DRAMA-style
/// row-buffer channels. §9 of the paper points out it does **not**
/// mitigate LeakyHammer: every access becomes an activation, so the
/// defense's activation counters climb even faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowPolicy {
    /// Open-page: rows stay open until a conflict or maintenance op.
    Open,
    /// Strictly closed-page: a row is precharged immediately after serving
    /// a column access (auto-precharge semantics), even when further hits
    /// to it are queued.
    Closed,
}

/// Read and write queue capacity (Table 1).
const QUEUE_CAP: usize = 64;
/// Write-drain start watermark.
const WQ_DRAIN_HIGH: usize = 48;
/// Write-drain stop watermark.
const WQ_DRAIN_LOW: usize = 16;
/// FR-RFM quiesce guard: new row/column commands to a rank stop this
/// long before the fixed-rate RFM deadline so the RFM lands exactly on
/// its period.
const FRRFM_GUARD: Span = Span::from_ns(150);

/// Memory-controller configuration (Table 1 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlConfig {
    /// FR-FCFS column cap: maximum consecutive row hits served while an
    /// older row-miss request waits on the same bank.
    pub col_cap: u32,
    /// Allow postponing a periodic refresh by one `tREFI` when the rank is
    /// busy (then issue two back-to-back).
    pub refresh_postpone: bool,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
}

impl CtrlConfig {
    /// Paper defaults: column cap 16, postponing enabled, open-page policy.
    pub fn paper_default() -> CtrlConfig {
        CtrlConfig {
            col_cap: 16,
            refresh_postpone: true,
            row_policy: RowPolicy::Open,
        }
    }
}

impl Default for CtrlConfig {
    fn default() -> CtrlConfig {
        CtrlConfig::paper_default()
    }
}

/// Controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Read requests accepted.
    pub(crate) reads_enqueued: u64,
    /// Write requests accepted.
    pub(crate) writes_enqueued: u64,
    /// Read requests completed.
    pub reads_served: u64,
    /// Write requests completed.
    pub writes_served: u64,
    /// Requests rejected because a queue was full.
    pub rejections: u64,
    /// ACT commands issued.
    pub activates: u64,
    /// PRE/PREab commands issued.
    pub precharges: u64,
    /// Periodic REF commands issued.
    pub refreshes: u64,
    /// Refreshes that were postponed by one interval.
    pub(crate) refreshes_postponed: u64,
    /// PRAC back-off recoveries completed.
    pub backoffs: u64,
    /// RFM commands issued for any reason.
    pub rfms: u64,
    /// PARA victim-refresh activations performed.
    pub(crate) para_victim_acts: u64,
    /// Row throttles (BlockHammer, the isolation quota) applied to the
    /// scheduler.
    pub throttles: u64,
    /// Worst observed deviation of an FR-RFM command from its deadline.
    pub(crate) fr_rfm_jitter_max: Span,
    /// Times [`MemoryController::service`] was invoked (scheduler wakes).
    pub service_calls: u64,
}

/// Phase of an in-flight ABO back-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AboPhase {
    /// Normal traffic window (`tABO_ACT`) running until `recover_at`.
    Window,
    /// Recovery: closing banks and issuing RFMs.
    Recover,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AboState {
    alert: Alert,
    recover_at: Time,
    rfms_left: u32,
    phase: AboPhase,
    /// End of the last recovery RFM's blocking window.
    last_rfm_end: Time,
}

/// PARA victim refresh in progress: activate the victim row, then close it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ParaJob {
    bank: BankId,
    victim: u32,
    activated: bool,
}

/// The per-channel memory controller.
///
/// # Examples
///
/// ```
/// use lh_defenses::DefenseConfig;
/// use lh_dram::{DeviceConfig, DramAddr, BankId, Geometry, Time};
/// use lh_memctrl::{AccessKind, CtrlConfig, MemRequest, MemoryController};
///
/// let mut dev_cfg = DeviceConfig::paper_default();
/// dev_cfg.geometry = Geometry::tiny();
/// let mut mc = MemoryController::new(
///     CtrlConfig::paper_default(),
///     dev_cfg,
///     DefenseConfig::prac(128),
///     1,
/// ).unwrap();
/// let req = MemRequest {
///     id: 1,
///     addr: DramAddr::new(BankId::new(0, 0, 0, 0), 3, 0),
///     kind: AccessKind::Read,
///     arrival: Time::ZERO,
///     source: 0,
/// };
/// mc.enqueue(req).unwrap();
/// let mut now = Time::ZERO;
/// while mc.take_completed().is_empty() {
///     now = mc.service(now);
/// }
/// ```
#[derive(Debug)]
pub struct MemoryController {
    cfg: CtrlConfig,
    device: DramDevice,
    defense: Box<dyn Defense>,
    /// Cached [`Defense::maintenance_period`] (it is constant per run).
    maint_period: Option<Span>,
    read_q: VecDeque<MemRequest>,
    write_q: VecDeque<MemRequest>,
    completed: Vec<Completion>,
    /// Per rank: next scheduled refresh instant.
    ref_due: Vec<Time>,
    /// Per rank: refreshes owed due to postponing.
    ref_owed: Vec<u32>,
    /// Per rank: refreshes committed and not yet issued.
    ref_pending: Vec<u32>,
    /// Per rank: end of the last RFM's blocking window (for spacing
    /// deferred refreshes away from fixed-rate RFMs).
    rfm_end: Vec<Time>,
    /// PRFM RFMs awaiting issue.
    rfm_queue: VecDeque<(u32, RfmScope)>,
    /// PARA and approximate-tracker victim refreshes awaiting issue.
    para_queue: VecDeque<ParaJob>,
    /// Row throttles (BlockHammer, the isolation quota): `(flat bank,
    /// row)` must not be activated before the stored instant.
    throttled: HashMap<(usize, u32), Time>,
    abo: Option<AboState>,
    draining: bool,
    /// Per flat bank: (row, consecutive column accesses served).
    streak: Vec<(u32, u32)>,
    stats: CtrlStats,
    /// Per-op jitter of every scheduled-maintenance take vs its
    /// deadline, buffered until the simulator drains it
    /// ([`MemoryController::drain_maintenance_jitter`]). `CtrlStats`
    /// only keeps the cumulative max; the full sample stream feeds the
    /// `sim.maintenance.slack` histogram.
    maint_jitter: Vec<Span>,
    /// Flight events (command issues, maintenance decisions) buffered
    /// until the simulator drains them
    /// ([`MemoryController::drain_flight`]). Empty unless flight
    /// recording is active.
    flight: EventBuffer,
    /// The scheduler's incrementally maintained state, built with the
    /// controller and in sync with it ever since. `service` moves it
    /// out for the call and back, so it is `None` only inside one.
    scratch: Option<Box<CtrlScratch>>,
}

/// `scan_queue` per-bank flag: a queued request hits the bank's open
/// row.
const BANK_HAS_HIT: u8 = 1;
/// `scan_queue` per-bank flag: a queued request conflicts with the
/// bank's open row.
const BANK_HAS_CONFLICT: u8 = 2;

/// What one scheduler step decided.
#[derive(Debug, PartialEq)]
enum Step {
    /// Issue this command now; `done_req` is the index of a request served
    /// by a column command.
    Issue(Command, Option<(QueueSel, usize)>),
    /// Internal state changed without a command; re-evaluate immediately.
    Again,
    /// Nothing issuable now; next interesting instant.
    Wait(Time),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueSel {
    Read,
    Write,
}

impl MemoryController {
    /// Builds a controller (and its DRAM device) for one channel.
    ///
    /// # Errors
    ///
    /// Propagates device construction errors (invalid timing/geometry).
    pub fn new(
        cfg: CtrlConfig,
        device_cfg: DeviceConfig,
        defense: DefenseConfig,
        seed: u64,
    ) -> Result<MemoryController, DramError> {
        MemoryController::with_mitigations(cfg, device_cfg, defense, &[], seed)
    }

    /// Builds a controller whose defense engine is wrapped in the given
    /// mitigation stack (innermost layer first). An empty stack is
    /// exactly [`MemoryController::new`]: the engine is the bare
    /// defense, bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates device construction errors (invalid timing/geometry).
    pub fn with_mitigations(
        cfg: CtrlConfig,
        mut device_cfg: DeviceConfig,
        defense: DefenseConfig,
        mitigations: &[MitigationConfig],
        seed: u64,
    ) -> Result<MemoryController, DramError> {
        device_cfg.prac = defense.device_prac();
        device_cfg.seed = seed;
        let device = DramDevice::new(device_cfg)?;
        let g = *device.geometry();
        let t = *device.timing();
        let ranks = g.ranks_per_channel() as usize;
        let engine = lh_mitigate::apply_mitigations(
            mitigations,
            &g,
            seed ^ 0x317_16a7e,
            build_defense(&defense, &g, seed ^ 0x5eed),
        );
        let maint_period = engine.maintenance_period();
        let mut mc = MemoryController {
            cfg,
            device,
            defense: engine,
            maint_period,
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            completed: Vec::new(),
            ref_due: (0..ranks)
                .map(|r| Time::ZERO + t.t_refi + t.t_refi * r as u64 / ranks as u64)
                .collect(),
            ref_owed: vec![0; ranks],
            ref_pending: vec![0; ranks],
            rfm_end: vec![Time::ZERO; ranks],
            rfm_queue: VecDeque::new(),
            para_queue: VecDeque::new(),
            throttled: HashMap::new(),
            abo: None,
            draining: false,
            streak: vec![(u32::MAX, 0); g.banks_per_channel() as usize],
            stats: CtrlStats::default(),
            maint_jitter: Vec::new(),
            flight: EventBuffer::new(),
            scratch: None,
        };
        mc.scratch = Some(Box::new(CtrlScratch::for_controller(&mc)));
        Ok(mc)
    }

    /// The DRAM device behind this controller.
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Mutable access to the device (tests, fault injection).
    pub fn device_mut(&mut self) -> &mut DramDevice {
        &mut self.device
    }

    /// The defense behind this controller.
    pub fn defense(&self) -> &dyn Defense {
        self.defense.as_ref()
    }

    /// The defense's counters (scheduling pressure, preventive actions).
    pub fn defense_stats(&self) -> DefenseStats {
        self.defense.stats()
    }

    /// Controller statistics.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Banks the demand stage of [`MemoryController::service`] has
    /// folded so far: a work count for the process-lifetime registry,
    /// not a statistic of the simulated system.
    pub fn banks_folded(&self) -> u64 {
        self.scratch.as_ref().map_or(0, |s| s.banks_folded)
    }

    /// Outstanding read-queue occupancy.
    #[cfg(test)]
    pub(crate) fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Accepts a request.
    ///
    /// # Errors
    ///
    /// Returns the request back if the corresponding queue is full; the
    /// caller must retry after progress (back-pressure).
    ///
    /// # Panics
    ///
    /// Panics if `req.arrival` is earlier than the arrival of the
    /// request at the tail of its queue. FR-FCFS's "oldest first" is
    /// queue order, so arrivals must be stamped in order (the simulator
    /// stamps the enqueue instant, retries included).
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let (q, cap) = match req.kind {
            AccessKind::Read => (&mut self.read_q, QUEUE_CAP),
            AccessKind::Write => (&mut self.write_q, QUEUE_CAP),
        };
        if q.len() >= cap {
            self.stats.rejections += 1;
            return Err(req);
        }
        if let Some(tail) = q.back() {
            assert!(
                req.arrival >= tail.arrival,
                "request {} arrives at {}, before its queue's tail at {}",
                req.id,
                req.arrival,
                tail.arrival
            );
        }
        q.push_back(req);
        match req.kind {
            AccessKind::Read => self.stats.reads_enqueued += 1,
            AccessKind::Write => self.stats.writes_enqueued += 1,
        }
        Ok(())
    }

    /// Drains completions produced so far.
    pub fn take_completed(&mut self) -> Vec<Completion> {
        core::mem::take(&mut self.completed)
    }

    /// Drains completions produced so far into `out`, keeping the
    /// internal buffer's capacity (the allocation-free variant of
    /// [`MemoryController::take_completed`] for per-wake callers).
    pub fn drain_completed_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completed);
    }

    /// Drains the per-op scheduled-maintenance jitter samples (how far
    /// past its deadline each maintenance take landed; zero for on-time
    /// takes) buffered since the last drain, in take order. The buffer
    /// keeps its capacity, so per-wake draining is allocation-free.
    pub fn drain_maintenance_jitter(&mut self, mut f: impl FnMut(Span)) {
        for jitter in self.maint_jitter.drain(..) {
            f(jitter);
        }
    }

    /// Drains buffered flight events — the controller's own command
    /// issues and maintenance decisions, then the defense stack's
    /// mitigation interventions — into `sink`, carrying ring-drop
    /// accounting along. A no-op when recording has been off.
    pub fn drain_flight(&mut self, sink: &mut EventBuffer) {
        sink.absorb(&mut self.flight);
        self.defense.drain_flight(sink);
    }

    /// Issues every command legal at `now`; returns the next instant at
    /// which `service` should run again (always strictly after `now`).
    ///
    /// The returned wake is the exact next decision point — the earliest
    /// future instant at which a command becomes issuable, a maintenance
    /// deadline approaches, or a deferred decision re-evaluates. The
    /// scheduler never polls: a computed wake at or before `now` would
    /// mean some deferral failed to register its flip time, and asserts.
    pub fn service(&mut self, now: Time) -> Time {
        let mut scratch = self.scratch.take().expect("scheduler state present");
        let wake = self.service_batched(now, &mut scratch);
        self.scratch = Some(scratch);
        wake
    }

    fn update_modes(&mut self, now: Time) {
        // Expired row throttles no longer constrain scheduling.
        if !self.throttled.is_empty() {
            self.throttled.retain(|_, until| *until > now);
        }
        // Write-drain hysteresis.
        if self.write_q.len() >= WQ_DRAIN_HIGH {
            self.draining = true;
        } else if self.write_q.len() <= WQ_DRAIN_LOW {
            self.draining = false;
        }
        // Refresh postponing / commitment per rank. Commitment is deferred
        // while an ABO recovery is in flight: REF could not issue anyway
        // (the alert bank is busy), and committing would needlessly quiesce
        // the rank for unrelated banks.
        let ranks = self.ref_due.len();
        for r in 0..ranks {
            if self.abo.is_some() {
                break;
            }
            if now >= self.ref_due[r] && self.ref_pending[r] == 0 {
                // Footnote 3 of the paper: the controller always postpones
                // a refresh by one interval (hoping for idleness) and then
                // issues two REFs back-to-back.
                if self.cfg.refresh_postpone && self.ref_owed[r] == 0 {
                    self.ref_owed[r] = 1;
                    self.ref_due[r] = self.ref_due[r] + self.device.timing().t_refi;
                    self.stats.refreshes_postponed += 1;
                } else {
                    // Do not stack the refresh with a fixed-rate RFM on
                    // either side: REF must complete comfortably before
                    // the next RFM deadline *and* must not start at an
                    // RFM's tail — a contiguous RFM+REF block would be a
                    // back-off-sized latency spike, the one class FR-RFM
                    // must never emit. Both schedules are controller-owned
                    // and traffic-independent, so this deferral leaks
                    // nothing.
                    let t = self.device.timing();
                    let settle = FRRFM_GUARD * 2;
                    let clear_of_rfm = match self.defense.next_maintenance(r as u32) {
                        Some(m) => {
                            m.due > now + t.t_rfc * 2 + t.t_rfm + t.t_rp
                                && now >= self.rfm_end[r] + settle
                        }
                        None => true,
                    };
                    // Deferral is time-bounded (half a tREFI past the due
                    // point): with very dense RFM schedules (extreme N_RH)
                    // no gap is ever "clear", and refresh must still
                    // happen.
                    if clear_of_rfm || now >= self.ref_due[r] + t.t_refi / 2 {
                        self.ref_pending[r] = 1 + self.ref_owed[r];
                        self.ref_owed[r] = 0;
                        self.ref_due[r] = self.ref_due[r] + self.device.timing().t_refi;
                    }
                }
            }
        }
        // ABO phase transition.
        if let Some(abo) = &mut self.abo {
            if abo.phase == AboPhase::Window && now >= abo.recover_at {
                abo.phase = AboPhase::Recover;
            }
        }
    }

    /// Whether the ABO state machine stalls all normal traffic (channel
    /// scope recovery) right now.
    fn abo_channel_stall(&self) -> bool {
        matches!(
            (&self.abo, self.device.prac_config().map(|p| p.scope)),
            (
                Some(AboState {
                    phase: AboPhase::Recover,
                    ..
                }),
                Some(AlertScope::Channel)
            )
        )
    }

    /// Flat indices of banks blocked for new row/column commands.
    fn blocked_banks(&self) -> Vec<usize> {
        let g = self.device.geometry();
        let mut blocked = Vec::new();
        // Front PRFM RFM quiesces its target banks.
        if let Some(&(rank, scope)) = self.rfm_queue.front() {
            blocked.extend(self.device.rfm_banks(rank, scope));
        }
        // Bank-scope ABO recovery quiesces the alert bank.
        if let Some(abo) = &self.abo {
            if abo.phase == AboPhase::Recover
                && self.device.prac_config().map(|p| p.scope) == Some(AlertScope::Bank)
            {
                blocked.push(g.flat_bank(abo.alert.bank));
            }
        }
        // PARA front job owns its bank.
        if let Some(job) = self.para_queue.front() {
            blocked.push(g.flat_bank(job.bank));
        }
        blocked
    }

    /// Ranks quiesced for new row/column commands, with the reason's
    /// deadline (refresh commitment or FR-RFM window).
    fn rank_quiesced(&self, rank: u32, now: Time) -> bool {
        if self.ref_pending[rank as usize] > 0 {
            return true;
        }
        if let Some(deadline) = self.defense.next_maintenance(rank).map(|m| m.due) {
            if now + FRRFM_GUARD >= deadline {
                return true;
            }
        }
        false
    }

    /// The scheduler's one primitive: issue `cmd` now if it is legal
    /// now, otherwise fold its exact future legal instant into `wake`.
    fn issue_or_wake(&self, cmd: Command, now: Time, wake: &mut Time) -> Option<Step> {
        let at = self.device.earliest_legal(&cmd, now);
        if at <= now {
            return Some(Step::Issue(cmd, None));
        }
        *wake = (*wake).min(at);
        None
    }

    /// FR-FCFS selection over one queue, entry by entry: the oracle of
    /// the candidate table. Returns (wake, chosen step); beside an issue
    /// the wake is the earliest throttle expiry it passed over.
    fn scan_queue(&self, sel: QueueSel, now: Time) -> (Time, Option<Step>) {
        let q = match sel {
            QueueSel::Read => &self.read_q,
            QueueSel::Write => &self.write_q,
        };
        let g = self.device.geometry();
        let blocked = self.blocked_banks();
        let mut wake = Time::MAX;

        // Per-bank pending hit/conflict summary for cap & precharge guards.
        let mut marks = vec![0u8; g.banks_per_channel() as usize];
        for req in q.iter() {
            let flat = g.flat_bank(req.addr.bank);
            match self.device.open_row(req.addr.bank) {
                Some(r) if r == req.addr.row => marks[flat] |= BANK_HAS_HIT,
                Some(_) => marks[flat] |= BANK_HAS_CONFLICT,
                None => {}
            }
        }

        // Candidate = (is_not_hit, earliest, arrival, idx, cmd).
        let mut best: Option<(bool, Time, Time, usize, Command)> = None;
        for (idx, req) in q.iter().enumerate() {
            let bank = req.addr.bank;
            let flat = g.flat_bank(bank);
            if blocked.contains(&flat) || self.rank_quiesced(bank.rank, now) {
                continue;
            }
            // A throttled row cannot be (re)activated yet — the
            // observable delay of this defense class. Row hits to a
            // still-open throttled row are allowed (the throttle gates
            // ACT, not column commands).
            if let Some(&until) = self.throttled.get(&(flat, req.addr.row)) {
                if until > now && self.device.open_row(bank) != Some(req.addr.row) {
                    wake = wake.min(until);
                    continue;
                }
            }
            let open = self.device.open_row(bank);
            let (cmd, is_hit) = match open {
                Some(r) if r == req.addr.row => {
                    let c = match req.kind {
                        AccessKind::Read => Command::Read {
                            bank,
                            col: req.addr.col,
                        },
                        AccessKind::Write => Command::Write {
                            bank,
                            col: req.addr.col,
                        },
                    };
                    (c, true)
                }
                Some(_) => {
                    // Respect open rows that still have uncapped hits.
                    let (srow, scount) = self.streak[flat];
                    let capped = srow == open.unwrap() && scount >= self.cfg.col_cap;
                    if marks[flat] & BANK_HAS_HIT != 0 && !capped {
                        continue;
                    }
                    (Command::Precharge { bank }, false)
                }
                None => (
                    Command::Activate {
                        bank,
                        row: req.addr.row,
                    },
                    false,
                ),
            };
            if is_hit {
                // Column cap: once `col_cap` consecutive hits were served
                // while a conflicting request waits, stop preferring hits.
                let (srow, scount) = self.streak[flat];
                if srow == req.addr.row
                    && scount >= self.cfg.col_cap
                    && marks[flat] & BANK_HAS_CONFLICT != 0
                {
                    continue;
                }
            }
            let at = self.device.earliest_legal(&cmd, now);
            let key = (!is_hit, at, req.arrival, idx, cmd);
            let better = match &best {
                None => true,
                Some(b) => {
                    // Issueable-now candidates first (hit-priority, then
                    // age); otherwise the earliest future candidate.
                    let key_now = key.1 <= now;
                    let best_now = b.1 <= now;
                    match (key_now, best_now) {
                        (true, false) => true,
                        (false, true) => false,
                        (true, true) => (key.0, key.2) < (b.0, b.2),
                        (false, false) => key.1 < b.1,
                    }
                }
            };
            if better {
                best = Some(key);
            }
        }
        match best {
            Some((_, at, _, idx, cmd)) if at <= now => {
                let served = cmd.is_column().then_some((sel, idx));
                (wake, Some(Step::Issue(cmd, served)))
            }
            Some((_, at, _, _, _)) => {
                wake = wake.min(at);
                (wake, None)
            }
            None => (wake, None),
        }
    }

    /// Issues `cmd` at `now`, updating all controller state and the
    /// scheduler's `s`.
    fn issue(
        &mut self,
        cmd: Command,
        now: Time,
        served: Option<(QueueSel, usize)>,
        s: &mut CtrlScratch,
    ) {
        s.note_issue(&cmd, served.map(|(sel, _)| sel), &self.device);
        let outcome = self
            .device
            .issue(&cmd, now)
            .unwrap_or_else(|e| panic!("scheduler issued illegal command: {e}"));

        let record = flight::active();
        if record {
            let t_ns = now.as_ps() / 1_000;
            self.flight.push(match &cmd {
                Command::Activate { bank, row } => FlightEvent::Cmd {
                    t_ns,
                    cmd: "act",
                    rank: bank.rank,
                    bank_group: bank.bank_group,
                    bank: bank.bank,
                    row: Some(u64::from(*row)),
                },
                Command::Precharge { bank } => FlightEvent::Cmd {
                    t_ns,
                    cmd: "pre",
                    rank: bank.rank,
                    bank_group: bank.bank_group,
                    bank: bank.bank,
                    row: None,
                },
                Command::PrechargeAll { rank, .. } => FlightEvent::Cmd {
                    t_ns,
                    cmd: "prea",
                    rank: *rank,
                    bank_group: 0,
                    bank: 0,
                    row: None,
                },
                Command::Read { bank, .. } => FlightEvent::Cmd {
                    t_ns,
                    cmd: "rd",
                    rank: bank.rank,
                    bank_group: bank.bank_group,
                    bank: bank.bank,
                    row: None,
                },
                Command::Write { bank, .. } => FlightEvent::Cmd {
                    t_ns,
                    cmd: "wr",
                    rank: bank.rank,
                    bank_group: bank.bank_group,
                    bank: bank.bank,
                    row: None,
                },
                Command::Refresh { rank, .. } => FlightEvent::Cmd {
                    t_ns,
                    cmd: "ref",
                    rank: *rank,
                    bank_group: 0,
                    bank: 0,
                    row: None,
                },
                Command::Rfm { rank, .. } => FlightEvent::Cmd {
                    t_ns,
                    cmd: "rfm",
                    rank: *rank,
                    bank_group: 0,
                    bank: 0,
                    row: None,
                },
            });
        }

        match cmd {
            Command::Activate { bank, row } => {
                self.stats.activates += 1;
                // PARA victim activation bookkeeping.
                if let Some(job) = self.para_queue.front_mut() {
                    if job.bank == bank && job.victim == row && !job.activated {
                        job.activated = true;
                        self.stats.para_victim_acts += 1;
                        if record {
                            self.flight.push(FlightEvent::Maint {
                                t_ns: now.as_ps() / 1_000,
                                action: "para",
                                cause: "reactive",
                                rank: bank.rank,
                                bank: Some(bank.bank),
                                slack_ns: 0,
                            });
                        }
                    }
                }
                // The borrowed action slice lives in `self.defense`; the
                // loop body touches only the controller's other fields.
                for &action in self.defense.on_activate(bank, row, now) {
                    match action {
                        DefenseAction::IssueRfm { rank, scope } => {
                            self.rfm_queue.push_back((rank, scope));
                        }
                        DefenseAction::ThrottleRow { bank, row, until } => {
                            let flat = self.device.geometry().flat_bank(bank);
                            self.throttled.insert((flat, row), until);
                            s.note_throttle(flat);
                            self.stats.throttles += 1;
                        }
                        DefenseAction::RefreshNeighbors { bank, row } => {
                            let radius = self.device.config().blast_radius;
                            let rows = self.device.geometry().rows_per_bank();
                            for d in 1..=radius {
                                if let Some(v) = row.checked_sub(d) {
                                    self.para_queue.push_back(ParaJob {
                                        bank,
                                        victim: v,
                                        activated: false,
                                    });
                                }
                                if row + d < rows {
                                    self.para_queue.push_back(ParaJob {
                                        bank,
                                        victim: row + d,
                                        activated: false,
                                    });
                                }
                            }
                        }
                    }
                }
            }
            Command::Refresh { rank, .. } => {
                self.ref_pending[rank as usize] -= 1;
                self.stats.refreshes += 1;
                if record {
                    self.flight.push(FlightEvent::Maint {
                        t_ns: now.as_ps() / 1_000,
                        action: "refresh",
                        cause: "scheduled",
                        rank,
                        bank: None,
                        slack_ns: 0,
                    });
                }
                // MINT: the sampled aggressors' victims are refreshed
                // inside this REF's blocking window — no extra latency.
                for (bank, row) in self.defense.on_periodic_refresh(rank) {
                    self.device.hidden_preventive_refresh(bank, row);
                }
            }
            Command::Rfm { rank, scope, .. } => {
                self.stats.rfms += 1;
                self.rfm_end[rank as usize] = now + self.device.timing().t_rfm;
                match &mut self.abo {
                    Some(abo) if abo.phase == AboPhase::Recover && abo.rfms_left > 0 => {
                        abo.rfms_left -= 1;
                        abo.last_rfm_end = now + self.device.timing().t_rfm;
                        if record {
                            self.flight.push(FlightEvent::Maint {
                                t_ns: now.as_ps() / 1_000,
                                action: "rfm",
                                cause: "abo",
                                rank,
                                bank: None,
                                slack_ns: 0,
                            });
                        }
                    }
                    _ => {
                        // Reactive (PRFM) or scheduled (FR-RFM) command.
                        if self.rfm_queue.front() == Some(&(rank, scope)) {
                            self.rfm_queue.pop_front();
                            if record {
                                self.flight.push(FlightEvent::Maint {
                                    t_ns: now.as_ps() / 1_000,
                                    action: "rfm",
                                    cause: "reactive",
                                    rank,
                                    bank: None,
                                    slack_ns: 0,
                                });
                            }
                        } else if let Some(m) = self.defense.take_maintenance(rank, now) {
                            // Scheduled maintenance: consume it from the
                            // defense (advancing its schedule) and record
                            // the jitter vs its deadline.
                            debug_assert_eq!(m.scope, scope, "maintenance scope mismatch");
                            let jitter = now.saturating_since(m.due);
                            self.stats.fr_rfm_jitter_max = self.stats.fr_rfm_jitter_max.max(jitter);
                            self.maint_jitter.push(jitter);
                            if record {
                                self.flight.push(FlightEvent::Maint {
                                    t_ns: now.as_ps() / 1_000,
                                    action: "rfm",
                                    cause: "scheduled",
                                    rank,
                                    bank: None,
                                    slack_ns: jitter.as_ps() / 1_000,
                                });
                            }
                        }
                    }
                }
            }
            Command::Read { bank, .. } | Command::Write { bank, .. } => {
                let flat = self.device.geometry().flat_bank(bank);
                let row = self
                    .device
                    .open_row(bank)
                    .expect("column command on open row");
                let (srow, scount) = self.streak[flat];
                self.streak[flat] = if srow == row {
                    (row, scount + 1)
                } else {
                    (row, 1)
                };
                let (sel, idx) = served.expect("column command must serve a request");
                let q = match sel {
                    QueueSel::Read => &mut self.read_q,
                    QueueSel::Write => &mut self.write_q,
                };
                let req = q.remove(idx).expect("served request present");
                let finished = outcome
                    .data_ready
                    .expect("column command returns data time");
                match req.kind {
                    AccessKind::Read => self.stats.reads_served += 1,
                    AccessKind::Write => self.stats.writes_served += 1,
                }
                self.completed.push(Completion {
                    id: req.id,
                    source: req.source,
                    kind: req.kind,
                    addr: req.addr,
                    arrival: req.arrival,
                    finished,
                });
            }
            Command::Precharge { bank } => {
                self.stats.precharges += 1;
                let flat = self.device.geometry().flat_bank(bank);
                self.streak[flat] = (u32::MAX, 0);
            }
            Command::PrechargeAll { rank, .. } => {
                self.stats.precharges += 1;
                let g = *self.device.geometry();
                for b in g.banks_in_channel(0).filter(|b| b.rank == rank) {
                    self.streak[g.flat_bank(b)] = (u32::MAX, 0);
                }
            }
        }

        // A fresh alert arms the ABO state machine.
        if let Some(alert) = outcome.alert {
            let t = self.device.timing();
            let rfms = self
                .device
                .prac_config()
                .map(|p| p.rfms_per_backoff)
                .unwrap_or(1);
            self.abo = Some(AboState {
                alert,
                recover_at: alert.asserted_at + t.t_abo_act,
                rfms_left: rfms,
                phase: AboPhase::Window,
                last_rfm_end: alert.asserted_at,
            });
        }
        debug_assert!(
            s.in_sync(&self.device),
            "open-row counts drifted at {cmd:?}"
        );
    }
}
