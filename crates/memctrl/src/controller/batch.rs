//! The controller's scheduler: sections 1–5 of the service step (ABO
//! back-off, committed refreshes, scheduled maintenance, reactive RFMs,
//! PARA) and an FR-FCFS demand stage, computed from incrementally
//! maintained state instead of a per-entry queue walk.
//!
//! [`MemoryController::service`] runs it against the controller's own
//! [`CtrlScratch`]:
//!
//! * per-rank open-row counts, so "does this rank hold an open row" is
//!   one array read instead of a bank scan;
//! * a **per-bank candidate table** per demand queue ([`BankTable`]): a
//!   per-bank FIFO of the queued entries, an active-bank bitset, and per
//!   bank one cached *representative* — the only entry of that bank that
//!   can win FR-FCFS. The demand stage is a fold over active,
//!   non-blocked, non-quiesced banks, never a walk over queue entries;
//! * a representative is recomputed only when its bank's epoch moves —
//!   on an arrival for the bank, a command that changes its open row or
//!   streak (ACT/PRE/RD/WR on it, PREab on its rank), or a row throttle
//!   on it — or when `now` reaches its *gate*, the earliest expiry of a
//!   throttle it passed over;
//! * no legality memo at all: a candidate's earliest-issue instant is
//!   folded per scan from the device's own bank and rank timing state
//!   (`DramDevice::bank_states` / `rank_states`, a handful of `max`es)
//!   against channel-global floors hoisted once per scan (`cmd_free`,
//!   column-to-column spacing, data-bus occupancy, `now`), so nothing
//!   cached can go stale when a command moves device timing;
//! * verdict carry-over: a Wait verdict stays exact until its recorded
//!   bound, an issue, or an arrival (the FastPath), and the sections
//!   that never read the demand queues keep their verdict across
//!   arrivals, servings and column issues (the section verdict).
//!
//! ## Why one representative per bank is exact
//!
//! Within one demand queue every entry has the same kind, ACT legality
//! is row-independent, RD/WR legality column-independent, and arrivals
//! are non-decreasing in queue order ([`MemoryController::enqueue`]
//! asserts it). So all of a bank's candidates share one command class
//! and one earliest-issue instant, and the scheduler's comparators
//! (issueable-now: row hits first, then age; otherwise earliest instant;
//! first in queue order on ties) reduce within a bank to "oldest first".
//! Which entries are candidates is the column-cap rule and the ACT
//! gate. An entry is *gated* while its row is throttled (BlockHammer,
//! the isolation quota) and is not the open row: it cannot stand for an
//! `ACT` or a `PRE`, but its throttle's expiry folds into the wake. With
//! a row open: the oldest hit unless the streak is capped and a
//! conflict waits (gated conflicts count), else `PRE` on behalf of the
//! oldest ungated conflict. With the bank closed: `ACT` for the oldest
//! ungated entry. A bank whose every eligible entry is gated has no
//! candidate. Across banks the fold takes the minimal
//! `(instant, not-a-hit, queue order)`, which is the per-entry scan's
//! winner when the instant is `now` and its wake otherwise.
//!
//! ## What checks it
//!
//! The per-entry `scan_queue` in `controller.rs` is the
//! `debug_assertions` oracle of every table scan, for every defense and
//! wrapper; no release path calls it. Every carried verdict — FastPath
//! wait, FastPath winner, reduced demand scan — is shadowed in debug
//! builds by a fresh full scan on the same scratch, with the carried
//! verdicts saved before and restored after, so a checked build takes
//! the same decisions as a release one.

use std::collections::VecDeque;

use lh_dram::{AlertScope, BankId, Command, DramDevice, Geometry, RfmScope, Time};

use super::{AboPhase, MemoryController, QueueSel, RowPolicy, Step, FRRFM_GUARD};
use crate::request::MemRequest;

/// Command class of a bank's representative. ACT timing is
/// row-independent and RD/WR timing column-independent
/// (`DramDevice::earliest_from_state`), so one instant per bank covers
/// every entry the representative stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Act,
    Pre,
    /// `RD` in the read queue's table, `WR` in the write queue's.
    Col,
}

/// One queued request as the table sees it.
#[derive(Debug, Clone, Copy)]
struct Ent {
    /// Position in the queue's arrival order (monotone per queue).
    seq: u64,
    row: u32,
    col: u32,
}

/// A bank's cached FR-FCFS representative.
#[derive(Debug, Clone, Copy)]
struct Rep {
    /// The bank's [`CtrlScratch::bank_epoch`] at computation.
    stamp: u64,
    /// Earliest `until` among the bank's gated entries (`Time::MAX` if
    /// none): the representative is stale once `now` reaches it.
    gate: Time,
    /// The bank's candidate, `None` while every eligible entry is gated.
    cand: Option<Cand>,
}

/// The one command that can win FR-FCFS for a bank.
#[derive(Debug, Clone, Copy)]
struct Cand {
    class: Class,
    cmd: Command,
    /// `seq` of the entry the command stands for: the cross-bank
    /// tie-break (queue order refines arrival order).
    seq: u64,
}

/// Per-bank candidate table of one demand queue.
#[derive(Debug)]
struct BankTable {
    /// Queue entries folded in so far. Queues only grow at the back
    /// between scans (enqueues and retries `push_back`), so catching up
    /// is a walk of the new tail; the sole removal is a served request,
    /// mirrored eagerly by [`CtrlScratch::note_issue`].
    synced: usize,
    next_seq: u64,
    /// Per flat bank: its queued entries, oldest first.
    fifo: Vec<Vec<Ent>>,
    /// Bitset of banks with a non-empty FIFO.
    active: Vec<u64>,
    /// Per flat bank: its cached representative, if ever computed.
    reps: Vec<Option<Rep>>,
}

impl BankTable {
    fn new(banks: usize) -> BankTable {
        BankTable {
            synced: 0,
            next_seq: 0,
            fifo: vec![Vec::new(); banks],
            active: vec![0; banks.div_ceil(64)],
            reps: vec![None; banks],
        }
    }
}

/// Adds `flat` to a bank bitset.
fn set_bit(mask: &mut [u64], flat: usize) {
    mask[flat / 64] |= 1 << (flat % 64);
}

/// Whether `flat` is in a bank bitset.
fn has_bit(mask: &[u64], flat: usize) -> bool {
    mask[flat / 64] >> (flat % 64) & 1 != 0
}

/// The scheduler's state: the candidate tables, the open-row counts and
/// the carried verdicts.
///
/// Every controller owns one, built with it and kept in sync by
/// observing every issued command. The type is public only so that
/// [`MemoryController::service_batched`] can be named from outside; a
/// scratch fed to a different controller, or one that missed commands
/// its controller issued through `service`, is out of sync (debug builds
/// assert).
#[doc(hidden)]
#[derive(Debug)]
pub struct CtrlScratch {
    /// Bumped at every scan entry; stamps invalidate the per-wake
    /// `rank_quiesced` memo (it is `now`-dependent).
    epoch: u64,
    /// Commands issued so far: the state-change stamp of the carried
    /// verdicts.
    issued: u64,
    /// Column commands among them, for the section verdict's
    /// only-column-issues test ([`CtrlScratch::sec_live`]).
    col_issued: u64,
    /// Per flat bank: bumped by everything its representatives depend
    /// on but time — an arrival queued for it, every command that moves
    /// its open row or streak (ACT/PRE/RD/WR on it, PREab on its rank),
    /// and every row throttle on it.
    bank_epoch: Vec<u64>,
    /// Per flat bank: its coordinates.
    banks: Vec<BankId>,
    /// Per rank: number of banks holding an open row.
    rank_open: Vec<u32>,
    /// Per rank: memoized `rank_quiesced` verdict.
    q_stamp: Vec<u64>,
    q_val: Vec<bool>,
    /// Candidate tables of `read_q` / `write_q` (indexed by
    /// [`QueueSel`] as 0 / 1).
    tables: [BankTable; 2],
    /// Bitset of banks blocked for new row/column commands in the
    /// current scan.
    blocked: Vec<u64>,
    /// Cached [`DramDevice::rfm_banks`] of the RFM at the front of the
    /// controller's reactive queue, as a bank bitset shared by section 4
    /// and the scan's blocked test.
    rfm_key: Option<(u32, RfmScope)>,
    rfm_mask: Vec<u64>,
    /// The carried Wait verdict (the FastPath).
    fp: FastPath,
    /// The carried verdict of sections 1–5.
    sec: Section,
    /// Set while a debug shadow scans. Its table verdicts skip the
    /// per-entry oracle, which checked every scan a carried verdict
    /// came from.
    #[cfg(debug_assertions)]
    shadow: bool,
}

/// FastPath: a Wait-returning scan proves its verdict stays exact —
/// same branch decisions, same folded wakes — until the earliest instant
/// any time-triggered condition could flip (`bound`), as long as no
/// command issues (`stamp`) and no request arrives (`rq` / `wq`). Within
/// that window a re-service at `now < wake` answers from cache without
/// scanning, and a service at exactly `wake` can issue the precomputed
/// demand winner (`winner`) without re-discovering it.
#[derive(Debug, Clone, Copy, Default)]
struct FastPath {
    valid: bool,
    wake: Time,
    bound: Time,
    stamp: u64,
    rq: u32,
    wq: u32,
    winner: Option<(QueueSel, Command)>,
    /// Per-scan accumulator: min over the flip instants of every
    /// `now`-dependent branch condition the scan evaluated (refresh
    /// commit triggers, FR-RFM stacking guards, quiesce verdicts,
    /// throttle gates).
    bound_acc: Time,
    /// Per-scan demand-winner precompute: the table scan's minimal
    /// candidate when it lies in the future — exactly the candidate the
    /// scheduler picks once `now` reaches its instant.
    cand: Option<(Time, Command)>,
}

/// Section verdict: sections 1–5 of `next_step_b` never read the demand
/// queues, so a full scan's section outcome — the branch decisions taken
/// and the wakes folded before the demand stage — remains exact across
/// request arrivals and servings. A later service inside the window
/// re-runs only the demand stage against the carried section wake
/// ([`MemoryController::next_step_demand_b`]). Validity: `bound` (same
/// flip-instant bound as the FastPath), `now < wake` (sections take no
/// action strictly before their own wake), the precondition flags
/// re-checked directly, and the issue stamps: with `pure` (no legality
/// instants folded into the section wake) the verdict even survives
/// column-command issues, which touch no row state, no
/// refresh/maintenance state, and can never alert (alerts arise only in
/// `close_row`).
#[derive(Debug, Clone, Copy, Default)]
struct Section {
    valid: bool,
    wake: Time,
    pure: bool,
    stamp: u64,
    /// `col_issued` at `stamp`.
    col: u64,
    bound: Time,
}

impl CtrlScratch {
    /// Builds a scratch synchronized to `mc`'s current device state.
    #[doc(hidden)]
    pub fn for_controller(mc: &MemoryController) -> CtrlScratch {
        let g = *mc.device.geometry();
        let banks = g.banks_per_channel() as usize;
        let ranks = g.ranks_per_channel() as usize;
        let mut s = CtrlScratch {
            epoch: 1,
            issued: 0,
            col_issued: 0,
            bank_epoch: vec![1; banks],
            banks: g.banks_in_channel(0).collect(),
            rank_open: CtrlScratch::count_open(&mc.device),
            q_stamp: vec![0; ranks],
            q_val: vec![false; ranks],
            tables: [BankTable::new(banks), BankTable::new(banks)],
            blocked: vec![0; banks.div_ceil(64)],
            rfm_key: None,
            rfm_mask: vec![0; banks.div_ceil(64)],
            fp: FastPath::default(),
            sec: Section::default(),
            #[cfg(debug_assertions)]
            shadow: false,
        };
        s.sync_queue(QueueSel::Read, &mc.read_q, &g);
        s.sync_queue(QueueSel::Write, &mc.write_q, &g);
        s
    }

    /// Per rank: how many of its banks hold an open row on `device`.
    fn count_open(device: &DramDevice) -> Vec<u32> {
        let per_rank = device.geometry().banks_per_rank() as usize;
        device
            .bank_states()
            .chunks(per_rank)
            .map(|rank| rank.iter().filter(|b| b.open_row().is_some()).count() as u32)
            .collect()
    }

    /// Whether the open-row counts match the device's actual row state.
    pub(super) fn in_sync(&self, device: &DramDevice) -> bool {
        self.rank_open == CtrlScratch::count_open(device)
    }

    /// Folds a command about to issue on `device` into the open-row
    /// counts, the epochs and — for a column command, which serves the
    /// oldest hit of its bank — the candidate table of the `served`
    /// queue. Only ACT/PRE/PREab move row state; REF/RFM blocking
    /// windows and column commands do not (`DramDevice::issue`).
    pub(super) fn note_issue(
        &mut self,
        cmd: &Command,
        served: Option<QueueSel>,
        device: &DramDevice,
    ) {
        let g = device.geometry();
        let states = device.bank_states();
        self.issued += 1;
        match *cmd {
            Command::Activate { bank, .. } => {
                self.rank_open[bank.rank as usize] += 1;
                self.bank_epoch[g.flat_bank(bank)] += 1;
            }
            Command::Precharge { bank } => {
                let flat = g.flat_bank(bank);
                if states[flat].open_row().is_some() {
                    self.rank_open[bank.rank as usize] -= 1;
                }
                self.bank_epoch[flat] += 1;
            }
            Command::Read { bank, col } | Command::Write { bank, col } => {
                let flat = g.flat_bank(bank);
                self.col_issued += 1;
                self.bank_epoch[flat] += 1;
                let sel = served.expect("column command must serve a request");
                let open = states[flat].open_row();
                let t = &mut self.tables[CtrlScratch::qi(sel)];
                let fifo = &mut t.fifo[flat];
                let pos = fifo
                    .iter()
                    .position(|e| Some(e.row) == open)
                    .expect("served request is its bank's oldest hit");
                debug_assert_eq!(fifo[pos].col, col, "served entry drifted");
                fifo.remove(pos);
                if fifo.is_empty() {
                    t.active[flat / 64] &= !(1 << (flat % 64));
                }
                t.synced -= 1;
            }
            Command::PrechargeAll { rank, .. } => {
                let per_rank = g.banks_per_rank() as usize;
                let base = rank as usize * per_rank;
                for epoch in &mut self.bank_epoch[base..base + per_rank] {
                    *epoch += 1;
                }
                self.rank_open[rank as usize] = 0;
            }
            Command::Refresh { .. } | Command::Rfm { .. } => {}
        }
    }

    /// Marks the representatives of bank `flat` stale: one of its rows
    /// was just throttled.
    pub(super) fn note_throttle(&mut self, flat: usize) {
        self.bank_epoch[flat] += 1;
    }

    /// Queue index for the per-queue tables.
    fn qi(sel: QueueSel) -> usize {
        match sel {
            QueueSel::Read => 0,
            QueueSel::Write => 1,
        }
    }

    /// Folds queue entries appended since the last scan into the
    /// queue's table — each request pays `flat_bank` once per lifetime
    /// instead of once per wake — and marks their banks' representatives
    /// stale.
    fn sync_queue(&mut self, sel: QueueSel, q: &VecDeque<MemRequest>, g: &Geometry) {
        let t = &mut self.tables[CtrlScratch::qi(sel)];
        debug_assert!(t.synced <= q.len(), "candidate table ahead of queue");
        for req in q.range(t.synced..) {
            let flat = g.flat_bank(req.addr.bank);
            t.fifo[flat].push(Ent {
                seq: t.next_seq,
                row: req.addr.row,
                col: req.addr.col,
            });
            t.next_seq += 1;
            set_bit(&mut t.active, flat);
            self.bank_epoch[flat] += 1;
        }
        t.synced = q.len();
    }

    /// Refreshes the cached bank bitset for the RFM at the front of the
    /// reactive queue, if it changed since the last scan.
    fn sync_rfm(&mut self, device: &DramDevice, rank: u32, scope: RfmScope) {
        if self.rfm_key != Some((rank, scope)) {
            self.rfm_key = Some((rank, scope));
            self.rfm_mask.fill(0);
            for flat in device.rfm_banks(rank, scope) {
                set_bit(&mut self.rfm_mask, flat);
            }
        }
    }

    /// Rebuilds the bitset of banks blocked for new row/column commands
    /// (`MemoryController::blocked_banks` as a bitset).
    fn sync_blocked(&mut self, mc: &MemoryController) {
        self.blocked.fill(0);
        if let Some(&(rank, scope)) = mc.rfm_queue.front() {
            self.sync_rfm(&mc.device, rank, scope);
            self.blocked.copy_from_slice(&self.rfm_mask);
        }
        let g = mc.device.geometry();
        let mut block = |bank: BankId| set_bit(&mut self.blocked, g.flat_bank(bank));
        if let Some(abo) = &mc.abo {
            if abo.phase == AboPhase::Recover
                && mc.device.prac_config().map(|p| p.scope) == Some(AlertScope::Bank)
            {
                block(abo.alert.bank);
            }
        }
        if let Some(job) = mc.para_queue.front() {
            block(job.bank);
        }
    }

    /// Whether the FastPath verdict still binds `mc` at `now`.
    fn fp_live(&self, mc: &MemoryController, now: Time) -> bool {
        self.fp.valid
            && now < self.fp.bound
            && self.fp.stamp == self.issued
            && mc.read_q.len() as u32 == self.fp.rq
            && mc.write_q.len() as u32 == self.fp.wq
    }

    /// Whether the carried section verdict still binds `mc` at `now`,
    /// allowing the demand-only reduced scan. The sections' queue
    /// preconditions are re-checked directly (cheap and future-proof);
    /// everything else moves only through issued commands, covered by
    /// the stamp test: unchanged stamp, or — for a pure verdict — only
    /// column issues since the verdict was recorded. Row throttles are
    /// the demand stage's own business: the sections never read them.
    fn sec_live(&self, mc: &MemoryController, now: Time) -> bool {
        if !self.sec.valid || now >= self.sec.bound || now >= self.sec.wake {
            return false;
        }
        if mc.abo.is_some() || !mc.rfm_queue.is_empty() || !mc.para_queue.is_empty() {
            return false;
        }
        let issued = self.issued - self.sec.stamp;
        issued == 0 || (self.sec.pure && issued == self.col_issued - self.sec.col)
    }

    /// Memoized `rank_quiesced` for the current wake. Inlines
    /// `MemoryController::rank_quiesced` so a not-quiesced verdict can
    /// record the instant it would flip (`deadline − FRRFM_GUARD`) into
    /// the FastPath bound; a quiesced verdict is monotone under an
    /// unchanged issue stamp and needs no bound.
    fn quiesced(&mut self, mc: &MemoryController, rank: u32, now: Time) -> bool {
        let r = rank as usize;
        if self.q_stamp[r] != self.epoch {
            self.q_stamp[r] = self.epoch;
            let mut v = mc.ref_pending[r] > 0;
            if !v {
                if let Some(d) = mc.defense.next_maintenance(rank).map(|m| m.due) {
                    if now + FRRFM_GUARD >= d {
                        v = true;
                    } else {
                        self.fp.bound_acc = self.fp.bound_acc.min(d - FRRFM_GUARD);
                    }
                }
            }
            debug_assert_eq!(v, mc.rank_quiesced(rank, now), "quiesce memo drifted");
            self.q_val[r] = v;
        }
        self.q_val[r]
    }

    /// Arms the FastPath on a Wait verdict at `wake` and restamps the
    /// section verdict alongside it. The demand winner is cacheable only
    /// when it strictly precedes every section wake and every flip: on a
    /// tie the sections act first at the shared instant.
    fn arm(&mut self, mc: &MemoryController, sel: Option<QueueSel>, wake: Time) {
        self.fp.valid = true;
        self.fp.wake = wake;
        self.fp.bound = self.fp.bound_acc;
        self.fp.stamp = self.issued;
        self.fp.rq = mc.read_q.len() as u32;
        self.fp.wq = mc.write_q.len() as u32;
        self.fp.winner = match (sel, self.fp.cand) {
            (Some(sel), Some((at, cmd)))
                if at == wake && at < self.sec.wake && at < self.fp.bound =>
            {
                Some((sel, cmd))
            }
            _ => None,
        };
        self.sec.stamp = self.issued;
        self.sec.col = self.col_issued;
        self.sec.bound = self.fp.bound;
    }

    /// The representative of active bank `flat` in queue `k`, recomputed
    /// if the bank's entries, open row, streak or throttles moved since
    /// it was cached (all behind [`CtrlScratch::bank_epoch`]) or a
    /// throttle it passed over expired (`gate`).
    fn rep(&mut self, mc: &MemoryController, k: usize, flat: usize, now: Time) -> Rep {
        match self.tables[k].reps[flat] {
            Some(cached) if cached.stamp == self.bank_epoch[flat] && now < cached.gate => {
                return cached
            }
            _ => {}
        }
        let bank = self.banks[flat];
        let fifo = &self.tables[k].fifo[flat];
        let open = mc.device.bank_states()[flat].open_row();
        // One pass: the oldest hit, whether a conflict waits, and the ACT
        // gate. An entry whose row is throttled and is not the open row
        // (the throttle gates ACT, not column commands) stands for no ACT
        // or PRE until the throttle expires; `free` is the oldest entry
        // that can.
        let (mut hit, mut waits, mut free, mut gate) = (None, false, None, Time::MAX);
        for e in fifo {
            if Some(e.row) == open {
                hit = hit.or(Some(e));
                continue;
            }
            waits = true;
            match mc.throttled.get(&(flat, e.row)) {
                Some(&until) if until > now => gate = gate.min(until),
                _ => free = free.or(Some(e)),
            }
        }
        let (srow, scount) = mc.streak[flat];
        let capped = Some(srow) == open && scount >= mc.cfg.col_cap;
        let cand = match (open, hit) {
            // Column cap: once `col_cap` consecutive hits were served
            // while a conflicting request waits, stop preferring hits.
            (Some(_), Some(h)) if !waits || !capped => {
                let col = h.col;
                let cmd = if k == 0 {
                    Command::Read { bank, col }
                } else {
                    Command::Write { bank, col }
                };
                Some(Cand {
                    class: Class::Col,
                    cmd,
                    seq: h.seq,
                })
            }
            (Some(_), _) => free.map(|c| Cand {
                class: Class::Pre,
                cmd: Command::Precharge { bank },
                seq: c.seq,
            }),
            (None, _) => free.map(|e| Cand {
                class: Class::Act,
                cmd: Command::Activate { bank, row: e.row },
                seq: e.seq,
            }),
        };
        let rep = Rep {
            stamp: self.bank_epoch[flat],
            gate,
            cand,
        };
        self.tables[k].reps[flat] = Some(rep);
        rep
    }
}

/// What [`MemoryController::demand_verdicts`] reports per scan: the
/// demand wake and the issued `(command, served queue index)`, if any.
type DemandVerdict = (Time, Option<(Command, Option<usize>)>);

impl MemoryController {
    /// [`MemoryController::service`] against a caller-held `scratch`
    /// instead of the controller's own. `scratch` must have been built
    /// by [`CtrlScratch::for_controller`] on this controller and have
    /// seen every command it issued since, so this does not mix with
    /// `service` on one controller. Public only for the benchmark's
    /// layer driver, which names it.
    #[doc(hidden)]
    pub fn service_batched(&mut self, now: Time, scratch: &mut CtrlScratch) -> Time {
        debug_assert!(scratch.in_sync(&self.device), "open-row counts drifted");
        self.stats.service_calls += 1;
        if scratch.fp_live(self, now) {
            if now < scratch.fp.wake {
                // A spurious kick inside the proven-quiet window: the
                // full scan would re-derive exactly the cached wake.
                #[cfg(debug_assertions)]
                {
                    self.update_modes(now);
                    match self.full_scan(now, scratch) {
                        Step::Wait(w) if w == scratch.fp.wake => {}
                        other => panic!(
                            "FastPath wait {} diverged from scan {other:?}",
                            scratch.fp.wake
                        ),
                    }
                }
                return scratch.fp.wake;
            }
            if now == scratch.fp.wake {
                if let Some((sel, cmd)) = scratch.fp.winner {
                    // The wake landed on the precomputed demand winner:
                    // issue it without re-discovering it, then fall into
                    // the normal loop for the post-issue scan.
                    let served = self.served_by(sel, &cmd);
                    #[cfg(debug_assertions)]
                    {
                        self.update_modes(now);
                        match self.full_scan(now, scratch) {
                            Step::Issue(c, s) if c == cmd && s == served => {}
                            other => panic!("FastPath winner {cmd:?} diverged from scan {other:?}"),
                        }
                    }
                    self.issue(cmd, now, served, scratch);
                }
            }
        }
        loop {
            self.update_modes(now);
            let step = if scratch.sec_live(self, now) {
                self.next_step_demand_b(now, scratch)
            } else {
                self.next_step_b(now, scratch)
            };
            match step {
                Step::Issue(cmd, served) => self.issue(cmd, now, served, scratch),
                Step::Again => {}
                Step::Wait(t) => {
                    assert!(
                        t > now,
                        "scheduler wake {t} not strictly after now {now}: \
                         a deferral failed to register its flip time"
                    );
                    return t;
                }
            }
        }
    }

    /// Debug shadow of a carried verdict: a fresh full scan at `now` on
    /// the same scratch. The carried verdicts are saved before and
    /// restored after, so a checked build takes the decisions a release
    /// build takes.
    #[cfg(debug_assertions)]
    fn full_scan(&mut self, now: Time, s: &mut CtrlScratch) -> Step {
        let carried = (s.fp, s.sec);
        s.shadow = true;
        let step = self.next_step_b(now, s);
        s.shadow = false;
        (s.fp, s.sec) = carried;
        step
    }

    /// The queue position a column command serves: the oldest queued
    /// request for the command's bank and open row.
    fn served_by(&self, sel: QueueSel, cmd: &Command) -> Option<(QueueSel, usize)> {
        let (Command::Read { bank, .. } | Command::Write { bank, .. }) = *cmd else {
            return None;
        };
        let row = self.device.open_row(bank);
        let idx = self
            .queue(sel)
            .iter()
            .position(|r| r.addr.bank == bank && Some(r.addr.row) == row)
            .expect("a column candidate stands for a queued request");
        Some((sel, idx))
    }

    fn queue(&self, sel: QueueSel) -> &VecDeque<MemRequest> {
        match sel {
            QueueSel::Read => &self.read_q,
            QueueSel::Write => &self.write_q,
        }
    }

    /// The demand queue FR-FCFS serves right now.
    fn demand_sel(&self) -> QueueSel {
        if self.draining || (self.read_q.is_empty() && !self.write_q.is_empty()) {
            QueueSel::Write
        } else {
            QueueSel::Read
        }
    }

    /// One full scheduler step: sections 1–5 in priority order, then the
    /// demand stage. Arms the carried verdicts on a Wait.
    fn next_step_b(&mut self, now: Time, s: &mut CtrlScratch) -> Step {
        s.epoch += 1;
        s.fp.valid = false;
        s.fp.bound_acc = Time::MAX;
        s.fp.cand = None;
        // FastPath preconditions: with these quiet, `update_modes` is a
        // provable no-op until the first accumulated flip instant, and
        // the only actors are the refresh schedule, FR-RFM maintenance,
        // and the demand queues — whose deferrals all fold absolute
        // instants into `wake` / `fp.bound_acc` below.
        let mut fp_ok = self.abo.is_none()
            && self.rfm_queue.is_empty()
            && self.para_queue.is_empty()
            && self.cfg.row_policy != RowPolicy::Closed;
        // The section verdict is "pure" while no section folded a
        // legality instant (`issue_or_wake`) into `wake`: pure folds are
        // absolute schedule times, indifferent to column issues.
        let mut sec_pure = true;
        let t = *self.device.timing();
        let mut wake = Time::MAX;

        // --- 1. ABO back-off protocol -----------------------------------
        if let Some(abo) = self.abo {
            match abo.phase {
                AboPhase::Window => {
                    wake = wake.min(abo.recover_at);
                }
                AboPhase::Recover => {
                    let scope = self
                        .device
                        .prac_config()
                        .map(|p| p.scope)
                        .unwrap_or(AlertScope::Channel);
                    let rank = abo.alert.bank.rank;
                    let close_cmd = match scope {
                        AlertScope::Channel => (s.rank_open[rank as usize] > 0)
                            .then_some(Command::PrechargeAll { channel: 0, rank }),
                        AlertScope::Bank => {
                            self.device.open_row(abo.alert.bank).is_some().then_some(
                                Command::Precharge {
                                    bank: abo.alert.bank,
                                },
                            )
                        }
                    };
                    if let Some(cmd) = close_cmd {
                        sec_pure = false;
                        if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                            return step;
                        }
                    } else if abo.rfms_left > 0 {
                        let rfm_scope = match scope {
                            AlertScope::Channel => RfmScope::AllBank,
                            AlertScope::Bank => RfmScope::SingleBank {
                                bank_group: abo.alert.bank.bank_group,
                                bank: abo.alert.bank.bank,
                            },
                        };
                        let cmd = Command::Rfm {
                            channel: 0,
                            rank,
                            scope: rfm_scope,
                        };
                        sec_pure = false;
                        if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                            return step;
                        }
                    } else {
                        self.device.recovery_complete(abo.last_rfm_end);
                        self.abo = None;
                        self.stats.backoffs += 1;
                        return Step::Again;
                    }
                    if scope == AlertScope::Channel {
                        return Step::Wait(wake);
                    }
                }
            }
        }

        // --- 2. Committed refreshes -------------------------------------
        for rank in 0..self.ref_due.len() as u32 {
            let pending = self.ref_pending[rank as usize];
            let due = self.ref_due[rank as usize];
            if due > now {
                wake = wake.min(due);
            }
            if pending == 0 {
                if now >= due {
                    // The commit/postpone machinery is live right now:
                    // its `clear_of_rfm` gap test re-evaluates against
                    // wall-clock every call, so no quiet window exists.
                    fp_ok = false;
                    if self.abo.is_none() {
                        let settle_end = self.rfm_end[rank as usize] + FRRFM_GUARD * 2;
                        if settle_end > now {
                            wake = wake.min(settle_end);
                        }
                        let timeout = due + t.t_refi / 2;
                        if timeout > now {
                            wake = wake.min(timeout);
                        }
                    }
                } else {
                    // `update_modes` commits or postpones at `due`.
                    s.fp.bound_acc = s.fp.bound_acc.min(due);
                }
                continue;
            }
            let next_deadline = self.defense.next_maintenance(rank).map(|m| m.due);
            if let Some(d) = next_deadline {
                // The peeked deadline advances when `now` crosses it.
                s.fp.bound_acc = s.fp.bound_acc.min(d);
            }
            if let (Some(deadline), Some(period)) = (next_deadline, self.maint_period) {
                let fits_between_rfms = t.t_rfm + t.t_rfc + t.t_cmd * 2 <= period;
                if fits_between_rfms {
                    if now + t.t_rfc + t.t_cmd > deadline {
                        if deadline > now {
                            wake = wake.min(deadline);
                        }
                        continue;
                    }
                    // The stacking guard first flips strictly after
                    // `deadline − (tRFC + tCMD)`.
                    s.fp.bound_acc = s.fp.bound_acc.min(deadline - t.t_rfc - t.t_cmd);
                }
            }
            let cmd = if s.rank_open[rank as usize] > 0 {
                Command::PrechargeAll { channel: 0, rank }
            } else {
                Command::Refresh { channel: 0, rank }
            };
            sec_pure = false;
            if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                return step;
            }
        }

        // --- 3. Scheduled maintenance (FR-RFM fixed-rate RFMs) ----------
        for rank in 0..self.ref_due.len() as u32 {
            if let Some(m) = self.defense.next_maintenance(rank) {
                let deadline = m.due;
                let close_at = deadline - t.t_rp - t.t_cmd;
                if now < close_at {
                    wake = wake.min(close_at);
                    continue;
                }
                if s.rank_open[rank as usize] > 0 {
                    let cmd = Command::PrechargeAll { channel: 0, rank };
                    sec_pure = false;
                    if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                        return step;
                    }
                } else if now < deadline {
                    wake = wake.min(deadline);
                } else {
                    let cmd = Command::Rfm {
                        channel: 0,
                        rank,
                        scope: m.scope,
                    };
                    sec_pure = false;
                    if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                        return step;
                    }
                }
            }
        }

        // --- 4. Reactive RFMs (PRFM) -------------------------------------
        if let Some(&(rank, scope)) = self.rfm_queue.front() {
            s.sync_rfm(&self.device, rank, scope);
            let states = self.device.bank_states();
            let first_open = (0..states.len())
                .find(|&f| has_bit(&s.rfm_mask, f) && states[f].open_row().is_some());
            debug_assert_eq!(
                first_open,
                self.device
                    .rfm_banks(rank, scope)
                    .into_iter()
                    .find(|&f| states[f].open_row().is_some()),
                "the RFM bank mask's first open bank is not rfm_banks' first"
            );
            let cmd = match first_open {
                Some(f) => Command::Precharge { bank: s.banks[f] },
                None => Command::Rfm {
                    channel: 0,
                    rank,
                    scope,
                },
            };
            sec_pure = false;
            if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                return step;
            }
        }

        // --- 5. PARA victim refreshes ------------------------------------
        if let Some(job) = self.para_queue.front().copied() {
            let is_open = self.device.open_row(job.bank).is_some();
            let cmd = match (job.activated, is_open) {
                (false, true) => Command::Precharge { bank: job.bank },
                (false, false) => Command::Activate {
                    bank: job.bank,
                    row: job.victim,
                },
                (true, true) => Command::Precharge { bank: job.bank },
                (true, false) => {
                    self.para_queue.pop_front();
                    return Step::Again;
                }
            };
            sec_pure = false;
            if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                return step;
            }
        }

        // --- 5b. Strictly closed-page policy ----------------------------
        if self.cfg.row_policy == RowPolicy::Closed && !self.abo_channel_stall() {
            for (flat, &bank) in s.banks.iter().enumerate() {
                let Some(open_row) = self.device.bank_states()[flat].open_row() else {
                    continue;
                };
                let (srow, served) = self.streak[flat];
                if srow != open_row || served == 0 {
                    continue;
                }
                let cmd = Command::Precharge { bank };
                sec_pure = false;
                if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                    return step;
                }
            }
        }

        // --- 6. Demand requests (FR-FCFS with column cap) ----------------
        let sec_wake = wake;
        let mut demand_sel = None;
        if !self.abo_channel_stall() {
            let sel = self.demand_sel();
            let (step_wake, step) = self.schedule_demand_b(sel, now, s);
            if let Some(step) = step {
                return step;
            }
            wake = wake.min(step_wake);
            demand_sel = Some(sel);
        }

        if fp_ok {
            // This Wait verdict — every branch decision and folded wake —
            // stays exact until `fp.bound_acc`, the next issue, or the
            // next arrival.
            s.sec.valid = true;
            s.sec.wake = sec_wake;
            s.sec.pure = sec_pure;
            s.arm(self, demand_sel, wake);
        }
        Step::Wait(wake)
    }

    /// The demand-only reduced scan: re-runs stage 6 of
    /// [`MemoryController::next_step_b`] against the carried section
    /// verdict, skipping sections 1–5 entirely. Sound exactly when
    /// [`CtrlScratch::sec_live`] holds: the sections read no demand
    /// queue, every branch they took is pinned by `sec.bound` /
    /// `sec.wake` / the stamp rule, and every wake they folded is either
    /// an absolute schedule instant (pure) or additionally protected by
    /// an unchanged issue stamp. In debug builds a fresh full scan shadows
    /// every reduced verdict.
    fn next_step_demand_b(&mut self, now: Time, s: &mut CtrlScratch) -> Step {
        s.epoch += 1;
        s.fp.valid = false;
        s.fp.bound_acc = s.sec.bound;
        s.fp.cand = None;
        // `abo_channel_stall` is false: `sec_live` checked `abo.is_none()`.
        let sel = self.demand_sel();
        let (step_wake, step) = self.schedule_demand_b(sel, now, s);
        let step = step.unwrap_or_else(|| {
            // Re-arm: the section half of the verdict carries over
            // verbatim (the proof composes transitively), the demand
            // half is freshly computed.
            let wake = s.sec.wake.min(step_wake);
            s.arm(self, Some(sel), wake);
            Step::Wait(wake)
        });
        #[cfg(debug_assertions)]
        {
            let full = self.full_scan(now, s);
            assert!(
                step == full,
                "reduced scan {step:?} diverged from full scan {full:?}"
            );
        }
        step
    }

    /// Test hook: the demand stage's verdict at `now` — wake, command,
    /// served queue position — as `service` computes it from the
    /// candidate table and as the per-entry oracle scan does, for
    /// equality checks that hold in release builds too. The wake of a
    /// verdict that issues is meaningless and reads `Time::MAX` on both
    /// sides.
    #[doc(hidden)]
    pub fn demand_verdicts(&mut self, now: Time) -> [DemandVerdict; 2] {
        let mut scratch = self.scratch.take().expect("scheduler state present");
        let sel = self.demand_sel();
        scratch.epoch += 1;
        let verdicts = [
            self.schedule_demand_b(sel, now, &mut scratch),
            self.scan_queue(sel, now),
        ];
        self.scratch = Some(scratch);
        verdicts.map(|(wake, step)| match step {
            Some(Step::Issue(cmd, served)) => (Time::MAX, Some((cmd, served.map(|(_, idx)| idx)))),
            _ => (wake, None),
        })
    }

    /// The demand stage from the candidate table, for every defense and
    /// wrapper. In debug builds the per-entry `scan_queue` shadows every
    /// verdict (the wake beside an issue aside, which nothing reads).
    fn schedule_demand_b(
        &mut self,
        sel: QueueSel,
        now: Time,
        s: &mut CtrlScratch,
    ) -> (Time, Option<Step>) {
        s.sync_queue(sel, self.queue(sel), self.device.geometry());
        let verdict = self.scan_table(sel, now, s);
        #[cfg(debug_assertions)]
        if !s.shadow {
            let want = match self.scan_queue(sel, now) {
                (_, issue @ Some(_)) => (Time::MAX, issue),
                wait => wait,
            };
            assert!(
                verdict == want,
                "table verdict {verdict:?} diverged from per-entry scan {want:?}"
            );
        }
        verdict
    }

    /// FR-FCFS selection as a fold over the active banks' cached
    /// representatives (see the module header for why that is exact).
    /// Returns (wake, chosen step) like `scan_queue`; the wake folds
    /// every scanned bank's gate.
    fn scan_table(&self, sel: QueueSel, now: Time, s: &mut CtrlScratch) -> (Time, Option<Step>) {
        let k = CtrlScratch::qi(sel);
        s.sync_blocked(self);
        // Channel-global floors, fixed for the whole scan.
        let t = self.device.timing();
        let (cmd_free, last_col, data_free) = self.device.bus_state();
        let row_floor = cmd_free.max(now);
        let lat = if sel == QueueSel::Read {
            t.t_cl
        } else {
            t.t_cwl
        };
        let col_floor = row_floor.max(Time::ZERO + data_free.saturating_since(Time::ZERO + lat));
        // Column-to-column spacing: long within the last column
        // command's bank group, short elsewhere.
        let (last_bg, col_floor_same, col_floor_other) = match last_col {
            Some((last, bg)) => (
                Some(bg),
                col_floor.max(last + t.t_ccd_l),
                col_floor.max(last + t.t_ccd_s),
            ),
            None => (None, col_floor, col_floor),
        };

        let states = self.device.bank_states();
        let ranks = self.device.rank_states();

        // Minimal (instant, not-a-hit, queue order): the issueable-now
        // winner when the instant is `now`, the demand wake otherwise.
        let mut best: Option<(Time, bool, u64, Command)> = None;
        let mut gate = Time::MAX;
        for w in 0..s.blocked.len() {
            let mut word = s.tables[k].active[w] & !s.blocked[w];
            while word != 0 {
                let flat = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let bank = s.banks[flat];
                if s.quiesced(self, bank.rank, now) {
                    continue;
                }
                let rep = s.rep(self, k, flat, now);
                gate = gate.min(rep.gate);
                let Some(cand) = rep.cand else {
                    continue;
                };
                let (b, rank) = (&states[flat], &ranks[bank.rank as usize]);
                let at = match cand.class {
                    Class::Col => {
                        let ready = if sel == QueueSel::Read {
                            b.earliest_rd()
                        } else {
                            b.earliest_wr()
                        };
                        let ccd_floor = if Some(bank.bank_group) == last_bg {
                            col_floor_same
                        } else {
                            col_floor_other
                        };
                        ready.max(rank.earliest_any()).max(ccd_floor)
                    }
                    Class::Pre => b.earliest_pre().max(rank.earliest_any()).max(row_floor),
                    Class::Act => b
                        .earliest_act()
                        .max(rank.earliest_act(bank.bank_group, t))
                        .max(row_floor),
                };
                debug_assert_eq!(
                    at,
                    self.device.earliest_legal(&cand.cmd, now),
                    "folded legality diverged from the device"
                );
                let key = (at, cand.class != Class::Col, cand.seq);
                if best.is_none_or(|(a, miss, seq, _)| key < (a, miss, seq)) {
                    best = Some((key.0, key.1, key.2, cand.cmd));
                }
            }
        }
        // A gate is a flip instant of this verdict as well as a wake.
        s.fp.bound_acc = s.fp.bound_acc.min(gate);
        match best {
            Some((at, _, _, cmd)) if at <= now => {
                let served = self.served_by(sel, &cmd);
                (Time::MAX, Some(Step::Issue(cmd, served)))
            }
            Some((at, _, _, cmd)) => {
                s.fp.cand = Some((at, cmd));
                (at.min(gate), None)
            }
            None => (gate, None),
        }
    }
}
