//! The full-system discrete-event simulator.
//!
//! [`System`] wires per-core private cache hierarchies and an optional
//! Best-Offset prefetcher to one memory channel (controller + DRAM
//! device), and steps [`Process`]es through an event queue keyed on
//! integer-picosecond time. Everything is deterministic for a fixed seed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use lh_defenses::DefenseConfig;
use lh_dram::{DeviceConfig, DramError, Span, Time};
use lh_memctrl::{
    AccessKind, AddressMapping, CtrlConfig, MappingScheme, MemRequest, MemoryController,
};
use lh_mitigate::MitigationConfig;

use crate::cache::{CacheConfig, CacheHierarchy, CacheStats};
use crate::prefetch::{BestOffsetPrefetcher, BopConfig};
use crate::process::{MemAccess, Process, ProcessStep};

/// Identifier of a process (and its core) within a [`System`].
pub type ProcId = usize;

/// Deterministic observability counters every system flushes into the
/// active `lh-obs` metric scope (the harness installs one per
/// experiment unit). Names are the stable metrics vocabulary that
/// envelopes, metrics snapshots, and the `report` subcommand key on.
mod counters {
    use lh_obs::{Counter, Histogram};

    /// `MemoryController::service` invocations (scheduler wakes).
    pub const SERVICE_WAKES: Counter = Counter::new("sim.service_wakes");
    /// ACT commands issued.
    pub const CMD_ACT: Counter = Counter::new("sim.cmd.act");
    /// PRE/PREab commands issued.
    pub const CMD_PRE: Counter = Counter::new("sim.cmd.pre");
    /// Column reads served.
    pub const CMD_RD: Counter = Counter::new("sim.cmd.rd");
    /// Column writes served.
    pub const CMD_WR: Counter = Counter::new("sim.cmd.wr");
    /// Periodic REF commands issued.
    pub const CMD_REF: Counter = Counter::new("sim.cmd.ref");
    /// RFM commands issued (any cause).
    pub const CMD_RFM: Counter = Counter::new("sim.cmd.rfm");
    /// Scheduled maintenance taken exactly at its deadline.
    pub const MAINT_ON_TIME: Counter = Counter::new("sim.maintenance.on_time");
    /// Scheduled maintenance that slipped past its deadline.
    pub const MAINT_DEFERRED: Counter = Counter::new("sim.maintenance.deferred");
    /// Cache-level probes that hit (L1 + L2 + LLC).
    pub const CACHE_PROBE_HITS: Counter = Counter::new("sim.cache.probe_hits");
    /// Cache-level probes that missed (L1 + L2 + LLC).
    pub const CACHE_PROBE_MISSES: Counter = Counter::new("sim.cache.probe_misses");
    /// Systems that contributed counters (one per flushed [`super::System`]).
    pub const SYSTEMS: Counter = Counter::new("sim.systems");

    /// Distribution of request queue waits — each completion's
    /// `finished - arrival`, in integer simulated nanoseconds.
    pub const QUEUE_WAIT: Histogram = Histogram::new("sim.queue_wait");
    /// Distribution of scheduled-maintenance slack — how far past its
    /// deadline each maintenance take landed (zero = on time), in
    /// integer simulated nanoseconds.
    pub const MAINT_SLACK: Histogram = Histogram::new("sim.maintenance.slack");
}

/// Counter values already flushed into the metric scope, so repeated
/// flushes (explicit plus the drop flush) emit exact deltas.
#[derive(Debug, Clone, Copy, Default)]
struct ObsFlushed {
    announced: bool,
    service_wakes: u64,
    acts: u64,
    pres: u64,
    rds: u64,
    wrs: u64,
    refs: u64,
    rfms: u64,
    maint_on_time: u64,
    maint_deferred: u64,
    probe_hits: u64,
    probe_misses: u64,
}

/// Emits `total - *flushed` into `counter` and advances the watermark.
fn emit_delta(counter: lh_obs::Counter, total: u64, flushed: &mut u64) {
    counter.add(total.saturating_sub(*flushed));
    *flushed = total;
}

/// Hasher for the in-flight request map, whose keys are sequentially
/// assigned request ids: one multiply mixes the id, where the std
/// SipHash default is measurable per-request overhead at simulator
/// event rates. The map is never iterated, so hash order is
/// unobservable.
#[derive(Clone, Copy, Default)]
struct ReqIdHasher(u64);

impl std::hash::Hasher for ReqIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type ReqIdState = std::hash::BuildHasherDefault<ReqIdHasher>;

/// Full-system configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// DRAM device configuration (geometry, timing, blast radius).
    pub device: DeviceConfig,
    /// Memory-controller configuration.
    pub ctrl: CtrlConfig,
    /// RowHammer defense.
    pub defense: DefenseConfig,
    /// Countermeasure wrappers applied over the defense, innermost
    /// first (empty: the bare defense, bit for bit).
    pub mitigations: Vec<MitigationConfig>,
    /// Physical-address mapping scheme.
    pub mapping: MappingScheme,
    /// Per-core cache hierarchy.
    pub caches: CacheConfig,
    /// Optional Best-Offset prefetcher (§10.3).
    pub prefetch: Option<BopConfig>,
    /// Master seed (defense randomness, RIAC draws).
    pub seed: u64,
}

impl SimConfig {
    /// The paper's Table 1 system with the given defense.
    pub fn paper_default(defense: DefenseConfig) -> SimConfig {
        SimConfig {
            device: DeviceConfig::paper_default(),
            ctrl: CtrlConfig::paper_default(),
            defense,
            mitigations: Vec::new(),
            mapping: MappingScheme::RowBankCol,
            caches: CacheConfig::paper_default(),
            prefetch: None,
            seed: 1,
        }
    }
}

/// Fluent constructor for [`System`]. Everything a [`SimConfig`] holds
/// is set on the config itself (start from
/// [`SimConfig::paper_default`], edit its fields, then
/// [`SystemBuilder::from_config`]); the builder only adds the seed
/// shorthand and the disturb-tracking switch, which is not part of the
/// config.
///
/// # Examples
///
/// ```
/// use lh_defenses::DefenseConfig;
/// use lh_sim::SystemBuilder;
///
/// let sys = SystemBuilder::new(DefenseConfig::prac(128))
///     .seed(42)
///     .disturb_tracking(false) // perf runs skip the ground truth
///     .build()
///     .unwrap();
/// assert_eq!(sys.now(), lh_dram::Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    config: SimConfig,
    disturb_tracking: bool,
}

impl SystemBuilder {
    /// Starts from the paper's Table 1 system with the given defense.
    pub fn new(defense: DefenseConfig) -> SystemBuilder {
        SystemBuilder::from_config(SimConfig::paper_default(defense))
    }

    /// Starts from an explicit full configuration.
    pub fn from_config(config: SimConfig) -> SystemBuilder {
        SystemBuilder {
            config,
            disturb_tracking: true,
        }
    }

    /// Sets the master seed (defense randomness, RIAC draws).
    pub fn seed(mut self, seed: u64) -> SystemBuilder {
        self.config.seed = seed;
        self
    }

    /// Enables or disables read-disturb ground-truth bookkeeping.
    /// Performance sweeps disable it: they only measure timing, and the
    /// disturb tracker is the simulation's biggest memory consumer.
    pub fn disturb_tracking(mut self, enabled: bool) -> SystemBuilder {
        self.disturb_tracking = enabled;
        self
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Propagates device/controller construction errors.
    pub fn build(self) -> Result<System, DramError> {
        let mut sys = System::new(self.config)?;
        sys.mc
            .device_mut()
            .set_disturb_enabled(self.disturb_tracking);
        Ok(sys)
    }
}

/// Per-process runtime statistics collected by the system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Demand loads that missed all caches (DRAM reads).
    pub dram_reads: u64,
    /// Writebacks sent on this process's behalf.
    pub dram_writes: u64,
    /// Cache hits (any level).
    pub cache_hits: u64,
    /// Total steps executed.
    pub steps: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    ProcWake(ProcId),
    MemIssue(ProcId),
    CtrlService,
    Fill { req: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    at: Time,
    seq: u64,
    kind: EventKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    proc: ProcId,
    addr: u64,
    write: bool,
    blocking: bool,
    prefetch: bool,
}

struct ProcEntry {
    proc: Box<dyn Process>,
    halted: bool,
    outstanding: u32,
    mlp: u32,
    waiting_slot: bool,
    pending_access: Option<MemAccess>,
    stats: ProcStats,
}

/// The simulated system: cores + caches + memory channel.
///
/// # Examples
///
/// ```
/// use lh_defenses::DefenseConfig;
/// use lh_dram::Time;
/// use lh_sim::{SimConfig, System};
///
/// let mut sys = System::new(SimConfig::paper_default(DefenseConfig::prac(128))).unwrap();
/// sys.run_until(Time::from_us(50)); // idle system: refreshes only
/// assert!(sys.controller().stats().refreshes > 0);
/// ```
pub struct System {
    mapping: AddressMapping,
    mc: MemoryController,
    caches: Vec<CacheHierarchy>,
    prefetchers: Vec<Option<BestOffsetPrefetcher>>,
    procs: Vec<ProcEntry>,
    events: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    now: Time,
    next_req: u64,
    inflight: HashMap<u64, Inflight, ReqIdState>,
    stalled: VecDeque<(MemRequest, Inflight)>,
    /// Reused buffer for draining controller completions (allocation-free
    /// steady state).
    completion_buf: Vec<lh_memctrl::Completion>,
    ctrl_scheduled: Time,
    cache_cfg: CacheConfig,
    prefetch_cfg: Option<BopConfig>,
    obs_flushed: ObsFlushed,
    /// Queue-wait samples accumulated since the last obs flush. Samples
    /// collect here — not straight into the thread-local metric scope —
    /// so they reach whichever scope is installed at `flush_obs`, like
    /// the counter deltas.
    queue_wait: lh_obs::Hist,
    /// Maintenance-slack samples accumulated since the last obs flush
    /// (same scoping rationale as `queue_wait`).
    maint_slack: lh_obs::Hist,
    /// Flight-recorder segment owned by this system, allocated lazily on
    /// first use so systems built while recording is off cost nothing.
    /// Events drained from the controller in `flush_obs` are emitted
    /// under this segment; the renderer's (segment, time) sort makes the
    /// log independent of how many systems interleave their flushes.
    flight_seg: Option<u64>,
}

impl Drop for System {
    fn drop(&mut self) {
        // Final delta flush so a unit's metric scope sees the complete
        // command/maintenance/cache tallies without experiment code
        // having to remember an explicit flush.
        self.flush_obs();
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("procs", &self.procs.len())
            .field("inflight", &self.inflight.len())
            .finish()
    }
}

impl System {
    /// Builds a system.
    ///
    /// # Errors
    ///
    /// Propagates device/controller construction errors.
    pub fn new(config: SimConfig) -> Result<System, DramError> {
        let mapping = AddressMapping::new(config.mapping, config.device.geometry);
        let mc = MemoryController::with_mitigations(
            config.ctrl,
            config.device.clone(),
            config.defense.clone(),
            &config.mitigations,
            config.seed,
        )?;
        let mut sys = System {
            mapping,
            mc,
            caches: Vec::new(),
            prefetchers: Vec::new(),
            procs: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
            next_req: 0,
            inflight: HashMap::default(),
            stalled: VecDeque::new(),
            completion_buf: Vec::new(),
            ctrl_scheduled: Time::ZERO,
            cache_cfg: config.caches,
            prefetch_cfg: config.prefetch,
            obs_flushed: ObsFlushed::default(),
            queue_wait: lh_obs::Hist::new(),
            maint_slack: lh_obs::Hist::new(),
            flight_seg: None,
        };
        // Start the controller's self-scheduling (refresh timers tick even
        // on an idle system).
        sys.push(Time::ZERO, EventKind::CtrlService);
        Ok(sys)
    }

    /// The address mapping (for building attack addresses).
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// The memory controller.
    pub fn controller(&self) -> &MemoryController {
        &self.mc
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Adds a process on a fresh core, starting at `start`; returns its id.
    pub fn add_process(&mut self, proc: Box<dyn Process>, mlp: u32, start: Time) -> ProcId {
        let pid = self.procs.len();
        self.caches.push(CacheHierarchy::new(self.cache_cfg));
        self.prefetchers
            .push(self.prefetch_cfg.map(BestOffsetPrefetcher::new));
        self.procs.push(ProcEntry {
            proc,
            halted: false,
            outstanding: 0,
            mlp: mlp.max(1),
            waiting_slot: false,
            pending_access: None,
            stats: ProcStats::default(),
        });
        self.push(start, EventKind::ProcWake(pid));
        pid
    }

    /// Immutable access to a process.
    pub fn process(&self, pid: ProcId) -> &dyn Process {
        self.procs[pid].proc.as_ref()
    }

    /// Downcasts a process to its concrete type.
    pub fn process_as<T: 'static>(&self, pid: ProcId) -> Option<&T> {
        self.procs[pid].proc.as_any().downcast_ref::<T>()
    }

    /// Whether every process has halted.
    pub fn all_halted(&self) -> bool {
        self.procs.iter().all(|p| p.halted)
    }

    /// Per-process statistics.
    pub fn proc_stats(&self, pid: ProcId) -> ProcStats {
        self.procs[pid].stats
    }

    /// Cache statistics of a core.
    pub fn cache_stats(&self, pid: ProcId) -> CacheStats {
        self.caches[pid].stats()
    }

    fn push(&mut self, at: Time, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Ev {
            at,
            seq: self.seq,
            kind,
        }));
    }

    /// Flushes deterministic counters accumulated since the previous
    /// flush into the active `lh-obs` metric scope.
    ///
    /// Dropping the system flushes implicitly, so experiment code never
    /// has to call this; it exists for callers that sample mid-run. The
    /// emitted values are exact deltas against an internal watermark, so
    /// flushing early never double-counts. A no-op when no metric scope
    /// is installed (i.e. outside `lh_obs::record`).
    pub fn flush_obs(&mut self) {
        if !lh_obs::scoped() {
            return;
        }
        if !self.obs_flushed.announced {
            self.obs_flushed.announced = true;
            counters::SYSTEMS.incr();
        }
        let f = &mut self.obs_flushed;
        let cs = self.mc.stats();
        emit_delta(
            counters::SERVICE_WAKES,
            cs.service_calls,
            &mut f.service_wakes,
        );
        emit_delta(counters::CMD_ACT, cs.activates, &mut f.acts);
        emit_delta(counters::CMD_PRE, cs.precharges, &mut f.pres);
        emit_delta(counters::CMD_RD, cs.reads_served, &mut f.rds);
        emit_delta(counters::CMD_WR, cs.writes_served, &mut f.wrs);
        emit_delta(counters::CMD_REF, cs.refreshes, &mut f.refs);
        emit_delta(counters::CMD_RFM, cs.rfms, &mut f.rfms);
        let ds = self.mc.defense_stats();
        emit_delta(
            counters::MAINT_ON_TIME,
            ds.maintenance_on_time,
            &mut f.maint_on_time,
        );
        emit_delta(
            counters::MAINT_DEFERRED,
            ds.maintenance_deferred,
            &mut f.maint_deferred,
        );
        let (mut hits, mut misses) = (0u64, 0u64);
        for cache in &self.caches {
            let s = cache.stats();
            hits += s.l1_hits + s.l2_hits + s.llc_hits;
            misses += s.l1_misses + s.l2_misses + s.llc_misses;
        }
        emit_delta(counters::CACHE_PROBE_HITS, hits, &mut f.probe_hits);
        emit_delta(counters::CACHE_PROBE_MISSES, misses, &mut f.probe_misses);
        // Distribution instruments: samples accumulated since the last
        // flush are folded into the scope and the local accumulators
        // reset, so repeated flushes are delta-exact like the counters.
        let maint_slack = &mut self.maint_slack;
        self.mc
            .drain_maintenance_jitter(|jitter| maint_slack.observe(jitter.as_ps() / 1_000));
        counters::QUEUE_WAIT.observe_hist(&std::mem::take(&mut self.queue_wait));
        counters::MAINT_SLACK.observe_hist(&std::mem::take(&mut self.maint_slack));
        // Flight events ride the same flush cadence as the metric
        // deltas: drain the controller (and its defense stack) into this
        // system's segment. Within a segment events keep controller
        // buffering order after a stable time sort.
        if lh_obs::flight::active() {
            let seg = self.flight_seg();
            let mut batch = lh_obs::flight::EventBuffer::new();
            self.mc.drain_flight(&mut batch);
            if !batch.is_empty() {
                let (mut events, dropped) = batch.drain();
                events.sort_by_key(lh_obs::FlightEvent::t_ns);
                lh_obs::flight::emit_batch(seg, events, dropped);
            }
        }
    }

    /// The flight-recorder segment identifying this system in event
    /// logs, allocated on first call. Event producers outside the
    /// system (e.g. the link pipeline annotating symbol windows) tag
    /// their events with this segment so they sort alongside the
    /// system's own command stream.
    pub fn flight_seg(&mut self) -> u64 {
        *self
            .flight_seg
            .get_or_insert_with(lh_obs::flight::new_segment)
    }

    /// Runs until `t_end` (events after it stay queued). Chunked runs
    /// are equivalent to one call: events are handled in the same
    /// (time, seq) order either way, and `now` ends at `t_end` exactly.
    pub fn run_until(&mut self, t_end: Time) {
        let _span = lh_obs::Span::enter("sim.run_until", "sim");
        while let Some(&Reverse(ev)) = self.events.peek() {
            if ev.at > t_end {
                break;
            }
            self.events.pop();
            self.now = ev.at;
            self.handle(ev);
        }
        self.now = self.now.max(t_end);
    }

    /// Runs until every process halts or `limit` is reached; returns
    /// whether all halted.
    pub fn run_until_halted(&mut self, limit: Time) -> bool {
        // Chunked so the halt check does not scan on every event.
        while self.now < limit && !self.all_halted() {
            let next = (self.now + Span::from_us(50)).min(limit);
            self.run_until(next);
        }
        self.all_halted()
    }

    fn handle(&mut self, ev: Ev) {
        match ev.kind {
            EventKind::ProcWake(pid) => self.proc_wake(pid),
            EventKind::MemIssue(pid) => self.mem_issue(pid),
            EventKind::CtrlService => {
                if ev.at >= self.ctrl_scheduled {
                    self.ctrl_scheduled = Time::MAX;
                }
                self.kick_ctrl();
            }
            EventKind::Fill { req } => self.fill(req),
        }
    }

    fn proc_wake(&mut self, pid: ProcId) {
        if self.procs[pid].halted {
            return;
        }
        self.procs[pid].stats.steps += 1;
        let step = self.procs[pid].proc.step(self.now);
        match step {
            ProcessStep::Access(a) => {
                self.procs[pid].pending_access = Some(a);
                let at = self.now + a.think;
                self.push(at, EventKind::MemIssue(pid));
            }
            ProcessStep::SleepUntil(t) => {
                let at = t.max(self.now + Span::from_ps(1));
                self.push(at, EventKind::ProcWake(pid));
            }
            ProcessStep::Halt => {
                self.procs[pid].halted = true;
            }
        }
    }

    fn mem_issue(&mut self, pid: ProcId) {
        let a = self.procs[pid]
            .pending_access
            .take()
            .expect("MemIssue without a pending access");
        let mut kicked = false;

        if a.flush {
            let dirty = self.caches[pid].flush(a.addr);
            if dirty {
                self.send_writeback(pid, a.addr);
                kicked = true;
            }
        }

        let lookup = self.caches[pid].access(a.addr, a.write);
        if let Some(wb) = lookup.writeback {
            self.send_writeback(pid, wb);
            kicked = true;
        }

        match lookup.hit_latency {
            Some(lat) => {
                self.procs[pid].stats.cache_hits += 1;
                let at = if a.blocking { self.now + lat } else { self.now };
                self.push(at, EventKind::ProcWake(pid));
            }
            None => {
                // Miss: fetch the line (write misses fetch for ownership
                // and mark the line dirty at fill time).
                self.procs[pid].stats.dram_reads += 1;
                self.procs[pid].outstanding += 1;
                let meta = Inflight {
                    proc: pid,
                    addr: a.addr,
                    write: a.write,
                    blocking: a.blocking,
                    prefetch: false,
                };
                self.send_read(meta);
                kicked = true;
                if !a.blocking {
                    if self.procs[pid].outstanding < self.procs[pid].mlp {
                        self.push(self.now, EventKind::ProcWake(pid));
                    } else {
                        self.procs[pid].waiting_slot = true;
                    }
                }
                // Train the prefetcher on the demand-miss stream.
                if let Some(pf) = &mut self.prefetchers[pid] {
                    if let Some(target) = pf.on_miss(a.addr) {
                        if !self.caches[pid].contains(target) {
                            let meta = Inflight {
                                proc: pid,
                                addr: target,
                                write: false,
                                blocking: false,
                                prefetch: true,
                            };
                            self.send_read(meta);
                        }
                    }
                }
            }
        }
        if kicked {
            self.kick_ctrl();
        }
    }

    fn send_read(&mut self, meta: Inflight) {
        let id = self.next_req;
        self.next_req += 1;
        let req = MemRequest {
            id,
            addr: self.mapping.decode(meta.addr),
            kind: AccessKind::Read,
            arrival: self.now,
            source: meta.proc as u32,
        };
        self.inflight.insert(id, meta);
        if let Err(req) = self.mc.enqueue(req) {
            self.stalled.push_back((req, meta));
        }
    }

    fn send_writeback(&mut self, pid: ProcId, addr: u64) {
        let id = self.next_req;
        self.next_req += 1;
        self.procs[pid].stats.dram_writes += 1;
        let req = MemRequest {
            id,
            addr: self.mapping.decode(addr),
            kind: AccessKind::Write,
            arrival: self.now,
            source: pid as u32,
        };
        let meta = Inflight {
            proc: pid,
            addr,
            write: true,
            blocking: false,
            prefetch: false,
        };
        if let Err(req) = self.mc.enqueue(req) {
            self.stalled.push_back((req, meta));
        }
    }

    /// Services the controller, forwards completions, retries stalled
    /// requests, and schedules the next controller wake-up.
    fn kick_ctrl(&mut self) {
        loop {
            let next = self.mc.service(self.now);
            let mut done = std::mem::take(&mut self.completion_buf);
            self.mc.drain_completed_into(&mut done);
            for c in done.drain(..) {
                // Integer simulated nanoseconds: deterministic, so the
                // sample can ride the metrics channel.
                self.queue_wait.observe(c.latency().as_ps() / 1_000);
                match c.kind {
                    AccessKind::Read => {
                        self.push(c.finished, EventKind::Fill { req: c.id });
                    }
                    AccessKind::Write => {
                        // Posted writebacks need no further action.
                    }
                }
            }
            self.completion_buf = done;
            // Retry stalled requests now that the queues may have space.
            let mut progressed = false;
            while let Some((req, meta)) = self.stalled.pop_front() {
                let mut req = req;
                req.arrival = self.now;
                match self.mc.enqueue(req) {
                    Ok(()) => {
                        if req.kind == AccessKind::Read {
                            self.inflight.insert(req.id, meta);
                        }
                        progressed = true;
                    }
                    Err(req) => {
                        self.stalled.push_front((req, meta));
                        break;
                    }
                }
            }
            if !progressed {
                if next < self.ctrl_scheduled {
                    self.ctrl_scheduled = next;
                    self.push(next, EventKind::CtrlService);
                }
                return;
            }
        }
    }

    fn fill(&mut self, req: u64) {
        let Some(meta) = self.inflight.remove(&req) else {
            return;
        };
        let pid = meta.proc;
        let wbs = if meta.prefetch {
            self.caches[pid].fill_prefetch(meta.addr)
        } else {
            self.caches[pid].fill(meta.addr, meta.write)
        };
        let mut kicked = false;
        for wb in wbs {
            self.send_writeback(pid, wb);
            kicked = true;
        }
        if let Some(pf) = &mut self.prefetchers[pid] {
            pf.on_fill(meta.addr);
        }
        if !meta.prefetch {
            self.procs[pid].outstanding = self.procs[pid].outstanding.saturating_sub(1);
            if meta.blocking {
                self.push(self.now, EventKind::ProcWake(pid));
            } else if self.procs[pid].waiting_slot
                && self.procs[pid].outstanding < self.procs[pid].mlp
            {
                self.procs[pid].waiting_slot = false;
                self.push(self.now, EventKind::ProcWake(pid));
            }
        }
        if kicked {
            self.kick_ctrl();
        }
    }
}
