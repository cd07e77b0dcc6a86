//! The lane-batched simulator engine: N parameter lanes advanced in one
//! pass over a shared wake heap.
//!
//! A *lane* is one complete [`System`] — its own controller, defense
//! (plus mitigation stack and [`lh_defenses::DefenseStats`]), caches and
//! processes — representing one cell of a parameter sweep (one
//! (defense, `N_RH`, mitigation) point). Lanes never interact: the
//! engine exists purely so N cells that replay the same trace advance
//! together, paying trace generation once and touching the same trace
//! region while it is cache-warm, instead of N full sequential passes.
//!
//! ## Wake-heap contract
//!
//! The batch keeps one min-heap keyed `(wake_time, lane_index)`, where
//! `wake_time` is the lane's next queued event ([`System::next_event_at`]).
//! Each [`LaneBatch::run`] iteration pops the minimum and advances that
//! lane through every event inside one scheduling slice — from its wake
//! instant to `wake + SLICE` ([`System::advance_to`]) — then re-inserts
//! it at its next event. The slice sets scheduling *granularity* only:
//! lanes share no mutable state, so each lane's event sequence is a
//! pure function of its own configuration and the slice width cannot
//! perturb any lane's results — it exists so a lane runs cache-hot for
//! thousands of events instead of being evicted after each one. Ties at
//! equal wake times resolve to the lowest lane index — a fixed,
//! documented order. A lane whose next event falls past its horizon is
//! advanced to the horizon exactly — byte-identical to a solo
//! `run_until(horizon)` — and finalized.
//!
//! ## Per-lane observability
//!
//! At finalization each lane's counters are captured under a private
//! `lh_obs` scope ([`lh_obs::record`] around [`System::flush_obs`]), so
//! `sim.service_wakes` / `sim.cmd.*` stay per-cell exact. The caller
//! re-attributes a lane's [`Metrics`] wherever it wants — typically via
//! [`lh_obs::emit`] inside the harness's per-unit scope. The eventual
//! drop-flush emits only zero deltas and never double-counts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lh_dram::{DramError, Span, Time};
use lh_obs::Metrics;

use crate::system::{System, SystemBuilder};

/// Scheduling slice: how far past its popped wake instant a lane is
/// advanced before returning to the heap. Pure locality knob — lane
/// results are independent of its value (see the module docs); 20 µs is
/// tens of thousands of DRAM events — comfortably past the point where
/// the lane's working set is warm — while still interleaving cross-lane
/// progress a few times per sweep cell.
const SLICE: Span = Span::from_us(20);

/// One sweep cell inside a [`LaneBatch`].
#[derive(Debug)]
struct Lane {
    sys: System,
    /// Simulation horizon: the lane ends with `now == until` exactly.
    until: Time,
    /// Whether the lane has been advanced to its horizon and flushed.
    done: bool,
    /// Counters captured at finalization (empty until then).
    metrics: Metrics,
}

/// A batch of independent simulation lanes advanced over one shared
/// wake heap. See the module docs for the contract.
///
/// # Examples
///
/// ```
/// use lh_defenses::DefenseConfig;
/// use lh_dram::Time;
/// use lh_sim::{LaneBatch, SystemBuilder};
///
/// let mut batch = LaneBatch::new();
/// let until = Time::from_us(30);
/// for nrh in [1024, 64] {
///     let builder = SystemBuilder::new(DefenseConfig::prac(nrh)).seed(7);
///     batch.push_lane(builder, until).unwrap();
/// }
/// batch.run();
/// assert!(batch.metrics(0).get("sim.service_wakes") > 0);
/// ```
#[derive(Debug, Default)]
pub struct LaneBatch {
    lanes: Vec<Lane>,
}

impl LaneBatch {
    /// An empty batch.
    pub fn new() -> LaneBatch {
        LaneBatch::default()
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the batch has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Builds `builder` into a new lane that will run until `until`;
    /// returns its index.
    ///
    /// # Errors
    ///
    /// Propagates device/controller construction errors.
    pub fn push_lane(&mut self, builder: SystemBuilder, until: Time) -> Result<usize, DramError> {
        let sys = builder.build()?;
        self.lanes.push(Lane {
            sys,
            until,
            done: false,
            metrics: Metrics::new(),
        });
        Ok(self.lanes.len() - 1)
    }

    /// The lane's system (process results, controller stats, traces).
    pub fn lane(&self, i: usize) -> &System {
        &self.lanes[i].sys
    }

    /// Mutable access to a lane's system — to add processes before
    /// [`LaneBatch::run`].
    pub fn lane_mut(&mut self, i: usize) -> &mut System {
        &mut self.lanes[i].sys
    }

    /// The lane's counters, captured when the lane finished (empty
    /// before [`LaneBatch::run`]).
    pub fn metrics(&self, i: usize) -> &Metrics {
        &self.lanes[i].metrics
    }

    /// Advances every unfinished lane to its horizon over the shared
    /// wake heap.
    pub fn run(&mut self) {
        let _span = lh_obs::Span::enter("sim.lane_batch", "sim");
        let mut heap: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
        for i in 0..self.lanes.len() {
            if !self.lanes[i].done {
                self.seed_or_finalize(i, &mut heap);
            }
        }
        while let Some(Reverse((wake, i))) = heap.pop() {
            let target = (wake + SLICE).min(self.lanes[i].until);
            self.lanes[i].sys.advance_to(target);
            self.seed_or_finalize(i, &mut heap);
        }
    }

    /// Pushes lane `i`'s next wake onto the heap, or — when its next
    /// event falls past the horizon — advances it to the horizon and
    /// captures its counters.
    fn seed_or_finalize(&mut self, i: usize, heap: &mut BinaryHeap<Reverse<(Time, usize)>>) {
        let lane = &mut self.lanes[i];
        match lane.sys.next_event_at() {
            Some(at) if at <= lane.until => heap.push(Reverse((at, i))),
            _ => {
                lane.sys.advance_to(lane.until);
                let ((), metrics) = lh_obs::record(|| lane.sys.flush_obs());
                lane.metrics = metrics;
                lane.done = true;
            }
        }
    }
}
