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
//! [`LaneBatch::run`] drains it with `min(available_parallelism,
//! unfinished lanes)` workers: the calling thread plus scoped helpers.
//! A worker pops the minimum under the heap lock, advances that lane
//! through every event inside one scheduling slice — from its wake
//! instant to `wake + SLICE` ([`System::advance_to`]) — outside the
//! lock, then re-inserts it at its next event. The lock is taken twice
//! per slice, i.e. once per thousands of events. The slice sets
//! scheduling *granularity* only: lanes share no mutable state, so each
//! lane's event sequence is a pure function of its own configuration
//! and neither the slice width nor which worker advanced which slice
//! can perturb any lane's results — the slice exists so a lane runs
//! cache-hot for thousands of events instead of being evicted after
//! each one. Ties at equal wake times resolve to the lowest lane index;
//! with several workers that order decides only which lane is claimed
//! first, never what a lane computes. A lane whose next event falls
//! past its horizon is advanced to the horizon exactly — byte-identical
//! to a solo `run_until(horizon)` — and finalized on the worker that
//! advanced it.
//!
//! The calling thread is one of the workers rather than an idle waiter,
//! and `run` joins its helpers before it returns. Every thread that
//! allocates gets its own glibc malloc arena, whose free space no other
//! thread reuses, so each extra thread adds resident slack; a helper
//! that has not fully exited when the next batch spawns its own makes
//! glibc open yet another arena.
//!
//! A lane panic stops the batch: no worker claims another lane, and
//! [`LaneBatch::run`] re-raises the first panic's own payload on the
//! calling thread, so a caller's `catch_unwind` sees the lane's message.
//!
//! ## Flight recording
//!
//! The [`lh_obs::flight`] capture scope is thread-local and the
//! controller records only while [`lh_obs::flight::active`] holds on
//! the thread advancing it. A batch run inside a capture scope
//! therefore uses one worker — the same loop, with the calling thread
//! as its only worker — so every lane's events land in the caller's
//! log.
//!
//! ## Per-lane observability
//!
//! At finalization each lane's counters are captured under a private
//! `lh_obs` scope ([`lh_obs::record`] around [`System::flush_obs`]) on
//! the finalizing worker, so `sim.service_wakes` / `sim.cmd.*` stay
//! per-cell exact whichever thread ran the lane. The caller
//! re-attributes a lane's [`Metrics`] wherever it wants — typically via
//! [`lh_obs::emit`] inside the harness's per-unit scope. The eventual
//! drop-flush emits only zero deltas and never double-counts.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

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

impl Lane {
    /// The lane's next wake, or `None` once its next event falls past
    /// the horizon — after advancing it to the horizon and capturing
    /// its counters.
    fn next_wake(&mut self) -> Option<Time> {
        match self.sys.next_event_at() {
            Some(at) if at <= self.until => Some(at),
            _ => {
                self.sys.advance_to(self.until);
                let ((), metrics) = lh_obs::record(|| self.sys.flush_obs());
                self.metrics = metrics;
                self.done = true;
                None
            }
        }
    }
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
    /// wake heap, on as many workers as the host has cores (one inside
    /// a flight-capture scope; see the module docs).
    ///
    /// # Panics
    ///
    /// Re-raises, with its own payload, the first panic of any lane.
    pub fn run(&mut self) {
        let _span = lh_obs::Span::enter("sim.lane_batch", "sim");
        let mut heap = BinaryHeap::new();
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            if lane.done {
                continue;
            }
            if let Some(at) = lane.next_wake() {
                heap.push(Reverse((at, i)));
            }
        }
        let workers = if lh_obs::flight::active() {
            1
        } else {
            thread::available_parallelism()
                .map_or(1, NonZeroUsize::get)
                .min(heap.len())
        };
        let shared = Workers {
            queue: Mutex::new(Queue {
                heap,
                lanes: self.lanes.iter_mut().map(Some).collect(),
                claimed: 0,
                panic: None,
            }),
            changed: Condvar::new(),
        };
        thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers)
                .map(|_| scope.spawn(|| shared.work()))
                .collect();
            shared.work();
            // Joining waits until each helper has exited and released
            // its malloc arena for the next batch's helpers to reuse;
            // the end of the scope alone does not, and arenas pile up.
            for helper in helpers {
                if let Err(payload) = helper.join() {
                    panic::resume_unwind(payload);
                }
            }
        });
        let first_panic = lock(&shared.queue).panic.take();
        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }
    }
}

// Workers carry lanes across threads: a field that is not `Send` fails
// to compile here, beside the types, not at a distant `thread::scope`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<System>();
    assert_send::<LaneBatch>();
};

/// The wake heap and its bookkeeping, under one lock.
struct Queue<'a> {
    heap: BinaryHeap<Reverse<(Time, usize)>>,
    /// Lane `i`, or `None` while a worker holds it (or it finished): a
    /// lane is in the heap at most once, so one worker at a time owns it.
    lanes: Vec<Option<&'a mut Lane>>,
    /// Lanes a worker has claimed and not yet returned or finalized.
    claimed: usize,
    /// The first lane panic's payload; once set, no worker claims.
    panic: Option<Box<dyn Any + Send>>,
}

/// What the workers of one [`LaneBatch::run`] share.
struct Workers<'a> {
    queue: Mutex<Queue<'a>>,
    /// Signalled when a lane returns to the heap, the last lane
    /// finishes, or a lane panics.
    changed: Condvar,
}

impl<'a> Workers<'a> {
    /// One worker: claims the earliest lane, advances it one slice,
    /// returns it, until the heap is drained or a lane panicked.
    fn work(&self) {
        while let Some((wake, i, lane)) = self.claim() {
            let next = panic::catch_unwind(AssertUnwindSafe(|| {
                let target = (wake + SLICE).min(lane.until);
                lane.sys.advance_to(target);
                lane.next_wake()
            }));
            self.release(i, lane, next);
        }
    }

    /// Takes the earliest lane out of the queue, waiting while every
    /// unfinished lane is claimed elsewhere; `None` once all lanes are
    /// done or one panicked.
    fn claim(&self) -> Option<(Time, usize, &'a mut Lane)> {
        let mut queue = lock(&self.queue);
        loop {
            if queue.panic.is_some() {
                return None;
            }
            if let Some(Reverse((wake, i))) = queue.heap.pop() {
                queue.claimed += 1;
                let lane = queue.lanes[i].take().expect("a lane is queued once");
                return Some((wake, i, lane));
            }
            if queue.claimed == 0 {
                return None;
            }
            queue = self
                .changed
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Returns lane `i` after a slice: back onto the heap at its next
    /// wake, finished, or — on a panic — stopping every worker.
    fn release(&self, i: usize, lane: &'a mut Lane, next: thread::Result<Option<Time>>) {
        let mut queue = lock(&self.queue);
        queue.claimed -= 1;
        match next {
            Ok(Some(at)) => {
                queue.lanes[i] = Some(lane);
                queue.heap.push(Reverse((at, i)));
                self.changed.notify_one();
            }
            Ok(None) => {
                if queue.claimed == 0 && queue.heap.is_empty() {
                    self.changed.notify_all();
                }
            }
            Err(payload) => {
                queue.panic.get_or_insert(payload);
                self.changed.notify_all();
            }
        }
    }
}

/// Locks the queue. No worker panics while holding it (lane panics are
/// caught outside it), so it is never poisoned.
fn lock<T>(queue: &Mutex<T>) -> MutexGuard<'_, T> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Process, ProcessStep};
    use lh_defenses::DefenseConfig;

    /// Sleeps in 1 µs steps; panics with its lane's name once simulated
    /// time reaches `at`.
    struct PanicAt {
        lane: usize,
        at: Time,
    }

    impl Process for PanicAt {
        fn step(&mut self, now: Time) -> ProcessStep {
            if now >= self.at {
                panic!("lane {} reached its panic instant", self.lane);
            }
            ProcessStep::SleepUntil(now + Span::from_us(1))
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn a_lane_panic_reaches_the_caller_with_its_own_payload() {
        let mut batch = LaneBatch::new();
        for lane in 0..4 {
            let builder = SystemBuilder::new(DefenseConfig::none()).seed(1);
            let i = batch.push_lane(builder, Time::from_us(100)).unwrap();
            let at = if lane == 2 {
                Time::from_us(50)
            } else {
                Time::MAX
            };
            let process = Box::new(PanicAt { lane, at });
            batch.lane_mut(i).add_process(process, 1, Time::ZERO);
        }
        let payload = panic::catch_unwind(AssertUnwindSafe(|| batch.run()))
            .expect_err("lane 2 panics inside the run");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("lane 2 reached its panic instant")
        );
    }
}
