//! The lane engine: the cells of a parameter sweep run as whole solo
//! runs, spread over every core.
//!
//! A *lane* is one sweep cell (one (defense, `N_RH`, mitigation) point)
//! as a closure: it builds its [`crate::System`], runs it to the lane's
//! horizon, extracts its result and drops the system. [`run_lanes`]
//! hands the lane indices out from one atomic counter to
//! `min(available_parallelism, lanes)` workers — the calling thread plus
//! scoped helpers — so at most one `System` per worker is ever alive,
//! and a lane's system never leaves the thread that built it. Lanes
//! share no mutable state, so what a lane computes is a pure function
//! of its index: which worker ran it, and when, cannot change it.
//!
//! ## Why whole lanes
//!
//! The engine before this one built every lane's system up front and
//! advanced them in 20 µs slices over a shared wake heap, for locality.
//! It bought none: on one thread that batch ran at ≈ 0.95× the speed of
//! the same cells run one after another, and holding all of a batch's
//! systems at once set the benchmark's peak memory (25 four-core
//! systems in a `perf_sweep` batch). Traced on two vCPUs, `perf_sweep`'s
//! 25-lane batches (the `sim.lane_batch` span) read 297–445 ms run
//! whole against 303–569 ms sliced, over four runs per side. Since
//! Fig. 13's PRAC and PRAC-Bank cells replay the undefended run when
//! its certificate admits them and a cell whose config equals an
//! earlier cell's takes that cell's lane (`leakyhammer::experiment::perf`),
//! those batches simulate 13 lanes.
//!
//! ## Order and results
//!
//! Lanes are claimed in index order, so a caller puts its longest lane
//! first: claimed last, it would leave the other workers idle while it
//! ran. The caller gets the results in lane order whatever the order
//! the lanes finished in.
//!
//! Each lane runs under its own [`lh_obs::record`] scope on its worker,
//! so its counters are exact however the lanes were spread. The caller
//! re-emits them into its own scope in lane order, so a unit's counters
//! are the same as if it had run its lanes one after another.
//!
//! ## Flight recording
//!
//! The [`lh_obs::flight`] capture scope is thread-local and a system
//! records only while [`lh_obs::flight::active`] holds on its thread.
//! A batch run inside a capture scope therefore runs on one worker, the
//! caller, in lane order: the log holds exactly what running the lanes
//! one after another records, segment ids and ring evictions included.
//!
//! ## Panics and memory
//!
//! A lane panic stops the batch: no worker claims another lane, and
//! [`run_lanes`] re-raises the first panic's own payload on the calling
//! thread, so a caller's `catch_unwind` sees the lane's message.
//!
//! Every thread that allocates gets its own glibc malloc arena, whose
//! free space no other thread reuses. The calling thread is one of the
//! workers rather than an idle waiter, and helpers are joined before
//! `run_lanes` returns, so a helper has released its arena before the
//! next batch spawns one.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

/// Runs lanes `0..lanes` — `lane(i)` for each `i` — on every core (one
/// worker inside a flight-capture scope) and returns their results in
/// lane order. See the module docs for the contract.
///
/// # Panics
///
/// Re-raises, with its own payload, the first panic of any lane.
///
/// # Examples
///
/// ```
/// use lh_defenses::DefenseConfig;
/// use lh_dram::Time;
/// use lh_sim::{run_lanes, SystemBuilder};
///
/// let nrhs = [1024, 64];
/// let wakes = run_lanes(nrhs.len(), |i| {
///     let mut sys = SystemBuilder::new(DefenseConfig::prac(nrhs[i]))
///         .seed(7)
///         .build()
///         .unwrap();
///     sys.run_until(Time::from_us(30));
///     sys.controller().stats().service_calls
/// });
/// assert_eq!(wakes.len(), 2);
/// assert!(wakes[0] > 0);
/// ```
pub fn run_lanes<R: Send>(lanes: usize, lane: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let _span = lh_obs::Span::enter("sim.lane_batch", "sim");
    let workers = if lh_obs::flight::active() {
        1
    } else {
        thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(lanes)
    };
    // The claim counter publishes nothing: results and the first panic
    // travel under their own locks, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let slots = Mutex::new((0..lanes).map(|_| None).collect::<Vec<_>>());
    let first_panic = Mutex::new(None);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= lanes {
            return;
        }
        match panic::catch_unwind(AssertUnwindSafe(|| lh_obs::record(|| lane(i)))) {
            Ok(done) => lock(&slots)[i] = Some(done),
            Err(payload) => {
                // Exhaust the counter: no worker claims another lane.
                next.store(lanes, Ordering::Relaxed);
                lock(&first_panic).get_or_insert(payload);
            }
        }
    };
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        work();
        // Joining waits until each helper has exited and released its
        // malloc arena for the next batch's helpers to reuse; the end of
        // the scope alone does not, and arenas pile up.
        for helper in helpers {
            if let Err(payload) = helper.join() {
                panic::resume_unwind(payload);
            }
        }
    });
    if let Some(payload) = lock(&first_panic).take() {
        panic::resume_unwind(payload);
    }
    let slots = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
    slots
        .into_iter()
        .map(|slot| {
            let (result, metrics) = slot.expect("every lane ran");
            lh_obs::emit(&metrics);
            result
        })
        .collect()
}

/// Locks a batch's shared state. No worker panics while holding a lock
/// (lane panics are caught outside them), so none is ever poisoned.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_lane_panic_reaches_the_caller_with_its_own_payload() {
        let started = AtomicUsize::new(0);
        let lanes = 1000;
        let payload = panic::catch_unwind(AssertUnwindSafe(|| {
            run_lanes(lanes, |i| {
                started.fetch_add(1, Ordering::Relaxed);
                if i == 2 {
                    panic!("lane {i} panicked");
                }
                thread::sleep(Duration::from_millis(1));
            })
        }))
        .expect_err("lane 2 panics");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("lane 2 panicked")
        );
        let started = started.load(Ordering::Relaxed);
        assert!(
            started < lanes,
            "workers kept claiming lanes after the panic ({started} started)"
        );
    }
}
