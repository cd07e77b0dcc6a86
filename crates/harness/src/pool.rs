//! A work-claiming thread pool that schedules unit DAGs topologically.
//!
//! Workers claim *ready* units — units whose dependencies have all
//! completed — from a shared scheduler. Independent units (the common
//! case: every flat sweep) degenerate to plain work claiming with
//! perfect load balance for units of unequal cost; the scheduler's
//! per-unit overhead (one mutex hop and a heap pop) is noise next to
//! any real simulation unit.
//!
//! The pool only orders execution; it carries no results. The run
//! `ledger` keeps every unit's output in its unit's
//! slot and hands a dependent its inputs, so claim order never
//! influences results — a unit's inputs are its index, its dependency
//! outputs (fixed by the DAG) and whatever the caller derives from the
//! index (seeds) — and any worker count produces bit-identical output.

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

/// Validates `deps` as a DAG over `deps.len()` units.
///
/// Returns the number of units on success.
///
/// # Errors
///
/// Out-of-range or self dependencies, and dependency cycles, are
/// reported with the offending unit indices.
pub fn validate_dag(deps: &[Vec<usize>]) -> Result<usize, String> {
    let n = deps.len();
    for (unit, unit_deps) in deps.iter().enumerate() {
        for &d in unit_deps {
            if d >= n {
                return Err(format!(
                    "unit {unit} depends on out-of-range unit {d} (only {n} units)"
                ));
            }
            if d == unit {
                return Err(format!("unit {unit} depends on itself"));
            }
        }
    }
    // Kahn's algorithm: if a topological order does not cover every
    // unit, the leftovers are exactly the units on or downstream of a
    // cycle.
    let mut indegree: Vec<usize> = deps.iter().map(Vec::len).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&u| indegree[u] == 0).collect();
    let dependents = dependents_of(deps);
    let mut ordered = 0;
    while let Some(u) = ready.pop() {
        ordered += 1;
        for &t in &dependents[u] {
            indegree[t] -= 1;
            if indegree[t] == 0 {
                ready.push(t);
            }
        }
    }
    if ordered < n {
        let stuck: Vec<usize> = (0..n).filter(|&u| indegree[u] > 0).collect();
        return Err(format!(
            "dependency cycle: units {stuck:?} can never become ready"
        ));
    }
    Ok(n)
}

/// Reverse adjacency: for each unit, the units that depend on it.
fn dependents_of(deps: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut dependents = vec![Vec::new(); deps.len()];
    for (unit, unit_deps) in deps.iter().enumerate() {
        for &d in unit_deps {
            dependents[d].push(unit);
        }
    }
    dependents
}

/// An incremental topological scheduler over a validated unit DAG.
///
/// The scheduling core shared by the in-process thread pool
/// (`run_dag`) and the multi-process coordinator (`lh-coord`): track
/// which units are *ready* (all dependencies completed), hand them out
/// lowest-index-first, and relax dependents as completions arrive.
/// [`DagSchedule::requeue`] puts a claimed-but-unfinished unit back in
/// the ready set, which is how the coordinator tolerates a worker dying
/// mid-unit.
#[derive(Debug)]
pub struct DagSchedule {
    /// Reverse adjacency, fixed at construction.
    dependents: Vec<Vec<usize>>,
    /// Remaining unfinished dependencies per unit.
    indegree: Vec<usize>,
    /// Min-heap of ready unit indices (lowest index claimed first, so
    /// serial execution order is a stable topological order).
    ready: BinaryHeap<std::cmp::Reverse<usize>>,
    /// Completed units.
    completed: usize,
}

impl DagSchedule {
    /// Builds a schedule over `deps`, validating it as a DAG first.
    ///
    /// # Errors
    ///
    /// The same conditions as [`validate_dag`].
    pub fn new(deps: &[Vec<usize>]) -> Result<DagSchedule, String> {
        validate_dag(deps)?;
        let indegree: Vec<usize> = deps.iter().map(Vec::len).collect();
        let ready = (0..deps.len())
            .filter(|&u| indegree[u] == 0)
            .map(std::cmp::Reverse)
            .collect();
        Ok(DagSchedule {
            dependents: dependents_of(deps),
            indegree,
            ready,
            completed: 0,
        })
    }

    /// Claims the lowest-index ready unit, if any. `None` means either
    /// everything is done or all remaining units wait on claimed ones.
    pub fn claim(&mut self) -> Option<usize> {
        self.ready.pop().map(|std::cmp::Reverse(u)| u)
    }

    /// Returns a claimed unit to the ready set without completing it
    /// (its executor died; someone else must run it).
    pub fn requeue(&mut self, unit: usize) {
        self.ready.push(std::cmp::Reverse(unit));
    }

    /// Marks a claimed unit complete, readying any dependents whose
    /// last dependency this was.
    pub fn complete(&mut self, unit: usize) {
        self.completed += 1;
        for &t in &self.dependents[unit] {
            self.indegree[t] -= 1;
            if self.indegree[t] == 0 {
                self.ready.push(std::cmp::Reverse(t));
            }
        }
    }

    /// Completed units so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Total units in the schedule.
    pub(crate) fn total(&self) -> usize {
        self.indegree.len()
    }

    /// Whether every unit has completed.
    pub fn is_done(&self) -> bool {
        self.completed == self.total()
    }
}

/// Shared scheduler state behind one mutex.
struct SchedState {
    /// The topological schedule.
    sched: DagSchedule,
    /// Set when a worker panicked; everyone else drains and exits.
    poisoned: bool,
}

/// Runs `work(i)` for every unit of a dependency DAG, on up to `jobs`
/// threads.
///
/// `deps[i]` lists the units that must finish before unit `i` starts:
/// `work(i)` is called only after `work(d)` has returned for every `d`
/// in it, and sees everything those calls wrote. Units are claimed
/// lowest-index-first among the ready set.
///
/// # Errors
///
/// Fails without executing anything if `deps` is not a DAG (cycles,
/// out-of-range or self dependencies).
///
/// Panics in `work` are propagated: the pool stops claiming new units,
/// finishes outstanding claims, then re-panics on the caller thread.
pub(crate) fn run_dag<F>(jobs: usize, deps: &[Vec<usize>], work: F) -> Result<(), String>
where
    F: Fn(usize) + Sync,
{
    let mut sched = DagSchedule::new(deps)?;
    let jobs = jobs.max(1).min(sched.total().max(1));
    if jobs <= 1 {
        // Serial: claim in the same lowest-index-first topological
        // order the parallel scheduler uses.
        while let Some(u) = sched.claim() {
            work(u);
            sched.complete(u);
        }
        return Ok(());
    }

    let state = Mutex::new(SchedState {
        sched,
        poisoned: false,
    });
    let ready_cv = Condvar::new();
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let unit = {
                    let mut s = state.lock().expect("scheduler state poisoned");
                    loop {
                        if s.poisoned || s.sched.is_done() {
                            return;
                        }
                        if let Some(u) = s.sched.claim() {
                            break u;
                        }
                        s = ready_cv.wait(s).expect("scheduler state poisoned");
                    }
                };
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(unit))) {
                    Ok(()) => {
                        let mut s = state.lock().expect("scheduler state poisoned");
                        s.sched.complete(unit);
                        ready_cv.notify_all();
                    }
                    Err(payload) => {
                        panic_payload
                            .lock()
                            .expect("panic slot poisoned")
                            .get_or_insert(payload);
                        state.lock().expect("scheduler state poisoned").poisoned = true;
                        ready_cv.notify_all();
                        return;
                    }
                }
            });
        }
    });

    if let Some(payload) = panic_payload.into_inner().expect("panic slot poisoned") {
        std::panic::resume_unwind(payload);
    }
    Ok(())
}

/// A reasonable default worker count for this machine.
pub(crate) fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// Runs `deps` on `jobs` threads, checking inside every unit that
    /// its dependencies have finished; returns per-unit run counts.
    fn run_checked(jobs: usize, deps: &[Vec<usize>]) -> Vec<usize> {
        let runs: Vec<AtomicUsize> = deps.iter().map(|_| AtomicUsize::new(0)).collect();
        let done: Vec<AtomicBool> = deps.iter().map(|_| AtomicBool::new(false)).collect();
        run_dag(jobs, deps, |i| {
            for &d in &deps[i] {
                assert!(
                    done[d].load(Ordering::SeqCst),
                    "unit {i} started before its dependency {d} finished (jobs={jobs})"
                );
            }
            runs[i].fetch_add(1, Ordering::SeqCst);
            done[i].store(true, Ordering::SeqCst);
        })
        .unwrap();
        runs.iter().map(|r| r.load(Ordering::SeqCst)).collect()
    }

    #[test]
    fn runs_every_unit_exactly_once_for_any_job_count() {
        let deps: Vec<Vec<usize>> = (0..97).map(|_| Vec::new()).collect();
        for jobs in [1, 2, 3, 8, 64] {
            assert_eq!(run_checked(jobs, &deps), vec![1; 97], "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_items_work() {
        assert!(run_checked(8, &[]).is_empty());
        assert_eq!(run_checked(8, &[vec![]]), vec![1]);
    }

    #[test]
    fn work_actually_runs_concurrently() {
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        let deps: Vec<Vec<usize>> = (0..16).map(|_| Vec::new()).collect();
        run_dag(4, &deps, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            live.fetch_sub(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "expected concurrent execution"
        );
    }

    #[test]
    fn panics_propagate() {
        let deps: Vec<Vec<usize>> = (0..8).map(|_| Vec::new()).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_dag(4, &deps, |i| assert!(i != 3, "unit 3 failed"))
        }));
        assert!(result.is_err());
    }

    /// A diamond: 0 → {1, 2} → 3. Every unit runs once, and only after
    /// everything it depends on, at any worker count.
    #[test]
    fn dag_units_start_only_after_their_dependencies() {
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        for jobs in [1, 2, 4, 8] {
            assert_eq!(run_checked(jobs, &deps), vec![1; 4], "jobs={jobs}");
        }
    }

    #[test]
    fn dag_chains_execute_in_order_at_full_parallelism() {
        // A pure chain 0 → 1 → ... → 31 forces the scheduler to respect
        // edges even with more workers than ready units.
        let deps: Vec<Vec<usize>> = (0..32)
            .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
            .collect();
        assert_eq!(run_checked(16, &deps), vec![1; 32]);
    }

    /// The standalone schedule honors edges across claim/requeue: a
    /// requeued unit becomes claimable again, and a dependent only
    /// readies once its last dependency *completes* (not when claimed).
    #[test]
    fn dag_schedule_claims_requeues_and_completes() {
        let deps = vec![vec![], vec![], vec![0, 1]];
        let mut sched = DagSchedule::new(&deps).unwrap();
        assert_eq!(sched.total(), 3);
        assert_eq!(sched.claim(), Some(0));
        assert_eq!(sched.claim(), Some(1));
        assert_eq!(sched.claim(), None, "unit 2 waits on 0 and 1");

        // Unit 0's executor dies: requeue hands it to the next claimant.
        sched.requeue(0);
        assert_eq!(sched.claim(), Some(0));

        sched.complete(0);
        assert_eq!(sched.claim(), None, "unit 2 still waits on 1");
        sched.complete(1);
        assert_eq!(sched.claim(), Some(2));
        assert!(!sched.is_done());
        sched.complete(2);
        assert!(sched.is_done());
        assert_eq!(sched.completed(), 3);

        assert!(DagSchedule::new(&[vec![1], vec![0]]).is_err());
    }

    #[test]
    fn cycles_and_bad_edges_are_rejected_before_running() {
        let ran = AtomicUsize::new(0);
        let work = |_: usize| {
            ran.fetch_add(1, Ordering::SeqCst);
        };
        let err = run_dag(4, &[vec![1], vec![0]], work).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
        let err = run_dag(4, &[vec![7]], work).unwrap_err();
        assert!(err.contains("out-of-range"), "{err}");
        let err = run_dag(4, &[vec![0]], work).unwrap_err();
        assert!(err.contains("itself"), "{err}");
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "rejection must pre-empt execution"
        );
    }
}
