//! The worker side of the protocol: a loop that executes assigned
//! units against a local experiment [`Registry`].
//!
//! A worker is stateless between assignments — every `assign` message
//! carries the experiment id, unit index, scale, master seed, and the
//! unit's dependency results, so any worker can run any unit at any
//! time and placement never influences results. The unit runs through
//! the same [`execute_unit`] as in the in-process runner, which derives
//! its RNG seed locally.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use lh_harness::cache::DiskCache;
use lh_harness::{execute_unit, UnitOutput};
use lh_harness::{JobContext, Registry};

use crate::protocol::{FromWorker, ToWorker};
use crate::transport::{Link, Sender};

/// Behavior knobs for [`worker_loop`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerOptions {
    /// Chaos-testing hook: return (simulating an abrupt crash, since
    /// the process then exits and the connection drops) upon receiving
    /// the n-th assignment, *before* running or acknowledging it. The
    /// coordinator must requeue that in-flight unit. `None` disables.
    pub exit_after_assigns: Option<usize>,
    /// Send a protocol-v3 `heartbeat` message at this interval from a
    /// timer thread, so the coordinator's fleet telemetry can tell a
    /// long-running unit from a hung worker. `None` (the default)
    /// disables the timer — scripted protocol tests and deterministic
    /// drives then see exactly the replies they expect.
    pub heartbeat: Option<Duration>,
}

/// The heartbeat timer: a thread sending `heartbeat` lines through the
/// shared sender until stopped. Stopping is prompt (condvar-signaled,
/// not sleep-polled) so the sender's EOF-on-drop semantics stay crisp
/// when the worker loop exits.
struct HeartbeatPump {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatPump {
    fn start(
        tx: Arc<Mutex<Box<dyn Sender>>>,
        units_done: Arc<AtomicU64>,
        failed: Arc<AtomicBool>,
        period: Duration,
    ) -> HeartbeatPump {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("lh-coord-heartbeat".into())
            .spawn(move || {
                let (lock, cvar) = &*stop2;
                let mut stopped = lock.lock().expect("heartbeat stop flag poisoned");
                loop {
                    let (guard, timeout) = cvar
                        .wait_timeout(stopped, period)
                        .expect("heartbeat stop flag poisoned");
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        let beat = FromWorker::Heartbeat {
                            units_done: units_done.load(Ordering::Relaxed),
                        }
                        .to_json();
                        let sent = tx.lock().expect("worker sender poisoned").send(&beat);
                        if sent.is_err() {
                            // The next protocol reply will surface the
                            // transport fault; beating a dead pipe is
                            // pointless.
                            failed.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            })
            .ok();
        HeartbeatPump { stop, handle }
    }
}

impl Drop for HeartbeatPump {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("heartbeat stop flag poisoned") = true;
        cvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Runs the worker protocol loop until `Shutdown`, EOF, or a transport
/// error.
///
/// For every assignment: resolve the experiment in `registry`, execute
/// the unit with its derived seed and the shipped dependency results,
/// and reply `done` with its full output — the coordinator's ledger
/// writes the unit's cache entry from that reply. A panicking unit, or
/// an assignment this registry cannot resolve, replies `failed`
/// (deterministic failures must not be requeued); the loop itself
/// keeps running.
///
/// A worker holds no cache, so `_cache` is never read; the parameter
/// stays only because the benchmark's worker mode (`benchmark/`)
/// still passes one.
///
/// # Errors
///
/// Transport faults only: an unwritable peer, or an unparseable
/// incoming line (a corrupt coordinator is not worth surviving).
pub fn worker_loop(
    registry: &Registry,
    link: Link,
    _cache: Option<DiskCache>,
    options: WorkerOptions,
) -> std::io::Result<()> {
    let Link { tx, mut rx, child } = link;
    drop(child); // worker side never holds a child process
    let tx = Arc::new(Mutex::new(tx));
    let units_done = Arc::new(AtomicU64::new(0));
    let beat_failed = Arc::new(AtomicBool::new(false));
    let send = |msg: &lh_harness::Json| tx.lock().expect("worker sender poisoned").send(msg);
    send(&FromWorker::ready().to_json())?;
    // Keep the pump alive for the whole loop; dropping it (on any exit
    // path) stops and joins the timer thread before the sender drops.
    let _pump = options.heartbeat.map(|period| {
        HeartbeatPump::start(
            Arc::clone(&tx),
            Arc::clone(&units_done),
            Arc::clone(&beat_failed),
            period,
        )
    });
    // Build-once intermediates (decoded traces) shared across every
    // assignment this worker process executes.
    let memo = lh_harness::Memo::new();
    let mut assigns = 0usize;
    while let Some(msg) = rx.recv()? {
        let msg = ToWorker::from_json(&msg)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let (experiment, unit, scale, seed, events, events_cap, deps) = match msg {
            ToWorker::Shutdown => break,
            ToWorker::Assign {
                experiment,
                unit,
                scale,
                seed,
                events,
                events_cap,
                deps,
            } => (experiment, unit, scale, seed, events, events_cap, deps),
        };

        assigns += 1;
        if options.exit_after_assigns.is_some_and(|n| assigns >= n) {
            return Ok(());
        }

        // The flight request is assignment state, not worker state: it
        // rides the unit's context, so a worker serving a mixed stream
        // (events on, then off) captures exactly what each unit's cache
        // key promises.
        let flight = events.then(|| usize::try_from(events_cap).unwrap_or(usize::MAX));
        let reply = match run_assignment(
            registry,
            &experiment,
            unit,
            &scale,
            seed,
            flight,
            &deps,
            &memo,
        ) {
            Ok(output) => {
                units_done.fetch_add(1, Ordering::Relaxed);
                FromWorker::Done {
                    experiment,
                    unit,
                    wall_ms: u64::try_from(output.wall_ms).unwrap_or(u64::MAX),
                    metrics: output.metrics,
                    result: output.result,
                    events: output.events,
                }
            }
            Err(error) => FromWorker::Failed {
                experiment,
                unit,
                error,
            },
        };
        send(&reply.to_json())?;
        if beat_failed.load(Ordering::Relaxed) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "heartbeat send failed; peer is gone",
            ));
        }
    }
    Ok(())
}

/// Executes one assignment through the harness's one
/// [`execute_unit`] — capture, derived seed — turning a panicking unit
/// into an error for the `failed` reply.
#[allow(clippy::too_many_arguments)]
fn run_assignment(
    registry: &Registry,
    experiment: &str,
    unit: usize,
    scale: &str,
    seed: u64,
    flight: Option<usize>,
    deps: &[lh_harness::Json],
    memo: &lh_harness::Memo,
) -> Result<UnitOutput, String> {
    let job = registry
        .get(experiment)
        .ok_or_else(|| format!("unknown experiment '{experiment}' in this worker's registry"))?;
    let ctx = JobContext {
        scale: scale.parse()?,
        seed,
        flight,
        memo: memo.clone(),
    };
    let units = job.units(&ctx);
    let label = units.get(unit).ok_or_else(|| {
        format!(
            "unit {unit} out of range for {experiment} ({} units at scale {scale})",
            units.len()
        )
    })?;

    catch_unwind(AssertUnwindSafe(|| {
        execute_unit(job, &ctx, unit, label, deps)
    }))
    .map_err(|payload| {
        let cause = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unit panicked".to_owned());
        format!("{experiment}/{label} panicked: {cause}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::memory_pair;
    use lh_harness::{derive_seed, Job, Json};

    struct Doubler;

    impl Job for Doubler {
        fn id(&self) -> &'static str {
            "doubler"
        }
        fn description(&self) -> &'static str {
            "test job"
        }
        fn units(&self, _ctx: &JobContext) -> Vec<String> {
            vec!["a".into(), "b".into(), "boom".into()]
        }
        fn run_unit(&self, unit: usize, seed: u64, deps: &[Json], _ctx: &JobContext) -> Json {
            assert!(unit != 2, "unit 2 always panics");
            let dep_sum: u64 = deps.iter().filter_map(|d| d["v"].as_u64()).sum();
            Json::object().with("v", seed % 1000 + dep_sum)
        }
        fn finish(&self, units: Vec<Json>, _ctx: &JobContext) -> Json {
            Json::Array(units)
        }
        fn render_text(&self, _merged: &Json, _ctx: &JobContext) -> String {
            String::new()
        }
    }

    fn test_registry() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(Doubler));
        r
    }

    fn assign(unit: usize, deps: Vec<Json>) -> Json {
        ToWorker::Assign {
            experiment: "doubler".into(),
            unit,
            scale: "quick".into(),
            seed: 11,
            events: false,
            events_cap: lh_obs::flight::DEFAULT_CAP as u64,
            deps,
        }
        .to_json()
    }

    /// Drives a worker thread over the memory transport and returns its
    /// replies to a scripted message sequence.
    fn drive(messages: Vec<Json>, options: WorkerOptions) -> Vec<FromWorker> {
        let (mut coord, worker) = memory_pair();
        let handle = std::thread::spawn(move || {
            let registry = test_registry();
            worker_loop(&registry, worker, None, options)
        });
        for msg in &messages {
            coord.tx.send(msg).unwrap();
        }
        let mut replies = Vec::new();
        while let Some(msg) = coord.rx.recv().unwrap() {
            replies.push(FromWorker::from_json(&msg).unwrap());
        }
        handle.join().unwrap().unwrap();
        replies
    }

    #[test]
    fn executes_assignments_with_derived_seeds_and_deps() {
        let replies = drive(
            vec![
                assign(0, vec![]),
                assign(1, vec![Json::object().with("v", 40u64)]),
                ToWorker::Shutdown.to_json(),
            ],
            WorkerOptions::default(),
        );
        assert_eq!(replies.len(), 3, "ready + two replies: {replies:?}");
        assert!(matches!(
            replies[0],
            FromWorker::Ready {
                protocol: crate::protocol::PROTOCOL_VERSION,
                ..
            }
        ));
        let expect = |unit: usize, dep_sum: u64| {
            Json::object().with("v", derive_seed("doubler", unit, 11) % 1000 + dep_sum)
        };
        match &replies[1] {
            FromWorker::Done { unit, result, .. } => {
                assert_eq!((*unit, result), (0, &expect(0, 0)));
            }
            other => panic!("expected done, got {other:?}"),
        }
        match &replies[2] {
            FromWorker::Done { unit, result, .. } => {
                assert_eq!((*unit, result), (1, &expect(1, 40)));
            }
            other => panic!("expected done, got {other:?}"),
        }
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        let replies = drive(
            vec![
                assign(2, vec![]), // panics
                assign(9, vec![]), // out of range
                assign(0, vec![]), // still serving
                ToWorker::Shutdown.to_json(),
            ],
            WorkerOptions::default(),
        );
        assert_eq!(replies.len(), 4);
        match &replies[1] {
            FromWorker::Failed { unit, error, .. } => {
                assert_eq!(*unit, 2);
                assert!(error.contains("panicked"), "{error}");
            }
            other => panic!("expected failed, got {other:?}"),
        }
        assert!(matches!(
            &replies[2],
            FromWorker::Failed { unit: 9, error, .. } if error.contains("out of range")
        ));
        assert!(matches!(&replies[3], FromWorker::Done { unit: 0, .. }));
    }

    #[test]
    fn heartbeats_flow_between_replies_and_stop_on_shutdown() {
        let (mut coord, worker) = memory_pair();
        let options = WorkerOptions {
            heartbeat: Some(Duration::from_millis(2)),
            ..WorkerOptions::default()
        };
        let handle = std::thread::spawn(move || {
            let registry = test_registry();
            worker_loop(&registry, worker, None, options)
        });
        coord.tx.send(&assign(0, vec![])).unwrap();
        let mut beats = 0u64;
        let mut done = false;
        // Read until at least one heartbeat arrives after the reply;
        // the pump runs on wall-clock so the exact count is unknowable.
        while beats == 0 || !done {
            match FromWorker::from_json(&coord.rx.recv().unwrap().expect("worker hung up")) {
                Ok(FromWorker::Heartbeat { units_done }) => {
                    beats += 1;
                    assert!(units_done <= 1);
                }
                Ok(FromWorker::Done { unit: 0, .. }) => done = true,
                Ok(FromWorker::Ready { .. }) => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
        coord.tx.send(&ToWorker::Shutdown.to_json()).unwrap();
        // Drain to EOF: the pump must stop with the loop, so the stream
        // ends instead of beating forever.
        while let Some(msg) = coord.rx.recv().unwrap() {
            assert!(matches!(
                FromWorker::from_json(&msg),
                Ok(FromWorker::Heartbeat { .. })
            ));
        }
        handle.join().unwrap().unwrap();
        assert!(beats >= 1);
    }

    #[test]
    fn chaos_exit_drops_the_connection_before_acknowledging() {
        let replies = drive(
            vec![assign(0, vec![]), assign(1, vec![])],
            WorkerOptions {
                exit_after_assigns: Some(2),
                ..WorkerOptions::default()
            },
        );
        // Ready, then one done; the second assignment is swallowed by
        // the simulated crash and the stream just ends.
        assert_eq!(replies.len(), 2, "{replies:?}");
        assert!(matches!(&replies[1], FromWorker::Done { unit: 0, .. }));
    }
}
