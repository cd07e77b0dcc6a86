//! Volatile fleet telemetry: the coordinator's live view of its
//! workers, shared with dashboards through a cloneable handle.
//!
//! Everything here is wall-clock shaped — heartbeat ages, in-flight
//! unit labels, death counts — and therefore lives strictly outside
//! the deterministic metrics channel: snapshots feed `GET /metrics`,
//! the `fleet` stream events and the `watch` worker-health column, but
//! never envelopes or cache entries. The coordinator updates the inner
//! state as protocol events arrive; any number of reader threads (the
//! serve HTTP handlers, stream followers) snapshot it concurrently
//! while [`Coordinator::run`](crate::Coordinator::run) blocks.
//!
//! This is the only place a worker spawn, loss, requeue, respawn or
//! heartbeat is counted: [`Coordinator::stats`](crate::Coordinator::stats)
//! reads its lifetime counters, and serve's `/metrics` page prints
//! them as the `lh_fleet_*` family.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use lh_harness::json::Json;

/// One worker's live state, as of a [`FleetTelemetry::snapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// Slot index (stable across the worker's lifetime).
    pub index: usize,
    /// OS process id from the `ready` handshake (0 for threads).
    pub pid: u64,
    /// Whether the coordinator still considers the worker usable.
    pub alive: bool,
    /// The `experiment/unit-label` currently executing, if any.
    pub in_flight: Option<String>,
    /// Units this worker has completed.
    pub units_done: u64,
    /// Milliseconds since the worker was last heard from (any
    /// message counts as a beat). `None` before the handshake.
    pub beat_age_ms: Option<u64>,
}

#[derive(Debug, Default)]
struct WorkerInner {
    pid: u64,
    alive: bool,
    in_flight: Option<String>,
    units_done: u64,
    last_beat: Option<Instant>,
}

#[derive(Debug, Default)]
struct FleetInner {
    workers: Vec<WorkerInner>,
    spawned: u64,
    lost: u64,
    requeued: u64,
    respawns_used: u64,
    heartbeats: u64,
}

/// A point-in-time copy of the fleet state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Per-worker state, in slot order (dead slots included — their
    /// terminal state is part of the failure story).
    pub workers: Vec<WorkerTelemetry>,
    /// Workers launched, including replacements.
    pub workers_spawned: u64,
    /// Workers discarded after dying or misbehaving.
    pub workers_lost: u64,
    /// In-flight units requeued by worker deaths.
    pub units_requeued: u64,
    /// Respawn-budget draws so far.
    pub respawns_used: u64,
    /// Heartbeat messages received.
    pub heartbeats: u64,
}

impl FleetSnapshot {
    /// The snapshot as a JSON object — the `fleet` field of the
    /// `fleet` stream event, and the shape serve's run-status endpoint
    /// embeds.
    pub fn to_json(&self) -> Json {
        let workers = self
            .workers
            .iter()
            .map(|w| {
                let mut obj = Json::object()
                    .with("index", w.index)
                    .with("pid", w.pid)
                    .with("alive", w.alive)
                    .with("units_done", w.units_done);
                match &w.in_flight {
                    Some(label) => obj.set("busy", label.as_str()),
                    None => obj.set("busy", Json::Null),
                }
                match w.beat_age_ms {
                    Some(ms) => obj.set("beat_age_ms", ms),
                    None => obj.set("beat_age_ms", Json::Null),
                }
                obj
            })
            .collect();
        Json::object()
            .with("workers", Json::Array(workers))
            .with("spawned", self.workers_spawned)
            .with("lost", self.workers_lost)
            .with("requeued", self.units_requeued)
            .with("respawns_used", self.respawns_used)
            .with("heartbeats", self.heartbeats)
    }
}

/// Cloneable, thread-safe handle to the coordinator's fleet state.
#[derive(Debug, Clone, Default)]
pub struct FleetTelemetry {
    inner: Arc<Mutex<FleetInner>>,
}

impl FleetTelemetry {
    fn lock(&self) -> std::sync::MutexGuard<'_, FleetInner> {
        self.inner.lock().expect("fleet telemetry poisoned")
    }

    /// Registers slot `index` as spawned (and alive). `respawn` marks a
    /// replacement drawn from the respawn budget.
    pub(crate) fn worker_spawned(&self, index: usize, respawn: bool) {
        let mut inner = self.lock();
        if inner.workers.len() <= index {
            inner.workers.resize_with(index + 1, WorkerInner::default);
        }
        inner.workers[index] = WorkerInner {
            alive: true,
            ..WorkerInner::default()
        };
        inner.spawned += 1;
        if respawn {
            inner.respawns_used += 1;
        }
    }

    /// Records the `ready` handshake (pid + first beat).
    pub(crate) fn worker_ready(&self, index: usize, pid: u64) {
        let mut inner = self.lock();
        if let Some(w) = inner.workers.get_mut(index) {
            w.pid = pid;
            w.last_beat = Some(Instant::now());
        }
    }

    /// Records an assignment: `label` is `experiment/unit-label`.
    pub(crate) fn worker_assigned(&self, index: usize, label: String) {
        let mut inner = self.lock();
        if let Some(w) = inner.workers.get_mut(index) {
            w.in_flight = Some(label);
        }
    }

    /// Records a completed assignment.
    pub(crate) fn worker_done(&self, index: usize) {
        let mut inner = self.lock();
        if let Some(w) = inner.workers.get_mut(index) {
            w.in_flight = None;
            w.units_done += 1;
            w.last_beat = Some(Instant::now());
        }
    }

    /// Records a heartbeat carrying the worker's own completion count.
    pub(crate) fn worker_heartbeat(&self, index: usize, units_done: u64) {
        let mut inner = self.lock();
        inner.heartbeats += 1;
        if let Some(w) = inner.workers.get_mut(index) {
            w.last_beat = Some(Instant::now());
            w.units_done = w.units_done.max(units_done);
        }
    }

    /// Records a worker death.
    pub(crate) fn worker_lost(&self, index: usize) {
        let mut inner = self.lock();
        if let Some(w) = inner.workers.get_mut(index) {
            w.alive = false;
            w.in_flight = None;
        }
        inner.lost += 1;
    }

    /// Records one in-flight unit returned to the queue by a death.
    pub(crate) fn unit_requeued(&self) {
        self.lock().requeued += 1;
    }

    /// Marks every worker dead (fleet shutdown).
    pub(crate) fn fleet_down(&self) {
        let mut inner = self.lock();
        for w in &mut inner.workers {
            w.alive = false;
            w.in_flight = None;
        }
    }

    /// A point-in-time copy of the fleet state, with heartbeat ages
    /// computed against the snapshot instant.
    pub fn snapshot(&self) -> FleetSnapshot {
        let now = Instant::now();
        let inner = self.lock();
        FleetSnapshot {
            workers: inner
                .workers
                .iter()
                .enumerate()
                .map(|(index, w)| WorkerTelemetry {
                    index,
                    pid: w.pid,
                    alive: w.alive,
                    in_flight: w.in_flight.clone(),
                    units_done: w.units_done,
                    beat_age_ms: w.last_beat.map(|t| {
                        u64::try_from(now.saturating_duration_since(t).as_millis())
                            .unwrap_or(u64::MAX)
                    }),
                })
                .collect(),
            workers_spawned: inner.spawned,
            workers_lost: inner.lost,
            units_requeued: inner.requeued,
            respawns_used: inner.respawns_used,
            heartbeats: inner.heartbeats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_shows_up_in_snapshots() {
        let fleet = FleetTelemetry::default();
        fleet.worker_spawned(0, false);
        fleet.worker_spawned(1, false);
        fleet.worker_ready(0, 42);
        fleet.worker_assigned(0, "fig2/noise:0".into());
        fleet.worker_heartbeat(0, 0);
        let snap = fleet.snapshot();
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[0].pid, 42);
        assert_eq!(snap.workers[0].in_flight.as_deref(), Some("fig2/noise:0"));
        assert!(snap.workers[0].beat_age_ms.is_some());
        assert_eq!(snap.workers[1].beat_age_ms, None, "no handshake yet");
        assert_eq!(snap.heartbeats, 1);

        fleet.worker_done(0);
        fleet.worker_lost(1);
        fleet.unit_requeued();
        let snap = fleet.snapshot();
        assert_eq!(snap.workers[0].units_done, 1);
        assert_eq!(snap.workers[0].in_flight, None);
        assert!(!snap.workers[1].alive);
        assert_eq!(snap.workers_lost, 1);
        assert_eq!(snap.units_requeued, 1);

        // A respawn reuses slot accounting but bumps the budget line.
        fleet.worker_spawned(2, true);
        let snap = fleet.snapshot();
        assert_eq!(snap.workers_spawned, 3);
        assert_eq!(snap.respawns_used, 1);
    }

    #[test]
    fn snapshot_json_is_dashboard_shaped() {
        let fleet = FleetTelemetry::default();
        fleet.worker_spawned(0, false);
        fleet.worker_assigned(0, "fig2/noise:1".into());
        let json = fleet.snapshot().to_json();
        assert_eq!(json["workers"][0]["busy"].as_str(), Some("fig2/noise:1"));
        assert_eq!(json["workers"][0]["alive"].as_bool(), Some(true));
        assert_eq!(json["spawned"].as_u64(), Some(1));
        assert_eq!(json["heartbeats"].as_u64(), Some(0));
    }
}
