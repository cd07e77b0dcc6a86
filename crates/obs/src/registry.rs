//! The process-wide observability hub.
//!
//! A [`Registry`] aggregates counter totals across every metric scope
//! that reports to it — the harness runner and the coordinator push
//! each completed unit's [`Metrics`] in, so a process
//! can always answer "what has the simulator done so far" without
//! threading state through call sites. Thread-safe; all methods take
//! `&self`.
//!
//! This is lifetime accounting for humans (progress dashboards, the
//! `report` subcommand's process totals). The per-unit metrics that
//! reach envelopes and the cache flow through [`crate::record`] scopes
//! directly and never read the registry, so the deterministic channel
//! cannot be polluted by unrelated activity in the same process.

use std::sync::{Mutex, OnceLock};

use crate::metrics::Metrics;

/// Thread-safe accumulator of counter totals.
#[derive(Debug, Default)]
pub struct Registry {
    totals: Mutex<Metrics>,
    units: Mutex<u64>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Folds one completed unit's counters into the lifetime totals.
    pub fn absorb(&self, metrics: &Metrics) {
        self.totals
            .lock()
            .expect("registry totals poisoned")
            .merge(metrics);
        *self.units.lock().expect("registry units poisoned") += 1;
    }

    /// Adds `n` to lifetime counter `name` without counting a unit —
    /// for process-level events (worker deaths, requeues, heartbeats)
    /// that are not unit metric sets.
    pub fn add(&self, name: &str, n: u64) {
        self.totals
            .lock()
            .expect("registry totals poisoned")
            .add(name, n);
    }

    /// A snapshot of the lifetime totals.
    pub fn totals(&self) -> Metrics {
        self.totals
            .lock()
            .expect("registry totals poisoned")
            .clone()
    }

    /// How many unit metric sets have been absorbed.
    pub fn units_absorbed(&self) -> u64 {
        *self.units.lock().expect("registry units poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbs_across_threads() {
        let registry = Registry::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let registry = &registry;
                s.spawn(move || {
                    let mut m = Metrics::new();
                    m.add("sim.service_wakes", 10 + t);
                    registry.absorb(&m);
                });
            }
        });
        assert_eq!(registry.units_absorbed(), 4);
        assert_eq!(registry.totals().get("sim.service_wakes"), 46);
    }
}
