//! Prometheus text-format rendering of the process registry, fleet
//! telemetry and the run store's retention counts.
//!
//! `GET /metrics` is the volatile channel's front door: everything on
//! the page is process-lifetime accounting ([`lh_obs::Registry`]
//! totals, coordinator fleet telemetry, [`StoreStats`]) and may differ
//! between two servers that produced byte-identical envelopes. Names
//! map `sim.*` / `coord.*` dotted counters to `lh_`-prefixed underscore
//! families (`sim.cmd.act` → `lh_sim_cmd_act`); histograms render in
//! the standard cumulative-`le` form with bucket bounds taken from the
//! deterministic power-of-two layout ([`lh_obs::Hist::bucket_bound`]).

use lh_coord::FleetSnapshot;
use lh_obs::{Hist, Metrics};

use crate::store::StoreStats;

/// `sim.cmd.act` → `lh_sim_cmd_act`.
fn family(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("lh_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

fn counter(out: &mut String, name: &str, value: u64) {
    out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
}

fn gauge(out: &mut String, name: &str, value: u64) {
    out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
}

fn histogram(out: &mut String, name: &str, hist: &Hist) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (exp, n) in hist.buckets() {
        cumulative += n;
        let bound = Hist::bucket_bound(exp);
        if bound == u64::MAX {
            // Collapses into +Inf below.
            continue;
        }
        out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
    }
    out.push_str(&format!(
        "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {sum}\n{name}_count {count}\n",
        count = hist.count(),
        sum = hist.sum(),
    ));
}

/// Renders the whole `/metrics` page: registry counter totals, registry
/// histograms, the absorbed-unit count, the run store's retention
/// counts, and the fleet snapshot.
pub(crate) fn render(
    totals: &Metrics,
    units_absorbed: u64,
    fleet: &FleetSnapshot,
    store: &StoreStats,
) -> String {
    let mut out = String::new();

    counter(&mut out, "lh_units_absorbed", units_absorbed);
    for (name, value) in totals.iter() {
        counter(&mut out, &family(name), value);
    }
    for (name, hist) in totals.hists() {
        histogram(&mut out, &family(name), hist);
    }

    gauge(&mut out, "lh_serve_runs_retained", store.runs_retained);
    gauge(&mut out, "lh_serve_run_payload_bytes", store.payload_bytes);
    counter(&mut out, "lh_serve_runs_evicted_total", store.runs_evicted);
    counter(
        &mut out,
        "lh_serve_envelopes_recovered_total",
        store.envelopes_recovered,
    );

    let alive = fleet.workers.iter().filter(|w| w.alive).count() as u64;
    gauge(&mut out, "lh_fleet_workers_alive", alive);
    counter(&mut out, "lh_fleet_workers_spawned", fleet.workers_spawned);
    counter(&mut out, "lh_fleet_workers_lost", fleet.workers_lost);
    counter(&mut out, "lh_fleet_units_requeued", fleet.units_requeued);
    counter(&mut out, "lh_fleet_respawns_used", fleet.respawns_used);
    counter(&mut out, "lh_fleet_heartbeats", fleet.heartbeats);

    if !fleet.workers.is_empty() {
        out.push_str("# TYPE lh_fleet_worker_units_done counter\n");
        for w in &fleet.workers {
            out.push_str(&format!(
                "lh_fleet_worker_units_done{{worker=\"{}\"}} {}\n",
                w.index, w.units_done
            ));
        }
        out.push_str("# TYPE lh_fleet_worker_up gauge\n");
        for w in &fleet.workers {
            out.push_str(&format!(
                "lh_fleet_worker_up{{worker=\"{}\"}} {}\n",
                w.index,
                u64::from(w.alive)
            ));
        }
        out.push_str("# TYPE lh_fleet_worker_beat_age_ms gauge\n");
        for w in &fleet.workers {
            if let Some(age) = w.beat_age_ms {
                out.push_str(&format!(
                    "lh_fleet_worker_beat_age_ms{{worker=\"{}\"}} {age}\n",
                    w.index
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_coord::WorkerTelemetry;

    #[test]
    fn renders_counters_histograms_and_fleet() {
        let mut totals = Metrics::new();
        totals.add("sim.cmd.act", 12);
        totals.add("sim.service_wakes", 7);
        let mut h = Hist::new();
        h.observe(0);
        h.observe(3); // exponent 2, bound 3
        h.observe(300); // exponent 9, bound 511
        totals.set_hist("sim.queue_wait", h);

        let fleet = FleetSnapshot {
            workers: vec![
                WorkerTelemetry {
                    index: 0,
                    pid: 10,
                    alive: true,
                    in_flight: None,
                    units_done: 4,
                    beat_age_ms: Some(120),
                },
                WorkerTelemetry {
                    index: 1,
                    pid: 11,
                    alive: false,
                    in_flight: None,
                    units_done: 1,
                    beat_age_ms: None,
                },
            ],
            workers_spawned: 2,
            workers_lost: 1,
            units_requeued: 1,
            respawns_used: 0,
            heartbeats: 9,
        };

        let store = StoreStats {
            runs_retained: 3,
            payload_bytes: 4096,
            runs_evicted: 2,
            envelopes_recovered: 1,
        };
        let page = render(&totals, 5, &fleet, &store);
        assert!(page.contains("# TYPE lh_serve_runs_retained gauge\nlh_serve_runs_retained 3\n"));
        assert!(page.contains(
            "# TYPE lh_serve_run_payload_bytes gauge\nlh_serve_run_payload_bytes 4096\n"
        ));
        assert!(page.contains(
            "# TYPE lh_serve_runs_evicted_total counter\nlh_serve_runs_evicted_total 2\n"
        ));
        assert!(page.contains("lh_serve_envelopes_recovered_total 1\n"));
        assert!(page.contains("# TYPE lh_sim_cmd_act counter\nlh_sim_cmd_act 12\n"));
        assert!(page.contains("lh_units_absorbed 5\n"));
        assert!(page.contains("# TYPE lh_sim_queue_wait histogram\n"));
        assert!(page.contains("lh_sim_queue_wait_bucket{le=\"0\"} 1\n"));
        assert!(page.contains("lh_sim_queue_wait_bucket{le=\"3\"} 2\n"));
        assert!(page.contains("lh_sim_queue_wait_bucket{le=\"511\"} 3\n"));
        assert!(page.contains("lh_sim_queue_wait_bucket{le=\"+Inf\"} 3\n"));
        assert!(page.contains("lh_sim_queue_wait_sum 303\n"));
        assert!(page.contains("lh_sim_queue_wait_count 3\n"));
        assert!(page.contains("lh_fleet_workers_alive 1\n"));
        assert!(page.contains("lh_fleet_workers_lost 1\n"));
        assert!(page.contains("lh_fleet_heartbeats 9\n"));
        assert!(page.contains("lh_fleet_worker_units_done{worker=\"0\"} 4\n"));
        assert!(page.contains("lh_fleet_worker_up{worker=\"1\"} 0\n"));
        assert!(page.contains("lh_fleet_worker_beat_age_ms{worker=\"0\"} 120\n"));
        assert!(
            !page.contains("lh_fleet_worker_beat_age_ms{worker=\"1\"}"),
            "no beat yet, no sample: {page}"
        );
    }

    #[test]
    fn saturated_top_bucket_collapses_into_inf() {
        let mut totals = Metrics::new();
        let mut h = Hist::new();
        h.observe(u64::MAX); // exponent 64 — bound would be u64::MAX
        totals.set_hist("sim.queue_wait", h);
        let page = render(
            &totals,
            0,
            &FleetSnapshot::default(),
            &StoreStats::default(),
        );
        assert!(
            !page.contains(&format!("le=\"{}\"", u64::MAX)),
            "the saturated bucket must render as +Inf only: {page}"
        );
        assert!(page.contains("lh_sim_queue_wait_bucket{le=\"+Inf\"} 1\n"));
    }
}
