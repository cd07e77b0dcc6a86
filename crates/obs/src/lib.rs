//! # lh-obs — deterministic metrics, flight events, wall-clock tracing
//!
//! The observability spine of the LeakyHammer reproduction, split into
//! three channels with deliberately different guarantees:
//!
//! * **Deterministic counters and histograms** ([`metrics`]) — named
//!   `u64` counters ([`Counter`]) and fixed-power-of-two-bucket
//!   distributions ([`Histogram`]) whose increments and samples land in
//!   a per-thread scope ([`record`]). The harness wraps every
//!   experiment-unit execution in a scope, so simulator-emitted counts
//!   (scheduler wakes, commands by kind, maintenance on-time/deferred,
//!   cache probe hits/misses) and distributions (queue waits,
//!   maintenance slack — all in simulated time) attribute to exactly
//!   one unit. Metric values must depend only on the computation —
//!   never on wall-clock or thread scheduling — so they can ride
//!   cached results and distributed-run envelopes byte-identically.
//! * **Flight events** ([`flight`]) — typed per-event records on the
//!   *simulated*-ns clock (DRAM command issues, maintenance decisions
//!   with cause, mitigation interventions, link symbol windows),
//!   captured per unit into a bounded ring with deterministic drop
//!   accounting. Same determinism contract as metrics — an event log is
//!   a pure function of the computation, byte-identical across thread
//!   counts, worker fleets and cache replay — but ordered and
//!   per-event, so a maintenance timeline can be laid against a covert
//!   sender's symbol windows. Off by default; `--events-out` enables.
//! * **Wall-clock spans** ([`trace`]) — RAII [`Span`]s collected in a
//!   process-global buffer and exported as Chrome `trace_event` JSON
//!   (`chrome://tracing`, Perfetto). Timings never enter the
//!   deterministic channel, so profiling cannot perturb envelopes.
//!
//! Both channels are **zero-cost when disabled**: an unscoped
//! [`Counter::add`] is a thread-local check, and a [`Span::enter`] with
//! tracing off is one relaxed atomic load. The crate is std-only, like
//! the rest of the harness substrate.
//!
//! ## Example
//!
//! ```
//! use lh_obs::{record, Counter};
//!
//! const WAKES: Counter = Counter::new("sim.service_wakes");
//!
//! let (value, metrics) = record(|| {
//!     WAKES.add(3); // inside the simulator's flush path
//!     42
//! });
//! assert_eq!(value, 42);
//! assert_eq!(metrics.get("sim.service_wakes"), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use flight::{FlightEvent, FlightLog};
pub use metrics::{emit, record, scoped, Counter, Hist, Histogram, Metrics};
pub use registry::Registry;
pub use trace::{chrome_trace_json, export_chrome_trace, Span, TraceEvent};

/// Escapes `s` for embedding in a JSON string literal, appending to
/// `out` — the one escaper behind the flight log's and the Chrome
/// trace's hand-written lines.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}
