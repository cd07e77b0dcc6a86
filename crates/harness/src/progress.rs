//! Live progress reporting on stderr.
//!
//! Progress lines never touch stdout, so structured output stays
//! byte-deterministic no matter how reporting interleaves with work.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Writes one line to stderr, ignoring errors: progress must never
/// kill a run because the consumer closed the pipe (`... 2>&1 | head`).
pub(crate) fn note(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let _ = writeln!(std::io::stderr(), "{line}");
}

/// How one unit was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitOutcome {
    /// Served from the result cache.
    Cached,
    /// Executed now, taking the given number of milliseconds.
    Ran(u128),
}

/// Counts completed units of one experiment and emits progress lines.
#[derive(Debug)]
pub(crate) struct Progress {
    experiment: &'static str,
    total: usize,
    done: AtomicUsize,
    enabled: bool,
    started: Instant,
}

impl Progress {
    /// A reporter for `total` units of `experiment`; silent when
    /// `enabled` is false.
    pub(crate) fn new(experiment: &'static str, total: usize, enabled: bool) -> Progress {
        Progress {
            experiment,
            total,
            done: AtomicUsize::new(0),
            enabled,
            started: Instant::now(),
        }
    }

    /// Records one completed unit.
    pub(crate) fn unit_done(&self, label: &str, outcome: UnitOutcome) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled {
            return;
        }
        let width = self.total.to_string().len();
        match outcome {
            UnitOutcome::Cached => note(format_args!(
                "[{done:>width$}/{}] {} {label} (cached)",
                self.total, self.experiment
            )),
            UnitOutcome::Ran(ms) => note(format_args!(
                "[{done:>width$}/{}] {} {label} ({ms} ms)",
                self.total, self.experiment
            )),
        }
    }

    /// Emits the experiment's closing line.
    pub(crate) fn finished(&self, cached_units: usize, executed_units: usize) {
        if !self.enabled {
            return;
        }
        note(format_args!(
            "{}: {} unit(s) done in {} ms ({cached_units} cached, {executed_units} executed)",
            self.experiment,
            self.total,
            self.started.elapsed().as_millis()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_thread_safe() {
        let p = Progress::new("fig4", 100, false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        p.unit_done("pt", UnitOutcome::Ran(1));
                    }
                });
            }
        });
        assert_eq!(p.done.load(Ordering::Relaxed), 100);
        p.finished(0, 100);
    }
}
