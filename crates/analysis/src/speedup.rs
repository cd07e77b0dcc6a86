//! Multiprogrammed-performance metrics for the Fig. 13 evaluation.

/// Per-application measurement of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppPerf {
    /// Instructions retired.
    pub instructions: u64,
    /// Wall time of the measurement in seconds.
    pub seconds: f64,
}

impl AppPerf {
    /// Instructions per second (the frequency-independent IPC proxy).
    pub(crate) fn ips(&self) -> f64 {
        if self.seconds > 0.0 {
            self.instructions as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Weighted speedup: `Σ_i IPC_i^shared / IPC_i^alone` (§11.4).
///
/// # Panics
///
/// Panics if the slices differ in length or an `alone` rate is zero.
pub fn weighted_speedup(shared: &[AppPerf], alone: &[AppPerf]) -> f64 {
    assert_eq!(shared.len(), alone.len(), "per-app runs must align");
    shared
        .iter()
        .zip(alone)
        .map(|(s, a)| {
            let a_ips = a.ips();
            assert!(a_ips > 0.0, "alone IPC must be positive");
            s.ips() / a_ips
        })
        .sum()
}

/// Normalized weighted speedup of a defended system relative to the
/// undefended baseline (the y-axis of Fig. 13).
pub fn normalized_ws(defended_ws: f64, baseline_ws: f64) -> f64 {
    assert!(
        baseline_ws > 0.0,
        "baseline weighted speedup must be positive"
    );
    defended_ws / baseline_ws
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf(instr: u64, secs: f64) -> AppPerf {
        AppPerf {
            instructions: instr,
            seconds: secs,
        }
    }

    #[test]
    fn identical_runs_give_ws_equal_to_core_count() {
        let shared = vec![perf(1000, 1.0); 4];
        let alone = vec![perf(1000, 1.0); 4];
        assert!((weighted_speedup(&shared, &alone) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_reduces_ws() {
        let shared = vec![perf(500, 1.0), perf(1000, 1.0)];
        let alone = vec![perf(1000, 1.0), perf(1000, 1.0)];
        assert!((weighted_speedup(&shared, &alone) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        assert!((normalized_ws(3.0, 4.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_alone_ipc_panics() {
        let _ = weighted_speedup(&[perf(1, 1.0)], &[perf(0, 1.0)]);
    }
}
