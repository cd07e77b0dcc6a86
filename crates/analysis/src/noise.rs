//! Noise-intensity mapping (§6.3, Eq. 2 of the paper).
//!
//! The noise generator sleeps `SleepDuration` between consecutive row
//! activations; intensity maps the swept range [0.2 µs, 2 µs] linearly
//! onto [100 %, 1 %].

/// The sweep endpoints of Eq. 2, in microseconds.
const MIN_SLEEP_US: f64 = 0.2;
/// See [`MIN_SLEEP_US`].
const MAX_SLEEP_US: f64 = 2.0;

/// Sleep duration (µs) for a noise intensity in percent: Eq. 2,
/// `intensity = (1 - (sleep - MIN) / (MAX - MIN)) * 99 + 1`, solved for
/// the sleep.
///
/// # Panics
///
/// Panics if `intensity` is outside `[1, 100]`.
pub fn sleep_of_intensity(intensity: f64) -> f64 {
    assert!(
        (1.0..=100.0).contains(&intensity),
        "intensity {intensity}% out of range"
    );
    MIN_SLEEP_US + (1.0 - (intensity - 1.0) / 99.0) * (MAX_SLEEP_US - MIN_SLEEP_US)
}

/// The noise-intensity sample points used for Figs. 4, 7 and 11
/// (1 %, 10 %, 20 %, ..., 100 %).
pub fn paper_sweep() -> Vec<f64> {
    let mut v = vec![1.0];
    v.extend((1..=10).map(|i| i as f64 * 10.0));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_match_eq2() {
        assert!((sleep_of_intensity(1.0) - 2.0).abs() < 1e-12);
        assert!((sleep_of_intensity(100.0) - 0.2).abs() < 1e-12);
        assert!((sleep_of_intensity(50.5) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn intensity_decreases_with_sleep() {
        assert!(sleep_of_intensity(10.0) > sleep_of_intensity(90.0));
    }

    #[test]
    fn sweep_covers_1_to_100() {
        let s = paper_sweep();
        assert_eq!(s.len(), 11);
        assert_eq!(s[0], 1.0);
        assert_eq!(*s.last().unwrap(), 100.0);
    }
}
