//! Sweep-curve types for channel measurements.
//!
//! The figure sweeps and the link-layer channel sweep all produce the
//! same two shapes: a bit-error-rate curve over an interference axis
//! (noise intensity, co-runner pressure) and a capacity curve over a
//! provisioning axis (`N_RH`, action latency). [`BerCurve`] and
//! [`CapacityCurve`] give those shapes a shared vocabulary — labeled,
//! serializable, and with the summary queries reports keep re-deriving
//! by hand (usable range, collapse point, peak).

use crate::capacity::ChannelResult;

/// One point of a BER-vs-interference curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerPoint {
    /// Interference coordinate (e.g. noise intensity in percent).
    pub x: f64,
    /// The measured transmission at this interference level.
    pub result: ChannelResult,
}

impl BerPoint {
    /// Bit-error rate at this point.
    pub fn ber(&self) -> f64 {
        self.result.error_probability()
    }
}

/// A labeled BER-vs-interference curve, e.g. one (defense, modulation)
/// series of the channel sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BerCurve {
    /// Series label (`"PRAC/ook+rep3"`, …).
    pub label: String,
    /// Points in ascending `x` order.
    pub points: Vec<BerPoint>,
}

impl BerCurve {
    /// An empty curve with a label.
    pub fn new(label: impl Into<String>) -> BerCurve {
        BerCurve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a measurement, keeping the points sorted by `x`.
    pub fn push(&mut self, x: f64, result: ChannelResult) {
        let at = self
            .points
            .iter()
            .position(|p| p.x > x)
            .unwrap_or(self.points.len());
        self.points.insert(at, BerPoint { x, result });
    }

    /// The worst (highest) BER across the curve; 0 when empty.
    pub fn worst_ber(&self) -> f64 {
        self.points.iter().map(BerPoint::ber).fold(0.0, f64::max)
    }

    /// The quiet-end capacity in Kbps: the capacity at the smallest
    /// `x` (the paper's headline number per channel); 0 when empty.
    pub fn quiet_capacity_kbps(&self) -> f64 {
        self.points
            .first()
            .map_or(0.0, |p| p.result.capacity_kbps())
    }

    /// The largest `x` whose BER stays at or below `e` — the usable
    /// interference range. `None` if even the first point exceeds `e`
    /// (or the curve is empty).
    pub fn usable_until(&self, e: f64) -> Option<f64> {
        let mut last = None;
        for p in &self.points {
            if p.ber() <= e {
                last = Some(p.x);
            } else {
                break;
            }
        }
        last
    }
}

/// One point of a capacity-vs-provisioning curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityPoint {
    /// Provisioning coordinate (e.g. the RowHammer threshold `N_RH`).
    pub nrh: u32,
    /// Channel capacity in Kbps at this provisioning.
    pub capacity_kbps: f64,
}

/// A labeled capacity-vs-`N_RH` curve: how a channel's capacity scales
/// as the defense is provisioned for lower thresholds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CapacityCurve {
    /// Series label (defense or modulation name).
    pub label: String,
    /// Points in ascending `nrh` order.
    pub points: Vec<CapacityPoint>,
}

impl CapacityCurve {
    /// An empty curve with a label.
    pub fn new(label: impl Into<String>) -> CapacityCurve {
        CapacityCurve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a measurement, keeping the points sorted by `nrh`.
    pub fn push(&mut self, nrh: u32, capacity_kbps: f64) {
        let at = self
            .points
            .iter()
            .position(|p| p.nrh > nrh)
            .unwrap_or(self.points.len());
        self.points.insert(at, CapacityPoint { nrh, capacity_kbps });
    }

    /// Peak capacity across the curve; 0 when empty.
    pub fn peak_kbps(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.capacity_kbps)
            .fold(0.0, f64::max)
    }

    /// Whether capacity never *increases* as provisioning tightens
    /// (descending `nrh`), within `tol` Kbps — the qualitative shape
    /// the §11 countermeasures predict.
    pub fn monotone_in_nrh(&self, tol: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].capacity_kbps >= w[0].capacity_kbps - tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(bits: usize, errors: usize, rate: f64) -> ChannelResult {
        ChannelResult {
            bits,
            bit_errors: errors,
            raw_bit_rate: rate,
        }
    }

    #[test]
    fn ber_curve_keeps_points_sorted_and_summarizes() {
        let mut c = BerCurve::new("PRAC/ook");
        c.push(50.0, r(100, 20, 40_000.0));
        c.push(0.0, r(100, 0, 40_000.0));
        c.push(100.0, r(100, 45, 40_000.0));
        let xs: Vec<f64> = c.points.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![0.0, 50.0, 100.0]);
        assert!((c.worst_ber() - 0.45).abs() < 1e-12);
        assert!((c.quiet_capacity_kbps() - 40.0).abs() < 1e-9);
        assert_eq!(c.usable_until(0.25), Some(50.0));
        assert_eq!(c.usable_until(0.5), Some(100.0));
    }

    #[test]
    fn ber_curve_empty_and_hopeless_cases() {
        let c = BerCurve::new("empty");
        assert_eq!(c.worst_ber(), 0.0);
        assert_eq!(c.quiet_capacity_kbps(), 0.0);
        assert_eq!(c.usable_until(0.1), None);
        let mut dead = BerCurve::new("dead");
        dead.push(0.0, r(10, 5, 40_000.0));
        assert_eq!(dead.usable_until(0.1), None);
    }

    #[test]
    fn capacity_curve_sorts_and_checks_monotonicity() {
        let mut c = CapacityCurve::new("PRAC");
        c.push(1024, 39.0);
        c.push(64, 12.0);
        c.push(256, 30.0);
        let nrhs: Vec<u32> = c.points.iter().map(|p| p.nrh).collect();
        assert_eq!(nrhs, vec![64, 256, 1024]);
        assert!((c.peak_kbps() - 39.0).abs() < 1e-12);
        assert!(c.monotone_in_nrh(0.0));
        c.push(512, 10.0); // capacity dips below the 256 point
        assert!(!c.monotone_in_nrh(0.0));
        assert!(c.monotone_in_nrh(25.0), "tolerance absorbs the dip");
    }
}
