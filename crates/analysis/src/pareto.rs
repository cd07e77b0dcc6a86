//! Security-vs-cost Pareto curves for the mitigation sweep.
//!
//! Every (defense, mitigation) cell of the `mitsweep` matrix yields two
//! numbers: how far the covert channel's capacity *collapsed* relative
//! to the unmitigated baseline (security — higher is better) and how
//! much extra *scheduling pressure* the mitigation bought it (cost —
//! RFMs, throttles and deferred maintenance beyond the baseline; lower
//! is better). [`ParetoCurve`] collects those points per series and
//! answers the question the paper's "Mitigating" half poses: which
//! mitigations are worth their cost — the non-dominated
//! [`frontier`](ParetoCurve::frontier).

/// One mitigation evaluated against one defense.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Mitigation label (`"jitter"`, `"shaper"`, … or `"none"`).
    pub label: String,
    /// Capacity collapse relative to the unmitigated baseline, in
    /// percent (0 = channel untouched, 100 = channel eliminated).
    /// Negative values mean the mitigation *widened* the channel.
    pub collapse_pct: f64,
    /// Extra scheduling-pressure operations per millisecond of
    /// simulated time, relative to the unmitigated baseline.
    pub cost_ops_per_ms: f64,
}

impl ParetoPoint {
    /// Whether `self` dominates `other`: at least as secure and at
    /// most as costly, and strictly better on one axis.
    pub(crate) fn dominates(&self, other: &ParetoPoint) -> bool {
        self.collapse_pct >= other.collapse_pct
            && self.cost_ops_per_ms <= other.cost_ops_per_ms
            && (self.collapse_pct > other.collapse_pct
                || self.cost_ops_per_ms < other.cost_ops_per_ms)
    }
}

/// A labeled security-vs-cost series: every mitigation evaluated
/// against one (defense, modulation) cell family.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParetoCurve {
    /// Series label (`"PRFM/ook+rep3"`, …).
    pub label: String,
    /// Points in insertion (mitigation-axis) order.
    pub points: Vec<ParetoPoint>,
}

impl ParetoCurve {
    /// An empty curve with a label.
    pub fn new(label: impl Into<String>) -> ParetoCurve {
        ParetoCurve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a measurement.
    pub fn push(&mut self, label: impl Into<String>, collapse_pct: f64, cost_ops_per_ms: f64) {
        self.points.push(ParetoPoint {
            label: label.into(),
            collapse_pct,
            cost_ops_per_ms,
        });
    }

    /// The non-dominated subset, in insertion order: every point no
    /// other point beats on both axes. This is the menu a deployer
    /// actually chooses from.
    pub fn frontier(&self) -> Vec<&ParetoPoint> {
        self.points
            .iter()
            .filter(|p| !self.points.iter().any(|q| q.dominates(p)))
            .collect()
    }

    /// The cheapest point that collapses capacity by at least
    /// `min_collapse_pct`, if any.
    pub fn cheapest_collapse(&self, min_collapse_pct: f64) -> Option<&ParetoPoint> {
        self.points
            .iter()
            .filter(|p| p.collapse_pct >= min_collapse_pct)
            .min_by(|a, b| {
                a.cost_ops_per_ms
                    .partial_cmp(&b.cost_ops_per_ms)
                    .expect("finite costs")
            })
    }

    /// The strongest collapse on the curve; 0 when empty.
    pub fn best_collapse_pct(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.collapse_pct)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> ParetoCurve {
        let mut c = ParetoCurve::new("PRFM/ook+rep3");
        c.push("none", 0.0, 0.0);
        c.push("jitter", 40.0, 2.0);
        c.push("batch", 30.0, 5.0); // dominated by jitter
        c.push("shaper", 99.0, 20.0);
        c.push("quota", 99.0, 25.0); // dominated by shaper
        c
    }

    #[test]
    fn frontier_drops_dominated_points() {
        let c = curve();
        let labels: Vec<&str> = c.frontier().iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["none", "jitter", "shaper"]);
    }

    #[test]
    fn domination_is_strict_on_at_least_one_axis() {
        let a = ParetoPoint {
            label: "a".into(),
            collapse_pct: 50.0,
            cost_ops_per_ms: 3.0,
        };
        assert!(!a.dominates(&a), "a point must not dominate itself");
        let cheaper = ParetoPoint {
            cost_ops_per_ms: 2.0,
            ..a.clone()
        };
        assert!(cheaper.dominates(&a));
        assert!(!a.dominates(&cheaper));
    }

    #[test]
    fn cheapest_collapse_picks_the_thrifty_option() {
        let c = curve();
        assert_eq!(c.cheapest_collapse(90.0).unwrap().label, "shaper");
        assert_eq!(c.cheapest_collapse(10.0).unwrap().label, "jitter");
        assert!(c.cheapest_collapse(99.5).is_none());
    }

    #[test]
    fn best_collapse_tracks_the_maximum() {
        assert_eq!(curve().best_collapse_pct(), 99.0);
        assert_eq!(ParetoCurve::new("empty").best_collapse_pct(), 0.0);
    }

    #[test]
    fn frontier_keeps_ties_on_both_axes() {
        let mut c = ParetoCurve::new("ties");
        c.push("a", 50.0, 3.0);
        c.push("b", 50.0, 3.0);
        // Neither dominates the other (no strict edge), so both stay.
        assert_eq!(c.frontier().len(), 2);
    }
}
