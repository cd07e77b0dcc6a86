//! What a run reports: operation counts, checks, named metrics, and the
//! result line the driver parses.

use std::collections::BTreeMap;

use lh_harness::Json;

use crate::spec::MetricSpec;

/// Attempted and failed operations. An operation is one unit of the
/// workload's work (an experiment run, an HTTP trip) or one output check.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Counts `n` operations that completed (failures are counted by
    /// [`Checks::check`] at the point that detects them).
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// One output check; a failed one is reported on stderr at once.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// A check that was skipped on purpose; says so in the output.
    pub fn skip(&mut self, what: &str, why: &str) {
        println!("info check_skipped {what}: {why}");
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// The metrics and notes of one run, printed by [`Report::finish`].
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    metrics: BTreeMap<String, f64>,
    notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        let old = self.metrics.insert(name.to_owned(), value);
        assert!(old.is_none(), "metric {name} reported twice");
    }

    /// A metric measured once per `.suffix` (`.mix`, `.deep`, ...).
    pub fn metric_for(&mut self, stem: &str, suffix: &str, value: f64) {
        self.metric(&format!("{stem}.{suffix}"), value);
    }

    /// A line of context for the human reader (digests, sample counts).
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// Prints every note and metric by name with its unit, then the
    /// one-line JSON result. `expected` is the metric set the run's mode
    /// owes the driver; reporting any other set is a bug in this program.
    pub fn finish(self, expected: &[MetricSpec]) -> String {
        for (k, v) in &self.notes {
            println!("info {k} {v}");
        }
        let mut out = Json::object();
        for spec in expected {
            let value = *self
                .metrics
                .get(spec.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", spec.name));
            assert!(value.is_finite(), "metric {} is {value}", spec.name);
            println!("{} {} {}", spec.name, value, spec.unit);
            out.set(
                spec.name,
                Json::object().with("value", value).with("unit", spec.unit),
            );
        }
        for name in self.metrics.keys() {
            assert!(
                expected.iter().any(|s| s.name == name),
                "metric {name} is not in the benchmark's specification"
            );
        }
        let correct = self.checks.failed() == 0;
        println!(
            "info operations attempted={} failed={}",
            self.checks.attempted(),
            self.checks.failed()
        );
        Json::object()
            .with("correct", correct)
            .with("attempted", self.checks.attempted().max(1))
            .with("failed", self.checks.failed())
            .with("metrics", out)
            .to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let spec = [MetricSpec {
            name: "run_s",
            unit: "s",
            better: "lower",
            bound: 0.1,
        }];
        let mut r = Report::default();
        r.checks.ops(3);
        r.checks.check("fine", true);
        r.metric("run_s", 1.25);
        let line = r.finish(&spec);
        let doc = lh_harness::json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc["correct"].as_bool(), Some(true));
        assert_eq!(doc["attempted"].as_u64(), Some(4));
        assert_eq!(doc["metrics"]["run_s"]["value"].as_f64(), Some(1.25));
        assert_eq!(doc["metrics"]["run_s"]["unit"].as_str(), Some("s"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.checks.check("broken", false);
        let doc = lh_harness::json::parse(&r.finish(&[])).unwrap();
        assert_eq!(doc["correct"].as_bool(), Some(false));
        assert_eq!(doc["failed"].as_u64(), Some(1));
    }
}
