//! Deterministic named counters with scoped per-unit collection.
//!
//! A [`Counter`] is a named, monotonically increasing `u64`. Increments
//! land in the *metric scope* installed on the current thread (if any);
//! with no scope installed every increment is a branch-and-return — the
//! zero-cost-when-disabled contract that lets hot simulator paths carry
//! permanent instrumentation.
//!
//! Scopes nest per thread: [`record`] installs a fresh scope, runs a
//! closure, and returns whatever the closure produced alongside the
//! [`Metrics`] it accumulated. The harness wraps every experiment-unit
//! execution this way, so counters flushed by the simulator attribute
//! to exactly one unit no matter how many worker threads run units
//! concurrently.
//!
//! Determinism contract: counter values must be a pure function of the
//! computation being measured — simulated event counts, command tallies,
//! cache probe outcomes — never wall-clock time, pointer values, or
//! scheduling order. Wall-clock data belongs in [`crate::trace`] spans,
//! which are kept strictly apart from these metrics so cached results
//! and distributed runs stay byte-identical.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// A fixed-bucket distribution of `u64` samples.
///
/// Buckets are powers of two: sample `0` lands in bucket exponent `0`,
/// and any other sample `v` lands in exponent `64 - v.leading_zeros()`,
/// i.e. exponent `e >= 1` covers `[2^(e-1), 2^e)`. The bucket layout is
/// a pure function of the sample values — no configuration, no
/// adaptive resizing — so two histograms built from the same samples
/// in any order are identical, which is what lets them ride cache
/// entries and distributed-run envelopes byte for byte like counters
/// do. Sparse storage: only exponents that received samples appear.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    count: u64,
    sum: u64,
    buckets: BTreeMap<u32, u64>,
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist::default()
    }

    /// Reassembles a histogram from serialized parts — deserializer
    /// support, the inverse of reading [`Hist::count`] /
    /// [`Hist::sum`] / [`Hist::buckets`]. Empty buckets are dropped so
    /// the result is canonical.
    pub fn from_parts(count: u64, sum: u64, buckets: impl IntoIterator<Item = (u32, u64)>) -> Hist {
        Hist {
            count,
            sum,
            buckets: buckets.into_iter().filter(|(_, n)| *n > 0).collect(),
        }
    }

    /// The bucket exponent sample `v` lands in.
    pub(crate) fn bucket_of(v: u64) -> u32 {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros()
        }
    }

    /// The largest sample value bucket exponent `exp` can hold
    /// (`2^exp - 1`; exponent 0 holds only the value 0). This is the
    /// inclusive upper bound a Prometheus `le` label renders.
    pub fn bucket_bound(exp: u32) -> u64 {
        match exp {
            0 => 0,
            1..=63 => (1u64 << exp) - 1,
            _ => u64::MAX,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        *self.buckets.entry(Hist::bucket_of(v)).or_insert(0) += 1;
    }

    /// Folds another histogram into this one, bucket by bucket.
    pub fn merge(&mut self, other: &Hist) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (exp, n) in &other.buckets {
            let slot = self.buckets.entry(*exp).or_insert(0);
            *slot = slot.saturating_add(*n);
        }
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Iterates `(exponent, sample_count)` in exponent order over the
    /// non-empty buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(e, n)| (*e, *n))
    }

    /// Whether no sample has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// An upper bound on the `q`-quantile (`0.0..=1.0`): the inclusive
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`. Power-of-two buckets make this coarse — it
    /// answers "no more than" questions, which is what report tables
    /// need — and exact in count space, so it is as deterministic as
    /// the histogram itself. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (exp, n) in &self.buckets {
            seen = seen.saturating_add(*n);
            if seen >= target {
                return Hist::bucket_bound(*exp);
            }
        }
        Hist::bucket_bound(64)
    }
}

/// An ordered map of named counter totals and histogram distributions.
///
/// Backed by `BTreeMap`s so iteration — and therefore any rendering —
/// is deterministic in the metric names alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counts: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl Metrics {
    /// An empty set of counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `n` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(slot) = self.counts.get_mut(name) {
            *slot = slot.saturating_add(n);
        } else {
            self.counts.insert(name.to_owned(), n);
        }
    }

    /// The value of counter `name` (zero when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Folds another set of metrics into this one, key by key: counter
    /// totals sum and histogram buckets merge.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, n) in &other.counts {
            self.add(name, *n);
        }
        for (name, h) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Records one sample into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, v: u64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Hist::new();
            h.observe(v);
            self.hists.insert(name.to_owned(), h);
        }
    }

    /// Inserts (or replaces) a whole histogram under `name`. Empty
    /// histograms are dropped rather than stored.
    pub fn set_hist(&mut self, name: &str, hist: Hist) {
        if hist.is_empty() {
            self.hists.remove(name);
        } else {
            self.hists.insert(name.to_owned(), hist);
        }
    }

    /// The histogram named `name`, if any sample reached it.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates `(name, histogram)` pairs in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Hist)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct counters (histograms are counted separately;
    /// see [`Metrics::hists`]).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no counter or histogram sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.hists.is_empty()
    }
}

thread_local! {
    /// The stack of metric scopes active on this thread. Increments go
    /// to the innermost scope only; [`record`] merges child scopes into
    /// nothing — each scope is returned to its installer.
    static SCOPES: RefCell<Vec<Metrics>> = const { RefCell::new(Vec::new()) };
}

/// A named counter handle.
///
/// Construction is free (`const`): declare counters as constants next
/// to the code they instrument and call [`Counter::add`] at the natural
/// points. With no scope installed on the calling thread, `add` is a
/// thread-local read and a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(&'static str);

impl Counter {
    /// A handle for counter `name`.
    pub const fn new(name: &'static str) -> Counter {
        Counter(name)
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.0
    }

    /// Adds `n` to this counter in the current thread's innermost
    /// metric scope; a no-op without one.
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        SCOPES.with(|scopes| {
            if let Some(scope) = scopes.borrow_mut().last_mut() {
                scope.add(self.0, n);
            }
        });
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A named histogram handle, the distribution-shaped sibling of
/// [`Counter`].
///
/// Construction is free (`const`); [`Histogram::observe`] records a
/// sample into the current thread's innermost metric scope and is a
/// thread-local check plus a branch without one. Samples must obey the
/// same determinism contract counters do: pure functions of the
/// computation (simulated latencies, slack in simulated time, queue
/// depths) — never wall-clock durations, which belong in
/// [`crate::trace`] spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram(&'static str);

impl Histogram {
    /// A handle for histogram `name`.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram(name)
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.0
    }

    /// Records sample `v` into this histogram in the current thread's
    /// innermost metric scope; a no-op without one.
    pub fn observe(&self, v: u64) {
        SCOPES.with(|scopes| {
            if let Some(scope) = scopes.borrow_mut().last_mut() {
                scope.observe(self.0, v);
            }
        });
    }

    /// Folds a pre-accumulated [`Hist`] into this histogram in the
    /// current thread's innermost metric scope; a no-op without one or
    /// when `hist` is empty.
    ///
    /// This is the flush-time path for hot loops that accumulate
    /// samples locally (e.g. a simulator `System` collecting queue
    /// waits between obs flushes) instead of paying the thread-local
    /// lookup per sample.
    pub fn observe_hist(&self, hist: &Hist) {
        if hist.is_empty() {
            return;
        }
        SCOPES.with(|scopes| {
            if let Some(scope) = scopes.borrow_mut().last_mut() {
                scope
                    .hists
                    .entry(self.0.to_owned())
                    .or_default()
                    .merge(hist);
            }
        });
    }
}

/// Whether a metric scope is installed on the current thread.
pub fn scoped() -> bool {
    SCOPES.with(|scopes| !scopes.borrow().is_empty())
}

/// Replays a captured [`Metrics`] set into the current thread's
/// innermost metric scope; a no-op without one.
///
/// This is how a caller that collected counters under an inner
/// [`record`] scope — e.g. a lane engine capturing one simulation
/// lane's flush in isolation — re-attributes them to the ambient scope
/// (typically the harness's per-unit scope). Totals are merged key by
/// key, so emitting N lane captures is equivalent to having run the N
/// lanes directly under the ambient scope.
pub fn emit(metrics: &Metrics) {
    if metrics.is_empty() {
        return;
    }
    SCOPES.with(|scopes| {
        if let Some(scope) = scopes.borrow_mut().last_mut() {
            scope.merge(metrics);
        }
    });
}

/// Runs `f` under a fresh metric scope on this thread and returns its
/// result together with every counter recorded while it ran.
///
/// Scopes nest: increments inside an inner `record` are invisible to
/// the outer scope. The scope is removed even if `f` panics (the
/// accumulated counts are discarded with it).
pub fn record<T>(f: impl FnOnce() -> T) -> (T, Metrics) {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SCOPES.with(|scopes| {
                scopes.borrow_mut().pop();
            });
        }
    }

    SCOPES.with(|scopes| scopes.borrow_mut().push(Metrics::new()));
    let guard = Guard;
    let value = f();
    let metrics = SCOPES.with(|scopes| scopes.borrow().last().cloned().unwrap_or_default());
    drop(guard);
    (value, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAKES: Counter = Counter::new("sim.service_wakes");

    #[test]
    fn unscoped_increments_are_dropped() {
        assert!(!scoped());
        WAKES.add(5); // must not panic or leak anywhere observable
        let ((), m) = record(|| {});
        assert!(m.is_empty(), "pre-scope increments must not attribute");
    }

    #[test]
    fn record_captures_and_merges() {
        let ((), m) = record(|| {
            assert!(scoped());
            WAKES.add(3);
            WAKES.incr();
            Counter::new("sim.cmd.rfm").add(2);
        });
        assert_eq!(m.get("sim.service_wakes"), 4);
        assert_eq!(m.get("sim.cmd.rfm"), 2);
        assert_eq!(m.get("absent"), 0);
        let names: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["sim.cmd.rfm", "sim.service_wakes"], "sorted");
    }

    #[test]
    fn scopes_nest_without_leaking() {
        let ((), outer) = record(|| {
            WAKES.add(1);
            let ((), inner) = record(|| WAKES.add(10));
            assert_eq!(inner.get("sim.service_wakes"), 10);
            WAKES.add(2);
        });
        assert_eq!(
            outer.get("sim.service_wakes"),
            3,
            "inner scope's counts stay in the inner scope"
        );
        assert!(!scoped());
    }

    #[test]
    fn panics_unwind_the_scope() {
        let caught = std::panic::catch_unwind(|| {
            record(|| -> () { panic!("boom") });
        });
        assert!(caught.is_err());
        assert!(!scoped(), "a panicking scope must still be popped");
    }

    #[test]
    fn emit_replays_into_the_ambient_scope() {
        let captured = {
            let ((), inner) = record(|| WAKES.add(7));
            inner
        };
        let ((), outer) = record(|| {
            WAKES.add(1);
            emit(&captured);
            emit(&Metrics::new()); // empty replay is a no-op
        });
        assert_eq!(outer.get("sim.service_wakes"), 8);
        emit(&captured); // unscoped replay must be dropped silently
        let ((), fresh) = record(|| {});
        assert!(fresh.is_empty());
    }

    const WAIT: Histogram = Histogram::new("sim.queue_wait");

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(1023), 10);
        assert_eq!(Hist::bucket_of(1024), 11);
        assert_eq!(Hist::bucket_of(u64::MAX), 64);
        assert_eq!(Hist::bucket_bound(0), 0);
        assert_eq!(Hist::bucket_bound(1), 1);
        assert_eq!(Hist::bucket_bound(2), 3);
        assert_eq!(Hist::bucket_bound(10), 1023);
        assert_eq!(Hist::bucket_bound(64), u64::MAX);
        // Every sample fits inside its own bucket's bound.
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 40, u64::MAX] {
            assert!(v <= Hist::bucket_bound(Hist::bucket_of(v)), "{v}");
        }
    }

    #[test]
    fn histogram_observe_is_order_independent() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let samples = [5u64, 0, 17, 5, 1, 300];
        for v in samples {
            a.observe(v);
        }
        for v in samples.iter().rev() {
            b.observe(*v);
        }
        assert_eq!(a, b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.sum(), 328);
        let buckets: Vec<(u32, u64)> = a.buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (3, 2), (5, 1), (9, 1)]);
    }

    #[test]
    fn histograms_ride_scopes_like_counters() {
        let ((), m) = record(|| {
            WAIT.observe(4);
            WAIT.observe(5);
            Histogram::new("sim.maintenance.slack").observe(0);
        });
        assert_eq!(m.hist("sim.queue_wait").unwrap().count(), 2);
        assert_eq!(m.hist("sim.queue_wait").unwrap().sum(), 9);
        assert_eq!(m.hist("sim.maintenance.slack").unwrap().count(), 1);
        assert!(m.hist("absent").is_none());
        assert!(!m.is_empty(), "hist-only metrics are not empty");
        assert_eq!(m.len(), 0, "len counts counters only");
        WAIT.observe(1); // unscoped: dropped
        let ((), fresh) = record(|| {});
        assert!(fresh.is_empty());
    }

    #[test]
    fn emit_and_merge_carry_histograms() {
        let captured = {
            let ((), inner) = record(|| WAIT.observe(8));
            inner
        };
        let ((), outer) = record(|| {
            WAIT.observe(2);
            emit(&captured);
        });
        let h = outer.hist("sim.queue_wait").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 10);
        let buckets: Vec<(u32, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(2, 1), (4, 1)]);
    }

    #[test]
    fn observe_hist_folds_accumulated_samples_at_flush() {
        let mut local = Hist::new();
        local.observe(3);
        local.observe(300);
        let ((), m) = record(|| {
            WAIT.observe_hist(&local);
            WAIT.observe_hist(&Hist::new()); // empty: no-op
        });
        assert_eq!(m.hist("sim.queue_wait").unwrap().count(), 2);
        WAIT.observe_hist(&local); // unscoped: dropped
        let ((), fresh) = record(|| {});
        assert!(fresh.is_empty());
    }

    #[test]
    fn hist_merge_of_two_empties_is_empty() {
        let mut a = Hist::new();
        a.merge(&Hist::new());
        assert!(a.is_empty());
        assert_eq!(a, Hist::new(), "empty ⊕ empty stays canonical");
        assert_eq!(a.buckets().count(), 0);
        assert_eq!(a.quantile(0.5), 0);
    }

    #[test]
    fn hist_merge_saturates_the_top_bucket() {
        let mut a = Hist::from_parts(u64::MAX, u64::MAX, [(64, u64::MAX)]);
        let mut b = Hist::new();
        b.observe(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "count saturates");
        assert_eq!(a.sum(), u64::MAX, "sum saturates");
        let buckets: Vec<(u32, u64)> = a.buckets().collect();
        assert_eq!(buckets, vec![(64, u64::MAX)], "top bucket saturates");
    }

    #[test]
    fn hist_merge_of_disjoint_sparse_buckets_keeps_both() {
        let mut a = Hist::new();
        a.observe(0); // exponent 0
        a.observe(1 << 20); // exponent 21
        let mut b = Hist::new();
        b.observe(3); // exponent 2
        b.observe(u64::MAX); // exponent 64
        a.merge(&b);
        let buckets: Vec<(u32, u64)> = a.buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (2, 1), (21, 1), (64, 1)]);
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn hist_merge_is_commutative() {
        let mut ab = Hist::new();
        let mut ba = Hist::new();
        let a = Hist::from_parts(3, 30, [(0, 1), (5, 2)]);
        let b = Hist::from_parts(2, 900, [(5, 1), (10, 1)]);
        ab.merge(&a);
        ab.merge(&b);
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn hist_quantiles_walk_cumulative_buckets() {
        let mut h = Hist::new();
        for v in [1u64, 1, 2, 2, 2, 2, 100, 1000] {
            h.observe(v);
        }
        // Buckets: exp1 x2 (bound 1), exp2 x4 (bound 3), exp7 x1
        // (bound 127), exp10 x1 (bound 1023).
        assert_eq!(h.quantile(0.0), 1, "lowest non-empty bucket bound");
        assert_eq!(h.quantile(0.25), 1);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.75), 3);
        assert_eq!(h.quantile(0.875), 127, "7 of 8 samples are ≤ 127");
        assert_eq!(h.quantile(1.0), 1023);
    }

    #[test]
    fn merge_sums_key_by_key() {
        let mut a = Metrics::new();
        a.add("x", 1);
        a.add("y", u64::MAX);
        let mut b = Metrics::new();
        b.add("y", 7);
        b.add("z", 2);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), u64::MAX, "saturating");
        assert_eq!(a.get("z"), 2);
        assert_eq!(a.len(), 3);
    }
}
