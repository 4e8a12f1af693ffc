//! The shared metric registry: counters, gauges, log-bucketed histograms
//! and busy-interval utilization sets.
//!
//! Handles are `Arc`s over atomics (or a short critical section for
//! [`Utilization`]): resolve a handle once at wiring time, then record on
//! every request without touching the registry map again. All values are
//! keyed on [`SimTime`] where time is involved — never the wall clock —
//! so enabling metrics cannot perturb a deterministic chaos replay.
//!
//! Its crate denies panics and bare indexing to clippy (rule P1).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::json::Json;
use crate::time::SimTime;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, open handles).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX`.
const BUCKETS: usize = 65;

/// A lock-free histogram over `u64` samples with power-of-two buckets.
///
/// Bucket 0 holds exact zeros; bucket `i >= 1` holds samples in
/// `[2^(i-1), 2^i)`. That gives ~2x resolution — coarse, but free to
/// record (one `fetch_add`) and exactly mergeable, which is what a
/// per-request latency/size metric needs.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// Index of the bucket holding sample `v`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`, used as its representative value.
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if let Some(b) = self.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample value, or 0 with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Fold another histogram's samples into this one.
    pub fn merge_from(&self, other: &Histogram) {
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Upper bound of the bucket containing the `p`-th percentile sample
    /// (`p` in 0–100), or 0 with no samples. Accurate to the 2x bucket
    /// width.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * count as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b.load(Ordering::Relaxed));
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// A point-in-time summary.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
        }
    }
}

/// Summary of a [`Histogram`] at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median bucket bound.
    pub p50: u64,
    /// 95th-percentile bucket bound.
    pub p95: u64,
    /// 99th-percentile bucket bound.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// As a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".to_owned(), Json::num_u64(self.count)),
            ("sum".to_owned(), Json::num_u64(self.sum)),
            ("mean".to_owned(), Json::Num(self.mean)),
            ("p50".to_owned(), Json::num_u64(self.p50)),
            ("p95".to_owned(), Json::num_u64(self.p95)),
            ("p99".to_owned(), Json::num_u64(self.p99)),
        ])
    }
}

/// Busy-interval tracking for a shared resource (a drive arm, a link).
///
/// Overlapping and out-of-order intervals are coalesced into a sorted
/// disjoint set, so concurrent reservations on a shared resource don't
/// double-count busy time the way a scalar busy-time sum would.
/// Inverted or empty intervals are ignored rather than panicking (P1).
#[derive(Debug, Default)]
pub struct Utilization {
    /// Sorted, pairwise-disjoint `[start, end)` intervals in nanoseconds.
    intervals: Mutex<Vec<(u64, u64)>>,
}

impl Utilization {
    /// An empty interval set.
    #[must_use]
    pub fn new() -> Self {
        Utilization::default()
    }

    /// Record a busy interval `[start, end)`; empty or inverted intervals
    /// are ignored.
    pub fn record_busy(&self, start: SimTime, end: SimTime) {
        let (s, e) = (start.as_nanos(), end.as_nanos());
        if e <= s {
            return;
        }
        let mut iv = self.intervals.lock();
        // First interval that ends at-or-after `s` (touching coalesces),
        // and first that starts strictly after `e`: everything in between
        // merges with [s, e).
        let lo = iv.partition_point(|&(_, int_end)| int_end < s);
        let hi = iv.partition_point(|&(int_start, _)| int_start <= e);
        let mut merged_start = s;
        let mut merged_end = e;
        if lo < hi {
            if let Some(&(a, _)) = iv.get(lo) {
                merged_start = merged_start.min(a);
            }
            if let Some(&(_, b)) = iv.get(hi - 1) {
                merged_end = merged_end.max(b);
            }
        }
        iv.splice(lo..hi, std::iter::once((merged_start, merged_end)));
    }

    /// Total busy time across all coalesced intervals.
    #[must_use]
    pub fn busy_time(&self) -> SimTime {
        let ns: u64 = self.intervals.lock().iter().map(|&(s, e)| e - s).sum();
        SimTime::from_nanos(ns)
    }

    /// End of the latest busy interval.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        let ns = self.intervals.lock().last().map_or(0, |&(_, e)| e);
        SimTime::from_nanos(ns)
    }

    /// Percent of `elapsed` spent idle (0–100).
    #[must_use]
    pub fn percent_idle(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 100.0;
        }
        let busy = (self.busy_time().as_secs_f64() / elapsed.as_secs_f64()).min(1.0);
        (1.0 - busy) * 100.0
    }

    /// The coalesced interval set.
    #[must_use]
    pub fn intervals(&self) -> Vec<(SimTime, SimTime)> {
        self.intervals
            .lock()
            .iter()
            .map(|&(s, e)| (SimTime::from_nanos(s), SimTime::from_nanos(e)))
            .collect()
    }

    /// A point-in-time summary.
    #[must_use]
    pub fn snapshot(&self) -> UtilizationSnapshot {
        let iv = self.intervals.lock();
        UtilizationSnapshot {
            busy: SimTime::from_nanos(iv.iter().map(|&(s, e)| e - s).sum()),
            horizon: SimTime::from_nanos(iv.last().map_or(0, |&(_, e)| e)),
            intervals: iv.len() as u64,
        }
    }
}

/// Summary of a [`Utilization`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtilizationSnapshot {
    /// Total coalesced busy time.
    pub busy: SimTime,
    /// End of the latest interval.
    pub horizon: SimTime,
    /// Number of disjoint intervals after coalescing.
    pub intervals: u64,
}

impl UtilizationSnapshot {
    /// As a JSON object (times in nanoseconds).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("busy_ns".to_owned(), Json::num_u64(self.busy.as_nanos())),
            (
                "horizon_ns".to_owned(),
                Json::num_u64(self.horizon.as_nanos()),
            ),
            ("intervals".to_owned(), Json::num_u64(self.intervals)),
        ])
    }
}

/// A namespace of metrics, keyed by name.
///
/// `counter`/`gauge`/`histogram`/`utilization` are get-or-create: the
/// first caller allocates, later callers share the same handle. Names
/// use `/`-separated paths by convention (`drive/0/cache_hits`).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    utilizations: Mutex<BTreeMap<String, Arc<Utilization>>>,
}

impl Registry {
    /// A fresh, empty registry behind an `Arc` (registries are shared by
    /// construction).
    #[must_use]
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    /// The counter named `name`, creating it on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, creating it on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, creating it on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// The utilization set named `name`, creating it on first use.
    #[must_use]
    pub fn utilization(&self, name: &str) -> Arc<Utilization> {
        Arc::clone(
            self.utilizations
                .lock()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Utilization::new())),
        )
    }

    /// Snapshot every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            utilizations: self
                .utilizations
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Every metric in a [`Registry`] at one instant, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Utilization summaries.
    pub utilizations: Vec<(String, UtilizationSnapshot)>,
}

impl MetricsSnapshot {
    /// As a JSON object with `counters`/`gauges`/`histograms`/
    /// `utilizations` sub-objects (empty sections omitted).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Vec::new();
        if !self.counters.is_empty() {
            obj.push((
                "counters".to_owned(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num_u64(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.gauges.is_empty() {
            obj.push((
                "gauges".to_owned(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ));
        }
        if !self.histograms.is_empty() {
            obj.push((
                "histograms".to_owned(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ));
        }
        if !self.utilizations.is_empty() {
            obj.push((
                "utilizations".to_owned(),
                Json::Obj(
                    self.utilizations
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ));
        }
        Json::Obj(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(10), 1023);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let h = Histogram::new();
        for v in [0, 1, 100, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5201);
        assert!((h.mean() - 1040.2).abs() < 1e-9);
        // p50 rank 3 lands in the [64,128) bucket holding the two 100s.
        assert_eq!(h.percentile(50.0), 127);
        assert_eq!(h.percentile(100.0), 8191);
        assert_eq!(h.percentile(0.0), 0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.p50, s.p99), (0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
            combined.record(v);
        }
        for v in [1000u64, 10_000] {
            b.record(v);
            combined.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.sum(), combined.sum());
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(a.percentile(p), combined.percentile(p));
        }
    }

    #[test]
    fn utilization_coalesces_overlap_and_touching() {
        let u = Utilization::new();
        u.record_busy(SimTime::from_millis(10), SimTime::from_millis(20));
        u.record_busy(SimTime::from_millis(15), SimTime::from_millis(25)); // overlaps
        u.record_busy(SimTime::from_millis(25), SimTime::from_millis(30)); // touches
        u.record_busy(SimTime::from_millis(50), SimTime::from_millis(60)); // disjoint
        assert_eq!(
            u.intervals(),
            vec![
                (SimTime::from_millis(10), SimTime::from_millis(30)),
                (SimTime::from_millis(50), SimTime::from_millis(60)),
            ]
        );
        assert_eq!(u.busy_time(), SimTime::from_millis(30));
        assert_eq!(u.horizon(), SimTime::from_millis(60));
        assert!((u.percent_idle(SimTime::from_millis(100)) - 70.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_out_of_order_and_bridging() {
        let u = Utilization::new();
        u.record_busy(SimTime::from_millis(40), SimTime::from_millis(50));
        u.record_busy(SimTime::from_millis(10), SimTime::from_millis(20));
        // Bridges both existing intervals.
        u.record_busy(SimTime::from_millis(15), SimTime::from_millis(45));
        assert_eq!(
            u.intervals(),
            vec![(SimTime::from_millis(10), SimTime::from_millis(50))]
        );
    }

    #[test]
    fn utilization_ignores_degenerate_intervals() {
        let u = Utilization::new();
        u.record_busy(SimTime::from_millis(5), SimTime::from_millis(5));
        u.record_busy(SimTime::from_millis(9), SimTime::from_millis(3));
        assert!(u.intervals().is_empty());
        assert_eq!(u.busy_time(), SimTime::ZERO);
        assert_eq!(u.percent_idle(SimTime::ZERO), 100.0);
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("drive/0/ops");
        let b = r.counter("drive/0/ops");
        assert!(Arc::ptr_eq(&a, &b));
        a.inc();
        assert_eq!(b.value(), 1);
        assert!(!Arc::ptr_eq(&a, &r.counter("drive/1/ops")));
    }

    #[test]
    fn snapshot_serializes_sorted() {
        let r = Registry::new();
        r.counter("z/ops").add(2);
        r.counter("a/ops").add(1);
        r.gauge("depth").set(-3);
        r.histogram("lat").record(7);
        r.utilization("arm")
            .record_busy(SimTime::ZERO, SimTime::from_millis(1));
        let json = r.snapshot().to_json();
        let counters = json.get("counters").and_then(Json::as_obj).unwrap();
        assert_eq!(counters[0].0, "a/ops");
        assert_eq!(counters[1].0, "z/ops");
        assert_eq!(
            json.get("gauges")
                .and_then(|g| g.get("depth"))
                .and_then(Json::as_f64),
            Some(-3.0)
        );
        assert_eq!(
            json.get("histograms")
                .and_then(|h| h.get("lat"))
                .and_then(|l| l.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            json.get("utilizations")
                .and_then(|u| u.get("arm"))
                .and_then(|a| a.get("busy_ns"))
                .and_then(Json::as_u64),
            Some(1_000_000)
        );
    }

    #[test]
    fn empty_snapshot_is_empty_object() {
        let r = Registry::new();
        assert_eq!(r.snapshot().to_json().to_json_string(), "{}");
    }
}
