//! A lock-cheap metrics registry: named counters, gauges and
//! fixed-bucket histograms over atomic storage.
//!
//! Registration (name → handle) takes a mutex once; after that every
//! increment/observation is lock-free atomics on a cloned handle, so
//! hot paths register at construction time and update without
//! contention. [`Registry::snapshot`] reads a point-in-time copy of
//! every metric, which renders as Prometheus text.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::expo;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: the latest `set` value (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (a running maximum).
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Finite upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket follows the last one.
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    /// Running sum of observations, as `f64` bits (CAS loop).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram.
///
/// Bucket bounds are chosen at registration and never change, which is
/// what makes `observe` a branchless-ish scan plus two atomic adds —
/// no allocation, no locking, no rebinning — and what makes snapshots
/// from concurrent writers mergeable (identical bounds line up).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be increasing");
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let inner = &*self.0;
        let idx = inner.bounds.partition_point(|&b| b < v);
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records a [`std::time::Duration`] in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// Key identifying one time series: metric name plus sorted labels.
type SeriesKey = (String, Vec<(String, String)>);

#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A collection of named metrics.
///
/// [`global()`] returns the process-wide instance most code records
/// into; components that need isolated counting (e.g. one server among
/// several in a test process) own a `Registry` of their own and merge
/// snapshots at exposition time.
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<BTreeMap<SeriesKey, Handle>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        debug_assert!(expo::is_valid_metric_name(name), "bad metric name {name:?}");
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        (name.to_string(), labels)
    }

    /// The counter `name` (no labels), registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// The counter `name{labels}`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different metric type.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut series = self.series.lock().expect("registry poisoned");
        match series
            .entry(Self::key(name, labels))
            .or_insert_with(|| Handle::Counter(Counter::default()))
        {
            Handle::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// The gauge `name` (no labels), registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// The gauge `name{labels}`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different metric type.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut series = self.series.lock().expect("registry poisoned");
        match series
            .entry(Self::key(name, labels))
            .or_insert_with(|| Handle::Gauge(Gauge::default()))
        {
            Handle::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// The histogram `name` with the given bucket bounds, registering
    /// it on first use.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, &[], bounds)
    }

    /// The histogram `name{labels}`, registering it on first use.
    ///
    /// Bounds are fixed by the first registration; later callers get
    /// the existing series (their `bounds` argument is ignored).
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different metric type.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        let mut series = self.series.lock().expect("registry poisoned");
        match series
            .entry(Self::key(name, labels))
            .or_insert_with(|| Handle::Histogram(Histogram::new(bounds)))
        {
            Handle::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// A point-in-time copy of every registered series, sorted by
    /// `(name, labels)`.
    pub fn snapshot(&self) -> Snapshot {
        let series = self.series.lock().expect("registry poisoned");
        let metrics = series
            .iter()
            .map(|((name, labels), handle)| MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: match handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => {
                        let inner = &*h.0;
                        MetricValue::Histogram {
                            bounds: inner.bounds.clone(),
                            buckets: inner
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            sum: f64::from_bits(inner.sum_bits.load(Ordering::Relaxed)),
                            count: inner.count.load(Ordering::Relaxed),
                        }
                    }
                },
            })
            .collect();
        Snapshot { metrics }
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The value of one series at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Latest gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram {
        /// Finite upper bounds (the `+Inf` bucket is implicit).
        bounds: Vec<f64>,
        /// Per-bucket (non-cumulative) hit counts; `bounds.len() + 1`
        /// entries, the last being the overflow bucket.
        buckets: Vec<u64>,
        /// Sum of all observations.
        sum: f64,
        /// Number of observations.
        count: u64,
    },
}

/// One series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time copy of a registry (or a merge of several).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every series, sorted by `(name, labels)`.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Merges another snapshot, keeping the combined list sorted.
    ///
    /// When both hold the same series (name and labels), `self`'s entry
    /// is kept and `other`'s dropped, so the receiver's series win.
    #[must_use]
    pub fn merged(mut self, other: Snapshot) -> Snapshot {
        self.metrics.extend(other.metrics);
        self.metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        self.metrics.dedup_by(|dup, keep| dup.name == keep.name && dup.labels == keep.labels);
        Snapshot { metrics: self.metrics }
    }

    /// The value of the series `name{labels}`, if the snapshot holds it.
    /// `labels` may come in any order.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let mut labels = labels.to_vec();
        labels.sort_unstable();
        self.metrics
            .iter()
            .find(|m| {
                m.name == name
                    && m.labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .eq(labels.iter().copied())
            })
            .map(|m| &m.value)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# TYPE` comments, `name{labels} value` samples, histogram
    /// `_bucket`/`_sum`/`_count` triples with cumulative buckets).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for m in &self.metrics {
            if last_name != Some(m.name.as_str()) {
                let kind = match m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram { .. } => "histogram",
                };
                out.push_str(&format!("# TYPE {} {kind}\n", m.name));
                last_name = Some(m.name.as_str());
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.name, render_labels(&m.labels, None)));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        m.name,
                        render_labels(&m.labels, None),
                        expo::format_f64(*v)
                    ));
                }
                MetricValue::Histogram { bounds, buckets, sum, count } => {
                    let mut cumulative = 0u64;
                    for (i, hits) in buckets.iter().enumerate() {
                        cumulative += hits;
                        let le = match bounds.get(i) {
                            Some(b) => expo::format_f64(*b),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            m.name,
                            render_labels(&m.labels, Some(&le))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        m.name,
                        render_labels(&m.labels, None),
                        expo::format_f64(*sum)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {count}\n",
                        m.name,
                        render_labels(&m.labels, None)
                    ));
                }
            }
        }
        out
    }
}

/// Renders `{k="v",...}` (with an optional `le` label appended), or
/// the empty string when there are no labels at all.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", expo::escape_label_value(v)));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

/// Log-spaced latency buckets in seconds, 500 µs to 10 s.
pub const LATENCY_BUCKETS_S: &[f64] =
    &[0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0];

/// Power-of-two size buckets (batch sizes, queue depths), 1 to 4096.
pub const SIZE_BUCKETS: &[f64] =
    &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("hits_total");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("hits_total").get(), 5, "same handle on re-registration");
        let g = r.gauge("depth");
        g.set(2.5);
        g.set_max(1.0);
        assert_eq!(g.get(), 2.5);
        g.set_max(7.0);
        assert_eq!(r.gauge("depth").get(), 7.0);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let r = Registry::new();
        let h = r.histogram("lat", &[0.1, 1.0]);
        h.observe(0.05); // bucket 0
        h.observe(0.1); // le=0.1 is inclusive -> bucket 0
        h.observe(0.5); // bucket 1
        h.observe(3.0); // +Inf bucket
        let snap = r.snapshot();
        match &snap.metrics[0].value {
            MetricValue::Histogram { buckets, sum, count, .. } => {
                assert_eq!(buckets, &vec![2, 1, 1]);
                assert_eq!(*count, 4);
                assert!((*sum - 3.65).abs() < 1e-12);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn labeled_series_are_distinct_and_sorted() {
        let r = Registry::new();
        r.counter_with("evals_total", &[("fidelity", "lf")]).add(3);
        r.counter_with("evals_total", &[("fidelity", "hf")]).add(1);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 2);
        assert_eq!(snap.metrics[0].labels, vec![("fidelity".into(), "hf".into())]);
        assert_eq!(snap.metrics[1].labels, vec![("fidelity".into(), "lf".into())]);
    }

    #[test]
    fn prometheus_text_has_cumulative_buckets_and_triples() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(2.0);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_seconds_count 3\n"));
        assert!(text.contains("lat_seconds_sum 2.55\n"));
    }

    #[test]
    fn merged_snapshots_interleave_sorted_and_dedup() {
        let a = Registry::new();
        a.counter("b_total").inc();
        let b = Registry::new();
        b.counter("a_total").inc();
        b.counter("b_total").add(10); // collides: later entry dropped
        let merged = a.snapshot().merged(b.snapshot());
        let names: Vec<&str> = merged.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a_total", "b_total"]);
        assert_eq!(merged.metrics[1].value, MetricValue::Counter(1));
    }

    #[test]
    fn value_looks_series_up_by_name_and_labels_in_any_order() {
        let r = Registry::new();
        r.counter_with("hits_total", &[("a", "1"), ("b", "2")]).add(3);
        r.gauge_with("depth", &[("tier", "hf")]).set(1.5);
        let snap = r.snapshot();
        let hits = snap.value("hits_total", &[("b", "2"), ("a", "1")]);
        assert_eq!(hits, Some(&MetricValue::Counter(3)));
        assert_eq!(snap.value("depth", &[("tier", "hf")]), Some(&MetricValue::Gauge(1.5)));
        assert_eq!(snap.value("depth", &[]), None, "labels must match exactly");
        assert_eq!(snap.value("missing", &[]), None);
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("obs_registry_selftest_total").add(2);
        assert!(global().counter("obs_registry_selftest_total").get() >= 2);
    }
}
