//! Cross-process metric aggregation: parse a Prometheus text exposition
//! back into a [`Snapshot`] and sum snapshots series-by-series.
//!
//! This is the router half of sharded serving. Each shard renders one
//! snapshot with [`Snapshot::to_prometheus_text`]; the router scrapes
//! them over HTTP, reads each back with [`parse_prometheus_text`]
//! (de-cumulating histogram buckets back to per-bucket counts), folds
//! them with [`sum_snapshots`] and renders both `/metrics` forms from
//! the one result. Round-tripping through the text format — rather than
//! a private side channel — keeps the aggregate honest: anything the
//! router can sum, any scraper could too.

use std::collections::BTreeMap;

use crate::promcheck;
use crate::registry::{MetricSnapshot, MetricValue, Snapshot};

/// Parses a Prometheus text exposition into a [`Snapshot`].
///
/// The document goes through the same reader as
/// [`promcheck::check_text`]. Counter and gauge samples keep their
/// declared kind; each histogram label set becomes one
/// [`MetricValue::Histogram`] with its cumulative buckets de-cumulated
/// back into per-bucket hit counts. `summary` and `untyped` families
/// are not produced by our renderer and are rejected.
///
/// # Errors
///
/// Returns the first `line N: ...` problem the reader found (grammar,
/// samples without a `# TYPE`, histogram triples that do not
/// reassemble), an unsupported family, or a counter that is not a u64.
pub fn parse_prometheus_text(text: &str) -> Result<Snapshot, String> {
    let mut errors = Vec::new();
    let doc = promcheck::read(text, &mut errors);
    if let Some(first) = errors.into_iter().next() {
        return Err(first);
    }
    if let Some((name, kind)) =
        doc.families.iter().find(|(_, kind)| !["counter", "gauge", "histogram"].contains(kind))
    {
        return Err(format!("{name}: unsupported metric type {kind:?}"));
    }
    let mut metrics = Vec::with_capacity(doc.samples.len() + doc.histograms.len());
    for s in doc.samples {
        let value = match doc.families[&s.name] {
            "counter" => {
                if s.value < 0.0 || s.value.fract() != 0.0 || s.value > u64::MAX as f64 {
                    return Err(format!(
                        "line {}: counter {} value {} is not a u64",
                        s.line, s.name, s.value
                    ));
                }
                MetricValue::Counter(s.value as u64)
            }
            "gauge" => MetricValue::Gauge(s.value),
            _ => {
                return Err(format!("line {}: histogram sample {} lacks a suffix", s.line, s.name))
            }
        };
        metrics.push(MetricSnapshot { name: s.name, labels: s.labels, value });
    }
    for h in doc.histograms {
        let bounds = h.buckets.iter().map(|&(le, _)| le).filter(|le| le.is_finite()).collect();
        let mut below = 0.0;
        let buckets = h
            .buckets
            .iter()
            .map(|&(_, cumulative)| {
                let hits = (cumulative - below) as u64;
                below = cumulative;
                hits
            })
            .collect();
        metrics.push(MetricSnapshot {
            name: h.family,
            labels: h.labels,
            value: MetricValue::Histogram { bounds, buckets, sum: h.sum, count: h.count as u64 },
        });
    }
    metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    Ok(Snapshot { metrics })
}

/// Folds snapshots into one by summing series with identical
/// `(name, labels)`: counters and gauges add, histograms add
/// bucket-by-bucket. A histogram whose bounds disagree with the first
/// occurrence keeps the first occurrence's value (mixed-version shards
/// must not corrupt the aggregate); series unique to one snapshot pass
/// through unchanged.
#[must_use]
pub fn sum_snapshots<I: IntoIterator<Item = Snapshot>>(snapshots: I) -> Snapshot {
    let mut acc: Vec<MetricSnapshot> = Vec::new();
    let mut index: BTreeMap<(String, Vec<(String, String)>), usize> = BTreeMap::new();
    for snapshot in snapshots {
        for m in snapshot.metrics {
            let key = (m.name.clone(), m.labels.clone());
            match index.get(&key) {
                None => {
                    index.insert(key, acc.len());
                    acc.push(m);
                }
                Some(&i) => match (&mut acc[i].value, m.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                        *a = a.saturating_add(b);
                    }
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                    (
                        MetricValue::Histogram { bounds, buckets, sum, count },
                        MetricValue::Histogram {
                            bounds: b_bounds,
                            buckets: b_buckets,
                            sum: b_sum,
                            count: b_count,
                        },
                    ) if *bounds == b_bounds && buckets.len() == b_buckets.len() => {
                        for (a, b) in buckets.iter_mut().zip(&b_buckets) {
                            *a = a.saturating_add(*b);
                        }
                        *sum += b_sum;
                        *count = count.saturating_add(b_count);
                    }
                    // Kind or shape mismatch: keep the first occurrence.
                    _ => {}
                },
            }
        }
    }
    acc.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    Snapshot { metrics: acc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::LATENCY_BUCKETS_S;

    fn sample_registry(scale: u64) -> Registry {
        let r = Registry::new();
        r.counter("reqs_total").add(3 * scale);
        r.counter_with("by_ep_total", &[("endpoint", "healthz")]).add(scale);
        r.gauge("open").set(2.0 * scale as f64);
        let h = r.histogram_with("lat_seconds", &[("endpoint", "eval")], LATENCY_BUCKETS_S);
        for _ in 0..scale {
            h.observe(0.002);
            h.observe(0.7);
        }
        r
    }

    #[test]
    fn text_round_trips_to_the_same_snapshot() {
        let snap = sample_registry(3).snapshot();
        let parsed = parse_prometheus_text(&snap.to_prometheus_text()).expect("own output parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn summed_shards_equal_one_big_registry() {
        let a = sample_registry(2).snapshot();
        let b = sample_registry(5).snapshot();
        let summed = sum_snapshots([a, b]);
        assert_eq!(summed, sample_registry(7).snapshot());
        // And the aggregate still renders a valid exposition.
        crate::check_text(&summed.to_prometheus_text()).expect("aggregate validates");
    }

    #[test]
    fn disjoint_series_pass_through_and_mismatches_keep_first() {
        let a = Registry::new();
        a.counter("only_a_total").add(4);
        let b = Registry::new();
        b.gauge("only_b").set(1.5);
        let summed = sum_snapshots([a.snapshot(), b.snapshot()]);
        assert_eq!(summed.metrics.len(), 2);

        // Same name, conflicting kinds: first wins.
        let c = Registry::new();
        c.counter("x_total").add(7);
        let d = Registry::new();
        d.gauge("x_total").set(9.0);
        let summed = sum_snapshots([c.snapshot(), d.snapshot()]);
        assert_eq!(summed.metrics.len(), 1);
        assert_eq!(summed.metrics[0].value, MetricValue::Counter(7));
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(parse_prometheus_text("x 1\n").is_err(), "sample without TYPE");
        assert!(parse_prometheus_text("# TYPE x summary\n").is_err(), "unsupported kind");
        assert!(
            parse_prometheus_text("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n")
                .is_err(),
            "histogram without +Inf"
        );
        assert!(parse_prometheus_text("# TYPE c counter\nc -2\n").is_err(), "negative counter");
    }
}
