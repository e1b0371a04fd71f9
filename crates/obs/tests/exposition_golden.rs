//! Golden tests for the Prometheus text exposition: the renderer's
//! output validates against the in-repo `promcheck` grammar, each
//! histogram conformance rule is pinned, and histogram triples stay
//! consistent as observations accumulate.

use std::collections::BTreeMap;

use dse_obs::{promcheck, Registry};

/// A registry exercising every metric type, with and without labels.
fn populated_registry() -> Registry {
    let r = Registry::new();
    r.counter("plain_total").add(3);
    r.counter_with("requests_total", &[("endpoint", "/healthz"), ("status", "200")]).add(41);
    r.counter_with("requests_total", &[("endpoint", "/v1/evaluate"), ("status", "503")]).inc();
    r.gauge("heap_peak_depth").set(17.0);
    let h = r.histogram("eval_seconds", &[0.001, 0.01, 0.1, 1.0]);
    for v in [0.0004, 0.002, 0.002, 0.05, 0.5, 7.0] {
        h.observe(v);
    }
    let hl = r.histogram_with("batch_points", &[("fidelity", "lf")], &[1.0, 4.0, 16.0]);
    hl.observe(3.0);
    hl.observe(40.0);
    r
}

/// Flattens the Prometheus text into `rendered-series -> value`.
fn text_samples(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample lines are `series value`");
        let value = match value {
            "+Inf" => f64::INFINITY,
            v => v.parse().expect("numeric value"),
        };
        assert!(out.insert(series.to_string(), value).is_none(), "duplicate series {series}");
    }
    out
}

#[test]
fn prometheus_text_validates_against_the_grammar() {
    let text = populated_registry().snapshot().to_prometheus_text();
    let summary = promcheck::check_text(&text).expect("own output validates");
    // 2 histogram families, one of which has one label set each.
    assert_eq!(summary.histograms, 2);
    assert_eq!(summary.families, 5);
}

#[test]
fn histogram_conformance_rules_are_pinned() {
    // Golden pin of the checker's histogram rules: the well-formed
    // exposition passes, and each single-rule violation is caught with
    // a message naming the rule. If check_text ever loosens, this test
    // names exactly which conformance rule regressed.
    let golden = "# TYPE req_seconds histogram\n\
                  req_seconds_bucket{le=\"0.1\"} 1\n\
                  req_seconds_bucket{le=\"1\"} 3\n\
                  req_seconds_bucket{le=\"+Inf\"} 4\n\
                  req_seconds_sum 2.5\n\
                  req_seconds_count 4\n";
    promcheck::check_text(golden).expect("golden exposition conforms");

    let violations: [(&str, &str, &str); 6] = [
        (
            "missing +Inf bucket",
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n",
            "+Inf",
        ),
        (
            "cumulative buckets decrease",
            "# TYPE h histogram\nh_bucket{le=\"0.1\"} 3\nh_bucket{le=\"1\"} 2\n\
             h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
            "cumulative",
        ),
        (
            "le bounds out of order",
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 2\n\
             h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
            "not increasing",
        ),
        (
            "_count disagrees with +Inf",
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
            "_count",
        ),
        (
            "negative _sum",
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum -2\nh_count 1\n",
            "_sum",
        ),
        ("_sum/_count without buckets", "# TYPE h histogram\nh_sum 1\nh_count 1\n", "no _bucket"),
    ];
    for (rule, text, needle) in violations {
        let errors = promcheck::check_text(text).expect_err(rule);
        assert!(
            errors.iter().any(|e| e.contains(needle)),
            "{rule}: expected an error mentioning {needle:?}, got {errors:?}"
        );
    }
}

#[test]
fn histogram_triples_sum_consistently() {
    // The acceptance criterion spelled out: `_count` equals the +Inf
    // cumulative bucket, and `_sum` is a monotone total.
    let r = Registry::new();
    let h = r.histogram("t_seconds", &[0.1, 1.0]);
    let mut last_sum = 0.0;
    for step in 1..=5u64 {
        h.observe(0.05 * step as f64);
        let text = r.snapshot().to_prometheus_text();
        promcheck::check_text(&text).expect("every incremental snapshot validates");
        let samples = text_samples(&text);
        assert_eq!(samples["t_seconds_count"], step as f64);
        assert_eq!(samples["t_seconds_bucket{le=\"+Inf\"}"], step as f64);
        assert!(samples["t_seconds_sum"] >= last_sum, "sum is monotone");
        last_sum = samples["t_seconds_sum"];
    }
}
