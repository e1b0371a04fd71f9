//! A reader of the Prometheus text exposition format, and a
//! promtool-style validator built on it — pure string processing so CI
//! can lint `/metrics` output with no network dependencies.
//!
//! The (crate-private) reader takes a document apart once and
//! [`check_text`] lints what it found. The reader enforces:
//!
//! * comment grammar (`# TYPE name kind` with a valid name and a known
//!   kind, declared at most once per metric);
//! * sample grammar: metric name `[a-zA-Z_:][a-zA-Z0-9_:]*`, label
//!   names `[a-zA-Z_][a-zA-Z0-9_]*`, properly quoted/escaped label
//!   values, and a parseable value;
//! * every sample belongs to a declared `# TYPE` family;
//! * histogram families reassemble into `_bucket`/`_sum`/`_count`
//!   triples per label set: `le` bounds strictly increasing and ending
//!   at `+Inf`, cumulative bucket values non-decreasing, `_sum` and
//!   `_count` present.
//!
//! [`check_text`] adds the lint rules on top: counters are
//! non-negative, the `+Inf` bucket equals `_count`, and `_sum` is
//! finite and non-negative.

use std::collections::BTreeMap;

use crate::expo;

/// A label set in file order.
type LabelSet = Vec<(String, String)>;

/// The metric types a `# TYPE` line may declare.
const KINDS: [&str; 5] = ["counter", "gauge", "histogram", "summary", "untyped"];

/// What a successful [`check_text`] run covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckSummary {
    /// Non-empty lines inspected.
    pub lines: usize,
    /// Sample (non-comment) lines parsed.
    pub samples: usize,
    /// `# TYPE` families declared.
    pub families: usize,
    /// Histogram label-sets whose triples were verified.
    pub histograms: usize,
}

impl std::fmt::Display for CheckSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} lines, {} samples, {} families, {} histogram series: OK",
            self.lines, self.samples, self.families, self.histograms
        )
    }
}

/// One parsed sample line.
#[derive(Debug, Clone)]
pub(crate) struct Sample {
    pub(crate) line: usize,
    pub(crate) name: String,
    pub(crate) labels: LabelSet,
    pub(crate) value: f64,
}

/// One histogram label set, reassembled from its `_bucket`, `_sum` and
/// `_count` samples.
#[derive(Debug, Clone)]
pub(crate) struct HistogramSeries {
    pub(crate) family: String,
    /// The labels without `le`.
    pub(crate) labels: LabelSet,
    /// The line of the last bucket, for messages.
    pub(crate) line: usize,
    /// `(le, cumulative value)` in file order: `le` strictly increasing
    /// and ending at `+Inf`, values non-decreasing.
    pub(crate) buckets: Vec<(f64, f64)>,
    pub(crate) sum: f64,
    pub(crate) count: f64,
}

/// A document as [`read`] found it.
#[derive(Debug, Default)]
pub(crate) struct Exposition {
    /// Non-empty lines.
    pub(crate) lines: usize,
    /// Sample lines that parsed.
    pub(crate) sample_lines: usize,
    /// Declared families and their kinds.
    pub(crate) families: BTreeMap<String, &'static str>,
    /// Samples of every family that is not a histogram, in file order.
    pub(crate) samples: Vec<Sample>,
    /// Every well-formed histogram label set, sorted by family and labels.
    pub(crate) histograms: Vec<HistogramSeries>,
}

/// The samples of one histogram label set, as they turned up.
#[derive(Default)]
struct HistogramParts {
    /// `(line, le, cumulative value)` in file order.
    buckets: Vec<(usize, f64, f64)>,
    sum: Option<f64>,
    count: Option<f64>,
}

/// Reads a text exposition, appending a `line N: ...` message to
/// `errors` for every problem found. What is malformed is left out of
/// the result; the rest is still read.
pub(crate) fn read(text: &str, errors: &mut Vec<String>) -> Exposition {
    let mut doc = Exposition::default();
    let mut parsed = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let n = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        doc.lines += 1;
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                if let Err(e) = declare(&mut doc.families, n, parts.next(), parts.next()) {
                    errors.push(e);
                }
            }
            // `# HELP` and free-form comments are always legal.
            continue;
        }
        match parse_sample(n, line) {
            Ok(sample) => parsed.push(sample),
            Err(e) => errors.push(e),
        }
    }
    doc.sample_lines = parsed.len();

    // Histogram parts grouped by (family, labels without `le`).
    let mut histograms: BTreeMap<(String, LabelSet), HistogramParts> = BTreeMap::new();
    for s in parsed {
        let Some((family, suffix)) = histogram_part(&doc.families, &s.name) else {
            if doc.families.contains_key(&s.name) {
                doc.samples.push(s);
            } else {
                errors.push(format!(
                    "line {}: sample {} has no `# TYPE` declaration",
                    s.line, s.name
                ));
            }
            continue;
        };
        let (family, mut labels) = (family.to_string(), s.labels);
        if suffix != "_bucket" {
            let parts = histograms.entry((family, labels)).or_default();
            let slot = if suffix == "_sum" { &mut parts.sum } else { &mut parts.count };
            *slot = Some(s.value);
            continue;
        }
        let le = labels.iter().position(|(k, _)| k == "le").map(|i| labels.remove(i).1);
        match le.as_deref().map(|v| (v, parse_value(v))) {
            Some((_, Some(le))) => {
                let parts = histograms.entry((family, labels)).or_default();
                parts.buckets.push((s.line, le, s.value));
            }
            Some((v, None)) => errors.push(format!("line {}: unparseable le={v:?}", s.line)),
            None => errors.push(format!("line {}: {family}_bucket without le label", s.line)),
        }
    }
    for ((family, labels), parts) in histograms {
        doc.histograms.extend(assemble(family, labels, parts, errors));
    }
    doc
}

/// Records one `# TYPE name kind` declaration.
fn declare(
    families: &mut BTreeMap<String, &'static str>,
    n: usize,
    name: Option<&str>,
    kind: Option<&str>,
) -> Result<(), String> {
    let name = name.ok_or_else(|| format!("line {n}: `# TYPE` without a metric name"))?;
    if !expo::is_valid_metric_name(name) {
        return Err(format!("line {n}: invalid metric name {name:?} in TYPE"));
    }
    let kind = kind.unwrap_or("");
    let kind = KINDS
        .into_iter()
        .find(|&known| known == kind)
        .ok_or_else(|| format!("line {n}: unknown metric type {kind:?}"))?;
    if families.contains_key(name) {
        return Err(format!("line {n}: duplicate TYPE for {name}"));
    }
    families.insert(name.to_string(), kind);
    Ok(())
}

/// If `name` is a `_bucket`/`_sum`/`_count` series of a declared
/// histogram family, returns that family name and the suffix.
fn histogram_part<'a>(
    families: &BTreeMap<String, &str>,
    name: &'a str,
) -> Option<(&'a str, &'static str)> {
    ["_bucket", "_sum", "_count"].into_iter().find_map(|suffix| {
        let base = name.strip_suffix(suffix)?;
        (families.get(base) == Some(&"histogram")).then_some((base, suffix))
    })
}

/// Checks one histogram label set's parts, reporting every broken rule;
/// `None` when any rule broke.
fn assemble(
    family: String,
    labels: LabelSet,
    parts: HistogramParts,
    errors: &mut Vec<String>,
) -> Option<HistogramSeries> {
    let desc = label_desc(&labels);
    let Some(&(line, last_le, _)) = parts.buckets.last() else {
        // A `_sum`/`_count` label set with no `_bucket` series at all is
        // a malformed histogram too, not merely unchecked.
        errors.push(format!("histogram {family}{desc} has _sum/_count but no _bucket series"));
        return None;
    };
    let before = errors.len();
    for pair in parts.buckets.windows(2) {
        let ((line, lo, v_lo), (_, hi, v_hi)) = (pair[0], pair[1]);
        if lo >= hi {
            errors.push(format!(
                "line {line}: {family}_bucket{desc} le bounds not increasing ({lo} then {hi})"
            ));
        }
        if v_lo > v_hi {
            errors.push(format!(
                "line {line}: {family}_bucket{desc} cumulative values decrease \
                 ({v_lo} then {v_hi})"
            ));
        }
    }
    if last_le != f64::INFINITY {
        errors.push(format!("line {line}: {family}_bucket{desc} missing the le=\"+Inf\" bucket"));
    }
    if parts.count.is_none() {
        errors.push(format!("line {line}: {family}{desc} missing _count"));
    }
    if parts.sum.is_none() {
        errors.push(format!("line {line}: {family}{desc} missing _sum"));
    }
    let (Some(sum), Some(count)) = (parts.sum, parts.count) else { return None };
    if errors.len() > before {
        return None;
    }
    let buckets = parts.buckets.into_iter().map(|(_, le, value)| (le, value)).collect();
    Some(HistogramSeries { family, labels, line, buckets, sum, count })
}

/// `{k="v",...}`, or the empty string for no labels.
fn label_desc(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    format!("{{{}}}", pairs.join(","))
}

/// Validates Prometheus text exposition output: everything the reader
/// enforces plus the lint rules.
///
/// # Errors
///
/// Returns every problem found, each as a `line N: ...` message.
pub fn check_text(text: &str) -> Result<CheckSummary, Vec<String>> {
    let mut errors = Vec::new();
    let doc = read(text, &mut errors);
    for s in &doc.samples {
        if doc.families[&s.name] == "counter" && s.value < 0.0 {
            errors.push(format!("line {}: counter {} is negative", s.line, s.name));
        }
    }
    for h in &doc.histograms {
        let (line, desc) = (h.line, format!("{}{}", h.family, label_desc(&h.labels)));
        let inf = h.buckets.last().map_or(0.0, |&(_, value)| value);
        if h.count != inf {
            errors.push(format!("line {line}: {desc} _count {} != +Inf bucket {inf}", h.count));
        }
        if !h.sum.is_finite() || h.sum < 0.0 {
            errors
                .push(format!("line {line}: {desc} _sum {} is not finite and non-negative", h.sum));
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }
    Ok(CheckSummary {
        lines: doc.lines,
        samples: doc.sample_lines,
        families: doc.families.len(),
        histograms: doc.histograms.len(),
    })
}

/// Parses a sample value, accepting the Prometheus special spellings.
fn parse_value(v: &str) -> Option<f64> {
    match v {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

/// Parses `name{labels} value [timestamp]`.
fn parse_sample(n: usize, line: &str) -> Result<Sample, String> {
    let (series, rest) = match line.find(['{', ' ', '\t']) {
        Some(pos) if line.as_bytes()[pos] == b'{' => {
            let close = line[pos..]
                .find('}')
                .map(|o| pos + o)
                .ok_or_else(|| format!("line {n}: unterminated label braces"))?;
            (line[..close + 1].to_string(), &line[close + 1..])
        }
        Some(pos) => (line[..pos].to_string(), &line[pos..]),
        None => return Err(format!("line {n}: sample without a value")),
    };
    let (name, labels) = match series.find('{') {
        Some(pos) => {
            let inner = &series[pos + 1..series.len() - 1];
            (series[..pos].to_string(), parse_labels(n, inner)?)
        }
        None => (series, Vec::new()),
    };
    if !expo::is_valid_metric_name(&name) {
        return Err(format!("line {n}: invalid metric name {name:?}"));
    }
    let mut parts = rest.split_whitespace();
    let value_token = parts.next().ok_or_else(|| format!("line {n}: sample without a value"))?;
    let value = parse_value(value_token)
        .ok_or_else(|| format!("line {n}: unparseable value {value_token:?}"))?;
    if let Some(ts) = parts.next() {
        // Optional millisecond timestamp.
        ts.parse::<i64>().map_err(|_| format!("line {n}: trailing garbage {ts:?}"))?;
    }
    if let Some(extra) = parts.next() {
        return Err(format!("line {n}: trailing garbage {extra:?}"));
    }
    Ok(Sample { line: n, name, labels, value })
}

/// Parses the inside of `{...}`: comma-separated `key="value"` pairs.
fn parse_labels(n: usize, inner: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| format!("line {n}: label without `=`"))?;
        let key = rest[..eq].trim();
        if !expo::is_valid_label_name(key) {
            return Err(format!("line {n}: invalid label name {key:?}"));
        }
        let after = rest[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return Err(format!("line {n}: label value for {key:?} is not quoted"));
        }
        // Scan for the closing quote, honoring backslash escapes.
        let bytes = after.as_bytes();
        let mut i = 1;
        let mut value = String::new();
        loop {
            match bytes.get(i) {
                None => return Err(format!("line {n}: unterminated label value for {key:?}")),
                Some(b'"') => break,
                Some(b'\\') => {
                    match bytes.get(i + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err(format!("line {n}: bad escape in label {key:?}")),
                    }
                    i += 2;
                }
                Some(_) => {
                    // Step over one UTF-8 char.
                    let ch = after[i..].chars().next().expect("in bounds");
                    value.push(ch);
                    i += ch.len_utf8();
                }
            }
        }
        labels.push((key.to_string(), value));
        rest = after[i + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("line {n}: expected `,` between labels"));
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_document_passes() {
        let text = "\
# TYPE requests_total counter
requests_total{endpoint=\"/healthz\"} 3
requests_total{endpoint=\"/metrics\"} 1
# TYPE depth gauge
depth 4.5
# TYPE lat_seconds histogram
lat_seconds_bucket{le=\"0.1\"} 1
lat_seconds_bucket{le=\"1\"} 2
lat_seconds_bucket{le=\"+Inf\"} 3
lat_seconds_sum 2.55
lat_seconds_count 3
";
        let summary = check_text(text).expect("valid");
        assert_eq!(summary, CheckSummary { lines: 11, samples: 8, families: 3, histograms: 1 });
    }

    #[test]
    fn own_renderer_output_passes() {
        let r = crate::Registry::new();
        r.counter_with("reqs_total", &[("endpoint", "/v1/evaluate"), ("status", "200")]).add(7);
        r.gauge("queue_depth").set(3.0);
        let h =
            r.histogram_with("lat_seconds", &[("endpoint", "/healthz")], crate::LATENCY_BUCKETS_S);
        h.observe(0.002);
        h.observe(0.3);
        h.observe(42.0);
        check_text(&r.snapshot().to_prometheus_text()).expect("renderer output must validate");
    }

    #[test]
    fn bad_name_and_grammar_are_caught() {
        assert!(check_text("# TYPE 9bad counter\n9bad 1\n").is_err());
        assert!(check_text("# TYPE x counter\nx{le=0.1} 1\n").is_err(), "unquoted label value");
        assert!(check_text("# TYPE x counter\nx nope\n").is_err(), "unparseable value");
        assert!(check_text("x 1\n").is_err(), "sample without TYPE");
        assert!(check_text("# TYPE x counter\nx -1\n").is_err(), "negative counter");
        assert!(check_text("# TYPE x wat\n").is_err(), "unknown kind");
    }

    #[test]
    fn histogram_invariants_are_enforced() {
        // Missing +Inf bucket.
        assert!(
            check_text("# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n").is_err()
        );
        // _count disagrees with +Inf.
        assert!(check_text("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n")
            .is_err());
        // Cumulative values must not decrease.
        assert!(check_text(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"
        )
        .is_err());
        // Bounds must increase.
        assert!(check_text(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 2\n\
             h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n"
        )
        .is_err());
        // Missing _sum.
        assert!(check_text("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_count 0\n").is_err());
    }

    #[test]
    fn every_problem_is_reported() {
        let text = "# TYPE x counter\nx -1\ny 2\n# TYPE x gauge\n\
                    # TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum -1\nh_count 2\n";
        let errors = check_text(text).expect_err("four broken rules");
        for needle in ["negative", "no `# TYPE`", "duplicate TYPE", "+Inf"] {
            assert!(errors.iter().any(|e| e.contains(needle)), "{needle}: {errors:?}");
        }
    }

    #[test]
    fn label_escapes_round_trip() {
        let text = "# TYPE x counter\nx{msg=\"a\\\"b\\\\c\\nd\"} 1\n";
        let summary = check_text(text).expect("escaped labels are legal");
        assert_eq!(summary.samples, 1);
    }
}
