//! Offline summarization of a `--trace-out` JSONL trace.
//!
//! `archdse trace-report` reads the per-run trace the observability
//! layer writes and answers the two questions a tuning session starts
//! with: *where did the wall time go* (per-phase span totals, hottest
//! individual spans) and *what did the budget buy* (per-fidelity ledger
//! deltas summed back together). Because every ledger mutation flows
//! through `CostLedger::evaluate_batch`, which emits one `ledger_batch`
//! delta event per call, the summed deltas must reproduce the run's
//! final `LedgerSummary` exactly — the report cross-checks that against
//! the `run_summary` event and fails loudly on any drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use archdse_serve::LatencyStats;
use dse_exec::{Fidelity, LedgerSummary};
use dse_obs::trace::{Field, FieldValue};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Totals accumulated from `ledger_batch` events for one fidelity.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct FidelityTotals {
    /// `ledger_batch` events seen.
    pub batches: u64,
    /// Design points proposed across those batches.
    pub proposals: u64,
    /// Charged (fresh) evaluations.
    pub evaluations: u64,
    /// Run-memo replays.
    pub cache_hits: u64,
    /// Run-memo misses (charged or denied).
    pub cache_misses: u64,
    /// Proposals denied for lack of budget.
    pub denied: u64,
    /// Model time charged, in trace-simulation units.
    pub model_time_units: f64,
    /// Wall time spent inside the evaluator, microseconds.
    pub eval_wall_us: u64,
}

/// The final ledger state as recorded by the `run_summary` event.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RunLedger {
    /// `(evaluations, cache_hits, cache_misses, denied, model_time_units)`
    /// for the LF section.
    pub lf: (u64, u64, u64, u64, f64),
    /// The same five counters for the HF section.
    pub hf: (u64, u64, u64, u64, f64),
}

/// The integer per-fidelity counters of the `run_summary` event, each
/// written as `<fidelity key>_<counter>` (`lf_cache_hits`), in tuple
/// order.
const COUNTERS: [&str; 4] = ["evaluations", "cache_hits", "cache_misses", "denied"];
/// The per-fidelity model-time field suffix of the `run_summary` event.
const MODEL_TIME: &str = "model_time_units";

/// Emits the `run_summary` event `explore --trace-out` closes its trace
/// with: the run's result, then both fidelities' ledger counters, LF
/// first, and, when one was installed, the budget.
/// [`summarize`] reads the counters back in the same shape.
pub fn emit_run_summary(best_cpi: f64, hf_sims: u64, summary: &LedgerSummary) {
    let mut fields: Vec<(String, FieldValue)> =
        vec![("best_cpi".into(), best_cpi.into()), ("hf_sims".into(), hf_sims.into())];
    for (fidelity, section) in summary.sections() {
        let counts =
            [section.evaluations, section.cache_hits, section.cache_misses, section.denied];
        for (counter, count) in COUNTERS.into_iter().zip(counts) {
            fields.push((format!("{}_{counter}", fidelity.key()), count.into()));
        }
        fields.push((format!("{}_{MODEL_TIME}", fidelity.key()), section.model_time_units.into()));
    }
    if let Some(budget) = summary.hf_budget {
        fields.push(("hf_budget".into(), budget.into()));
    }
    let fields: Vec<Field<'_>> =
        fields.iter().map(|(name, v)| (name.as_str(), v.clone())).collect();
    dse_obs::trace::event("run_summary", &fields);
}

/// Everything `trace-report` extracts from one trace file.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Non-empty lines read.
    pub lines: u64,
    /// `event` records seen.
    pub events: u64,
    /// Completed spans (`span_end` records).
    pub spans: u64,
    /// Span name → `(count, total duration in µs)`.
    pub phase_wall_us: BTreeMap<String, (u64, u64)>,
    /// Fidelity key (`lf`, `hf`) → summed `ledger_batch` deltas.
    /// Batches of any other fidelity, which traces written while the
    /// repository had a learned mid tier can hold, are ignored.
    pub per_fidelity: BTreeMap<String, FidelityTotals>,
    /// `episode` events per phase label.
    pub episodes: BTreeMap<String, u64>,
    /// The slowest individual spans, `(name, duration µs)`, descending.
    pub hottest: Vec<(String, u64)>,
    /// `request` records seen (per-request timelines; summarized in
    /// depth by `--requests` mode).
    pub requests: u64,
    /// The `run_summary` event, when the trace carries one.
    pub run_summary: Option<RunLedger>,
}

fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn get_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Parses and aggregates a JSONL trace, keeping the `top` slowest spans.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn summarize(text: &str, top: usize) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut all_spans: Vec<(String, u64)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        summary.lines += 1;
        let kind = value
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing `type`", idx + 1))?
            .to_string();
        match kind.as_str() {
            "span_begin" => {}
            "request" => summary.requests += 1,
            "span_end" => {
                summary.spans += 1;
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {}: span_end without `name`", idx + 1))?
                    .to_string();
                let dur = get_u64(&value, "dur_us");
                let slot = summary.phase_wall_us.entry(name.clone()).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += dur;
                all_spans.push((name, dur));
            }
            "event" => {
                summary.events += 1;
                let name = value.get("name").and_then(Value::as_str).unwrap_or("");
                match name {
                    "ledger_batch" => {
                        let fidelity = value
                            .get("fidelity")
                            .and_then(Value::as_str)
                            .and_then(Fidelity::from_key);
                        let Some(fidelity) = fidelity else { continue };
                        let t = summary.per_fidelity.entry(fidelity.key().to_string()).or_default();
                        t.batches += 1;
                        t.proposals += get_u64(&value, "proposals");
                        t.evaluations += get_u64(&value, "evaluations");
                        t.cache_hits += get_u64(&value, "cache_hits");
                        t.cache_misses += get_u64(&value, "cache_misses");
                        t.denied += get_u64(&value, "denied");
                        t.model_time_units += get_f64(&value, "model_time_units");
                        t.eval_wall_us += get_u64(&value, "dur_us");
                    }
                    "episode" => {
                        let phase =
                            value.get("phase").and_then(Value::as_str).unwrap_or("?").to_string();
                        *summary.episodes.entry(phase).or_insert(0) += 1;
                    }
                    "run_summary" => {
                        let [lf, hf] = Fidelity::ALL.map(|fidelity| {
                            let key = |suffix: &str| format!("{}_{suffix}", fidelity.key());
                            let [evaluations, cache_hits, cache_misses, denied] =
                                COUNTERS.map(|counter| get_u64(&value, &key(counter)));
                            let time = get_f64(&value, &key(MODEL_TIME));
                            (evaluations, cache_hits, cache_misses, denied, time)
                        });
                        summary.run_summary = Some(RunLedger { lf, hf });
                    }
                    _ => {}
                }
            }
            other => return Err(format!("line {}: unknown record type {other:?}", idx + 1)),
        }
    }
    all_spans.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    all_spans.truncate(top);
    summary.hottest = all_spans;
    Ok(summary)
}

/// Checks the summed `ledger_batch` deltas against the `run_summary`
/// event.
///
/// # Errors
///
/// One message per counter that disagrees, or a single message when the
/// trace has no `run_summary` to check against.
pub fn reconcile(summary: &TraceSummary) -> Result<(), Vec<String>> {
    let Some(run) = &summary.run_summary else {
        return Err(vec!["trace carries no run_summary event to reconcile against".into()]);
    };
    let mut errors = Vec::new();
    for (label, expected) in [("lf", run.lf), ("hf", run.hf)] {
        let got = summary.per_fidelity.get(label).copied().unwrap_or_default();
        let pairs = [
            ("evaluations", got.evaluations, expected.0),
            ("cache_hits", got.cache_hits, expected.1),
            ("cache_misses", got.cache_misses, expected.2),
            ("denied", got.denied, expected.3),
        ];
        for (field, got, want) in pairs {
            if got != want {
                errors.push(format!("{label}.{field}: deltas sum to {got}, ledger says {want}"));
            }
        }
        if (got.model_time_units - expected.4).abs() > 1e-6 {
            errors.push(format!(
                "{label}.model_time_units: deltas sum to {}, ledger says {}",
                got.model_time_units, expected.4
            ));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn ms(us: u64) -> f64 {
    us as f64 / 1_000.0
}

/// Renders the human-readable report the CLI prints.
pub fn render(summary: &TraceSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace report: {} lines ({} spans, {} events)",
        summary.lines, summary.spans, summary.events
    );
    if summary.requests > 0 {
        let _ = writeln!(
            out,
            "{} per-request timeline(s) present (summarize with --requests)",
            summary.requests
        );
    }
    if !summary.phase_wall_us.is_empty() {
        let _ = writeln!(out, "\nper-phase wall time:");
        for (name, (count, total)) in &summary.phase_wall_us {
            let _ = writeln!(out, "  {name:<14} {:>10.3} ms  ({count} span(s))", ms(*total));
        }
    }
    if !summary.per_fidelity.is_empty() {
        let _ = writeln!(out, "\nper-fidelity budget totals (summed ledger_batch deltas):");
        for (label, t) in &summary.per_fidelity {
            let _ = writeln!(
                out,
                "  {label}: {} batches, {} proposals -> {} evaluations, {} hits, {} misses, \
                 {} denied, {:.3} model time units, {:.3} ms eval wall",
                t.batches,
                t.proposals,
                t.evaluations,
                t.cache_hits,
                t.cache_misses,
                t.denied,
                t.model_time_units,
                ms(t.eval_wall_us)
            );
        }
    }
    if !summary.episodes.is_empty() {
        let rendered: Vec<String> =
            summary.episodes.iter().map(|(phase, n)| format!("{phase} {n}")).collect();
        let _ = writeln!(out, "\nepisodes: {}", rendered.join(", "));
    }
    match reconcile(summary) {
        Ok(()) => {
            let _ = writeln!(out, "\nreconciliation vs run_summary: exact match");
        }
        Err(errors) => {
            let _ = writeln!(out, "\nreconciliation vs run_summary: FAILED");
            for error in &errors {
                let _ = writeln!(out, "  {error}");
            }
        }
    }
    if !summary.hottest.is_empty() {
        let _ = writeln!(out, "\nhottest spans:");
        for (rank, (name, dur)) in summary.hottest.iter().enumerate() {
            let _ = writeln!(out, "  {:>2}. {name:<14} {:>10.3} ms", rank + 1, ms(*dur));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// `--requests` mode: per-request timelines of a traced server.
// ---------------------------------------------------------------------------

/// Nearest-rank percentiles over µs samples.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Samples the percentiles were taken over.
    pub samples: u64,
    /// Medians and tails, µs.
    pub p50: u64,
    /// 95th percentile, µs.
    pub p95: u64,
    /// 99th percentile, µs.
    pub p99: u64,
    /// The largest sample, µs.
    pub max: u64,
}

impl From<&LatencyStats> for Percentiles {
    fn from(l: &LatencyStats) -> Self {
        let us = |d: Duration| d.as_micros() as u64;
        Self { samples: l.samples, p50: us(l.p50), p95: us(l.p95), p99: us(l.p99), max: us(l.max) }
    }
}

fn percentiles(samples: Vec<u64>) -> Percentiles {
    Percentiles::from(&LatencyStats::from_samples(
        samples.into_iter().map(Duration::from_micros).collect(),
    ))
}

/// One `{"type":"request"}` record pulled out of a trace file.
#[derive(Debug, Clone)]
pub struct RequestRow {
    /// The request's trace id.
    pub trace: String,
    /// Low-cardinality endpoint label.
    pub endpoint: String,
    /// Answering HTTP status.
    pub status: u64,
    /// End-to-end wall time, µs.
    pub dur_us: u64,
    /// Named phase durations (`("parse", µs)`, …), record order.
    pub phases: Vec<(String, u64)>,
}

impl RequestRow {
    /// Total µs attributed to named phases.
    pub fn phase_sum(&self) -> u64 {
        self.phases.iter().map(|(_, us)| *us).sum()
    }
}

/// What `trace-report --requests` extracts from a trace.
#[derive(Debug, Default)]
pub struct RequestsReport {
    /// Every request row, in file order.
    pub rows: Vec<RequestRow>,
    /// Trace ids whose phase sum exceeds the recorded wall time.
    pub overruns: Vec<String>,
    /// Smallest phase-attribution fraction across rows (1.0 = every µs
    /// of wall time is named).
    pub attribution_min: f64,
    /// Mean phase-attribution fraction across rows.
    pub attribution_mean: f64,
    /// Per-phase percentiles across rows.
    pub phase_pcts: BTreeMap<String, Percentiles>,
    /// End-to-end wall-time percentiles.
    pub total_pcts: Percentiles,
}

fn parse_request_row(value: &Value) -> Option<RequestRow> {
    let mut phases = Vec::new();
    for (key, field) in value.as_map()? {
        if key == "ts_us" || key == "dur_us" {
            continue;
        }
        if let Some(name) = key.strip_suffix("_us") {
            phases.push((name.to_string(), field.as_u64().unwrap_or(0)));
        }
    }
    Some(RequestRow {
        trace: value.get("trace")?.as_str()?.to_string(),
        endpoint: value.get("endpoint").and_then(Value::as_str).unwrap_or("other").to_string(),
        status: get_u64(value, "status"),
        dur_us: get_u64(value, "dur_us"),
        phases,
    })
}

/// Collects the `request` records of one trace into a report.
///
/// # Errors
///
/// Returns a `line N: ...` message naming the first malformed line;
/// non-`request` record types are skipped, so span/event traces mix in
/// freely.
pub fn summarize_requests(text: &str) -> Result<RequestsReport, String> {
    let mut report = RequestsReport::default();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if value.get("type").and_then(Value::as_str) != Some("request") {
            continue;
        }
        let row = parse_request_row(&value)
            .ok_or_else(|| format!("line {}: request record without a trace id", idx + 1))?;
        report.rows.push(row);
    }

    // Phase attribution and percentiles.
    let mut fractions: Vec<f64> = Vec::new();
    let mut phase_samples: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for row in &report.rows {
        let sum = row.phase_sum();
        if sum > row.dur_us {
            report.overruns.push(row.trace.clone());
        }
        if row.dur_us > 0 {
            fractions.push((sum as f64 / row.dur_us as f64).min(1.0));
        }
        for (name, us) in &row.phases {
            phase_samples.entry(name.clone()).or_default().push(*us);
        }
    }
    if !fractions.is_empty() {
        report.attribution_min = fractions.iter().copied().fold(f64::INFINITY, f64::min);
        report.attribution_mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
    }
    report.phase_pcts =
        phase_samples.into_iter().map(|(name, samples)| (name, percentiles(samples))).collect();
    report.total_pcts = percentiles(report.rows.iter().map(|r| r.dur_us).collect());
    Ok(report)
}

/// Hard verification of a request trace, the `--requests` exit
/// criterion.
///
/// # Errors
///
/// One message per failed check: a trace without request records, or a
/// row whose phase sums exceed its wall time.
pub fn verify_requests(report: &RequestsReport) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    if report.rows.is_empty() {
        errors.push("no request records found (was the run traced?)".into());
    }
    for trace in &report.overruns {
        errors.push(format!("request {trace}: phase sums exceed its wall time"));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Renders the `--requests` report the CLI prints.
pub fn render_requests(report: &RequestsReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "request trace report: {} request record(s)", report.rows.len());
    if !report.rows.is_empty() {
        let _ = writeln!(
            out,
            "phase attribution: min {:.1}%, mean {:.1}% of wall time named ({} overrun(s))",
            report.attribution_min * 100.0,
            report.attribution_mean * 100.0,
            report.overruns.len()
        );
    }
    if !report.phase_pcts.is_empty() {
        let _ = writeln!(out, "\nper-phase percentiles (µs):");
        let _ = writeln!(
            out,
            "  {:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "phase", "samples", "p50", "p95", "p99", "max"
        );
        for (name, p) in &report.phase_pcts {
            let _ = writeln!(
                out,
                "  {name:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
                p.samples, p.p50, p.p95, p.p99, p.max
            );
        }
    }
    if !report.rows.is_empty() {
        let p = &report.total_pcts;
        let _ = writeln!(
            out,
            "\nend-to-end wall time (µs): {} samples  p50 {}  p95 {}  p99 {}  max {}",
            p.samples, p.p50, p.p95, p.p99, p.max
        );
    }
    match verify_requests(report) {
        Ok(()) => {
            let _ = writeln!(out, "\nverification: every check passed");
        }
        Err(errors) => {
            let _ = writeln!(out, "\nverification: FAILED ({} problem(s))", errors.len());
            for error in errors.iter().take(20) {
                let _ = writeln!(out, "  {error}");
            }
            if errors.len() > 20 {
                let _ = writeln!(out, "  … and {} more", errors.len() - 20);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = r#"{"type":"span_begin","id":1,"parent":null,"name":"mfrl_run","ts_us":0}
{"type":"span_begin","id":2,"parent":1,"name":"lf_phase","ts_us":1}
{"type":"event","name":"episode","span":2,"ts_us":2,"phase":"lf","episode":0,"cpi":1.5}
{"type":"event","name":"ledger_batch","span":2,"ts_us":3,"fidelity":"lf","proposals":4,"evaluations":3,"cache_hits":1,"cache_misses":3,"denied":0,"model_time_units":3.0,"dur_us":120}
{"type":"span_end","id":2,"name":"lf_phase","ts_us":10,"dur_us":9}
{"type":"event","name":"ledger_batch","span":1,"ts_us":12,"fidelity":"hf","proposals":2,"evaluations":2,"cache_hits":0,"cache_misses":2,"denied":0,"model_time_units":2.0,"dur_us":300}
{"type":"span_end","id":1,"name":"mfrl_run","ts_us":20,"dur_us":20}
{"type":"event","name":"run_summary","span":null,"ts_us":21,"lf_evaluations":3,"lf_cache_hits":1,"lf_cache_misses":3,"lf_denied":0,"lf_model_time_units":3.0,"hf_evaluations":2,"hf_cache_hits":0,"hf_cache_misses":2,"hf_denied":0,"hf_model_time_units":2.0}
"#;

    #[test]
    fn summarize_aggregates_spans_and_deltas() {
        let s = summarize(TRACE, 5).unwrap();
        assert_eq!((s.lines, s.spans, s.events), (8, 2, 4));
        assert_eq!(s.phase_wall_us["lf_phase"], (1, 9));
        assert_eq!(s.per_fidelity["lf"].evaluations, 3);
        assert_eq!(s.per_fidelity["hf"].eval_wall_us, 300);
        assert_eq!(s.episodes["lf"], 1);
        assert_eq!(s.hottest[0], ("mfrl_run".to_string(), 20));
        assert!(reconcile(&s).is_ok());
    }

    #[test]
    fn reconcile_catches_drift() {
        let tampered = TRACE.replace(r#""lf_evaluations":3"#, r#""lf_evaluations":4"#);
        let s = summarize(&tampered, 5).unwrap();
        let errors = reconcile(&s).unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("lf.evaluations"), "{errors:?}");
    }

    #[test]
    fn missing_run_summary_is_an_error() {
        let truncated: String = TRACE.lines().take(6).map(|l| format!("{l}\n")).collect();
        let s = summarize(&truncated, 5).unwrap();
        assert!(reconcile(&s).is_err());
    }

    #[test]
    fn malformed_lines_are_named() {
        let err = summarize("{\"type\":\"span_end\"}\nnot json\n", 3).unwrap_err();
        assert!(err.contains("line 1") || err.contains("line 2"), "{err}");
    }

    #[test]
    fn requests_mode_reads_request_records_in_file_order() {
        let line = |trace: &str, endpoint: &str| {
            format!(
                r#"{{"type":"request","trace":"{trace}","role":"server","endpoint":"{endpoint}","status":200,"ts_us":10,"dur_us":1000,"parse_us":50,"queue_us":200,"coalesce_us":100,"exec_us":600,"serialize_us":20,"write_us":30}}"#
            )
        };
        let text = format!(
            "{}\n{}\n{}\n",
            line("s00000001", "evaluate"),
            r#"{"type":"span_begin","id":1,"parent":null,"name":"x","ts_us":0}"#,
            line("s00000002", "healthz"),
        );
        let report = summarize_requests(&text).unwrap();
        let order: Vec<(&str, &str)> =
            report.rows.iter().map(|r| (r.trace.as_str(), r.endpoint.as_str())).collect();
        assert_eq!(order, [("s00000001", "evaluate"), ("s00000002", "healthz")]);
        assert_eq!(report.rows[0].phase_sum(), 1000);
        assert_eq!(report.total_pcts.samples, 2);
        assert!(verify_requests(&report).is_ok());
    }

    #[test]
    fn requests_mode_catches_phase_overruns() {
        // dur_us 1000 but phases sum to 1500: impossible attribution.
        let line = r#"{"type":"request","trace":"x","role":"server","endpoint":"evaluate","status":200,"ts_us":1,"dur_us":1000,"parse_us":500,"exec_us":1000}"#;
        let report = summarize_requests(&format!("{line}\n")).unwrap();
        assert_eq!(report.overruns, vec!["x".to_string()]);
        assert!(verify_requests(&report).is_err());
    }

    #[test]
    fn requests_mode_computes_phase_percentiles() {
        let mut text = String::new();
        for i in 1..=100u64 {
            text.push_str(&format!(
                r#"{{"type":"request","trace":"t{i}","role":"server","endpoint":"evaluate","status":200,"ts_us":{i},"dur_us":{},"exec_us":{}}}"#,
                i * 10,
                i * 10,
            ));
            text.push('\n');
        }
        let report = summarize_requests(&text).unwrap();
        let exec = &report.phase_pcts["exec"];
        assert_eq!(
            (exec.samples, exec.p50, exec.p95, exec.p99, exec.max),
            (100, 500, 950, 990, 1000)
        );
        assert_eq!(report.total_pcts.p99, 990);
        assert!((report.attribution_min - 1.0).abs() < 1e-9);
        let rendered = render_requests(&report);
        assert!(rendered.contains("per-phase percentiles"), "{rendered}");
        assert!(rendered.contains("every check passed"), "{rendered}");
    }

    #[test]
    fn requests_mode_errors_on_malformed_lines() {
        let err =
            summarize_requests("{\"type\":\"request\",\"trace\":\"a\"}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn render_mentions_every_section() {
        let s = summarize(TRACE, 5).unwrap();
        let text = render(&s);
        for needle in
            ["per-phase wall time", "budget totals", "episodes:", "exact match", "hottest spans"]
        {
            assert!(text.contains(needle), "report lacks {needle:?}:\n{text}");
        }
    }
}
