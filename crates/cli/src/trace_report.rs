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
    /// The same five counters for the learned mid tier (all zero in a
    /// two-tier trace, which predates the field and reconciles as such).
    pub learned: (u64, u64, u64, u64, f64),
    /// The same five counters for the HF section.
    pub hf: (u64, u64, u64, u64, f64),
}

/// The integer per-tier counters of the `run_summary` event, each
/// written as `<tier key>_<counter>` (`lf_cache_hits`), in tuple order.
const COUNTERS: [&str; 4] = ["evaluations", "cache_hits", "cache_misses", "denied"];
/// The per-tier model-time field suffix of the `run_summary` event.
const MODEL_TIME: &str = "model_time_units";

/// Emits the `run_summary` event `explore --trace-out` closes its trace
/// with: the run's result, then every tier's ledger counters, cheapest
/// tier first, the budget floor and, when one was installed, the budget.
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
    fields.push(("budget_floor".into(), summary.budget_floor.key().into()));
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
    /// Fidelity label → summed `ledger_batch` deltas.
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
                            .unwrap_or("unknown")
                            .to_string();
                        let t = summary.per_fidelity.entry(fidelity).or_default();
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
                        let [lf, learned, hf] = Fidelity::STACK.map(|fidelity| {
                            let key = |suffix: &str| format!("{}_{suffix}", fidelity.key());
                            let [evaluations, cache_hits, cache_misses, denied] =
                                COUNTERS.map(|counter| get_u64(&value, &key(counter)));
                            let time = get_f64(&value, &key(MODEL_TIME));
                            (evaluations, cache_hits, cache_misses, denied, time)
                        });
                        summary.run_summary = Some(RunLedger { lf, learned, hf });
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
    for (label, expected) in [("lf", run.lf), ("learned", run.learned), ("hf", run.hf)] {
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
// `--requests` mode: merged per-request timelines across shard traces.
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
    /// The propagated trace id.
    pub trace: String,
    /// `"router"` or `"server"`.
    pub role: String,
    /// Low-cardinality endpoint label.
    pub endpoint: String,
    /// Answering HTTP status.
    pub status: u64,
    /// Shard id, when the record came from a shard worker process.
    pub shard: Option<u64>,
    /// Record timestamp (µs from that process's tracer epoch).
    pub ts_us: u64,
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

/// Router endpoints that proxy to shard workers with the trace id
/// attached; a 200 from one of these must join at least one shard-side
/// request record. (`healthz` is answered locally; `metrics` and
/// `shutdown` fan out without trace context by design.)
const PROXIED_ENDPOINTS: [&str; 6] =
    ["evaluate", "explain", "explore", "workloads", "jobs", "debug"];

/// What `trace-report --requests` extracts from a merged trace set.
#[derive(Debug, Default)]
pub struct RequestsReport {
    /// Trace files merged.
    pub files: usize,
    /// All request rows, causally grouped: router span first, then its
    /// shard spans by timestamp; single-process rows in file order.
    pub rows: Vec<RequestRow>,
    /// Rows by role.
    pub router_rows: u64,
    /// Rows recorded shard/server-side.
    pub server_rows: u64,
    /// Router rows on proxied endpoints that joined ≥ 1 shard row.
    pub joined: u64,
    /// Of those, rows that joined more than one shard leg (an evaluate
    /// batch spanning several shard owners).
    pub multi_leg: u64,
    /// Trace ids of router rows on proxied 200s with no shard-side row.
    pub unjoined: Vec<String>,
    /// Trace ids recorded shard-side whose id the router never saw
    /// (only meaningful when router rows exist at all).
    pub orphaned: Vec<String>,
    /// Trace ids whose phase sum exceeds the recorded wall time.
    pub overruns: Vec<String>,
    /// Smallest phase-attribution fraction across rows (1.0 = every µs
    /// of wall time is named).
    pub attribution_min: f64,
    /// Mean phase-attribution fraction across rows.
    pub attribution_mean: f64,
    /// Per-phase percentiles across server-side rows (router rows when
    /// no server rows exist).
    pub phase_pcts: BTreeMap<String, Percentiles>,
    /// End-to-end wall-time percentiles per role.
    pub total_pcts: BTreeMap<String, Percentiles>,
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
        role: value.get("role").and_then(Value::as_str).unwrap_or("server").to_string(),
        endpoint: value.get("endpoint").and_then(Value::as_str).unwrap_or("other").to_string(),
        status: get_u64(value, "status"),
        shard: value.get("shard").and_then(Value::as_u64),
        ts_us: get_u64(value, "ts_us"),
        dur_us: get_u64(value, "dur_us"),
        phases,
    })
}

/// Merges `request` records from several trace files (typically the
/// router's plus one per shard) into one joined report.
///
/// # Errors
///
/// Returns a message naming the first malformed line; non-`request`
/// record types are skipped, so span/event traces mix in freely.
pub fn summarize_requests(files: &[(String, String)]) -> Result<RequestsReport, String> {
    let mut report = RequestsReport { files: files.len(), ..Default::default() };
    let mut rows: Vec<RequestRow> = Vec::new();
    for (label, text) in files {
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value: Value =
                serde_json::from_str(line).map_err(|e| format!("{label}:{}: {e}", idx + 1))?;
            if value.get("type").and_then(Value::as_str) != Some("request") {
                continue;
            }
            let row = parse_request_row(&value)
                .ok_or_else(|| format!("{label}:{}: request record without a trace id", idx + 1))?;
            rows.push(row);
        }
    }

    // Join: group shard-side rows under the router row carrying the
    // same trace id.
    let mut server_by_trace: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut router_traces: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for (idx, row) in rows.iter().enumerate() {
        if row.role == "router" {
            router_traces.insert(&row.trace);
        } else {
            server_by_trace.entry(&row.trace).or_default().push(idx);
        }
    }
    for row in &rows {
        match row.role.as_str() {
            "router" => {
                report.router_rows += 1;
                if !PROXIED_ENDPOINTS.contains(&row.endpoint.as_str()) || row.status != 200 {
                    continue;
                }
                match server_by_trace.get(row.trace.as_str()).map_or(0, Vec::len) {
                    0 => report.unjoined.push(row.trace.clone()),
                    legs => {
                        report.joined += 1;
                        if legs > 1 {
                            report.multi_leg += 1;
                        }
                    }
                }
            }
            _ => {
                report.server_rows += 1;
                if report.files > 1
                    && row.trace.starts_with('r')
                    && !router_traces.contains(row.trace.as_str())
                {
                    // A router-assigned id ("r…") the router never
                    // recorded finishing: a lost front-door span.
                    report.orphaned.push(row.trace.clone());
                }
            }
        }
    }

    // Phase attribution and percentiles.
    let mut fractions: Vec<f64> = Vec::new();
    let mut phase_samples: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut total_samples: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let phase_role = if rows.iter().any(|r| r.role != "router") { "server" } else { "router" };
    for row in &rows {
        let sum = row.phase_sum();
        if sum > row.dur_us {
            report.overruns.push(row.trace.clone());
        }
        if row.dur_us > 0 {
            fractions.push((sum as f64 / row.dur_us as f64).min(1.0));
        }
        if row.role == phase_role {
            for (name, us) in &row.phases {
                phase_samples.entry(name.clone()).or_default().push(*us);
            }
        }
        total_samples.entry(row.role.clone()).or_default().push(row.dur_us);
    }
    report.attribution_min = fractions.iter().copied().fold(f64::INFINITY, f64::min);
    if !fractions.is_empty() {
        report.attribution_mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
    } else {
        report.attribution_min = 0.0;
    }
    report.phase_pcts =
        phase_samples.into_iter().map(|(name, samples)| (name, percentiles(samples))).collect();
    report.total_pcts =
        total_samples.into_iter().map(|(role, samples)| (role, percentiles(samples))).collect();

    // Causal ordering: router span first, then its shard legs by
    // timestamp, then everything that never crossed the router.
    let mut ordered: Vec<RequestRow> = Vec::with_capacity(rows.len());
    let mut placed = vec![false; rows.len()];
    let index_of: BTreeMap<(String, u64), usize> = rows
        .iter()
        .enumerate()
        .filter(|(_, r)| r.role == "router")
        .map(|(i, r)| ((r.trace.clone(), r.ts_us), i))
        .collect();
    for &ri in index_of.values() {
        ordered.push(rows[ri].clone());
        placed[ri] = true;
        if let Some(legs) = server_by_trace.get(rows[ri].trace.as_str()) {
            let mut legs: Vec<usize> = legs.iter().copied().filter(|&i| !placed[i]).collect();
            legs.sort_by_key(|&i| rows[i].ts_us);
            for i in legs {
                ordered.push(rows[i].clone());
                placed[i] = true;
            }
        }
    }
    for (i, row) in rows.iter().enumerate() {
        if !placed[i] {
            ordered.push(row.clone());
        }
    }
    report.rows = ordered;
    Ok(report)
}

/// Hard verification of a merged request trace, the `--requests` exit
/// criterion.
///
/// # Errors
///
/// One message per failed check: an unjoined router span, a shard span
/// orphaned from its router, or a row whose phase sums exceed its wall
/// time.
pub fn verify_requests(report: &RequestsReport) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    if report.rows.is_empty() {
        errors.push("no request records found (was the run traced?)".into());
    }
    for trace in &report.unjoined {
        errors.push(format!("router span {trace} joined no shard request span"));
    }
    for trace in &report.orphaned {
        errors.push(format!("shard span {trace} has no matching router span"));
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
    let _ = writeln!(
        out,
        "request trace report: {} file(s), {} request record(s) \
         ({} router, {} server)",
        report.files,
        report.rows.len(),
        report.router_rows,
        report.server_rows
    );
    if report.router_rows > 0 {
        let _ = writeln!(
            out,
            "joins: {} of {} proxied router spans joined ({} multi-leg), {} unjoined, \
             {} orphaned shard spans",
            report.joined,
            report.joined + report.unjoined.len() as u64,
            report.multi_leg,
            report.unjoined.len(),
            report.orphaned.len()
        );
    }
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
    if !report.total_pcts.is_empty() {
        let _ = writeln!(out, "\nend-to-end wall time (µs):");
        for (role, p) in &report.total_pcts {
            let _ = writeln!(
                out,
                "  {role:<12} {:>8} samples  p50 {:>8}  p95 {:>8}  p99 {:>8}  max {:>8}",
                p.samples, p.p50, p.p95, p.p99, p.max
            );
        }
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
{"type":"event","name":"ledger_batch","span":1,"ts_us":11,"fidelity":"learned","proposals":2,"evaluations":1,"cache_hits":1,"cache_misses":1,"denied":0,"model_time_units":0.01,"dur_us":40}
{"type":"event","name":"ledger_batch","span":1,"ts_us":12,"fidelity":"hf","proposals":2,"evaluations":2,"cache_hits":0,"cache_misses":2,"denied":0,"model_time_units":2.0,"dur_us":300}
{"type":"span_end","id":1,"name":"mfrl_run","ts_us":20,"dur_us":20}
{"type":"event","name":"run_summary","span":null,"ts_us":21,"lf_evaluations":3,"lf_cache_hits":1,"lf_cache_misses":3,"lf_denied":0,"lf_model_time_units":3.0,"learned_evaluations":1,"learned_cache_hits":1,"learned_cache_misses":1,"learned_denied":0,"learned_model_time_units":0.01,"budget_floor":"learned","hf_evaluations":2,"hf_cache_hits":0,"hf_cache_misses":2,"hf_denied":0,"hf_model_time_units":2.0}
"#;

    #[test]
    fn summarize_aggregates_spans_and_deltas() {
        let s = summarize(TRACE, 5).unwrap();
        assert_eq!((s.lines, s.spans, s.events), (9, 2, 5));
        assert_eq!(s.phase_wall_us["lf_phase"], (1, 9));
        assert_eq!(s.per_fidelity["lf"].evaluations, 3);
        assert_eq!(s.per_fidelity["learned"].cache_hits, 1);
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
    fn two_tier_trace_without_learned_fields_still_reconciles() {
        // Traces written before the learned tier existed carry no
        // learned_* fields and no "learned" ledger_batch events; both
        // sides default to zero and must agree.
        let trace = r#"{"type":"event","name":"ledger_batch","span":null,"ts_us":1,"fidelity":"hf","proposals":1,"evaluations":1,"cache_hits":0,"cache_misses":1,"denied":0,"model_time_units":1.0,"dur_us":10}
{"type":"event","name":"run_summary","span":null,"ts_us":2,"lf_evaluations":0,"lf_cache_hits":0,"lf_cache_misses":0,"lf_denied":0,"lf_model_time_units":0.0,"hf_evaluations":1,"hf_cache_hits":0,"hf_cache_misses":1,"hf_denied":0,"hf_model_time_units":1.0}
"#;
        let s = summarize(trace, 5).unwrap();
        assert_eq!(s.run_summary.unwrap().learned, (0, 0, 0, 0, 0.0));
        assert!(reconcile(&s).is_ok());
    }

    #[test]
    fn missing_run_summary_is_an_error() {
        let truncated: String = TRACE.lines().take(7).map(|l| format!("{l}\n")).collect();
        let s = summarize(&truncated, 5).unwrap();
        assert!(reconcile(&s).is_err());
    }

    #[test]
    fn malformed_lines_are_named() {
        let err = summarize("{\"type\":\"span_end\"}\nnot json\n", 3).unwrap_err();
        assert!(err.contains("line 1") || err.contains("line 2"), "{err}");
    }

    fn req_line(trace: &str, role: &str, endpoint: &str, status: u64, extra: &str) -> String {
        format!(
            r#"{{"type":"request","trace":"{trace}","role":"{role}","endpoint":"{endpoint}","status":{status},"ts_us":10,"dur_us":1000,"parse_us":50,"queue_us":200,"coalesce_us":100,"exec_us":600,"serialize_us":20,"write_us":30{extra}}}"#
        )
    }

    #[test]
    fn requests_mode_joins_router_and_shard_spans() {
        let router = format!(
            "{}\n{}\n{}\n",
            req_line("a", "router", "evaluate", 200, ""),
            req_line("b", "router", "evaluate", 200, ""),
            req_line("h", "router", "healthz", 200, ""), // local: no join needed
        );
        let shard0 = format!("{}\n", req_line("a", "server", "evaluate", 200, r#","shard":0"#));
        let shard1 = format!(
            "{}\n{}\n",
            req_line("a", "server", "evaluate", 200, r#","shard":1"#),
            req_line("b", "server", "evaluate", 200, r#","shard":1"#),
        );
        let report = summarize_requests(&[
            ("router".into(), router),
            ("s0".into(), shard0),
            ("s1".into(), shard1),
        ])
        .unwrap();
        assert_eq!((report.router_rows, report.server_rows), (3, 3));
        assert_eq!((report.joined, report.multi_leg), (2, 1));
        assert!(report.unjoined.is_empty() && report.orphaned.is_empty());
        assert!(verify_requests(&report).is_ok());
        // Causal ordering: each router span is directly followed by its
        // shard legs.
        let order: Vec<(&str, &str)> =
            report.rows.iter().map(|r| (r.trace.as_str(), r.role.as_str())).collect();
        let a_router = order.iter().position(|&(t, r)| t == "a" && r == "router").unwrap();
        assert_eq!(order[a_router + 1], ("a", "server"));
        assert_eq!(order[a_router + 2], ("a", "server"));
    }

    #[test]
    fn requests_mode_flags_unjoined_and_orphaned_spans() {
        let router = format!("{}\n", req_line("lost", "router", "evaluate", 200, ""));
        let shard = format!("{}\n", req_line("r0000002a", "server", "evaluate", 200, ""));
        let report =
            summarize_requests(&[("router".into(), router), ("s0".into(), shard)]).unwrap();
        assert_eq!(report.unjoined, vec!["lost".to_string()]);
        assert_eq!(report.orphaned, vec!["r0000002a".to_string()]);
        let errors = verify_requests(&report).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("joined no shard")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("no matching router")), "{errors:?}");
    }

    #[test]
    fn requests_mode_catches_phase_overruns() {
        // dur_us 1000 but phases sum to 1500: impossible attribution.
        let line = r#"{"type":"request","trace":"x","role":"server","endpoint":"evaluate","status":200,"ts_us":1,"dur_us":1000,"parse_us":500,"exec_us":1000}"#;
        let report = summarize_requests(&[("t".into(), format!("{line}\n"))]).unwrap();
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
        let report = summarize_requests(&[("t".into(), text)]).unwrap();
        let exec = &report.phase_pcts["exec"];
        assert_eq!(
            (exec.samples, exec.p50, exec.p95, exec.p99, exec.max),
            (100, 500, 950, 990, 1000)
        );
        assert_eq!(report.total_pcts["server"].p99, 990);
        assert!((report.attribution_min - 1.0).abs() < 1e-9);
        let rendered = render_requests(&report);
        assert!(rendered.contains("per-phase percentiles"), "{rendered}");
        assert!(rendered.contains("every check passed"), "{rendered}");
    }

    #[test]
    fn requests_mode_errors_on_malformed_lines() {
        let err = summarize_requests(&[("bad.jsonl".into(), "not json\n".into())]).unwrap_err();
        assert!(err.contains("bad.jsonl:1"), "{err}");
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
