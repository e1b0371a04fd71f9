//! The JSON wire protocol: request parsing (hand-rolled over the serde
//! `Content` tree so optional fields and precise error messages work)
//! and the serializable response payloads.

use dse_exec::{CacheStats, Fidelity, FidelityLedger, LedgerSummary};
use dse_fnn::DecisionExplanation;
use dse_obs::{MetricValue, Registry, Snapshot};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::batcher::CoalescerStats;
use crate::http::BadRequest;

/// Most design points one `/v1/evaluate` request may carry.
pub(crate) const MAX_POINTS_PER_REQUEST: usize = 256;

/// A malformed request body: a 400 naming what is wrong.
fn invalid(msg: impl Into<String>) -> BadRequest {
    BadRequest::new(400, msg)
}

/// Parses a request body into the JSON tree.
pub(crate) fn parse_body(body: &str) -> Result<Value, BadRequest> {
    if body.trim().is_empty() {
        return Err(invalid("request body must be a JSON object"));
    }
    serde_json::from_str(body).map_err(|e| invalid(e.to_string()))
}

fn get_u64(value: &Value, key: &str) -> Result<Option<u64>, BadRequest> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| invalid(format!("`{key}` must be a non-negative integer"))),
    }
}

fn get_f64(value: &Value, key: &str) -> Result<Option<f64>, BadRequest> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| invalid(format!("`{key}` must be a number"))),
    }
}

fn get_str<'a>(value: &'a Value, key: &str) -> Result<Option<&'a str>, BadRequest> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v.as_str().map(Some).ok_or_else(|| invalid(format!("`{key}` must be a string"))),
    }
}

fn get_bool(value: &Value, key: &str) -> Result<Option<bool>, BadRequest> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => {
            v.as_bool().map(Some).ok_or_else(|| invalid(format!("`{key}` must be a boolean")))
        }
    }
}

/// `POST /v1/evaluate` body: encoded design points plus a fidelity
/// and, optionally, a registered ingested workload to evaluate instead
/// of the server's synthetic template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EvaluateRequest {
    /// Encoded design indices (`DesignSpace::encode` order).
    pub points: Vec<u64>,
    /// Which fidelity answers every point.
    pub fidelity: Fidelity,
    /// Registered workload id (from `POST /v1/workloads`), or `None`
    /// for the synthetic template workload.
    pub workload: Option<String>,
}

impl EvaluateRequest {
    /// Parses `{"points": [..], "fidelity": "lf"|"hf", "workload": "id"}`
    /// (fidelity case-insensitive, default `"hf"`) and range-checks every
    /// index against `space_size`.
    pub fn parse(body: &str, space_size: u64, max_points: usize) -> Result<Self, BadRequest> {
        let value = parse_body(body)?;
        let fidelity = match get_str(&value, "fidelity")? {
            None => Fidelity::High,
            Some(name) => Fidelity::from_key(name).ok_or_else(|| {
                invalid(format!("unknown fidelity {name:?} (expected \"lf\" or \"hf\")"))
            })?,
        };
        let workload = get_str(&value, "workload")?.map(str::to_string);
        let raw = value
            .get("points")
            .ok_or_else(|| invalid("missing `points` array"))?
            .as_array()
            .ok_or_else(|| invalid("`points` must be an array"))?;
        if raw.is_empty() {
            return Err(invalid("`points` must not be empty"));
        }
        if raw.len() > max_points {
            return Err(invalid(format!(
                "{} points exceed the per-request limit of {max_points}",
                raw.len()
            )));
        }
        let mut points = Vec::with_capacity(raw.len());
        for (i, item) in raw.iter().enumerate() {
            let code = item
                .as_u64()
                .ok_or_else(|| invalid(format!("points[{i}] must be a non-negative integer")))?;
            if code >= space_size {
                return Err(invalid(format!(
                    "points[{i}] = {code} is outside the design space (size {space_size})"
                )));
            }
            points.push(code);
        }
        Ok(Self { points, fidelity, workload })
    }
}

/// `POST /v1/workloads` body: a named ELF upload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WorkloadUploadRequest {
    /// The id the workload registers under (and is addressed by in
    /// `/v1/evaluate` and `/v1/explore`).
    pub name: String,
    /// The statically linked RV64 ELF binary, standard base64.
    pub elf_base64: String,
}

impl WorkloadUploadRequest {
    /// Parses `{"name": "...", "elf_base64": "..."}`. Names are 1–64
    /// chars of `[A-Za-z0-9_-]` so they stay unambiguous in URLs, error
    /// messages and metrics labels.
    pub fn parse(body: &str) -> Result<Self, BadRequest> {
        let value = parse_body(body)?;
        let name = get_str(&value, "name")?
            .ok_or_else(|| invalid("missing `name` (the id to register under)"))?
            .to_string();
        if name.is_empty() || name.len() > 64 {
            return Err(invalid("`name` must be 1-64 characters"));
        }
        if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
            return Err(invalid("`name` may only contain ASCII letters, digits, `_` and `-`"));
        }
        let elf_base64 = get_str(&value, "elf_base64")?
            .ok_or_else(|| invalid("missing `elf_base64` (the ELF binary, base64-encoded)"))?
            .to_string();
        Ok(Self { name, elf_base64 })
    }
}

/// `POST /v1/workloads` response payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadUploadResponse {
    /// The registered workload id, echoing the request.
    pub workload: String,
    /// Dynamic instructions the binary retired during ingestion (also
    /// the length of the trace the HF simulator replays).
    pub instructions: u64,
    /// The code the binary passed to `exit`.
    pub exit_code: u64,
    /// Workloads now registered, in registration order.
    pub registered: Vec<String>,
}

/// One evaluated point in an `/v1/evaluate` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedPoint {
    /// The encoded design index this row answers.
    pub point: u64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// The fidelity that answered: `"LF"` or `"HF"`.
    pub fidelity: String,
    /// Whether the answer came from the run ledger or the evaluator
    /// memo rather than a fresh model run.
    pub cached: bool,
    /// Die area of the design under the server's area model.
    pub area_mm2: f64,
    /// Static (leakage) power of the design.
    pub leakage_mw: f64,
    /// Whether the design satisfies the server's constraints.
    pub feasible: bool,
}

/// `POST /v1/evaluate` response payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluateResponse {
    /// One row per requested point, in request order.
    pub results: Vec<EvaluatedPoint>,
}

/// `POST /v1/explain` body.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExplainRequest {
    /// Encoded design index to explain at.
    pub point: u64,
    /// How many top rules to report.
    pub k: usize,
    /// Explain a specific output (by parameter name) instead of the
    /// winning action.
    pub output: Option<String>,
    /// CPI observation; computed by the LF model when absent.
    pub cpi: Option<f64>,
}

impl ExplainRequest {
    /// Parses `{"point": n, "k": 3, "output": "rob", "cpi": 1.2}`.
    pub fn parse(body: &str, space_size: u64) -> Result<Self, BadRequest> {
        let value = parse_body(body)?;
        let point = get_u64(&value, "point")?
            .ok_or_else(|| invalid("missing `point` (encoded design index)"))?;
        if point >= space_size {
            return Err(invalid(format!(
                "`point` = {point} is outside the design space (size {space_size})"
            )));
        }
        let k = get_u64(&value, "k")?.unwrap_or(3) as usize;
        if k == 0 {
            return Err(invalid("`k` must be at least 1"));
        }
        let output = get_str(&value, "output")?.map(str::to_string);
        let cpi = get_f64(&value, "cpi")?;
        if let Some(cpi) = cpi {
            if !cpi.is_finite() || cpi <= 0.0 {
                return Err(invalid("`cpi` must be a positive finite number"));
            }
        }
        Ok(Self { point, k, output, cpi })
    }
}

/// `POST /v1/explain` response payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainResponse {
    /// The explained design, encoded.
    pub point: u64,
    /// The design spelled out parameter by parameter.
    pub design: String,
    /// The CPI observation the explanation was computed at.
    pub cpi: f64,
    /// The per-rule decomposition of the chosen output's score.
    pub explanation: DecisionExplanation,
}

/// `POST /v1/explore` body: a quick-exploration job specification.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExploreRequest {
    /// Benchmark name, or `None` for the general-purpose average.
    pub benchmark: Option<String>,
    /// Registered ingested workload to explore for (mutually exclusive
    /// with `benchmark`/`general`).
    pub workload: Option<String>,
    /// Area limit in mm².
    pub area_mm2: f64,
    /// Master seed.
    pub seed: u64,
    /// LF training episodes.
    pub lf_episodes: usize,
    /// HF simulation budget.
    pub hf_budget: usize,
    /// Trace length per benchmark.
    pub trace_len: usize,
}

impl ExploreRequest {
    /// Parses the job spec with service-quick defaults.
    pub fn parse(body: &str) -> Result<Self, BadRequest> {
        let value = parse_body(body)?;
        let general = get_bool(&value, "general")?.unwrap_or(false);
        let benchmark = get_str(&value, "benchmark")?.map(str::to_string);
        if general && benchmark.is_some() {
            return Err(invalid("`general` and `benchmark` are mutually exclusive"));
        }
        let workload = get_str(&value, "workload")?.map(str::to_string);
        if workload.is_some() && (general || benchmark.is_some()) {
            return Err(invalid("`workload` is mutually exclusive with `benchmark` and `general`"));
        }
        let area_mm2 = get_f64(&value, "area")?.unwrap_or(8.0);
        if !area_mm2.is_finite() || area_mm2 <= 0.0 {
            return Err(invalid("`area` must be a positive number"));
        }
        let trace_len = get_u64(&value, "trace_len")?.unwrap_or(2_000) as usize;
        if trace_len == 0 {
            return Err(invalid("`trace_len` must be at least 1"));
        }
        Ok(Self {
            benchmark: if general || workload.is_some() {
                None
            } else {
                Some(benchmark.unwrap_or_else(|| "mm".into()))
            },
            workload,
            area_mm2,
            seed: get_u64(&value, "seed")?.unwrap_or(0),
            lf_episodes: get_u64(&value, "lf_episodes")?.unwrap_or(50) as usize,
            hf_budget: get_u64(&value, "hf_budget")?.unwrap_or(4) as usize,
            trace_len,
        })
    }
}

/// The result of a finished exploration job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Best simulated design, encoded.
    pub best_point: u64,
    /// The same design spelled out.
    pub best_design: String,
    /// Its simulated CPI.
    pub best_cpi: f64,
    /// HF simulations the job charged.
    pub hf_evaluations: u64,
    /// The extracted rule base, rendered as text.
    pub rules: Vec<String>,
    /// The job's own cost ledger (jobs account separately from the
    /// server's evaluate ledger).
    pub ledger: LedgerSummary,
}

/// `GET /v1/jobs/<id>` response payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// The job id.
    pub job: u64,
    /// `"running"`, `"done"` or `"failed"`.
    pub state: String,
    /// The result, when done.
    pub result: Option<JobResult>,
    /// The failure message, when failed.
    pub error: Option<String>,
}

/// Per-endpoint request counters in `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestCounters {
    /// `GET /healthz` hits.
    pub healthz: u64,
    /// `GET /metrics` hits.
    pub metrics: u64,
    /// `POST /v1/evaluate` hits.
    pub evaluate: u64,
    /// `POST /v1/explain` hits.
    pub explain: u64,
    /// `POST /v1/explore` hits.
    pub explore: u64,
    /// `POST /v1/workloads` hits.
    pub workloads: u64,
    /// `GET /v1/jobs/<id>` hits.
    pub jobs: u64,
    /// Requests answered 503 by backpressure (full queue).
    pub rejected: u64,
    /// Requests answered 4xx/5xx for any other reason.
    pub errors: u64,
}

/// `GET /metrics` response payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// Per-endpoint request counters.
    pub requests: RequestCounters,
    /// Micro-batcher counters: fewer `batches` than `requests` is the
    /// coalescer amortizing work across concurrent clients.
    pub coalescer: CoalescerStats,
    /// The server-lifetime cost ledger behind `/v1/evaluate`.
    pub ledger: LedgerSummary,
    /// The HF evaluator's memo counters.
    pub hf_cache: CacheStats,
    /// Exploration jobs by state: `[running, done, failed]`.
    pub job_states: [u64; 3],
}

// The series the JSON `/metrics` view reads. Every name is registered
// or made by exactly one site and read back by `from_snapshot`.

/// Requests served per endpoint, labelled `endpoint`.
pub(crate) const REQUESTS: &str = "serve_requests_total";
/// Requests answered 503 by backpressure.
pub(crate) const REJECTED: &str = "serve_rejected_total";
/// Requests answered 4xx/5xx for any other reason.
pub(crate) const ERRORS: &str = "serve_errors_total";
/// The job states `job_states` counts, in order.
const JOB_STATES: [&str; 3] = ["running", "done", "failed"];

// Made at scrape time: per-fidelity ledger series labelled `tier` with
// the fidelity key (model time is a gauge, the rest counters), then the HF
// memo's counters and entry gauge.
const LEDGER_EVALUATIONS: &str = "serve_ledger_evaluations_total";
const LEDGER_HITS: &str = "serve_ledger_cache_hits_total";
const LEDGER_MISSES: &str = "serve_ledger_cache_misses_total";
const LEDGER_DENIED: &str = "serve_ledger_denied_total";
const LEDGER_TIME_UNITS: &str = "serve_ledger_model_time_units";
const HF_CACHE_HITS: &str = "serve_hf_cache_hits_total";
const HF_CACHE_MISSES: &str = "serve_hf_cache_misses_total";
const HF_CACHE_ENTRIES: &str = "serve_hf_cache_entries";
/// Exploration jobs by state, labelled `state`.
const JOBS: &str = "serve_jobs";
/// Batch sizes the coalescer submitted: one observation per batch.
pub(crate) const COALESCER_BATCH_POINTS: &str = "serve_coalescer_batch_points";
/// Queue waits of evaluate jobs: one observation per request.
pub(crate) const COALESCER_QUEUE_WAIT: &str = "serve_coalescer_queue_wait_seconds";

/// The series a server makes at scrape time from state it already
/// owns: its evaluate ledger, its HF memo and its job table.
pub(crate) fn scrape_series(
    ledger: &LedgerSummary,
    hf_cache: CacheStats,
    job_states: [u64; 3],
) -> Snapshot {
    let registry = Registry::new();
    for (fidelity, section) in ledger.sections() {
        let tier = [("tier", fidelity.key())];
        registry.counter_with(LEDGER_EVALUATIONS, &tier).add(section.evaluations);
        registry.counter_with(LEDGER_HITS, &tier).add(section.cache_hits);
        registry.counter_with(LEDGER_MISSES, &tier).add(section.cache_misses);
        registry.counter_with(LEDGER_DENIED, &tier).add(section.denied);
        registry.gauge_with(LEDGER_TIME_UNITS, &tier).set(section.model_time_units);
    }
    registry.counter(HF_CACHE_HITS).add(hf_cache.hits);
    registry.counter(HF_CACHE_MISSES).add(hf_cache.misses);
    registry.gauge(HF_CACHE_ENTRIES).set(hf_cache.entries as f64);
    for (state, jobs) in JOB_STATES.into_iter().zip(job_states) {
        registry.gauge_with(JOBS, &[("state", state)]).set(jobs as f64);
    }
    registry.snapshot()
}

impl MetricsResponse {
    /// The JSON view of the snapshot the Prometheus form renders, so
    /// both `/metrics` forms carry the same numbers. A series the
    /// snapshot lacks reads as zero. The service ledger installs no
    /// budget, so `hf_budget` keeps its default.
    pub(crate) fn from_snapshot(snapshot: &Snapshot) -> Self {
        let counter = |name: &str, labels: &[(&str, &str)]| match snapshot.value(name, labels) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        let gauge = |name: &str, labels: &[(&str, &str)]| match snapshot.value(name, labels) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0.0,
        };
        let histogram = |name: &str| match snapshot.value(name, &[]) {
            Some(MetricValue::Histogram { count, sum, .. }) => (*count, *sum),
            _ => (0, 0.0),
        };
        let endpoint = |label: &str| counter(REQUESTS, &[("endpoint", label)]);
        let tier = |fidelity: Fidelity| {
            let tier = [("tier", fidelity.key())];
            FidelityLedger {
                evaluations: counter(LEDGER_EVALUATIONS, &tier),
                cache_hits: counter(LEDGER_HITS, &tier),
                cache_misses: counter(LEDGER_MISSES, &tier),
                denied: counter(LEDGER_DENIED, &tier),
                model_time_units: gauge(LEDGER_TIME_UNITS, &tier),
            }
        };
        let (batches, points) = histogram(COALESCER_BATCH_POINTS);
        MetricsResponse {
            requests: RequestCounters {
                healthz: endpoint("healthz"),
                metrics: endpoint("metrics"),
                evaluate: endpoint("evaluate"),
                explain: endpoint("explain"),
                explore: endpoint("explore"),
                workloads: endpoint("workloads"),
                jobs: endpoint("jobs"),
                rejected: counter(REJECTED, &[]),
                errors: counter(ERRORS, &[]),
            },
            coalescer: CoalescerStats {
                requests: histogram(COALESCER_QUEUE_WAIT).0,
                batches,
                points: points as u64,
            },
            ledger: LedgerSummary {
                low: tier(Fidelity::Low),
                high: tier(Fidelity::High),
                hf_budget: None,
            },
            hf_cache: CacheStats {
                hits: counter(HF_CACHE_HITS, &[]),
                misses: counter(HF_CACHE_MISSES, &[]),
                entries: gauge(HF_CACHE_ENTRIES, &[]) as usize,
            },
            job_states: JOB_STATES.map(|state| gauge(JOBS, &[("state", state)]) as u64),
        }
    }
}

/// Renders `{"error": reason}`.
pub(crate) fn error_body(reason: &str) -> String {
    // Built as a `Value` rather than a derived struct: the vendored
    // derive does not support lifetime parameters.
    let body = Value::Map(vec![("error".to_string(), Value::Str(reason.to_string()))]);
    serde_json::to_string(&body).unwrap_or_else(|_| "{}".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_request_parses_and_validates() {
        let ok = EvaluateRequest::parse(r#"{"points": [0, 5], "fidelity": "lf"}"#, 10, 8).unwrap();
        assert_eq!(ok.points, vec![0, 5]);
        assert_eq!(ok.fidelity, Fidelity::Low);
        // Defaults to HF; names are case-insensitive.
        let hf = EvaluateRequest::parse(r#"{"points": [1]}"#, 10, 8).unwrap();
        assert_eq!(hf.fidelity, Fidelity::High);
        let upper = EvaluateRequest::parse(r#"{"points": [1], "fidelity": "HF"}"#, 10, 8);
        assert_eq!(upper.unwrap().fidelity, Fidelity::High);
        // Out of range, empty, too many, bad fidelity, junk.
        assert!(EvaluateRequest::parse(r#"{"points": [10]}"#, 10, 8).is_err());
        assert!(EvaluateRequest::parse(r#"{"points": []}"#, 10, 8).is_err());
        assert!(EvaluateRequest::parse(r#"{"points": [1, 2, 3]}"#, 10, 2).is_err());
        for name in ["mid", "learned", "auto"] {
            let body = format!(r#"{{"points": [1], "fidelity": "{name}"}}"#);
            let msg = EvaluateRequest::parse(&body, 10, 8).unwrap_err().reason;
            assert!(msg.contains("\"lf\" or \"hf\""), "{msg}");
        }
        assert!(EvaluateRequest::parse("nonsense", 10, 8).is_err());
        assert!(EvaluateRequest::parse("", 10, 8).is_err());
    }

    #[test]
    fn explain_request_defaults_and_bounds() {
        let e = ExplainRequest::parse(r#"{"point": 3}"#, 10).unwrap();
        assert_eq!((e.point, e.k, e.output, e.cpi), (3, 3, None, None));
        let full =
            ExplainRequest::parse(r#"{"point": 3, "k": 5, "output": "rob", "cpi": 1.5}"#, 10)
                .unwrap();
        assert_eq!(full.k, 5);
        assert_eq!(full.output.as_deref(), Some("rob"));
        assert_eq!(full.cpi, Some(1.5));
        assert!(ExplainRequest::parse(r#"{"point": 99}"#, 10).is_err());
        assert!(ExplainRequest::parse(r#"{"point": 1, "k": 0}"#, 10).is_err());
        assert!(ExplainRequest::parse(r#"{"point": 1, "cpi": -2.0}"#, 10).is_err());
    }

    #[test]
    fn explore_request_defaults_are_service_quick() {
        let e = ExploreRequest::parse("{}").unwrap();
        assert_eq!(e.benchmark.as_deref(), Some("mm"));
        assert_eq!((e.lf_episodes, e.hf_budget, e.trace_len), (50, 4, 2_000));
        let g = ExploreRequest::parse(r#"{"general": true, "seed": 7}"#).unwrap();
        assert_eq!(g.benchmark, None);
        assert_eq!(g.seed, 7);
        assert!(ExploreRequest::parse(r#"{"general": true, "benchmark": "mm"}"#).is_err());
        assert!(ExploreRequest::parse(r#"{"area": -1.0}"#).is_err());
        // A workload-targeted job drops the benchmark default and
        // excludes the synthetic selectors.
        let w = ExploreRequest::parse(r#"{"workload": "firmware"}"#).unwrap();
        assert_eq!(w.workload.as_deref(), Some("firmware"));
        assert_eq!(w.benchmark, None);
        assert!(ExploreRequest::parse(r#"{"workload": "w", "benchmark": "mm"}"#).is_err());
        assert!(ExploreRequest::parse(r#"{"workload": "w", "general": true}"#).is_err());
    }

    #[test]
    fn evaluate_request_workload_constraints() {
        // Absent workload: wire format identical to before.
        let plain = EvaluateRequest::parse(r#"{"points": [1]}"#, 10, 8).unwrap();
        assert_eq!(plain.workload, None);
        // Named workload with a fidelity is accepted.
        let w =
            EvaluateRequest::parse(r#"{"points": [1], "workload": "fw", "fidelity": "lf"}"#, 10, 8)
                .unwrap();
        assert_eq!(w.workload.as_deref(), Some("fw"));
        assert_eq!(w.fidelity, Fidelity::Low);
    }

    #[test]
    fn workload_upload_request_validates_names() {
        let ok = WorkloadUploadRequest::parse(r#"{"name": "fw-1", "elf_base64": "AAAA"}"#).unwrap();
        assert_eq!((ok.name.as_str(), ok.elf_base64.as_str()), ("fw-1", "AAAA"));
        assert!(WorkloadUploadRequest::parse(r#"{"elf_base64": "AAAA"}"#).is_err());
        assert!(WorkloadUploadRequest::parse(r#"{"name": "fw"}"#).is_err());
        assert!(WorkloadUploadRequest::parse(r#"{"name": "", "elf_base64": "A"}"#).is_err());
        assert!(WorkloadUploadRequest::parse(r#"{"name": "a b", "elf_base64": "A"}"#).is_err());
    }

    #[test]
    fn error_body_is_json() {
        assert_eq!(error_body("queue full"), r#"{"error":"queue full"}"#);
    }
}
