//! End-to-end service tests over real sockets: every endpoint, the
//! error paths, and graceful shutdown draining.

mod common;

use std::time::Duration;

use archdse::Explorer;
use archdse_serve::{client, spawn, EvaluateResponse, ExplainResponse, ServeConfig};
use dse_workloads::Benchmark;
use serde_json::Value;

fn quick_config() -> ServeConfig {
    let explorer =
        Explorer::for_benchmark(Benchmark::StringSearch).trace_len(2_000).seed(7).threads(2);
    let mut config = ServeConfig::new(explorer);
    config.workers = 3;
    config.limits.max_body_bytes = 16 * 1024;
    config
}

#[test]
fn the_four_core_endpoints_answer() {
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();

    // /healthz
    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let health: Value = serde_json::from_str(&health.body).unwrap();
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    let space_size = health.get("space_size").and_then(Value::as_u64).unwrap();
    assert!(space_size > 1_000_000);

    // /v1/evaluate at LF, then the same points again: answers must be
    // identical and the repeats served from the ledger replay.
    let body = r#"{"points": [0, 12345, 0], "fidelity": "lf"}"#;
    let first = client::post(&addr, "/v1/evaluate", body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    let first: EvaluateResponse = serde_json::from_str(&first.body).unwrap();
    assert_eq!(first.results.len(), 3);
    assert_eq!(first.results[0].point, 0);
    assert!(first.results.iter().all(|r| r.cpi > 0.0 && r.fidelity == "LF"));
    assert_eq!(first.results[0].cpi, first.results[2].cpi, "duplicate point, same CPI");
    let again: EvaluateResponse =
        serde_json::from_str(&client::post(&addr, "/v1/evaluate", body).unwrap().body).unwrap();
    assert_eq!(again.results[1].cpi, first.results[1].cpi);
    assert!(again.results.iter().all(|r| r.cached), "second pass replays from the ledger");

    // /v1/evaluate at HF carries provenance and constraint stamps.
    let hf = client::post(&addr, "/v1/evaluate", r#"{"points": [7], "fidelity": "hf"}"#).unwrap();
    assert_eq!(hf.status, 200, "{}", hf.body);
    let hf: EvaluateResponse = serde_json::from_str(&hf.body).unwrap();
    assert_eq!(hf.results[0].fidelity, "HF");
    assert!(hf.results[0].area_mm2 > 0.0 && hf.results[0].leakage_mw > 0.0);

    // /v1/explain decomposes a decision into rule contributions.
    let explain = client::post(&addr, "/v1/explain", r#"{"point": 12345, "k": 4}"#).unwrap();
    assert_eq!(explain.status, 200, "{}", explain.body);
    let explain: ExplainResponse = serde_json::from_str(&explain.body).unwrap();
    assert_eq!(explain.point, 12345);
    assert!(explain.cpi > 0.0);
    assert!(!explain.explanation.contributions.is_empty());
    assert!(!explain.design.is_empty());

    // /metrics reflects all of the above.
    let metrics = client::get(&addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let metrics: archdse_serve::MetricsResponse = serde_json::from_str(&metrics.body).unwrap();
    assert_eq!(metrics.requests.healthz, 1);
    assert_eq!(metrics.requests.evaluate, 3);
    assert_eq!(metrics.requests.explain, 1);
    assert!(metrics.coalescer.requests >= 3);
    assert!(metrics.ledger.low.evaluations >= 2);
    assert_eq!(metrics.ledger.high.evaluations, 1);
    assert!(metrics.hf_cache.entries >= 1);

    server.shutdown();
    server.join();
    assert!(client::get(&addr, "/healthz").is_err(), "server must be gone after join");
}

#[test]
fn error_paths_answer_structured_json() {
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();

    for (method, path, body, expected) in common::error_cases() {
        let response = client::request(&addr, method, path, body.as_deref()).unwrap();
        assert_eq!(response.status, expected, "{method} {path}: {}", response.body);
        let parsed: Value = serde_json::from_str(&response.body).expect("errors are JSON");
        assert!(parsed.get("error").is_some(), "{method} {path} lacks an error field");
    }

    // An oversize body is rejected with 413 before any parsing.
    let huge = format!(r#"{{"points": [{}]}}"#, "1,".repeat(20_000) + "1");
    let response = client::post(&addr, "/v1/evaluate", &huge).unwrap();
    assert_eq!(response.status, 413, "{}", response.body);

    server.shutdown();
    server.join();
}

#[test]
fn explore_jobs_run_in_the_background_and_complete() {
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();

    let spec =
        r#"{"benchmark": "ss", "lf_episodes": 10, "hf_budget": 2, "trace_len": 500, "seed": 3}"#;
    let started = client::post(&addr, "/v1/explore", spec).unwrap();
    assert_eq!(started.status, 200, "{}", started.body);
    let started: archdse_serve::JobStatus = serde_json::from_str(&started.body).unwrap();
    assert_eq!(started.state, "running");

    let path = format!("/v1/jobs/{}", started.job);
    let mut last = String::new();
    for _ in 0..600 {
        let polled = client::get(&addr, &path).unwrap();
        assert_eq!(polled.status, 200);
        let status: archdse_serve::JobStatus = serde_json::from_str(&polled.body).unwrap();
        last = status.state.clone();
        if status.state == "done" {
            let result = status.result.expect("done jobs carry a result");
            assert!(result.best_cpi > 0.0);
            assert!(result.hf_evaluations <= 2);
            assert!(!result.best_design.is_empty());
            assert!(result.ledger.high.evaluations <= 2);
            server.shutdown();
            server.join();
            return;
        }
        assert_ne!(status.state, "failed", "job failed: {:?}", status.error);
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("job never finished (last state {last:?})");
}

#[test]
fn explore_below_the_smallest_design_area_is_refused() {
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();

    let refused =
        client::post(&addr, "/v1/explore", r#"{"benchmark": "ss", "area": 2.0}"#).unwrap();
    assert_eq!(refused.status, 400, "{}", refused.body);
    assert!(refused.body.contains("minimum feasible area of 2.68 mm2"), "{}", refused.body);
    // No job was started for the refused spec.
    let jobs = client::get(&addr, "/v1/jobs/1").unwrap();
    assert_eq!(jobs.status, 404, "{}", jobs.body);

    server.shutdown();
    server.join();
}

#[test]
fn prometheus_exposition_is_valid_and_agrees_with_json() {
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();

    client::get(&addr, "/healthz").unwrap();
    let body = r#"{"points": [0, 42], "fidelity": "lf"}"#;
    assert_eq!(client::post(&addr, "/v1/evaluate", body).unwrap().status, 200);

    // The text form must satisfy the Prometheus grammar and histogram
    // invariants (checked by the in-repo promtool-style validator).
    let prom = client::get(&addr, "/metrics?format=prometheus").unwrap();
    assert_eq!(prom.status, 200);
    let summary = dse_obs::check_text(&prom.body)
        .unwrap_or_else(|errors| panic!("invalid exposition: {errors:?}"));
    assert!(summary.samples > 0);
    assert!(summary.histograms >= 1, "request latency histograms must be exposed");

    // Read-your-own-request consistency: the JSON snapshot (taken after
    // the text one) must agree with what the text form already showed.
    let metrics = client::get(&addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let metrics: archdse_serve::MetricsResponse = serde_json::from_str(&metrics.body).unwrap();
    assert_eq!(metrics.requests.healthz, 1);
    assert_eq!(metrics.requests.evaluate, 1);
    assert_eq!(metrics.requests.metrics, 2, "both /metrics hits are counted");
    let healthz_line = prom
        .body
        .lines()
        .find(|l| l.starts_with("serve_requests_total{endpoint=\"healthz\"}"))
        .expect("healthz counter series");
    assert!(healthz_line.ends_with(" 1"), "unexpected sample: {healthz_line}");

    // An unknown format is a client error, not a silent default.
    let bad = client::get(&addr, "/metrics?format=xml").unwrap();
    assert_eq!(bad.status, 400);

    server.shutdown();
    server.join();
}

/// The single-server JSON `/metrics` body after [`metrics_golden_script`],
/// byte for byte.
const METRICS_GOLDEN: &str = concat!(
    r#"{"requests":{"healthz":1,"metrics":1,"evaluate":3,"explain":0,"explore":0,"workloads":0,"#,
    r#""jobs":0,"rejected":0,"errors":1},"coalescer":{"requests":2,"batches":2,"points":5},"#,
    r#""ledger":{"low":{"evaluations":2,"cache_hits":1,"cache_misses":2,"denied":0,"#,
    r#""model_time_units":0.002},"learned":{"evaluations":0,"cache_hits":0,"cache_misses":0,"#,
    r#""denied":0,"model_time_units":0.0},"high":{"evaluations":2,"cache_hits":0,"cache_misses":2,"#,
    r#""denied":0,"model_time_units":2.0},"hf_budget":null,"budget_floor":"hf"},"#,
    r#""hf_cache":{"hits":0,"misses":2,"entries":2},"job_states":[0,0,0]}"#,
);

/// A fixed request script: a health check, an `lf` and an `hf`
/// evaluate, and one refused request.
fn metrics_golden_script(addr: &str) {
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    let lf = r#"{"points": [0, 12345, 0], "fidelity": "lf"}"#;
    assert_eq!(client::post(addr, "/v1/evaluate", lf).unwrap().status, 200);
    let hf = r#"{"points": [7, 31], "fidelity": "hf"}"#;
    assert_eq!(client::post(addr, "/v1/evaluate", hf).unwrap().status, 200);
    let bad = r#"{"points": [1], "fidelity": "mid"}"#;
    assert_eq!(client::post(addr, "/v1/evaluate", bad).unwrap().status, 400);
}

#[test]
fn json_metrics_body_matches_the_golden_bytes() {
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();
    metrics_golden_script(&addr);
    let metrics = client::get(&addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(metrics.body, METRICS_GOLDEN, "JSON /metrics body changed");
    server.shutdown();
    server.join();
}

/// The value of an unlabelled gauge in a Prometheus exposition.
fn prometheus_gauge(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name} sample in:\n{text}"))
        .parse()
        .unwrap()
}

#[test]
fn keep_alive_traffic_holds_about_one_timer_entry_per_connection() {
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();
    let mut conns: Vec<client::Conn> =
        (0..2).map(|_| client::Conn::connect(&addr).unwrap()).collect();
    let body = r#"{"points": [5, 77], "fidelity": "lf"}"#;
    for _ in 0..1_000 {
        for conn in &mut conns {
            let response = conn.request("POST", "/v1/evaluate", Some(body)).unwrap();
            assert_eq!(response.status, 200, "{}", response.body);
        }
    }
    // Each request re-armed a read and a write deadline; none of them may
    // have left a wheel entry behind.
    let prom = conns[0].request("GET", "/metrics?format=prometheus", None).unwrap();
    assert_eq!(prom.status, 200);
    let entries = prometheus_gauge(&prom.body, "serve_reactor_timer_entries");
    assert!(entries <= 8.0, "{entries} timer entries after 2,000 keep-alive requests");
    drop(conns);
    server.shutdown();
    server.join();
}

#[test]
fn hf_evaluates_publish_live_kernel_metrics() {
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();

    let hf = client::post(&addr, "/v1/evaluate", r#"{"points": [31337], "fidelity": "hf"}"#);
    assert_eq!(hf.unwrap().status, 200);

    // The lane kernel that served the evaluate reports its activity
    // through the process registry the exposition merges in.
    let prom = client::get(&addr, "/metrics?format=prometheus").unwrap();
    assert_eq!(prom.status, 200);
    dse_obs::check_text(&prom.body)
        .unwrap_or_else(|errors| panic!("invalid exposition: {errors:?}"));
    for series in
        ["sim_kernel_runs_total", "sim_kernel_events_popped_total", "sim_kernel_run_seconds_count"]
    {
        let value: f64 = prom
            .body
            .lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {series} sample"))
            .parse()
            .unwrap();
        assert!(value > 0.0, "{series} reads {value} after an hf evaluate");
    }

    server.shutdown();
    server.join();
}

#[test]
fn post_shutdown_drains_and_exits() {
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();
    let response = client::post(&addr, "/v1/shutdown", "").unwrap();
    assert_eq!(response.status, 200);
    server.join();
    assert!(client::get(&addr, "/healthz").is_err());
}

/// The committed ingest fixture, base64-encoded for upload.
#[test]
fn uploaded_workloads_register_and_answer_lf_and_hf() {
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();

    // Upload the fixture; it is ingested and registered.
    let upload = format!(
        r#"{{"name": "loop-sum", "elf_base64": "{}"}}"#,
        common::fixture_elf_base64("loop_sum")
    );
    let response = client::post(&addr, "/v1/workloads", &upload).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let registered: archdse_serve::WorkloadUploadResponse =
        serde_json::from_str(&response.body).unwrap();
    assert_eq!(registered.workload, "loop-sum");
    assert_eq!(registered.exit_code, 128);
    assert_eq!(registered.instructions, 2823);
    assert_eq!(registered.registered, vec!["loop-sum".to_string()]);

    // The health report now lists it.
    let health: Value =
        serde_json::from_str(&client::get(&addr, "/healthz").unwrap().body).unwrap();
    let listed = health.get("workloads").and_then(Value::as_array).unwrap();
    assert_eq!(listed.len(), 1);

    // Evaluate it at both supported tiers; HF twice replays the second
    // answer from the workload's own ledger.
    for fidelity in ["lf", "hf"] {
        let body =
            format!(r#"{{"points": [0, 777], "fidelity": "{fidelity}", "workload": "loop-sum"}}"#);
        let first = client::post(&addr, "/v1/evaluate", &body).unwrap();
        assert_eq!(first.status, 200, "{}", first.body);
        let first: EvaluateResponse = serde_json::from_str(&first.body).unwrap();
        assert_eq!(first.results.len(), 2);
        assert!(first.results.iter().all(|r| r.cpi > 0.0));
        let again = client::post(&addr, "/v1/evaluate", &body).unwrap();
        let again: EvaluateResponse = serde_json::from_str(&again.body).unwrap();
        assert_eq!(again.results[0].cpi, first.results[0].cpi);
        assert!(again.results.iter().all(|r| r.cached), "repeat must replay");
    }

    // Same design point, synthetic vs ingested: the answers are
    // independent stacks and need not agree, but both are finite CPIs.
    let synth =
        client::post(&addr, "/v1/evaluate", r#"{"points": [777], "fidelity": "hf"}"#).unwrap();
    assert_eq!(synth.status, 200, "{}", synth.body);

    // Re-registering the same name is rejected.
    let dup = client::post(&addr, "/v1/workloads", &upload).unwrap();
    assert_eq!(dup.status, 400, "{}", dup.body);
    assert!(dup.body.contains("already registered"), "{}", dup.body);

    // The registration counter is exposed.
    let prom = client::get(&addr, "/metrics?format=prometheus").unwrap();
    let line = prom
        .body
        .lines()
        .find(|l| l.starts_with("workloads_registered"))
        .expect("workloads_registered series");
    assert!(line.ends_with(" 1"), "unexpected sample: {line}");

    server.shutdown();
    server.join();
}

#[test]
fn unknown_workload_ids_are_a_400_naming_the_registered_ones() {
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();

    // Before anything is registered, the error points at the upload
    // endpoint.
    let body = r#"{"points": [1], "fidelity": "lf", "workload": "nope"}"#;
    let response = client::post(&addr, "/v1/evaluate", body).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("POST /v1/workloads"), "{}", response.body);

    // With a workload registered, the error names it.
    let upload = format!(
        r#"{{"name": "stride-c", "elf_base64": "{}"}}"#,
        common::fixture_elf_base64("stride_c")
    );
    assert_eq!(client::post(&addr, "/v1/workloads", &upload).unwrap().status, 200);
    let response = client::post(&addr, "/v1/evaluate", body).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(
        response.body.contains("unknown workload \\\"nope\\\"")
            && response.body.contains("stride-c"),
        "{}",
        response.body
    );

    // /v1/explore resolves ids through the same registry.
    let explore = client::post(&addr, "/v1/explore", r#"{"workload": "nope"}"#).unwrap();
    assert_eq!(explore.status, 400, "{}", explore.body);
    assert!(explore.body.contains("stride-c"), "{}", explore.body);

    // Learned/auto tiers on an ingested workload are rejected at parse.
    for tier in ["learned", "auto"] {
        let body = format!(r#"{{"points": [1], "fidelity": "{tier}", "workload": "stride-c"}}"#);
        let response = client::post(&addr, "/v1/evaluate", &body).unwrap();
        assert_eq!(response.status, 400, "{}", response.body);
    }

    // Bad uploads are structured 400s, not panics: junk base64, a
    // non-ELF payload, and a name collision with a benchmark.
    let cases = [
        r#"{"name": "x", "elf_base64": "!!!"}"#.to_string(),
        format!(r#"{{"name": "x", "elf_base64": "{}"}}"#, dse_ingest::base64::encode(b"hello")),
        format!(r#"{{"name": "mm", "elf_base64": "{}"}}"#, common::fixture_elf_base64("loop_sum")),
    ];
    for body in &cases {
        let response = client::post(&addr, "/v1/workloads", body).unwrap();
        assert_eq!(response.status, 400, "{}", response.body);
        let parsed: Value = serde_json::from_str(&response.body).unwrap();
        assert!(parsed.get("error").is_some());
    }

    server.shutdown();
    server.join();
}

#[test]
fn workload_free_requests_keep_the_legacy_wire_format() {
    // The six synthetic benchmarks and the pre-ingestion request shapes
    // must be answered exactly as before the workloads endpoint landed.
    let server = spawn(quick_config()).expect("bind");
    let addr = server.addr().to_string();

    let health: Value =
        serde_json::from_str(&client::get(&addr, "/healthz").unwrap().body).unwrap();
    let benchmarks = health.get("benchmarks").and_then(Value::as_array).unwrap();
    assert!(!benchmarks.is_empty(), "benchmark list must survive");
    assert_eq!(
        health.get("workloads").and_then(Value::as_array).map(Vec::len),
        Some(0),
        "no workloads registered at boot"
    );

    // A legacy evaluate body (no workload field) answers with the same
    // response schema: every legacy field present, point order kept.
    let body = r#"{"points": [3, 1], "fidelity": "lf"}"#;
    let response = client::post(&addr, "/v1/evaluate", body).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let parsed: Value = serde_json::from_str(&response.body).unwrap();
    let results = parsed.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(results.len(), 2);
    for (row, expected_point) in results.iter().zip([3u64, 1]) {
        for field in ["point", "cpi", "fidelity", "cached", "area_mm2", "leakage_mw", "feasible"] {
            assert!(row.get(field).is_some(), "legacy field {field} missing");
        }
        assert_eq!(row.get("point").and_then(Value::as_u64), Some(expected_point));
    }

    server.shutdown();
    server.join();
}
