//! Sharded serving over real sockets: a front router proxying to two
//! in-process shard servers. Checks the load-bearing invariants —
//! sharded answers bit-identical to a single server's, order-stable
//! merges, global job ids, aggregated metrics that agree in both
//! forms, graceful fan-out shutdown, and the same refusals as a single
//! server.

mod common;

use std::time::Duration;

use archdse::Explorer;
use archdse_serve::{
    client, spawn, spawn_router, EvaluateResponse, RouterConfig, ServeConfig, ServerHandle,
};
use dse_workloads::Benchmark;
use serde_json::Value;

fn quick_config() -> ServeConfig {
    let explorer =
        Explorer::for_benchmark(Benchmark::StringSearch).trace_len(2_000).seed(7).threads(2);
    let mut config = ServeConfig::new(explorer);
    config.workers = 3;
    config
}

/// Two identically configured shards behind a router.
fn boot_stack() -> (Vec<ServerHandle>, ServerHandle) {
    let shards: Vec<ServerHandle> =
        (0..2).map(|_| spawn(quick_config()).expect("bind shard")).collect();
    let addrs = shards.iter().map(|s| s.addr().to_string()).collect();
    let router = spawn_router(RouterConfig::new(addrs)).expect("bind router");
    (shards, router)
}

#[test]
fn sharded_answers_are_bit_identical_to_a_single_server() {
    // The reference: one plain server evaluating a mixed batch.
    let single = spawn(quick_config()).expect("bind");
    let single_addr = single.addr().to_string();
    let body = r#"{"points": [0, 12345, 999983, 31, 500000, 31], "fidelity": "lf"}"#;
    let reference = client::post(&single_addr, "/v1/evaluate", body).unwrap();
    assert_eq!(reference.status, 200, "{}", reference.body);
    let reference: EvaluateResponse = serde_json::from_str(&reference.body).unwrap();
    single.shutdown();
    single.join();

    // The same batch through the router must merge back in the caller's
    // point order with bit-identical CPIs, even though the points split
    // across two shard caches.
    let (shards, router) = boot_stack();
    let addr = router.addr().to_string();
    let routed = client::post(&addr, "/v1/evaluate", body).unwrap();
    assert_eq!(routed.status, 200, "{}", routed.body);
    let routed: EvaluateResponse = serde_json::from_str(&routed.body).unwrap();
    assert_eq!(routed.results.len(), reference.results.len());
    for (r, e) in routed.results.iter().zip(&reference.results) {
        assert_eq!(r.point, e.point, "merge must preserve request order");
        assert_eq!(r.cpi.to_bits(), e.cpi.to_bits(), "point {}: sharded CPI differs", r.point);
    }

    // HF answers carry the same provenance stamps through the proxy.
    let hf = client::post(&addr, "/v1/evaluate", r#"{"points": [7], "fidelity": "hf"}"#).unwrap();
    assert_eq!(hf.status, 200, "{}", hf.body);
    let hf: EvaluateResponse = serde_json::from_str(&hf.body).unwrap();
    assert_eq!(hf.results[0].fidelity, "HF");
    assert!(hf.results[0].area_mm2 > 0.0);

    router.shutdown();
    router.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }
}

#[test]
fn router_refuses_what_a_single_server_refuses() {
    let single = spawn(quick_config()).expect("bind");
    let single_addr = single.addr().to_string();
    let (shards, router) = boot_stack();
    let addr = router.addr().to_string();

    for (method, path, body, expected) in common::error_cases() {
        let alone = client::request(&single_addr, method, path, body.as_deref()).unwrap();
        let routed = client::request(&addr, method, path, body.as_deref()).unwrap();
        assert_eq!(alone.status, expected, "{method} {path} alone: {}", alone.body);
        assert_eq!(routed.status, alone.status, "{method} {path} routed: {}", routed.body);
        if path == "/v1/evaluate" {
            // Refused batches, the oversized one included, reach shard 0
            // whole, so the client reads a single server's error text.
            assert_eq!(routed.body, alone.body, "{method} {path}");
        }
    }

    single.shutdown();
    single.join();
    router.shutdown();
    router.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }
}

#[test]
fn concurrent_routed_clients_match_a_sequential_walk() {
    let (shards, router) = boot_stack();
    let addr = router.addr().to_string();

    // Eight concurrent clients, overlapping point sets.
    let cpi_of = |addr: &str, chunk: usize| -> Vec<(u64, u64)> {
        let points: Vec<u64> = (0..6).map(|i| (chunk as u64 * 7 + i) % 64).collect();
        let body = format!(
            r#"{{"points": [{}], "fidelity": "lf"}}"#,
            points.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        );
        let response = client::post(addr, "/v1/evaluate", &body).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let parsed: EvaluateResponse = serde_json::from_str(&response.body).unwrap();
        parsed.results.iter().map(|r| (r.point, r.cpi.to_bits())).collect()
    };
    let concurrent: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|chunk| {
                scope.spawn({
                    let addr = &addr;
                    move || cpi_of(addr, chunk)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    router.shutdown();
    router.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }

    // A fresh stack walked sequentially must produce the same bits.
    let (shards, router) = boot_stack();
    let addr = router.addr().to_string();
    for (chunk, observed) in concurrent.iter().enumerate() {
        assert_eq!(&cpi_of(&addr, chunk), observed, "chunk {chunk} diverged under concurrency");
    }
    router.shutdown();
    router.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }
}

#[test]
fn explore_jobs_get_global_ids_and_finish() {
    let (shards, router) = boot_stack();
    let addr = router.addr().to_string();

    // Two jobs round-robin onto different shards; the global ids the
    // router hands out are distinct and resolvable.
    let spec =
        r#"{"benchmark": "ss", "lf_episodes": 10, "hf_budget": 1, "trace_len": 500, "seed": 3}"#;
    let mut jobs = Vec::new();
    for _ in 0..2 {
        let started = client::post(&addr, "/v1/explore", spec).unwrap();
        assert_eq!(started.status, 200, "{}", started.body);
        let started: archdse_serve::JobStatus = serde_json::from_str(&started.body).unwrap();
        jobs.push(started.job);
    }
    assert_ne!(jobs[0], jobs[1]);

    for job in jobs {
        let path = format!("/v1/jobs/{job}");
        let mut done = false;
        for _ in 0..600 {
            let polled = client::get(&addr, &path).unwrap();
            assert_eq!(polled.status, 200, "{}", polled.body);
            let status: archdse_serve::JobStatus = serde_json::from_str(&polled.body).unwrap();
            assert_ne!(status.state, "failed", "job failed: {:?}", status.error);
            if status.state == "done" {
                assert!(status.result.expect("done jobs carry a result").best_cpi > 0.0);
                done = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        assert!(done, "job {job} never finished");
    }

    // Unknown global ids 404 through the proxy, junk ids 400.
    assert_eq!(client::get(&addr, "/v1/jobs/9999").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/v1/jobs/xyz").unwrap().status, 400);

    router.shutdown();
    router.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }
}

#[test]
fn metrics_aggregate_across_shards_in_both_forms() {
    let (shards, router) = boot_stack();
    let addr = router.addr().to_string();

    // Enough distinct points that both shards see traffic.
    let body = format!(
        r#"{{"points": [{}], "fidelity": "lf"}}"#,
        (0..32).map(|i| i.to_string()).collect::<Vec<_>>().join(",")
    );
    assert_eq!(client::post(&addr, "/v1/evaluate", &body).unwrap().status, 200);
    assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);

    // JSON: the router's own request counters win over the summed
    // shard series, and the shard count rides along.
    let json = client::get(&addr, "/metrics").unwrap();
    assert_eq!(json.status, 200);
    let parsed: Value = serde_json::from_str(&json.body).unwrap();
    assert_eq!(parsed.get("shards").and_then(Value::as_u64), Some(2));
    let requests = parsed.get("requests").expect("requests overlay");
    assert_eq!(requests.get("evaluate").and_then(Value::as_u64), Some(1));
    assert_eq!(requests.get("healthz").and_then(Value::as_u64), Some(1));
    // The summed ledger accounts for each distinct point exactly once
    // across the two shard caches.
    let low = parsed.get("ledger").and_then(|l| l.get("low")).expect("summed ledger");
    assert_eq!(low.get("evaluations").and_then(Value::as_u64), Some(32));

    // Prometheus: the merged exposition is grammatical and carries the
    // per-shard routing series.
    let prom = client::get(&addr, "/metrics?format=prometheus").unwrap();
    assert_eq!(prom.status, 200);
    let summary = dse_obs::check_text(&prom.body)
        .unwrap_or_else(|errors| panic!("invalid merged exposition: {errors:?}"));
    assert!(summary.samples > 0);
    for shard in 0..2 {
        let prefix = format!("serve_shard_requests_total{{shard=\"{shard}\"}}");
        assert!(
            prom.body.lines().any(|l| l.starts_with(&prefix)),
            "missing series {prefix} in:\n{}",
            prom.body
        );
    }

    router.shutdown();
    router.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }
}

/// The `name{labels}` series of a parsed exposition: a counter's value,
/// a gauge's, or a histogram's `(count, sum)` as `count`.
fn series(snapshot: &dse_obs::Snapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    match snapshot.value(name, labels) {
        Some(dse_obs::MetricValue::Counter(v)) => *v as f64,
        Some(dse_obs::MetricValue::Gauge(v)) => *v,
        Some(dse_obs::MetricValue::Histogram { count, .. }) => *count as f64,
        None => panic!("series {name}{labels:?} is missing"),
    }
}

fn histogram_sum(snapshot: &dse_obs::Snapshot, name: &str) -> f64 {
    match snapshot.value(name, &[]) {
        Some(dse_obs::MetricValue::Histogram { sum, .. }) => *sum,
        other => panic!("{name} is not a histogram: {other:?}"),
    }
}

#[test]
fn router_sums_server_only_series_and_both_forms_agree() {
    let (shards, router) = boot_stack();
    let addr = router.addr().to_string();

    // Traffic on both shards: a spread `lf` batch, an `hf` point and a
    // workload upload (which every shard registers).
    let body = format!(
        r#"{{"points": [{}], "fidelity": "lf"}}"#,
        (0..32).map(|i| i.to_string()).collect::<Vec<_>>().join(",")
    );
    assert_eq!(client::post(&addr, "/v1/evaluate", &body).unwrap().status, 200);
    let hf = r#"{"points": [7], "fidelity": "hf"}"#;
    assert_eq!(client::post(&addr, "/v1/evaluate", hf).unwrap().status, 200);
    let upload = format!(
        r#"{{"name": "loop-sum", "elf_base64": "{}"}}"#,
        common::fixture_elf_base64("loop_sum")
    );
    let uploaded = client::post(&addr, "/v1/workloads", &upload).unwrap();
    assert_eq!(uploaded.status, 200, "{}", uploaded.body);

    let scrape = |addr: &str| {
        let prom = client::get(addr, "/metrics?format=prometheus").unwrap();
        assert_eq!(prom.status, 200);
        dse_obs::check_text(&prom.body).unwrap_or_else(|e| panic!("invalid exposition: {e:?}"));
        dse_obs::parse_prometheus_text(&prom.body).expect("exposition parses")
    };
    let routed = scrape(&addr);
    let json = client::get(&addr, "/metrics").unwrap();
    assert_eq!(json.status, 200);
    let per_shard: Vec<_> = shards.iter().map(|s| scrape(&s.addr().to_string())).collect();

    // Series only a server updates are the shards' sum, not a router zero.
    for name in [
        "serve_coalescer_batch_points",
        "serve_coalescer_queue_wait_seconds",
        "workloads_registered",
    ] {
        let summed: f64 = per_shard.iter().map(|s| series(s, name, &[])).sum();
        assert!(summed > 0.0, "{name}: the shards saw traffic");
        assert_eq!(series(&routed, name, &[]), summed, "{name}");
    }
    assert_eq!(series(&routed, "workloads_registered", &[]), 2.0, "one upload per shard");

    // The JSON form carries exactly what the text form does.
    let metrics: archdse_serve::MetricsResponse = serde_json::from_str(&json.body).unwrap();
    let coalescer = metrics.coalescer;
    assert_eq!(
        (coalescer.requests, coalescer.batches, coalescer.points),
        (
            series(&routed, "serve_coalescer_queue_wait_seconds", &[]) as u64,
            series(&routed, "serve_coalescer_batch_points", &[]) as u64,
            histogram_sum(&routed, "serve_coalescer_batch_points") as u64,
        )
    );
    assert_eq!(coalescer.points, 33, "32 lf points and one hf point");
    for (fidelity, section) in metrics.ledger.sections() {
        let tier = [("tier", fidelity.key())];
        let carried = (
            series(&routed, "serve_ledger_evaluations_total", &tier) as u64,
            series(&routed, "serve_ledger_cache_hits_total", &tier) as u64,
            series(&routed, "serve_ledger_cache_misses_total", &tier) as u64,
            series(&routed, "serve_ledger_denied_total", &tier) as u64,
            series(&routed, "serve_ledger_model_time_units", &tier),
        );
        let reported = (
            section.evaluations,
            section.cache_hits,
            section.cache_misses,
            section.denied,
            section.model_time_units,
        );
        assert_eq!(reported, carried, "{fidelity} ledger");
    }
    assert_eq!(metrics.ledger.low.evaluations, 32);
    assert_eq!(metrics.ledger.high.evaluations, 1);

    router.shutdown();
    router.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }
}

#[test]
fn shutdown_fans_out_to_every_shard() {
    let (shards, router) = boot_stack();
    let addr = router.addr().to_string();
    let shard_addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();

    let response = client::post(&addr, "/v1/shutdown", "").unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    router.join();
    for (shard, shard_addr) in shards.into_iter().zip(shard_addrs) {
        shard.join();
        assert!(client::get(&shard_addr, "/healthz").is_err(), "shard must be gone after join");
    }
    assert!(client::get(&addr, "/healthz").is_err(), "router must be gone after join");
}
