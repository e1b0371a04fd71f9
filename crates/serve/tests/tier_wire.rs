//! Wire-compatibility regression tests for the fidelity field of
//! `/v1/evaluate`: the pre-tier-stack names `"lf"` / `"hf"` must keep
//! working exactly as before (request *and* response), the new
//! `"learned"` / `"auto"` names must be accepted, and anything else
//! must come back as a 400 whose message names the valid tiers.

use archdse::Explorer;
use archdse_serve::{client, spawn, EvaluateResponse, ServeConfig};
use dse_workloads::Benchmark;
use serde_json::Value;

fn quick_server() -> archdse_serve::ServerHandle {
    let explorer =
        Explorer::for_benchmark(Benchmark::StringSearch).trace_len(1_500).seed(11).threads(2);
    spawn(ServeConfig::new(explorer)).expect("bind")
}

#[test]
fn legacy_lf_and_hf_names_round_trip_unchanged() {
    let server = quick_server();
    let addr = server.addr().to_string();

    // Old clients send "lf" and read back the label "LF".
    let lf =
        client::post(&addr, "/v1/evaluate", r#"{"points": [3, 99], "fidelity": "lf"}"#).unwrap();
    assert_eq!(lf.status, 200, "{}", lf.body);
    let lf: EvaluateResponse = serde_json::from_str(&lf.body).unwrap();
    assert!(lf.results.iter().all(|r| r.fidelity == "LF"), "{lf:?}");

    // Omitting the field still defaults to HF, and the label is "HF".
    let hf = client::post(&addr, "/v1/evaluate", r#"{"points": [3]}"#).unwrap();
    assert_eq!(hf.status, 200, "{}", hf.body);
    let hf: EvaluateResponse = serde_json::from_str(&hf.body).unwrap();
    assert_eq!(hf.results[0].fidelity, "HF");

    // Explicit "hf" matches the default.
    let explicit =
        client::post(&addr, "/v1/evaluate", r#"{"points": [3], "fidelity": "hf"}"#).unwrap();
    assert_eq!(explicit.status, 200, "{}", explicit.body);
    let explicit: EvaluateResponse = serde_json::from_str(&explicit.body).unwrap();
    assert_eq!(explicit.results[0].fidelity, "HF");
    assert_eq!(explicit.results[0].cpi, hf.results[0].cpi, "same tier, same answer");

    server.shutdown();
}

#[test]
fn learned_and_auto_are_accepted_and_stamp_the_answering_tier() {
    let server = quick_server();
    let addr = server.addr().to_string();

    // The learned tier answers even before any HF observation exists —
    // it falls back to its prior rather than erroring.
    let mid =
        client::post(&addr, "/v1/evaluate", r#"{"points": [5], "fidelity": "learned"}"#).unwrap();
    assert_eq!(mid.status, 200, "{}", mid.body);
    let mid: EvaluateResponse = serde_json::from_str(&mid.body).unwrap();
    assert_eq!(mid.results[0].fidelity, "learned");
    assert!(mid.results[0].cpi > 0.0);

    // "auto" routes through the gate; with an uncalibrated gate every
    // point escalates to HF, so the stamped tier is "HF".
    let auto =
        client::post(&addr, "/v1/evaluate", r#"{"points": [5], "fidelity": "auto"}"#).unwrap();
    assert_eq!(auto.status, 200, "{}", auto.body);
    let auto: EvaluateResponse = serde_json::from_str(&auto.body).unwrap();
    assert_eq!(auto.results.len(), 1);
    assert!(
        auto.results.iter().all(|r| ["LF", "learned", "HF"].contains(&r.fidelity.as_str())),
        "auto must stamp a real tier label: {auto:?}"
    );

    // Tier names are case-insensitive, as "LF"/"HF" always were.
    let upper =
        client::post(&addr, "/v1/evaluate", r#"{"points": [5], "fidelity": "LEARNED"}"#).unwrap();
    assert_eq!(upper.status, 200, "{}", upper.body);

    server.shutdown();
}

#[test]
fn unknown_tier_names_are_a_400_naming_the_valid_ones() {
    let server = quick_server();
    let addr = server.addr().to_string();

    for bad in ["mid", "medium", "lo-fi", "ultra"] {
        let body = format!("{{\"points\": [1], \"fidelity\": {bad:?}}}");
        let resp = client::post(&addr, "/v1/evaluate", &body).unwrap();
        assert_eq!(resp.status, 400, "{bad}: {}", resp.body);
        let err: Value = serde_json::from_str(&resp.body).unwrap();
        let message = err.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(message.contains(bad), "message should echo the bad name: {message}");
        for tier in ["lf", "learned", "hf", "auto"] {
            assert!(message.contains(tier), "message should offer {tier:?}: {message}");
        }
    }

    server.shutdown();
}

/// A fixed `"auto"`/`"learned"` request sequence, interleaved with the
/// `"hf"` charges that train the learned tier, as request bodies. Each
/// `"auto"` request repeats two designs a `"learned"` request already
/// asked for, which the router replays at the learned tier.
fn auto_sequence() -> Vec<String> {
    let mut code = 17u64;
    let mut fresh = |n: usize| -> Vec<u64> {
        (0..n)
            .map(|_| {
                code = code
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (code >> 33) % 1_000_000
            })
            .collect()
    };
    let body = |points: &[u64], fidelity: &str| {
        let points: Vec<String> = points.iter().map(u64::to_string).collect();
        format!(r#"{{"points": [{}], "fidelity": "{fidelity}"}}"#, points.join(","))
    };
    let mut bodies = Vec::new();
    for _ in 0..4 {
        bodies.push(body(&fresh(12), "hf"));
        let learned = fresh(4);
        bodies.push(body(&learned, "learned"));
        let auto = [fresh(4), learned[..2].to_vec()].concat();
        bodies.push(body(&auto, "auto"));
    }
    bodies
}

/// Sends `bodies` one at a time, in order, to a fresh server and
/// returns the response bodies.
fn answers(bodies: &[String]) -> Vec<String> {
    let server = quick_server();
    let addr = server.addr().to_string();
    let answered = bodies
        .iter()
        .map(|body| {
            let response = client::post(&addr, "/v1/evaluate", body).unwrap();
            assert_eq!(response.status, 200, "{body}: {}", response.body);
            response.body
        })
        .collect();
    server.shutdown();
    server.join();
    answered
}

#[test]
fn auto_answers_repeat_exactly_for_one_sequential_client() {
    // `"auto"` and `"learned"` depend on the tier's training history, so
    // they are deterministic for one request sequence on one server:
    // two fresh servers fed the same sequence answer byte for byte alike,
    // tier stamps included.
    let bodies = auto_sequence();
    let first = answers(&bodies);
    let second = answers(&bodies);
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "request {i} ({}) answered differently", bodies[i]);
    }
    // Some auto answers come from the learned tier, so they depend on
    // what the tier was asked and trained on before.
    let routed_to_learned = bodies
        .iter()
        .zip(&first)
        .filter(|(body, _)| body.contains("\"auto\""))
        .flat_map(|(_, answer)| serde_json::from_str::<EvaluateResponse>(answer).unwrap().results)
        .filter(|point| point.fidelity == "learned")
        .count();
    assert!(routed_to_learned > 0, "no auto point was answered by the learned tier");
}
