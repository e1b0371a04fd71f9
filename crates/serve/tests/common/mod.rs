//! Fixtures shared by the single-server and the router suites: the
//! requests every serving role must refuse, so both hold the same list,
//! and the ingestion fixture binaries.

/// `(method, path, body, expected status)` of each refused request.
pub fn error_cases() -> Vec<(&'static str, &'static str, Option<String>, u16)> {
    let fixed = [
        ("POST", "/v1/evaluate", Some("not json"), 400),
        ("POST", "/v1/evaluate", Some(r#"{"points": []}"#), 400),
        ("POST", "/v1/evaluate", Some(r#"{"points": [99999999999999]}"#), 400),
        ("POST", "/v1/evaluate", Some(r#"{"points": [1], "fidelity": "mid"}"#), 400),
        ("POST", "/v1/explain", Some(r#"{"k": 3}"#), 400),
        ("POST", "/v1/explain", Some(r#"{"point": 1, "output": "nosuch"}"#), 400),
        ("POST", "/v1/explore", Some(r#"{"general": true, "benchmark": "mm"}"#), 400),
        ("POST", "/v1/explore", Some(r#"{"area": 1.0}"#), 400),
        ("GET", "/nope", None, 404),
        ("GET", "/v1/jobs/999", None, 404),
        ("GET", "/v1/jobs/xyz", None, 400),
        ("DELETE", "/v1/evaluate", None, 405),
        ("GET", "/v1/shutdown", None, 405),
        ("POST", "/debug/requests", None, 405),
        ("POST", "/v1/jobs/1", None, 405),
    ];
    let mut cases: Vec<_> = fixed
        .into_iter()
        .map(|(method, path, body, status)| (method, path, body.map(str::to_string), status))
        .collect();
    // Over the 256-point cap, and spread over every shard of a router.
    let points: Vec<String> = (0..300).map(|code| code.to_string()).collect();
    let batch = format!(r#"{{"points": [{}], "fidelity": "lf"}}"#, points.join(","));
    cases.push(("POST", "/v1/evaluate", Some(batch), 400));
    cases
}

/// A fixture ELF from the ingest crate, base64-encoded for upload.
pub fn fixture_elf_base64(stem: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../ingest/tests/fixtures")
        .join(format!("{stem}.elf"));
    dse_ingest::base64::encode(&std::fs::read(path).expect("fixture elf"))
}
