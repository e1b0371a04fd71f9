//! `archdse-perf run --smoke`, end to end: every workload at the golden
//! seed with every correctness check on, untraced and traced.

use std::process::Command;

use serde_json::Value;

/// Runs the benchmark binary and returns its last stdout line, parsed.
fn smoke(extra: &[&str], results_file: &str) -> Value {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(results_file);
    let out = Command::new(env!("CARGO_BIN_EXE_archdse-perf"))
        .args(["run", "--smoke"])
        .args(extra)
        .arg("--json")
        .arg(&path)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke run failed:\n{stdout}");
    assert!(path.exists(), "no results file at {}", path.display());
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

#[test]
fn smoke_run_passes_every_check() {
    let result = smoke(&[], "smoke.json");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let metrics = result.get("metrics").and_then(Value::as_map).expect("metrics");
    assert_eq!(metrics.len(), 4 * 5, "five end-to-end metrics per workload");
}

#[test]
fn traced_smoke_run_reproduces_the_untraced_outcomes() {
    let result = smoke(&["--trace", "1"], "smoke-traced.json");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    let metrics = result.get("metrics").and_then(Value::as_map).expect("metrics");
    let value = |name: &str| {
        metrics
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    assert!(value("explore-fig5/analytical.mask_ms") > 0.0);
    assert!(value("sweep-hf/sim.simulated_cycles") > 0.0);
    assert!(value("serve-hot/serve.coalesce_ms_mean") > 0.0);
}
