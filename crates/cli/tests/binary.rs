//! End-to-end tests of the compiled `archdse` binary.

use std::process::Command;

fn archdse() -> Command {
    Command::new(env!("CARGO_BIN_EXE_archdse"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = archdse().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("explore"));
}

#[test]
fn space_prints_table1() {
    let out = archdse().arg("space").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Decode Width"));
    assert!(text.contains("3000000"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = archdse().arg("florble").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"));
}

#[test]
fn bad_flag_value_is_reported() {
    let out = archdse().args(["explore", "--benchmark", "nonsense"]).output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("nonsense"), "stderr: {err}");
}

#[test]
fn explore_below_the_smallest_design_area_is_an_error() {
    let out = archdse()
        .args(["explore", "--benchmark", "ss", "--area", "1.0", "--lf-episodes", "10"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.starts_with("error: "), "stderr: {err}");
    assert!(err.contains("minimum feasible area of 2.68 mm2"), "stderr: {err}");
    assert!(out.stdout.is_empty(), "no design may be reported");
}

#[test]
fn quick_explore_emits_a_design_and_rules_header() {
    let out = archdse()
        .args([
            "explore",
            "--benchmark",
            "ss",
            "--area",
            "6.0",
            "--lf-episodes",
            "10",
            "--hf-budget",
            "2",
            "--trace-len",
            "1000",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("best design"));
    assert!(text.contains("simulated CPI"));
    assert!(text.contains("learned rules"));
}

#[test]
fn json_output_is_valid_json() {
    let dir = std::env::temp_dir().join("archdse_bin_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig6.json");
    let out =
        archdse().args(["fig6", "--json", path.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(parsed["curves"].is_array());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn trace_pipeline_roundtrips_through_report_and_check() {
    let dir = std::env::temp_dir().join("archdse_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("explore.jsonl");
    let metrics = dir.join("metrics.prom");

    let out = archdse()
        .args([
            "explore",
            "--benchmark",
            "ss",
            "--area",
            "6.0",
            "--lf-episodes",
            "10",
            "--hf-budget",
            "2",
            "--trace-len",
            "1000",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Every trace line is one JSON object; a run_summary event closes it.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(!text.is_empty());
    for line in text.lines() {
        let parsed: serde_json::Value = serde_json::from_str(line).expect("valid JSONL line");
        assert!(parsed.get("ts_us").is_some(), "line missing ts_us: {line}");
    }
    assert!(text.contains("\"name\":\"run_summary\""));
    assert!(text.contains("\"name\":\"episode\""));
    assert!(text.contains("\"name\":\"ledger_batch\""));

    // trace-report reconciles the per-batch deltas against run_summary.
    let out = archdse()
        .args(["trace-report", "--trace", trace.to_str().unwrap(), "--top", "5"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("per-phase wall time"), "report: {report}");
    assert!(report.contains("exact match"), "report: {report}");

    // The exported snapshot passes the in-repo Prometheus checker.
    let out = archdse()
        .args(["check-metrics", "--file", metrics.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let summary = String::from_utf8(out.stdout).unwrap();
    assert!(summary.contains("OK"), "summary: {summary}");

    std::fs::remove_file(&trace).unwrap();
    std::fs::remove_file(&metrics).unwrap();
}

#[test]
fn trace_report_requires_trace_flag() {
    let out = archdse().arg("trace-report").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--trace"), "stderr: {err}");
}

#[test]
fn check_metrics_rejects_malformed_exposition() {
    let dir = std::env::temp_dir().join("archdse_checkm_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.prom");
    std::fs::write(&path, "this is not prometheus text\n").unwrap();
    let out = archdse()
        .args(["check-metrics", "--file", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(&path).unwrap();
}
