//! Backward compatibility of the trace readers: traces written by
//! earlier revisions of the tracer — before records carried span links
//! or `request` timelines — must keep parsing with defaults, and their
//! ledger deltas must still reconcile.
//!
//! The fixtures are verbatim golden copies of the two earlier schema
//! generations: `trace_pr5_two_tier.jsonl` (LF+HF only, no `learned_*`
//! fields) and `trace_pr7_three_tier.jsonl` (adds the since-deleted
//! learned mid tier and `tier_gate` events, which the readers now skip).
//! Do not regenerate them; they pin the past.

use archdse_cli::trace_report;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn pr5_era_two_tier_trace_parses_and_reconciles() {
    let text = fixture("trace_pr5_two_tier.jsonl");
    let summary = trace_report::summarize(&text, 5).expect("legacy trace parses");
    assert_eq!(summary.spans, 3);
    assert_eq!(summary.per_fidelity["lf"].evaluations, 5);
    assert_eq!(summary.per_fidelity["hf"].evaluations, 2);
    assert_eq!(summary.run_summary.unwrap().hf.0, 2);
    assert!(trace_report::reconcile(&summary).is_ok());
    // And no request records, which `--requests` mode reports as such
    // rather than choking on the old schema.
    assert_eq!(summary.requests, 0);
}

#[test]
fn pr7_era_three_tier_trace_parses_and_reconciles() {
    let text = fixture("trace_pr7_three_tier.jsonl");
    let summary = trace_report::summarize(&text, 5).expect("legacy trace parses");
    // The learned batch, its `learned_*` run_summary fields and the
    // `tier_gate` event are read and ignored; LF and HF still reconcile.
    assert!(!summary.per_fidelity.contains_key("learned"));
    assert_eq!(summary.per_fidelity["lf"].evaluations, 4);
    assert_eq!(summary.per_fidelity["hf"].evaluations, 1);
    let run = summary.run_summary.unwrap();
    assert_eq!((run.lf.0, run.hf.0), (4, 1));
    assert!(trace_report::reconcile(&summary).is_ok());
}

#[test]
fn requests_mode_skips_legacy_records_without_erroring() {
    for name in ["trace_pr5_two_tier.jsonl", "trace_pr7_three_tier.jsonl"] {
        let report =
            trace_report::summarize_requests(&fixture(name)).expect("legacy records skip cleanly");
        assert_eq!(report.rows.len(), 0, "{name}");
        // A trace without request records is a verification failure
        // (nothing was traced), not a parse error.
        assert!(trace_report::verify_requests(&report).is_err(), "{name}");
    }
}
