//! The rows `loadgen --trend` records in `results/BENCH_loadgen.json`.

use serde::{Deserialize, Serialize};

use archdse_serve::{LoadgenConfig, LoadgenReport};

use crate::trace_report::Percentiles;

/// Flattens a [`LoadgenReport`] into one artifact row.
pub(crate) fn loadgen_row(report: &LoadgenReport, config: &LoadgenConfig) -> LoadgenRow {
    let us = |d: std::time::Duration| d.as_micros() as u64;
    LoadgenRow {
        concurrency: config.clients as u64,
        duration_s: report.wall.as_secs_f64(),
        points_per_request: config.points_per_request as u64,
        fidelity: config.fidelity.clone(),
        requests: report.requests,
        ok: report.ok,
        rejected: report.rejected,
        failed: report.failed,
        io_errors: report.io_errors,
        offered_rps: report.offered_rps,
        achieved_rps: report.achieved_rps,
        latency_us: Percentiles::from(&report.latency),
        delta_us: Percentiles::from(&report.delta),
        connect_us: Percentiles::from(&report.connect),
        statuses: report
            .statuses
            .iter()
            .map(|s| StatusRow {
                status: u64::from(s.status),
                count: s.count,
                p50_us: us(s.latency.p50),
                p99_us: us(s.latency.p99),
                max_us: us(s.latency.max),
            })
            .collect(),
        coalescer: report.coalescer,
        tiers: report
            .ledger
            .sections()
            .iter()
            .map(|(fidelity, section)| TierCounts {
                tier: fidelity.key().to_string(),
                answered: section.evaluations,
                cached: section.cache_hits,
            })
            .collect(),
    }
}

/// Per-fidelity answered counts in the loadgen artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TierCounts {
    tier: String,
    answered: u64,
    cached: u64,
}

/// Attempt counts and round-trip percentiles for one HTTP status.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StatusRow {
    status: u64,
    count: u64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

/// One measured configuration in `results/BENCH_loadgen.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LoadgenRow {
    concurrency: u64,
    duration_s: f64,
    points_per_request: u64,
    fidelity: String,
    requests: u64,
    ok: u64,
    rejected: u64,
    failed: u64,
    io_errors: u64,
    offered_rps: f64,
    achieved_rps: f64,
    latency_us: Percentiles,
    /// Client RTT minus server-reported time percentiles; all-zero
    /// unless the run used `--trace`.
    delta_us: Percentiles,
    /// Per-connect wall time percentiles (first connections and
    /// reconnects).
    connect_us: Percentiles,
    statuses: Vec<StatusRow>,
    coalescer: archdse_serve::CoalescerStats,
    /// Answered/cached counts per fidelity, cheapest first.
    tiers: Vec<TierCounts>,
}

/// The `results/BENCH_loadgen.json` payload: one row per client count of
/// the trend ladder. Only `--trend` writes it; a plain run prints its
/// report and nothing else.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LoadgenArtifact {
    rows: Vec<LoadgenRow>,
}

/// Prints the trend matrix's summary table (`connect(ms)` is the slowest
/// connect) and records every row in `results/BENCH_loadgen.json`.
pub(crate) fn record_trend(rows: Vec<LoadgenRow>) -> Result<(), serde_json::Error> {
    println!(
        "{:>11} {:>9} {:>8} {:>11} {:>11} {:>9} {:>13}",
        "concurrency", "requests", "failed", "offered/s", "achieved/s", "p99(ms)", "connect(ms)"
    );
    for row in &rows {
        println!(
            "{:>11} {:>9} {:>8} {:>11.0} {:>11.0} {:>9.1} {:>13.1}",
            row.concurrency,
            row.requests,
            row.failed,
            row.offered_rps,
            row.achieved_rps,
            row.latency_us.p99 as f64 / 1000.0,
            row.connect_us.max as f64 / 1000.0
        );
    }
    let artifact = serde_json::to_string_pretty(&LoadgenArtifact { rows })?;
    dse_bench::write_results_artifact("BENCH_loadgen.json", &artifact);
    Ok(())
}
