//! Self-hosted serving stacks: the shard worker processes `serve
//! --shards` and `loadgen` fork, the router in front of them, the
//! arguments each worker is started with, and the rows `loadgen --trend`
//! records.

use std::error::Error;

use serde::{Deserialize, Serialize};

use archdse_serve::{spawn, spawn_router, LoadgenConfig, LoadgenReport, RouterConfig, ServeConfig};

use crate::trace_report::Percentiles;
use crate::{ArgError, Args};

/// The per-shard trace path a sharded `--trace-out <file>` derives:
/// `trace.jsonl` becomes `trace.shard3.jsonl` (the router keeps the
/// plain path).
fn shard_trace_path(path: &str, shard: usize) -> String {
    let p = std::path::Path::new(path);
    match (p.file_stem().and_then(|s| s.to_str()), p.extension().and_then(|e| e.to_str())) {
        (Some(stem), Some(ext)) => {
            p.with_file_name(format!("{stem}.shard{shard}.{ext}")).display().to_string()
        }
        _ => format!("{path}.shard{shard}"),
    }
}

/// A self-hosted shard: a child `archdse serve` worker process and the
/// ephemeral address it reported on stdout.
pub(crate) struct ShardProc {
    child: std::process::Child,
    pub(crate) addr: String,
    reaped: bool,
}

impl ShardProc {
    /// Re-invokes the current executable as `archdse serve <args>` and
    /// blocks until the child prints its `listening on` line.
    fn spawn(child_args: &[String]) -> Result<ShardProc, Box<dyn Error>> {
        use std::io::BufRead as _;
        let exe = std::env::current_exe()?;
        let mut child = std::process::Command::new(exe)
            .arg("serve")
            .args(child_args)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("child stdout was piped");
        let mut reader = std::io::BufReader::new(stdout);
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("shard process exited before reporting its address".into());
            }
            if let Some(addr) = line.trim().strip_prefix("archdse-serve listening on ") {
                break addr.to_string();
            }
        };
        // Keep draining the child's stdout so it can never block on a
        // full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ShardProc { child, addr, reaped: false })
    }

    /// Waits for the child to exit on its own (it does after a graceful
    /// shutdown fan-out); kills it if the grace period runs out.
    fn finish(&mut self, grace: std::time::Duration) {
        let deadline = std::time::Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => {
                    self.reaped = true;
                    return;
                }
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.reaped = true;
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A self-hosted serving stack: an in-process front door (a server, or a
/// router over worker processes) and the worker processes behind it.
pub(crate) struct Stack {
    front: Option<archdse_serve::ServerHandle>,
    pub(crate) children: Vec<ShardProc>,
    /// The front-door address clients should hit.
    pub(crate) addr: String,
}

impl Stack {
    /// One server in this process.
    pub(crate) fn single(config: ServeConfig) -> std::io::Result<Self> {
        let server = spawn(config)?;
        Ok(Self { addr: server.addr().to_string(), front: Some(server), children: Vec::new() })
    }

    /// `shards` worker processes started with `child_args`; with more
    /// than one, a router on `addr` with `router_workers` app workers in
    /// front of them. With `trace = Some((path, sample))` each worker
    /// also traces to its own derived `.shardN` path with the parent's
    /// sampling rate and stamps its records with its shard id.
    pub(crate) fn sharded(
        shards: usize,
        addr: &str,
        router_workers: usize,
        child_args: &[String],
        trace: Option<(&str, u64)>,
    ) -> Result<Self, Box<dyn Error>> {
        let mut children = Vec::with_capacity(shards);
        for shard in 0..shards {
            let mut args = child_args.to_vec();
            if let Some((path, sample)) = trace {
                args.extend([
                    "--trace-out".into(),
                    shard_trace_path(path, shard),
                    "--shard-id".into(),
                    shard.to_string(),
                    "--trace-sample".into(),
                    sample.to_string(),
                ]);
            }
            children.push(ShardProc::spawn(&args)?);
        }
        if shards == 1 {
            let addr = children[0].addr.clone();
            return Ok(Self { front: None, children, addr });
        }
        let mut config = RouterConfig::new(children.iter().map(|c| c.addr.clone()).collect());
        config.addr = addr.to_string();
        config.workers = router_workers.max(1);
        let router = spawn_router(config)?;
        Ok(Self { addr: router.addr().to_string(), front: Some(router), children })
    }

    /// Waits for the front door to drain and exit, then for the worker
    /// processes, which a router's `/v1/shutdown` fan-out stopped.
    pub(crate) fn wait(mut self) {
        if let Some(front) = self.front.take() {
            front.join();
        }
        for child in &mut self.children {
            child.finish(std::time::Duration::from_secs(30));
        }
    }

    /// Gracefully drains the whole stack: `POST /v1/shutdown` at the
    /// front door (a router fans it to every shard), then [`Self::wait`].
    /// The front door is also flagged directly, so the wait ends even when
    /// the request could not be sent.
    pub(crate) fn teardown(self) {
        let _ = archdse_serve::client::post(&self.addr, "/v1/shutdown", "");
        if let Some(front) = &self.front {
            front.shutdown();
        }
        self.wait();
    }
}

/// The serve flags a sharded parent forwards verbatim to its worker
/// processes: every flag it was given except the topology flags, which
/// the parent owns (each worker binds an ephemeral port of its own).
pub(crate) fn child_serve_args(args: &Args) -> Vec<String> {
    const TOPOLOGY: [&str; 6] =
        ["addr", "shards", "router-workers", "trace-out", "trace-sample", "shard-id"];
    let mut out: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
    for (name, value) in args.given_flags().filter(|(name, _)| !TOPOLOGY.contains(name)) {
        out.push(format!("--{name}"));
        out.extend(value.map(str::to_string));
    }
    out
}

/// The serve flags `loadgen`'s self-hosted worker processes run with.
pub(crate) fn loadgen_child_args(args: &Args) -> Result<Vec<String>, ArgError> {
    Ok(vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--benchmark".into(),
        "ss".into(),
        "--trace-len".into(),
        args.value::<usize>("trace-len")?.to_string(),
        "--queue-cap".into(),
        args.value::<usize>("queue-cap")?.to_string(),
    ])
}

/// Flattens a [`LoadgenReport`] into one artifact row.
pub(crate) fn loadgen_row(report: &LoadgenReport, config: &LoadgenConfig) -> LoadgenRow {
    let us = |d: std::time::Duration| d.as_micros() as u64;
    LoadgenRow {
        shards: report.shards,
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
        escalations: report.escalations,
    }
}

/// Per-tier answered counts in the loadgen artifact.
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
    shards: u64,
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
    statuses: Vec<StatusRow>,
    coalescer: archdse_serve::CoalescerStats,
    /// Answered/cached counts per fidelity tier, cheapest first.
    tiers: Vec<TierCounts>,
    /// Gate escalations the server recorded during the run.
    escalations: u64,
}

/// The `results/BENCH_loadgen.json` payload: one row per measured
/// configuration of the 1-shard vs N-shard × concurrency matrix. Only
/// `--trend` writes it; a plain run prints its report and nothing else.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LoadgenArtifact {
    rows: Vec<LoadgenRow>,
}

/// Prints the trend matrix's summary table and records every row in
/// `results/BENCH_loadgen.json`.
pub(crate) fn record_trend(rows: Vec<LoadgenRow>) -> Result<(), serde_json::Error> {
    println!(
        "{:<7} {:>11} {:>9} {:>8} {:>11} {:>11} {:>9}",
        "shards", "concurrency", "requests", "failed", "offered/s", "achieved/s", "p99(ms)"
    );
    for row in &rows {
        println!(
            "{:<7} {:>11} {:>9} {:>8} {:>11.0} {:>11.0} {:>9.1}",
            row.shards,
            row.concurrency,
            row.requests,
            row.failed,
            row.offered_rps,
            row.achieved_rps,
            row.latency_us.p99 as f64 / 1000.0
        );
    }
    let artifact = serde_json::to_string_pretty(&LoadgenArtifact { rows })?;
    dse_bench::write_results_artifact("BENCH_loadgen.json", &artifact);
    Ok(())
}
