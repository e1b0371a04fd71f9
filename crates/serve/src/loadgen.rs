//! The load generator: N client threads hammering `/v1/evaluate` on a
//! running server, then reading `/metrics` back to show how the
//! coalescer amortized their requests into fewer ledger batches.
//!
//! Two modes share one per-client engine:
//!
//! * **Fixed-count** (`duration: None`) — every client sends
//!   `requests_per_client` requests and stops; the historical mode used
//!   by quick demos and tests.
//! * **Closed-loop saturating** (`duration: Some(..)`) — every client
//!   keeps exactly one request in flight on a persistent keep-alive
//!   connection until the deadline, retrying `503` backpressure answers
//!   with exponential backoff. The report then separates *offered*
//!   throughput (HTTP attempts per second, retries included) from
//!   *achieved* throughput (served requests per second): their gap is
//!   the retry traffic the server burned CPU rejecting.

use std::time::{Duration, Instant};

use dse_exec::LedgerSummary;

use crate::batcher::CoalescerStats;
use crate::http::client;
use crate::protocol::MetricsResponse;

/// What the load generator should send.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Evaluate requests each client sends (fixed-count mode only).
    pub requests_per_client: usize,
    /// When set, run closed-loop for this long instead of counting
    /// requests: every client loops until the deadline.
    pub duration: Option<Duration>,
    /// Design points per request.
    pub points_per_request: usize,
    /// The wire fidelity name every request asks for: `"lf"` or `"hf"`.
    pub fidelity: String,
    /// Seed of the deterministic point choice.
    pub seed: u64,
    /// Send a client-generated `X-ArchDSE-Trace` id with every request
    /// and parse the `Server-Timing` phase breakdown out of responses;
    /// the report then carries client-RTT vs server-time deltas (the
    /// network/queue gap the server cannot see).
    pub trace: bool,
}

impl LoadgenConfig {
    /// A default workload against `addr`: 4 clients × 8 LF requests of
    /// 4 points each, fixed-count mode.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            clients: 4,
            requests_per_client: 8,
            duration: None,
            points_per_request: 4,
            fidelity: "lf".into(),
            seed: 1,
            trace: false,
        }
    }
}

/// Per-request latency percentiles observed client-side.
///
/// For served requests latency is measured around the whole service
/// interval — including any 503-backoff retries it absorbed — which is
/// the latency a well-behaved client actually experiences. Per-status
/// attempt latencies (see [`StatusLatency`]) measure single round-trips
/// instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Served requests the percentiles are computed over.
    pub samples: u64,
    /// Median latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Slowest served request.
    pub max: Duration,
}

impl LatencyStats {
    /// Nearest-rank percentiles over the given samples (any order).
    /// With no samples, everything reports zero.
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let rank = |p: f64| -> Duration {
            // Nearest-rank: the smallest sample covering fraction p.
            let n = samples.len();
            let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
            samples[idx]
        };
        Self {
            samples: samples.len() as u64,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// Round-trip latency percentiles of every attempt that answered one
/// HTTP status — `200` rows show service time, `503` rows show how fast
/// the server sheds load.
#[derive(Debug, Clone, Copy)]
pub struct StatusLatency {
    /// The HTTP status these attempts answered.
    pub status: u16,
    /// Attempts answering it.
    pub count: u64,
    /// Single round-trip latency percentiles of those attempts.
    pub latency: LatencyStats,
}

/// What a load-generation run observed.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Evaluate requests that reached a final disposition (`ok +
    /// failed`; a request retried through any number of 503s is counted
    /// once).
    pub requests: u64,
    /// Requests answered 200.
    pub ok: u64,
    /// 503 backpressure answers absorbed (each was retried).
    pub rejected: u64,
    /// Requests that never got a 200 (gave up after retries / IO error).
    pub failed: u64,
    /// Socket-level errors absorbed (each triggered a reconnect).
    pub io_errors: u64,
    /// Wall clock of the request phase, start to last client joined.
    pub wall: Duration,
    /// HTTP attempts per second the clients put on the wire (retries
    /// and rejected attempts included).
    pub offered_rps: f64,
    /// Served (200) requests per second.
    pub achieved_rps: f64,
    /// Client-side per-request latency percentiles of served requests,
    /// whole service interval (retries included).
    pub latency: LatencyStats,
    /// Client-RTT minus server-reported time (`Server-Timing` `app`
    /// entry) of served attempts — the network + connection-handling
    /// gap the server cannot see. All-zero unless
    /// [`LoadgenConfig::trace`] was set.
    pub delta: LatencyStats,
    /// Per-status single-attempt round-trip percentiles, sorted by
    /// status code.
    pub statuses: Vec<StatusLatency>,
    /// Wall time of every successful `connect`: first connections and
    /// reconnects alike. Kept apart from `latency`, so a slow accept
    /// backlog shows as its own figure instead of inflating one
    /// request's service interval.
    pub connect: LatencyStats,
    /// The server's coalescer counters after the run.
    pub coalescer: CoalescerStats,
    /// The server's evaluate-ledger summary after the run — the
    /// per-fidelity answered counts live in its sections.
    pub ledger: LedgerSummary,
}

impl LoadgenReport {
    /// Renders the human-readable run summary the CLI prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "loadgen: {} requests ({} ok, {} backpressured, {} failed, {} io errors)\n",
            self.requests, self.ok, self.rejected, self.failed, self.io_errors
        ));
        out.push_str(&format!(
            "throughput: offered {:.0} attempts/s, achieved {:.0} req/s over {:.2?}\n",
            self.offered_rps, self.achieved_rps, self.wall
        ));
        if self.latency.samples > 0 {
            out.push_str(&format!(
                "latency: p50 {:?}, p95 {:?}, p99 {:?}, max {:?} ({} served)\n",
                self.latency.p50,
                self.latency.p95,
                self.latency.p99,
                self.latency.max,
                self.latency.samples
            ));
        }
        if self.delta.samples > 0 {
            out.push_str(&format!(
                "client-server gap: p50 {:?}, p95 {:?}, p99 {:?}, max {:?} ({} timed)\n",
                self.delta.p50, self.delta.p95, self.delta.p99, self.delta.max, self.delta.samples
            ));
        }
        if self.connect.samples > 0 {
            out.push_str(&format!(
                "connect: p50 {:?}, p99 {:?}, max {:?} ({} connects)\n",
                self.connect.p50, self.connect.p99, self.connect.max, self.connect.samples
            ));
        }
        for s in &self.statuses {
            out.push_str(&format!(
                "  status {}: {} attempts (rtt p50 {:?}, p99 {:?}, max {:?})\n",
                s.status, s.count, s.latency.p50, s.latency.p99, s.latency.max
            ));
        }
        out.push_str(&format!(
            "coalescer: {} requests -> {} batches ({} points, {:.2} requests/batch)\n",
            self.coalescer.requests,
            self.coalescer.batches,
            self.coalescer.points,
            self.coalescer.amortization()
        ));
        let (mut evaluations, mut cache_hits) = (0u64, 0u64);
        let mut fidelities = Vec::new();
        for (fidelity, section) in self.ledger.sections() {
            evaluations += section.evaluations;
            cache_hits += section.cache_hits;
            fidelities.push(format!(
                "{} {} answered ({} cached)",
                fidelity.key(),
                section.evaluations,
                section.cache_hits
            ));
        }
        out.push_str(&format!("fidelities: {}\n", fidelities.join(", ")));
        out.push_str(&format!(
            "ledger: {evaluations} evaluations, {cache_hits} cache hits, {:.1} model-time units\n",
            self.ledger.total_model_time()
        ));
        out
    }
}

/// Deterministic point choice: an splitmix-style LCG per client, so the
/// same config always produces the same request stream.
fn next_code(state: &mut u64, space_size: u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let x = *state;
    let mixed = (x ^ (x >> 33)).wrapping_mul(0xff51afd7ed558ccd);
    (mixed ^ (mixed >> 33)) % space_size
}

/// Extracts the server-reported total (`app;dur=<ms>`) out of a
/// `Server-Timing` header value.
fn server_timing_app_ms(value: &str) -> Option<f64> {
    value
        .split(',')
        .find_map(|part| part.trim().strip_prefix("app;dur="))
        .and_then(|ms| ms.trim().parse::<f64>().ok())
}

/// What one client thread accumulated.
#[derive(Debug, Default)]
struct ClientOutcome {
    ok: u64,
    rejected: u64,
    failed: u64,
    io_errors: u64,
    /// Whole-service-interval latencies of served requests.
    served: Vec<Duration>,
    /// Client-RTT minus server-reported time, per timed served attempt.
    deltas: Vec<Duration>,
    /// Per-attempt round-trip latencies keyed by answering status.
    by_status: Vec<(u16, Vec<Duration>)>,
    /// Wall time of each successful connect.
    connects: Vec<Duration>,
}

impl ClientOutcome {
    fn record_attempt(&mut self, status: u16, rtt: Duration) {
        match self.by_status.iter_mut().find(|(s, _)| *s == status) {
            Some((_, rtts)) => rtts.push(rtt),
            None => self.by_status.push((status, vec![rtt])),
        }
    }

    fn absorb(&mut self, other: ClientOutcome) {
        self.ok += other.ok;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.io_errors += other.io_errors;
        self.served.extend(other.served);
        self.deltas.extend(other.deltas);
        self.connects.extend(other.connects);
        for (status, rtts) in other.by_status {
            match self.by_status.iter_mut().find(|(s, _)| *s == status) {
                Some((_, acc)) => acc.extend(rtts),
                None => self.by_status.push((status, rtts)),
            }
        }
    }
}

/// Hard tries per request in fixed-count mode; closed-loop requests
/// retry 503s until served (backpressure is not a failure).
const FIXED_MODE_TRIES: usize = 50;
/// Consecutive socket errors on one request before giving it up.
const IO_RETRY_LIMIT: usize = 100;
/// 503 backoff bounds: exponential from first to cap.
const BACKOFF_FIRST: Duration = Duration::from_millis(1);
const BACKOFF_CAP: Duration = Duration::from_millis(16);

/// One client thread: sends requests on a persistent keep-alive
/// connection until its quota (fixed-count) or the deadline
/// (closed-loop) is reached, reconnecting on socket errors.
fn client_loop(
    config: &LoadgenConfig,
    client_id: usize,
    space_size: u64,
    deadline: Option<Instant>,
) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    let mut state = config.seed ^ ((client_id as u64 + 1) << 32);
    let mut conn: Option<client::Conn> = None;
    let mut sent = 0usize;
    loop {
        match deadline {
            Some(deadline) => {
                if Instant::now() >= deadline {
                    break;
                }
            }
            None => {
                if sent >= config.requests_per_client {
                    break;
                }
            }
        }
        sent += 1;
        let points: Vec<String> = (0..config.points_per_request.max(1))
            .map(|_| next_code(&mut state, space_size).to_string())
            .collect();
        let body =
            format!("{{\"points\":[{}],\"fidelity\":\"{}\"}}", points.join(","), config.fidelity);
        // Deterministic client-side trace id: same config, same ids.
        let trace_id = config.trace.then(|| format!("lg{client_id}.{sent}"));

        // One request cycle: a 503 is backpressure doing its job — back
        // off and retry the same request. Served latency is the whole
        // service interval, retries included.
        let started = Instant::now();
        let mut served = false;
        let mut backoff = BACKOFF_FIRST;
        let mut io_failures = 0usize;
        let mut tries = 0usize;
        loop {
            if deadline.is_none() {
                tries += 1;
                if tries > FIXED_MODE_TRIES {
                    break;
                }
            }
            if conn.is_none() {
                let connect_started = Instant::now();
                match client::Conn::connect(&config.addr) {
                    Ok(fresh) => {
                        outcome.connects.push(connect_started.elapsed());
                        conn = Some(fresh);
                    }
                    Err(_) => {
                        outcome.io_errors += 1;
                        io_failures += 1;
                        if io_failures >= IO_RETRY_LIMIT || deadline.is_none() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                }
            }
            let attempt_started = Instant::now();
            let trace_header = trace_id.as_deref().map(|id| (crate::http::TRACE_HEADER, id));
            let response = conn.as_mut().expect("connection was just established").request_with(
                "POST",
                "/v1/evaluate",
                Some(&body),
                trace_header.as_slice(),
            );
            match response {
                Ok(r) => {
                    let rtt = attempt_started.elapsed();
                    outcome.record_attempt(r.status, rtt);
                    match r.status {
                        200 => {
                            outcome.ok += 1;
                            served = true;
                            if let Some(app_ms) =
                                r.server_timing.as_deref().and_then(server_timing_app_ms)
                            {
                                let server = Duration::from_secs_f64(app_ms.max(0.0) / 1000.0);
                                outcome.deltas.push(rtt.saturating_sub(server));
                            }
                            break;
                        }
                        503 => {
                            outcome.rejected += 1;
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(BACKOFF_CAP);
                        }
                        // Anything else is a hard per-request failure.
                        _ => break,
                    }
                }
                Err(_) => {
                    // The keep-alive connection died (server deadline,
                    // restart, drain): reconnect and retry.
                    conn = None;
                    outcome.io_errors += 1;
                    io_failures += 1;
                    if io_failures >= IO_RETRY_LIMIT || deadline.is_none() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        if served {
            outcome.served.push(started.elapsed());
        } else {
            outcome.failed += 1;
        }
    }
    outcome
}

/// Runs the configured workload and gathers the server's own counters.
///
/// # Errors
///
/// Fails when the server cannot be reached or `/healthz` / `/metrics`
/// answer something unexpected; individual evaluate failures are
/// *counted*, not returned.
pub fn run(config: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    let health = client::get(&config.addr, "/healthz")?;
    if health.status != 200 {
        return Err(std::io::Error::other(format!("healthz answered {}", health.status)));
    }
    let space_size = serde_json::from_str::<serde_json::Value>(&health.body)
        .ok()
        .and_then(|v| v.get("space_size").and_then(|s| s.as_u64()))
        .ok_or_else(|| std::io::Error::other("healthz reported no space_size"))?;

    let started = Instant::now();
    let deadline = config.duration.map(|d| started + d);
    let mut total = ClientOutcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|client_id| {
                // Saturating runs want many mostly-blocked clients; a
                // small stack keeps a 1024-client run cheap.
                std::thread::Builder::new()
                    .stack_size(128 * 1024)
                    .spawn_scoped(scope, move || {
                        client_loop(config, client_id, space_size, deadline)
                    })
                    .expect("spawning a loadgen client failed")
            })
            .collect();
        for handle in handles {
            total.absorb(handle.join().expect("loadgen client panicked"));
        }
    });
    let wall = started.elapsed();

    let metrics = client::get(&config.addr, "/metrics")?;
    let metrics: MetricsResponse = serde_json::from_str(&metrics.body)
        .map_err(|e| std::io::Error::other(format!("bad /metrics payload: {e}")))?;

    let attempts: u64 =
        total.by_status.iter().map(|(_, rtts)| rtts.len() as u64).sum::<u64>() + total.io_errors;
    let wall_s = wall.as_secs_f64().max(f64::EPSILON);
    let mut statuses: Vec<StatusLatency> = total
        .by_status
        .into_iter()
        .map(|(status, rtts)| StatusLatency {
            status,
            count: rtts.len() as u64,
            latency: LatencyStats::from_samples(rtts),
        })
        .collect();
    statuses.sort_by_key(|s| s.status);
    Ok(LoadgenReport {
        requests: total.ok + total.failed,
        ok: total.ok,
        rejected: total.rejected,
        failed: total.failed,
        io_errors: total.io_errors,
        wall,
        offered_rps: attempts as f64 / wall_s,
        achieved_rps: total.ok as f64 / wall_s,
        latency: LatencyStats::from_samples(total.served),
        delta: LatencyStats::from_samples(total.deltas),
        statuses,
        connect: LatencyStats::from_samples(total.connects),
        coalescer: metrics.coalescer,
        ledger: metrics.ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn latency_stats_empty_is_all_zero() {
        let stats = LatencyStats::from_samples(Vec::new());
        assert_eq!(stats, LatencyStats::default());
        assert_eq!(stats.samples, 0);
    }

    #[test]
    fn latency_stats_single_sample_is_every_percentile() {
        let stats = LatencyStats::from_samples(vec![ms(7)]);
        assert_eq!(stats.samples, 1);
        assert_eq!((stats.p50, stats.p95, stats.p99, stats.max), (ms(7), ms(7), ms(7), ms(7)));
    }

    #[test]
    fn latency_stats_nearest_rank_on_a_known_distribution() {
        // 1..=100 ms, shuffled: nearest-rank percentiles are exact.
        let mut samples: Vec<Duration> = (1..=100).map(ms).collect();
        samples.reverse();
        let stats = LatencyStats::from_samples(samples);
        assert_eq!(stats.samples, 100);
        assert_eq!(stats.p50, ms(50));
        assert_eq!(stats.p95, ms(95));
        assert_eq!(stats.p99, ms(99));
        assert_eq!(stats.max, ms(100));
    }

    #[test]
    fn report_renders_latency_and_status_lines() {
        let report = LoadgenReport {
            requests: 4,
            ok: 4,
            rejected: 1,
            failed: 0,
            io_errors: 0,
            wall: Duration::from_secs(2),
            offered_rps: 2.5,
            achieved_rps: 2.0,
            latency: LatencyStats::from_samples(vec![ms(2), ms(3), ms(4), ms(40)]),
            delta: LatencyStats::from_samples(vec![ms(1), ms(2)]),
            statuses: vec![
                StatusLatency {
                    status: 200,
                    count: 4,
                    latency: LatencyStats::from_samples(vec![ms(2), ms(3), ms(4), ms(5)]),
                },
                StatusLatency {
                    status: 503,
                    count: 1,
                    latency: LatencyStats::from_samples(vec![ms(1)]),
                },
            ],
            connect: LatencyStats::from_samples(vec![ms(1), ms(9)]),
            coalescer: CoalescerStats::default(),
            ledger: LedgerSummary::default(),
        };
        let rendered = report.render();
        assert!(rendered.contains("latency: p50 3ms"), "{rendered}");
        assert!(rendered.contains("client-server gap: p50 1ms"), "{rendered}");
        assert!(rendered.contains("max 40ms (4 served)"), "{rendered}");
        assert!(rendered.contains("offered 2 attempts/s, achieved 2 req/s"), "{rendered}");
        assert!(rendered.contains("status 200: 4 attempts"), "{rendered}");
        assert!(rendered.contains("status 503: 1 attempts"), "{rendered}");
        assert!(rendered.contains("connect: p50 1ms, p99 9ms, max 9ms (2 connects)"), "{rendered}");
        assert!(rendered.contains("fidelities: lf 0 answered"), "{rendered}");
        let mut silent = report;
        silent.latency = LatencyStats::default();
        silent.statuses.clear();
        silent.connect = LatencyStats::default();
        assert!(!silent.render().contains("latency"), "no line without samples");
        assert!(!silent.render().contains("connect"), "no connect line without samples");
    }

    #[test]
    fn client_outcomes_merge_by_status() {
        let mut a = ClientOutcome {
            ok: 2,
            rejected: 1,
            failed: 0,
            io_errors: 1,
            served: vec![ms(5)],
            deltas: vec![ms(1)],
            by_status: vec![(200, vec![ms(5), ms(6)]), (503, vec![ms(1)])],
            connects: vec![ms(1)],
        };
        let b = ClientOutcome {
            ok: 1,
            rejected: 0,
            failed: 1,
            io_errors: 0,
            served: vec![ms(7)],
            deltas: vec![ms(2)],
            by_status: vec![(200, vec![ms(7)]), (400, vec![ms(2)])],
            connects: vec![ms(3), ms(4)],
        };
        a.absorb(b);
        assert_eq!((a.ok, a.rejected, a.failed, a.io_errors), (3, 1, 1, 1));
        assert_eq!(a.served.len(), 2);
        assert_eq!(a.deltas.len(), 2);
        assert_eq!(a.connects.len(), 3);
        let lens: Vec<(u16, usize)> = a.by_status.iter().map(|(s, v)| (*s, v.len())).collect();
        assert!(lens.contains(&(200, 3)) && lens.contains(&(503, 1)) && lens.contains(&(400, 1)));
    }

    #[test]
    fn server_timing_app_entry_parses_and_tolerates_noise() {
        let value = "parse;dur=0.012, queue;dur=1.500, coalesce;dur=0.200, \
                     exec;dur=3.100, serialize;dur=0.050, app;dur=4.862";
        assert_eq!(server_timing_app_ms(value), Some(4.862));
        assert_eq!(server_timing_app_ms("app;dur=0.5"), Some(0.5));
        assert_eq!(server_timing_app_ms(" app;dur= 2.0 "), Some(2.0));
        assert_eq!(server_timing_app_ms("exec;dur=1.0"), None);
        assert_eq!(server_timing_app_ms("app;dur=nope"), None);
        assert_eq!(server_timing_app_ms(""), None);
    }
}
