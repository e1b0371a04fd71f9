//! The server's front door: everything a request meets before a handler
//! runs. The endpoint table every request is resolved against, the
//! per-connection [`Limits`], and the [`Front`] state the reactor reads
//! (address, shutdown flag, metrics, flight recorder, trace-id sequence).

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use dse_obs::{trace, Counter, Gauge, Histogram, Registry, LATENCY_BUCKETS_S};
use dse_reactor::{waker_pair, WakeRx, Waker};

use crate::conn::{Timeline, PHASES};
use crate::flight::{CompletedRequest, FlightRecorder};
use crate::http::{BadRequest, Request, CT_JSON};
use crate::protocol::{ERRORS, REJECTED, REQUESTS};

/// A rendered response: status, body and content type.
pub(crate) type Reply = (u16, String, &'static str);

/// A handler's JSON response, or the request's refusal.
pub(crate) type Answer = Result<(u16, String), BadRequest>;

/// The JSON [`Reply`] for an [`Answer`].
pub(crate) fn json_reply(answer: Answer) -> Reply {
    let (status, body) = answer.unwrap_or_else(|bad| bad.reply());
    (status, body, CT_JSON)
}

/// Per-connection limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Per-connection read deadline (slow clients get a 408).
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    /// 10 s socket deadlines and 1 MiB bodies.
    fn default() -> Self {
        Limits {
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Every endpoint the server serves. The discriminant indexes
/// [`ENDPOINTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    Healthz,
    Metrics,
    Debug,
    Evaluate,
    Explain,
    Explore,
    Workloads,
    Jobs,
    Shutdown,
}

/// One row of the endpoint table.
struct Row {
    endpoint: Endpoint,
    method: &'static str,
    /// The exact path, or, ending in `/`, a prefix followed by an id.
    path: &'static str,
    /// The `endpoint` label of this endpoint's metrics and request records.
    label: &'static str,
    /// Whether it has a `serve_requests_total` series and a `/metrics`
    /// request counter.
    counted: bool,
}

impl Row {
    const fn new(
        endpoint: Endpoint,
        method: &'static str,
        path: &'static str,
        label: &'static str,
        counted: bool,
    ) -> Row {
        Row { endpoint, method, path, label, counted }
    }
}

/// The endpoint table, in [`Endpoint`] order.
const ENDPOINTS: [Row; 9] = [
    Row::new(Endpoint::Healthz, "GET", "/healthz", "healthz", true),
    Row::new(Endpoint::Metrics, "GET", "/metrics", "metrics", true),
    Row::new(Endpoint::Debug, "GET", "/debug/requests", "debug", false),
    Row::new(Endpoint::Evaluate, "POST", "/v1/evaluate", "evaluate", true),
    Row::new(Endpoint::Explain, "POST", "/v1/explain", "explain", true),
    Row::new(Endpoint::Explore, "POST", "/v1/explore", "explore", true),
    Row::new(Endpoint::Workloads, "POST", "/v1/workloads", "workloads", true),
    Row::new(Endpoint::Jobs, "GET", "/v1/jobs/", "jobs", true),
    Row::new(Endpoint::Shutdown, "POST", "/v1/shutdown", "shutdown", false),
];

const _: () = {
    let mut i = 0;
    while i < ENDPOINTS.len() {
        assert!(ENDPOINTS[i].endpoint as usize == i, "ENDPOINTS must follow the Endpoint order");
        i += 1;
    }
};

impl Endpoint {
    /// Resolves a request against the table. Returns the metrics label
    /// (`"other"` for an unknown path) and either the endpoint to serve
    /// or the 404/405 to answer. The query string plays no part.
    pub(crate) fn resolve(request: &Request) -> (&'static str, Result<Endpoint, BadRequest>) {
        let (path, _) = request.split_path();
        let found = ENDPOINTS.iter().find(|row| match row.path.strip_suffix('/') {
            Some(_) => path.starts_with(row.path),
            None => path == row.path,
        });
        match found {
            None => ("other", Err(BadRequest::new(404, not_found_reason()))),
            Some(row) if row.method != request.method => {
                (row.label, Err(BadRequest::new(405, "method not allowed for this endpoint")))
            }
            Some(row) => (row.label, Ok(row.endpoint)),
        }
    }
}

/// Every endpoint as `METHOD /path`, with `<id>` after a prefix path, in
/// table order.
pub fn routes() -> Vec<String> {
    ENDPOINTS
        .iter()
        .map(|row| {
            let id = if row.path.ends_with('/') { "<id>" } else { "" };
            format!("{} {}{id}", row.method, row.path)
        })
        .collect()
}

/// The 404 reason, listing every endpoint.
fn not_found_reason() -> String {
    format!("no such endpoint; try {}", routes().join(", "))
}

/// The id of a `GET /v1/jobs/<id>` request.
pub(crate) fn job_id(request: &Request) -> Result<u64, BadRequest> {
    let (path, _) = request.split_path();
    path.strip_prefix("/v1/jobs/")
        .and_then(|raw| raw.parse::<u64>().ok())
        .ok_or_else(|| BadRequest::new(400, "job ids are integers: GET /v1/jobs/<id>"))
}

/// Whether a `GET /metrics` asks for the Prometheus text
/// (`?format=prometheus`) rather than JSON (`?format=json`, the default).
pub(crate) fn wants_prometheus(request: &Request) -> Result<bool, BadRequest> {
    let (_, query) = request.split_path();
    match query.split('&').find_map(|pair| pair.strip_prefix("format=")).unwrap_or("json") {
        "json" => Ok(false),
        "prometheus" => Ok(true),
        other => Err(BadRequest::new(
            400,
            format!("unknown format {other:?} (expected \"json\" or \"prometheus\")"),
        )),
    }
}

/// The front-door series. Every request counter flows through one
/// per-instance [`Registry`], whose snapshot both `/metrics` forms
/// render — and tests hosting several servers in one process never
/// share counts. The coalescer's series and workload registrations are
/// registered in the same registry by [`crate::spawn`].
pub(crate) struct ServerMetrics {
    pub(crate) registry: Registry,
    /// `serve_requests_total{endpoint}`, indexed by [`Endpoint`]; `None`
    /// for the uncounted endpoints.
    requests: [Option<Counter>; ENDPOINTS.len()],
    pub(crate) rejected: Counter,
    pub(crate) errors: Counter,
    /// Currently open connections on the reactor.
    pub(crate) connections_open: Gauge,
    /// Idle / never-spoke connections quietly closed by the read
    /// deadline (the non-408 half of the reaping policy).
    pub(crate) conns_reaped: Counter,
    /// `accept(2)` failures (out of fds, transient kernel errors).
    pub(crate) accept_errors: Counter,
    /// Reactor poll returns — the loop's heartbeat.
    pub(crate) reactor_wakeups: Counter,
    /// Entries in the reactor's timer wheel, about one per open
    /// connection (Prometheus form only).
    pub(crate) timer_entries: Gauge,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        Self {
            requests: ENDPOINTS.map(|row| {
                row.counted.then(|| registry.counter_with(REQUESTS, &[("endpoint", row.label)]))
            }),
            rejected: registry.counter(REJECTED),
            errors: registry.counter(ERRORS),
            connections_open: registry.gauge("serve_connections_open"),
            conns_reaped: registry.counter("serve_conns_reaped_total"),
            accept_errors: registry.counter("serve_accept_errors_total"),
            reactor_wakeups: registry.counter("serve_reactor_wakeups_total"),
            timer_entries: registry.gauge("serve_reactor_timer_entries"),
            registry,
        }
    }

    /// Per-endpoint request latency series (registered on first hit).
    pub(crate) fn request_seconds(&self, endpoint: &str) -> Histogram {
        self.registry.histogram_with(
            "serve_request_seconds",
            &[("endpoint", endpoint)],
            LATENCY_BUCKETS_S,
        )
    }

    /// Per-endpoint, per-status response counter.
    pub(crate) fn response(&self, endpoint: &str, status: u16) -> Counter {
        let status = status.to_string();
        self.registry
            .counter_with("serve_responses_total", &[("endpoint", endpoint), ("status", &status)])
    }
}

/// The role stamped on request records. Its initial prefixes the trace
/// ids the server mints (`s00000001`).
const ROLE: &str = "server";

/// The state the reactor needs besides the handlers.
pub(crate) struct Front {
    pub(crate) addr: SocketAddr,
    pub(crate) limits: Limits,
    shutdown: AtomicBool,
    /// Pokes the reactor when shutdown trips or a completion lands.
    pub(crate) waker: Waker,
    /// Request accounting (the `/metrics` `requests` section and the
    /// Prometheus exposition alike).
    pub(crate) metrics: ServerMetrics,
    /// Completed-request ring for `GET /debug/requests`.
    pub(crate) flight: FlightRecorder,
    /// Assigned trace id sequence (deterministic per process).
    trace_seq: AtomicU64,
}

impl Front {
    /// Binds `addr`. Returns the front state, the listener and the
    /// receiving end of the front's waker, for the reactor.
    pub(crate) fn bind(addr: &str, limits: Limits) -> io::Result<(Front, TcpListener, WakeRx)> {
        let listener = TcpListener::bind(addr)?;
        let (waker, wake_rx) = waker_pair()?;
        let front = Front {
            addr: listener.local_addr()?,
            limits,
            shutdown: AtomicBool::new(false),
            waker,
            metrics: ServerMetrics::new(),
            flight: FlightRecorder::new(),
            trace_seq: AtomicU64::new(0),
        };
        Ok((front, listener, wake_rx))
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flags shutdown and wakes the reactor so it notices immediately.
    pub(crate) fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// `POST /v1/shutdown`'s answer, after flagging shutdown.
    pub(crate) fn acknowledge_shutdown(&self) -> (u16, String) {
        self.initiate_shutdown();
        (200, "{\"status\":\"shutting down\"}".into())
    }

    /// Counts one request served by `endpoint`.
    pub(crate) fn count(&self, endpoint: Endpoint) {
        if let Some(counter) = &self.metrics.requests[endpoint as usize] {
            counter.inc();
        }
    }

    /// The next assigned trace id.
    pub(crate) fn mint_trace_id(&self) -> String {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        format!("{}{seq:08x}", &ROLE[..1])
    }

    /// Records one fully written response: always into the in-memory
    /// flight recorder, and — when the request is trace-sampled — as a
    /// `request` record in the JSONL trace.
    pub(crate) fn record_request(
        &self,
        timeline: &Timeline,
        endpoint: &'static str,
        status: u16,
        total_us: u64,
    ) {
        self.flight.record(CompletedRequest::new(timeline, endpoint, status, total_us));
        if timeline.sampled {
            if let Some(id) = &timeline.trace {
                let phases: Vec<(&'static str, u64)> =
                    PHASES.iter().copied().zip(timeline.phase_values()).collect();
                trace::request(&trace::RequestRecord {
                    trace: id,
                    role: ROLE,
                    endpoint,
                    status,
                    dur_us: total_us,
                    phases: &phases,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            body: Vec::new(),
            keep_alive: false,
            trace: None,
        }
    }

    #[test]
    fn known_paths_answer_405_for_any_other_method() {
        for row in &ENDPOINTS {
            let path = format!("{}{}", row.path, if row.path.ends_with('/') { "7" } else { "" });
            let (label, found) = Endpoint::resolve(&request(row.method, &path));
            assert_eq!((label, found), (row.label, Ok(row.endpoint)));
            let wrong = if row.method == "GET" { "POST" } else { "GET" };
            let (label, refused) = Endpoint::resolve(&request(wrong, &path));
            assert_eq!(label, row.label);
            assert_eq!(refused.map_err(|bad| bad.status), Err(405), "{wrong} {path}");
        }
    }

    #[test]
    fn unknown_paths_answer_404_listing_every_endpoint() {
        let (label, refused) = Endpoint::resolve(&request("GET", "/v1/jobs?x=1"));
        assert_eq!(label, "other");
        let BadRequest { status, reason } = refused.unwrap_err();
        assert_eq!(status, 404);
        for listed in ["GET /debug/requests", "GET /v1/jobs/<id>", "POST /v1/shutdown"] {
            assert!(reason.contains(listed), "{reason}");
        }
        // The query string never takes part in resolution.
        let (_, found) = Endpoint::resolve(&request("GET", "/metrics?format=prometheus"));
        assert_eq!(found, Ok(Endpoint::Metrics));
    }
}
