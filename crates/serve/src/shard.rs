//! Sharded serving: a front router over N independent shard servers.
//!
//! Each shard is a full `archdse-serve` instance (its own reactor,
//! coalescer, `CpiCache` and learned tier — shared-nothing). The router
//! is the same front end as a single server — one [`Front`], one endpoint
//! table, the same [`Limits`] — whose app handlers proxy to the shards
//! over persistent keep-alive connections:
//!
//! * `/v1/evaluate` — each point is owned by the shard
//!   `shard_of(code)` (a splitmix64 hash of the encoded design point,
//!   so ownership is a pure function of the point, not of arrival
//!   order). The batch splits by owner, fans out concurrently, and the
//!   replies merge back in the caller's original point order. Because
//!   every shard evaluates deterministically and a point always lands
//!   on the same shard's cache, the merged answers are bit-identical to
//!   a single server's — sharding changes throughput, never answers.
//!   Batches over [`MAX_POINTS_PER_REQUEST`] and bodies the router cannot
//!   read go to shard 0 verbatim, so they fail with a single server's
//!   error.
//! * `/v1/explain` — routed by the same hash (stateless, but keeps a
//!   point's traffic on one shard).
//! * `/v1/explore` + `/v1/jobs` — jobs round-robin across shards; the
//!   router hands out global ids `local * N + shard` so a job id alone
//!   names its shard.
//! * `/healthz` — answered by shard 0.
//! * `/v1/workloads`, `/v1/shutdown`, `/debug/requests` and `/metrics`
//!   go to every shard through one fan-out helper
//!   ([`RouterShared::broadcast`]), which relays the first shard that
//!   does not answer 200 and turns an unreachable one into a 502.
//!   Either `/metrics` form takes one fan-out of the shards' Prometheus
//!   text, reads each back ([`dse_obs::parse_prometheus_text`]), sums
//!   series ([`dse_obs::sum_snapshots`]) and overlays the router's own
//!   registry (its front-door series win collisions). The text form
//!   renders that snapshot; the JSON form is the same snapshot through
//!   the server's JSON view, plus a `shards` count.
//!
//! Every proxied request carries the caller's trace context.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dse_obs::Counter;
use serde_json::Value;

use crate::front::{
    job_id, json_reply, start, wants_prometheus, Answer, Endpoint, Front, Limits, Reply,
    ServerHandle,
};
use crate::http::client::{ClientResponse, Conn};
use crate::http::{BadRequest, Request, CT_JSON, CT_PROMETHEUS};
use crate::protocol::{error_body, MetricsResponse, MAX_POINTS_PER_REQUEST};
use crate::reactor::Engine;

/// Socket timeout on upstream connections (generous: an upstream
/// evaluate can sit behind a long coalescer batch).
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(60);

/// Fewest idle keep-alive connections parked per shard. A router with
/// more app workers than this parks one per worker, so a pool sized for
/// the client concurrency never reconnects between requests.
const MIN_IDLE_UPSTREAMS: usize = 64;

/// The shard that owns an encoded design point: a splitmix64 finalizer
/// over the code, mod the shard count. Pure function of the point, so
/// a point always hits the same shard's cache.
pub(crate) fn shard_of(code: u64, shards: usize) -> usize {
    let mut z = code.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// Configuration of a shard router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Upstream shard addresses (`host:port`), shard index = position.
    pub shard_addrs: Vec<String>,
    /// App-handler pool size. The router proxies with blocking upstream
    /// I/O, so one handler is occupied for a request's whole upstream
    /// round-trip: size this at or above the peak client concurrency
    /// you want served without `503` admission pushback.
    pub workers: usize,
    /// Socket deadlines and the body size cap on the router's own
    /// sockets.
    pub limits: Limits,
}

impl RouterConfig {
    /// Defaults: ephemeral localhost port, 64 app workers and the
    /// default [`Limits`].
    #[must_use]
    pub fn new(shard_addrs: Vec<String>) -> Self {
        Self { addr: "127.0.0.1:0".into(), shard_addrs, workers: 64, limits: Limits::default() }
    }
}

/// Cross-thread router state.
pub(crate) struct RouterShared {
    front: Front,
    shard_addrs: Vec<String>,
    /// Requests forwarded per shard (`serve_shard_requests_total{shard}`).
    shard_requests: Vec<Counter>,
    /// Round-robin cursor for `/v1/explore`.
    explore_rr: AtomicU64,
    /// Idle keep-alive connections per shard.
    pools: Vec<Mutex<Vec<Conn>>>,
    /// Most idle connections parked per shard; checked-out connections
    /// are unbounded, this only caps what parks between requests.
    idle_cap: usize,
}

/// A shard that did not answer a fan-out with 200.
struct Refusal {
    shard: usize,
    /// The shard's answer, to relay verbatim, or a 502 naming the shard
    /// when it was unreachable.
    reply: (u16, String),
}

impl RouterShared {
    fn shards(&self) -> usize {
        self.shard_addrs.len()
    }

    /// One request/response round-trip to a shard over a pooled
    /// keep-alive connection, with one reconnect-and-retry on failure
    /// (a pooled connection may have idled past the shard's deadline).
    /// `trace` propagates the caller's trace context to the shard via
    /// the `X-ArchDSE-Trace` header.
    fn upstream(
        &self,
        shard: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
        trace: Option<&str>,
    ) -> io::Result<ClientResponse> {
        self.shard_requests[shard].inc();
        let trace_header = trace.map(|id| (crate::http::TRACE_HEADER, id));
        let headers: &[(&str, &str)] = trace_header.as_slice();
        let pooled = self.pools[shard].lock().expect("shard pool poisoned").pop();
        if let Some(mut conn) = pooled {
            if let Ok(response) = conn.request_with(method, path, body, headers) {
                self.park(shard, conn);
                return Ok(response);
            }
        }
        let mut conn = Conn::connect_with_timeout(&self.shard_addrs[shard], UPSTREAM_TIMEOUT)?;
        let response = conn.request_with(method, path, body, headers)?;
        self.park(shard, conn);
        Ok(response)
    }

    fn park(&self, shard: usize, conn: Conn) {
        if !conn.is_alive() {
            return;
        }
        let mut pool = self.pools[shard].lock().expect("shard pool poisoned");
        if pool.len() < self.idle_cap {
            pool.push(conn);
        }
    }

    /// Forwards a request to one shard verbatim, proxying status and body.
    fn forward(&self, shard: usize, request: &Request) -> Answer {
        let body = upstream_body(request)?;
        let response = self
            .upstream(shard, &request.method, &request.path, body, request.trace.as_deref())
            .map_err(|e| shard_down(shard, &e))?;
        Ok((response.status, response.body))
    }

    /// Sends one request to every shard in shard order, yielding each
    /// shard's 200 body or its [`Refusal`]. The walk is lazy: collecting
    /// into a `Result` stops at the first refusal, draining the iterator
    /// reaches every shard whatever the others answered.
    fn broadcast<'a>(
        &'a self,
        method: &'a str,
        path: &'a str,
        body: Option<&'a str>,
        trace: Option<&'a str>,
    ) -> impl Iterator<Item = Result<String, Refusal>> + 'a {
        (0..self.shards()).map(move |shard| match self.upstream(shard, method, path, body, trace) {
            Ok(response) if response.status == 200 => Ok(response.body),
            Ok(response) => Err(Refusal { shard, reply: (response.status, response.body) }),
            Err(e) => Err(Refusal { shard, reply: shard_down(shard, &e).reply() }),
        })
    }
}

impl Engine for RouterShared {
    fn front(&self) -> &Front {
        &self.front
    }

    fn route(&self, endpoint: Endpoint, request: &Request) -> Reply {
        json_reply(match endpoint {
            Endpoint::Metrics => {
                return handle_metrics(self, request).unwrap_or_else(|bad| json_reply(Err(bad)))
            }
            Endpoint::Healthz => self.forward(0, request),
            Endpoint::Debug => Ok(handle_debug_requests(self, request.trace.as_deref())),
            Endpoint::Evaluate => handle_evaluate(self, request),
            Endpoint::Explain => handle_explain(self, request),
            Endpoint::Explore => handle_explore(self, request),
            Endpoint::Workloads => handle_workloads(self, request),
            Endpoint::Jobs => handle_job(self, request),
            Endpoint::Shutdown => {
                // Every shard is told, whatever the others answered.
                self.broadcast("POST", "/v1/shutdown", None, None).for_each(drop);
                Ok(self.front.acknowledge_shutdown())
            }
        })
    }
}

/// Binds the router and verifies every shard answers `/healthz`.
/// Returns immediately with the running handle.
///
/// # Errors
///
/// Fails when the address cannot be bound, no shards were given, or a
/// shard does not answer its health check.
pub fn spawn_router(config: RouterConfig) -> io::Result<ServerHandle> {
    if config.shard_addrs.is_empty() {
        return Err(io::Error::other("a router needs at least one shard address"));
    }
    for (i, addr) in config.shard_addrs.iter().enumerate() {
        let health = crate::http::client::get(addr, "/healthz")
            .map_err(|e| io::Error::other(format!("shard {i} at {addr} is unreachable: {e}")))?;
        if health.status != 200 {
            return Err(io::Error::other(format!(
                "shard {i} at {addr} failed its health check (status {})",
                health.status
            )));
        }
    }

    let (front, listener, wake_rx) = Front::bind(&config.addr, "router", config.limits)?;
    let shards = config.shard_addrs.len();
    let shard_requests = (0..shards)
        .map(|i| {
            front
                .metrics
                .registry
                .counter_with("serve_shard_requests_total", &[("shard", &i.to_string())])
        })
        .collect();
    let router = Arc::new(RouterShared {
        front,
        shard_addrs: config.shard_addrs,
        shard_requests,
        explore_rr: AtomicU64::new(0),
        pools: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        idle_cap: config.workers.max(MIN_IDLE_UPSTREAMS),
    });
    // The queue buffers between the reactor and the handler pool; with
    // a pool sized for the target concurrency it stays near-empty, so
    // it only needs to absorb scheduling jitter.
    Ok(start(router, listener, wake_rx, config.workers, config.workers.max(128), || {}))
}

/// An upstream failure: a 502 naming the shard.
fn shard_down(shard: usize, e: &io::Error) -> BadRequest {
    BadRequest::new(502, format!("shard {shard} is unreachable: {e}"))
}

/// A request's body as it goes upstream: `None` when empty.
fn upstream_body(request: &Request) -> Result<Option<&str>, BadRequest> {
    Ok(Some(request.body_utf8()?).filter(|body| !body.is_empty()))
}

/// `GET /debug/requests` on the router: the router's own flight
/// recorder plus each shard's, in shard order.
fn handle_debug_requests(router: &RouterShared, trace: Option<&str>) -> (u16, String) {
    let own = router.front.flight.to_json();
    match router.broadcast("GET", "/debug/requests", None, trace).collect::<Result<Vec<_>, _>>() {
        Ok(shards) => (200, format!("{{\"router\":{own},\"shards\":[{}]}}", shards.join(","))),
        Err(refusal) => refusal.reply,
    }
}

fn handle_evaluate(router: &RouterShared, request: &Request) -> Answer {
    let shards = router.shards();
    let parsed = serde_json::from_str::<Value>(request.body_utf8()?).ok();
    let codes: Option<Vec<u64>> = parsed
        .as_ref()
        .and_then(|v| v.get("points")?.as_array()?.iter().map(Value::as_u64).collect());
    // Bodies whose points the router cannot read go to shard 0 verbatim,
    // so clients get a shard's canonical error text. So do batches over
    // the cap, which would pass each shard's check once split.
    let (Some(parsed), Some(codes)) = (parsed, codes) else {
        return router.forward(0, request);
    };
    if codes.is_empty() || codes.len() > MAX_POINTS_PER_REQUEST || shards == 1 {
        return router.forward(0, request);
    }
    // Split the batch by owning shard, preserving arrival order within
    // each shard's sub-batch.
    let owners: Vec<usize> = codes.iter().map(|&code| shard_of(code, shards)).collect();
    // Single-owner fast path: when the whole batch hashes to one shard
    // (always true for one-point requests), the original body forwards
    // verbatim and the shard's response relays untouched — no sub-batch
    // serialization, no fan-out threads, no response re-parse/merge.
    // Identical answers either way; this only removes router work.
    if owners.iter().all(|&owner| owner == owners[0]) {
        return router.forward(owners[0], request);
    }
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for (&owner, &code) in owners.iter().zip(&codes) {
        per_shard[owner].push(code);
    }
    // One shard's sub-batch, answered with exactly one row per point.
    let trace = request.trace.as_deref();
    let leg = |shard: usize, codes: &[u64]| -> Result<Vec<Value>, (u16, String)> {
        let mut sub = parsed.clone();
        set_field(&mut sub, "points", Value::Seq(codes.iter().map(|&c| Value::U64(c)).collect()));
        let body = serde_json::to_string(&sub)
            .map_err(|e| (500, error_body(&format!("sub-batch serialization failed: {e}"))))?;
        let response = router
            .upstream(shard, "POST", "/v1/evaluate", Some(&body), trace)
            .map_err(|e| shard_down(shard, &e).reply())?;
        if response.status != 200 {
            return Err((response.status, response.body));
        }
        serde_json::from_str::<Value>(&response.body)
            .ok()
            .and_then(|v| v.get("results").and_then(Value::as_array).cloned())
            .filter(|rows| rows.len() == codes.len())
            .ok_or_else(|| {
                (502, error_body(&format!("shard {shard} returned a malformed evaluate response")))
            })
    };
    // Concurrent fan-out: every active shard's sub-batch is in flight at
    // once, so the router adds one upstream round-trip, not N. Every leg
    // carries the same trace context, so one router request span joins
    // each shard sub-batch it touched.
    let legs: Vec<Result<Vec<Value>, _>> = std::thread::scope(|scope| {
        let leg = &leg;
        let handles: Vec<_> = per_shard
            .iter()
            .enumerate()
            .map(|(shard, codes)| {
                (!codes.is_empty()).then(|| scope.spawn(move || leg(shard, codes)))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.map_or(Ok(Vec::new()), |h| h.join().expect("shard fan-out thread panicked"))
            })
            .collect()
    });
    // Any failure propagates (lowest shard index first, deterministic).
    let mut rows_per_shard: Vec<_> = match legs.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(rows) => rows.into_iter().map(Vec::into_iter).collect(),
        Err(reply) => return Ok(reply),
    };
    // Order-stable merge: walk the original points, taking each row from
    // its owner's reply stream (each holds one row per point it owns).
    let merged: Vec<Value> = owners
        .iter()
        .map(|&owner| rows_per_shard[owner].next().expect("legs answer one row per point"))
        .collect();
    let merged = Value::Map(vec![("results".to_string(), Value::Seq(merged))]);
    let body = serde_json::to_string(&merged)
        .map_err(|e| BadRequest::new(500, format!("merge serialization failed: {e}")))?;
    Ok((200, body))
}

fn handle_explain(router: &RouterShared, request: &Request) -> Answer {
    let point = request
        .body_utf8()
        .ok()
        .and_then(|body| serde_json::from_str::<Value>(body).ok())
        .and_then(|v| v.get("point").and_then(Value::as_u64));
    router.forward(point.map_or(0, |p| shard_of(p, router.shards())), request)
}

fn handle_workloads(router: &RouterShared, request: &Request) -> Answer {
    let body = upstream_body(request)?;
    // Every shard must know every workload; fan the upload to all of
    // them and report shard 0's response. A failure part-way leaves the
    // registries inconsistent, so it is surfaced loudly as a 502.
    let legs = router.broadcast("POST", &request.path, body, request.trace.as_deref());
    match legs.collect::<Result<Vec<String>, _>>() {
        Ok(bodies) => bodies
            .into_iter()
            .next()
            .map(|body| (200, body))
            .ok_or_else(|| BadRequest::new(502, "no shards configured")),
        // Shard 0 rejected it outright (bad request, duplicate): nothing
        // was registered anywhere; relay verbatim.
        Err(Refusal { shard: 0, reply }) => Ok(reply),
        Err(Refusal { shard, reply: (status, body) }) => Err(BadRequest::new(
            502,
            format!(
                "workload registration diverged: shard {shard} answered {status} after earlier \
                 shards accepted ({body})"
            ),
        )),
    }
}

fn handle_explore(router: &RouterShared, request: &Request) -> Answer {
    if router.front.is_shutting_down() {
        return Err(BadRequest::new(503, "server is shutting down"));
    }
    let shards = router.shards() as u64;
    let shard = (router.explore_rr.fetch_add(1, Ordering::Relaxed) % shards) as usize;
    match router.forward(shard, request)? {
        // Rewrite the local job id into a global one that encodes the shard.
        (200, body) => with_job_id(&body, |local| local * shards + shard as u64)
            .map(|body| (200, body))
            .ok_or_else(|| {
                BadRequest::new(502, format!("shard {shard} returned a jobless response"))
            }),
        refused => Ok(refused),
    }
}

fn handle_job(router: &RouterShared, request: &Request) -> Answer {
    let global = job_id(request)?;
    let shards = router.shards() as u64;
    let (shard, local) = ((global % shards) as usize, global / shards);
    if local == 0 {
        // Local ids start at 1, so no global id maps to local 0.
        return Err(BadRequest::new(404, format!("no job {global}")));
    }
    let path = format!("/v1/jobs/{local}");
    let response = router
        .upstream(shard, "GET", &path, None, request.trace.as_deref())
        .map_err(|e| shard_down(shard, &e))?;
    // Patch the shard-local id back into the caller's global id.
    let patched = with_job_id(&response.body, |_| global);
    Ok((response.status, patched.unwrap_or(response.body)))
}

/// `body` with its `job` id mapped through `id`; `None` when the body is
/// not a JSON object carrying a job id.
fn with_job_id(body: &str, id: impl FnOnce(u64) -> u64) -> Option<String> {
    let mut v = serde_json::from_str::<Value>(body).ok()?;
    let job = v.get("job").and_then(Value::as_u64)?;
    set_field(&mut v, "job", Value::U64(id(job)));
    serde_json::to_string(&v).ok()
}

fn handle_metrics(router: &RouterShared, request: &Request) -> Result<Reply, BadRequest> {
    let prometheus = wants_prometheus(request)?;
    let bodies: Vec<String> =
        match router.broadcast("GET", "/metrics?format=prometheus", None, None).collect() {
            Ok(bodies) => bodies,
            Err(refusal) => return Ok(json_reply(Ok(refusal.reply))),
        };
    let snaps = bodies
        .iter()
        .enumerate()
        .map(|(shard, body)| {
            dse_obs::parse_prometheus_text(body).map_err(|e| {
                BadRequest::new(502, format!("shard {shard} exposition did not parse: {e}"))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Router registry first: its front-door series (request counts,
    // shard counters, reactor gauges) win collisions; series only the
    // shards update (coalescer, ledger, sim kernel) pass through summed.
    let snapshot = router.front.metrics.registry.snapshot().merged(dse_obs::sum_snapshots(snaps));
    if prometheus {
        return Ok((200, snapshot.to_prometheus_text(), CT_PROMETHEUS));
    }
    let mut v = serde::Serialize::to_content(&MetricsResponse::from_snapshot(&snapshot));
    set_field(&mut v, "shards", Value::U64(router.shards() as u64));
    let body = serde_json::to_string(&v)
        .map_err(|e| BadRequest::new(500, format!("metrics serialization failed: {e}")))?;
    Ok((200, body, CT_JSON))
}

/// Sets (or appends) one field of a JSON map; no-op on non-maps.
fn set_field(v: &mut Value, key: &str, value: Value) {
    if let Value::Map(entries) = v {
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => entries.push((key.to_string(), value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_covers_all_shards() {
        // Determinism: same code, same shard, always.
        for code in [0u64, 1, 7, 1 << 40, u64::MAX] {
            assert_eq!(shard_of(code, 4), shard_of(code, 4));
        }
        // Coverage: a small code range must not collapse onto one shard.
        for shards in [2usize, 3, 4] {
            let mut hit = vec![false; shards];
            for code in 0..64u64 {
                hit[shard_of(code, shards)] = true;
            }
            assert!(hit.iter().all(|&h| h), "{shards} shards not all hit");
        }
    }
}
