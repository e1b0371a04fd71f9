//! `serve-fresh` and `serve-hot`: `POST /v1/evaluate` against a server
//! running in a child process.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use archdse::Explorer;
use archdse_serve::client::{self, Conn};
use dse_space::DesignSpace;
use dse_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use crate::report::{timed_setup, Ctx, Window, WorkloadResult};
use crate::stats::{cpi_digest, mean, ms, parse_server_timing, percentile, ratio, tail_mean};

/// The server's command line: `archdse serve` with these flags and its
/// defaults for everything else (all cores, 2 ms coalescer window).
pub const SERVE_ARGS: &[&str] =
    &["--addr", "127.0.0.1:0", "--benchmark", "mm", "--trace-len", "10000", "--seed", "0"];

const POINTS_PER_REQUEST: usize = 4;
/// `serve-fresh`'s open-loop rate. Each request is a batch of its own:
/// the 2 ms coalescer window plus about 4.5 ms of simulation on one
/// thread. At 100 rps that kept the coalescer about 70% busy, and a
/// slower host tipped it into queueing (the p95 spread reached 53%); at
/// 50 rps latency reflects service time, not a backlog.
const FRESH_RPS: f64 = 50.0;
/// `serve-fresh` requests whose points make up the digest.
const DIGEST_REQUESTS: usize = 16;
/// One fresh point in this many is re-checked in-process.
const CHECK_EVERY: usize = 16;
/// Designs in `serve-hot`'s warmed working set.
const HOT_SET: usize = 64;
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// Load threads and keep-alive connections: one per core, never more.
fn workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A server child process: the benchmark binary re-invoked as
/// `serve-child`, which runs the CLI's own `serve` command.
pub struct ServerProc {
    child: Child,
    /// Held open for the child's lifetime; the child exits when it closes.
    stdin: Option<ChildStdin>,
    drain: Option<JoinHandle<()>>,
    stopped: bool,
    /// The address the server announced.
    pub addr: String,
}

impl ServerProc {
    /// Starts a server and waits until `/healthz` answers.
    pub fn boot() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .args(SERVE_ARGS)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting the server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("child stdout is piped");
        let mut server =
            ServerProc { child, stdin, drain: None, stopped: false, addr: String::new() };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        while server.addr.is_empty() {
            line.clear();
            if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                return Err("the server exited before announcing its address".into());
            }
            if let Some(addr) = line.trim().strip_prefix("archdse-serve listening on ") {
                server.addr = addr.to_string();
            }
        }
        // Keep reading the child's stdout so it never blocks on a full pipe.
        server.drain = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        }));
        let health = client::get(&server.addr, "/healthz").map_err(|e| format!("/healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        Ok(server)
    }

    /// The server process's peak resident set, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::stats::peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the server to drain and exit; returns whether it exited 0 on
    /// its own within the grace period (it is killed otherwise).
    pub fn shutdown(mut self) -> bool {
        self.stop()
    }

    fn stop(&mut self) -> bool {
        self.stopped = true;
        let asked = client::post(&self.addr, "/v1/shutdown", "").is_ok();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut exited = None;
        while asked && exited.is_none() && Instant::now() < deadline {
            exited = self.child.try_wait().ok().flatten();
            if exited.is_none() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        if exited.is_none() {
            let _ = self.child.kill();
        }
        let status = self.child.wait();
        self.stdin.take();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        exited.is_some() && status.is_ok_and(|s| s.success())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !self.stopped {
            self.stop();
        }
    }
}

/// One answered `/v1/evaluate`: `(point, cpi, cached)` rows and the
/// `Server-Timing` header when the request carried a trace id.
#[derive(Debug, Clone)]
pub struct Reply {
    rows: Vec<(u64, f64, bool)>,
    timing: Option<String>,
}

/// A request's three timestamps, as durations: due → sent is the load
/// generator's lag, sent → done the round trip.
#[derive(Debug)]
pub struct Timed<T> {
    /// Latency charged to the request: from when it was due.
    pub due_to_done: Duration,
    /// How late the generator sent it.
    pub due_to_sent: Duration,
    /// Client round trip.
    pub sent_to_done: Duration,
    /// Whatever `send` returned.
    pub out: T,
}

/// Open loop: request `i` is due at `start + i * interval` whatever the
/// server does, and its latency runs from that due time. Up to `workers`
/// requests are in flight; when all workers are stuck behind a stalled
/// server, requests falling due meanwhile wait, and that wait is charged
/// to them. Results are in request order.
pub fn open_loop<S, T: Send>(
    n: usize,
    interval: Duration,
    workers: usize,
    init: impl Fn() -> S + Sync,
    send: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<Timed<T>> {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut out: Vec<(usize, Timed<T>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        let due = start + interval.mul_f64(i as f64);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let out = send(&mut state, i);
                        let finished = Instant::now();
                        done.push((
                            i,
                            Timed {
                                due_to_done: finished - due,
                                due_to_sent: sent - due,
                                sent_to_done: finished - sent,
                                out,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("load worker panicked")).collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// Closed loop: `workers` clients each send their next request as soon as
/// the previous one is answered, while the window is open. `init` gets
/// the worker index, `send` the request's sequence number across all
/// workers. Latency is the round trip (nothing is ever "due").
pub fn closed_loop<S, T: Send>(
    workers: usize,
    window: &Window,
    min_requests: usize,
    init: impl Fn(usize) -> S + Sync,
    send: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<Timed<T>> {
    let started = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                let (init, send, started) = (&init, &send, &started);
                scope.spawn(move || {
                    let mut state = init(w);
                    let mut done = Vec::new();
                    loop {
                        let i = started.fetch_add(1, Ordering::Relaxed);
                        if !window.open(i, min_requests) {
                            return done;
                        }
                        let sent = Instant::now();
                        let out = send(&mut state, i);
                        let rtt = sent.elapsed();
                        done.push(Timed {
                            due_to_done: rtt,
                            due_to_sent: Duration::ZERO,
                            sent_to_done: rtt,
                            out,
                        });
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("load worker panicked")).collect()
    })
}

/// `n` distinct random design codes drawn from `seed`.
fn distinct_codes(seed: u64, n: usize, space_size: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let code = rng.gen_range(0..space_size);
        if seen.insert(code) {
            out.push(code);
        }
    }
    out
}

/// `POST /v1/evaluate` of `codes` at HF on a keep-alive connection
/// (opened or reopened as needed), checking the reply's shape.
fn evaluate(
    conn: &mut Option<Conn>,
    addr: &str,
    codes: &[u64],
    trace_id: Option<&str>,
) -> Result<Reply, String> {
    if !conn.as_ref().is_some_and(Conn::is_alive) {
        *conn = Some(Conn::connect_with_timeout(addr, SOCKET_TIMEOUT).map_err(|e| e.to_string())?);
    }
    let conn = conn.as_mut().expect("connected above");
    let list: Vec<String> = codes.iter().map(u64::to_string).collect();
    let body = format!(r#"{{"points":[{}],"fidelity":"hf"}}"#, list.join(","));
    let headers: Vec<(&str, &str)> =
        trace_id.map(|id| ("X-ArchDSE-Trace", id)).into_iter().collect();
    let response = conn
        .request_with("POST", "/v1/evaluate", Some(&body), &headers)
        .map_err(|e| e.to_string())?;
    if response.status != 200 {
        return Err(format!("status {}: {}", response.status, response.body));
    }
    let doc: Value = serde_json::from_str(&response.body).map_err(|e| e.to_string())?;
    let results = doc.get("results").and_then(Value::as_array).ok_or("reply has no results")?;
    let rows: Vec<(u64, f64, bool)> = results
        .iter()
        .filter_map(|r| {
            let point = r.get("point").and_then(Value::as_u64)?;
            let cpi = r.get("cpi").and_then(Value::as_f64)?;
            Some((point, cpi, r.get("cached").and_then(Value::as_bool)?))
        })
        .collect();
    let echoed = rows.len() == codes.len() && rows.iter().zip(codes).all(|(r, &c)| r.0 == c);
    if !echoed {
        return Err(format!("reply rows {rows:?} do not answer points {codes:?}"));
    }
    Ok(Reply { rows, timing: response.server_timing })
}

/// Server counters read before and after the window.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    requests: f64,
    batches: f64,
    points: f64,
    hf_evaluations: f64,
    queue_wait_s: f64,
    queue_waits: f64,
    wakeups: f64,
}

fn counters(addr: &str) -> Result<Counters, String> {
    let json = client::get(addr, "/metrics").map_err(|e| e.to_string())?;
    let doc: Value = serde_json::from_str(&json.body).map_err(|e| e.to_string())?;
    let field = |path: &[&str]| {
        path.iter().try_fold(&doc, |v, key| v.get(key)).and_then(Value::as_f64).unwrap_or(0.0)
    };
    let prom = client::get(addr, "/metrics?format=prometheus").map_err(|e| e.to_string())?;
    let sample = |name: &str| {
        prom.body
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    Ok(Counters {
        requests: field(&["coalescer", "requests"]),
        batches: field(&["coalescer", "batches"]),
        points: field(&["coalescer", "points"]),
        hf_evaluations: field(&["ledger", "high", "evaluations"]),
        queue_wait_s: sample("serve_coalescer_queue_wait_seconds_sum"),
        queue_waits: sample("serve_coalescer_queue_wait_seconds_count"),
        wakeups: sample("serve_reactor_wakeups_total"),
    })
}

/// CPIs of `codes` from the in-process twin of the server's evaluator.
fn reference_cpis(space: &DesignSpace, codes: &[u64]) -> Vec<f64> {
    let mut hf = Explorer::for_benchmark(Benchmark::Mm).trace_len(10_000).seed(0).hf_evaluator();
    let points: Vec<_> = codes.iter().map(|&c| space.decode(c)).collect();
    hf.cpi_batch(space, &points)
}

/// What both serve workloads measure and report alike.
struct Measured {
    samples: Vec<Timed<Result<Reply, String>>>,
    traced: Vec<bool>,
    elapsed_s: f64,
    before: Counters,
    after: Counters,
    peak_rss_mb: f64,
}

fn report(result: &mut WorkloadResult, setup_s: f64, m: &Measured) {
    let latency: Vec<f64> = m.samples.iter().map(|s| ms(s.due_to_done)).collect();
    let answered = m.samples.iter().filter(|s| s.out.is_ok()).count();
    result.attempted = m.samples.len() as u64;
    result.failed = (m.samples.len() - answered) as u64;
    if let Some(err) = m.samples.iter().find_map(|s| s.out.as_ref().err()) {
        result.failures.push(format!("first failed request: {err}"));
    }
    result.set("setup_s", setup_s);
    result.latencies(&latency);
    result.set("throughput_per_s", answered as f64 / m.elapsed_s);
    result.set("peak_rss_mb", m.peak_rss_mb);

    let pick = |traced: bool| -> Vec<f64> {
        latency.iter().zip(&m.traced).filter(|(_, &t)| t == traced).map(|(&l, _)| l).collect()
    };
    result.trace_overhead(&pick(true), &pick(false));
    result.set("client.latency_p99_ms", percentile(&latency, 99.0));
    let lag: Vec<f64> = m.samples.iter().map(|s| ms(s.due_to_sent)).collect();
    result.set("client.send_lag_ms_p95", percentile(&lag, 95.0));

    let mut phases: HashMap<String, Vec<f64>> = HashMap::new();
    for s in &m.samples {
        let Some(header) = s.out.as_ref().ok().and_then(|r| r.timing.as_deref()) else { continue };
        for (name, dur) in parse_server_timing(header) {
            if name == "app" {
                phases.entry("gap".into()).or_default().push(ms(s.sent_to_done) - dur);
            }
            phases.entry(name).or_default().push(dur);
        }
    }
    // Means, unlike medians, add up to the mean `app` time; both figures
    // keep digits below the header's 1 µs resolution.
    const PHASES: [(&str, &str, &str); 7] = [
        ("parse", "serve.parse_ms_mean", "serve.parse_ms_tail"),
        ("queue", "serve.queue_ms_mean", "serve.queue_ms_tail"),
        ("coalesce", "serve.coalesce_ms_mean", "serve.coalesce_ms_tail"),
        ("exec", "serve.exec_ms_mean", "serve.exec_ms_tail"),
        ("serialize", "serve.serialize_ms_mean", "serve.serialize_ms_tail"),
        ("app", "serve.app_ms_mean", "serve.app_ms_tail"),
        ("gap", "reactor.gap_ms_mean", "reactor.gap_ms_tail"),
    ];
    for (phase, mean_name, tail_name) in PHASES {
        let values = phases.get(phase).map(Vec::as_slice).unwrap_or(&[]);
        result.set(mean_name, mean(values));
        result.set(tail_name, tail_mean(values));
    }
    let d = |f: fn(&Counters) -> f64| f(&m.after) - f(&m.before);
    result.set("serve.requests_per_batch", ratio(d(|c| c.requests), d(|c| c.batches)));
    result.set("serve.points_per_batch", ratio(d(|c| c.points), d(|c| c.batches)));
    result.set("serve.coalescer_wait_ms", ratio(d(|c| c.queue_wait_s) * 1e3, d(|c| c.queue_waits)));
    result.set("serve.reactor_wakeups_per_req", ratio(d(|c| c.wakeups), d(|c| c.requests)));
}

/// Trace ids go on every other request of a traced run, so traced and
/// untraced requests share the run and `obs.trace_overhead_pct` compares
/// them.
fn trace_id(ctx: &Ctx, i: usize) -> Option<String> {
    (ctx.traced && i % 2 == 1).then(|| format!("perf-{i}"))
}

/// Fails the run on a failed boot: the remaining measurements are moot.
fn boot_failure(mut result: WorkloadResult, err: String) -> WorkloadResult {
    result.failures.push(err);
    result
}

/// Runs `serve-fresh`.
pub fn run_fresh(ctx: &Ctx) -> WorkloadResult {
    let mut result = WorkloadResult::new("serve-fresh");
    let space = DesignSpace::boom();
    let requests = ((ctx.seconds * FRESH_RPS).round() as usize).max(DIGEST_REQUESTS);
    let codes = distinct_codes(ctx.seed ^ 0xF2E5_4000, requests * POINTS_PER_REQUEST, space.size());

    let (setup_s, server) = timed_setup(ServerProc::boot);
    let server = match server {
        Ok(server) => server,
        Err(e) => return boot_failure(result, e),
    };
    let before = match counters(&server.addr) {
        Ok(c) => c,
        Err(e) => return boot_failure(result, e),
    };
    let start = Instant::now();
    let samples = open_loop(
        requests,
        Duration::from_secs_f64(1.0 / FRESH_RPS),
        workers(),
        || None::<Conn>,
        |conn, i| {
            let chunk = &codes[i * POINTS_PER_REQUEST..(i + 1) * POINTS_PER_REQUEST];
            evaluate(conn, &server.addr, chunk, trace_id(ctx, i).as_deref())
        },
    );
    let elapsed_s = start.elapsed().as_secs_f64();
    let after = counters(&server.addr).unwrap_or_default();
    let peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    let clean_exit = server.shutdown();
    let traced = (0..requests).map(|i| trace_id(ctx, i).is_some()).collect();
    let m = Measured { samples, traced, elapsed_s, before, after, peak_rss_mb };
    report(&mut result, setup_s, &m);
    result.check(clean_exit, || "the server did not drain and exit 0".into());

    // Every point is new to the server: nothing may come from a memo, and
    // the ledger must show one simulation per point.
    let rows: Vec<(u64, f64, bool)> =
        m.samples.iter().filter_map(|s| s.out.as_ref().ok()).flat_map(|r| r.rows.clone()).collect();
    let memo_hits = rows.iter().filter(|r| r.2).count();
    result.check(memo_hits == 0, || format!("{memo_hits} fresh points came from a memo"));
    let simulated = after.hf_evaluations - before.hf_evaluations;
    result.check(simulated == rows.len() as f64, || {
        format!("{} fresh points but {simulated} HF simulations", rows.len())
    });
    let sample: Vec<(u64, f64, bool)> = rows.iter().step_by(CHECK_EVERY).copied().collect();
    let sample_codes: Vec<u64> = sample.iter().map(|r| r.0).collect();
    for (&(code, cpi, _), want) in sample.iter().zip(reference_cpis(&space, &sample_codes)) {
        result.check(cpi.to_bits() == want.to_bits(), || {
            format!("design {code}: served CPI {cpi}, in-process simulator {want}")
        });
    }
    let prefix = &m.samples[..DIGEST_REQUESTS];
    let digest_rows: Vec<(u64, f64)> = prefix
        .iter()
        .filter_map(|s| s.out.as_ref().ok())
        .flat_map(|r| r.rows.iter().map(|&(c, cpi, _)| (c, cpi)))
        .collect();
    result.digest(ctx.seed, cpi_digest(&digest_rows, &[]));
    result.info("requests", Value::U64(requests as u64));
    result.info("offered_rps", Value::F64(FRESH_RPS));
    result
}

/// Runs `serve-hot`.
pub fn run_hot(ctx: &Ctx) -> WorkloadResult {
    let mut result = WorkloadResult::new("serve-hot");
    let space = DesignSpace::boom();
    let hot = distinct_codes(ctx.seed ^ 0x4077_5E70, HOT_SET, space.size());

    // Set-up: boot, then warm the whole hot set with one request.
    let (setup_s, warmed) = timed_setup(|| {
        let server = ServerProc::boot()?;
        let warm = evaluate(&mut None, &server.addr, &hot, None)?;
        Ok::<_, String>((server, warm))
    });
    let (server, warm) = match warmed {
        Ok(warmed) => warmed,
        Err(e) => return boot_failure(result, e),
    };
    let before = match counters(&server.addr) {
        Ok(c) => c,
        Err(e) => return boot_failure(result, e),
    };
    let window = ctx.window();
    let workers = workers();
    // At least one traced and one untraced request in a traced run.
    let samples = closed_loop(
        workers,
        &window,
        2,
        |w| (None::<Conn>, StdRng::seed_from_u64(ctx.seed ^ ((w as u64 + 1) * 0x9E37_79B9))),
        |(conn, rng), i| {
            let mut picks: Vec<u64> = Vec::with_capacity(POINTS_PER_REQUEST);
            while picks.len() < POINTS_PER_REQUEST {
                let code = hot[rng.gen_range(0..hot.len())];
                if !picks.contains(&code) {
                    picks.push(code);
                }
            }
            let id = trace_id(ctx, i);
            (id.is_some(), evaluate(conn, &server.addr, &picks, id.as_deref()))
        },
    );
    let elapsed_s = window.start.elapsed().as_secs_f64();
    let after = counters(&server.addr).unwrap_or_default();
    let peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    let clean_exit = server.shutdown();
    let traced = samples.iter().map(|s| s.out.0).collect();
    let samples = samples
        .into_iter()
        .map(|s| Timed {
            due_to_done: s.due_to_done,
            due_to_sent: s.due_to_sent,
            sent_to_done: s.sent_to_done,
            out: s.out.1,
        })
        .collect();
    let m = Measured { samples, traced, elapsed_s, before, after, peak_rss_mb };
    report(&mut result, setup_s, &m);
    result.check(clean_exit, || "the server did not drain and exit 0".into());

    // Every answer is a memo read of a CPI the simulator produced.
    let reference: HashMap<u64, f64> =
        hot.iter().copied().zip(reference_cpis(&space, &hot)).collect();
    for &(code, cpi, _) in &warm.rows {
        result.check(reference[&code].to_bits() == cpi.to_bits(), || {
            format!("design {code}: warm-up CPI {cpi}, in-process simulator {}", reference[&code])
        });
    }
    let mut wrong = 0usize;
    let mut uncached = 0usize;
    for reply in m.samples.iter().filter_map(|s| s.out.as_ref().ok()) {
        for &(code, cpi, cached) in &reply.rows {
            wrong += usize::from(reference[&code].to_bits() != cpi.to_bits());
            uncached += usize::from(!cached);
        }
    }
    result.check(wrong == 0, || format!("{wrong} hot answers differ from the simulator"));
    result.check(uncached == 0, || format!("{uncached} hot answers were not memo reads"));
    let simulated = after.hf_evaluations - before.hf_evaluations;
    result.check(simulated == 0.0, || format!("{simulated} HF simulations on the hot set"));
    let rows: Vec<(u64, f64)> = warm.rows.iter().map(|&(c, cpi, _)| (c, cpi)).collect();
    result.digest(ctx.seed, cpi_digest(&rows, &[]));
    result.info("connections", Value::U64(workers as u64));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that stalls on request 0 delays everything queued behind
    /// it, and the open loop charges that wait to each of them: latency
    /// runs from the due time, not from when the stalled generator
    /// finally sent.
    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let stall = Duration::from_millis(120);
        let interval = Duration::from_millis(10);
        let samples = open_loop(
            6,
            interval,
            1,
            || (),
            |_, i| {
                if i == 0 {
                    std::thread::sleep(stall);
                }
            },
        );
        assert!(samples[0].due_to_done >= stall);
        for (i, s) in samples.iter().enumerate().skip(1) {
            // Request i fell due i intervals in but could not be sent
            // before the stall ended.
            let waited = stall - interval * i as u32;
            assert!(s.due_to_sent >= waited, "request {i}: lag {:?}", s.due_to_sent);
            assert!(s.due_to_done >= waited, "request {i}: latency {:?}", s.due_to_done);
            assert!(s.sent_to_done < Duration::from_millis(20), "request {i} itself was quick");
        }
    }

    #[test]
    fn open_loop_keeps_to_the_schedule_when_the_server_keeps_up() {
        let samples = open_loop(5, Duration::from_millis(5), 2, || (), |_, _| ());
        assert_eq!(samples.len(), 5);
        assert!(samples.iter().all(|s| s.due_to_done < Duration::from_millis(20)));
    }
}
