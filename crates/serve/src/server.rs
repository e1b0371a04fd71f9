//! The service itself: shared state, request routing, background
//! exploration jobs, and graceful shutdown that drains all accepted work.
//!
//! Since the readiness-loop rewrite the thread layout is: one reactor
//! thread owning every socket (see [`crate::reactor`]), a small app-handler
//! pool for blocking endpoint work, the coalescer thread batching
//! `/v1/evaluate`, and detached exploration job threads. The `Shared`
//! struct here is the hub all of them hang off.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use archdse::eval::{AnalyticalLf, DesignConstraints, IngestedWorkload, SimulatorHf};
use archdse::{Explorer, Fnn};
use dse_exec::{CostLedger, Fidelity, LedgerEntry};
use dse_fnn::{explain_decision, explain_top_action};
use dse_mfrl::{Constraint as _, LowFidelity as _};
use dse_obs::{Counter, Snapshot, LATENCY_BUCKETS_S, SIZE_BUCKETS};
use dse_space::{DesignPoint, DesignSpace};
use dse_workloads::Benchmark;

use crate::batcher::{run_coalescer, BatcherConfig, EvalCore, EvalJob, IngestedCore, ReplyFn};
use crate::front::{job_id, json_reply, wants_prometheus, Answer, Endpoint, Front, Limits, Reply};
use crate::http::{BadRequest, Request, CT_JSON, CT_PROMETHEUS};
use crate::protocol::{
    error_body, scrape_series, EvaluateRequest, EvaluateResponse, EvaluatedPoint, ExplainRequest,
    ExplainResponse, ExploreRequest, JobResult, JobStatus, MetricsResponse, WorkloadUploadRequest,
    WorkloadUploadResponse, COALESCER_BATCH_POINTS, COALESCER_QUEUE_WAIT, MAX_POINTS_PER_REQUEST,
};
use crate::reactor::{
    app_worker_loop, AppJob, Completion, CompletionQueue, Dispatch, Outcome, Reactor,
};

/// Most ingested workloads one server instance will register; further
/// uploads are rejected so a misbehaving client cannot grow the core
/// without bound.
const MAX_WORKLOADS: usize = 32;

/// Instruction budget for server-side ingestion. Uploads are ingested
/// on an app-pool worker, so the budget is deliberately tighter than
/// the offline CLI default.
const MAX_INGEST_INSTRS: u64 = 2_000_000;

/// Full configuration of one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// App-handler pool size (blocking endpoint work).
    pub workers: usize,
    /// Micro-batcher policy (window, batch size, queue depth).
    pub batcher: BatcherConfig,
    /// Socket deadlines and the body size cap.
    pub limits: Limits,
    /// The workload/space/trace template the shared evaluators and the
    /// explanation network are built from.
    pub explorer: Explorer,
    /// A trained network for `/v1/explain`; the explorer's untrained
    /// network is used when absent.
    pub fnn: Option<Fnn>,
}

impl ServeConfig {
    /// Defaults around an explorer template: ephemeral localhost port,
    /// 4 app workers and the default [`Limits`].
    pub fn new(explorer: Explorer) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            batcher: BatcherConfig::default(),
            limits: Limits::default(),
            explorer,
            fnn: None,
        }
    }
}

enum JobState {
    Running,
    Done(Box<JobResult>),
    Failed(String),
}

impl JobState {
    /// The `GET /v1/jobs/<id>` view of this state.
    fn status(&self, job: u64) -> JobStatus {
        let (state, result, error) = match self {
            JobState::Running => ("running", None, None),
            JobState::Done(result) => ("done", Some((**result).clone()), None),
            JobState::Failed(msg) => ("failed", None, Some(msg.clone())),
        };
        JobStatus { job, state: state.into(), result, error }
    }
}

#[derive(Default)]
struct JobTable {
    next: AtomicU64,
    states: Mutex<HashMap<u64, JobState>>,
}

/// Cross-thread server state.
pub(crate) struct Shared {
    pub(crate) front: Front,
    benchmarks: Vec<Benchmark>,
    space: DesignSpace,
    space_size: u64,
    fnn: Fnn,
    lf_explain: AnalyticalLf,
    constraints: DesignConstraints,
    core: Arc<Mutex<EvalCore>>,
    /// Ingested workloads successfully registered over this server's
    /// lifetime (`workloads_registered`).
    workloads_registered: Counter,
    eval_tx: Mutex<Option<std::sync::mpsc::SyncSender<EvalJob>>>,
    /// Registered workload names, mirrored out of the core so the
    /// reactor thread can resolve them without touching the core lock
    /// (the coalescer holds that lock for whole simulation batches).
    workload_names: Mutex<Vec<String>>,
    jobs: Arc<JobTable>,
    job_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Serves `endpoint` on the reactor thread when it can be done
    /// without blocking; `None` hands the request to the app pool.
    /// `/v1/evaluate` goes straight to the coalescer and `/v1/shutdown`
    /// only flips a flag, so neither waits for the app pool. Work queued
    /// here starts its `queue` phase at `dispatched_at`.
    pub(crate) fn inline(
        &self,
        endpoint: Endpoint,
        request: &Request,
        token: u64,
        generation: u64,
        dispatched_at: Instant,
        completions: &Arc<CompletionQueue>,
    ) -> Option<Dispatch> {
        match endpoint {
            Endpoint::Evaluate => Some(
                self.dispatch_evaluate(request, token, generation, dispatched_at, completions)
                    .unwrap_or_else(|bad| Dispatch::Immediate(json_reply(Err(bad)))),
            ),
            Endpoint::Shutdown => {
                Some(Dispatch::Immediate(json_reply(Ok(self.front.acknowledge_shutdown()))))
            }
            _ => None,
        }
    }

    /// Renders the `/v1/evaluate` response once the coalescer's ledger
    /// entries come back. Runs on the reactor thread; pure computation.
    pub(crate) fn render_evaluate(
        &self,
        codes: &[u64],
        fidelity: Fidelity,
        entries: Vec<LedgerEntry>,
    ) -> Reply {
        let mut results = Vec::with_capacity(entries.len());
        for (&code, entry) in codes.iter().zip(&entries) {
            let point = self.space.decode(code);
            let (cpi, cached) = match entry {
                LedgerEntry::Charged(ev) => (ev.cpi, ev.cached),
                LedgerEntry::Replayed(cpi) => (*cpi, true),
                // The service ledger installs no budget, so denial can only
                // mean a configuration bug; fail loudly rather than fake a
                // number.
                LedgerEntry::Denied => {
                    return (500, error_body("evaluation was denied by the server ledger"), CT_JSON)
                }
            };
            results.push(EvaluatedPoint {
                point: code,
                cpi,
                fidelity: fidelity.label().to_string(),
                cached,
                area_mm2: self.constraints.area().area_mm2(&self.space, &point),
                leakage_mw: self.constraints.leakage_mw(&self.space, &point),
                feasible: self.constraints.fits(&self.space, &point),
            });
        }
        json_reply(Ok(json(&EvaluateResponse { results })))
    }

    /// Blocking handling of `endpoint` on an app-pool worker.
    pub(crate) fn route(&self, endpoint: Endpoint, request: &Request) -> Reply {
        let answer = match endpoint {
            Endpoint::Metrics => {
                return handle_metrics(self, request).unwrap_or_else(|bad| json_reply(Err(bad)))
            }
            Endpoint::Healthz => Ok(handle_healthz(self)),
            Endpoint::Debug => Ok((200, self.front.flight.to_json())),
            Endpoint::Explain => handle_explain(self, request),
            Endpoint::Explore => handle_explore(self, request),
            Endpoint::Workloads => handle_workloads(self, request),
            Endpoint::Jobs => handle_job(self, request),
            // Served inline; reaching the pool is a routing bug, not a
            // client error.
            Endpoint::Evaluate | Endpoint::Shutdown => {
                Err(BadRequest::new(500, "this endpoint is served on the reactor"))
            }
        };
        json_reply(answer)
    }

    /// Reactor-thread half of `/v1/evaluate`: parse, resolve, enqueue on
    /// the coalescer. Never blocks and never takes the core lock.
    fn dispatch_evaluate(
        &self,
        request: &Request,
        token: u64,
        generation: u64,
        dispatched_at: Instant,
        completions: &Arc<CompletionQueue>,
    ) -> Result<Dispatch, BadRequest> {
        let body = request.body_utf8()?;
        let parsed = EvaluateRequest::parse(body, self.space_size, MAX_POINTS_PER_REQUEST)?;
        let workload = match &parsed.workload {
            None => None,
            Some(name) => {
                let names = self.workload_names.lock().expect("workload names poisoned");
                let index = names.iter().position(|w| w == name);
                Some(index.ok_or_else(|| unknown_workload(name, &names))?)
            }
        };
        let points: Vec<DesignPoint> =
            parsed.points.iter().map(|&code| self.space.decode(code)).collect();

        let completions = Arc::clone(completions);
        let codes = parsed.points;
        let fidelity = parsed.fidelity;
        let reply: ReplyFn = Box::new(move |entries, timing| {
            completions.push(Completion {
                token,
                generation,
                timing,
                posted_at: Instant::now(),
                outcome: Outcome::Evaluated { codes, fidelity, entries },
            });
        });
        let job = EvalJob {
            fidelity,
            workload,
            points,
            enqueued_at: dispatched_at,
            trace: request.trace.clone(),
            reply,
        };
        let sender = self.eval_tx.lock().expect("eval_tx poisoned").clone();
        let shutting_down = || BadRequest::new(503, "server is shutting down");
        match sender.ok_or_else(shutting_down)?.try_send(job) {
            Ok(()) => Ok(Dispatch::Queued),
            Err(TrySendError::Full(_)) => {
                self.front.metrics.rejected.inc();
                Err(BadRequest::new(503, "evaluation queue full, retry later"))
            }
            Err(TrySendError::Disconnected(_)) => Err(shutting_down()),
        }
    }
}

/// A running server: its bound address plus shutdown/join control.
pub struct ServerHandle {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address it is listening on (with the real port even when the
    /// config asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.front.addr
    }

    /// Requests a graceful shutdown: stop accepting, finish in-flight
    /// connections, then drain queued evaluations and exploration jobs.
    pub fn shutdown(&self) {
        self.shared.front.initiate_shutdown();
    }

    /// Blocks until the server has fully drained and exited.
    ///
    /// # Panics
    ///
    /// Panics if the supervisor thread itself panicked.
    pub fn join(mut self) {
        if let Some(handle) = self.supervisor.take() {
            handle.join().expect("supervisor panicked");
        }
    }
}

/// Binds the listener and spawns the whole service: the reactor thread,
/// `workers` app-pool threads fed by a queue of `queue_capacity` jobs,
/// the coalescer, and a supervisor that, once the reactor has drained
/// every connection, joins the pool, lets the coalescer drain, and joins
/// the exploration jobs. Returns immediately with the running handle.
///
/// # Errors
///
/// Fails when the address cannot be bound or inspected.
pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let (front, listener, wake_rx) = Front::bind(&config.addr, config.limits)?;

    let explorer = &config.explorer;
    let space = explorer.space().clone();
    let lf_model = explorer.lf_model();
    let core = Arc::new(Mutex::new(EvalCore {
        space: space.clone(),
        hf: explorer.hf_evaluator(),
        lf: lf_model.clone(),
        ledger: CostLedger::new(),
        ingested: Vec::new(),
    }));
    // The coalescer thread owns the evaluation queue's receiving end.
    let (eval_tx, eval_rx) = sync_channel::<EvalJob>(config.batcher.queue_capacity);
    let registry = &front.metrics.registry;
    let coalescer = {
        let core = Arc::clone(&core);
        let batcher = config.batcher;
        let batch_points = registry.histogram(COALESCER_BATCH_POINTS, SIZE_BUCKETS);
        let queue_wait = registry.histogram(COALESCER_QUEUE_WAIT, LATENCY_BUCKETS_S);
        std::thread::spawn(move || run_coalescer(eval_rx, core, batcher, batch_points, queue_wait))
    };
    let workloads_registered = registry.counter("workloads_registered");

    let shared = Arc::new(Shared {
        front,
        benchmarks: explorer.benchmarks().to_vec(),
        space_size: space.size(),
        space,
        fnn: config.fnn.clone().unwrap_or_else(|| explorer.build_fnn()),
        lf_explain: lf_model,
        constraints: explorer.constraints(),
        core,
        workloads_registered,
        eval_tx: Mutex::new(Some(eval_tx)),
        workload_names: Mutex::new(Vec::new()),
        jobs: Arc::default(),
        job_handles: Mutex::new(Vec::new()),
    });
    let completions = Arc::new(CompletionQueue::new(shared.front.waker.clone()));
    let (app_tx, app_rx) = sync_channel::<AppJob>(config.batcher.queue_capacity);
    let app_rx = Arc::new(Mutex::new(app_rx));
    let app_workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let app_rx = Arc::clone(&app_rx);
            let completions = Arc::clone(&completions);
            std::thread::spawn(move || app_worker_loop(shared, app_rx, completions))
        })
        .collect();
    let reactor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || Reactor::run(shared, listener, wake_rx, completions, app_tx))
    };
    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let _ = reactor.join();
            // The reactor owned the only app sender; its exit closes the
            // app queue and the workers drain out.
            for worker in app_workers {
                let _ = worker.join();
            }
            // Dropping the primary eval sender lets the coalescer drain
            // the queue and exit, then the exploration jobs are joined.
            *shared.eval_tx.lock().expect("eval_tx poisoned") = None;
            let _ = coalescer.join();
            let handles = std::mem::take(&mut *shared.job_handles.lock().expect("jobs poisoned"));
            for handle in handles {
                let _ = handle.join();
            }
        })
    };
    Ok(ServerHandle { shared, supervisor: Some(supervisor) })
}

/// JSON-serializes a response payload (an internal failure here is a
/// plain 500, not a panic).
fn json<T: serde::Serialize>(value: &T) -> (u16, String) {
    match serde_json::to_string(value) {
        Ok(body) => (200, body),
        Err(e) => (500, error_body(&format!("response serialization failed: {e}"))),
    }
}

/// The 400 for a workload id that is not registered, naming every id
/// that is (mirroring the unknown-fidelity error style).
fn unknown_workload(name: &str, registered: &[String]) -> BadRequest {
    if registered.is_empty() {
        return BadRequest::new(
            400,
            format!(
                "unknown workload {name:?} (no workloads registered — upload one via \
                 POST /v1/workloads)"
            ),
        );
    }
    let registered: Vec<String> = registered.iter().map(|w| format!("{w:?}")).collect();
    BadRequest::new(400, format!("unknown workload {name:?} (expected {})", registered.join(", ")))
}

fn handle_healthz(shared: &Shared) -> (u16, String) {
    #[derive(serde::Serialize)]
    struct Health {
        status: &'static str,
        service: &'static str,
        benchmarks: Vec<String>,
        workloads: Vec<String>,
        space_size: u64,
    }
    let workloads = shared.workload_names.lock().expect("workload names poisoned").clone();
    json(&Health {
        status: "ok",
        service: "archdse-serve",
        benchmarks: shared.benchmarks.iter().map(|b| b.name().to_string()).collect(),
        workloads,
        space_size: shared.space_size,
    })
}

/// One snapshot behind both `/metrics` forms: the per-server registry,
/// the series made now from the ledger, HF memo and job table, then the
/// process-global registry (sim kernel, executor, MFRL series). On a
/// collision the earlier source wins.
fn metrics_snapshot(shared: &Shared) -> Snapshot {
    let (ledger, hf_cache) = {
        let core = shared.core.lock().expect("evaluation core poisoned");
        (core.ledger.summary(), core.hf.cache_stats())
    };
    let mut job_states = [0u64; 3];
    for state in shared.jobs.states.lock().expect("job table poisoned").values() {
        match state {
            JobState::Running => job_states[0] += 1,
            JobState::Done(_) => job_states[1] += 1,
            JobState::Failed(_) => job_states[2] += 1,
        }
    }
    shared
        .front
        .metrics
        .registry
        .snapshot()
        .merged(scrape_series(&ledger, hf_cache, job_states))
        .merged(dse_obs::global().snapshot())
}

fn handle_metrics(shared: &Shared, request: &Request) -> Result<Reply, BadRequest> {
    let prometheus = wants_prometheus(request)?;
    let snapshot = metrics_snapshot(shared);
    if prometheus {
        return Ok((200, snapshot.to_prometheus_text(), CT_PROMETHEUS));
    }
    Ok(json_reply(Ok(json(&MetricsResponse::from_snapshot(&snapshot)))))
}

fn handle_explain(shared: &Shared, request: &Request) -> Answer {
    let parsed = ExplainRequest::parse(request.body_utf8()?, shared.space_size)?;
    let space = &shared.space;
    let point = space.decode(parsed.point);
    // Explanations read the LF proxy directly: they are introspection,
    // not proposals, so they are deliberately not ledger-accounted.
    let cpi = parsed.cpi.unwrap_or_else(|| shared.lf_explain.cpi(space, &point));
    let obs = shared.fnn.observation(space, &point, cpi);
    let explanation = match parsed.output {
        None => explain_top_action(&shared.fnn, &obs, parsed.k),
        Some(name) => {
            let names = shared.fnn.output_names();
            let output =
                names.iter().position(|n| n.eq_ignore_ascii_case(&name)).ok_or_else(|| {
                    let valid = names.join(", ");
                    BadRequest::new(400, format!("unknown output {name:?}; valid outputs: {valid}"))
                })?;
            explain_decision(&shared.fnn, &obs, output, parsed.k)
        }
    };
    Ok(json(&ExplainResponse {
        point: parsed.point,
        design: point.describe(space),
        cpi,
        explanation,
    }))
}

fn handle_workloads(shared: &Shared, request: &Request) -> Answer {
    let parsed = WorkloadUploadRequest::parse(request.body_utf8()?)?;
    let refuse = |reason: String| BadRequest::new(400, reason);
    // Anything `/v1/explore`'s benchmark resolver would accept (names
    // and aliases alike) is off-limits as a workload id.
    if parsed.name.parse::<Benchmark>().is_ok() {
        let name = &parsed.name;
        return Err(refuse(format!("workload name {name:?} collides with a built-in benchmark")));
    }
    let elf = dse_ingest::base64::decode(&parsed.elf_base64)
        .map_err(|e| refuse(format!("`elf_base64` is not valid base64: {e}")))?;
    // Ingestion (parse + functional execution + characterization) runs
    // on this app worker, outside the core lock — a slow binary delays
    // its uploader, not the evaluate path.
    let config = dse_ingest::ExecConfig { max_instrs: MAX_INGEST_INSTRS };
    let ingested = dse_ingest::ingest_elf(&parsed.name, &elf, config)
        .map_err(|e| refuse(format!("ingestion failed: {e}")))?;
    let instructions = ingested.trace.len() as u64;
    let exit_code = ingested.exit_code;

    let mut core = shared.core.lock().expect("evaluation core poisoned");
    if core.ingested.iter().any(|w| w.name == parsed.name) {
        return Err(refuse(format!("workload {:?} is already registered", parsed.name)));
    }
    if core.ingested.len() >= MAX_WORKLOADS {
        return Err(refuse(format!(
            "workload registry is full ({MAX_WORKLOADS} workloads); restart the server to \
             register more"
        )));
    }
    let hf = SimulatorHf::for_traces(vec![ingested.trace.clone()]);
    let lf = AnalyticalLf::for_profiles(&core.space, std::slice::from_ref(&ingested.profile));
    core.ingested.push(IngestedCore {
        name: parsed.name.clone(),
        profile: ingested.profile,
        trace: Arc::new(ingested.trace),
        hf,
        lf,
        ledger: CostLedger::new(),
    });
    let registered: Vec<String> = core.ingested.iter().map(|w| w.name.clone()).collect();
    drop(core);
    // Mirror the registry for the reactor thread (see `workload_names`).
    *shared.workload_names.lock().expect("workload names poisoned") = registered.clone();
    shared.workloads_registered.inc();
    Ok(json(&WorkloadUploadResponse { workload: parsed.name, instructions, exit_code, registered }))
}

fn handle_explore(shared: &Shared, request: &Request) -> Answer {
    if shared.front.is_shutting_down() {
        return Err(BadRequest::new(503, "server is shutting down"));
    }
    let parsed = ExploreRequest::parse(request.body_utf8()?)?;
    let explorer = if let Some(name) = &parsed.workload {
        let core = shared.core.lock().expect("evaluation core poisoned");
        match core.ingested.iter().find(|w| &w.name == name) {
            Some(w) => Explorer::for_workload(IngestedWorkload {
                name: w.name.clone(),
                profile: w.profile.clone(),
                trace: Arc::clone(&w.trace),
            }),
            None => {
                let names: Vec<String> = core.ingested.iter().map(|w| w.name.clone()).collect();
                return Err(unknown_workload(name, &names));
            }
        }
    } else {
        match &parsed.benchmark {
            None => Explorer::general_purpose(),
            Some(name) => Explorer::for_benchmark(
                name.parse::<Benchmark>().map_err(|e| BadRequest::new(400, e.to_string()))?,
            ),
        }
    }
    .area_limit_mm2(parsed.area_mm2)
    .seed(parsed.seed)
    .lf_episodes(parsed.lf_episodes)
    .hf_budget(parsed.hf_budget)
    .trace_len(parsed.trace_len);
    explorer.check_area().map_err(|e| BadRequest::new(400, e.to_string()))?;

    let id = shared.jobs.next.fetch_add(1, Ordering::Relaxed) + 1;
    shared.jobs.states.lock().expect("job table poisoned").insert(id, JobState::Running);
    let jobs = Arc::clone(&shared.jobs);
    let handle = std::thread::spawn(move || {
        // Jobs run their own explorer (and evaluator): a long search
        // must not hold the shared evaluate stack's lock.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let report = explorer.run();
            let space = explorer.space();
            JobResult {
                best_point: space.encode(&report.best_point),
                best_design: report.best_point.describe(space),
                best_cpi: report.best_cpi,
                hf_evaluations: report.hf.evaluations as u64,
                rules: report.rules.iter().map(|r| r.to_string()).collect(),
                ledger: report.ledger.summary(),
            }
        }));
        let state = match outcome {
            Ok(result) => JobState::Done(Box::new(result)),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "exploration panicked".into());
                JobState::Failed(msg)
            }
        };
        jobs.states.lock().expect("job table poisoned").insert(id, state);
    });
    shared.job_handles.lock().expect("jobs poisoned").push(handle);
    Ok(json(&JobState::Running.status(id)))
}

fn handle_job(shared: &Shared, request: &Request) -> Answer {
    let id = job_id(request)?;
    match shared.jobs.states.lock().expect("job table poisoned").get(&id) {
        None => Err(BadRequest::new(404, format!("no job {id}"))),
        Some(state) => Ok(json(&state.status(id))),
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::time::Duration;

    use dse_obs::Histogram;

    use super::*;
    use crate::http::client;
    use crate::protocol::REQUESTS;

    /// A quick server whose evaluation and app queues hold one job each,
    /// and whose coalescer submits every request on its own.
    fn one_slot_server(workers: usize) -> ServerHandle {
        let mut config =
            ServeConfig::new(Explorer::for_benchmark(Benchmark::StringSearch).trace_len(1_000));
        config.workers = workers;
        config.batcher =
            BatcherConfig { max_batch_points: 1, max_delay: Duration::ZERO, queue_capacity: 1 };
        spawn(config).expect("server binds")
    }

    /// Writes one request on a fresh connection and returns the
    /// connection, to read its answer later.
    fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(format!("{head}{body}").as_bytes()).expect("send");
        stream
    }

    /// Reads a whole answer: its status and body.
    fn answer(mut stream: TcpStream) -> (u16, String) {
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("receive");
        let status = raw["HTTP/1.1 ".len()..][..3].parse().expect("status code");
        let body = raw.split_once("\r\n\r\n").map_or("", |(_, body)| body).to_string();
        (status, body)
    }

    /// Waits until the server's own state satisfies `done`. The wait is
    /// on the server's counters, never on elapsed time; the deadline only
    /// turns a hang into a failure.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    /// Sends one request on each of `streams` fresh connections, waits
    /// until the server has refused one with a 503, then releases
    /// `held` and checks that the others were served and the refusal
    /// named `reason` and counted once in `serve_rejected_total`.
    fn expect_one_refusal(
        server: &ServerHandle,
        held: std::sync::MutexGuard<'_, EvalCore>,
        streams: Vec<TcpStream>,
        reason: &str,
    ) {
        let rejected = &server.shared.front.metrics.rejected;
        wait_until("a request was refused", || rejected.get() == 1);
        drop(held);
        let mut answers: Vec<(u16, String)> = streams.into_iter().map(answer).collect();
        answers.sort();
        let refused = answers.pop().expect("answers");
        assert_eq!(refused.0, 503, "{answers:?} {refused:?}");
        assert!(refused.1.contains(reason), "{}", refused.1);
        assert!(answers.iter().all(|(status, _)| *status == 200), "{answers:?}");
        let metrics =
            client::get(&server.addr().to_string(), "/metrics?format=prometheus").expect("metrics");
        assert!(metrics.body.lines().any(|l| l == "serve_rejected_total 1"), "{}", metrics.body);
    }

    #[test]
    fn a_full_evaluation_queue_answers_503() {
        let server = one_slot_server(4);
        let addr = server.addr();
        let registry = &server.shared.front.metrics.registry;
        let queue_wait: Histogram = registry.histogram(COALESCER_QUEUE_WAIT, LATENCY_BUCKETS_S);
        // With the core held, the coalescer stops inside its first window.
        let held = server.shared.core.lock().expect("core");
        let body = r#"{"points": [7], "fidelity": "lf"}"#;
        let first = send(addr, "POST", "/v1/evaluate", body);
        wait_until("the coalescer took the first request", || queue_wait.count() == 1);
        // One of the next two fills the one-slot queue; the other is refused.
        let mut streams = vec![first];
        streams.extend((0..2).map(|_| send(addr, "POST", "/v1/evaluate", body)));
        expect_one_refusal(&server, held, streams, "evaluation queue full, retry later");
        server.shutdown();
        server.join();
    }

    #[test]
    fn a_full_request_queue_answers_503() {
        let server = one_slot_server(1);
        let addr = server.addr();
        let scrapes =
            server.shared.front.metrics.registry.counter_with(REQUESTS, &[("endpoint", "metrics")]);
        // `/metrics` reads the core: with it held, the one app worker
        // blocks on the first scrape.
        let held = server.shared.core.lock().expect("core");
        let first = send(addr, "GET", "/metrics", "");
        wait_until("the app worker took the first scrape", || scrapes.get() == 1);
        // One of the next two fills the one-slot queue; the other is refused.
        let mut streams = vec![first];
        streams.extend((0..2).map(|_| send(addr, "GET", "/metrics", "")));
        expect_one_refusal(&server, held, streams, "request queue full, retry later");
        server.shutdown();
        server.join();
    }
}
