//! The service itself: shared state, request routing, background
//! exploration jobs, and graceful shutdown that drains all accepted work.
//!
//! Since the readiness-loop rewrite the thread layout is: one reactor
//! thread owning every socket (see [`crate::reactor`]), a small app-handler
//! pool for blocking endpoint work, the coalescer thread batching
//! `/v1/evaluate`, and detached exploration job threads. The `Shared`
//! struct here is the hub all of them hang off.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use archdse::eval::{AnalyticalLf, DesignConstraints, IngestedWorkload, SimulatorHf};
use archdse::{Explorer, Fnn};
use dse_exec::{CostLedger, Fidelity, LearnedTier, LedgerEntry, TierGate};
use dse_fnn::{explain_decision, explain_top_action};
use dse_mfrl::{Constraint as _, LowFidelity as _};
use dse_obs::{Counter, Snapshot, LATENCY_BUCKETS_S, SIZE_BUCKETS};
use dse_space::{DesignPoint, DesignSpace};
use dse_workloads::Benchmark;

use crate::batcher::{run_coalescer, BatcherConfig, EvalCore, EvalJob, IngestedCore, ReplyFn};
use crate::front::{
    job_id, json_reply, start, wants_prometheus, Answer, Endpoint, Front, Limits, Reply,
    ServerHandle,
};
use crate::http::{BadRequest, Request, CT_JSON, CT_PROMETHEUS};
use crate::protocol::{
    error_body, scrape_series, EvaluateRequest, EvaluateResponse, EvaluatedPoint, ExplainRequest,
    ExplainResponse, ExploreRequest, JobResult, JobStatus, MetricsResponse, WorkloadUploadRequest,
    WorkloadUploadResponse, COALESCER_BATCH_POINTS, COALESCER_QUEUE_WAIT, MAX_POINTS_PER_REQUEST,
};
use crate::reactor::{Completion, CompletionQueue, Dispatch, Engine, Outcome};

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
    front: Front,
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

impl Engine for Shared {
    fn front(&self) -> &Front {
        &self.front
    }

    /// `/v1/evaluate` goes straight to the coalescer and `/v1/shutdown`
    /// only flips a flag, so neither waits for the app pool.
    fn inline(
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
    fn render_evaluate(&self, codes: &[u64], entries: Vec<(LedgerEntry, Fidelity)>) -> Reply {
        let mut results = Vec::with_capacity(entries.len());
        for (&code, (entry, answered_by)) in codes.iter().zip(&entries) {
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
                fidelity: answered_by.label().to_string(),
                cached,
                area_mm2: self.constraints.area().area_mm2(&self.space, &point),
                leakage_mw: self.constraints.leakage_mw(&self.space, &point),
                feasible: self.constraints.fits(&self.space, &point),
            });
        }
        json_reply(Ok(json(&EvaluateResponse { results })))
    }

    fn route(&self, endpoint: Endpoint, request: &Request) -> Reply {
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
}

impl Shared {
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
        let reply: ReplyFn = Box::new(move |entries, timing| {
            completions.push(Completion {
                token,
                generation,
                timing,
                posted_at: Instant::now(),
                outcome: Outcome::Evaluated { codes, entries },
            });
        });
        let job = EvalJob {
            tier: parsed.fidelity,
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

/// Binds the listener and spawns the whole service (reactor, app pool,
/// coalescer). Returns immediately with the running handle.
///
/// # Errors
///
/// Fails when the address cannot be bound or inspected.
pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let (front, listener, wake_rx) = Front::bind(&config.addr, "server", config.limits)?;

    let explorer = &config.explorer;
    let space = explorer.space().clone();
    let lf_model = explorer.lf_model();
    let core = Arc::new(Mutex::new(EvalCore {
        space: space.clone(),
        hf: explorer.hf_evaluator(),
        lf: lf_model.clone(),
        learned: LearnedTier::new(LearnedTier::point_features()),
        gate: TierGate::enabled(0.05),
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
    // Once the reactor and the app pool are gone: dropping the primary
    // eval sender lets the coalescer drain the queue and exit, then the
    // exploration jobs are joined.
    let teardown = {
        let shared = Arc::clone(&shared);
        move || {
            *shared.eval_tx.lock().expect("eval_tx poisoned") = None;
            let _ = coalescer.join();
            let handles = std::mem::take(&mut *shared.job_handles.lock().expect("jobs poisoned"));
            for handle in handles {
                let _ = handle.join();
            }
        }
    };
    Ok(start(shared, listener, wake_rx, config.workers, config.batcher.queue_capacity, teardown))
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
