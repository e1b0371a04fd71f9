//! Subcommand implementations.

use std::error::Error;

use serde::{Deserialize, Serialize};

use archdse::eval::SimulatorHf;
use archdse::experiments::{
    ablations, fig5, fig6, fig7, table2, AblationConfig, Fig5Config, Fig6Config, Fig7Config,
    Table2Config,
};
use archdse::{CostLedger, DesignSpace, Explorer, Fnn, LedgerSummary, Param};
use archdse_serve::{
    run_loadgen, spawn, spawn_router, LoadgenConfig, LoadgenReport, RouterConfig, ServeConfig,
};
use dse_fnn::explain_top_action;
use dse_mfrl::{Constraint as _, LowFidelity as _};
use dse_workloads::Benchmark;

use crate::Args;

/// Usage text printed by `archdse help` or on a bad invocation.
pub const USAGE: &str = "\
archdse — explainable FNN + multi-fidelity RL micro-architecture DSE

USAGE:
  archdse <COMMAND> [OPTIONS]

COMMANDS:
  space                      print the Table 1 design space
  explore                    run one DSE flow and print design + rules
      --benchmark <name>     dijkstra|mm|fp-vvadd|quicksort|fft|ss
      --general              optimize the six-benchmark average instead
      --area <mm2>           area limit (default 8.0)
      --leakage <mw>         optional static-power budget
      --seed <n>             master seed (default 0)
      --lf-episodes <n>      LF training episodes (default 300)
      --hf-budget <n>        HF simulations (default 9)
      --tiers <2|3>          fidelity tiers: 2 = LF+HF, 3 adds the
                             online-learned mid tier with gate routing
                             (default 2)
      --gate-threshold <e>   learned-tier confidence gate: answer when
                             the conformal error bound is below e
                             (default 0.05; 3-tier runs only)
      --trace-len <n>        trace length (default 30000)
      --threads <n>          HF worker threads (default: DSE_THREADS env
                             var, else all cores; results are identical)
      --save-fnn <file>      persist the trained network as JSON
      --trace-out <file>     write a JSONL span/event trace of the run
      --metrics-out <file>   dump the metrics registry as Prometheus text
  sweep                      simulate a spread of designs in one parallel
                             batch and tabulate their CPIs
      --benchmark <name>     workload (default mm)
      --general              sweep the six-benchmark average instead
      --count <n>            designs, evenly spaced over the space (default 24)
      --trace-len <n>        trace length (default 10000)
      --threads <n>          worker threads (default as for explore)
      --seed <n>             trace seed (default 0)
      --json <file>          also write { rows, ledger } as JSON
  explain                    walk a saved network greedily, explaining
                             each decision's top rules
      --fnn <file>           trained network from `explore --save-fnn`
      --benchmark <name>     workload for the CPI observations
      --area <mm2>           area limit (default 8.0)
      --steps <n>            decisions to explain (default 5)
  serve                      run the HTTP evaluation service (endpoints:
                             /healthz /metrics /v1/evaluate /v1/explain
                             /v1/explore /v1/jobs/<id> /v1/shutdown)
      --addr <host:port>     bind address (default 127.0.0.1:8711; port 0
                             picks an ephemeral port)
      --benchmark <name>     workload behind /v1/evaluate (default mm)
      --general              serve the six-benchmark average instead
      --area <mm2>           area limit for feasibility stamps (default 8.0)
      --trace-len <n>        HF trace length (default 10000)
      --seed <n>             trace seed (default 0)
      --threads <n>          HF worker threads inside a batch
      --workers <n>          connection workers (default 4)
      --max-batch <n>        coalescer points per batch (default 64)
      --max-delay-ms <n>     coalescer gather window (default 2)
      --queue-cap <n>        queue depth before 503 (default 128)
      --fnn <file>           serve a trained network for /v1/explain
      --shards <n>           fork n shard worker processes (each owning
                             a hash slice of the design space) behind a
                             front router bound to --addr (default 1:
                             a single server, no router)
      --router-workers <n>   router proxy handlers; size at the peak
                             concurrency to serve without pushback
                             (default 256; only with --shards > 1)
      --trace-out <file>     write a JSONL request trace; a sharded run
                             writes the router's records here plus one
                             <file>.shardN per worker process (merge
                             them with trace-report --requests)
      --trace-sample <n>     trace 1 in n requests, chosen by a
                             deterministic trace-id hash (default 1 =
                             every request; 0 = none)
  loadgen                    hammer /v1/evaluate with concurrent clients
                             and report how the coalescer batched them
      --addr <host:port>     target server (default: self-host a quick one)
      --clients <n>          concurrent clients (default 4)
      --requests <n>         requests per client (default 8)
      --concurrency <c>      closed-loop saturating mode: c clients each
                             keep one request in flight on a keep-alive
                             connection until --duration elapses,
                             retrying 503s with backoff
      --duration <s>         closed-loop run length in seconds (default
                             2 when --concurrency is set)
      --shards <n>           self-host n shard worker processes behind a
                             router and hammer the router
                             (conflicts with --addr)
      --trend                sweep {1, --shards} shard stacks across
                             {16, 256, 1024} clients closed-loop and
                             record every row in
                             results/BENCH_loadgen.json
      --points <n>           design points per request (default 4)
      --fidelity <name>      tier to request: lf|learned|hf, or auto to
                             let the uncertainty gate route (default lf)
      --seed <n>             point-choice seed (default 1)
      --trace-len <n>        self-hosted servers' trace length
                             (default 2000)
      --queue-cap <n>        self-hosted servers' eval queue depth
                             (default 128)
      --trace                send a client-generated X-ArchDSE-Trace id
                             with every request and report the client
                             RTT vs server-reported-time gap from the
                             Server-Timing response header
      --trace-out <file>     trace the self-hosted target (router
                             records here, one <file>.shardN per shard
                             worker); conflicts with --addr
      --metrics-out <file>   dump the target's (aggregated) Prometheus
                             exposition after the run
                             (a plain run prints its report and writes
                             no file; only --trend records an artifact)
  trace-report               summarize a JSONL trace from --trace-out:
                             per-phase wall time, per-fidelity budget
                             totals cross-checked against the ledger,
                             and the hottest spans
      --trace <file>         the trace to read (required); --requests
                             mode accepts a comma-separated list
      --top <n>              slowest spans to list (default 10)
      --requests             per-request timeline mode: merge request
                             records across router + shard trace files,
                             report per-phase p50/p95/p99 and verify
                             every proxied router span joins its shard
                             span(s) and phase sums fit the wall time
  check-metrics              validate a Prometheus text exposition
                             (from --metrics-out or /metrics)
      --file <path>          the exposition to check (required)
  ingest <elf>               run a statically linked RV64 ELF through the
                             functional executor and characterize it
      --name <s>             workload name (default: the ELF file stem)
      --max-instrs <n>       executor instruction budget
                             (default 50000000)
      --trace-out <file>     write the instruction stream as a compact
                             ADTF trace file
      --profile-out <file>   write the characterized workload profile
                             as JSON
  workload-diff <elf>        ingest an ELF and diff its profile against
                             a synthetic benchmark profile; the report
                             persists to results/workload_diff.json
      --benchmark <name>     synthetic baseline (default mm)
      --golden <file>        also compare against a golden profile JSON;
                             a mismatch exits 1
      --json <file>          also write the diff report to this path
  table2 | fig5 | fig6 | fig7 | ablations
                             regenerate a paper artifact
      --full                 paper-scale budgets (default: quick)
      --json <file>          also write the result as JSON
  help                       show this text
";

/// Every valid subcommand, for the unknown-command error message.
const COMMANDS: &[&str] = &[
    "space",
    "explore",
    "sweep",
    "explain",
    "serve",
    "loadgen",
    "trace-report",
    "check-metrics",
    "ingest",
    "workload-diff",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "ablations",
    "help",
];

/// The flags each subcommand accepts (misspellings are rejected, not
/// silently ignored).
fn allowed_flags(command: &str) -> &'static [&'static str] {
    match command {
        "space" | "help" => &[],
        "explore" => &[
            "benchmark",
            "general",
            "area",
            "leakage",
            "seed",
            "lf-episodes",
            "hf-budget",
            "tiers",
            "gate-threshold",
            "trace-len",
            "threads",
            "save-fnn",
            "trace-out",
            "metrics-out",
        ],
        "sweep" => &["benchmark", "general", "count", "trace-len", "threads", "seed", "json"],
        "explain" => &["fnn", "benchmark", "area", "steps"],
        "serve" => &[
            "addr",
            "benchmark",
            "general",
            "area",
            "leakage",
            "trace-len",
            "seed",
            "threads",
            "workers",
            "max-batch",
            "max-delay-ms",
            "queue-cap",
            "fnn",
            "shards",
            "router-workers",
            "trace-out",
            "trace-sample",
            "shard-id",
        ],
        "loadgen" => &[
            "addr",
            "clients",
            "requests",
            "concurrency",
            "duration",
            "shards",
            "trend",
            "points",
            "fidelity",
            "seed",
            "trace-len",
            "queue-cap",
            "trace",
            "trace-out",
            "metrics-out",
        ],
        "trace-report" => &["trace", "top", "requests"],
        "check-metrics" => &["file"],
        "ingest" => &["name", "max-instrs", "trace-out", "profile-out"],
        "workload-diff" => &["benchmark", "golden", "json"],
        _ => &["full", "json"],
    }
}

/// How many positional operands (after the subcommand) a command takes.
fn max_positionals(command: &str) -> usize {
    match command {
        "ingest" | "workload-diff" => 1,
        _ => 0,
    }
}

/// Rejects flags the command does not know; `Some(2)` means "exit 2".
fn check_flags(command: &str, args: &Args) -> Option<i32> {
    let allowed = allowed_flags(command);
    let unknown: Vec<&str> = args.flag_names().filter(|f| !allowed.contains(f)).collect();
    if unknown.is_empty() {
        return None;
    }
    let rendered: Vec<String> = unknown.iter().map(|f| format!("--{f}")).collect();
    eprintln!("unknown option(s) for `{command}`: {}", rendered.join(", "));
    if allowed.is_empty() {
        eprintln!("`{command}` takes no options");
    } else {
        let valid: Vec<String> = allowed.iter().map(|f| format!("--{f}")).collect();
        eprintln!("valid options: {}", valid.join(", "));
    }
    eprintln!("run `archdse help` for details");
    Some(2)
}

/// Rejects stray positional operands; `Some(2)` means "exit 2".
fn check_positionals(command: &str, args: &Args) -> Option<i32> {
    let extra = args.positionals().get(max_positionals(command)..).unwrap_or(&[]);
    if extra.is_empty() {
        return None;
    }
    let rendered: Vec<String> = extra.iter().map(|t| format!("{t:?}")).collect();
    eprintln!("unexpected argument(s) for `{command}`: {}", rendered.join(", "));
    eprintln!("run `archdse help` for details");
    Some(2)
}

fn parse_benchmark(name: &str) -> Result<Benchmark, dse_workloads::ParseBenchmarkError> {
    name.parse()
}

/// The JSON payload of `archdse sweep --json`: the `(encoded index,
/// CPI)` rows plus the sweep's cost ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepReport {
    rows: Vec<(u64, f64)>,
    ledger: LedgerSummary,
}

fn maybe_write_json<T: Serialize>(args: &Args, value: &T) -> Result<(), Box<dyn Error>> {
    if let Some(path) = args.value_of::<String>("json")? {
        std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
        println!("(wrote JSON to {path})");
    }
    Ok(())
}

/// Dispatches a parsed invocation; returns the process exit code.
///
/// # Errors
///
/// Returns any argument, IO or serialization error for `main` to print.
pub fn run(args: &Args) -> Result<i32, Box<dyn Error>> {
    if let Some(command) = args.command() {
        if COMMANDS.contains(&command) {
            if let Some(code) = check_flags(command, args) {
                return Ok(code);
            }
            if let Some(code) = check_positionals(command, args) {
                return Ok(code);
            }
        }
    }
    match args.command() {
        Some("space") => cmd_space(),
        Some("explore") => cmd_explore(args),
        Some("sweep") => cmd_sweep(args),
        Some("explain") => cmd_explain(args),
        Some("serve") => cmd_serve(args),
        Some("loadgen") => cmd_loadgen(args),
        Some("trace-report") => cmd_trace_report(args),
        Some("check-metrics") => cmd_check_metrics(args),
        Some("ingest") => cmd_ingest(args),
        Some("workload-diff") => cmd_workload_diff(args),
        Some("table2") => {
            let config =
                if args.switch("full") { Table2Config::default() } else { Table2Config::quick() };
            let result = table2(&config);
            println!("{}", result.to_markdown());
            maybe_write_json(args, &result)?;
            Ok(0)
        }
        Some("fig5") => {
            let config =
                if args.switch("full") { Fig5Config::default() } else { Fig5Config::quick() };
            let result = fig5(&config);
            println!("{}", result.to_markdown());
            maybe_write_json(args, &result)?;
            Ok(0)
        }
        Some("fig6") => {
            let config =
                if args.switch("full") { Fig6Config::default() } else { Fig6Config::quick() };
            let result = fig6(&config);
            println!("{}", result.to_markdown());
            maybe_write_json(args, &result)?;
            Ok(0)
        }
        Some("fig7") => {
            let config =
                if args.switch("full") { Fig7Config::default() } else { Fig7Config::quick() };
            let result = fig7(&config);
            println!("{}", result.to_markdown());
            maybe_write_json(args, &result)?;
            Ok(0)
        }
        Some("ablations") => {
            let config = if args.switch("full") {
                AblationConfig::default()
            } else {
                AblationConfig::quick()
            };
            let result = ablations(&config);
            println!("{}", result.to_markdown());
            maybe_write_json(args, &result)?;
            Ok(0)
        }
        Some("help") | None => {
            println!("{USAGE}");
            Ok(0)
        }
        Some(other) => {
            eprintln!("unknown command {other:?}");
            eprintln!("valid commands: {}", COMMANDS.join(", "));
            eprintln!("run `archdse help` for details");
            Ok(2)
        }
    }
}

fn cmd_space() -> Result<i32, Box<dyn Error>> {
    let space = DesignSpace::boom();
    println!("{:<18} candidates", "parameter");
    for p in Param::ALL {
        let cands: Vec<String> = space.candidates(p).iter().map(|v| format!("{v}")).collect();
        println!("{:<18} {}", p.name(), cands.join(", "));
    }
    println!("total designs: {}", space.size());
    Ok(0)
}

fn cmd_explore(args: &Args) -> Result<i32, Box<dyn Error>> {
    let mut explorer = if args.switch("general") {
        Explorer::general_purpose()
    } else {
        let name = args.value_or("benchmark", "mm".to_string())?;
        Explorer::for_benchmark(parse_benchmark(&name)?)
    };
    let tiers: usize = args.value_or("tiers", 2usize)?;
    if !(2..=dse_exec::Fidelity::COUNT).contains(&tiers) {
        eprintln!("--tiers must be 2 or {}, got {tiers}", dse_exec::Fidelity::COUNT);
        return Ok(2);
    }
    explorer = explorer
        .area_limit_mm2(args.value_or("area", 8.0)?)
        .seed(args.value_or("seed", 0)?)
        .lf_episodes(args.value_or("lf-episodes", 300)?)
        .hf_budget(args.value_or("hf-budget", 9)?)
        .tiers(tiers)
        .gate_threshold(args.value_or("gate-threshold", 0.05)?)
        .trace_len(args.value_or("trace-len", 30_000)?);
    if let Err(e) = explorer.check_area() {
        eprintln!("error: {e}");
        return Ok(2);
    }
    if let Some(leakage) = args.value_of::<f64>("leakage")? {
        explorer = explorer.leakage_limit_mw(leakage);
    }
    if let Some(threads) = args.value_of::<usize>("threads")? {
        if threads == 0 {
            eprintln!("--threads must be >= 1");
            return Ok(2);
        }
        explorer = explorer.threads(threads);
    }
    let trace_out = args.value_of::<String>("trace-out")?;
    if let Some(path) = &trace_out {
        dse_obs::trace::install_file(path)?;
    }

    let report = explorer.run();
    if let Some(path) = &trace_out {
        // The closing event carries the run's final LedgerSummary, the
        // reference `trace-report` reconciles the per-batch deltas
        // against.
        let summary = report.ledger.summary();
        let mut fields: Vec<(&str, dse_obs::trace::FieldValue)> = vec![
            ("best_cpi", report.best_cpi.into()),
            ("hf_sims", (report.hf.evaluations as u64).into()),
            ("lf_evaluations", summary.low.evaluations.into()),
            ("lf_cache_hits", summary.low.cache_hits.into()),
            ("lf_cache_misses", summary.low.cache_misses.into()),
            ("lf_denied", summary.low.denied.into()),
            ("lf_model_time_units", summary.low.model_time_units.into()),
            ("learned_evaluations", summary.learned.evaluations.into()),
            ("learned_cache_hits", summary.learned.cache_hits.into()),
            ("learned_cache_misses", summary.learned.cache_misses.into()),
            ("learned_denied", summary.learned.denied.into()),
            ("learned_model_time_units", summary.learned.model_time_units.into()),
            ("budget_floor", summary.budget_floor.key().into()),
            ("hf_evaluations", summary.high.evaluations.into()),
            ("hf_cache_hits", summary.high.cache_hits.into()),
            ("hf_cache_misses", summary.high.cache_misses.into()),
            ("hf_denied", summary.high.denied.into()),
            ("hf_model_time_units", summary.high.model_time_units.into()),
        ];
        if let Some(budget) = summary.hf_budget {
            fields.push(("hf_budget", budget.into()));
        }
        dse_obs::trace::event("run_summary", &fields);
        dse_obs::trace::shutdown()?;
        println!("(wrote trace to {path})");
    }
    if let Some(path) = args.value_of::<String>("metrics-out")? {
        std::fs::write(&path, dse_obs::global().snapshot().to_prometheus_text())?;
        println!("(wrote metrics to {path})");
    }
    println!("best design  : {}", report.best_point.describe(explorer.space()));
    println!(
        "area         : {:.2} mm2 (limit {:.2})",
        explorer.area().area_mm2(explorer.space(), &report.best_point),
        explorer.area().limit_mm2()
    );
    println!("simulated CPI: {:.4}", report.best_cpi);
    println!("HF sims used : {}", report.hf.evaluations);
    // The run's cost ledger is the single source of budget truth: every
    // LF and HF proposal was replayed, charged or denied by it.
    println!("cost ledger  :");
    for line in report.ledger.summary().to_string().lines() {
        println!("  {line}");
    }
    println!("\nlearned rules:");
    for rule in report.rules.iter().take(12) {
        println!("  {rule}");
    }
    if let Some(path) = args.value_of::<String>("save-fnn")? {
        std::fs::write(&path, serde_json::to_string_pretty(&report.fnn)?)?;
        println!("\n(saved trained network to {path})");
    }
    Ok(0)
}

fn cmd_sweep(args: &Args) -> Result<i32, Box<dyn Error>> {
    let benchmarks: Vec<Benchmark> = if args.switch("general") {
        Benchmark::ALL.to_vec()
    } else {
        vec![parse_benchmark(&args.value_or("benchmark", "mm".to_string())?)?]
    };
    let count: u64 = args.value_or("count", 24u64)?;
    if count == 0 {
        eprintln!("sweep requires --count >= 1");
        return Ok(2);
    }
    let space = DesignSpace::boom();
    let count = count.min(space.size());
    let mut hf = SimulatorHf::for_benchmarks(
        &benchmarks,
        args.value_or("trace-len", 10_000)?,
        args.value_or("seed", 0u64)?,
        1.0,
    );
    if let Some(threads) = args.value_of::<usize>("threads")? {
        if threads == 0 {
            eprintln!("--threads must be >= 1");
            return Ok(2);
        }
        hf = hf.with_threads(threads);
    }

    // Evenly spaced encoded indices cover the space corner to corner.
    let points: Vec<_> = if count == 1 {
        vec![space.smallest()]
    } else {
        (0..count).map(|i| space.decode(i * (space.size() - 1) / (count - 1))).collect()
    };
    // Even a one-shot sweep runs through a ledger, so its accounting
    // comes out in the same shape as every other driver's.
    let mut ledger = CostLedger::new();
    let entries = ledger.evaluate_batch(&mut hf, &space, &points);

    println!("{:<12} {:>8}", "design", "CPI");
    let mut rows: Vec<(u64, f64)> = Vec::with_capacity(points.len());
    for (point, entry) in points.iter().zip(&entries) {
        let index = space.encode(point);
        let cpi = entry.cpi().expect("sweeps install no budget, so nothing is denied");
        println!("{index:<12} {cpi:>8.4}");
        rows.push((index, cpi));
    }
    println!(
        "simulated {} designs x {} traces on {} thread(s)",
        points.len(),
        benchmarks.len(),
        hf.threads(),
    );
    for line in ledger.summary().to_string().lines() {
        println!("  {line}");
    }
    maybe_write_json(args, &SweepReport { rows, ledger: ledger.summary() })?;
    Ok(0)
}

fn cmd_explain(args: &Args) -> Result<i32, Box<dyn Error>> {
    let Some(path) = args.value_of::<String>("fnn")? else {
        eprintln!("explain requires --fnn <file> (produce one with explore --save-fnn)");
        return Ok(2);
    };
    let fnn: Fnn = serde_json::from_str(&std::fs::read_to_string(&path)?)?;
    let name = args.value_or("benchmark", "mm".to_string())?;
    let benchmark = parse_benchmark(&name)?;
    let steps: usize = args.value_or("steps", 5)?;
    let explorer = Explorer::for_benchmark(benchmark).area_limit_mm2(args.value_or("area", 8.0)?);
    let space = explorer.space();
    let lf = explorer.lf_model();
    let area = explorer.area();

    let mut point = space.smallest();
    for step in 0..steps {
        let obs = fnn.observation(space, &point, lf.cpi(space, &point));
        let explanation = explain_top_action(&fnn, &obs, 3);
        println!("step {step}: grow `{}`\n{explanation}\n", explanation.output_name);
        let Some(param) = Param::from_index(explanation.output) else { break };
        match point.increased(space, param) {
            Some(next) if area.fits(space, &next) => point = next,
            _ => {
                println!("(area limit reached)");
                break;
            }
        }
    }
    println!("reached design: {}", point.describe(space));
    Ok(0)
}

/// Builds the serve/loadgen explorer template from shared flags.
fn explorer_from_args(args: &Args, default_trace: usize) -> Result<Explorer, Box<dyn Error>> {
    let mut explorer = if args.switch("general") {
        Explorer::general_purpose()
    } else {
        let name = args.value_or("benchmark", "mm".to_string())?;
        Explorer::for_benchmark(parse_benchmark(&name)?)
    };
    explorer = explorer
        .area_limit_mm2(args.value_or("area", 8.0)?)
        .seed(args.value_or("seed", 0)?)
        .trace_len(args.value_or("trace-len", default_trace)?);
    if let Some(leakage) = args.value_of::<f64>("leakage")? {
        explorer = explorer.leakage_limit_mw(leakage);
    }
    if let Some(threads) = args.value_of::<usize>("threads")? {
        explorer = explorer.threads(threads.max(1));
    }
    Ok(explorer)
}

fn serve_config_from_args(args: &Args, addr: &str) -> Result<ServeConfig, Box<dyn Error>> {
    let mut config = ServeConfig::new(explorer_from_args(args, 10_000)?);
    config.addr = addr.to_string();
    config.workers = args.value_or("workers", config.workers)?;
    config.batcher.max_batch_points = args.value_or("max-batch", 64usize)?.max(1);
    config.batcher.max_delay = std::time::Duration::from_millis(args.value_or("max-delay-ms", 2)?);
    config.batcher.queue_capacity = args.value_or("queue-cap", 128usize)?.max(1);
    if let Some(path) = args.value_of::<String>("fnn")? {
        config.fnn = Some(serde_json::from_str(&std::fs::read_to_string(&path)?)?);
    }
    Ok(config)
}

fn cmd_serve(args: &Args) -> Result<i32, Box<dyn Error>> {
    let shards: usize = args.value_or("shards", 1usize)?;
    if shards == 0 {
        eprintln!("--shards must be >= 1");
        return Ok(2);
    }
    let addr = args.value_or("addr", "127.0.0.1:8711".to_string())?;
    // A sharded parent hosts the router: its records (role "router", no
    // shard id) go to the plain --trace-out path, each worker's to a
    // derived .shardN path with the same sampling rate so a trace id gets
    // the same verdict on both sides of the proxy.
    let traced = install_serve_tracer(args)?;
    let (stack, detail) = if shards == 1 {
        let config = serve_config_from_args(args, &addr)?;
        let benchmarks: Vec<&str> = config.explorer.benchmarks().iter().map(|b| b.name()).collect();
        let detail = format!("serving benchmarks: {}", benchmarks.join(", "));
        (Stack::single(config)?, detail)
    } else {
        let child_args = child_serve_args(args)?;
        let trace_out = args.value_of::<String>("trace-out")?;
        let sample = args.value_or("trace-sample", 1u64)?;
        let workers = args.value_or("router-workers", 256usize)?;
        let stack = Stack::sharded(shards, &addr, workers, |shard| {
            let mut shard_args = child_args.clone();
            shard_args.extend(shard_trace_args(trace_out.as_deref(), sample, shard));
            shard_args
        })?;
        let shard_addrs: Vec<&str> = stack.children.iter().map(|c| c.addr.as_str()).collect();
        let detail = format!("routing {shards} shards: {}", shard_addrs.join(", "));
        (stack, detail)
    };
    // The smoke harness parses this line for the ephemeral port; keep
    // the format stable and flush it before blocking.
    println!("archdse-serve listening on {}", stack.addr);
    println!("{detail}");
    println!("POST /v1/shutdown to stop");
    use std::io::Write as _;
    std::io::stdout().flush()?;
    stack.wait();
    if traced {
        dse_obs::trace::shutdown()?;
    }
    println!("archdse-serve drained and stopped");
    Ok(0)
}

/// Installs the JSONL tracer from serve's `--trace-out` /
/// `--trace-sample` / `--shard-id` flags; returns whether one was
/// installed (so the caller flushes it on shutdown). Shard worker
/// processes are spawned with `--shard-id`, which stamps every record
/// with the shard number and pid for multi-process merging.
fn install_serve_tracer(args: &Args) -> Result<bool, Box<dyn Error>> {
    let Some(path) = args.value_of::<String>("trace-out")? else {
        return Ok(false);
    };
    dse_obs::trace::install_file(&path)?;
    dse_obs::trace::set_request_sampling(args.value_or("trace-sample", 1u64)?);
    if let Some(shard) = args.value_of::<u64>("shard-id")? {
        dse_obs::trace::set_shard(shard);
    }
    Ok(true)
}

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

/// The extra serve flags one traced shard worker gets: its own trace
/// file, its shard id, and the parent's sampling rate.
fn shard_trace_args(trace_out: Option<&str>, sample: u64, shard: usize) -> Vec<String> {
    match trace_out {
        Some(path) => vec![
            "--trace-out".into(),
            shard_trace_path(path, shard),
            "--shard-id".into(),
            shard.to_string(),
            "--trace-sample".into(),
            sample.to_string(),
        ],
        None => Vec::new(),
    }
}

/// A self-hosted shard: a child `archdse serve` worker process and the
/// ephemeral address it reported on stdout.
struct ShardProc {
    child: std::process::Child,
    addr: String,
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
struct Stack {
    front: Option<archdse_serve::ServerHandle>,
    children: Vec<ShardProc>,
    /// The front-door address clients should hit.
    addr: String,
}

impl Stack {
    /// One server in this process.
    fn single(config: ServeConfig) -> std::io::Result<Self> {
        let server = spawn(config)?;
        Ok(Self { addr: server.addr().to_string(), front: Some(server), children: Vec::new() })
    }

    /// `shards` worker processes, each started with
    /// `child_args_for(shard)`; with more than one, a router on `addr`
    /// with `router_workers` app workers in front of them.
    fn sharded(
        shards: usize,
        addr: &str,
        router_workers: usize,
        child_args_for: impl Fn(usize) -> Vec<String>,
    ) -> Result<Self, Box<dyn Error>> {
        let mut children = Vec::with_capacity(shards);
        for shard in 0..shards {
            children.push(ShardProc::spawn(&child_args_for(shard))?);
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
    fn wait(mut self) {
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
    fn teardown(self) {
        let _ = archdse_serve::client::post(&self.addr, "/v1/shutdown", "");
        if let Some(front) = &self.front {
            front.shutdown();
        }
        self.wait();
    }
}

/// The serve flags a sharded parent forwards verbatim to its worker
/// processes (everything but the bind address and sharding topology).
fn child_serve_args(args: &Args) -> Result<Vec<String>, Box<dyn Error>> {
    let mut out: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
    if args.switch("general") {
        out.push("--general".into());
    }
    for flag in [
        "benchmark",
        "area",
        "leakage",
        "trace-len",
        "seed",
        "threads",
        "workers",
        "max-batch",
        "max-delay-ms",
        "queue-cap",
        "fnn",
    ] {
        if let Some(value) = args.value_of::<String>(flag)? {
            out.push(format!("--{flag}"));
            out.push(value);
        }
    }
    Ok(out)
}

/// The serve flags `loadgen`'s self-hosted worker processes run with.
fn loadgen_child_args(args: &Args) -> Result<Vec<String>, Box<dyn Error>> {
    Ok(vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--benchmark".into(),
        "ss".into(),
        "--trace-len".into(),
        args.value_or("trace-len", 2_000usize)?.to_string(),
        "--queue-cap".into(),
        args.value_or("queue-cap", 128usize)?.to_string(),
    ])
}

fn cmd_loadgen(args: &Args) -> Result<i32, Box<dyn Error>> {
    let fidelity = args.value_or("fidelity", "lf".to_string())?.to_ascii_lowercase();
    if fidelity != "auto" && dse_exec::Fidelity::from_key(&fidelity).is_none() {
        eprintln!("--fidelity must be lf, learned, hf or auto, got {fidelity:?}");
        return Ok(2);
    }
    let shards: usize = args.value_or("shards", 1usize)?;
    if shards == 0 {
        eprintln!("--shards must be >= 1");
        return Ok(2);
    }
    if args.switch("trend") {
        return cmd_loadgen_trend(args, &fidelity, shards.max(2));
    }
    let concurrency = args.value_of::<usize>("concurrency")?;
    let duration = match args.value_of::<f64>("duration")? {
        Some(s) if s <= 0.0 => {
            eprintln!("--duration must be a positive number of seconds");
            return Ok(2);
        }
        Some(s) => Some(std::time::Duration::from_secs_f64(s)),
        // --concurrency alone implies a short closed-loop run.
        None => concurrency.map(|_| std::time::Duration::from_secs(2)),
    };
    let external = args.value_of::<String>("addr")?;
    if external.is_some() && shards > 1 {
        eprintln!("--shards self-hosts a sharded stack; it conflicts with --addr");
        return Ok(2);
    }
    let trace_out = args.value_of::<String>("trace-out")?;
    if external.is_some() && trace_out.is_some() {
        eprintln!("--trace-out traces the self-hosted target; it conflicts with --addr");
        return Ok(2);
    }
    if let Some(path) = &trace_out {
        // The self-hosted single server (or the sharded stack's router)
        // runs in this process; its records land here, shard workers
        // write derived .shardN files.
        dse_obs::trace::install_file(path)?;
    }
    // The self-hosted target, torn down after the run; none with --addr.
    let (addr, stack) = match external {
        Some(addr) => (addr, None),
        None if shards == 1 => {
            // Self-host a quick in-process server for the duration.
            let explorer = Explorer::for_benchmark(Benchmark::StringSearch)
                .trace_len(args.value_or("trace-len", 2_000usize)?);
            let mut config = ServeConfig::new(explorer);
            config.batcher.queue_capacity =
                args.value_or("queue-cap", config.batcher.queue_capacity)?.max(1);
            let stack = Stack::single(config)?;
            println!("(self-hosting a quick server on {})", stack.addr);
            (stack.addr.clone(), Some(stack))
        }
        None => {
            let workers = concurrency.unwrap_or(64).max(64);
            let base_args = loadgen_child_args(args)?;
            let trace_out = trace_out.as_deref();
            let stack = Stack::sharded(shards, "127.0.0.1:0", workers, |shard| {
                let mut shard_args = base_args.clone();
                shard_args.extend(shard_trace_args(trace_out, 1, shard));
                shard_args
            })?;
            println!("(self-hosting {shards} shard processes behind {})", stack.addr);
            (stack.addr.clone(), Some(stack))
        }
    };
    let mut config = LoadgenConfig::new(addr.clone());
    config.clients = concurrency.unwrap_or(args.value_or("clients", 4usize)?).max(1);
    config.requests_per_client = args.value_or("requests", 8usize)?;
    config.duration = duration;
    config.points_per_request = args.value_or("points", 4usize)?.max(1);
    config.fidelity = fidelity.clone();
    config.seed = args.value_or("seed", 1u64)?;
    config.trace = args.switch("trace");
    let report = run_loadgen(&config);
    if report.is_ok() {
        if let Some(path) = args.value_of::<String>("metrics-out")? {
            match archdse_serve::client::get(&addr, "/metrics?format=prometheus") {
                Ok(response) => {
                    std::fs::write(&path, response.body)?;
                    println!("(wrote metrics to {path})");
                }
                Err(e) => eprintln!("could not scrape /metrics for --metrics-out: {e}"),
            }
        }
    }
    if let Some(stack) = stack {
        stack.teardown();
    }
    if trace_out.is_some() {
        dse_obs::trace::shutdown()?;
    }
    let report = report?;
    print!("{}", report.render());
    if report.coalescer.batches < report.coalescer.requests {
        println!(
            "(coalescer amortized {} requests into {} batches)",
            report.coalescer.requests, report.coalescer.batches
        );
    }
    Ok(if report.failed == 0 { 0 } else { 1 })
}

/// The trend matrix: {1, N} shard stacks × a fixed concurrency ladder,
/// every cell on a freshly booted stack so caches start cold and rows
/// are comparable.
fn cmd_loadgen_trend(args: &Args, fidelity: &str, shards_n: usize) -> Result<i32, Box<dyn Error>> {
    if args.value_of::<String>("addr")?.is_some() {
        eprintln!("--trend self-hosts its serving stacks; it conflicts with --addr");
        return Ok(2);
    }
    if args.value_of::<String>("trace-out")?.is_some() {
        eprintln!("--trend boots many stacks; trace a single run without --trend instead");
        return Ok(2);
    }
    let duration_s: f64 = args.value_or("duration", 3.0)?;
    if duration_s <= 0.0 {
        eprintln!("--duration must be a positive number of seconds");
        return Ok(2);
    }
    let points = args.value_or("points", 4usize)?.max(1);
    let seed = args.value_or("seed", 1u64)?;
    let concurrencies: [usize; 3] = [16, 256, 1024];
    let child_args = loadgen_child_args(args)?;

    let mut rows = Vec::new();
    let mut all_clean = true;
    for shards in [1, shards_n] {
        for &clients in &concurrencies {
            println!("== {shards} shard(s), {clients} clients, {duration_s:.1}s closed-loop ==");
            let stack =
                Stack::sharded(shards, "127.0.0.1:0", clients.max(64), |_| child_args.clone())?;
            let mut config = LoadgenConfig::new(stack.addr.clone());
            config.clients = clients;
            config.duration = Some(std::time::Duration::from_secs_f64(duration_s));
            config.points_per_request = points;
            config.fidelity = fidelity.to_string();
            config.seed = seed;
            config.trace = args.switch("trace");
            let report = run_loadgen(&config);
            stack.teardown();
            let report = report?;
            print!("{}", report.render());
            all_clean &= report.failed == 0;
            rows.push(loadgen_row(&report, &config));
        }
    }

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
    Ok(if all_clean { 0 } else { 1 })
}

/// Flattens a [`LoadgenReport`] into one artifact row.
fn loadgen_row(report: &LoadgenReport, config: &LoadgenConfig) -> LoadgenRow {
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
        latency_us: LatencyMicros {
            samples: report.latency.samples,
            p50: us(report.latency.p50),
            p95: us(report.latency.p95),
            p99: us(report.latency.p99),
            max: us(report.latency.max),
        },
        delta_us: LatencyMicros {
            samples: report.delta.samples,
            p50: us(report.delta.p50),
            p95: us(report.delta.p95),
            p99: us(report.delta.p99),
            max: us(report.delta.max),
        },
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

/// Latency percentiles in microseconds, for the loadgen artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LatencyMicros {
    samples: u64,
    p50: u64,
    p95: u64,
    p99: u64,
    max: u64,
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
struct LoadgenRow {
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
    latency_us: LatencyMicros,
    /// Client RTT minus server-reported time percentiles; all-zero
    /// unless the run used `--trace`.
    delta_us: LatencyMicros,
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

fn cmd_trace_report(args: &Args) -> Result<i32, Box<dyn Error>> {
    let Some(path) = args.value_of::<String>("trace")? else {
        eprintln!("trace-report requires --trace <file> (produce one with explore --trace-out)");
        return Ok(2);
    };
    if args.switch("requests") {
        let mut files = Vec::new();
        for part in path.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            files.push((part.to_string(), std::fs::read_to_string(part)?));
        }
        let report = match crate::trace_report::summarize_requests(&files) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{e}");
                return Ok(1);
            }
        };
        print!("{}", crate::trace_report::render_requests(&report));
        return Ok(if crate::trace_report::verify_requests(&report).is_ok() { 0 } else { 1 });
    }
    let top: usize = args.value_or("top", 10)?;
    let text = std::fs::read_to_string(&path)?;
    let summary = match crate::trace_report::summarize(&text, top) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("{path}: {e}");
            return Ok(1);
        }
    };
    print!("{}", crate::trace_report::render(&summary));
    Ok(if crate::trace_report::reconcile(&summary).is_ok() { 0 } else { 1 })
}

fn cmd_check_metrics(args: &Args) -> Result<i32, Box<dyn Error>> {
    let Some(path) = args.value_of::<String>("file")? else {
        eprintln!("check-metrics requires --file <path> (a Prometheus text exposition)");
        return Ok(2);
    };
    let text = std::fs::read_to_string(&path)?;
    match dse_obs::check_text(&text) {
        Ok(summary) => {
            println!("{path}: {summary}");
            Ok(0)
        }
        Err(errors) => {
            eprintln!("{path}: {} problem(s)", errors.len());
            for error in &errors {
                eprintln!("  {error}");
            }
            Ok(1)
        }
    }
}

/// Reads the required `<elf>` positional of `ingest`/`workload-diff`;
/// an `Err` carries the exit code after the message was printed.
fn read_elf_positional(command: &str, args: &Args) -> Result<(String, Vec<u8>), i32> {
    let Some(path) = args.positionals().first() else {
        eprintln!("{command} requires an ELF path: archdse {command} <elf> [options]");
        eprintln!("run `archdse help` for details");
        return Err(2);
    };
    match std::fs::read(path) {
        Ok(bytes) => Ok((path.clone(), bytes)),
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            eprintln!("expected a statically linked RV64 ELF executable");
            Err(2)
        }
    }
}

/// Ingests the `<elf>` positional; prints the named ingestion error and
/// maps it to exit 2 so scripted callers can distinguish "bad input"
/// from runtime failures.
fn ingest_from_args(
    command: &str,
    args: &Args,
) -> Result<Result<dse_ingest::Ingested, i32>, Box<dyn Error>> {
    let (path, bytes) = match read_elf_positional(command, args) {
        Ok(read) => read,
        Err(code) => return Ok(Err(code)),
    };
    let stem = std::path::Path::new(&path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("workload")
        .to_string();
    let name = args.value_or("name", stem)?;
    let max_instrs = args.value_or("max-instrs", dse_ingest::ExecConfig::default().max_instrs)?;
    match dse_ingest::ingest_elf(&name, &bytes, dse_ingest::ExecConfig { max_instrs }) {
        Ok(ingested) => Ok(Ok(ingested)),
        Err(e) => {
            eprintln!("{path}: {e}");
            Ok(Err(2))
        }
    }
}

fn cmd_ingest(args: &Args) -> Result<i32, Box<dyn Error>> {
    let ingested = match ingest_from_args("ingest", args)? {
        Ok(ingested) => ingested,
        Err(code) => return Ok(code),
    };
    let p = &ingested.profile;
    println!("workload      : {}", ingested.name);
    println!("instructions  : {}", ingested.trace.len());
    println!("exit code     : {}", ingested.exit_code);
    println!(
        "mix           : int_alu {:.3}  int_mul {:.3}  load {:.3}  store {:.3}  fp {:.3}  branch {:.3}",
        p.mix.int_alu, p.mix.int_mul, p.mix.load, p.mix.store, p.mix.fp, p.mix.branch
    );
    println!("mean dep dist : {:.2}", p.mean_dep_distance);
    println!("mispredict    : {:.4}", p.branch_mispredict_rate);
    println!(
        "streaming     : {:.4}   mlp: {:.3}   conflict: {:.3}",
        p.streaming_frac, p.mlp, p.conflict_frac
    );
    if let Some(out) = args.value_of::<String>("trace-out")? {
        let bytes = dse_ingest::trace_file::encode_trace(&ingested.trace)?;
        std::fs::write(&out, &bytes)?;
        println!("(wrote {}-byte trace to {out})", bytes.len());
    }
    if let Some(out) = args.value_of::<String>("profile-out")? {
        let mut json = serde_json::to_string_pretty(&ingested.profile)?;
        json.push('\n');
        std::fs::write(&out, json)?;
        println!("(wrote profile to {out})");
    }
    Ok(0)
}

/// One metric row of the `workload-diff` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DiffRow {
    metric: String,
    synthetic: f64,
    ingested: f64,
    delta: f64,
}

/// The `results/workload_diff.json` payload: per-metric deltas between
/// a synthetic benchmark profile and an ingested one.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WorkloadDiffReport {
    workload: String,
    benchmark: String,
    instructions: u64,
    exit_code: u64,
    rows: Vec<DiffRow>,
    /// `Some` only when `--golden` was passed.
    golden_matched: Option<bool>,
}

/// The scalar metrics both profile kinds expose, in report order.
fn profile_metrics(p: &dse_workloads::WorkloadProfile) -> Vec<(&'static str, f64)> {
    vec![
        ("mix.int_alu", p.mix.int_alu),
        ("mix.int_mul", p.mix.int_mul),
        ("mix.load", p.mix.load),
        ("mix.store", p.mix.store),
        ("mix.fp", p.mix.fp),
        ("mix.branch", p.mix.branch),
        ("mean_dep_distance", p.mean_dep_distance),
        ("branch_mispredict_rate", p.branch_mispredict_rate),
        ("streaming_frac", p.streaming_frac),
        ("mlp", p.mlp),
        ("conflict_frac", p.conflict_frac),
    ]
}

fn cmd_workload_diff(args: &Args) -> Result<i32, Box<dyn Error>> {
    let ingested = match ingest_from_args("workload-diff", args)? {
        Ok(ingested) => ingested,
        Err(code) => return Ok(code),
    };
    let benchmark = parse_benchmark(&args.value_or("benchmark", "mm".to_string())?)?;
    let synthetic = benchmark.profile();

    let rows: Vec<DiffRow> = profile_metrics(&synthetic)
        .into_iter()
        .zip(profile_metrics(&ingested.profile))
        .map(|((metric, s), (_, i))| DiffRow {
            metric: metric.to_string(),
            synthetic: s,
            ingested: i,
            delta: i - s,
        })
        .collect();

    println!("{:<24} {:>12} {:>12} {:>12}", "metric", "synthetic", "ingested", "delta");
    for row in &rows {
        println!(
            "{:<24} {:>12.4} {:>12.4} {:>+12.4}",
            row.metric, row.synthetic, row.ingested, row.delta
        );
    }
    println!("(synthetic = {}, ingested = {})", benchmark.name(), ingested.name);

    // With --golden, the ingested profile must reproduce a committed
    // golden byte for byte (same serializer, deterministic pipeline).
    let mut golden_matched = None;
    if let Some(golden_path) = args.value_of::<String>("golden")? {
        let golden = std::fs::read_to_string(&golden_path)?;
        let ours = serde_json::to_string_pretty(&ingested.profile)?;
        let matched = golden.trim_end() == ours.trim_end();
        golden_matched = Some(matched);
        if matched {
            println!("golden {golden_path}: profile matches");
        } else {
            eprintln!("golden {golden_path}: profile MISMATCH");
            for (g, o) in golden.trim_end().lines().zip(ours.trim_end().lines()) {
                if g != o {
                    eprintln!("  golden  : {g}");
                    eprintln!("  ingested: {o}");
                }
            }
        }
    }

    let report = WorkloadDiffReport {
        workload: ingested.name.clone(),
        benchmark: benchmark.name().to_string(),
        instructions: ingested.trace.len() as u64,
        exit_code: ingested.exit_code,
        rows,
        golden_matched,
    };
    dse_bench::write_results_artifact(
        "workload_diff.json",
        &serde_json::to_string_pretty(&report)?,
    );
    maybe_write_json(args, &report)?;
    Ok(if golden_matched == Some(false) { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn benchmark_names_parse() {
        for b in Benchmark::ALL {
            assert_eq!(parse_benchmark(b.name()).unwrap(), b);
        }
        assert!(parse_benchmark("nope").is_err());
    }

    #[test]
    fn help_and_space_succeed() {
        assert_eq!(run(&args(&["help"])).unwrap(), 0);
        assert_eq!(run(&args(&["space"])).unwrap(), 0);
    }

    #[test]
    fn unknown_command_exits_nonzero() {
        assert_eq!(run(&args(&["frobnicate"])).unwrap(), 2);
    }

    #[test]
    fn misspelled_flags_are_rejected_not_ignored() {
        // `--seeed` must not silently fall back to the default seed.
        assert_eq!(run(&args(&["explore", "--seeed", "7"])).unwrap(), 2);
        assert_eq!(run(&args(&["sweep", "--trace-length", "500"])).unwrap(), 2);
        assert_eq!(run(&args(&["space", "--verbose"])).unwrap(), 2);
        assert_eq!(run(&args(&["serve", "--port", "8711"])).unwrap(), 2);
        assert_eq!(run(&args(&["loadgen", "--client", "4"])).unwrap(), 2);
        assert_eq!(run(&args(&["table2", "--fulll"])).unwrap(), 2);
    }

    #[test]
    fn every_command_has_a_flag_table() {
        for &command in COMMANDS {
            // Reaching the table at all is the test; an unknown command
            // would fall into the artifact default arm.
            let _ = allowed_flags(command);
        }
        assert!(allowed_flags("table2").contains(&"full"));
        assert!(allowed_flags("serve").contains(&"max-batch"));
        assert!(allowed_flags("serve").contains(&"shards"));
        assert!(allowed_flags("loadgen").contains(&"concurrency"));
        assert!(allowed_flags("loadgen").contains(&"trend"));
    }

    #[test]
    fn loadgen_self_hosts_and_coalesces() {
        let a = args(&["loadgen", "--clients", "3", "--requests", "4", "--points", "2"]);
        assert_eq!(run(&a).unwrap(), 0);
    }

    #[test]
    fn loadgen_rejects_bad_fidelity() {
        assert_eq!(run(&args(&["loadgen", "--fidelity", "mid"])).unwrap(), 2);
    }

    #[test]
    fn loadgen_rejects_contradictory_sharding_flags() {
        // Zero shards is meaningless for both commands.
        assert_eq!(run(&args(&["loadgen", "--shards", "0"])).unwrap(), 2);
        assert_eq!(run(&args(&["serve", "--shards", "0"])).unwrap(), 2);
        // A self-hosted shard stack conflicts with an external target.
        let a = args(&["loadgen", "--addr", "127.0.0.1:1", "--shards", "2"]);
        assert_eq!(run(&a).unwrap(), 2);
        let a = args(&["loadgen", "--trend", "--addr", "127.0.0.1:1"]);
        assert_eq!(run(&a).unwrap(), 2);
        // Closed-loop runs need a positive window.
        let a = args(&["loadgen", "--concurrency", "4", "--duration", "0"]);
        assert_eq!(run(&a).unwrap(), 2);
        assert_eq!(run(&args(&["loadgen", "--trend", "--duration", "-1"])).unwrap(), 2);
    }

    #[test]
    fn loadgen_closed_loop_runs_in_process() {
        // A short closed-loop window against the in-process server: every
        // request must be served (503s retry, so failed stays zero).
        let a = args(&[
            "loadgen",
            "--concurrency",
            "4",
            "--duration",
            "0.3",
            "--points",
            "2",
            "--trace-len",
            "500",
        ]);
        assert_eq!(run(&a).unwrap(), 0);
    }

    #[test]
    fn explore_quick_runs_end_to_end() {
        let a = args(&[
            "explore",
            "--benchmark",
            "ss",
            "--area",
            "6.0",
            "--lf-episodes",
            "15",
            "--hf-budget",
            "2",
            "--trace-len",
            "1000",
        ]);
        assert_eq!(run(&a).unwrap(), 0);
    }

    #[test]
    fn sweep_runs_and_writes_json() {
        let dir = std::env::temp_dir().join("archdse_cli_test_sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let path_str = path.to_str().unwrap();
        let a = args(&[
            "sweep",
            "--benchmark",
            "ss",
            "--count",
            "4",
            "--trace-len",
            "500",
            "--threads",
            "2",
            "--json",
            path_str,
        ]);
        assert_eq!(run(&a).unwrap(), 0);
        let report: SweepReport =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.rows.len(), 4);
        assert!(report.rows.iter().all(|&(_, cpi)| cpi > 0.0 && cpi.is_finite()));
        // The ledger in the report accounts for exactly the swept designs.
        assert_eq!(report.ledger.high.evaluations, 4);
        assert_eq!(report.ledger.high.denied, 0);
        assert_eq!(report.ledger.hf_budget, None);
        assert!(report.ledger.high.model_time_units > 0.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sweep_with_zero_count_exits_nonzero() {
        assert_eq!(run(&args(&["sweep", "--count", "0"])).unwrap(), 2);
    }

    #[test]
    fn explore_saves_a_network_that_explain_can_load() {
        let dir = std::env::temp_dir().join("archdse_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fnn.json");
        let path_str = path.to_str().unwrap();
        let a = args(&[
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
            "--save-fnn",
            path_str,
        ]);
        assert_eq!(run(&a).unwrap(), 0);
        assert!(path.exists());
        let e = args(&["explain", "--fnn", path_str, "--benchmark", "ss", "--steps", "3"]);
        assert_eq!(run(&e).unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn explain_without_fnn_exits_nonzero() {
        assert_eq!(run(&args(&["explain"])).unwrap(), 2);
    }

    fn fixture_path(stem: &str) -> String {
        format!("{}/../ingest/tests/fixtures/{stem}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn stray_positionals_are_rejected_per_command() {
        // Commands that take no operands still reject them, now at the
        // dispatch layer instead of the parser.
        assert_eq!(run(&args(&["explore", "oops"])).unwrap(), 2);
        // `ingest` takes exactly one.
        assert_eq!(run(&args(&["ingest", "a.elf", "b.elf"])).unwrap(), 2);
    }

    #[test]
    fn ingest_writes_trace_and_profile_matching_the_golden() {
        let dir = std::env::temp_dir().join("archdse_cli_test_ingest");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("loop_sum.trace");
        let profile_path = dir.join("loop_sum.profile.json");
        let a = args(&[
            "ingest",
            &fixture_path("loop_sum.elf"),
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--profile-out",
            profile_path.to_str().unwrap(),
        ]);
        assert_eq!(run(&a).unwrap(), 0);
        let decoded = dse_ingest::trace_file::decode_trace(&std::fs::read(&trace_path).unwrap())
            .expect("the written trace must round-trip");
        assert_eq!(decoded.len(), 2823);
        let golden = std::fs::read_to_string(fixture_path("loop_sum.profile.json")).unwrap();
        let written = std::fs::read_to_string(&profile_path).unwrap();
        assert_eq!(written, golden, "--profile-out must reproduce the committed golden");
        std::fs::remove_file(&trace_path).unwrap();
        std::fs::remove_file(&profile_path).unwrap();
    }

    #[test]
    fn ingest_bad_inputs_exit_2_with_named_errors() {
        // Missing path entirely.
        assert_eq!(run(&args(&["ingest"])).unwrap(), 2);
        // Nonexistent file.
        assert_eq!(run(&args(&["ingest", "/no/such/file.elf"])).unwrap(), 2);
        // A file that is not an ELF.
        let dir = std::env::temp_dir().join("archdse_cli_test_ingest_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.elf");
        std::fs::write(&junk, b"definitely not an elf").unwrap();
        assert_eq!(run(&args(&["ingest", junk.to_str().unwrap()])).unwrap(), 2);
        std::fs::remove_file(&junk).unwrap();
        // Misspelled flags are rejected by the flag table.
        assert_eq!(run(&args(&["ingest", "x.elf", "--trace-output", "t"])).unwrap(), 2);
        assert_eq!(run(&args(&["workload-diff", "x.elf", "--gold", "g"])).unwrap(), 2);
    }

    #[test]
    fn workload_diff_matches_golden_and_flags_mismatch() {
        // Against the *other* fixture's golden: mismatch exits 1.
        let b = args(&[
            "workload-diff",
            &fixture_path("stride_c.elf"),
            "--golden",
            &fixture_path("loop_sum.profile.json"),
        ]);
        assert_eq!(run(&b).unwrap(), 1);
        // Against its own golden: exit 0 and a persisted artifact.
        let a = args(&[
            "workload-diff",
            &fixture_path("stride_c.elf"),
            "--benchmark",
            "mm",
            "--golden",
            &fixture_path("stride_c.profile.json"),
        ]);
        assert_eq!(run(&a).unwrap(), 0);
        let artifact = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/workload_diff.json");
        let report: WorkloadDiffReport =
            serde_json::from_str(&std::fs::read_to_string(&artifact).unwrap()).unwrap();
        assert_eq!(report.workload, "stride_c");
        assert_eq!(report.benchmark, "mm");
        assert_eq!(report.golden_matched, Some(true));
        assert_eq!(report.rows.len(), 11);
        assert!(
            report.rows.iter().any(|r| r.delta != 0.0),
            "a real binary differs from mm somewhere"
        );
    }
}
