//! Subcommand implementations. Which commands and flags exist, their
//! defaults and their help live in the command table (`table.rs`); the
//! handlers here only read flags through [`Args`].

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use archdse::eval::SimulatorHf;
use archdse::{CostLedger, DesignSpace, Explorer, Fnn, LedgerSummary, Param};
use archdse_serve::{run_loadgen, LoadgenConfig, ServeConfig};
use dse_fnn::explain_top_action;
use dse_mfrl::{Constraint as _, LowFidelity as _};
use dse_workloads::Benchmark;

use crate::stack::{self, Stack};
use crate::{table, Args};

/// A bad invocation: [`run`] prints the message as is and returns exit
/// code 2.
#[derive(Debug)]
struct Usage(String);

impl fmt::Display for Usage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for Usage {}

/// Wraps a bad-invocation message for [`run`] to print with exit code 2.
pub(crate) fn usage_error(message: impl Into<String>) -> Box<dyn Error> {
    Box::new(Usage(message.into()))
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
    let outcome = match args.command() {
        None => cmd_help(args),
        Some(name) => match table::find(name) {
            Some(command) => command.check(args).and_then(|()| (command.run)(args)),
            None => Err(usage_error(format!(
                "unknown command {name:?}\nvalid commands: {}\nrun `archdse help` for details",
                table::names().join(", ")
            ))),
        },
    };
    match outcome.map_err(|e| e.downcast::<Usage>()) {
        Err(Ok(usage)) => {
            eprintln!("{usage}");
            Ok(2)
        }
        Err(Err(e)) => Err(e),
        Ok(code) => Ok(code),
    }
}

pub(crate) fn cmd_help(_: &Args) -> Result<i32, Box<dyn Error>> {
    println!("{}", table::usage());
    Ok(0)
}

/// Regenerates one paper artifact: the quick configuration unless
/// `--full`, printed as Markdown and optionally written as JSON.
pub(crate) fn artifact<C: Default, R: Serialize>(
    args: &Args,
    quick: fn() -> C,
    build: fn(&C) -> R,
    markdown: fn(&R) -> String,
) -> Result<i32, Box<dyn Error>> {
    let config = if args.switch("full") { C::default() } else { quick() };
    let result = build(&config);
    println!("{}", markdown(&result));
    maybe_write_json(args, &result)?;
    Ok(0)
}

pub(crate) fn cmd_space(_: &Args) -> Result<i32, Box<dyn Error>> {
    let space = DesignSpace::boom();
    println!("{:<18} candidates", "parameter");
    for p in Param::ALL {
        let cands: Vec<String> = space.candidates(p).iter().map(|v| format!("{v}")).collect();
        println!("{:<18} {}", p.name(), cands.join(", "));
    }
    println!("total designs: {}", space.size());
    Ok(0)
}

/// `--threads`, which every command that takes it requires to be >= 1.
fn threads(args: &Args) -> Result<Option<usize>, Box<dyn Error>> {
    match args.value_of::<usize>("threads")? {
        Some(0) => Err(usage_error("--threads must be >= 1")),
        threads => Ok(threads),
    }
}

/// The explorer the workload, area, power, seed, trace and thread flags
/// describe; `explore` and `serve` share it.
fn explorer(args: &Args) -> Result<Explorer, Box<dyn Error>> {
    let mut explorer = if args.switch("general") {
        Explorer::general_purpose()
    } else {
        Explorer::for_benchmark(parse_benchmark(&args.value::<String>("benchmark")?)?)
    };
    explorer = explorer
        .area_limit_mm2(args.value("area")?)
        .seed(args.value("seed")?)
        .trace_len(args.value("trace-len")?);
    if let Some(leakage) = args.value_of::<f64>("leakage")? {
        explorer = explorer.leakage_limit_mw(leakage);
    }
    if let Some(threads) = threads(args)? {
        explorer = explorer.threads(threads);
    }
    Ok(explorer)
}

pub(crate) fn cmd_explore(args: &Args) -> Result<i32, Box<dyn Error>> {
    let tiers: usize = args.value("tiers")?;
    if !(2..=dse_exec::Fidelity::COUNT).contains(&tiers) {
        let count = dse_exec::Fidelity::COUNT;
        return Err(usage_error(format!("--tiers must be 2 or {count}, got {tiers}")));
    }
    let explorer = explorer(args)?
        .lf_episodes(args.value("lf-episodes")?)
        .hf_budget(args.value("hf-budget")?)
        .tiers(tiers)
        .gate_threshold(args.value("gate-threshold")?);
    if let Err(e) = explorer.check_area() {
        return Err(usage_error(format!("error: {e}")));
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
        let hf_sims = report.hf.evaluations as u64;
        crate::trace_report::emit_run_summary(report.best_cpi, hf_sims, &report.ledger.summary());
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
    for rule in &report.rules {
        println!("  {rule}   [strength {:.2}]", rule.strength);
    }
    if let Some(path) = args.value_of::<String>("save-fnn")? {
        std::fs::write(&path, serde_json::to_string_pretty(&report.fnn)?)?;
        println!("\n(saved trained network to {path})");
    }
    Ok(0)
}

pub(crate) fn cmd_sweep(args: &Args) -> Result<i32, Box<dyn Error>> {
    let benchmarks: Vec<Benchmark> = if args.switch("general") {
        Benchmark::ALL.to_vec()
    } else {
        vec![parse_benchmark(&args.value::<String>("benchmark")?)?]
    };
    let count: u64 = args.value("count")?;
    if count == 0 {
        return Err(usage_error("sweep requires --count >= 1"));
    }
    let space = DesignSpace::boom();
    let count = count.min(space.size());
    let mut hf = SimulatorHf::for_benchmarks(
        &benchmarks,
        args.value("trace-len")?,
        args.value("seed")?,
        1.0,
    );
    if let Some(threads) = threads(args)? {
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

pub(crate) fn cmd_explain(args: &Args) -> Result<i32, Box<dyn Error>> {
    let Some(path) = args.value_of::<String>("fnn")? else {
        return Err(usage_error(
            "explain requires --fnn <file> (produce one with explore --save-fnn)",
        ));
    };
    let fnn: Fnn = serde_json::from_str(&std::fs::read_to_string(&path)?)?;
    let benchmark = parse_benchmark(&args.value::<String>("benchmark")?)?;
    let steps: usize = args.value("steps")?;
    let explorer = Explorer::for_benchmark(benchmark).area_limit_mm2(args.value("area")?);
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

fn serve_config(args: &Args, addr: &str) -> Result<ServeConfig, Box<dyn Error>> {
    let mut config = ServeConfig::new(explorer(args)?);
    config.addr = addr.to_string();
    config.workers = args.value("workers")?;
    config.batcher.max_batch_points = args.value::<usize>("max-batch")?.max(1);
    config.batcher.max_delay = std::time::Duration::from_millis(args.value("max-delay-ms")?);
    config.batcher.queue_capacity = args.value::<usize>("queue-cap")?.max(1);
    if let Some(path) = args.value_of::<String>("fnn")? {
        config.fnn = Some(serde_json::from_str(&std::fs::read_to_string(&path)?)?);
    }
    Ok(config)
}

pub(crate) fn cmd_serve(args: &Args) -> Result<i32, Box<dyn Error>> {
    let shards: usize = args.value("shards")?;
    if shards == 0 {
        return Err(usage_error("--shards must be >= 1"));
    }
    // Checked here too so a sharded parent fails before it forks.
    threads(args)?;
    let addr: String = args.value("addr")?;
    // A sharded parent hosts the router: its records (role "router", no
    // shard id) go to the plain --trace-out path, each worker's to a
    // derived .shardN path with the same sampling rate so a trace id gets
    // the same verdict on both sides of the proxy.
    let traced = install_serve_tracer(args)?;
    let (stack, detail) = if shards == 1 {
        let config = serve_config(args, &addr)?;
        let benchmarks: Vec<&str> = config.explorer.benchmarks().iter().map(|b| b.name()).collect();
        let detail = format!("serving benchmarks: {}", benchmarks.join(", "));
        (Stack::single(config)?, detail)
    } else {
        let trace_out = args.value_of::<String>("trace-out")?;
        let sample = args.value("trace-sample")?;
        let trace = trace_out.as_deref().map(|path| (path, sample));
        let workers = args.value("router-workers")?;
        let stack = Stack::sharded(shards, &addr, workers, &stack::child_serve_args(args), trace)?;
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
    dse_obs::trace::set_request_sampling(args.value("trace-sample")?);
    if let Some(shard) = args.value_of::<u64>("shard-id")? {
        dse_obs::trace::set_shard(shard);
    }
    Ok(true)
}

/// The loadgen client settings plain and trend runs share; the caller
/// sets the target address and the client count.
fn loadgen_config(args: &Args, fidelity: &str) -> Result<LoadgenConfig, Box<dyn Error>> {
    let mut config = LoadgenConfig::new(String::new());
    config.duration = match args.value_of::<f64>("duration")? {
        Some(s) if s <= 0.0 => {
            return Err(usage_error("--duration must be a positive number of seconds"))
        }
        seconds => seconds.map(std::time::Duration::from_secs_f64),
    };
    config.points_per_request = args.value::<usize>("points")?.max(1);
    config.fidelity = fidelity.to_string();
    config.seed = args.value("seed")?;
    config.trace = args.switch("trace");
    Ok(config)
}

pub(crate) fn cmd_loadgen(args: &Args) -> Result<i32, Box<dyn Error>> {
    let fidelity = args.value::<String>("fidelity")?.to_ascii_lowercase();
    if fidelity != "auto" && dse_exec::Fidelity::from_key(&fidelity).is_none() {
        return Err(usage_error(format!(
            "--fidelity must be lf, learned, hf or auto, got {fidelity:?}"
        )));
    }
    let shards: usize = args.value("shards")?;
    if shards == 0 {
        return Err(usage_error("--shards must be >= 1"));
    }
    if args.switch("trend") {
        return cmd_loadgen_trend(args, &fidelity, shards.max(2));
    }
    let mut config = loadgen_config(args, &fidelity)?;
    let concurrency = args.value_of::<usize>("concurrency")?;
    let external = args.value_of::<String>("addr")?;
    if external.is_some() && shards > 1 {
        return Err(usage_error("--shards self-hosts a sharded stack; it conflicts with --addr"));
    }
    let trace_out = args.value_of::<String>("trace-out")?;
    if external.is_some() && trace_out.is_some() {
        return Err(usage_error(
            "--trace-out traces the self-hosted target; it conflicts with --addr",
        ));
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
                .trace_len(args.value("trace-len")?);
            let mut config = ServeConfig::new(explorer);
            config.batcher.queue_capacity = args.value::<usize>("queue-cap")?.max(1);
            let stack = Stack::single(config)?;
            println!("(self-hosting a quick server on {})", stack.addr);
            (stack.addr.clone(), Some(stack))
        }
        None => {
            let workers = concurrency.unwrap_or(64).max(64);
            let child_args = stack::loadgen_child_args(args)?;
            let trace = trace_out.as_deref().map(|path| (path, 1));
            let stack = Stack::sharded(shards, "127.0.0.1:0", workers, &child_args, trace)?;
            println!("(self-hosting {shards} shard processes behind {})", stack.addr);
            (stack.addr.clone(), Some(stack))
        }
    };
    config.addr = addr.clone();
    config.clients = concurrency.unwrap_or(args.value("clients")?).max(1);
    config.requests_per_client = args.value("requests")?;
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
        return Err(usage_error("--trend self-hosts its serving stacks; it conflicts with --addr"));
    }
    if args.value_of::<String>("trace-out")?.is_some() {
        return Err(usage_error(
            "--trend boots many stacks; trace a single run without --trend instead",
        ));
    }
    let cell = loadgen_config(args, fidelity)?;
    let duration_s = cell.duration.map_or(0.0, |d| d.as_secs_f64());
    let child_args = stack::loadgen_child_args(args)?;
    let mut rows = Vec::new();
    let mut all_clean = true;
    for shards in [1, shards_n] {
        for clients in [16, 256, 1024] {
            println!("== {shards} shard(s), {clients} clients, {duration_s:.1}s closed-loop ==");
            let stack = Stack::sharded(shards, "127.0.0.1:0", clients.max(64), &child_args, None)?;
            let mut config = cell.clone();
            config.addr = stack.addr.clone();
            config.clients = clients;
            let report = run_loadgen(&config);
            stack.teardown();
            let report = report?;
            print!("{}", report.render());
            all_clean &= report.failed == 0;
            rows.push(stack::loadgen_row(&report, &config));
        }
    }
    stack::record_trend(rows)?;
    Ok(if all_clean { 0 } else { 1 })
}

pub(crate) fn cmd_trace_report(args: &Args) -> Result<i32, Box<dyn Error>> {
    let Some(path) = args.value_of::<String>("trace")? else {
        return Err(usage_error(
            "trace-report requires --trace <file> (produce one with explore --trace-out)",
        ));
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
    let top: usize = args.value("top")?;
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

pub(crate) fn cmd_check_metrics(args: &Args) -> Result<i32, Box<dyn Error>> {
    let Some(path) = args.value_of::<String>("file")? else {
        return Err(usage_error(
            "check-metrics requires --file <path> (a Prometheus text exposition)",
        ));
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

/// Ingests the `<elf>` operand of `ingest`/`workload-diff` as `name`
/// (default: the file stem). A missing or unreadable file and a named
/// ingestion error are usage errors (exit 2), so scripted callers can
/// tell bad input from runtime failures.
fn ingest_operand(
    args: &Args,
    name: Option<String>,
    config: dse_ingest::ExecConfig,
) -> Result<dse_ingest::Ingested, Box<dyn Error>> {
    let command = args.command().unwrap_or_default();
    let Some(path) = args.positionals().first() else {
        return Err(usage_error(format!(
            "{command} requires an ELF path: archdse {command} <elf> [options]\n\
             run `archdse help` for details"
        )));
    };
    let bytes = std::fs::read(path).map_err(|e| {
        usage_error(format!(
            "cannot read {path}: {e}\nexpected a statically linked RV64 ELF executable"
        ))
    })?;
    let stem = std::path::Path::new(path).file_stem().and_then(|s| s.to_str());
    let name = name.unwrap_or_else(|| stem.unwrap_or("workload").to_string());
    dse_ingest::ingest_elf(&name, &bytes, config).map_err(|e| usage_error(format!("{path}: {e}")))
}

pub(crate) fn cmd_ingest(args: &Args) -> Result<i32, Box<dyn Error>> {
    let config = dse_ingest::ExecConfig { max_instrs: args.value("max-instrs")? };
    let ingested = ingest_operand(args, args.value_of("name")?, config)?;
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

pub(crate) fn cmd_workload_diff(args: &Args) -> Result<i32, Box<dyn Error>> {
    let ingested = ingest_operand(args, None, dse_ingest::ExecConfig::default())?;
    let benchmark = parse_benchmark(&args.value::<String>("benchmark")?)?;
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
        for name in table::names() {
            assert!(table::find(name).is_some(), "{name}");
        }
        let declares =
            |command: &str, flag: &str| table::find(command).unwrap().flag(flag).is_some();
        assert!(declares("table2", "full"));
        assert!(declares("serve", "max-batch"));
        assert!(declares("serve", "shards"));
        assert!(declares("serve", "leakage"));
        assert!(declares("loadgen", "concurrency"));
        assert!(declares("loadgen", "trend"));
    }

    #[test]
    fn help_lists_every_serve_endpoint() {
        let help = table::usage().split_whitespace().collect::<Vec<_>>().join(" ");
        for route in archdse_serve::routes() {
            assert!(help.contains(&route), "help omits {route}");
        }
    }

    #[test]
    fn table_defaults_match_the_library_defaults() {
        let serve = args(&["serve"]);
        let config = ServeConfig::new(Explorer::for_benchmark(Benchmark::StringSearch));
        assert_eq!(serve.value::<usize>("workers").unwrap(), config.workers);
        assert_eq!(serve.value::<usize>("max-batch").unwrap(), config.batcher.max_batch_points);
        let delay = std::time::Duration::from_millis(serve.value("max-delay-ms").unwrap());
        assert_eq!(delay, config.batcher.max_delay);
        assert_eq!(serve.value::<usize>("queue-cap").unwrap(), config.batcher.queue_capacity);
        let max_instrs: u64 = args(&["ingest"]).value("max-instrs").unwrap();
        assert_eq!(max_instrs, dse_ingest::ExecConfig::default().max_instrs);
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
        // Zero threads is an error everywhere, never silently one.
        assert_eq!(run(&args(&["serve", "--threads", "0"])).unwrap(), 2);
        assert_eq!(run(&args(&["explore", "--threads", "0"])).unwrap(), 2);
        assert_eq!(run(&args(&["sweep", "--threads", "0"])).unwrap(), 2);
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
        // A switch takes no value, so the word after it is a stray operand.
        let a = args(&["trace-report", "--requests", "stray", "--trace", "f.jsonl"]);
        assert_eq!(run(&a).unwrap(), 2);
        assert_eq!(run(&args(&["sweep", "--general", "mm"])).unwrap(), 2);
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
