//! `archdse-perf`: the end-to-end and per-layer benchmark of the archdse
//! stack. See README.md for the workloads, metrics and how to compare two
//! commits.
//!
//! ```text
//! archdse-perf run [--workload W]... [--seed N] [--seconds S]
//!                  [--trace 0|1] [--smoke] [--json PATH]
//! ```
//!
//! `run` starts one child process per workload (`archdse-perf workload
//! W ...`), so set-up and peak memory are each workload's own, and prints
//! each child's summary followed by one JSON result line. The serve
//! workloads start their server as a further child
//! (`archdse-perf serve-child ...`), which runs the CLI's own `serve`.

mod explore;
mod layers;
mod report;
mod serve;
mod stats;
mod sweep;

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

use report::{Ctx, WorkloadResult, DEFAULT_SECONDS, DEFAULT_SEED};

type Workload = fn(&Ctx) -> WorkloadResult;

/// Every workload, in the order `run` runs them.
const WORKLOADS: &[(&str, Workload)] = &[
    ("explore-fig5", explore::run),
    ("sweep-hf", sweep::run),
    ("serve-fresh", serve::run_fresh),
    ("serve-hot", serve::run_hot),
];

/// A workload child that outlives this is killed, keeping every run well
/// inside three minutes.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

fn usage() -> String {
    format!(
        "\
usage: archdse-perf run [--workload W]... [--seed N] [--seconds S]
                        [--trace 0|1] [--smoke] [--json PATH]
  --workload W   explore-fig5 | sweep-hf | serve-fresh | serve-hot
                 (repeatable; default: all four)
  --seed N       input seed (default {DEFAULT_SEED}, the golden-digest seed)
  --seconds S    measured window per workload (default {DEFAULT_SECONDS})
  --trace 1      traced run: per-layer metrics instead of end-to-end ones
  --smoke        shorthand for --seconds 1
  --json PATH    results file (default archdse-perf/out/<rev>-<unix>.json)"
    )
}

#[derive(Debug)]
struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    json: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|(w, _)| w == name) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
                    return Err(format!("unknown workload {name:?} (one of {})", names.join(", ")));
                }
                opts.workloads.push(name.clone());
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => opts.seconds = 1.0,
            "--json" => opts.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().map(|(w, _)| w.to_string()).collect();
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let parsed = match args.first().map(String::as_str) {
        Some("run") => parse(rest).map(|o| run(&o)),
        Some("workload") => match rest.split_first() {
            Some((name, flags)) => parse(flags).map(|o| workload(name, &o)),
            None => Err("workload needs a name".into()),
        },
        Some("serve-child") => Ok(serve_child(rest)),
        _ => Err("expected a command".into()),
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", usage());
        ExitCode::from(2)
    })
}

/// Runs one workload in this process and prints its summary and its full
/// JSON result as the last line.
fn workload(name: &str, opts: &Options) -> ExitCode {
    let Some((_, run)) = WORKLOADS.iter().find(|(w, _)| *w == name) else {
        eprintln!("error: unknown workload {name:?}");
        return ExitCode::from(2);
    };
    let ctx = Ctx { seed: opts.seed, seconds: opts.seconds, traced: opts.traced };
    let mut result = run(&ctx);
    if !opts.traced {
        result.require_end_to_end();
    }
    print!("{}", result.render(opts.traced));
    let line =
        serde_json::to_string(&result.to_json(opts.traced)).expect("metric values are finite");
    println!("{line}");
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `current_exe args...`, capturing stdout; kills it past the
/// deadline. Returns whether it exited 0, and its stdout.
fn run_child(args: &[String]) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut stdout = child.stdout.take().expect("child stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let text = reader.join().expect("stdout reader panicked").map_err(|e| e.to_string())?;
    match status {
        Some(status) => Ok((status.success(), text)),
        None => Err(format!("{} was killed after {CHILD_DEADLINE:?}", args.join(" "))),
    }
}

fn run(opts: &Options) -> ExitCode {
    let mut all_ok = true;
    let mut results: Vec<(String, Value)> = Vec::new();
    for name in &opts.workloads {
        let args: Vec<String> = [
            "workload",
            name,
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            if opts.traced { "1" } else { "0" },
        ]
        .map(String::from)
        .to_vec();
        let outcome = run_child(&args).and_then(|(ok, text)| {
            let (summary, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
            println!("{summary}");
            let result: Value = serde_json::from_str(last.trim())
                .map_err(|e| format!("{name} printed no result line ({e})"))?;
            Ok((ok, result))
        });
        match outcome {
            Ok((ok, result)) => {
                all_ok &= ok;
                results.push((name.clone(), result));
            }
            Err(e) => {
                eprintln!("error: {e}");
                all_ok = false;
            }
        }
    }
    if let Err(e) = write_results(opts, &results) {
        eprintln!("error: writing the results file: {e}");
        all_ok = false;
    }
    let line = match results.as_slice() {
        [] => None,
        [(_, only)] => Some(contract_line(only)),
        many => Some(combined_line(many)),
    };
    if let Some(line) = line {
        println!("{}", serde_json::to_string(&line).expect("metric values are finite"));
    }
    if all_ok && results.len() == opts.workloads.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The four keys of a workload's result line, without `info`/`failures`.
fn contract_line(full: &Value) -> Value {
    let keys = ["correct", "attempted", "failed", "metrics"];
    Value::Map(
        keys.iter().map(|&k| (k.to_string(), full.get(k).cloned().unwrap_or_default())).collect(),
    )
}

/// Several workloads in one line: all must be correct, counts add, and
/// metrics are keyed `<workload>/<metric>`.
fn combined_line(results: &[(String, Value)]) -> Value {
    let field = |r: &Value, k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(0);
    let correct =
        results.iter().all(|(_, r)| r.get("correct").and_then(Value::as_bool) == Some(true));
    let metrics = results
        .iter()
        .flat_map(|(name, r)| {
            let entries = r.get("metrics").and_then(Value::as_map).unwrap_or(&[]);
            entries.iter().map(move |(metric, v)| (format!("{name}/{metric}"), v.clone()))
        })
        .collect();
    Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(results.iter().map(|(_, r)| field(r, "attempted")).sum())),
        ("failed".into(), Value::U64(results.iter().map(|(_, r)| field(r, "failed")).sum())),
        ("metrics".into(), Value::Map(metrics)),
    ])
}

/// The repository's git revision and whether tracked files differ from
/// it; `("unknown", None)` outside a git work tree (git is only asked
/// when the repository root itself holds `.git`).
fn git_state() -> (String, Option<bool>) {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    if !root.join(".git").exists() {
        return ("unknown".into(), None);
    }
    let git = |args: &[&str]| {
        let out = Command::new("git").arg("-C").arg(&root).args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            (rev, git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty()))
        }
        None => ("unknown".into(), None),
    }
}

/// Writes every workload's full result with its provenance to `--json`
/// (default `archdse-perf/out/<rev>-<unix>.json`; never `results/`).
fn write_results(opts: &Options, results: &[(String, Value)]) -> std::io::Result<()> {
    let (rev, dirty) = git_state();
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let path = opts.json.clone().unwrap_or_else(|| {
        let short = rev.get(..12).unwrap_or(&rev);
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("{short}-{unix}.json"))
    });
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let command: Vec<Value> = std::env::args().map(Value::Str).collect();
    let mode = if opts.traced { "traced" } else { "untraced" };
    let provenance = Value::Map(vec![
        ("git_rev".into(), Value::Str(rev)),
        ("dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("command_line".into(), Value::Seq(command)),
        ("seed".into(), Value::U64(opts.seed)),
        ("seconds".into(), Value::F64(opts.seconds)),
        ("mode".into(), Value::Str(mode.into())),
        ("unix_time".into(), Value::U64(unix)),
    ]);
    let doc = Value::Map(vec![
        ("provenance".into(), provenance),
        ("workloads".into(), Value::Map(results.to_vec())),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(&doc).map_err(std::io::Error::other)?;
    std::fs::write(&path, text + "\n")?;
    eprintln!("archdse-perf: wrote {}", path.display());
    Ok(())
}

/// Runs the CLI's `serve` command with `args`. The benchmark holds this
/// process's stdin open; when it closes (the benchmark exited or was
/// killed) the server exits too, so no server outlives its benchmark.
fn serve_child(args: &[String]) -> ExitCode {
    // Detached on purpose: it blocks in `read` until the parent goes away,
    // and a normal return from `main` ends the process with it.
    std::thread::spawn(|| {
        let mut buf = [0u8; 64];
        while matches!(std::io::stdin().read(&mut buf), Ok(n) if n > 0) {}
        std::process::exit(3);
    });
    let tokens = std::iter::once("serve".to_string()).chain(args.iter().cloned());
    let parsed = match archdse_cli::Args::parse(tokens) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match archdse_cli::commands::run(&parsed) {
        Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
