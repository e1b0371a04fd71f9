//! The command table: every subcommand and flag the CLI accepts, declared
//! once. The help text, the unknown-command, unknown-option and
//! stray-operand checks, the parser's switch handling and every flag
//! default come from [`TABLE`].

use std::error::Error;

use archdse::experiments::{
    ablations, fig5, fig6, fig7, table2, AblationConfig, AblationResult, Fig5Config, Fig5Result,
    Fig6Config, Fig6Result, Fig7Config, Fig7Result, Table2Config, Table2Result,
};

use crate::commands::{self as cmd, usage_error};
use crate::{ArgError, Args};

/// One flag of a subcommand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flag {
    pub(crate) name: &'static str,
    /// The value placeholder, e.g. `<mm2>`; `None` marks a switch, which
    /// never takes a value.
    pub(crate) value: Option<&'static str>,
    /// What an absent flag reads as.
    default: Option<&'static str>,
    /// `(other flag, default)` pairs that replace `default` while the
    /// other flag is given; the first match wins.
    default_with: &'static [(&'static str, &'static str)],
    help: &'static str,
}

impl Flag {
    const fn switch(name: &'static str, help: &'static str) -> Self {
        Self { name, value: None, default: None, default_with: &[], help }
    }

    const fn value(name: &'static str, value: &'static str, help: &'static str) -> Self {
        Self { name, value: Some(value), default: None, default_with: &[], help }
    }

    const fn default(self, default: &'static str) -> Self {
        Self { default: Some(default), ..self }
    }

    /// The default an absent flag reads as, given the flags `args` holds.
    pub(crate) fn default_for(&self, args: &Args) -> Option<&'static str> {
        let with = self.default_with.iter().find(|(other, _)| args.given(other));
        with.map(|&(_, value)| value).or(self.default)
    }
}

type Handler = fn(&Args) -> Result<i32, Box<dyn Error>>;

/// One subcommand: its name, operand, summary, flags and handler.
pub(crate) struct Command {
    pub(crate) name: &'static str,
    /// The positional operand it takes, e.g. `<elf>`.
    operand: Option<&'static str>,
    summary: &'static str,
    flags: &'static [Flag],
    pub(crate) run: Handler,
}

impl Command {
    const fn new(
        name: &'static str,
        summary: &'static str,
        flags: &'static [Flag],
        run: Handler,
    ) -> Self {
        Self { name, operand: None, summary, flags, run }
    }

    const fn operand(self, operand: &'static str) -> Self {
        Self { operand: Some(operand), ..self }
    }

    pub(crate) fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// Rejects undeclared flags and stray operands (usage errors, exit
    /// 2), then valued flags given without a value.
    pub(crate) fn check(&self, args: &Args) -> Result<(), Box<dyn Error>> {
        let unknown: Vec<String> = args
            .given_flags()
            .filter(|(name, _)| self.flag(name).is_none())
            .map(|(name, _)| format!("--{name}"))
            .collect();
        if !unknown.is_empty() {
            let valid: Vec<String> = self.flags.iter().map(|f| format!("--{}", f.name)).collect();
            let valid = match valid.is_empty() {
                true => format!("`{}` takes no options", self.name),
                false => format!("valid options: {}", valid.join(", ")),
            };
            let unknown = unknown.join(", ");
            return Err(usage_error(format!(
                "unknown option(s) for `{}`: {unknown}\n{valid}\nrun `archdse help` for details",
                self.name
            )));
        }
        let extra = args.positionals().get(usize::from(self.operand.is_some())..).unwrap_or(&[]);
        if !extra.is_empty() {
            let extra: Vec<String> = extra.iter().map(|t| format!("{t:?}")).collect();
            return Err(usage_error(format!(
                "unexpected argument(s) for `{}`: {}\nrun `archdse help` for details",
                self.name,
                extra.join(", ")
            )));
        }
        let is_switch = |name| self.flag(name).is_some_and(|f| f.value.is_none());
        match args.given_flags().find(|&(name, value)| value.is_none() && !is_switch(name)) {
            Some((name, _)) => Err(Box::new(ArgError::MissingValue(name.to_string()))),
            None => Ok(()),
        }
    }
}

/// The row of `name`, if it is a subcommand.
pub(crate) fn find(name: &str) -> Option<&'static Command> {
    TABLE.iter().find(|c| c.name == name)
}

/// Every subcommand name, in table order.
pub(crate) fn names() -> Vec<&'static str> {
    TABLE.iter().map(|c| c.name).collect()
}

/// The `archdse help` text.
pub(crate) fn usage() -> String {
    let mut out = String::from(
        "archdse — explainable FNN + multi-fidelity RL micro-architecture DSE\n\n\
         USAGE:\n  archdse <COMMAND> [OPTIONS]\n\nCOMMANDS:\n",
    );
    for command in TABLE {
        let operand = command.operand.map(|o| format!(" {o}")).unwrap_or_default();
        help_row(&mut out, &format!("  {}{operand}", command.name), command.summary, None);
        for flag in command.flags {
            let value = flag.value.map(|v| format!(" {v}")).unwrap_or_default();
            let mut defaults: Vec<String> =
                flag.default_with.iter().map(|(other, v)| format!("{v} with --{other}")).collect();
            defaults.extend(flag.default.map(str::to_string));
            let default =
                (!defaults.is_empty()).then(|| format!("(default {})", defaults.join(", ")));
            let head = format!("      --{}{value}", flag.name);
            help_row(&mut out, &head, flag.help, default.as_deref());
        }
    }
    out
}

/// Appends `head` padded to the help column, then `text` and the
/// unbroken `suffix` word-wrapped within the line width.
fn help_row(out: &mut String, head: &str, text: &str, suffix: Option<&str>) {
    const COLUMN: usize = 29;
    const WIDTH: usize = 79;
    let mut line = format!("{head:<COLUMN$}");
    for word in text.split_whitespace().chain(suffix) {
        if line.len() > COLUMN && line.len() + 1 + word.len() > WIDTH {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(COLUMN);
        }
        if line.len() > COLUMN {
            line.push(' ');
        }
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

const BENCHMARK: Flag =
    Flag::value("benchmark", "<name>", "dijkstra|mm|fp-vvadd|quicksort|fft|ss").default("mm");
const GENERAL: Flag = Flag::switch("general", "average the six benchmarks instead");
const AREA: Flag = Flag::value("area", "<mm2>", "area limit").default("8.0");
const LEAKAGE: Flag = Flag::value("leakage", "<mw>", "optional static-power budget");
const SEED: Flag = Flag::value("seed", "<n>", "master seed").default("0");
const TRACE_LEN: Flag = Flag::value("trace-len", "<n>", "trace length");
const THREADS: Flag = Flag::value(
    "threads",
    "<n>",
    "HF worker threads (default: DSE_THREADS env var, else all cores; results are identical)",
);
const JSON: Flag = Flag::value("json", "<file>", "also write the result as JSON");
const ARTIFACT: &[Flag] = &[Flag::switch("full", "paper-scale budgets (default: quick)"), JSON];

/// Every subcommand, in help order. Laid out by hand, one row per
/// command or flag, so it reads like the help text it generates.
#[rustfmt::skip]
static TABLE: &[Command] = &[
    Command::new("space", "print the Table 1 design space", &[], cmd::cmd_space),
    Command::new("explore", "run one DSE flow and print design + rules", &[
        BENCHMARK, GENERAL, AREA, LEAKAGE, SEED,
        Flag::value("lf-episodes", "<n>", "LF training episodes").default("300"),
        Flag::value("hf-budget", "<n>", "HF simulations").default("9"),
        Flag::value("tiers", "<2|3>", "fidelity tiers: 2 = LF+HF, 3 adds the online-learned mid \
            tier with gate routing").default("2"),
        Flag::value("gate-threshold", "<e>", "learned-tier confidence gate: answer when the \
            conformal error bound is below e (3-tier runs only)").default("0.05"),
        TRACE_LEN.default("30000"),
        THREADS,
        Flag::value("save-fnn", "<file>", "persist the trained network as JSON"),
        Flag::value("trace-out", "<file>", "write a JSONL span/event trace of the run"),
        Flag::value("metrics-out", "<file>", "dump the metrics registry as Prometheus text"),
    ], cmd::cmd_explore),
    Command::new("sweep", "simulate a spread of designs in one parallel batch and tabulate their \
        CPIs", &[
        BENCHMARK, GENERAL,
        Flag::value("count", "<n>", "designs, evenly spaced over the space").default("24"),
        TRACE_LEN.default("10000"), THREADS, SEED, JSON,
    ], cmd::cmd_sweep),
    Command::new("explain", "walk a saved network greedily, explaining each decision's top rules", &[
        Flag::value("fnn", "<file>", "trained network from `explore --save-fnn` (required)"),
        BENCHMARK, AREA,
        Flag::value("steps", "<n>", "decisions to explain").default("5"),
    ], cmd::cmd_explain),
    Command::new("serve", "run the HTTP evaluation service; endpoints: GET /healthz, GET \
        /metrics, GET /debug/requests, POST /v1/evaluate, POST /v1/explain, POST /v1/explore, \
        POST /v1/workloads, GET /v1/jobs/<id>, POST /v1/shutdown", &[
        Flag::value("addr", "<host:port>", "bind address; port 0 picks an ephemeral port")
            .default("127.0.0.1:8711"),
        BENCHMARK, GENERAL, AREA, LEAKAGE, TRACE_LEN.default("10000"), SEED, THREADS,
        Flag::value("workers", "<n>", "connection workers").default("4"),
        Flag::value("max-batch", "<n>", "coalescer points per batch").default("64"),
        Flag::value("max-delay-ms", "<n>", "shortest coalescer window; 0 submits what is queued \
            at once, and batches form behind a running one").default("0"),
        Flag::value("queue-cap", "<n>", "queue depth before 503").default("128"),
        Flag::value("fnn", "<file>", "serve a trained network for /v1/explain"),
        Flag::value("shards", "<n>", "fork n shard worker processes (each owning a hash slice of \
            the design space) behind a front router bound to --addr; 1 is a single server, no \
            router").default("1"),
        Flag::value("router-workers", "<n>", "router proxy handlers; size at the peak concurrency \
            to serve without pushback (only with --shards > 1)").default("256"),
        Flag::value("trace-out", "<file>", "write a JSONL request trace; a sharded run writes the \
            router's records here plus one <file>.shardN per worker process (merge them with \
            trace-report --requests)"),
        Flag::value("trace-sample", "<n>", "trace 1 in n requests, chosen by a deterministic \
            trace-id hash (1 = every request; 0 = none)").default("1"),
        Flag::value("shard-id", "<n>", "stamp trace records with this shard number; set by a \
            sharded parent on its worker processes"),
    ], cmd::cmd_serve),
    Command::new("loadgen", "hammer /v1/evaluate with concurrent clients and report how the \
        coalescer batched them; a plain run prints its report and writes no file", &[
        Flag::value("addr", "<host:port>", "target server (default: self-host a quick one)"),
        Flag::value("clients", "<n>", "concurrent clients").default("4"),
        Flag::value("requests", "<n>", "requests per client").default("8"),
        Flag::value("concurrency", "<c>", "closed-loop saturating mode: c clients each keep one \
            request in flight on a keep-alive connection until --duration elapses, retrying \
            503s with backoff"),
        Flag { default_with: &[("trend", "3"), ("concurrency", "2")],
            ..Flag::value("duration", "<s>", "closed-loop run length in seconds") },
        Flag::value("shards", "<n>", "self-host n shard worker processes behind a router and \
            hammer the router (conflicts with --addr)").default("1"),
        Flag::switch("trend", "sweep {1, --shards} shard stacks across {16, 256, 1024} clients \
            closed-loop and record every row in results/BENCH_loadgen.json"),
        Flag::value("points", "<n>", "design points per request").default("4"),
        Flag::value("fidelity", "<name>", "tier to request: lf|learned|hf, or auto to let the \
            uncertainty gate route").default("lf"),
        Flag::value("seed", "<n>", "point-choice seed").default("1"),
        Flag::value("trace-len", "<n>", "self-hosted servers' trace length").default("2000"),
        Flag::value("queue-cap", "<n>", "self-hosted servers' eval queue depth").default("128"),
        Flag::switch("trace", "send a client-generated X-ArchDSE-Trace id with every request and \
            report the client RTT vs server-reported-time gap from the Server-Timing response \
            header"),
        Flag::value("trace-out", "<file>", "trace the self-hosted target (router records here, \
            one <file>.shardN per shard worker); conflicts with --addr"),
        Flag::value("metrics-out", "<file>", "dump the target's (aggregated) Prometheus \
            exposition after the run"),
    ], cmd::cmd_loadgen),
    Command::new("trace-report", "summarize a JSONL trace from --trace-out: per-phase wall time, \
        per-fidelity budget totals cross-checked against the ledger, and the hottest spans", &[
        Flag::value("trace", "<file>", "the trace to read (required); --requests mode accepts a \
            comma-separated list"),
        Flag::value("top", "<n>", "slowest spans to list").default("10"),
        Flag::switch("requests", "per-request timeline mode: merge request records across router \
            + shard trace files, report per-phase p50/p95/p99 and verify every proxied router \
            span joins its shard span(s) and phase sums fit the wall time"),
    ], cmd::cmd_trace_report),
    Command::new("check-metrics", "validate a Prometheus text exposition (from --metrics-out or \
        /metrics)", &[
        Flag::value("file", "<path>", "the exposition to check (required)"),
    ], cmd::cmd_check_metrics),
    Command::new("ingest", "run a statically linked RV64 ELF through the functional executor \
        and characterize it", &[
        Flag::value("name", "<s>", "workload name (default: the ELF file stem)"),
        Flag::value("max-instrs", "<n>", "executor instruction budget").default("50000000"),
        Flag::value("trace-out", "<file>", "write the instruction stream as a compact ADTF trace \
            file"),
        Flag::value("profile-out", "<file>", "write the characterized workload profile as JSON"),
    ], cmd::cmd_ingest).operand("<elf>"),
    Command::new("workload-diff", "ingest an ELF and diff its profile against a synthetic \
        benchmark profile; the report persists to results/workload_diff.json", &[
        BENCHMARK,
        Flag::value("golden", "<file>", "also compare against a golden profile JSON; a mismatch \
            exits 1"),
        JSON,
    ], cmd::cmd_workload_diff).operand("<elf>"),
    Command::new("table2", "regenerate Table 2: LF vs HF regret per benchmark", ARTIFACT,
        |args| cmd::artifact(args, Table2Config::quick, table2, Table2Result::to_markdown)),
    Command::new("fig5", "regenerate Fig. 5: general-purpose DSE versus the baseline optimizers",
        ARTIFACT, |args| cmd::artifact(args, Fig5Config::quick, fig5, Fig5Result::to_markdown)),
    Command::new("fig6", "regenerate Fig. 6: convergence under different membership-center \
        initializations", ARTIFACT,
        |args| cmd::artifact(args, Fig6Config::quick, fig6, Fig6Result::to_markdown)),
    Command::new("fig7", "regenerate Fig. 7: embedding a designer preference into the rule base",
        ARTIFACT, |args| cmd::artifact(args, Fig7Config::quick, fig7, Fig7Result::to_markdown)),
    Command::new("ablations", "run the ablation study over the framework's design choices",
        ARTIFACT,
        |args| cmd::artifact(args, AblationConfig::quick, ablations, AblationResult::to_markdown)),
    Command::new("help", "show this text", &[], cmd::cmd_help),
];
