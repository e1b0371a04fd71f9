//! Metric tables, the per-workload result, and its JSON forms.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

use crate::stats::{mean, percentile, ratio, tail};

/// The seed the golden digests ([`golden_digest`]) were recorded at.
pub const DEFAULT_SEED: u64 = 0;

/// Default measured window per workload, in seconds (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Groups of set-ups per run; `setup_s` is the median of the groups'
/// mean set-up times.
pub const SETUP_GROUPS: usize = 9;
/// Set-ups per group. One set-up takes 3–60 ms, so a single one moves by
/// a millisecond of process-spawn or scheduling jitter, and some, such as
/// a server boot, fall into two modes about 20% apart. A median of single
/// set-ups jumps between the modes; a median of group means moves
/// smoothly.
pub const SETUP_PER_GROUP: usize = 4;

/// End-to-end metrics: every workload reports all of them untraced.
/// `latency_*` time one operation (a campaign, a 64-design batch, or a
/// request); `throughput_per_s` counts campaigns, designs or requests.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_mean_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run. A layer the workload never enters
/// reads 0 (see README.md for which workload moves which metric).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("analytical.mask_ms", "ms"),
    ("analytical.mask_calls", "count"),
    ("analytical.cpi_ms", "ms"),
    ("analytical.cpi_calls", "count"),
    ("fnn.policy_ms", "ms"),
    ("area.fits_ms", "ms"),
    ("area.fits_calls", "count"),
    ("mfrl.lf_phase_ms", "ms"),
    ("mfrl.hf_phase_ms", "ms"),
    ("core.build_ms", "ms"),
    ("exec.route_ms", "ms"),
    ("exec.ledger_self_ms", "ms"),
    ("exec.hf_batches", "count"),
    ("exec.hf_designs_simulated", "count"),
    ("exec.hf_hit_ratio", "ratio"),
    ("sim.hf_eval_ms", "ms"),
    ("core.evaluate_batch_ms", "ms"),
    ("sim.run_pack_ms", "ms"),
    ("sim.lane_minstr_per_s", "Minstr/s"),
    ("exec.parallel_efficiency", "ratio"),
    ("sim.simulated_cycles", "count"),
    ("workloads.trace_gen_ms", "ms"),
    ("sim.expand_ms", "ms"),
    ("serve.parse_ms_mean", "ms"),
    ("serve.parse_ms_tail", "ms"),
    ("serve.queue_ms_mean", "ms"),
    ("serve.queue_ms_tail", "ms"),
    ("serve.coalesce_ms_mean", "ms"),
    ("serve.coalesce_ms_tail", "ms"),
    ("serve.exec_ms_mean", "ms"),
    ("serve.exec_ms_tail", "ms"),
    ("serve.serialize_ms_mean", "ms"),
    ("serve.serialize_ms_tail", "ms"),
    ("serve.app_ms_mean", "ms"),
    ("serve.app_ms_tail", "ms"),
    ("reactor.gap_ms_mean", "ms"),
    ("reactor.gap_ms_tail", "ms"),
    ("serve.requests_per_batch", "ratio"),
    ("serve.points_per_batch", "ratio"),
    ("serve.coalescer_wait_ms", "ms"),
    ("serve.reactor_wakeups_per_req", "ratio"),
    ("client.send_lag_ms_p95", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// `cpi_digest` of each workload at [`DEFAULT_SEED`]; a run at that seed
/// whose digest differs fails its correctness check.
pub fn golden_digest(workload: &str) -> Option<u64> {
    match workload {
        "explore-fig5" => Some(0x18e2_ee23_576d_dc24),
        "sweep-hf" => Some(0xd652_39dd_2e21_8d24),
        "serve-fresh" => Some(0x4eba_9f6f_6750_990e),
        "serve-hot" => Some(0x5488_fd66_f9b2_90be),
        _ => None,
    }
}

/// How one workload process is asked to run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload input seed.
    pub seed: u64,
    /// Measured window length.
    pub seconds: f64,
    /// Drive the layer wrappers and report per-layer metrics.
    pub traced: bool,
}

impl Ctx {
    /// Opens the measured window now.
    pub fn window(&self) -> Window {
        Window { start: Instant::now(), seconds: self.seconds }
    }
}

/// The measured window: operations keep starting until it has elapsed
/// and at least the workload's minimum (its digest prefix) has run.
pub struct Window {
    /// When measurement began.
    pub start: Instant,
    seconds: f64,
}

impl Window {
    /// Whether another operation should start after `done` of them.
    pub fn open(&self, done: usize, min_ops: usize) -> bool {
        done < min_ops || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Runs `setup` [`SETUP_GROUPS`] × [`SETUP_PER_GROUP`] times, dropping
/// all but the last result outside the timed spans; returns `setup_s`
/// (see [`setup_seconds`]) and that result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_GROUPS * SETUP_PER_GROUP);
    let mut last = None;
    for _ in 0..SETUP_GROUPS * SETUP_PER_GROUP {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (setup_seconds(&times), last.expect("at least one set-up ran"))
}

/// The median over consecutive groups of [`SETUP_PER_GROUP`] set-up
/// times of each group's mean.
pub fn setup_seconds(times: &[f64]) -> f64 {
    let group_means: Vec<f64> = times.chunks(SETUP_PER_GROUP).map(mean).collect();
    percentile(&group_means, 50.0)
}

/// One workload's measured outcome.
#[derive(Debug)]
pub struct WorkloadResult {
    /// The workload name.
    pub workload: &'static str,
    /// Operations started in the window.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// Failed correctness checks, one message each.
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    info: Vec<(String, Value)>,
}

impl WorkloadResult {
    /// An empty result for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both metric tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name);
        assert!(known, "metric {name} is in neither table");
        self.metrics.insert(name, value);
    }

    /// Records `latency_mean_ms` and `latency_tail_ms` of the operations'
    /// times, with the sample count and the tail's percentile as info.
    pub fn latencies(&mut self, ms: &[f64]) {
        let (p, tail) = tail(ms);
        self.set("latency_mean_ms", mean(ms));
        self.set("latency_tail_ms", tail);
        self.info("latency_samples", Value::U64(ms.len() as u64));
        self.info("latency_tail_percentile", Value::F64(p));
    }

    /// Records `obs.trace_overhead_pct`: the mean time of the traced
    /// operations over that of the untraced ones in the same run, minus 1.
    pub fn trace_overhead(&mut self, traced_ms: &[f64], untraced_ms: &[f64]) {
        let slowdown = ratio(mean(traced_ms), mean(untraced_ms));
        self.set("obs.trace_overhead_pct", (slowdown - 1.0) * 100.0);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records an informational value (printed and kept in the JSON file).
    pub fn info(&mut self, key: &str, value: Value) {
        self.info.push((key.to_string(), value));
    }

    /// Records the CPI digest, checking it against the golden one when
    /// the run used [`DEFAULT_SEED`].
    pub fn digest(&mut self, seed: u64, digest: u64) {
        self.info("cpi_digest", Value::Str(format!("{digest:016x}")));
        if seed == DEFAULT_SEED {
            if let Some(golden) = golden_digest(self.workload) {
                self.check(digest == golden, || {
                    format!("cpi_digest {digest:016x} differs from the golden {golden:016x}")
                });
            }
        }
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Fails the run if an untraced run left an end-to-end metric
    /// unmeasured (a workload that stopped early, such as on a failed
    /// server boot).
    pub fn require_end_to_end(&mut self) {
        for &(name, _) in END_TO_END {
            let measured = self.metrics.contains_key(name);
            self.check(measured, || format!("end-to-end metric {name} was not measured"));
        }
    }

    /// The full result: `correct`, `attempted`, `failed`, the metrics of
    /// the run's kind (all end-to-end ones, or all per-layer ones, with
    /// unmeasured ones at 0), then `info` and `failures`.
    pub fn to_json(&self, traced: bool) -> Value {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let entry = vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.to_string(), Value::Map(entry))
            })
            .collect();
        let failures = self.failures.iter().map(|f| Value::Str(f.clone())).collect();
        Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
            ("info".to_string(), Value::Map(self.info.clone())),
            ("failures".to_string(), Value::Seq(failures)),
        ])
    }

    /// Human-readable summary lines.
    pub fn render(&self, traced: bool) -> String {
        let mut out = format!(
            "== {} ({} attempted, {} failed, {})\n",
            self.workload,
            self.attempted,
            self.failed,
            if self.correct() { "correct" } else { "INCORRECT" }
        );
        for (key, value) in &self.info {
            let text = serde_json::to_string(value).unwrap_or_default();
            out.push_str(&format!("  {key:<28} {text}\n"));
        }
        let table = if traced { PER_LAYER } else { END_TO_END };
        for &(name, unit) in table {
            if let Some(v) = self.metrics.get(name) {
                out.push_str(&format!("  {name:<28} {v:.4} {unit}\n"));
            }
        }
        for failure in &self.failures {
            out.push_str(&format!("  CHECK FAILED: {failure}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables must list exactly the metrics `BENCHMARK.json` declares,
    /// with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn setup_seconds_is_the_median_group_mean() {
        // Two modes, 3 ms and 4 ms: single set-ups would give a median of
        // either; the group means sit between them.
        let times = [3.0, 4.0, 3.0, 4.0, 3.0, 3.0, 4.0, 4.0, 9.0, 9.0, 9.0, 9.0];
        assert_eq!(setup_seconds(&times), 3.5);
    }

    #[test]
    fn traced_json_fills_unvisited_layers_with_zero() {
        let mut r = WorkloadResult::new("sweep-hf");
        r.attempted = 3;
        r.set("sim.run_pack_ms", 12.5);
        let json = serde_json::to_string(&r.to_json(true)).unwrap();
        assert!(json.starts_with(r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"#));
        assert!(json.contains(r#""sim.run_pack_ms":{"value":12.5,"unit":"ms"}"#), "{json}");
        assert!(json.contains(r#""analytical.mask_ms":{"value":0.0,"unit":"ms"}"#), "{json}");
    }
}
