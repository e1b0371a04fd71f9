//! `sweep-hf`: cold batches of random designs through the HF simulator.

use std::collections::HashSet;
use std::time::Instant;

use archdse::eval::SimulatorHf;
use dse_exec::Evaluator;
use dse_sim::{BatchSimulator, CoreConfig, ExpandedTrace};
use dse_space::{DesignPoint, DesignSpace};
use dse_workloads::{Benchmark, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use crate::layers::TimedEvaluator;
use crate::report::{timed_setup, Ctx, WorkloadResult};
use crate::stats::{cpi_digest, mean, ms, ratio};

/// Designs per `evaluate_batch` call.
const BATCH: usize = 64;
/// Instructions per benchmark trace; every design runs all six.
const TRACE_LEN: usize = 30_000;
/// The traces are the same for every `--seed`, so seeds vary designs only.
const TRACE_SEED: u64 = 0;
/// One design in this many is re-checked on a one-thread simulator.
const CHECK_EVERY: usize = 16;
/// Traced runs re-run every this-many-th batch on one thread.
const REPACK_EVERY: usize = 4;

fn simulator() -> SimulatorHf {
    SimulatorHf::for_benchmarks(&Benchmark::ALL, TRACE_LEN, TRACE_SEED, 1.0)
}

/// An endless stream of distinct random designs drawn from `seed`.
struct Designs {
    rng: StdRng,
    seen: HashSet<u64>,
}

impl Designs {
    fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed ^ 0x5EE9_D351_6E5C_0DE5), seen: HashSet::new() }
    }

    fn batch(&mut self, space: &DesignSpace) -> Vec<DesignPoint> {
        let mut out = Vec::with_capacity(BATCH);
        while out.len() < BATCH {
            let code = self.rng.gen_range(0..space.size());
            if self.seen.insert(code) {
                out.push(space.decode(code));
            }
        }
        out
    }
}

/// One-thread lockstep re-run of `points` over each trace: the per-design
/// mean CPI (summed in trace order, as the evaluator averages), plus the
/// instructions and cycles simulated.
fn run_pack_1thread(
    space: &DesignSpace,
    points: &[DesignPoint],
    expanded: &[ExpandedTrace],
    pack_size: usize,
) -> (Vec<f64>, u64, u64) {
    let configs: Vec<CoreConfig> =
        points.iter().map(|p| CoreConfig::from_point(space, p)).collect();
    let mut sums = vec![0.0f64; configs.len()];
    let (mut instructions, mut cycles) = (0u64, 0u64);
    let mut sim = BatchSimulator::new();
    for trace in expanded {
        for (pack_index, pack) in configs.chunks(pack_size).enumerate() {
            for (i, r) in sim.run_pack(pack, trace).iter().enumerate() {
                sums[pack_index * pack_size + i] += r.cpi();
                instructions += r.instructions;
                cycles += r.cycles;
            }
        }
    }
    let means = sums.into_iter().map(|s| s / expanded.len() as f64).collect();
    (means, instructions, cycles)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> WorkloadResult {
    let mut result = WorkloadResult::new("sweep-hf");
    let space = DesignSpace::boom();
    let mut designs = Designs::new(ctx.seed);

    let (setup_s, mut hf) = timed_setup(simulator);
    // Traced runs also build the traces step by step, to time generation
    // and expansion apart, and keep the expansions for one-thread re-runs.
    let mut expanded = Vec::new();
    if ctx.traced {
        let start = Instant::now();
        let traces: Vec<Trace> =
            Benchmark::ALL.iter().map(|b| b.trace_scaled(TRACE_LEN, TRACE_SEED, 1.0)).collect();
        result.set("workloads.trace_gen_ms", ms(start.elapsed()));
        let start = Instant::now();
        expanded = traces.iter().map(ExpandedTrace::expand).collect();
        result.set("sim.expand_ms", ms(start.elapsed()));
    }

    let window = ctx.window();
    let mut rows: Vec<(u64, f64)> = Vec::new();
    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut repacks: Vec<(f64, f64, u64)> = Vec::new(); // (1-thread ms, batch ms, instructions)
    let mut first_batch_cycles = 0u64;
    let mut batches = 0usize;
    while window.open(batches, if ctx.traced { 2 } else { 1 }) {
        let points = designs.batch(&space);
        // Traced runs alternate the bare call with the metered one, so the
        // wrapper's own cost shows as `obs.trace_overhead_pct`.
        let metered = ctx.traced && batches % 2 == 1;
        let start = Instant::now();
        let evals = if metered {
            TimedEvaluator::new(&mut hf).evaluate_batch(&space, &points)
        } else {
            hf.evaluate_batch(&space, &points)
        };
        let batch_ms = ms(start.elapsed());
        if metered { &mut traced_latencies } else { &mut latencies }.push(batch_ms);
        result.attempted += 1;
        let ok = evals.len() == points.len() && evals.iter().all(|ev| !ev.cached);
        if !ok {
            result.failed += 1;
        }
        let batch_rows: Vec<(u64, f64)> =
            points.iter().zip(&evals).map(|(p, ev)| (space.encode(p), ev.cpi)).collect();
        if ctx.traced && batches.is_multiple_of(REPACK_EVERY) {
            let start = Instant::now();
            let (cpis, instructions, cycles) =
                run_pack_1thread(&space, &points, &expanded, hf.pack_size());
            repacks.push((ms(start.elapsed()), batch_ms, instructions));
            if batches == 0 {
                first_batch_cycles = cycles;
            }
            let same = cpis.iter().zip(&batch_rows).all(|(a, (_, b))| a.to_bits() == b.to_bits());
            result.check(same, || format!("batch {batches}: one-thread run_pack CPIs differ"));
        }
        rows.extend(batch_rows);
        batches += 1;
    }
    let elapsed = window.start.elapsed().as_secs_f64();
    let peak_rss = crate::stats::peak_rss_mb("self");

    // One design in CHECK_EVERY, re-simulated on a fresh one-thread evaluator.
    let sample: Vec<(u64, f64)> = rows.iter().step_by(CHECK_EVERY).copied().collect();
    let points: Vec<DesignPoint> = sample.iter().map(|&(code, _)| space.decode(code)).collect();
    let expected = simulator().with_threads(1).cpi_batch(&space, &points);
    for (&(code, cpi), want) in sample.iter().zip(expected) {
        result.check(cpi.to_bits() == want.to_bits(), || {
            format!("design {code}: CPI {cpi} but a one-thread simulator says {want}")
        });
    }
    result.digest(ctx.seed, cpi_digest(&rows[..BATCH], &[]));
    result.info("designs", Value::U64(rows.len() as u64));
    result.info("threads", Value::U64(hf.threads() as u64));

    let all: Vec<f64> = latencies.iter().chain(&traced_latencies).copied().collect();
    result.set("setup_s", setup_s);
    result.latencies(&all);
    result.set("throughput_per_s", rows.len() as f64 / elapsed);
    result.set("peak_rss_mb", peak_rss.unwrap_or(0.0));
    if ctx.traced {
        let batch_ms = mean(&all);
        result.set("core.evaluate_batch_ms", batch_ms);
        result.set("sim.hf_eval_ms", batch_ms);
        let one_thread_ms: f64 = repacks.iter().map(|r| r.0).sum();
        let parallel_ms: f64 = repacks.iter().map(|r| r.1).sum();
        let instructions: u64 = repacks.iter().map(|r| r.2).sum();
        result.set("sim.run_pack_ms", one_thread_ms / repacks.len() as f64);
        result.set("sim.lane_minstr_per_s", ratio(instructions as f64 / 1e3, one_thread_ms));
        result.set(
            "exec.parallel_efficiency",
            ratio(one_thread_ms, parallel_ms * hf.threads() as f64),
        );
        result.set("sim.simulated_cycles", first_batch_cycles as f64);
        result.trace_overhead(&traced_latencies, &latencies);
    }
    result
}
