//! The lane kernel vs the retained cycle-by-cycle reference walk:
//! single-thread simulation throughput on all six benchmarks.
//!
//! Every run first asserts full `SimResult` bit-equality against
//! [`ReferenceSimulator`] — the per-benchmark runs and every measured
//! pack, lane by lane — so quick mode (`cargo bench -- --test`, and
//! `cargo test --benches`, which passes no `--bench`) catches
//! divergence without timing anything. A full run then measures
//! instructions per second and records the series in
//! `results/BENCH_sim_kernel.json`, the perf trajectory later changes
//! compare against; quick mode skips the timing and leaves that
//! artifact alone.
//!
//! The per-benchmark section times [`Simulator`] — a one-lane pack that
//! expands its trace on every run — on a reused instance against the
//! reference's per-evaluation cold construction.
//!
//! The batch section reports lane-kernel throughput at K ∈ {1, 8, 64}:
//! a K-lane [`BatchSimulator`] pack over one shared [`ExpandedTrace`]
//! versus the same K designs run one at a time through a reused
//! one-lane `BatchSimulator` over the same expansion.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use dse_bench::{print_artifact, write_results_artifact};
use dse_sim::{BatchSimulator, CoreConfig, ExpandedTrace, ReferenceSimulator, Simulator};
use dse_space::DesignSpace;
use dse_workloads::{Benchmark, Trace};

const TRACE_LEN: usize = 30_000;
const TRACE_SEED: u64 = 7;
/// Per-engine measurement floor: repeat until this much time is spent.
const MIN_MEASURE: std::time::Duration = std::time::Duration::from_millis(300);
const MIN_REPS: u32 = 3;
/// Lockstep pack sizes measured against one-at-a-time lanes.
const BATCH_SIZES: [usize; 3] = [1, 8, 64];
/// The trace the batch section sweeps.
const BATCH_BENCH: Benchmark = Benchmark::Dijkstra;

/// Instructions per second of `run`, which simulates `instructions`.
fn throughput(instructions: u64, mut run: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut reps = 0u32;
    let mut checksum = 0u64;
    while reps < MIN_REPS || start.elapsed() < MIN_MEASURE {
        checksum = checksum.wrapping_add(run());
        reps += 1;
    }
    std::hint::black_box(checksum);
    (instructions * reps as u64) as f64 / start.elapsed().as_secs_f64()
}

fn bench_sim_kernel(c: &mut Criterion) {
    // Time only under `cargo bench` (which passes `--bench`), and not
    // with `-- --test`; `cargo test --benches` passes no arguments.
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--test") || !args.iter().any(|a| a == "--bench");
    let space = DesignSpace::boom();
    let config = CoreConfig::from_point(&space, &space.largest());
    let traces: Vec<(Benchmark, Trace)> =
        Benchmark::ALL.iter().map(|&b| (b, b.trace(TRACE_LEN, TRACE_SEED))).collect();

    let batch_trace = BATCH_BENCH.trace(TRACE_LEN, TRACE_SEED);
    let expanded = ExpandedTrace::expand(&batch_trace);

    // Bit-identity first: the kernel is only a faster implementation of
    // the reference's function, at any pack size.
    let mut sim = Simulator::new(config.clone());
    for (b, trace) in &traces {
        assert_eq!(
            sim.run(trace),
            ReferenceSimulator::new(config.clone()).run(trace),
            "simulator diverged from reference on {b}"
        );
    }
    let mut pack_sim = BatchSimulator::new();
    for k in BATCH_SIZES {
        let pack = designs_at(&space, k);
        let lanes = pack_sim.run_pack(&pack, &expanded);
        for (lane, cfg) in pack.iter().enumerate() {
            assert_eq!(
                lanes[lane],
                ReferenceSimulator::new(cfg.clone()).run(&batch_trace),
                "pack diverged from reference at K={k}, lane {lane}"
            );
        }
    }

    if quick {
        eprintln!("sim_kernel: bit-identity checked; quick mode skips timing and the artifact");
    } else {
        record_throughput(&space, &traces, &mut sim, &expanded);
    }

    let mut group = c.benchmark_group("sim_kernel");
    group.sample_size(10);
    for (b, trace) in &traces {
        group.bench_function(format!("simulator/{b}"), |bench| {
            bench.iter(|| std::hint::black_box(sim.run(trace).cycles))
        });
        group.bench_function(format!("reference/{b}"), |bench| {
            bench.iter(|| {
                std::hint::black_box(ReferenceSimulator::new(config.clone()).run(trace).cycles)
            })
        });
    }
    group.finish();
}

/// `k` designs spread evenly across the space.
fn designs_at(space: &DesignSpace, k: usize) -> Vec<CoreConfig> {
    (0..k as u64)
        .map(|i| {
            let code = i * (space.size() - 1) / (k as u64 - 1).max(1);
            CoreConfig::from_point(space, &space.decode(code))
        })
        .collect()
}

/// Times both sections and writes `results/BENCH_sim_kernel.json`.
/// `sim` simulates the largest design; `expanded` is the
/// [`BATCH_BENCH`] trace.
fn record_throughput(
    space: &DesignSpace,
    traces: &[(Benchmark, Trace)],
    sim: &mut Simulator,
    expanded: &ExpandedTrace,
) {
    let config = sim.config().clone();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut log_speedup_sum = 0.0;
    for (b, trace) in traces {
        let simulator_ips = throughput(TRACE_LEN as u64, || sim.run(trace).cycles);
        let reference_ips = throughput(TRACE_LEN as u64, || {
            ReferenceSimulator::new(config.clone()).run(trace).cycles
        });
        let speedup = simulator_ips / reference_ips;
        log_speedup_sum += speedup.ln();
        rows.push(format!(
            "{:<14} simulator {:>8.2} Minstr/s   reference {:>7.2} Minstr/s   speedup {speedup:>5.2}x",
            b.to_string(),
            simulator_ips / 1e6,
            reference_ips / 1e6
        ));
        json_rows.push(format!(
            "    {{\"benchmark\": \"{b}\", \"simulator_ips\": {simulator_ips:.0}, \
             \"reference_ips\": {reference_ips:.0}, \"speedup\": {speedup:.3}}}"
        ));
    }
    let geomean = (log_speedup_sum / traces.len() as f64).exp();
    rows.push(format!("{:<14} geomean speedup {geomean:>5.2}x", ""));

    let mut pack_sim = BatchSimulator::new();
    let mut one_lane = BatchSimulator::new();
    let mut batch_json_rows = Vec::new();
    for k in BATCH_SIZES {
        let pack = designs_at(space, k);
        let swept = (k * TRACE_LEN) as u64;
        // Paired rounds — alternate the two schedules so slow clock
        // drift (thermal, noisy neighbours) biases both sides equally
        // instead of whichever happened to run second.
        let mut pack_secs = 0.0;
        let mut single_secs = 0.0;
        let mut reps = 0u32;
        let floor = 2.0 * MIN_MEASURE.as_secs_f64();
        while reps < MIN_REPS || pack_secs + single_secs < floor {
            let start = Instant::now();
            std::hint::black_box(pack_sim.run_pack(&pack, expanded).last().unwrap().cycles);
            pack_secs += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let mut cycles = 0;
            for cfg in &pack {
                cycles += one_lane.run_pack(std::slice::from_ref(cfg), expanded)[0].cycles;
            }
            std::hint::black_box(cycles);
            single_secs += start.elapsed().as_secs_f64();
            reps += 1;
        }
        let pack_ips = (swept * reps as u64) as f64 / pack_secs;
        let single_ips = (swept * reps as u64) as f64 / single_secs;
        let speedup = pack_ips / single_ips;
        rows.push(format!(
            "batch K={k:<3}    pack {:>7.2} Minstr/s   one lane at a time {:>7.2} Minstr/s   speedup {speedup:>5.2}x",
            pack_ips / 1e6,
            single_ips / 1e6
        ));
        batch_json_rows.push(format!(
            "    {{\"k\": {k}, \"benchmark\": \"{BATCH_BENCH}\", \"pack_ips\": {pack_ips:.0}, \
             \"one_lane_ips\": {single_ips:.0}, \"speedup\": {speedup:.3}}}"
        ));
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    print_artifact(
        &format!(
            "sim_kernel: {TRACE_LEN} instr x {} benchmarks, largest design, {cores} cores",
            traces.len()
        ),
        &rows.join("\n"),
    );
    write_results_artifact(
        "BENCH_sim_kernel.json",
        &format!(
            "{{\n  \"bench\": \"sim_kernel\",\n  \"cores\": {cores},\n  \
             \"trace_len\": {TRACE_LEN},\n  \"trace_seed\": {TRACE_SEED},\n  \
             \"design\": \"largest\",\n  \"benchmarks\": [\n{}\n  ],\n  \
             \"geomean_speedup\": {geomean:.3},\n  \"batch\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n"),
            batch_json_rows.join(",\n")
        ),
    );
}

criterion_group!(benches, bench_sim_kernel);
criterion_main!(benches);
