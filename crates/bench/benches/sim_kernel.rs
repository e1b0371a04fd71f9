//! The lane kernel vs the retained cycle-by-cycle reference walk:
//! single-thread simulation throughput on all six benchmarks.
//!
//! Every run first asserts bit-equality against [`ReferenceSimulator`]
//! — full `SimResult`s for the per-benchmark runs, and every CPI of the
//! serve-shaped batch at one thread and at all cores — so quick mode
//! (`cargo bench -- --test`, and `cargo test --benches`, which passes
//! no `--bench`) catches divergence without timing anything. A full run
//! then measures and records the series in
//! `results/BENCH_sim_kernel.json`, with a provenance header, as the
//! perf trajectory later changes compare against; quick mode skips the
//! timing and leaves that artifact alone.
//!
//! The per-benchmark section times [`Simulator`] — one design on the
//! lane kernel, expanding its trace on every run — on a reused instance
//! against the reference's per-evaluation cold construction, in
//! [`ROUNDS`] paired rounds per benchmark: each round times both
//! engines back to back (in alternating order), and the reported
//! speed-up is the median of the per-round ratios, so host drift
//! between rounds cancels instead of landing on whichever engine ran
//! later.
//!
//! The serve section times the shape of one `/v1/evaluate` request on a
//! one-benchmark server: `SimulatorHf::evaluate_batch` of
//! [`SERVE_POINTS`] never-seen designs on one [`SERVE_BENCH`] trace,
//! at one thread and at all cores, in paired rounds.

use std::time::Instant;

use archdse::eval::SimulatorHf;
use criterion::{criterion_group, criterion_main, Criterion};
use dse_bench::write_results_artifact;
use dse_sim::{CoreConfig, ReferenceSimulator, Simulator};
use dse_space::{DesignPoint, DesignSpace};
use dse_workloads::{Benchmark, Trace};

const TRACE_LEN: usize = 30_000;
const TRACE_SEED: u64 = 7;
/// The serve section runs paired rounds until each side has at least
/// `2 * MIN_REPS` of them and both together have spent `2 * MIN_MEASURE`.
const MIN_MEASURE: std::time::Duration = std::time::Duration::from_millis(300);
const MIN_REPS: u32 = 3;
/// Paired rounds per benchmark in the per-benchmark section.
const ROUNDS: usize = 9;
/// Per-engine measurement floor within one paired round.
const ROUND_MIN: std::time::Duration = std::time::Duration::from_millis(50);
/// Designs per serve-shaped batch: one serve-fresh request's points.
const SERVE_POINTS: usize = 4;
/// The serve section's benchmark and trace length (serve-fresh's).
const SERVE_BENCH: Benchmark = Benchmark::Mm;
const SERVE_TRACE_LEN: usize = 10_000;
/// Stride of the serve section's design walk: a prime that does not
/// divide the space size, so no design repeats and every batch misses
/// the memo.
const DESIGN_STRIDE: u64 = 1_000_003;

/// Instructions per second of `run`, which simulates `instructions`,
/// repeated until `floor` has passed.
fn throughput(instructions: u64, floor: std::time::Duration, mut run: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut reps = 0u32;
    let mut checksum = 0u64;
    while reps == 0 || start.elapsed() < floor {
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

    // Bit-identity first: the kernel is only a faster implementation of
    // the reference's function, at any thread count.
    let mut sim = Simulator::new(config.clone());
    for (b, trace) in &traces {
        assert_eq!(
            sim.run(trace),
            ReferenceSimulator::new(config.clone()).run(trace),
            "simulator diverged from reference on {b}"
        );
    }
    assert_ne!(space.size() % DESIGN_STRIDE, 0, "the design walk must not cycle");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut serve = [1, cores].map(|threads| {
        SimulatorHf::for_benchmark(SERVE_BENCH, SERVE_TRACE_LEN, TRACE_SEED, 1.0)
            .with_threads(threads)
    });
    let points = serve_points(&space, 0);
    let serve_trace = SERVE_BENCH.trace(SERVE_TRACE_LEN, TRACE_SEED);
    for hf in &mut serve {
        for (point, cpi) in points.iter().zip(hf.cpi_batch(&space, &points)) {
            let want =
                ReferenceSimulator::new(CoreConfig::from_point(&space, point)).run(&serve_trace);
            assert_eq!(cpi.to_bits(), want.cpi().to_bits(), "{}-thread serve batch", hf.threads());
        }
    }

    if quick {
        eprintln!("sim_kernel: bit-identity checked; quick mode skips timing and the artifact");
    } else {
        record_throughput(&space, &traces, &mut sim, &mut serve);
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

/// The `round`-th serve batch: the next [`SERVE_POINTS`] designs of
/// the [`DESIGN_STRIDE`] walk.
fn serve_points(space: &DesignSpace, round: u64) -> Vec<DesignPoint> {
    let first = round * SERVE_POINTS as u64 + 1;
    (first..first + SERVE_POINTS as u64)
        .map(|i| space.decode(i * DESIGN_STRIDE % space.size()))
        .collect()
}

/// Times both sections and writes `results/BENCH_sim_kernel.json`.
/// `sim` simulates the largest design; `serve` holds the one-thread and
/// the all-core HF evaluator of the serve section.
fn record_throughput(
    space: &DesignSpace,
    traces: &[(Benchmark, Trace)],
    sim: &mut Simulator,
    serve: &mut [SimulatorHf; 2],
) {
    let config = sim.config().clone();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut log_speedup_sum = 0.0;
    for (b, trace) in traces {
        let (mut sim_ips, mut ref_ips, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..ROUNDS {
            let mut time_sim = || throughput(TRACE_LEN as u64, ROUND_MIN, || sim.run(trace).cycles);
            let time_ref = || {
                throughput(TRACE_LEN as u64, ROUND_MIN, || {
                    ReferenceSimulator::new(config.clone()).run(trace).cycles
                })
            };
            let (s, r) = if round % 2 == 0 {
                let s = time_sim();
                (s, time_ref())
            } else {
                let r = time_ref();
                (time_sim(), r)
            };
            sim_ips.push(s);
            ref_ips.push(r);
            ratios.push(s / r);
        }
        let simulator_ips = median(&mut sim_ips);
        let reference_ips = median(&mut ref_ips);
        let speedup = median(&mut ratios);
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
    rows.push(format!(
        "{:<14} geomean speedup {geomean:>5.2}x (medians of {ROUNDS} paired rounds)",
        ""
    ));

    // Paired rounds — alternate the two thread counts so slow clock
    // drift (thermal, noisy neighbours) biases both sides equally
    // instead of whichever happened to run second. Each side gets fresh
    // designs every round, so every batch simulates all its points.
    let mut secs = [Vec::new(), Vec::new()];
    let floor = 2.0 * MIN_MEASURE.as_secs_f64();
    for round in 1.. {
        if secs[0].len() >= 2 * MIN_REPS as usize && secs.iter().flatten().sum::<f64>() >= floor {
            break;
        }
        let points = serve_points(space, round);
        for (hf, secs) in serve.iter_mut().zip(&mut secs) {
            let before = hf.evaluations();
            let start = Instant::now();
            std::hint::black_box(hf.cpi_batch(space, &points));
            secs.push(start.elapsed().as_secs_f64());
            assert_eq!(hf.evaluations() - before, SERVE_POINTS, "a serve batch hit the memo");
        }
    }
    let rounds = secs[0].len();
    let [one_ms, all_ms] = secs.map(|mut s| median_ms(&mut s));
    let cores = serve[1].threads();
    let speedup = one_ms / all_ms;
    rows.push(format!(
        "serve batch    {SERVE_POINTS} designs on {SERVE_BENCH} x {SERVE_TRACE_LEN}: \
         1 thread {one_ms:>6.2} ms   {cores} threads {all_ms:>6.2} ms   speedup {speedup:>5.2}x \
         ({rounds} rounds, medians)"
    ));

    eprintln!(
        "sim_kernel: {TRACE_LEN} instr x {} benchmarks, largest design, {cores} cores\n{}",
        traces.len(),
        rows.join("\n")
    );
    write_results_artifact(
        "BENCH_sim_kernel.json",
        &format!(
            "{{\n  \"bench\": \"sim_kernel\",\n  \"provenance\": {},\n  \
             \"trace_len\": {TRACE_LEN},\n  \"trace_seed\": {TRACE_SEED},\n  \
             \"design\": \"largest\",\n  \"rounds\": {ROUNDS},\n  \"benchmarks\": [\n{}\n  ],\n  \
             \"geomean_speedup\": {geomean:.3},\n  \"serve_batch\": {{\"benchmark\": \
             \"{SERVE_BENCH}\", \"trace_len\": {SERVE_TRACE_LEN}, \"designs\": {SERVE_POINTS}, \
             \"rounds\": {rounds}, \"one_thread_ms\": {one_ms:.3}, \"threads\": {cores}, \
             \"all_cores_ms\": {all_ms:.3}, \"speedup\": {speedup:.3}}}\n}}\n",
            provenance(cores),
            json_rows.join(",\n"),
        ),
    );
}

/// The artifact's provenance as a JSON object: the repository's git
/// revision (`"unknown"` outside a work tree), whether tracked files
/// differ from it (`null` when git cannot tell), the core count and the
/// command line. The program is named by file only: its directory is a
/// property of the build host, not of the run.
fn provenance(cores: usize) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let git = |args: &[&str]| {
        let out =
            std::process::Command::new("git").arg("-C").arg(&root).args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let in_tree = root.join(".git").exists();
    let rev = in_tree.then(|| git(&["rev-parse", "HEAD"])).flatten();
    let dirty = rev.as_ref().and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]));
    let mut command: Vec<String> = std::env::args().collect();
    if let Some(name) = std::path::Path::new(&command[0]).file_name() {
        command[0] = name.to_string_lossy().into_owned();
    }
    format!(
        "{{\"git_rev\": {}, \"dirty\": {}, \"cores\": {cores}, \"command_line\": {}}}",
        serde_json::to_string(rev.as_deref().unwrap_or("unknown")).expect("a string serializes"),
        dirty.map_or("null", |d| if d.is_empty() { "false" } else { "true" }),
        serde_json::to_string(&command).expect("strings serialize")
    )
}

/// Median of `values` (the upper one of an even count).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Median of `secs`, in milliseconds.
fn median_ms(secs: &mut [f64]) -> f64 {
    1e3 * median(secs)
}

criterion_group!(benches, bench_sim_kernel);
criterion_main!(benches);
