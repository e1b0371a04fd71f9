//! Design-sweep throughput of the deterministic parallel evaluation
//! backend: 24 evenly spaced designs × 6 benchmark traces pushed through
//! `SimulatorHf::cpi_batch` at 1 worker and at every available core.
//!
//! The two configurations must produce bit-identical CPIs (asserted
//! here on every run), so the timing difference is pure backend
//! speedup.

use archdse::eval::SimulatorHf;
use archdse::DesignSpace;
use criterion::{criterion_group, criterion_main, Criterion};
use dse_space::DesignPoint;
use dse_workloads::Benchmark;

const DESIGNS: u64 = 24;
const TRACE_LEN: usize = 10_000;

fn sweep_points(space: &DesignSpace) -> Vec<DesignPoint> {
    (0..DESIGNS).map(|i| space.decode(i * (space.size() - 1) / (DESIGNS - 1))).collect()
}

fn evaluator(threads: usize) -> SimulatorHf {
    SimulatorHf::for_benchmarks(&Benchmark::ALL, TRACE_LEN, 7, 1.0).with_threads(threads)
}

fn bench_sweep(c: &mut Criterion) {
    let space = DesignSpace::boom();
    let points = sweep_points(&space);
    let all_cores = dse_exec::default_threads();

    let sequential = evaluator(1).cpi_batch(&space, &points);
    let parallel = evaluator(all_cores).cpi_batch(&space, &points);
    assert!(
        sequential.iter().zip(&parallel).all(|(a, b)| a.to_bits() == b.to_bits()),
        "parallel sweep diverged from the sequential walk"
    );
    let rows: Vec<String> = points
        .iter()
        .zip(&sequential)
        .map(|(p, cpi)| format!("{:<12} {cpi:.4}", space.encode(p)))
        .collect();
    let traces = Benchmark::ALL.len();
    eprintln!(
        "sweep: {DESIGNS} designs x {traces} traces, {all_cores} core(s)\n{}",
        rows.join("\n")
    );

    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    for threads in [1, all_cores] {
        group.bench_function(format!("cpi_batch/{threads}-thread"), |b| {
            b.iter(|| evaluator(threads).cpi_batch(&space, &points))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
