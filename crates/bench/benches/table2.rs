//! Timing of the Table 2 application-specific flow: one full LF→HF
//! exploration as the representative kernel.

use criterion::{criterion_group, criterion_main, Criterion};

use archdse::Explorer;
use dse_workloads::Benchmark;

fn bench_table2(c: &mut Criterion) {
    // Representative kernel: one benchmark's full flow.
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    group.bench_function("explore_ss_full_flow", |b| {
        b.iter(|| {
            let report = Explorer::for_benchmark(Benchmark::StringSearch)
                .area_limit_mm2(6.0)
                .lf_episodes(20)
                .hf_budget(3)
                .trace_len(2_000)
                .seed(1)
                .run();
            std::hint::black_box(report.best_cpi)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
