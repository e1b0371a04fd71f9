//! Timing of the ablation study's knocked-out variants.

use criterion::{criterion_group, criterion_main, Criterion};

use archdse::Explorer;
use dse_mfrl::RewardKind;
use dse_workloads::Benchmark;

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    type Tweak = fn(Explorer) -> Explorer;
    let variants: [(&str, Tweak); 3] = [
        ("full", |e| e),
        ("no_mask", |e| e.gradient_mask(false)),
        ("plain_reward", |e| e.reward(RewardKind::PlainIpc)),
    ];
    for (name, tweak) in variants {
        group.bench_function(name, |b| {
            b.iter(|| {
                let explorer = tweak(
                    Explorer::for_benchmark(Benchmark::Quicksort)
                        .area_limit_mm2(7.5)
                        .lf_episodes(15)
                        .hf_budget(2)
                        .trace_len(1_000)
                        .seed(1),
                );
                std::hint::black_box(explorer.run().best_cpi)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
