//! Timing of Fig. 7's preference-seeded training: the embedding plus a
//! short training run.

use criterion::{criterion_group, criterion_main, Criterion};

use archdse::eval::{AnalyticalLf, AreaLimit};
use archdse::{DesignSpace, FnnBuilder, MergedParam, Param};
use dse_mfrl::{LfPhase, LfPhaseConfig};
use dse_workloads::Benchmark;

fn bench_fig7(c: &mut Criterion) {
    let space = DesignSpace::boom();
    let lf = AnalyticalLf::for_benchmark(&space, Benchmark::FpVvadd, 1.0);
    let area = AreaLimit::new(6.0);
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    group.bench_function("preference_training_20_episodes", |b| {
        b.iter(|| {
            let mut fnn = FnnBuilder::for_space(&space).build();
            fnn.embed_preference(
                1 + MergedParam::Decode.index(),
                3.5,
                Param::DecodeWidth.index(),
                2.0,
            );
            let mut ledger = archdse::CostLedger::new();
            let outcome =
                LfPhase::new(LfPhaseConfig { episodes: 20, seed: 5, ..Default::default() }).run(
                    &mut fnn,
                    &space,
                    &lf,
                    &area,
                    &mut ledger,
                );
            std::hint::black_box(outcome.converged.value(&space, Param::DecodeWidth))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
