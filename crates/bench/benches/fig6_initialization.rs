//! Timing of the LF training phase: a block of LF episodes, the
//! dominant cost of the Fig. 6 initialization experiments.

use criterion::{criterion_group, criterion_main, Criterion};

use archdse::eval::{AnalyticalLf, AreaLimit};
use archdse::{DesignSpace, FnnBuilder};
use dse_mfrl::{LfPhase, LfPhaseConfig};
use dse_workloads::Benchmark;

fn bench_fig6(c: &mut Criterion) {
    let space = DesignSpace::boom();
    let lf = AnalyticalLf::for_benchmark(&space, Benchmark::Dijkstra, 8.0);
    let area = AreaLimit::new(10.0);
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.bench_function("lf_phase_20_episodes", |b| {
        b.iter(|| {
            let mut fnn = FnnBuilder::for_space(&space).build();
            let mut ledger = archdse::CostLedger::new();
            let outcome =
                LfPhase::new(LfPhaseConfig { episodes: 20, seed: 3, ..Default::default() }).run(
                    &mut fnn,
                    &space,
                    &lf,
                    &area,
                    &mut ledger,
                );
            std::hint::black_box(outcome.converged_cpi)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
