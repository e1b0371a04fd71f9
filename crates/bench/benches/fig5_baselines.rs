//! Fig. 5 per-optimizer timing: each baseline optimizer for one
//! budgeted run against the real simulator objective.

use criterion::{criterion_group, criterion_main, Criterion};

use archdse::eval::{AreaLimit, SimulatorHf};
use archdse::DesignSpace;
use dse_baselines::{
    ActBoostOptimizer, BagGbrtOptimizer, BoomExplorerOptimizer, Optimizer, RandomForestOptimizer,
    RandomSearchOptimizer, ScboOptimizer,
};
use dse_workloads::Benchmark;

fn bench_fig5(c: &mut Criterion) {
    let space = DesignSpace::boom();
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    let mut optimizers: Vec<Box<dyn Optimizer>> = vec![
        Box::new(RandomSearchOptimizer),
        Box::new(RandomForestOptimizer),
        Box::new(ActBoostOptimizer),
        Box::new(BagGbrtOptimizer),
        Box::new(BoomExplorerOptimizer),
        Box::new(ScboOptimizer::default()),
    ];
    for opt in &mut optimizers {
        let name = opt.name().replace(' ', "_").to_lowercase();
        group.bench_function(format!("{name}_budget4"), |b| {
            b.iter(|| {
                let mut hf = SimulatorHf::for_benchmark(Benchmark::Quicksort, 1_000, 3, 1.0);
                let area = AreaLimit::new(8.0);
                std::hint::black_box(opt.optimize(&space, &mut hf, &area, 4, 1).best_value)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
