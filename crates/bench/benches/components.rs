//! Component microbenchmarks: the cost claims behind the paper's
//! multi-fidelity premise.
//!
//! * the analytical model should evaluate in ~microseconds (the paper
//!   quotes "about 0.1 ms per design");
//! * the cycle-level simulator is the expensive proxy (milliseconds);
//! * the LF step of an episode — the six-model gradient mask and the
//!   REINFORCE update over a whole episode — sets the cost of a Fig. 5
//!   campaign, which the simulator barely touches;
//! * FNN forward+backward and GP fit/predict set the per-episode and
//!   per-acquisition costs of our method and the BO baselines.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use archdse::{
    AnalyticalModel, CoreConfig, DesignPoint, DesignSpace, Explorer, Fnn, FnnBuilder, Simulator,
};
use dse_baselines::GaussianProcess;
use dse_mfrl::{
    rollout, train_on_episode, Constraint, Episode, LowFidelity, ReinforceConfig, StepMemo,
};
use dse_sim::Cache;
use dse_workloads::Benchmark;

/// Steps in the benchmarked episode: about the mean episode length of a
/// Fig. 5 campaign at 8 mm².
const EPISODE_STEPS: usize = 27;

/// Admits designs whose candidate indices sum to at most the bound, so an
/// unmasked rollout from the smallest design takes exactly that many
/// steps.
struct IndexBudget(usize);

impl Constraint for IndexBudget {
    fn fits(&self, _space: &DesignSpace, point: &DesignPoint) -> bool {
        point.indices().iter().sum::<usize>() <= self.0
    }
}

fn bench_analytical(c: &mut Criterion) {
    let space = DesignSpace::boom();
    let model = AnalyticalModel::new(&space, Benchmark::Mm.profile());
    let point = space.decode(1_234_567);
    let mut group = c.benchmark_group("analytical");
    group.bench_function("cpi", |b| b.iter(|| std::hint::black_box(model.cpi_in(&space, &point))));
    group.bench_function("cpi_with_gradient", |b| {
        b.iter(|| std::hint::black_box(model.cpi_with_gradient(&space, &point)))
    });
    // The LF proxy of a Fig. 5 campaign: the mean mask over all six models.
    let lf = Explorer::general_purpose().lf_model();
    group.bench_function("beneficial_params_6_models", |b| {
        b.iter(|| std::hint::black_box(lf.beneficial_params(&space, &point)))
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let space = DesignSpace::boom();
    let trace = Benchmark::Quicksort.trace(10_000, 1);
    let config = CoreConfig::from_point(&space, &space.decode(1_999_999));
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);
    group.bench_function("quicksort_10k_instructions", |b| {
        b.iter_batched(
            || Simulator::new(config.clone()),
            |mut sim| std::hint::black_box(sim.run(&trace).cpi()),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// A network in mid-training shape: every consequent nonzero and every
/// parameter center moved. A fresh network's all-zero consequents make
/// every firing-strength gradient exactly zero, so `backward` would skip
/// the center-gradient work that campaigns pay for.
fn trained_fnn(space: &DesignSpace) -> Fnn {
    let mut fnn = FnnBuilder::for_space(space).build();
    let mut grads = fnn.zero_gradients();
    for (r, row) in grads.consequents.chunks_exact_mut(fnn.output_count()).enumerate() {
        for (o, g) in row.iter_mut().enumerate() {
            *g = ((r * 11 + o) as f64 * 0.61).sin();
        }
    }
    for (row, spec) in grads.centers.iter_mut().zip(fnn.inputs()) {
        for (l, (g, m)) in row.iter_mut().zip(&spec.memberships).enumerate() {
            *g = m.center() * if l == 0 { 0.1 } else { -0.1 };
        }
    }
    fnn.apply(&grads, 1.0, 1.0);
    fnn
}

fn bench_fnn(c: &mut Criterion) {
    let space = DesignSpace::boom();
    let fnn = trained_fnn(&space);
    let obs = fnn.observation(&space, &space.decode(777_777), 1.4);
    let mut group = c.benchmark_group("fnn");
    group.bench_function("forward_192_rules", |b| {
        b.iter(|| std::hint::black_box(fnn.forward(&obs).scores[0]))
    });
    let pass = fnn.forward(&obs);
    let d_scores = vec![0.1; fnn.output_count()];
    group.bench_function("backward_192_rules", |b| {
        b.iter(|| std::hint::black_box(fnn.backward(&pass, &d_scores).consequents[0]))
    });
    let lf = Explorer::general_purpose().lf_model();
    let mut rng = StdRng::seed_from_u64(0);
    let budget = IndexBudget(EPISODE_STEPS);
    let mut memo = StepMemo::new(&space, &lf, &budget, false);
    let mut episode = Episode::new();
    rollout(&fnn, &mut memo, space.smallest(), &mut rng, &mut episode);
    assert_eq!(episode.len(), EPISODE_STEPS);
    let cfg = ReinforceConfig::default();
    group.bench_function("train_on_episode_27_steps", |b| {
        b.iter_batched(
            || fnn.clone(),
            |mut trained| {
                train_on_episode(&mut trained, &episode, 0.3, &cfg);
                std::hint::black_box(trained)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_gp(c: &mut Criterion) {
    let x: Vec<Vec<f64>> = (0..12)
        .map(|i| (0..11).map(|d| ((i * 11 + d) as f64 * 0.37).sin().abs()).collect())
        .collect();
    let y: Vec<f64> = x.iter().map(|p| p.iter().sum::<f64>()).collect();
    let mut group = c.benchmark_group("gp");
    group.bench_function("fit_12_points", |b| {
        b.iter(|| {
            std::hint::black_box(GaussianProcess::fit(&x, &y, true, 0).unwrap().lengthscale())
        })
    });
    let gp = GaussianProcess::fit(&x, &y, true, 0).unwrap();
    group.bench_function("predict", |b| b.iter(|| std::hint::black_box(gp.predict(&x[5]))));
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.bench_function("access_64x8", |b| {
        b.iter_batched(
            || Cache::new(64, 8),
            |mut cache| {
                let mut h = 0u64;
                for i in 0..1_000u64 {
                    h += cache.access(i.wrapping_mul(0x9E3779B97F4A7C15) % (1 << 18)) as u64;
                }
                std::hint::black_box(h)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_analytical, bench_simulator, bench_fnn, bench_gp, bench_cache);
criterion_main!(benches);
