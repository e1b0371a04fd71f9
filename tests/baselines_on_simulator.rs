//! Integration of the baseline optimizers with the real HF stack
//! (cycle-level simulator + area model), as used by Fig. 5.

use archdse::eval::{AreaLimit, SimulatorHf};
use archdse::DesignSpace;
use dse_baselines::{
    ActBoostOptimizer, BagGbrtOptimizer, BoomExplorerOptimizer, Constraint as _, Optimizer,
    RandomForestOptimizer, RandomSearchOptimizer, ScboOptimizer,
};
use dse_workloads::Benchmark;

fn simulator() -> SimulatorHf {
    SimulatorHf::for_benchmark(Benchmark::Quicksort, 2_000, 3, 1.0)
}

#[test]
fn every_baseline_runs_on_the_real_stack() {
    let space = DesignSpace::boom();
    let mut optimizers: Vec<Box<dyn Optimizer>> = vec![
        Box::new(RandomSearchOptimizer),
        Box::new(RandomForestOptimizer),
        Box::new(ActBoostOptimizer),
        Box::new(BagGbrtOptimizer),
        Box::new(BoomExplorerOptimizer),
        Box::new(ScboOptimizer::default()),
    ];
    for opt in &mut optimizers {
        let area = AreaLimit::new(8.0);
        let result = opt.optimize(&space, &mut simulator(), &area, 6, 1);
        assert_eq!(result.history.len(), 6, "{}", opt.name());
        assert!(result.best_value > 0.0 && result.best_value.is_finite(), "{}", opt.name());
        assert!(
            area.fits(&space, &result.best_point),
            "{} returned an infeasible design",
            opt.name()
        );
    }
}

#[test]
fn memoized_objective_keeps_methods_comparable() {
    // Two different optimizers sharing the same memoized simulator must
    // see identical values for identical designs.
    let space = DesignSpace::boom();
    let (mut hf, area) = (simulator(), AreaLimit::new(8.0));
    let a = RandomSearchOptimizer.optimize(&space, &mut hf, &area, 4, 9);
    let b = RandomSearchOptimizer.optimize(&space, &mut hf, &area, 4, 9);
    assert_eq!(a.history, b.history, "same seed + shared cache = same trajectory");
}

#[test]
fn parallel_batch_prewarm_is_invisible_to_optimizers() {
    // A Fig. 5-style sweep pre-warms the memoized simulator through the
    // parallel cpi_batch path; because batch results are bit-identical
    // to sequential evaluation, an optimizer that later proposes the
    // same designs must see exactly the trajectory it would have seen
    // against a cold evaluator.
    let space = DesignSpace::boom();
    let area = AreaLimit::new(8.0);
    let baseline = RandomSearchOptimizer.optimize(&space, &mut simulator(), &area, 5, 2);

    let mut hf = SimulatorHf::for_benchmark(Benchmark::Quicksort, 2_000, 3, 1.0).with_threads(4);
    let warm_points: Vec<_> = (0..8u64).map(|i| space.decode(i * (space.size() - 1) / 7)).collect();
    let warm_cpis = hf.cpi_batch(&space, &warm_points);
    assert!(warm_cpis.iter().all(|c| c.is_finite() && *c > 0.0));
    let again = RandomSearchOptimizer.optimize(&space, &mut hf, &area, 5, 2);

    assert_eq!(baseline.history, again.history, "pre-warmed cache changed observed values");
    assert_eq!(baseline.best_point, again.best_point);
}
