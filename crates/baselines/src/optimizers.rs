//! The five baseline optimizers of Fig. 5 (plus random search).

use dse_linalg::vector;
use dse_space::{DesignPoint, DesignSpace, Param};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dse_exec::{Constraint, Evaluator};

use crate::optimizer::EvalLog;
use crate::stats::expected_improvement;
use crate::{AdaBoostR2, GaussianProcess, Gbrt, OptimizationResult, Optimizer, RandomForest};

/// Size of the random candidate pool ranked by each acquisition step.
const POOL: usize = 512;
/// Random feasible evaluations before the surrogate takes over.
const N_INIT: usize = 3;

/// Evaluates up to `n` random feasible unseen designs.
fn init_phase(log: &mut EvalLog, n: usize, rng: &mut StdRng) {
    for _ in 0..n.min(log.remaining()) {
        let Some(p) = log.random_unseen(rng) else { return };
        log.evaluate(&p);
    }
}

/// Which end of the acquisition scores a pick takes. Ties break as
/// `Iterator::min_by` and `max_by` break them.
#[derive(Clone, Copy)]
enum Pick {
    /// The first candidate with the least score.
    FirstMin,
    /// The last candidate with the greatest score.
    LastMax,
}

/// The candidate of `pool` that `pick` selects by `score` of its feature
/// vector; each candidate is scored once.
fn pick_scored(
    pool: Vec<DesignPoint>,
    space: &DesignSpace,
    pick: Pick,
    score: impl Fn(&[f64]) -> f64,
) -> Option<DesignPoint> {
    let scored = pool.into_iter().map(|p| (score(&p.feature_vector(space)), p));
    let by_score = |a: &(f64, DesignPoint), b: &(f64, DesignPoint)| a.0.total_cmp(&b.0);
    let best = match pick {
        Pick::FirstMin => scored.min_by(by_score),
        Pick::LastMax => scored.max_by(by_score),
    };
    best.map(|(_, p)| p)
}

/// Pure random search — the sanity floor for Fig. 5.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSearchOptimizer;

impl Optimizer for RandomSearchOptimizer {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn optimize(
        &mut self,
        space: &DesignSpace,
        hf: &mut dyn Evaluator,
        constraint: &dyn Constraint,
        budget: usize,
        seed: u64,
    ) -> OptimizationResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = EvalLog::new(space, hf, constraint, budget);
        while log.remaining() > 0 {
            let Some(p) = log.random_unseen(&mut rng) else { break };
            log.evaluate(&p);
        }
        log.into_result()
    }
}

/// Random-forest surrogate with lower-confidence-bound acquisition
/// \[Breiman 2001\] — the paper's "classic baseline".
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomForestOptimizer;

impl Optimizer for RandomForestOptimizer {
    fn name(&self) -> &'static str {
        "Random Forest"
    }

    fn optimize(
        &mut self,
        space: &DesignSpace,
        hf: &mut dyn Evaluator,
        constraint: &dyn Constraint,
        budget: usize,
        seed: u64,
    ) -> OptimizationResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = EvalLog::new(space, hf, constraint, budget);
        init_phase(&mut log, N_INIT, &mut rng);
        while log.remaining() > 0 {
            let (x, y) = log.training_data();
            let rf = RandomForest::fit(&x, &y, 30, 6, seed ^ log.history.len() as u64);
            let pool = log.candidate_pool(POOL, &mut rng);
            let pick = pick_scored(pool, space, Pick::FirstMin, |f| lcb(&rf.predict(f)))
                .or_else(|| log.random_unseen(&mut rng));
            let Some(pick) = pick else { break };
            log.evaluate(&pick);
        }
        log.into_result()
    }
}

fn lcb(&(mean, std): &(f64, f64)) -> f64 {
    mean - std
}

/// ActBoost \[Li et al., DAC'16\]: AdaBoost.R2 surrogate with an
/// active-learning acquisition that alternates between exploiting the
/// predicted minimum and exploring the committee's maximum-disagreement
/// candidate.
#[derive(Debug, Clone, Copy, Default)]
pub struct ActBoostOptimizer;

impl Optimizer for ActBoostOptimizer {
    fn name(&self) -> &'static str {
        "ActBoost"
    }

    fn optimize(
        &mut self,
        space: &DesignSpace,
        hf: &mut dyn Evaluator,
        constraint: &dyn Constraint,
        budget: usize,
        seed: u64,
    ) -> OptimizationResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = EvalLog::new(space, hf, constraint, budget);
        init_phase(&mut log, N_INIT, &mut rng);
        let mut round = 0usize;
        while log.remaining() > 0 {
            let (x, y) = log.training_data();
            let model = AdaBoostR2::fit(&x, &y, 25, 3, seed ^ round as u64);
            let pool = log.candidate_pool(POOL, &mut rng);
            let explore = round % 3 == 2; // every third pick is active learning
            let pick = pick_scored(pool, space, Pick::FirstMin, |f| {
                if explore {
                    -model.disagreement(f)
                } else {
                    model.predict(f)
                }
            })
            .or_else(|| log.random_unseen(&mut rng));
            let Some(pick) = pick else { break };
            log.evaluate(&pick);
            round += 1;
        }
        log.into_result()
    }
}

/// BagGBRT \[Wang et al., GLSVLSI'23\]: a bag of gradient-boosted tree
/// ensembles; the bag spread provides the uncertainty for an LCB pick.
#[derive(Debug, Clone, Copy, Default)]
pub struct BagGbrtOptimizer;

impl Optimizer for BagGbrtOptimizer {
    fn name(&self) -> &'static str {
        "BagGBRT"
    }

    fn optimize(
        &mut self,
        space: &DesignSpace,
        hf: &mut dyn Evaluator,
        constraint: &dyn Constraint,
        budget: usize,
        seed: u64,
    ) -> OptimizationResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = EvalLog::new(space, hf, constraint, budget);
        init_phase(&mut log, N_INIT, &mut rng);
        while log.remaining() > 0 {
            let (x, y) = log.training_data();
            let bag = fit_bag(&x, &y, 8, &mut rng);
            let pool = log.candidate_pool(POOL, &mut rng);
            let pick = pick_scored(pool, space, Pick::FirstMin, |f| lcb(&bag_predict(&bag, f)))
                .or_else(|| log.random_unseen(&mut rng));
            let Some(pick) = pick else { break };
            log.evaluate(&pick);
        }
        log.into_result()
    }
}

fn fit_bag(x: &[Vec<f64>], y: &[f64], bags: usize, rng: &mut StdRng) -> Vec<Gbrt> {
    (0..bags)
        .map(|_| {
            let rows: Vec<usize> = (0..x.len()).map(|_| rng.gen_range(0..x.len())).collect();
            let bx: Vec<Vec<f64>> = rows.iter().map(|&r| x[r].clone()).collect();
            let by: Vec<f64> = rows.iter().map(|&r| y[r]).collect();
            Gbrt::fit(&bx, &by, 30, 3, 0.3)
        })
        .collect()
}

fn bag_predict(bag: &[Gbrt], x: &[f64]) -> (f64, f64) {
    let preds: Vec<f64> = bag.iter().map(|m| m.predict(x)).collect();
    (vector::mean(&preds), vector::variance(&preds).sqrt())
}

/// BOOM-Explorer \[Bai et al., ICCAD'21\]: deep-kernel GP surrogate with
/// expected-improvement acquisition and a MicroAL-style diversity
/// initialization — the candidate pool is k-means-clustered and the
/// member nearest each centroid is simulated first.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoomExplorerOptimizer;

impl Optimizer for BoomExplorerOptimizer {
    fn name(&self) -> &'static str {
        "BOOM-Explorer"
    }

    fn optimize(
        &mut self,
        space: &DesignSpace,
        hf: &mut dyn Evaluator,
        constraint: &dyn Constraint,
        budget: usize,
        seed: u64,
    ) -> OptimizationResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = EvalLog::new(space, hf, constraint, budget);
        // MicroAL-style diversity init: cluster the feasible pool and
        // simulate the representative of each cluster.
        let pool = log.candidate_pool(POOL, &mut rng);
        if !pool.is_empty() {
            let feats: Vec<Vec<f64>> = pool.iter().map(|p| p.feature_vector(space)).collect();
            let clustering = crate::kmeans(&feats, N_INIT.min(pool.len()), 25, &mut rng);
            for c in 0..clustering.centroids.len() {
                let member = clustering.nearest_member(&feats, c);
                log.evaluate(&pool[member]);
            }
        }
        while log.remaining() > 0 {
            let (x, y) = log.training_data();
            let pool = log.candidate_pool(POOL, &mut rng);
            let pick = match GaussianProcess::fit(&x, &y, true, seed) {
                Ok(gp) => {
                    let best = log.best_feasible_value();
                    pick_scored(pool, space, Pick::LastMax, |f| {
                        let (mean, std) = gp.predict(f);
                        expected_improvement(mean, std, best)
                    })
                    .or_else(|| log.random_unseen(&mut rng))
                }
                Err(_) => log.random_unseen(&mut rng),
            };
            let Some(pick) = pick else { break };
            log.evaluate(&pick);
        }
        log.into_result()
    }
}

/// SCBO \[Eriksson & Poloczek, AISTATS'21\]: trust-region Bayesian
/// optimization with Thompson sampling. Uniquely among the baselines it
/// may spend budget on constraint-violating designs ("SCBO requires the
/// invalid HF results to make inferences", §4.2); violations inform the
/// surrogate but never become the incumbent.
#[derive(Debug, Clone, Copy)]
pub struct ScboOptimizer {
    /// Initial trust-region half-width in candidate-index steps.
    pub initial_radius: usize,
}

impl Default for ScboOptimizer {
    fn default() -> Self {
        Self { initial_radius: 3 }
    }
}

impl Optimizer for ScboOptimizer {
    fn name(&self) -> &'static str {
        "SCBO"
    }

    fn optimize(
        &mut self,
        space: &DesignSpace,
        hf: &mut dyn Evaluator,
        constraint: &dyn Constraint,
        budget: usize,
        seed: u64,
    ) -> OptimizationResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = EvalLog::new(space, hf, constraint, budget);
        init_phase(&mut log, N_INIT, &mut rng);
        let mut radius = self.initial_radius.max(1);
        let mut failures = 0usize;
        while log.remaining() > 0 {
            let incumbent = log
                .history
                .iter()
                .zip(&log.feasible)
                .filter(|(_, &f)| f)
                .map(|(h, _)| h)
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(p, _)| p.clone())
                .unwrap_or_else(|| space.smallest());
            let best_before = log.best_feasible_value();

            // Candidates inside the L∞ trust region around the incumbent
            // (no feasibility filter — SCBO learns from violations).
            let candidates: Vec<DesignPoint> = (0..POOL)
                .map(|_| perturb(space, &incumbent, radius, &mut rng))
                .filter(|p| !log.contains(p))
                .collect();
            let (x, y) = log.training_data();
            let pick = match GaussianProcess::fit(&x, &y, false, seed) {
                Ok(gp) if !candidates.is_empty() => {
                    let feats: Vec<Vec<f64>> =
                        candidates.iter().map(|p| p.feature_vector(space)).collect();
                    let draws = gp.sample_at(&feats, &mut rng);
                    let idx = vector::argmin(&draws).expect("non-empty candidate set");
                    Some(candidates[idx].clone())
                }
                _ => log.random_unseen(&mut rng),
            };
            let Some(pick) = pick else { break };
            log.evaluate(&pick);

            // Trust-region schedule.
            if log.best_feasible_value() < best_before - 1e-12 {
                failures = 0;
                radius = (radius + 1).min(6);
            } else {
                failures += 1;
                if failures >= 2 {
                    failures = 0;
                    if radius > 1 {
                        radius -= 1;
                    } else {
                        radius = self.initial_radius.max(1); // restart
                    }
                }
            }
        }
        log.into_result()
    }
}

fn perturb(
    space: &DesignSpace,
    center: &DesignPoint,
    radius: usize,
    rng: &mut StdRng,
) -> DesignPoint {
    let r = radius as i64;
    let idx = Param::ALL
        .iter()
        .zip(center.indices())
        .map(|(&p, &c)| {
            if rng.gen_bool(0.5) {
                let n = space.cardinality(p) as i64;
                (c as i64 + rng.gen_range(-r..=r)).clamp(0, n - 1) as usize
            } else {
                c
            }
        })
        .collect();
    DesignPoint::from_indices(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::testutil::{small_designs, Sphere};

    fn all_optimizers() -> Vec<Box<dyn Optimizer>> {
        vec![
            Box::new(RandomSearchOptimizer),
            Box::new(RandomForestOptimizer),
            Box::new(ActBoostOptimizer),
            Box::new(BagGbrtOptimizer),
            Box::new(BoomExplorerOptimizer),
            Box::new(ScboOptimizer::default()),
        ]
    }

    #[test]
    fn every_optimizer_respects_the_budget() {
        let space = DesignSpace::boom();
        for mut opt in all_optimizers() {
            let mut hf = Sphere::default();
            let result = opt.optimize(&space, &mut hf, &small_designs, 10, 7);
            assert_eq!(result.history.len(), 10, "{} made wrong eval count", opt.name());
            assert_eq!(hf.evals, 10, "{} bypassed the evaluator", opt.name());
            // The ledger is the budget's single source of truth: every
            // charged evaluation appears there, none beyond the budget.
            assert_eq!(result.ledger.high.evaluations, 10, "{}", opt.name());
            assert_eq!(result.ledger.hf_budget, Some(10), "{}", opt.name());
            assert_eq!(result.ledger.low.evaluations, 0, "{}", opt.name());
        }
    }

    #[test]
    fn every_optimizer_returns_its_history_minimum() {
        let space = DesignSpace::boom();
        for mut opt in all_optimizers() {
            let result = opt.optimize(&space, &mut Sphere::default(), &small_designs, 8, 3);
            let min_feasible = result
                .history
                .iter()
                .filter(|(p, _)| small_designs(&space, p))
                .map(|(_, v)| *v)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(result.best_value, min_feasible, "{}", opt.name());
        }
    }

    #[test]
    fn non_scbo_optimizers_only_evaluate_feasible_designs() {
        let space = DesignSpace::boom();
        for mut opt in all_optimizers() {
            if opt.name() == "SCBO" {
                continue;
            }
            let result = opt.optimize(&space, &mut Sphere::default(), &small_designs, 8, 11);
            for (p, _) in &result.history {
                assert!(small_designs(&space, p), "{} evaluated an infeasible point", opt.name());
            }
        }
    }

    #[test]
    fn scbo_best_is_always_feasible() {
        let space = DesignSpace::boom();
        let mut opt = ScboOptimizer::default();
        let result = opt.optimize(&space, &mut Sphere::default(), &small_designs, 12, 5);
        assert!(small_designs(&space, &result.best_point));
    }

    #[test]
    fn surrogates_beat_random_search_on_a_smooth_objective() {
        // With a smooth single-basin objective and a modest budget, the
        // model-based baselines should (on average over seeds) find
        // better designs than pure random search.
        let space = DesignSpace::boom();
        // Averaged over enough seeds that the comparison reflects the
        // optimizers rather than one PRNG stream's luck.
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let avg = |opt: &mut dyn Optimizer| -> f64 {
            seeds
                .iter()
                .map(|&s| {
                    opt.optimize(&space, &mut Sphere::default(), &small_designs, 12, s).best_value
                })
                .sum::<f64>()
                / seeds.len() as f64
        };
        let random = avg(&mut RandomSearchOptimizer);
        let rf = avg(&mut RandomForestOptimizer);
        let gp = avg(&mut BoomExplorerOptimizer);
        assert!(rf < random + 0.05, "random forest {rf} vs random {random}");
        assert!(gp < random + 0.05, "boom-explorer {gp} vs random {random}");
    }

    #[test]
    fn optimizers_are_deterministic_given_seed() {
        let space = DesignSpace::boom();
        for mut opt in all_optimizers() {
            let ra = opt.optimize(&space, &mut Sphere::default(), &small_designs, 6, 42);
            let rb = opt.optimize(&space, &mut Sphere::default(), &small_designs, 6, 42);
            assert_eq!(ra.best_point, rb.best_point, "{}", opt.name());
            assert_eq!(ra.best_value, rb.best_value, "{}", opt.name());
        }
    }

    #[test]
    fn every_optimizer_stops_once_the_space_is_used_up() {
        // Two parameters with two candidates each, every other one
        // fixed: four designs, all feasible, against a budget of six.
        let boom = DesignSpace::boom();
        let space = DesignSpace::new(
            Param::ALL
                .iter()
                .map(|&p| {
                    let n = if matches!(p, Param::DecodeWidth | Param::IntFu) { 2 } else { 1 };
                    boom.candidates(p)[..n].to_vec()
                })
                .collect(),
        );
        assert_eq!(space.size(), 4);
        let anything = |_: &DesignSpace, _: &DesignPoint| true;
        for mut opt in all_optimizers() {
            let mut hf = Sphere::default();
            let result = opt.optimize(&space, &mut hf, &anything, 6, 1);
            assert_eq!(result.history.len(), 4, "{}", opt.name());
            assert_eq!(result.ledger.high.evaluations, 4, "{}", opt.name());
            assert_eq!(hf.evals, 4, "{}", opt.name());
        }
    }
}
