//! Boosted-tree regressors: least-squares GBRT and AdaBoost.R2.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::weighted_median;
use crate::RegressionTree;

/// Least-squares gradient-boosted regression trees — the base model of
/// the BagGBRT baseline \[Wang et al., GLSVLSI'23\].
///
/// # Examples
///
/// ```
/// use dse_baselines::Gbrt;
///
/// let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
/// let y: Vec<f64> = x.iter().map(|p| (p[0] * 6.0).sin()).collect();
/// let model = Gbrt::fit(&x, &y, 50, 3, 0.3);
/// assert!((model.predict(&[0.25]) - (0.25_f64 * 6.0).sin()).abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct Gbrt {
    base: f64,
    learning_rate: f64,
    stages: Vec<RegressionTree>,
}

impl Gbrt {
    /// Fits `n_stages` depth-`max_depth` trees on the running residuals
    /// with shrinkage `learning_rate`.
    ///
    /// # Panics
    ///
    /// Panics on empty data or a non-positive learning rate.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        n_stages: usize,
        max_depth: usize,
        learning_rate: f64,
    ) -> Self {
        assert!(!x.is_empty(), "cannot fit GBRT to no data");
        assert!(learning_rate > 0.0, "learning rate must be positive");
        let base = y.iter().sum::<f64>() / y.len() as f64;
        let mut residuals: Vec<f64> = y.iter().map(|v| v - base).collect();
        let mut stages = Vec::with_capacity(n_stages);
        for _ in 0..n_stages {
            let tree = RegressionTree::fit(x, &residuals, None, max_depth, 2);
            for (r, xi) in residuals.iter_mut().zip(x) {
                *r -= learning_rate * tree.predict(xi);
            }
            stages.push(tree);
        }
        Self { base, learning_rate, stages }
    }

    /// Predicts the target at a feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.learning_rate * self.stages.iter().map(|t| t.predict(x)).sum::<f64>()
    }
}

/// AdaBoost.R2 regression — the surrogate of the ActBoost baseline
/// \[Li et al., DAC'16\] (Drucker's boosting for regression).
///
/// Weak learners are shallow trees fit on weight-proportional bootstrap
/// resamples; predictions combine by the weighted median.
#[derive(Debug, Clone)]
pub struct AdaBoostR2 {
    learners: Vec<(RegressionTree, f64)>,
    fallback: f64,
}

impl AdaBoostR2 {
    /// Fits up to `n_learners` weak trees of depth `max_depth`.
    ///
    /// Boosting stops early if a learner's weighted linear loss exceeds
    /// 0.5 (the AdaBoost.R2 termination rule).
    ///
    /// # Panics
    ///
    /// Panics on empty data.
    pub fn fit(x: &[Vec<f64>], y: &[f64], n_learners: usize, max_depth: usize, seed: u64) -> Self {
        assert!(!x.is_empty(), "cannot fit AdaBoost to no data");
        let n = x.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = vec![1.0 / n as f64; n];
        let mut learners = Vec::new();
        for _ in 0..n_learners {
            // Weight-proportional bootstrap resample.
            let rows: Vec<usize> = (0..n).map(|_| sample_index(&weights, &mut rng)).collect();
            let bx: Vec<Vec<f64>> = rows.iter().map(|&r| x[r].clone()).collect();
            let by: Vec<f64> = rows.iter().map(|&r| y[r]).collect();
            let tree = RegressionTree::fit(&bx, &by, None, max_depth, 2);
            // Linear loss normalized by the worst error.
            let errors: Vec<f64> =
                x.iter().zip(y).map(|(xi, yi)| (tree.predict(xi) - yi).abs()).collect();
            let max_err = errors.iter().cloned().fold(0.0_f64, f64::max);
            if max_err <= 1e-12 {
                // Perfect learner: give it a large vote and stop.
                learners.push((tree, 10.0));
                break;
            }
            let losses: Vec<f64> = errors.iter().map(|e| e / max_err).collect();
            let avg_loss: f64 = weights.iter().zip(&losses).map(|(w, l)| w * l).sum();
            if avg_loss >= 0.5 {
                break; // AdaBoost.R2 termination
            }
            let beta = avg_loss / (1.0 - avg_loss);
            for (w, l) in weights.iter_mut().zip(&losses) {
                *w *= beta.powf(1.0 - l);
            }
            let sum: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= sum;
            }
            learners.push((tree, (1.0 / beta).ln()));
        }
        let fallback = y.iter().sum::<f64>() / n as f64;
        Self { learners, fallback }
    }

    /// Predicts via the weighted median of the weak learners (falls back
    /// to the training mean if boosting terminated immediately).
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.learners.is_empty() {
            return self.fallback;
        }
        let mut pairs: Vec<(f64, f64)> =
            self.learners.iter().map(|(t, w)| (t.predict(x), *w)).collect();
        weighted_median(&mut pairs)
    }

    /// Spread of the weak learners' predictions at `x` — the committee
    /// disagreement used by ActBoost's active learning.
    pub fn disagreement(&self, x: &[f64]) -> f64 {
        if self.learners.len() < 2 {
            return 0.0;
        }
        let preds: Vec<f64> = self.learners.iter().map(|(t, _)| t.predict(x)).collect();
        let lo = preds.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = preds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }

    /// Number of committed weak learners.
    pub fn learner_count(&self) -> usize {
        self.learners.len()
    }
}

fn sample_index(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..total.max(1e-300));
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 8.0).sin() + p[0]).collect();
        (x, y)
    }

    #[test]
    fn gbrt_reduces_training_error_with_stages() {
        let (x, y) = wavy();
        let err = |m: &Gbrt| -> f64 {
            x.iter().zip(&y).map(|(xi, yi)| (m.predict(xi) - yi).powi(2)).sum()
        };
        let short = Gbrt::fit(&x, &y, 5, 3, 0.3);
        let long = Gbrt::fit(&x, &y, 80, 3, 0.3);
        assert!(err(&long) < err(&short) / 2.0);
    }

    #[test]
    fn gbrt_zero_stages_is_the_mean() {
        let (x, y) = wavy();
        let m = Gbrt::fit(&x, &y, 0, 3, 0.3);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert_eq!(m.predict(&[0.4]), mean);
    }

    #[test]
    fn adaboost_learns_the_trend() {
        let (x, y) = wavy();
        let m = AdaBoostR2::fit(&x, &y, 30, 3, 1);
        assert!(m.learner_count() > 1);
        let rmse: f64 =
            (x.iter().zip(&y).map(|(xi, yi)| (m.predict(xi) - yi).powi(2)).sum::<f64>()
                / x.len() as f64)
                .sqrt();
        assert!(rmse < 0.4, "rmse {rmse}");
    }

    #[test]
    fn adaboost_disagreement_is_nonnegative() {
        let (x, y) = wavy();
        let m = AdaBoostR2::fit(&x, &y, 20, 2, 2);
        for xi in &x {
            assert!(m.disagreement(xi) >= 0.0);
        }
    }

    #[test]
    fn adaboost_is_deterministic_given_seed() {
        let (x, y) = wavy();
        let a = AdaBoostR2::fit(&x, &y, 15, 3, 9).predict(&[0.37]);
        let b = AdaBoostR2::fit(&x, &y, 15, 3, 9).predict(&[0.37]);
        assert_eq!(a, b);
    }
}
