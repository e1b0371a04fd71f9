//! The common optimizer interface and evaluation bookkeeping.

use std::collections::HashSet;

use dse_exec::{Constraint, CostLedger, Evaluator, Fidelity, LedgerEntry, LedgerSummary};
use dse_space::{DesignPoint, DesignSpace};
use rand::rngs::StdRng;

/// Random draws [`EvalLog::random_unseen`] makes before concluding that
/// no feasible unseen design is left.
const MAX_UNSEEN_DRAWS: usize = 10_000;

/// Outcome of one optimization run.
#[derive(Debug, Clone)]
pub struct OptimizationResult {
    /// Best *feasible* evaluated design (overall best if nothing
    /// feasible was evaluated).
    pub best_point: DesignPoint,
    /// Its objective value.
    pub best_value: f64,
    /// Every evaluation in order `(design, value)`.
    pub history: Vec<(DesignPoint, f64)>,
    /// The run's cost-ledger roll-up (budget, charges, replays, denials).
    pub ledger: LedgerSummary,
}

/// A budgeted black-box optimizer (one of the Fig. 5 baselines).
pub trait Optimizer {
    /// Display name used in the experiment tables.
    fn name(&self) -> &'static str;

    /// Runs the optimizer for `budget` evaluations of `hf`, proposing
    /// only designs that `constraint` accepts (SCBO excepted). The run
    /// ends early when the space holds fewer feasible designs than the
    /// budget.
    fn optimize(
        &mut self,
        space: &DesignSpace,
        hf: &mut dyn Evaluator,
        constraint: &dyn Constraint,
        budget: usize,
        seed: u64,
    ) -> OptimizationResult;
}

/// Rejection sampling gave up: feasible designs are too rare under the
/// active constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleFeasibleError {
    /// How many distinct feasible designs were requested.
    pub requested: usize,
    /// How many were found before giving up.
    pub found: usize,
    /// How many random draws were attempted.
    pub attempts: usize,
}

impl std::fmt::Display for SampleFeasibleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "found only {} of {} requested feasible designs after {} random draws — \
             the feasibility constraint is too tight for rejection sampling",
            self.found, self.requested, self.attempts
        )
    }
}

impl std::error::Error for SampleFeasibleError {}

/// Draws `n` distinct feasible design points by rejection sampling.
///
/// # Errors
///
/// Returns [`SampleFeasibleError`] when 10 000·n rejections fail to find
/// enough feasible designs, so tight area limits degrade gracefully
/// instead of aborting a whole experiment run. With the Table 2 area
/// limits feasibility is plentiful and sampling always succeeds.
pub fn sample_feasible(
    space: &DesignSpace,
    constraint: &dyn Constraint,
    n: usize,
    rng: &mut StdRng,
) -> Result<Vec<DesignPoint>, SampleFeasibleError> {
    let mut out = Vec::with_capacity(n);
    let mut seen = HashSet::new();
    let mut attempts = 0usize;
    let max_attempts = 10_000 * n.max(1);
    while out.len() < n {
        if attempts >= max_attempts {
            return Err(SampleFeasibleError { requested: n, found: out.len(), attempts });
        }
        attempts += 1;
        let p = space.random_point(rng);
        if !constraint.fits(space, &p) {
            continue;
        }
        if seen.insert(space.encode(&p)) {
            out.push(p);
        }
    }
    Ok(out)
}

/// Shared evaluation bookkeeping for every baseline: the run's
/// simulator and constraint, and best-feasible tracking over a
/// [`CostLedger`], which owns the budget, the per-run dedup and all
/// counters — the same accounting FNN-MFRL runs under.
pub(crate) struct EvalLog<'a> {
    space: &'a DesignSpace,
    hf: &'a mut dyn Evaluator,
    constraint: &'a dyn Constraint,
    pub history: Vec<(DesignPoint, f64)>,
    pub feasible: Vec<bool>,
    ledger: CostLedger,
}

impl<'a> EvalLog<'a> {
    pub fn new(
        space: &'a DesignSpace,
        hf: &'a mut dyn Evaluator,
        constraint: &'a dyn Constraint,
        budget: usize,
    ) -> Self {
        Self {
            space,
            hf,
            constraint,
            history: Vec::new(),
            feasible: Vec::new(),
            ledger: CostLedger::new().with_hf_budget(budget),
        }
    }

    pub fn remaining(&self) -> usize {
        self.ledger.hf_remaining().expect("EvalLog always installs a budget")
    }

    pub fn contains(&self, point: &DesignPoint) -> bool {
        self.ledger.knows(Fidelity::High, self.space.encode(point))
    }

    /// Whether `point` is feasible and not yet evaluated.
    fn is_open(&self, point: &DesignPoint) -> bool {
        self.constraint.fits(self.space, point) && !self.contains(point)
    }

    /// Evaluates `point` if budget remains and it is unseen; returns the
    /// value when a charged evaluation happened (replays and denials
    /// both return `None`, as the optimizers expect).
    pub fn evaluate(&mut self, point: &DesignPoint) -> Option<f64> {
        match self.ledger.evaluate(&mut *self.hf, self.space, point) {
            LedgerEntry::Charged(ev) => {
                self.history.push((point.clone(), ev.cpi));
                self.feasible.push(self.constraint.fits(self.space, point));
                Some(ev.cpi)
            }
            LedgerEntry::Replayed(_) | LedgerEntry::Denied => None,
        }
    }

    /// Training data for surrogates: normalized features and values.
    pub fn training_data(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x = self.history.iter().map(|(p, _)| p.feature_vector(self.space)).collect();
        let y = self.history.iter().map(|(_, v)| *v).collect();
        (x, y)
    }

    /// Best feasible value so far (infinity if none).
    pub fn best_feasible_value(&self) -> f64 {
        self.history
            .iter()
            .zip(&self.feasible)
            .filter(|(_, &f)| f)
            .map(|((_, v), _)| *v)
            .fold(f64::INFINITY, f64::min)
    }

    /// Draws `n` random feasible candidates for acquisition ranking,
    /// excluding already-evaluated designs.
    pub fn candidate_pool(&self, n: usize, rng: &mut StdRng) -> Vec<DesignPoint> {
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0;
        while out.len() < n && attempts < 50 * n {
            attempts += 1;
            let p = self.space.random_point(rng);
            if self.is_open(&p) {
                out.push(p);
            }
        }
        out
    }

    /// Draws one uniform feasible unseen point (fallback exploration),
    /// or `None` when [`MAX_UNSEEN_DRAWS`] draws find none — the space
    /// is used up.
    pub fn random_unseen(&self, rng: &mut StdRng) -> Option<DesignPoint> {
        (0..MAX_UNSEEN_DRAWS).map(|_| self.space.random_point(rng)).find(|p| self.is_open(p))
    }

    pub fn into_result(self) -> OptimizationResult {
        assert!(!self.history.is_empty(), "optimizer made no evaluations");
        let best = self
            .history
            .iter()
            .zip(&self.feasible)
            .filter(|(_, &f)| f)
            .map(|(h, _)| h)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .or_else(|| self.history.iter().min_by(|a, b| a.1.total_cmp(&b.1)))
            .expect("non-empty history");
        OptimizationResult {
            best_point: best.0.clone(),
            best_value: best.1,
            history: self.history.clone(),
            ledger: self.ledger.summary(),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use dse_exec::{Evaluation, Evaluator, Fidelity};
    use dse_space::{DesignPoint, DesignSpace};

    /// A synthetic smooth HF model with a known optimum at the largest
    /// design; [`small_designs`] caps the reachable region.
    #[derive(Debug, Default)]
    pub struct Sphere {
        pub evals: usize,
    }

    impl Evaluator for Sphere {
        fn fidelity(&self) -> Fidelity {
            Fidelity::High
        }

        fn evaluate_batch(
            &mut self,
            space: &DesignSpace,
            points: &[DesignPoint],
        ) -> Vec<Evaluation> {
            self.evals += points.len();
            points
                .iter()
                .map(|point| {
                    let f = point.feature_vector(space);
                    let cpi = 3.0 - f.iter().sum::<f64>() / f.len() as f64
                        + 0.3 * f.iter().map(|v| (v - 0.7) * (v - 0.7)).sum::<f64>();
                    Evaluation::new(cpi, Fidelity::High)
                })
                .collect()
        }
    }

    /// The feasibility limit paired with [`Sphere`].
    pub fn small_designs(_space: &DesignSpace, point: &DesignPoint) -> bool {
        point.indices().iter().sum::<usize>() <= 20
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{small_designs, Sphere};
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_feasible_respects_the_predicate() {
        let space = DesignSpace::boom();
        let mut rng = StdRng::seed_from_u64(0);
        let samples =
            sample_feasible(&space, &small_designs, 20, &mut rng).expect("feasibility plentiful");
        assert_eq!(samples.len(), 20);
        for p in samples {
            assert!(small_designs(&space, &p));
        }
    }

    #[test]
    fn sample_feasible_reports_an_impossible_constraint_gracefully() {
        let space = DesignSpace::boom();
        let mut rng = StdRng::seed_from_u64(1);
        let impossible = |_: &DesignSpace, _: &DesignPoint| false;
        let err = sample_feasible(&space, &impossible, 3, &mut rng).unwrap_err();
        assert_eq!(err, SampleFeasibleError { requested: 3, found: 0, attempts: 30_000 });
        let msg = err.to_string();
        assert!(msg.contains("0 of 3") && msg.contains("30000 random draws"), "{msg}");
    }

    #[test]
    fn eval_log_enforces_budget_and_dedup() {
        let space = DesignSpace::boom();
        let mut hf = Sphere::default();
        let mut log = EvalLog::new(&space, &mut hf, &small_designs, 3);
        let p = space.smallest();
        assert!(log.evaluate(&p).is_some());
        assert!(log.evaluate(&p).is_none(), "duplicate rejected");
        let q = p.increased(&space, dse_space::Param::IntFu).unwrap();
        let r = q.increased(&space, dse_space::Param::IntFu).unwrap();
        assert!(log.evaluate(&q).is_some());
        assert!(log.evaluate(&r).is_some());
        assert_eq!(log.remaining(), 0);
        let s = r.increased(&space, dse_space::Param::IntFu).unwrap();
        assert!(log.evaluate(&s).is_none(), "budget exhausted");
        drop(log);
        assert_eq!(hf.evals, 3, "only charged evaluations reach the model");
    }

    #[test]
    fn into_result_prefers_feasible_designs() {
        let space = DesignSpace::boom();
        let mut hf = Sphere::default();
        let mut log = EvalLog::new(&space, &mut hf, &small_designs, 2);
        // The largest design is infeasible but has the lowest objective.
        log.evaluate(&space.largest());
        log.evaluate(&space.smallest());
        let result = log.into_result();
        assert_eq!(result.best_point, space.smallest());
    }
}
