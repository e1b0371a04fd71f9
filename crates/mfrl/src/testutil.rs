//! Synthetic fidelity models for unit-testing the RL machinery without
//! the real analytical model or simulator.

use std::cell::RefCell;

use dse_exec::{CacheStats, CpiCache, Evaluation, Evaluator, Fidelity};
use dse_space::{DesignPoint, DesignSpace, Param};

use crate::{Constraint, LowFidelity};

/// A synthetic LF model with a known optimum: CPI falls linearly with
/// the candidate indices of the endorsed parameters and rises slightly
/// with everything else.
#[derive(Debug, Clone)]
pub struct QuadraticLf {
    _space_size: u64,
}

impl QuadraticLf {
    /// Parameter indices (into [`Param::ALL`]) this model endorses.
    pub const ENDORSED: [usize; 3] = [0, 1, 2];

    /// Creates the model for a space (shape recorded for sanity only).
    pub fn new(space: &DesignSpace) -> Self {
        Self { _space_size: space.size() }
    }

    fn cpi_of(point: &DesignPoint) -> f64 {
        let idx = point.indices();
        let good: usize = Self::ENDORSED.iter().map(|&i| idx[i]).sum();
        let bad: usize =
            (0..idx.len()).filter(|i| !Self::ENDORSED.contains(i)).map(|i| idx[i]).sum();
        3.0 - 0.12 * good as f64 + 0.02 * bad as f64
    }
}

impl LowFidelity for QuadraticLf {
    fn cpi(&self, _space: &DesignSpace, point: &DesignPoint) -> f64 {
        Self::cpi_of(point)
    }

    fn beneficial_params(&self, space: &DesignSpace, point: &DesignPoint) -> Vec<Param> {
        Self::ENDORSED
            .iter()
            .filter_map(|&i| Param::from_index(i))
            .filter(|&p| !point.is_max(space, p))
            .collect()
    }
}

/// A synthetic HF model that mostly agrees with [`QuadraticLf`] but also
/// rewards parameter 3 — a benefit the LF mask hides, mirroring the
/// paper's ROB story. Memoizes its model runs like the real simulator.
#[derive(Debug, Clone)]
pub struct SyntheticHf {
    cache: CpiCache,
}

impl SyntheticHf {
    /// Creates a fresh evaluator with an empty memo.
    pub fn new(_space: &DesignSpace) -> Self {
        Self { cache: CpiCache::new() }
    }

    /// Number of unique model runs performed (every run is memoized, so
    /// this is exactly the memo's entry count).
    pub fn evaluations(&self) -> usize {
        self.cache.len()
    }
}

impl Evaluator for SyntheticHf {
    fn fidelity(&self) -> Fidelity {
        Fidelity::High
    }

    fn evaluate_batch(&mut self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<Evaluation> {
        points
            .iter()
            .map(|point| {
                let key = space.encode(point);
                match self.cache.get(key) {
                    Some(cpi) => Evaluation::new(cpi, Fidelity::High).cached(true),
                    None => {
                        let idx = point.indices();
                        let cpi = QuadraticLf::cpi_of(point) - 0.10 * idx[3] as f64;
                        self.cache.insert(key, cpi);
                        Evaluation::new(cpi, Fidelity::High)
                    }
                }
            })
            .collect()
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// An LF model that scores every design identically — the worst case
/// for candidate-set ranking, since the whole pool ties on CPI.
#[derive(Debug, Clone, Copy)]
pub struct PlateauLf;

impl LowFidelity for PlateauLf {
    fn cpi(&self, _space: &DesignSpace, _point: &DesignPoint) -> f64 {
        2.0
    }

    fn beneficial_params(&self, space: &DesignSpace, point: &DesignPoint) -> Vec<Param> {
        Param::ALL.into_iter().filter(|&p| !point.is_max(space, p)).collect()
    }
}

/// Wraps an LF model and logs the encoded point of every `cpi` and
/// `beneficial_params` call, to count how often the phases ask.
///
/// Batched estimates are the ledger-metered ranking, not rollout
/// probes: they go to the inner model unlogged.
#[derive(Debug)]
pub struct CountingLf<L> {
    inner: L,
    /// Points asked for a CPI, in call order.
    pub cpi_calls: RefCell<Vec<u64>>,
    /// Points asked for a gradient mask, in call order.
    pub mask_calls: RefCell<Vec<u64>>,
}

impl<L> CountingLf<L> {
    /// Wraps `inner` with empty logs.
    pub fn new(inner: L) -> Self {
        Self { inner, cpi_calls: RefCell::default(), mask_calls: RefCell::default() }
    }

    /// Whether no point was asked for a CPI twice.
    pub fn cpi_calls_are_distinct(&self) -> bool {
        let mut codes = self.cpi_calls.borrow().clone();
        codes.sort_unstable();
        codes.dedup();
        codes.len() == self.cpi_calls.borrow().len()
    }
}

impl<L: LowFidelity> LowFidelity for CountingLf<L> {
    fn cpi(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        self.cpi_calls.borrow_mut().push(space.encode(point));
        self.inner.cpi(space, point)
    }

    fn beneficial_params(&self, space: &DesignSpace, point: &DesignPoint) -> Vec<Param> {
        self.mask_calls.borrow_mut().push(space.encode(point));
        self.inner.beneficial_params(space, point)
    }

    fn cpi_batch(&self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<f64> {
        self.inner.cpi_batch(space, points)
    }
}

/// A monotone stand-in for the area limit: the sum of candidate indices
/// may not exceed `max_index_sum`.
#[derive(Debug, Clone, Copy)]
pub struct SumConstraint {
    /// Maximum allowed sum of candidate indices.
    pub max_index_sum: usize,
}

impl Constraint for SumConstraint {
    fn fits(&self, _space: &DesignSpace, point: &DesignPoint) -> bool {
        point.indices().iter().sum::<usize>() <= self.max_index_sum
    }
}
