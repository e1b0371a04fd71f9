//! Timing wrappers around each layer's public interface.
//!
//! The traced explore campaign drives the MFRL phases through these
//! instead of the bare backends: every call is forwarded unchanged, so the
//! campaign's outcome is bit-identical, and the wrapper adds the call's
//! wall time and count to a [`Meter`].

use std::cell::Cell;
use std::time::{Duration, Instant};

use dse_exec::{
    CacheStats, CostLedger, Evaluation, Evaluator, Fidelity, LedgerEntry, LedgerRouter,
};
use dse_mfrl::{Constraint, LowFidelity};
use dse_space::{DesignPoint, DesignSpace, Param};

/// Accumulated wall time and call count of one interface.
#[derive(Debug, Default)]
pub struct Meter {
    time: Cell<Duration>,
    calls: Cell<u64>,
}

impl Meter {
    /// Runs `f`, charging its wall time and one call.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.time.set(self.time.get() + start.elapsed());
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Total time charged, in milliseconds.
    pub fn ms(&self) -> f64 {
        crate::stats::ms(self.time.get())
    }

    /// Calls charged.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// [`LowFidelity`] wrapper metering the gradient mask and CPI estimates
/// (single and batched) separately.
pub struct TimedLf<'a, L> {
    inner: &'a L,
    /// `beneficial_params` calls.
    pub mask: Meter,
    /// `cpi` and `cpi_batch` calls.
    pub cpi: Meter,
}

impl<'a, L: LowFidelity> TimedLf<'a, L> {
    /// Wraps `inner`.
    pub fn new(inner: &'a L) -> Self {
        Self { inner, mask: Meter::default(), cpi: Meter::default() }
    }
}

impl<L: LowFidelity> LowFidelity for TimedLf<'_, L> {
    fn cpi(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        self.cpi.time(|| self.inner.cpi(space, point))
    }

    fn beneficial_params(&self, space: &DesignSpace, point: &DesignPoint) -> Vec<Param> {
        self.mask.time(|| self.inner.beneficial_params(space, point))
    }

    fn cpi_batch(&self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<f64> {
        self.cpi.time(|| self.inner.cpi_batch(space, points))
    }

    fn cost_per_eval(&self) -> f64 {
        self.inner.cost_per_eval()
    }
}

/// [`Constraint`] wrapper metering feasibility checks.
pub struct TimedConstraint<'a, C> {
    inner: &'a C,
    /// `fits` calls.
    pub fits: Meter,
}

impl<'a, C: Constraint> TimedConstraint<'a, C> {
    /// Wraps `inner`.
    pub fn new(inner: &'a C) -> Self {
        Self { inner, fits: Meter::default() }
    }
}

impl<C: Constraint> Constraint for TimedConstraint<'_, C> {
    fn fits(&self, space: &DesignSpace, point: &DesignPoint) -> bool {
        self.fits.time(|| self.inner.fits(space, point))
    }
}

/// [`Evaluator`] wrapper metering batch calls and counting the designs the
/// backend actually ran (answers not flagged as memo hits).
pub struct TimedEvaluator<'a, E> {
    inner: &'a mut E,
    /// `evaluate_batch` calls.
    pub batches: Meter,
    /// Designs the backend ran rather than answered from its memo.
    pub simulated: u64,
}

impl<'a, E: Evaluator> TimedEvaluator<'a, E> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut E) -> Self {
        Self { inner, batches: Meter::default(), simulated: 0 }
    }
}

impl<E: Evaluator> Evaluator for TimedEvaluator<'_, E> {
    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }

    fn evaluate_batch(&mut self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<Evaluation> {
        let inner = &mut *self.inner;
        let out = self.batches.time(|| inner.evaluate_batch(space, points));
        self.simulated += out.iter().filter(|ev| !ev.cached).count() as u64;
        out
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn cost_per_eval(&self) -> f64 {
        self.inner.cost_per_eval()
    }
}

/// [`LedgerRouter`] over a [`TimedEvaluator`]: the same single-tier route
/// as the blanket impl for a plain evaluator, with the ledger's share
/// (route time minus evaluator time) made visible.
pub struct TimedRouter<'a, E> {
    /// The metered backend.
    pub eval: TimedEvaluator<'a, E>,
    /// `route_batch` calls.
    pub route: Meter,
}

impl<'a, E: Evaluator> TimedRouter<'a, E> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut E) -> Self {
        Self { eval: TimedEvaluator::new(inner), route: Meter::default() }
    }
}

impl<E: Evaluator> LedgerRouter for TimedRouter<'_, E> {
    fn route_batch(
        &mut self,
        ledger: &mut CostLedger,
        space: &DesignSpace,
        points: &[DesignPoint],
    ) -> Vec<LedgerEntry> {
        let eval = &mut self.eval;
        self.route.time(|| ledger.evaluate_batch(eval, space, points))
    }
}
