//! Fidelity and constraint abstractions.
//!
//! The expensive (simulator) side of the flow speaks the workspace-wide
//! batch-first [`Evaluator`] interface from `dse-exec`; this module
//! keeps the cheap side: the [`LowFidelity`] proxy trait the RL phases
//! interrogate for gradients and training observations, plus the
//! [`LfEvaluator`] adapter that lets the same proxy be metered through a
//! [`CostLedger`](dse_exec::CostLedger) when its answers count.

use dse_exec::{CpiModel, Evaluation, Fidelity};
use dse_space::{DesignPoint, DesignSpace, Param};

/// Model-time units one analytical evaluation costs, in units of one
/// simulated trace — the paper's ~1000x LF/HF cost gap.
pub const LF_TRACE_EQUIVALENT: f64 = 1e-3;

/// Parameter sets as bitsets: bit [`Param::index`] stands for the
/// parameter, so one `u16` holds any subset of [`Param::ALL`].
const _: () = assert!(Param::COUNT <= 16, "parameter bitsets are u16");

/// The bitset of `params` (bit [`Param::index`] set for each).
pub fn param_bits(params: impl IntoIterator<Item = Param>) -> u16 {
    params.into_iter().fold(0, |bits, p| bits | 1 << p.index())
}

/// The cheap, differentiable evaluation proxy (the analytical model).
///
/// `beneficial_params` is the LF action mask of §3.1: the parameters
/// whose next candidate step the model predicts to reduce CPI. The LF
/// phase never takes an action outside this set.
///
/// Every answer must be a pure function of the point: the same point
/// gets the same bits however often, and in whatever order, it is
/// asked. The RL phases ask once per point and replay the answer (see
/// [`StepMemo`](crate::StepMemo)).
pub trait LowFidelity {
    /// Estimated cycles per instruction.
    fn cpi(&self, space: &DesignSpace, point: &DesignPoint) -> f64;

    /// Parameters whose increase the model's gradient endorses.
    fn beneficial_params(&self, space: &DesignSpace, point: &DesignPoint) -> Vec<Param>;

    /// [`cpi`](Self::cpi) and the [`param_bits`] of
    /// [`beneficial_params`](Self::beneficial_params) in one probe.
    ///
    /// Must equal the two separate answers bit for bit. The default makes
    /// exactly those two calls; a model that gets both from one pass
    /// overrides it.
    fn cpi_and_mask(&self, space: &DesignSpace, point: &DesignPoint) -> (f64, u16) {
        (self.cpi(space, point), param_bits(self.beneficial_params(space, point)))
    }

    /// Estimated instructions per cycle.
    fn ipc(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        1.0 / self.cpi(space, point)
    }

    /// Estimated CPI of every design in `points`, in input order.
    ///
    /// Must equal calling [`LowFidelity::cpi`] on each point — backends
    /// that parallelize must stay bit-identical to that sequential walk
    /// at any thread count. The default simply *is* the sequential walk.
    fn cpi_batch(&self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<f64> {
        points.iter().map(|p| self.cpi(space, p)).collect()
    }

    /// Model-time units one evaluation costs (see [`LF_TRACE_EQUIVALENT`]).
    fn cost_per_eval(&self) -> f64 {
        LF_TRACE_EQUIVALENT
    }
}

/// Adapts a [`LowFidelity`] proxy (by shared reference) to the
/// batch-first [`Evaluator`](dse_exec::Evaluator) interface, so LF work
/// can be metered through the same [`CostLedger`](dse_exec::CostLedger)
/// as HF work.
///
/// The proxy is pure (`&self`), so the adapter never memoizes: every
/// batch is computed fresh and reported uncached. The adapter is a
/// [`CpiModel`], so `exec`'s blanket impl supplies the full `Evaluator`
/// surface.
pub struct LfEvaluator<'a, L: LowFidelity + ?Sized>(pub &'a L);

impl<L: LowFidelity + ?Sized> CpiModel for LfEvaluator<'_, L> {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Low
    }

    fn evaluations(&mut self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<Evaluation> {
        Evaluation::batch(self.0.cpi_batch(space, points), Fidelity::Low)
    }

    fn cost_per_eval(&self) -> f64 {
        self.0.cost_per_eval()
    }
}

/// A feasibility constraint on designs (the area limit).
///
/// Like [`LowFidelity`], the answer must be a pure function of the
/// point: the RL phases ask once per point and replay the answer.
pub trait Constraint {
    /// Whether `point` is feasible.
    fn fits(&self, space: &DesignSpace, point: &DesignPoint) -> bool;
}

impl<F: Fn(&DesignSpace, &DesignPoint) -> bool> Constraint for F {
    fn fits(&self, space: &DesignSpace, point: &DesignPoint) -> bool {
        self(space, point)
    }
}
