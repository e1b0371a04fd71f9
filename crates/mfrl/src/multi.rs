//! The combined multi-fidelity DSE flow (Fig. 4).

use dse_exec::{CostLedger, LedgerRouter};
use dse_fnn::Fnn;
use dse_obs::trace;
use dse_space::DesignSpace;

use crate::{
    Constraint, HfOutcome, HfPhase, HfPhaseConfig, LfOutcome, LfPhase, LfPhaseConfig, LowFidelity,
};

/// Configuration for the full LF→HF flow.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MultiFidelityConfig {
    /// Low-fidelity phase settings.
    pub lf: LfPhaseConfig,
    /// High-fidelity phase settings.
    pub hf: HfPhaseConfig,
}

/// Combined result of both phases.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// The LF phase record.
    pub lf: LfOutcome,
    /// The HF phase record (the headline result lives in
    /// [`HfOutcome::best_point`] / [`HfOutcome::best_cpi`]).
    pub hf: HfOutcome,
    /// The run's cost ledger: every LF and HF charge, replay and denial
    /// across both phases, and the HF budget that governed them.
    pub ledger: CostLedger,
}

/// The end-to-end multi-fidelity DSE driver (Fig. 4): LF exploration
/// with gradient-masked model-based RL, then budgeted HF refinement.
///
/// # Examples
///
/// The `archdse` crate wires the real analytical model, simulator and
/// area model into this driver; its `Explorer` type is the friendly
/// entry point:
///
/// ```text
/// let space = DesignSpace::boom();
/// let mut fnn = FnnBuilder::for_space(&space).build();
/// let dse = MultiFidelityDse::new(MultiFidelityConfig::default());
/// let outcome = dse.run(&mut fnn, &space, &lf, &mut hf, &area_limit);
/// println!("best CPI {}", outcome.hf.best_cpi);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiFidelityDse {
    /// Flow configuration.
    pub config: MultiFidelityConfig,
}

impl MultiFidelityDse {
    /// Creates a driver with the given configuration.
    pub fn new(config: MultiFidelityConfig) -> Self {
        Self { config }
    }

    /// Runs both phases, training `fnn` throughout. One fresh
    /// [`CostLedger`] meters the whole run and is returned in the
    /// outcome; `hf` may carry a memo warmed by other runs — a memo
    /// answer costs no model time but still charges this run's budget.
    /// `hf` is any [`LedgerRouter`]: a plain evaluator, or a wrapper
    /// that times it or builds it on first use.
    pub fn run<E: LedgerRouter + ?Sized>(
        &self,
        fnn: &mut Fnn,
        space: &DesignSpace,
        lf: &impl LowFidelity,
        hf: &mut E,
        constraint: &impl Constraint,
    ) -> DseOutcome {
        let _run_span = trace::span("mfrl_run");
        let mut ledger = CostLedger::new();
        let lf_outcome = LfPhase::new(self.config.lf).run(fnn, space, lf, constraint, &mut ledger);
        let hf_outcome = HfPhase::new(self.config.hf).run(
            fnn,
            space,
            lf,
            hf,
            constraint,
            &lf_outcome,
            &mut ledger,
        );
        DseOutcome { lf: lf_outcome, hf: hf_outcome, ledger }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{QuadraticLf, SumConstraint, SyntheticHf};
    use dse_fnn::FnnBuilder;

    #[test]
    fn end_to_end_flow_finds_a_feasible_optimum() {
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let mut hf = SyntheticHf::new(&space);
        let constraint = SumConstraint { max_index_sum: 10 };
        let config = MultiFidelityConfig {
            lf: LfPhaseConfig { episodes: 80, keep_best: 4, seed: 1, ..Default::default() },
            hf: HfPhaseConfig { budget: 9, seed: 1, ..Default::default() },
        };
        let outcome =
            MultiFidelityDse::new(config).run(&mut fnn, &space, &lf, &mut hf, &constraint);
        let sum: usize = outcome.hf.best_point.indices().iter().sum();
        assert!(sum <= 10, "best design violates the constraint");
        assert!(outcome.hf.evaluations <= 9);
        // The HF model rewards param 3, which the LF mask forbids; an
        // effective HF phase should have explored it at least once.
        let explored_param3 = outcome.hf.history.iter().any(|(p, _)| p.indices()[3] > 0);
        assert!(explored_param3, "HF phase never left the LF-endorsed subspace");
    }
}
