//! The high-fidelity (simulator) refinement phase (§3.2).

use dse_exec::{CostLedger, Fidelity, LedgerEntry, LedgerRouter};
use dse_fnn::{explain_top_action, Fnn};
use dse_obs::trace;
use dse_space::{DesignPoint, DesignSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    rollout, train_on_episode, Constraint, Episode, LfOutcome, LowFidelity, ReinforceConfig,
    StepMemo, EPSILON,
};

/// Configuration of the HF phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HfPhaseConfig {
    /// Total number of unique HF simulations allowed, *including* the
    /// anchoring simulations of the converged design and the `H` subset.
    /// The paper's general-purpose comparison gives our method 9.
    pub budget: usize,
    /// How many designs from `H` (besides the converged design) to
    /// simulate up front for the LF→HF transition.
    pub initial_subset: usize,
    /// Policy-gradient learning rates.
    pub reinforce: ReinforceConfig,
    /// RNG seed.
    pub seed: u64,
    /// The fidelity the budget meters: only [`Fidelity::High`], and
    /// [`HfPhase::run`] panics on any other value. The field is kept so
    /// that the benchmark's copy of the explorer's phase configuration
    /// (`archdse-perf`, which changes only with the benchmark) still
    /// compiles; drop it with the next change to the benchmark.
    pub budget_floor: Fidelity,
}

impl Default for HfPhaseConfig {
    fn default() -> Self {
        Self {
            budget: 9,
            initial_subset: 3,
            reinforce: ReinforceConfig::default(),
            seed: 0,
            budget_floor: Fidelity::High,
        }
    }
}

/// Results of the HF phase.
#[derive(Debug, Clone)]
pub struct HfOutcome {
    /// The best design found by HF simulation (the LF-converged design
    /// when the budget allowed no simulation at all).
    pub best_point: DesignPoint,
    /// Its simulated CPI (LF-estimated under a zero budget).
    pub best_cpi: f64,
    /// Unique HF simulations actually consumed — a mirror of the
    /// ledger's HF evaluation count for convenience.
    pub evaluations: usize,
    /// Every unique HF evaluation in order `(design, CPI)`.
    pub history: Vec<(DesignPoint, f64)>,
    /// The transition anchor: simulated IPC of the LF-converged design
    /// (its LF-estimated IPC under a zero budget).
    pub ipc_h0: f64,
}

/// The HF phase driver: anchors on the LF result, then fine-tunes with
/// unmasked episodes and the eq. 4 reward under a hard simulation
/// budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct HfPhase {
    /// Phase configuration.
    pub config: HfPhaseConfig,
}

impl HfPhase {
    /// Creates a phase driver with the given configuration.
    pub fn new(config: HfPhaseConfig) -> Self {
        Self { config }
    }

    /// Runs the HF phase, continuing to train `fnn`.
    ///
    /// The configured budget is installed into `ledger`, which is the
    /// single source of budget truth from here on: every proposal is
    /// replayed, charged or denied by the ledger, never by the phase.
    /// A zero budget degrades gracefully — nothing is simulated and the
    /// LF-converged design is returned with its LF CPI.
    ///
    /// `hf` is any [`LedgerRouter`]: a plain [`Evaluator`](dse_exec::Evaluator),
    /// or a wrapper that times it or builds it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `budget_floor` is not [`Fidelity::High`].
    #[allow(clippy::too_many_arguments)] // the phase wiring is the arity
    pub fn run<R: LedgerRouter + ?Sized>(
        &self,
        fnn: &mut Fnn,
        space: &DesignSpace,
        lf: &impl LowFidelity,
        hf: &mut R,
        constraint: &impl Constraint,
        lf_outcome: &LfOutcome,
        ledger: &mut CostLedger,
    ) -> HfOutcome {
        let cfg = &self.config;
        let _phase_span = trace::span("hf_phase");
        assert_eq!(
            cfg.budget_floor,
            Fidelity::High,
            "the HF budget meters simulations only; `budget_floor` is kept for the benchmark's \
             copy of this configuration and takes no other value"
        );
        ledger.set_hf_budget(cfg.budget);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut history: Vec<(DesignPoint, f64)> = Vec::new();

        // LF→HF transition: simulate the converged design (IPC_h0) and a
        // subset of the observed best designs H in one batch, so
        // evaluators backed by the parallel executor can overlap them.
        // The ledger deduplicates the batch and stops charging when the
        // budget runs out, counter-exact with a sequential walk.
        let mut initial: Vec<DesignPoint> = vec![lf_outcome.converged.clone()];
        initial.extend(
            lf_outcome.best_designs.iter().take(cfg.initial_subset).map(|(p, _)| p.clone()),
        );
        let entries = hf.route_batch(ledger, space, &initial);
        for (point, entry) in initial.iter().zip(&entries) {
            if let LedgerEntry::Charged(ev) = entry {
                history.push((point.clone(), ev.cpi));
            }
        }
        let Some(anchor_cpi) = entries[0].cpi() else {
            // Zero budget: the anchor itself was denied. Fall back to
            // the LF estimate of the converged design.
            return HfOutcome {
                best_point: lf_outcome.converged.clone(),
                best_cpi: lf_outcome.converged_cpi,
                evaluations: ledger.evaluations(Fidelity::High),
                history,
                ipc_h0: 1.0 / lf_outcome.converged_cpi,
            };
        };
        let ipc_h0 = 1.0 / anchor_cpi;
        if trace::enabled() {
            trace::event(
                "promotion",
                &[
                    ("phase", "hf".into()),
                    ("anchor_cpi", anchor_cpi.into()),
                    ("ipc_h0", ipc_h0.into()),
                    ("initial_batch", initial.len().into()),
                    ("charged", history.len().into()),
                ],
            );
        }

        // Episode starts are drawn from H (falling back to the smallest
        // design if H is empty).
        let starts: Vec<DesignPoint> = if lf_outcome.best_designs.is_empty() {
            vec![space.smallest()]
        } else {
            lf_outcome.best_designs.iter().map(|(p, _)| p.clone()).collect()
        };

        // Fine-tune until the budget is spent. Replayed designs don't
        // consume budget, so bound the episode count as a safety valve
        // against a policy that keeps re-proposing known designs.
        let max_episodes = cfg.budget * 20;
        // Unmasked: "the actions in the HF phase are no longer
        // restricted by the analytical model".
        let mut memo = StepMemo::new(space, lf, constraint, false);
        let mut episode = Episode::new();
        for episode_idx in 0..max_episodes {
            if ledger.hf_remaining() == Some(0) {
                break;
            }
            let start = starts[rng.gen_range(0..starts.len())].clone();
            let final_point = rollout(fnn, &mut memo, start, &mut rng, &mut episode);
            let entry = hf.route(ledger, space, &final_point);
            let Some(cpi) = entry.cpi() else {
                break;
            };
            if let LedgerEntry::Charged(_) = entry {
                history.push((final_point.clone(), cpi));
            }
            // eq. 4: reward = IPC − IPC_h0 + ε.
            let reward = 1.0 / cpi - ipc_h0 + EPSILON;
            train_on_episode(fnn, &episode, reward, &cfg.reinforce);
            if trace::enabled() {
                let best_cpi = history.iter().map(|(_, c)| *c).fold(f64::INFINITY, f64::min);
                let obs = fnn.observation(space, &final_point, cpi);
                let top = explain_top_action(fnn, &obs, 3);
                trace::event(
                    "episode",
                    &[
                        ("phase", "hf".into()),
                        ("episode", episode_idx.into()),
                        ("steps", episode.len().into()),
                        ("cpi", cpi.into()),
                        ("reward", reward.into()),
                        ("best_cpi", best_cpi.into()),
                        ("top_rules", top.compact().into()),
                    ],
                );
            }
        }

        // Same tie-break as the LF candidate ranking: CPI first, encoded
        // point second, so equal-CPI winners are stable across runs.
        let (best_point, best_cpi) = history
            .iter()
            .min_by(|a, b| {
                a.1.total_cmp(&b.1).then_with(|| space.encode(&a.0).cmp(&space.encode(&b.0)))
            })
            .map(|(p, c)| (p.clone(), *c))
            .expect("at least the anchor was simulated");
        HfOutcome {
            best_point,
            best_cpi,
            evaluations: ledger.evaluations(Fidelity::High),
            history,
            ipc_h0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CountingLf, QuadraticLf, SumConstraint, SyntheticHf};
    use crate::{LfPhase, LfPhaseConfig};
    use dse_exec::Evaluator as _;
    use dse_fnn::FnnBuilder;

    fn pipeline(budget: usize, seed: u64) -> (HfOutcome, SyntheticHf, CostLedger) {
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 10 };
        let mut ledger = CostLedger::new();
        let lf_outcome = LfPhase::new(LfPhaseConfig {
            episodes: 60,
            keep_best: 4,
            seed,
            ..LfPhaseConfig::default()
        })
        .run(&mut fnn, &space, &lf, &constraint, &mut ledger);
        let mut hf = SyntheticHf::new(&space);
        let outcome = HfPhase::new(HfPhaseConfig { budget, seed, ..HfPhaseConfig::default() }).run(
            &mut fnn,
            &space,
            &lf,
            &mut hf,
            &constraint,
            &lf_outcome,
            &mut ledger,
        );
        (outcome, hf, ledger)
    }

    #[test]
    fn budget_is_respected_exactly() {
        let (outcome, hf, ledger) = pipeline(6, 1);
        assert!(outcome.evaluations <= 6);
        assert_eq!(outcome.evaluations, hf.evaluations());
        assert_eq!(outcome.evaluations, ledger.evaluations(Fidelity::High));
        assert_eq!(outcome.history.len(), outcome.evaluations);
    }

    #[test]
    fn best_is_min_of_history() {
        let (outcome, _, _) = pipeline(8, 2);
        let min = outcome.history.iter().map(|(_, c)| *c).fold(f64::INFINITY, f64::min);
        assert_eq!(outcome.best_cpi, min);
    }

    #[test]
    fn hf_phase_improves_on_the_lf_anchor() {
        // The synthetic HF model rewards a parameter the LF mask forbids
        // (exactly the paper's motivation); the unmasked HF episodes
        // must find some of that headroom.
        let (outcome, _, _) = pipeline(9, 3);
        let anchor_cpi = 1.0 / outcome.ipc_h0;
        assert!(
            outcome.best_cpi <= anchor_cpi,
            "HF best {} must not be worse than the anchor {anchor_cpi}",
            outcome.best_cpi
        );
    }

    #[test]
    fn ledger_counters_account_for_every_proposal() {
        let (outcome, hf, ledger) = pipeline(6, 1);
        let high = *ledger.section(Fidelity::High);
        // Every history entry is a run-memo miss that was simulated;
        // further misses are proposals denied for lack of budget.
        assert_eq!(ledger.unique_designs(Fidelity::High), outcome.history.len());
        assert!(high.cache_misses >= high.evaluations);
        assert_eq!(high.cache_misses, high.evaluations + high.denied);
        // The evaluator's own cache saw exactly the unique designs.
        assert_eq!(hf.cache_stats().entries, hf.evaluations());
        // Model time: the synthetic evaluator charges 1 unit per fresh run.
        assert_eq!(high.model_time_units, hf.evaluations() as f64);
    }

    #[test]
    fn history_designs_are_unique() {
        let (outcome, _, _) = pipeline(9, 4);
        let space = DesignSpace::boom();
        let mut codes: Vec<u64> = outcome.history.iter().map(|(p, _)| space.encode(p)).collect();
        let before = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), before, "budget must only count unique sims");
    }

    #[test]
    fn zero_budget_falls_back_to_the_lf_anchor() {
        let (outcome, hf, ledger) = pipeline(0, 5);
        assert_eq!(outcome.evaluations, 0);
        assert!(outcome.history.is_empty());
        assert_eq!(hf.evaluations(), 0, "a zero budget must not touch the simulator");
        assert!(ledger.section(Fidelity::High).denied >= 1);
        assert!(outcome.best_cpi.is_finite() && outcome.best_cpi > 0.0);
        assert!((outcome.ipc_h0 - 1.0 / outcome.best_cpi).abs() < 1e-12);
    }

    #[test]
    fn budget_of_one_simulates_exactly_the_anchor() {
        let (outcome, hf, ledger) = pipeline(1, 6);
        assert_eq!(outcome.evaluations, 1);
        assert_eq!(outcome.history.len(), 1);
        assert_eq!(hf.evaluations(), 1);
        assert_eq!(ledger.hf_remaining(), Some(0));
        // The single simulation is the anchor itself.
        assert!((1.0 / outcome.history[0].1 - outcome.ipc_h0).abs() < 1e-12);
    }

    #[test]
    fn hf_phase_probes_each_point_once_and_never_asks_for_a_mask() {
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 10 };
        let mut ledger = CostLedger::new();
        let lf_outcome = LfPhase::new(LfPhaseConfig { episodes: 30, ..LfPhaseConfig::default() })
            .run(&mut fnn, &space, &lf, &constraint, &mut ledger);
        let counting = CountingLf::new(lf);
        HfPhase::new(HfPhaseConfig { budget: 9, seed: 2, ..HfPhaseConfig::default() }).run(
            &mut fnn,
            &space,
            &counting,
            &mut SyntheticHf::new(&space),
            &constraint,
            &lf_outcome,
            &mut ledger,
        );
        assert!(counting.mask_calls.borrow().is_empty(), "the HF phase asked for a mask");
        assert!(!counting.cpi_calls.borrow().is_empty());
        assert!(counting.cpi_calls_are_distinct(), "a point was asked twice");
    }
}
