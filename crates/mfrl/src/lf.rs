//! The low-fidelity (analytical-model) training phase (§3.1).

use std::collections::HashMap;

use dse_exec::CostLedger;
use dse_fnn::{explain_top_action, Fnn};
use dse_obs::trace;
use dse_space::{DesignPoint, DesignSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    greedy_rollout, rollout, train_on_episode, Constraint, LfEvaluator, LowFidelity,
    ReinforceConfig, StepMemo, EPSILON,
};

/// Episode-reward shape (ablation knob; the paper uses
/// [`RewardKind::IncumbentGap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RewardKind {
    /// eq. 3: `IPC − IPC* + ε` — the paper's "aggressive" design where
    /// only near-incumbent episodes earn positive reward.
    #[default]
    IncumbentGap,
    /// Plain `IPC` — the naive alternative the aggressive design is
    /// meant to beat (every episode gets a positive reward, so bad
    /// action sequences are still reinforced).
    PlainIpc,
}

/// Configuration of the LF phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LfPhaseConfig {
    /// Number of training episodes against the analytical model.
    pub episodes: usize,
    /// Size of the candidate set `H` of observed best designs carried
    /// into the HF phase.
    pub keep_best: usize,
    /// Policy-gradient learning rates.
    pub reinforce: ReinforceConfig,
    /// RNG seed (episodes are fully deterministic given the seed).
    pub seed: u64,
    /// Whether actions are restricted to gradient-endorsed parameters
    /// (§3.1; `false` is the ablation).
    pub gradient_mask: bool,
    /// Episode reward shape (eq. 3 by default).
    pub reward: RewardKind,
}

impl Default for LfPhaseConfig {
    fn default() -> Self {
        Self {
            episodes: 300,
            keep_best: 8,
            reinforce: ReinforceConfig::default(),
            seed: 0,
            gradient_mask: true,
            reward: RewardKind::IncumbentGap,
        }
    }
}

/// Results of the LF phase.
#[derive(Debug, Clone)]
pub struct LfOutcome {
    /// The observed best designs `H`, sorted by ascending LF CPI.
    pub best_designs: Vec<(DesignPoint, f64)>,
    /// The design the trained policy converges to (greedy rollout).
    pub converged: DesignPoint,
    /// LF CPI of the converged design.
    pub converged_cpi: f64,
    /// Best-so-far LF CPI after each episode.
    pub best_cpi_history: Vec<f64>,
    /// LF CPI of the *greedy policy's* design after each episode — the
    /// convergence signal of Fig. 6 (best-so-far saturates from masked
    /// random exploration long before the policy itself converges).
    pub policy_cpi_history: Vec<f64>,
    /// Terminal design of every episode (the Fig. 7 trajectories).
    pub episode_designs: Vec<DesignPoint>,
}

/// The LF phase driver: §3.1's model-based RL with gradient-masked
/// actions and the eq. 3 reward.
///
/// # Examples
///
/// See the crate docs and the `quickstart` example; unit tests exercise
/// the phase against synthetic models.
#[derive(Debug, Clone, Copy, Default)]
pub struct LfPhase {
    /// Phase configuration.
    pub config: LfPhaseConfig,
}

impl LfPhase {
    /// Creates a phase driver with the given configuration.
    pub fn new(config: LfPhaseConfig) -> Self {
        Self { config }
    }

    /// Trains `fnn` against the analytical model, returning the
    /// candidate set and convergence record.
    ///
    /// Per-step and per-episode CPI queries are training *observations*
    /// and go to the model through the phase's [`StepMemo`], once per
    /// design point; what the run pays for — the
    /// candidate-pool ranking and the converged design — is charged to
    /// `ledger` at [`Fidelity::Low`](dse_exec::Fidelity::Low), through
    /// one batch call the LF backend can parallelize.
    pub fn run(
        &self,
        fnn: &mut Fnn,
        space: &DesignSpace,
        lf: &impl LowFidelity,
        constraint: &impl Constraint,
        ledger: &mut CostLedger,
    ) -> LfOutcome {
        let cfg = &self.config;
        let _phase_span = trace::span("lf_phase");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut memo = StepMemo::new(space, lf, constraint, cfg.gradient_mask);
        // Candidate pool of terminal designs, keyed by encoded point.
        let mut pool: HashMap<u64, DesignPoint> = HashMap::new();
        let mut best_ipc = f64::NEG_INFINITY;
        let mut best_cpi_history = Vec::with_capacity(cfg.episodes);
        let mut policy_cpi_history = Vec::with_capacity(cfg.episodes);
        let mut episode_designs = Vec::with_capacity(cfg.episodes);

        for episode_idx in 0..cfg.episodes {
            let episode = rollout(fnn, &mut memo, space.smallest(), &mut rng);
            let cpi = memo.cpi(&episode.final_point);
            let ipc = 1.0 / cpi;
            best_ipc = best_ipc.max(ipc);
            let reward = match cfg.reward {
                // eq. 3: reward = IPC − IPC* + ε, with IPC* the highest
                // IPC observed so far (including this episode).
                RewardKind::IncumbentGap => ipc - best_ipc + EPSILON,
                RewardKind::PlainIpc => ipc,
            };
            train_on_episode(fnn, &episode, reward, &cfg.reinforce);
            if trace::enabled() {
                // The decomposition is trace-only: the extra forward
                // pass never runs when tracing is off.
                let obs = fnn.observation(space, &episode.final_point, cpi);
                let top = explain_top_action(fnn, &obs, 3);
                trace::event(
                    "episode",
                    &[
                        ("phase", "lf".into()),
                        ("episode", episode_idx.into()),
                        ("steps", episode.steps.len().into()),
                        ("cpi", cpi.into()),
                        ("reward", reward.into()),
                        ("best_cpi", (1.0 / best_ipc).into()),
                        ("top_rules", top.compact().into()),
                    ],
                );
            }

            pool.insert(space.encode(&episode.final_point), episode.final_point.clone());
            best_cpi_history.push(1.0 / best_ipc);
            let greedy = greedy_rollout(fnn, &mut memo, space.smallest());
            policy_cpi_history.push(memo.cpi(&greedy));
            episode_designs.push(episode.final_point);
        }

        // Rank the pool through the ledger in one batch call: the batch
        // is assembled in encoded-point order (the pool is a HashMap,
        // whose iteration order is randomized per instance), and ranked
        // by CPI with the encoded point as tie-break — equal-CPI designs
        // would otherwise order differently from run to run, and H feeds
        // the HF phase, making the whole flow nondeterministic.
        let mut keys: Vec<u64> = pool.keys().copied().collect();
        keys.sort_unstable();
        let candidates: Vec<DesignPoint> =
            keys.iter().map(|key| pool.remove(key).expect("pool key")).collect();
        let entries = ledger.evaluate_batch(&mut LfEvaluator(lf), space, &candidates);
        let mut ranked: Vec<(u64, DesignPoint, f64)> = keys
            .into_iter()
            .zip(candidates)
            .zip(entries)
            .map(|((key, point), entry)| {
                (key, point, entry.cpi().expect("LF evaluations are never denied"))
            })
            .collect();
        ranked.sort_by(|a, b| a.2.total_cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut best_designs: Vec<(DesignPoint, f64)> =
            ranked.into_iter().map(|(_, point, cpi)| (point, cpi)).collect();
        best_designs.truncate(cfg.keep_best.max(1));

        let converged = greedy_rollout(fnn, &mut memo, space.smallest());
        let converged_cpi = ledger
            .evaluate(&mut LfEvaluator(lf), space, &converged)
            .cpi()
            .expect("LF evaluations are never denied");
        LfOutcome {
            best_designs,
            converged,
            converged_cpi,
            best_cpi_history,
            policy_cpi_history,
            episode_designs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CountingLf, PlateauLf, QuadraticLf, SumConstraint};
    use dse_fnn::FnnBuilder;

    fn run_lf(episodes: usize, seed: u64) -> (DesignSpace, LfOutcome) {
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 10 };
        let phase = LfPhase::new(LfPhaseConfig {
            episodes,
            keep_best: 5,
            seed,
            ..LfPhaseConfig::default()
        });
        let mut ledger = CostLedger::new();
        let outcome = phase.run(&mut fnn, &space, &lf, &constraint, &mut ledger);
        (space, outcome)
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let (_, outcome) = run_lf(50, 3);
        for w in outcome.best_cpi_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert_eq!(outcome.best_cpi_history.len(), 50);
    }

    #[test]
    fn candidate_set_is_sorted_and_bounded() {
        let (_, outcome) = run_lf(60, 4);
        assert!(outcome.best_designs.len() <= 5);
        assert!(!outcome.best_designs.is_empty());
        for w in outcome.best_designs.windows(2) {
            assert!(w[0].1 <= w[1].1, "H must be sorted by CPI");
        }
    }

    #[test]
    fn converged_design_respects_constraint_and_mask() {
        let (_, outcome) = run_lf(80, 5);
        let sum: usize = outcome.converged.indices().iter().sum();
        assert!(sum <= 10);
        for (i, &idx) in outcome.converged.indices().iter().enumerate() {
            if !QuadraticLf::ENDORSED.contains(&i) {
                assert_eq!(idx, 0, "masked param {i} grew");
            }
        }
    }

    #[test]
    fn training_improves_over_first_episode() {
        let (_, outcome) = run_lf(150, 6);
        let first = outcome.best_cpi_history[0];
        let last = *outcome.best_cpi_history.last().unwrap();
        assert!(last <= first, "search must not regress: {first} → {last}");
        // The synthetic optimum under the mask+constraint: all 10 steps
        // into endorsed parameters.
        assert!(
            outcome.best_designs[0].1 <= first + 1e-12,
            "H head must be at least as good as the first episode"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, a) = run_lf(30, 11);
        let (_, b) = run_lf(30, 11);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.best_cpi_history, b.best_cpi_history);
        assert_eq!(a.policy_cpi_history, b.policy_cpi_history);
    }

    #[test]
    fn policy_history_tracks_every_episode() {
        let (_, outcome) = run_lf(40, 12);
        assert_eq!(outcome.policy_cpi_history.len(), 40);
        assert!(outcome.policy_cpi_history.iter().all(|&c| c.is_finite() && c > 0.0));
    }

    #[test]
    fn unmasked_phase_may_grow_non_endorsed_params() {
        // With the gradient mask disabled (the ablation), episodes are
        // free to grow parameters the synthetic LF model does not
        // endorse; the endorsed-only invariant must no longer hold.
        let space = DesignSpace::boom();
        let mut fnn = dse_fnn::FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 10 };
        let outcome = LfPhase::new(LfPhaseConfig {
            episodes: 20,
            gradient_mask: false,
            seed: 9,
            ..LfPhaseConfig::default()
        })
        .run(&mut fnn, &space, &lf, &constraint, &mut CostLedger::new());
        let touched_non_endorsed = outcome.episode_designs.iter().any(|d| {
            d.indices()
                .iter()
                .enumerate()
                .any(|(i, &idx)| idx > 0 && !QuadraticLf::ENDORSED.contains(&i))
        });
        assert!(touched_non_endorsed, "unmasked episodes never left the endorsed subspace");
    }

    #[test]
    fn plain_reward_still_trains_and_converges_to_feasible_designs() {
        let space = DesignSpace::boom();
        let mut fnn = dse_fnn::FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 10 };
        let outcome = LfPhase::new(LfPhaseConfig {
            episodes: 30,
            reward: crate::RewardKind::PlainIpc,
            seed: 4,
            ..LfPhaseConfig::default()
        })
        .run(&mut fnn, &space, &lf, &constraint, &mut CostLedger::new());
        let sum: usize = outcome.converged.indices().iter().sum();
        assert!(sum <= 10);
        assert!(outcome.converged_cpi.is_finite());
    }

    #[test]
    fn equal_cpi_candidates_are_ordered_by_encoded_point() {
        // Regression test: the candidate pool is a HashMap, whose
        // iteration order is randomized per instance. The old CPI-only
        // sort inherited that order for equal-CPI designs, so two runs
        // with the same seed could hand the HF phase a differently
        // ordered H. A plateau objective makes every candidate tie.
        let space = DesignSpace::boom();
        let constraint = SumConstraint { max_index_sum: 6 };
        let run = || {
            let mut fnn = FnnBuilder::for_space(&space).build();
            LfPhase::new(LfPhaseConfig {
                episodes: 40,
                keep_best: 8,
                seed: 21,
                ..LfPhaseConfig::default()
            })
            .run(&mut fnn, &space, &PlateauLf, &constraint, &mut CostLedger::new())
        };
        let keys = |o: &LfOutcome| -> Vec<u64> {
            o.best_designs.iter().map(|(p, _)| space.encode(p)).collect()
        };
        let (a, b) = (run(), run());
        assert_eq!(keys(&a), keys(&b), "same seed must produce the same candidate order");
        assert!(a.best_designs.len() > 1, "plateau run should pool several candidates");
        for w in keys(&a).windows(2) {
            assert!(w[0] < w[1], "equal-CPI candidates must be ordered by encoded point");
        }
    }

    #[test]
    fn ledger_meters_ranking_and_converged_design() {
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 10 };
        let mut ledger = CostLedger::new();
        let outcome = LfPhase::new(LfPhaseConfig {
            episodes: 30,
            keep_best: 5,
            seed: 7,
            ..LfPhaseConfig::default()
        })
        .run(&mut fnn, &space, &lf, &constraint, &mut ledger);
        use dse_exec::Fidelity;
        let low = *ledger.section(Fidelity::Low);
        // Each unique terminal design is charged exactly once; the
        // converged design adds one more charge or a free replay.
        assert_eq!(low.evaluations as usize, ledger.unique_designs(Fidelity::Low));
        assert!(low.evaluations as usize >= outcome.best_designs.len());
        assert_eq!(low.denied, 0);
        assert!(low.model_time_units > 0.0);
        assert_eq!(ledger.evaluations(Fidelity::High), 0);
    }

    #[test]
    fn different_seeds_may_differ_but_stay_valid() {
        let (_, a) = run_lf(30, 1);
        let (_, b) = run_lf(30, 2);
        for o in [a, b] {
            let sum: usize = o.converged.indices().iter().sum();
            assert!(sum <= 10);
        }
    }

    /// Runs an LF phase against a call-counting model.
    fn counted_run(gradient_mask: bool) -> (CountingLf<QuadraticLf>, LfOutcome) {
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        let lf = CountingLf::new(QuadraticLf::new(&space));
        let constraint = SumConstraint { max_index_sum: 10 };
        let outcome = LfPhase::new(LfPhaseConfig {
            episodes: 40,
            gradient_mask,
            seed: 13,
            ..LfPhaseConfig::default()
        })
        .run(&mut fnn, &space, &lf, &constraint, &mut CostLedger::new());
        (lf, outcome)
    }

    #[test]
    fn masked_phase_probes_each_point_once() {
        let (lf, outcome) = counted_run(true);
        // Every episode and every greedy readout starts from the smallest
        // design, yet the model is asked about it, and every other point,
        // exactly once: one CPI and one mask per distinct point.
        let cpi_calls = lf.cpi_calls.borrow().clone();
        assert!(lf.cpi_calls_are_distinct(), "a point was asked twice");
        assert_eq!(*lf.mask_calls.borrow(), cpi_calls, "one fused probe per point");
        let steps = outcome.episode_designs.iter().map(|d| d.indices().iter().sum::<usize>());
        let visits: usize = steps.map(|s| s + 1).sum();
        assert!(cpi_calls.len() < visits, "{} probes for {visits} visits", cpi_calls.len());
    }

    #[test]
    fn unmasked_phase_never_asks_for_a_mask() {
        let (lf, _) = counted_run(false);
        assert!(lf.mask_calls.borrow().is_empty());
        assert!(!lf.cpi_calls.borrow().is_empty());
        assert!(lf.cpi_calls_are_distinct(), "a point was asked twice");
    }
}
