//! Episode rollouts: grow a design until the area limit binds.

use std::collections::HashMap;

use dse_fnn::{Fnn, PassArena, PassRef};
use dse_space::{DesignPoint, DesignSpace, Param};
use rand::Rng;

use crate::{param_bits, policy, Constraint, LowFidelity};

/// One decision of an episode, retained for the policy-gradient update.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeStep<'a> {
    /// Cached FNN activations at the decision state.
    pub pass: PassRef<'a>,
    /// Action probabilities the step was sampled from.
    pub probs: &'a [f64],
    /// The chosen action (index into [`Param::ALL`]).
    pub action: usize,
}

/// The decision trajectory of one rollout, in flat buffers.
///
/// [`rollout`] clears and refills an episode, so a phase that rolls
/// every episode into the same one allocates nothing per step once the
/// buffers have grown to the longest episode.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    passes: PassArena,
    /// [`Param::COUNT`] action probabilities per step.
    probs: Vec<f64>,
    actions: Vec<usize>,
}

impl Episode {
    /// An empty episode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the episode took no decision.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The `t`-th decision.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`.
    pub fn step(&self, t: usize) -> EpisodeStep<'_> {
        EpisodeStep {
            pass: self.passes.get(t),
            probs: &self.probs[t * Param::COUNT..][..Param::COUNT],
            action: self.actions[t],
        }
    }

    /// The decisions in order.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = EpisodeStep<'_>> {
        (0..self.len()).map(|t| self.step(t))
    }
}

/// What a rollout asks about one design point, answered once.
#[derive(Debug, Clone, Copy)]
struct Probe {
    /// LF CPI estimate: the FNN's metric input.
    cpi: f64,
    /// Legal actions as [`param_bits`](crate::param_bits): in range after
    /// one step and feasible there, and in masked phases also endorsed
    /// by the LF gradient. A masked phase asks the constraint only about
    /// endorsed parameters.
    legal: u16,
}

/// A phase's LF-side view of the design space: the LF CPI and the legal
/// actions at each point, asked of the model and the constraint at most
/// once per point.
///
/// Every episode restarts from the same few points, so rollouts revisit
/// points often; both backends are pure functions of the point (see
/// [`LowFidelity`] and [`Constraint`]), so a replayed answer is
/// bit-identical to asking again. Each phase builds one memo and drops it
/// when it returns. A masked memo (the LF phase) probes with
/// [`LowFidelity::cpi_and_mask`]; an unmasked one never asks for a mask
/// ("the actions in the HF phase are no longer restricted by the
/// analytical model").
pub struct StepMemo<'a, L, C> {
    space: &'a DesignSpace,
    lf: &'a L,
    constraint: &'a C,
    masked: bool,
    probes: HashMap<u64, Probe>,
}

impl<'a, L: LowFidelity, C: Constraint> StepMemo<'a, L, C> {
    /// An empty memo over `lf` and `constraint`; `masked` restricts the
    /// legal actions to gradient-endorsed parameters.
    pub fn new(space: &'a DesignSpace, lf: &'a L, constraint: &'a C, masked: bool) -> Self {
        Self { space, lf, constraint, masked, probes: HashMap::new() }
    }

    /// The LF CPI estimate at `point`.
    pub fn cpi(&mut self, point: &DesignPoint) -> f64 {
        self.probe(point).cpi
    }

    fn probe(&mut self, point: &DesignPoint) -> Probe {
        let Self { space, lf, constraint, masked, .. } = *self;
        *self.probes.entry(space.encode(point)).or_insert_with(|| {
            let (cpi, candidates) =
                if masked { lf.cpi_and_mask(space, point) } else { (lf.cpi(space, point), !0) };
            let grows = |&p: &Param| {
                candidates >> p.index() & 1 == 1
                    && point.increased(space, p).is_some_and(|next| constraint.fits(space, &next))
            };
            Probe { cpi, legal: param_bits(Param::ALL.into_iter().filter(grows)) }
        })
    }

    /// The FNN pass at `point`, appended to `passes`, and the
    /// legal-action mask; `None` when no action is legal (the episode
    /// ends there).
    fn decision<'p>(
        &mut self,
        fnn: &Fnn,
        point: &DesignPoint,
        passes: &'p mut PassArena,
    ) -> Option<(PassRef<'p>, [bool; Param::COUNT])> {
        let probe = self.probe(point);
        if probe.legal == 0 {
            return None;
        }
        let pass = passes.push_observed(fnn, self.space, point, probe.cpi);
        Some((pass, std::array::from_fn(|i| probe.legal >> i & 1 == 1)))
    }
}

/// Rolls out one stochastic episode (§3) into `episode`: starting from
/// `start`, sample one parameter to grow per step from the FNN's masked
/// softmax until no legal action remains. Returns the design reached.
///
/// In the LF phase the memo is masked and only gradient-endorsed actions
/// are legal; the HF phase's memo is not ("the actions in the HF phase
/// are no longer restricted by the analytical model").
///
/// The CPI fed to the FNN's metric input is always the LF estimate —
/// running the HF simulator at every intermediate step would blow the
/// simulation budget the paper's evaluation is premised on.
pub fn rollout<L: LowFidelity, C: Constraint>(
    fnn: &Fnn,
    memo: &mut StepMemo<'_, L, C>,
    start: DesignPoint,
    rng: &mut impl Rng,
    episode: &mut Episode,
) -> DesignPoint {
    let Episode { passes, probs, actions } = episode;
    passes.clear();
    probs.clear();
    actions.clear();
    let mut point = start;
    while let Some((pass, legal)) = memo.decision(fnn, &point, passes) {
        let step_probs = policy::softmax_masked_into(pass.scores(), &legal, probs);
        let action = policy::sample(step_probs, rng);
        let param = Param::from_index(action).expect("action indexes Param::ALL");
        point = point.increased(memo.space, param).expect("legal actions are in range");
        actions.push(action);
    }
    point
}

/// Deterministic greedy rollout ("the parameter with the highest score
/// should increase", §2.3) — used to read off the design the trained
/// network has converged to.
pub fn greedy_rollout<L: LowFidelity, C: Constraint>(
    fnn: &Fnn,
    memo: &mut StepMemo<'_, L, C>,
    start: DesignPoint,
) -> DesignPoint {
    let mut point = start;
    // Only the current step's pass is needed; clearing keeps the buffers.
    let mut passes = PassArena::new();
    loop {
        passes.clear();
        let Some((pass, legal)) = memo.decision(fnn, &point, &mut passes) else {
            break;
        };
        let action = policy::argmax_masked(pass.scores(), &legal);
        let param = Param::from_index(action).expect("action indexes Param::ALL");
        point = point.increased(memo.space, param).expect("legal actions are in range");
    }
    point
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{QuadraticLf, SumConstraint};
    use dse_fnn::FnnBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn episodes_respect_the_constraint() {
        let space = DesignSpace::boom();
        let fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 12 };
        let mut rng = StdRng::seed_from_u64(1);
        let mut memo = StepMemo::new(&space, &lf, &constraint, false);
        let mut ep = Episode::new();
        let final_point = rollout(&fnn, &mut memo, space.smallest(), &mut rng, &mut ep);
        let sum: usize = final_point.indices().iter().sum();
        assert!(sum <= 12, "constraint violated: {sum}");
        assert_eq!(ep.len(), sum, "one index bump per step");
    }

    #[test]
    fn masked_episodes_only_take_endorsed_actions() {
        let space = DesignSpace::boom();
        let fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space); // endorses only the first 3 params
        let constraint = SumConstraint { max_index_sum: 40 };
        let mut rng = StdRng::seed_from_u64(2);
        let mut memo = StepMemo::new(&space, &lf, &constraint, true);
        let final_point = rollout(&fnn, &mut memo, space.smallest(), &mut rng, &mut Episode::new());
        for (i, &idx) in final_point.indices().iter().enumerate() {
            if !QuadraticLf::ENDORSED.contains(&i) {
                assert_eq!(idx, 0, "param {i} was grown despite not being endorsed");
            }
        }
    }

    #[test]
    fn greedy_rollout_is_deterministic() {
        let space = DesignSpace::boom();
        let fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 10 };
        let mut memo = StepMemo::new(&space, &lf, &constraint, false);
        let a = greedy_rollout(&fnn, &mut memo, space.smallest());
        let b = greedy_rollout(&fnn, &mut memo, space.smallest());
        let mut fresh_memo = StepMemo::new(&space, &lf, &constraint, false);
        let fresh = greedy_rollout(&fnn, &mut fresh_memo, space.smallest());
        assert_eq!(a, b);
        assert_eq!(a, fresh, "a replayed probe must answer like a fresh one");
    }

    #[test]
    fn episode_from_saturated_start_is_empty() {
        let space = DesignSpace::boom();
        let fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 0 };
        let mut rng = StdRng::seed_from_u64(3);
        let mut memo = StepMemo::new(&space, &lf, &constraint, false);
        let mut ep = Episode::new();
        let final_point = rollout(&fnn, &mut memo, space.smallest(), &mut rng, &mut ep);
        assert!(ep.is_empty());
        assert_eq!(final_point, space.smallest());
    }
}
