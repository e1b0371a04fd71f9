//! REINFORCE policy-gradient updates.

use dse_fnn::Fnn;

use crate::{policy, Episode};

/// Learning-rate configuration for the policy-gradient update.
///
/// `lr_center` applies to the trainable parameter-MF centers; the paper
/// notes these need gentler steps ("if the centers of the MFs are
/// updated beyond the limits of the design space … the learning rate
/// needs to be reduced").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReinforceConfig {
    /// Learning rate for the TS consequent matrix.
    pub lr_consequent: f64,
    /// Learning rate for the parameter membership centers.
    pub lr_center: f64,
}

impl Default for ReinforceConfig {
    fn default() -> Self {
        Self { lr_consequent: 0.05, lr_center: 0.005 }
    }
}

/// Applies one REINFORCE update for a finished episode.
///
/// The paper assigns the episode-terminal reward to every action of the
/// episode; the surrogate loss per step is `−R·log π(a|s)`, so
/// `∂L/∂scores = −R·(1{a} − π)`. Per-step gradients are *summed* — every
/// action earns the full episode reward, exactly the paper's credit
/// assignment — and applied once at episode end.
///
/// The sum is built in place by [`Fnn::backward_into`]: one gradient
/// buffer per episode and no allocation per step, bit-identical to
/// summing separate [`Fnn::backward`] results.
///
/// Does nothing for an empty episode.
pub fn train_on_episode(fnn: &mut Fnn, episode: &Episode, reward: f64, cfg: &ReinforceConfig) {
    if episode.is_empty() {
        return;
    }
    let mut total = fnn.zero_gradients();
    let mut d_scores = Vec::with_capacity(fnn.output_count());
    let mut scratch = Vec::with_capacity(2 * fnn.rule_count());
    for (t, step) in episode.steps().enumerate() {
        d_scores.clear();
        d_scores.extend(policy::d_log_prob(step.probs, step.action).map(|g| -reward * g));
        fnn.backward_into(step.pass, &d_scores, &mut total, t == 0, &mut scratch);
    }
    fnn.apply(&total, cfg.lr_consequent, cfg.lr_center);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{QuadraticLf, SumConstraint};
    use crate::{rollout, StepMemo, EPSILON};
    use dse_fnn::{FnnBuilder, FnnGradients};
    use dse_space::DesignSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn positive_reward_raises_chosen_action_probability() {
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 5 };
        let mut rng = StdRng::seed_from_u64(7);
        let mut memo = StepMemo::new(&space, &lf, &constraint, false);
        let mut ep = Episode::new();
        rollout(&fnn, &mut memo, space.smallest(), &mut rng, &mut ep);
        assert!(!ep.is_empty());
        let step0 = ep.step(0);
        let before = step0.probs[step0.action];
        train_on_episode(&mut fnn, &ep, 1.0, &ReinforceConfig::default());
        // Re-evaluate the policy at the same first state.
        let pass = fnn.forward(&obs_of(&fnn, &space, &lf));
        let legal: Vec<bool> = step0.probs.iter().map(|&p| p > 0.0).collect();
        let after = crate::policy::softmax_masked(&pass.scores, &legal)[step0.action];
        assert!(after > before, "prob should rise: {before} → {after}");
    }

    #[test]
    fn negative_reward_lowers_chosen_action_probability() {
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 5 };
        let mut rng = StdRng::seed_from_u64(8);
        let mut memo = StepMemo::new(&space, &lf, &constraint, false);
        let mut ep = Episode::new();
        rollout(&fnn, &mut memo, space.smallest(), &mut rng, &mut ep);
        let step0 = ep.step(0);
        let before = step0.probs[step0.action];
        train_on_episode(&mut fnn, &ep, -1.0, &ReinforceConfig::default());
        let pass = fnn.forward(&obs_of(&fnn, &space, &lf));
        let legal: Vec<bool> = step0.probs.iter().map(|&p| p > 0.0).collect();
        let after = crate::policy::softmax_masked(&pass.scores, &legal)[step0.action];
        assert!(after < before, "prob should fall: {before} → {after}");
    }

    #[test]
    fn empty_episode_is_a_no_op() {
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        let before = fnn.clone();
        train_on_episode(&mut fnn, &Episode::new(), EPSILON, &ReinforceConfig::default());
        assert_eq!(fnn, before);
    }

    /// FNV-1a over the bits of a sequence of floats.
    fn digest(words: impl IntoIterator<Item = f64>) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325_u64;
        for w in words {
            for byte in w.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }

    fn grads_digest(g: &FnnGradients) -> u64 {
        digest(g.consequents.iter().chain(g.centers.iter().flatten()).copied())
    }

    /// The per-step fold `train_on_episode` used before the in-place sum:
    /// a fresh `backward` per step, folded with `accumulate`.
    fn reference_fold(fnn: &Fnn, episode: &Episode, reward: f64) -> FnnGradients {
        let mut total: Option<FnnGradients> = None;
        for step in episode.steps() {
            let d_scores: Vec<f64> =
                policy::d_log_prob(step.probs, step.action).map(|g| -reward * g).collect();
            let grads = fnn.backward(step.pass, &d_scores);
            match &mut total {
                None => total = Some(grads),
                Some(t) => t.accumulate(&grads),
            }
        }
        total.expect("non-empty episode")
    }

    /// The in-place sum `train_on_episode` applies.
    fn in_place_sum(fnn: &Fnn, episode: &Episode, reward: f64) -> FnnGradients {
        let mut total = fnn.zero_gradients();
        let mut scratch = vec![f64::NAN; 3]; // stale contents must not leak in
        for (t, step) in episode.steps().enumerate() {
            let d_scores: Vec<f64> =
                policy::d_log_prob(step.probs, step.action).map(|g| -reward * g).collect();
            fnn.backward_into(step.pass, &d_scores, &mut total, t == 0, &mut scratch);
        }
        total
    }

    #[test]
    fn in_place_sum_matches_the_per_step_fold_bit_for_bit() {
        // Six recorded 27-step episodes, trained one after another, with
        // rewards of both signed zeros among them. The digests were
        // recorded from the per-step fold before the in-place sum existed.
        const GOLDEN: [u64; 6] = [
            0x4c4e_c891_2486_6651,
            0x32d3_2eb3_09d2_7a7d,
            0xb7cc_1de2_7c0a_e585,
            0x6cd7_47f8_3151_02bc,
            0x0cfd_37fd_afbe_e585,
            0x2638_07d0_58a1_140c,
        ];
        const TRAINED: u64 = 0x594d_b272_ec57_ed46;
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        let lf = QuadraticLf::new(&space);
        let constraint = SumConstraint { max_index_sum: 27 };
        let mut rng = StdRng::seed_from_u64(11);
        let rewards = [0.37, -0.21, 0.0, EPSILON, -0.0, 1.5];
        let mut memo = StepMemo::new(&space, &lf, &constraint, false);
        let mut ep = Episode::new();
        for (i, (reward, golden)) in rewards.into_iter().zip(GOLDEN).enumerate() {
            rollout(&fnn, &mut memo, space.smallest(), &mut rng, &mut ep);
            assert_eq!(ep.len(), 27);
            let reference = reference_fold(&fnn, &ep, reward);
            let summed = in_place_sum(&fnn, &ep, reward);
            assert_eq!(grads_digest(&reference), golden, "episode {i}: reference fold moved");
            assert_eq!(grads_digest(&summed), golden, "episode {i}: in-place sum differs");
            train_on_episode(&mut fnn, &ep, reward, &ReinforceConfig::default());
        }
        let weights = fnn
            .consequents()
            .iter()
            .copied()
            .chain(fnn.inputs().iter().flat_map(|s| s.memberships.iter().map(|m| m.center())));
        assert_eq!(digest(weights), TRAINED, "trained network moved");
    }

    fn obs_of(fnn: &Fnn, space: &DesignSpace, lf: &QuadraticLf) -> dse_fnn::Observation {
        use crate::LowFidelity as _;
        fnn.observation(space, &space.smallest(), lf.cpi(space, &space.smallest()))
    }
}
