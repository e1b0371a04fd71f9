//! Masked softmax policy over FNN scores.
//!
//! The FNN emits one score per design parameter; the RL policy samples
//! the parameter to grow from a softmax restricted to the legal action
//! set (in-range, area-feasible, and — in the LF phase — endorsed by the
//! analytical gradient). At deployment time §2.3's rule "the parameter
//! with the highest score should increase" corresponds to the argmax of
//! the same distribution ([`argmax_masked`]).

use rand::Rng;

/// Masked softmax probabilities: zero where `legal` is false, softmax of
/// the scores elsewhere.
///
/// # Panics
///
/// Panics if the lengths differ or no action is legal.
///
/// # Examples
///
/// ```
/// let p = dse_mfrl::policy::softmax_masked(&[1.0, 2.0, 3.0], &[true, false, true]);
/// assert_eq!(p[1], 0.0);
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// assert!(p[2] > p[0]);
/// ```
pub fn softmax_masked(scores: &[f64], legal: &[bool]) -> Vec<f64> {
    let mut probs = Vec::with_capacity(scores.len());
    softmax_masked_into(scores, legal, &mut probs);
    probs
}

/// [`softmax_masked`], appended to `out`; returns the appended
/// probabilities.
///
/// # Panics
///
/// Panics if the lengths differ or no action is legal.
pub fn softmax_masked_into<'a>(scores: &[f64], legal: &[bool], out: &'a mut Vec<f64>) -> &'a [f64] {
    assert_eq!(scores.len(), legal.len(), "mask length mismatch");
    assert!(legal.iter().any(|&l| l), "no legal action");
    let max = scores
        .iter()
        .zip(legal)
        .filter(|(_, &l)| l)
        .map(|(&s, _)| s)
        .fold(f64::NEG_INFINITY, f64::max);
    let start = out.len();
    out.extend(scores.iter().zip(legal).map(|(&s, &l)| if l { (s - max).exp() } else { 0.0 }));
    let probs = &mut out[start..];
    let sum: f64 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= sum;
    }
    probs
}

/// Samples an action index from a probability vector.
///
/// # Panics
///
/// Panics if the probabilities do not sum to ≈ 1.
pub fn sample(probs: &[f64], rng: &mut impl Rng) -> usize {
    let total: f64 = probs.iter().sum();
    assert!((total - 1.0).abs() < 1e-6, "probabilities sum to {total}");
    let mut u: f64 = rng.gen_range(0.0..1.0);
    for (i, &p) in probs.iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    // Floating-point slack: return the last legal action.
    probs.iter().rposition(|&p| p > 0.0).expect("at least one legal action")
}

/// The legal action with the highest score (greedy deployment policy).
///
/// # Panics
///
/// Panics if no action is legal.
pub fn argmax_masked(scores: &[f64], legal: &[bool]) -> usize {
    scores
        .iter()
        .zip(legal)
        .enumerate()
        .filter(|(_, (_, &l))| l)
        .max_by(|(_, (a, _)), (_, (b, _))| a.total_cmp(b))
        .map(|(i, _)| i)
        .expect("no legal action")
}

/// Gradient of `log π(action)` with respect to the raw scores:
/// `one-hot(action) − probs` on legal entries, zero on illegal ones.
///
/// Returned lazily, one entry per probability, so a caller can scale it
/// into a buffer it reuses.
pub fn d_log_prob(probs: &[f64], action: usize) -> impl Iterator<Item = f64> + '_ {
    probs.iter().enumerate().map(move |(i, &p)| {
        if p == 0.0 {
            0.0 // illegal actions never entered the softmax
        } else if i == action {
            1.0 - p
        } else {
            -p
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_scores_equal() {
        let p = softmax_masked(&[0.0, 0.0, 0.0, 0.0], &[true, true, false, true]);
        assert_eq!(p[2], 0.0);
        for i in [0, 1, 3] {
            assert!((p[i] - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn argmax_skips_illegal_best() {
        assert_eq!(argmax_masked(&[5.0, 1.0, 3.0], &[false, true, true]), 2);
    }

    #[test]
    #[should_panic(expected = "no legal action")]
    fn all_masked_panics() {
        let _ = softmax_masked(&[1.0], &[false]);
    }

    #[test]
    fn sampling_respects_probabilities() {
        let probs = softmax_masked(&[0.0, 2.0], &[true, true]);
        let mut rng = StdRng::seed_from_u64(0);
        let n = 20_000;
        let ones = (0..n).filter(|_| sample(&probs, &mut rng) == 1).count();
        let freq = ones as f64 / n as f64;
        assert!((freq - probs[1]).abs() < 0.02, "freq {freq} vs p {}", probs[1]);
    }

    #[test]
    fn d_log_prob_sums_to_zero_over_legal() {
        let probs = softmax_masked(&[1.0, -1.0, 0.5], &[true, true, true]);
        let g: Vec<f64> = d_log_prob(&probs, 0).collect();
        assert!((g.iter().sum::<f64>()).abs() < 1e-12);
        assert!(g[0] > 0.0, "chosen action gradient positive");
    }

    proptest! {
        #[test]
        fn softmax_is_a_distribution(
            scores in proptest::collection::vec(-10.0_f64..10.0, 2..8),
            mask_bits in proptest::collection::vec(proptest::bool::ANY, 2..8),
        ) {
            let n = scores.len().min(mask_bits.len());
            let scores = &scores[..n];
            let mut legal = mask_bits[..n].to_vec();
            if !legal.iter().any(|&l| l) {
                legal[0] = true;
            }
            let p = softmax_masked(scores, &legal);
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for (pi, &l) in p.iter().zip(&legal) {
                prop_assert!(*pi >= 0.0);
                if !l {
                    prop_assert_eq!(*pi, 0.0);
                }
            }
        }

        #[test]
        fn sampled_actions_are_always_legal(seed in 0u64..200) {
            let probs = softmax_masked(&[1.0, 2.0, 3.0, 4.0], &[false, true, false, true]);
            let mut rng = StdRng::seed_from_u64(seed);
            let a = sample(&probs, &mut rng);
            prop_assert!(a == 1 || a == 3);
        }
    }
}
