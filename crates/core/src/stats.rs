//! Small statistics helpers for experiment reporting.
//!
//! The paper reports "the mean of the best CPI" over 5 seeds; a careful
//! reproduction should also report spread and whether the win is more
//! than seed luck. These helpers keep that analysis dependency-free.

/// Arithmetic mean (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Sample standard deviation (n−1 denominator; 0 for fewer than 2
/// points).
pub fn std_dev(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64).sqrt()
}

/// Exact one-sided paired sign-flip test that `a` is smaller than `b`
/// (both are per-seed results of two methods run on the *same* seeds).
///
/// If the two methods were interchangeable, each paired difference
/// `a − b` would be equally likely to carry either sign. The p-value is
/// the share of all 2ⁿ sign assignments whose summed difference is at
/// most the observed one, so values near 0 mean a convincingly wins.
/// The smallest p it can return is 2⁻ⁿ (1/32 at five seeds).
///
/// # Panics
///
/// Panics if the slices are empty, have different lengths or hold more
/// than 20 pairs (the enumeration is exhaustive).
///
/// # Examples
///
/// ```
/// use archdse::stats::paired_sign_flip_p;
///
/// let ours = [1.0, 1.1, 0.9, 1.0, 1.05];
/// let theirs = [1.5, 1.6, 1.4, 1.55, 1.45];
/// assert_eq!(paired_sign_flip_p(&ours, &theirs), 1.0 / 32.0);
/// ```
pub fn paired_sign_flip_p(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired test needs equal-length samples");
    assert!(!a.is_empty(), "paired test needs data");
    assert!(a.len() <= 20, "exact sign-flip test takes at most 20 pairs, got {}", a.len());
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let observed: f64 = diffs.iter().sum();
    // Sums that tie in exact arithmetic may round apart; count them as ties.
    let tolerance = 1e-12 * diffs.iter().map(|d| d.abs()).sum::<f64>();
    let flips = 1u32 << diffs.len();
    let at_most = (0..flips)
        .filter(|mask| {
            let sum: f64 = diffs
                .iter()
                .enumerate()
                .map(|(i, &d)| if mask >> i & 1 == 1 { -d } else { d })
                .sum();
            sum <= observed + tolerance
        })
        .count();
    at_most as f64 / f64::from(flips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn std_dev_of_known_sample() {
        // Sample std-dev of [2,4,4,4,5,5,7,9] is sqrt(32/7).
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&v) - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn clear_winner_gets_small_p() {
        // Five negative differences: only the observed signs reach the
        // observed sum, so p is 2^-5, the floor of an exact test at n = 5.
        let a = [1.0, 1.0, 1.0, 1.0, 1.0];
        let b = [2.0, 2.1, 1.9, 2.0, 2.05];
        assert_eq!(paired_sign_flip_p(&a, &b), 1.0 / 32.0);
    }

    #[test]
    fn identical_methods_get_p_about_one() {
        // a - b is exactly 0 everywhere → every flipped sum ties at 0.
        let a = [1.0, 2.0, 3.0];
        assert_eq!(paired_sign_flip_p(&a, &a), 1.0);
    }

    #[test]
    fn clear_loser_gets_large_p() {
        let a = [2.0, 2.1, 1.9];
        let b = [1.0, 1.0, 1.0];
        assert_eq!(paired_sign_flip_p(&a, &b), 1.0);
    }

    #[test]
    fn mixed_signs_match_a_hand_count() {
        // Differences (-0.1, -0.2, 0.3) sum to 0. Of the eight sums
        // ±0.1 ±0.2 ±0.3, five are at most 0: -0.6, -0.4, -0.2 and the
        // two ways to make 0. In floating point those two round to
        // -5.6e-17 and +5.6e-17, and both must still count.
        let a = [0.0, 0.0, 0.3];
        let b = [0.1, 0.2, 0.0];
        assert_eq!(paired_sign_flip_p(&a, &b), 5.0 / 8.0);
    }

    proptest! {
        #[test]
        fn p_is_a_probability(
            pairs in proptest::collection::vec((-5.0_f64..5.0, -5.0_f64..5.0), 2..20),
        ) {
            let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let p = paired_sign_flip_p(&a, &b);
            // The observed signs always count, so p never drops below 2^-n.
            prop_assert!((0.5f64.powi(a.len() as i32)..=1.0).contains(&p));
        }

        #[test]
        fn std_dev_is_translation_invariant(
            v in proptest::collection::vec(-10.0_f64..10.0, 2..20),
            shift in -100.0_f64..100.0,
        ) {
            let shifted: Vec<f64> = v.iter().map(|x| x + shift).collect();
            prop_assert!((std_dev(&v) - std_dev(&shifted)).abs() < 1e-9);
        }
    }
}
