//! The [`Scalar`] abstraction shared by `f64` and [`Dual`].

use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::Dual;

/// A differentiable-or-plain scalar.
///
/// The analytical CPI model in `dse-analytical` is generic over this
/// trait, so a single implementation serves both the fast `f64` path
/// (bulk evaluation during episodes) and the [`Dual`] path (gradient
/// extraction that gates low-fidelity actions).
///
/// Smooth `max`/`min` use the log-sum-exp softening with sharpness
/// `beta`; as `beta → ∞` they converge to the hard operators while
/// remaining differentiable everywhere.
///
/// # Examples
///
/// ```
/// use dse_autodiff::Scalar;
///
/// fn relu_ish<S: Scalar>(x: S) -> S {
///     x.smooth_max(&S::constant(0.0), 20.0)
/// }
/// assert!(relu_ish(3.0_f64) > 2.9);
/// assert!(relu_ish(-3.0_f64) < 0.1);
/// ```
pub trait Scalar:
    Clone
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Lifts a plain constant (zero derivative) into the scalar type.
    fn constant(v: f64) -> Self;

    /// The underlying numeric value.
    fn value(&self) -> f64;

    /// Natural exponential.
    fn exp(&self) -> Self;

    /// Natural logarithm.
    ///
    /// The derivative is undefined at 0; callers are expected to keep
    /// arguments strictly positive (the analytical model only takes logs
    /// of sizes and latencies, which are ≥ 1).
    fn ln(&self) -> Self;

    /// Square root.
    fn sqrt(&self) -> Self;

    /// Raises to a constant power.
    fn powf(&self, p: f64) -> Self;

    /// Multiplicative inverse.
    #[inline]
    fn recip(&self) -> Self {
        Self::constant(1.0) / self.clone()
    }

    /// Smooth maximum via log-sum-exp with sharpness `beta`.
    #[inline]
    fn smooth_max(&self, other: &Self, beta: f64) -> Self {
        // max(a,b) ≈ (1/β)·ln(e^{βa} + e^{βb}); shift by the hard max for
        // numerical stability.
        let shift = self.value().max(other.value());
        let ea = ((self.clone() - Self::constant(shift)) * Self::constant(beta)).exp();
        let eb = ((other.clone() - Self::constant(shift)) * Self::constant(beta)).exp();
        (ea + eb).ln() * Self::constant(1.0 / beta) + Self::constant(shift)
    }

    /// Smooth minimum via log-sum-exp with sharpness `beta`.
    #[inline]
    fn smooth_min(&self, other: &Self, beta: f64) -> Self {
        -((-self.clone()).smooth_max(&(-other.clone()), beta))
    }

    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    #[inline]
    fn sigmoid(&self) -> Self {
        (Self::constant(1.0) + (-self.clone()).exp()).recip()
    }
}

/// `e^x`, answering `x = 0` without the call: a smooth max or min always
/// takes the exponential of its larger operand's offset, which is exactly
/// zero. `exp(±0)` is exactly 1, so the shortcut changes no bit. Only
/// dual numbers take it: on plain `f64` the extra branch cost more than
/// the call it saved.
#[inline]
fn exp(x: f64) -> f64 {
    if x == 0.0 {
        1.0
    } else {
        x.exp()
    }
}

impl Scalar for f64 {
    #[inline]
    fn constant(v: f64) -> Self {
        v
    }

    #[inline]
    fn value(&self) -> f64 {
        *self
    }

    #[inline]
    fn exp(&self) -> Self {
        f64::exp(*self)
    }

    #[inline]
    fn ln(&self) -> Self {
        f64::ln(*self)
    }

    #[inline]
    fn sqrt(&self) -> Self {
        f64::sqrt(*self)
    }

    #[inline]
    fn powf(&self, p: f64) -> Self {
        f64::powf(*self, p)
    }
}

impl<const N: usize> Scalar for Dual<N> {
    #[inline]
    fn constant(v: f64) -> Self {
        Dual::constant(v)
    }

    #[inline]
    fn value(&self) -> f64 {
        Dual::value(self)
    }

    #[inline]
    fn exp(&self) -> Self {
        self.map(exp, exp)
    }

    #[inline]
    fn ln(&self) -> Self {
        self.map(f64::ln, |v| 1.0 / v)
    }

    #[inline]
    fn sqrt(&self) -> Self {
        self.map(f64::sqrt, |v| 0.5 / v.sqrt())
    }

    #[inline]
    fn powf(&self, p: f64) -> Self {
        self.map(|v| v.powf(p), |v| p * v.powf(p - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smooth_max_close_to_hard_max() {
        let m = 3.0_f64.smooth_max(&7.0, 50.0);
        assert!((m - 7.0).abs() < 1e-6, "{m}");
    }

    #[test]
    fn smooth_min_close_to_hard_min() {
        let m = 3.0_f64.smooth_min(&7.0, 50.0);
        assert!((m - 3.0).abs() < 1e-6, "{m}");
    }

    #[test]
    fn smooth_max_is_stable_for_large_inputs() {
        let m = 1000.0_f64.smooth_max(&999.0, 10.0);
        assert!(m.is_finite());
        assert!((m - 1000.0).abs() < 1e-3);
    }

    #[test]
    fn sigmoid_midpoint() {
        assert!((0.0_f64.sigmoid() - 0.5).abs() < 1e-12);
        assert!(10.0_f64.sigmoid() > 0.9999);
    }

    #[test]
    fn dual_smooth_max_gradient_selects_winner() {
        let a = Dual::<2>::variable(5.0, 0);
        let b = Dual::<2>::variable(1.0, 1);
        let m = a.smooth_max(&b, 30.0);
        // Gradient should be ≈ (1, 0): the max tracks `a`.
        assert!((m.gradient()[0] - 1.0).abs() < 1e-3);
        assert!(m.gradient()[1].abs() < 1e-3);
    }
}
