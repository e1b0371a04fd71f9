//! Forward-mode dual numbers with an inline gradient.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A forward-mode dual number: a value plus an inline gradient of `N`
/// partial derivatives.
///
/// Each [`Dual::variable`] seeds one slot of the gradient; arithmetic
/// then propagates all partial derivatives simultaneously. The gradient
/// is a fixed-size array, so a `Dual` is `Copy` and every operation works
/// on the stack: the analytical model runs dozens of operations per
/// design and the LF phase asks for a gradient at every RL step, so a
/// heap vector per operation would cost more than the arithmetic.
///
/// Constants are *unseeded*: their gradient reads as empty (see
/// [`Dual::gradient`]) and binary operations broadcast them against
/// seeded operands, so [`Scalar::constant`](crate::Scalar::constant)
/// needs no variable index.
///
/// # Examples
///
/// ```
/// use dse_autodiff::Dual;
///
/// let x = Dual::<1>::variable(2.0, 0);
/// let y = (x * x).recip_dual(); // 1/x²
/// assert_eq!(y.value(), 0.25);
/// assert!((y.gradient()[0] - (-0.25)).abs() < 1e-12); // d(1/x²)/dx = -2/x³
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dual<const N: usize> {
    v: f64,
    /// The partials; all zero while `seeded` is false.
    d: [f64; N],
    /// Whether any variable flows into this number.
    seeded: bool,
}

impl<const N: usize> Dual<N> {
    /// Creates the `index`-th of `N` independent variables with the given
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= N`.
    #[inline]
    pub fn variable(value: f64, index: usize) -> Self {
        assert!(index < N, "variable index {index} out of range {N}");
        let mut d = [0.0; N];
        d[index] = 1.0;
        Self { v: value, d, seeded: true }
    }

    /// A number that depends on the variables, with the given value and
    /// partials: what [`value`](Self::value) and
    /// [`gradient`](Self::gradient) read back from any non-constant, so a
    /// stored dual can be rebuilt bit for bit.
    #[inline]
    pub fn from_parts(value: f64, gradient: [f64; N]) -> Self {
        Self { v: value, d: gradient, seeded: true }
    }

    /// A constant: zero derivative with respect to every variable.
    #[inline]
    pub(crate) fn constant(value: f64) -> Self {
        Self { v: value, d: [0.0; N], seeded: false }
    }

    /// The numeric value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.v
    }

    /// The gradient: all `N` partials, or empty for a constant.
    #[inline]
    pub fn gradient(&self) -> &[f64] {
        if self.seeded {
            &self.d
        } else {
            &[]
        }
    }

    /// Applies a unary differentiable function given its value map and
    /// derivative at the current value (chain rule).
    #[inline]
    pub(crate) fn map(&self, f: impl Fn(f64) -> f64, df: impl Fn(f64) -> f64) -> Self {
        let scale = df(self.v);
        let v = f(self.v);
        if self.seeded {
            Self { v, d: self.d.map(|g| g * scale), seeded: true }
        } else {
            Self::constant(v)
        }
    }

    /// Multiplicative inverse, provided inherently so doc examples don't
    /// need the [`Scalar`](crate::Scalar) trait in scope.
    #[inline]
    pub fn recip_dual(&self) -> Self {
        self.map(|v| 1.0 / v, |v| -1.0 / (v * v))
    }

    /// Combines two operands given the result value and the partials of
    /// the operation with respect to each operand. A constant operand
    /// contributes no term, so each partial is computed by the same f64
    /// operations whether or not the other side is seeded.
    #[inline]
    fn zip(&self, rhs: &Self, v: f64, df: impl Fn(f64, f64) -> (f64, f64)) -> Self {
        let (da, db) = df(self.v, rhs.v);
        let d = match (self.seeded, rhs.seeded) {
            (false, false) => return Self::constant(v),
            (true, false) => self.d.map(|g| g * da),
            (false, true) => rhs.d.map(|g| g * db),
            (true, true) => std::array::from_fn(|i| self.d[i] * da + rhs.d[i] * db),
        };
        Self { v, d, seeded: true }
    }
}

impl<const N: usize> Add for Dual<N> {
    type Output = Self;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.zip(&rhs, self.v + rhs.v, |_, _| (1.0, 1.0))
    }
}

impl<const N: usize> Sub for Dual<N> {
    type Output = Self;

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.zip(&rhs, self.v - rhs.v, |_, _| (1.0, -1.0))
    }
}

impl<const N: usize> Mul for Dual<N> {
    type Output = Self;

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.zip(&rhs, self.v * rhs.v, |a, b| (b, a))
    }
}

impl<const N: usize> Div for Dual<N> {
    type Output = Self;

    // The quotient rule genuinely multiplies inside a Div impl.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.zip(&rhs, self.v / rhs.v, |a, b| (1.0 / b, -a / (b * b)))
    }
}

impl<const N: usize> Neg for Dual<N> {
    type Output = Self;

    #[inline]
    fn neg(self) -> Self {
        Self { v: -self.v, d: self.d.map(|g| -g), seeded: self.seeded }
    }
}

impl<const N: usize> fmt::Display for Dual<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.v)?;
        if self.seeded {
            write!(f, " + {:?}ε", self.d)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scalar;
    use proptest::prelude::*;

    #[test]
    fn product_rule() {
        let x = Dual::<2>::variable(3.0, 0);
        let y = Dual::<2>::variable(4.0, 1);
        let p = x * y;
        assert_eq!(p.value(), 12.0);
        assert_eq!(p.gradient(), &[4.0, 3.0]);
    }

    #[test]
    fn quotient_rule() {
        let x = Dual::<1>::variable(6.0, 0);
        let q = x / <Dual<1> as Scalar>::constant(2.0);
        assert_eq!(q.value(), 3.0);
        assert_eq!(q.gradient(), &[0.5]);
    }

    #[test]
    fn chain_rule_through_exp_ln() {
        // f(x) = ln(exp(x)) = x → derivative exactly 1 for all x.
        let x = Dual::<1>::variable(1.7, 0);
        let f = Scalar::ln(&Scalar::exp(&x));
        assert!((f.value() - 1.7).abs() < 1e-12);
        assert!((f.gradient()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constants_carry_an_empty_gradient_and_broadcast() {
        let c = <Dual<3> as Scalar>::constant(5.0);
        assert!(c.gradient().is_empty());
        // Arithmetic between constants stays constant.
        let k = Scalar::exp(&(c * c - c));
        assert!(k.gradient().is_empty());
        assert_eq!(k.to_string(), format!("{}", (20.0_f64).exp()));
        // A constant on either side broadcasts against a variable.
        let x = Dual::<3>::variable(2.0, 0);
        let s = c + x;
        assert_eq!(s.value(), 7.0);
        assert_eq!(s.gradient(), &[1.0, 0.0, 0.0]);
        let t = x * c;
        assert_eq!(t.gradient(), &[5.0, 0.0, 0.0]);
    }

    proptest! {
        #[test]
        fn derivative_matches_finite_difference(v in 0.3_f64..4.0) {
            // f(x) = x·exp(-x) + sqrt(x)
            let f = |x: f64| x * (-x).exp() + x.sqrt();
            let x = Dual::<1>::variable(v, 0);
            let y = x * Scalar::exp(&-x) + Scalar::sqrt(&x);
            let h = 1e-6;
            let fd = (f(v + h) - f(v - h)) / (2.0 * h);
            prop_assert!((y.gradient()[0] - fd).abs() < 1e-5);
            prop_assert!((y.value() - f(v)).abs() < 1e-12);
        }

        #[test]
        fn addition_is_commutative(a in -10.0_f64..10.0, b in -10.0_f64..10.0) {
            let x = Dual::<2>::variable(a, 0);
            let y = Dual::<2>::variable(b, 1);
            prop_assert_eq!(x + y, y + x);
        }
    }
}
