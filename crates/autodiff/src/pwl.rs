//! Differentiable piecewise-linear fits for table lookups.

use std::error::Error;
use std::fmt;

use crate::Scalar;

/// Error returned by [`PiecewiseLinear::new`] for malformed breakpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildPwlError {
    /// Fewer than two breakpoints were supplied.
    TooFewPoints,
    /// Breakpoint x-coordinates were not strictly increasing at the
    /// reported index.
    NotIncreasing {
        /// Index of the offending breakpoint.
        index: usize,
    },
}

impl fmt::Display for BuildPwlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildPwlError::TooFewPoints => write!(f, "need at least two breakpoints"),
            BuildPwlError::NotIncreasing { index } => {
                write!(f, "breakpoint x values not strictly increasing at index {index}")
            }
        }
    }
}

impl Error for BuildPwlError {}

/// A piecewise-linear function over sorted breakpoints.
///
/// §3.1 of the paper: *"For non-differentiable operations like the lookup
/// table, we can fit linear functions that strictly follow the trend of
/// the table to acquire the gradients."* The analytical model uses these
/// for e.g. latency tables keyed by structure size. Evaluation is generic
/// over [`Scalar`], so the same fit yields plain values on `f64` and
/// slopes on [`Dual`](crate::Dual) inputs.
///
/// Outside the breakpoint range the function extrapolates with the
/// nearest segment's slope, which keeps gradients meaningful at the
/// design-space boundary.
///
/// # Examples
///
/// ```
/// use dse_autodiff::{Dual, PiecewiseLinear, Scalar};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let table = PiecewiseLinear::new(vec![(1.0, 10.0), (2.0, 14.0), (4.0, 15.0)])?;
/// assert_eq!(table.eval(&1.5_f64), 12.0);
/// let x = Dual::<1>::variable(3.0, 0);
/// assert_eq!(table.eval(&x).gradient()[0], 0.5); // slope of the 2→4 segment
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    points: Vec<(f64, f64)>,
}

impl PiecewiseLinear {
    /// Builds a piecewise-linear function from `(x, y)` breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPwlError`] if fewer than two points are given or
    /// the x-coordinates are not strictly increasing.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, BuildPwlError> {
        if points.len() < 2 {
            return Err(BuildPwlError::TooFewPoints);
        }
        for i in 1..points.len() {
            if points[i].0 <= points[i - 1].0 {
                return Err(BuildPwlError::NotIncreasing { index: i });
            }
        }
        Ok(Self { points })
    }

    /// The breakpoints this function interpolates.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Evaluates the function at `x`, propagating gradients when `S` is a
    /// dual number.
    pub fn eval<S: Scalar>(&self, x: &S) -> S {
        let xv = x.value();
        // Select the active segment by value; clamp to the outermost
        // segments for extrapolation.
        let seg = match self.points.iter().position(|&(px, _)| xv < px) {
            Some(0) => 0,
            Some(i) => i - 1,
            None => self.points.len() - 2,
        };
        let (x0, y0) = self.points[seg];
        let (x1, y1) = self.points[seg + 1];
        let slope = (y1 - y0) / (x1 - x0);
        (x.clone() - S::constant(x0)) * S::constant(slope) + S::constant(y0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dual;
    use proptest::prelude::*;

    fn table() -> PiecewiseLinear {
        PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 2.0), (3.0, 3.0)]).unwrap()
    }

    #[test]
    fn interpolates_exactly_at_breakpoints() {
        let t = table();
        assert_eq!(t.eval(&0.0_f64), 0.0);
        assert_eq!(t.eval(&1.0_f64), 2.0);
        assert_eq!(t.eval(&3.0_f64), 3.0);
    }

    #[test]
    fn extrapolates_with_edge_slopes() {
        let t = table();
        assert_eq!(t.eval(&-1.0_f64), -2.0); // first segment slope 2
        assert_eq!(t.eval(&5.0_f64), 4.0); // last segment slope 0.5
    }

    #[test]
    fn gradient_matches_segment_slope() {
        let t = table();
        let x = Dual::<1>::variable(0.5, 0);
        assert_eq!(t.eval(&x).gradient()[0], 2.0);
        let x = Dual::<1>::variable(2.0, 0);
        assert_eq!(t.eval(&x).gradient()[0], 0.5);
    }

    #[test]
    fn rejects_bad_breakpoints() {
        assert_eq!(
            PiecewiseLinear::new(vec![(0.0, 0.0)]).unwrap_err(),
            BuildPwlError::TooFewPoints
        );
        assert_eq!(
            PiecewiseLinear::new(vec![(0.0, 0.0), (0.0, 1.0)]).unwrap_err(),
            BuildPwlError::NotIncreasing { index: 1 }
        );
    }

    proptest! {
        #[test]
        fn monotone_table_gives_monotone_function(x1 in -2.0_f64..5.0, x2 in -2.0_f64..5.0) {
            // `table()` is non-decreasing, so eval must preserve order.
            let t = table();
            let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
            prop_assert!(t.eval(&lo) <= t.eval(&hi) + 1e-12);
        }
    }
}
