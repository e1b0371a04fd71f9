//! Forward-mode automatic differentiation for the analytical CPI model.
//!
//! The paper's low-fidelity phase exploits the fact that an analytical
//! processor model "mainly consists of mathematical calculations" and is
//! therefore differentiable: the sign of ∂CPI/∂parameter gates which
//! design parameters the RL policy is allowed to increase. This crate
//! provides that machinery:
//!
//! * [`Dual`] — a dual number carrying a value plus an inline gradient
//!   array (`Dual<N>`, one slot per design parameter), `Copy` and
//!   allocation-free;
//! * [`Scalar`] — the abstraction the analytical model is written
//!   against, implemented by both `f64` (fast evaluation) and [`Dual`]
//!   (evaluation with gradients);
//! * [`PiecewiseLinear`] — differentiable fits for table lookups, exactly
//!   the "fit linear functions that strictly follow the trend of the
//!   table" trick described in §3.1 of the paper.
//!
//! # Examples
//!
//! ```
//! use dse_autodiff::{Dual, Scalar};
//!
//! // f(x, y) = x² · y at (3, 2): value 18, ∂x = 12, ∂y = 9.
//! let x = Dual::<2>::variable(3.0, 0);
//! let y = Dual::<2>::variable(2.0, 1);
//! let f = x * x * y;
//! assert_eq!(f.value(), 18.0);
//! assert_eq!(f.gradient(), &[12.0, 9.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dual;
mod pwl;
mod scalar;

pub use dual::Dual;
pub use pwl::{BuildPwlError, PiecewiseLinear};
pub use scalar::Scalar;
