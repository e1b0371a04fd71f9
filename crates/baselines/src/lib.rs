//! Re-implementations of the paper's baseline DSE optimizers (§4.2).
//!
//! Fig. 5 compares the proposed FNN+MFRL method against five baselines
//! under an identical high-fidelity simulation budget. Each baseline's
//! published algorithmic core is re-implemented here on our substrate:
//!
//! * [`RandomForestOptimizer`] — the classic Random Forest regression
//!   surrogate \[Breiman 2001\] with lower-confidence-bound selection;
//! * [`ActBoostOptimizer`] — AdaBoost.R2 regression with statistical
//!   sampling and an active-learning acquisition \[Li et al., DAC'16\];
//! * [`BagGbrtOptimizer`] — bagging-based gradient-boosted regression
//!   trees \[Wang et al., GLSVLSI'23\];
//! * [`BoomExplorerOptimizer`] — Bayesian optimization with a
//!   (deep-kernel-style) Gaussian process and expected improvement,
//!   diversity-initialized \[Bai et al., ICCAD'21\];
//! * [`ScboOptimizer`] — scalable constrained BO: trust region +
//!   Thompson sampling \[Eriksson & Poloczek, AISTATS'21\];
//! * [`RandomSearchOptimizer`] — the sanity floor.
//!
//! All optimizers speak the same [`Optimizer`] interface: they drive the
//! workspace's one cost-model interface, an [`Evaluator`], through a
//! [`CostLedger`] — the same accounting FNN-MFRL runs under — and ask
//! the same [`Constraint`] the RL phases use for feasibility. They
//! evaluate only feasible candidates (the paper assigns constraint
//! violators "a low reward and \[they\] do not go through simulation",
//! except SCBO which may spend budget on them), stop early when the
//! space holds fewer feasible designs than the budget, and are
//! deterministic given a seed.
//!
//! The supporting model zoo ([`RegressionTree`], [`RandomForest`],
//! [`Gbrt`], [`AdaBoostR2`], [`GaussianProcess`], [`mod@kmeans`]) is public
//! so downstream users can fit the surrogates directly (e.g. for
//! surrogate-quality diagnostics) outside the optimizer loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boost;
mod forest;
mod gp;
pub mod kmeans;
mod optimizer;
mod optimizers;
pub mod stats;
mod tree;

pub use boost::{AdaBoostR2, Gbrt};
pub use dse_exec::{Constraint, CostLedger, Evaluation, Evaluator, Fidelity, LedgerSummary};
pub use forest::RandomForest;
pub use gp::GaussianProcess;
pub use kmeans::{kmeans, Clustering};
pub use optimizer::{OptimizationResult, Optimizer};
pub use optimizers::{
    ActBoostOptimizer, BagGbrtOptimizer, BoomExplorerOptimizer, RandomForestOptimizer,
    RandomSearchOptimizer, ScboOptimizer,
};
pub use tree::RegressionTree;
