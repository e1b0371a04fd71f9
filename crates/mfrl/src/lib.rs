//! Multi-fidelity reinforcement learning for the fuzzy neural network
//! (§3 of the paper).
//!
//! The training scheme imitates how designers actually tune
//! micro-architectures: sweep broadly against a cheap analytical model,
//! then spend a handful of expensive simulations refining the answer.
//!
//! * **Episodes** ([`rollout`]): start from the smallest design and grow
//!   one parameter per step — sampled from a masked softmax over the FNN
//!   scores — until the area limit binds, so every sampled design is
//!   valid.
//! * **LF phase** ([`LfPhase`]): actions are restricted to parameters
//!   whose analytical-model gradient is negative ("only utilize the
//!   gradients to suggest the direction for updating"); the terminal
//!   reward is the aggressive `IPC − IPC* + ε` of eq. 3; the best
//!   observed designs accumulate in the candidate set `H`.
//! * **HF phase** ([`HfPhase`]): simulates the LF-converged design and a
//!   subset of `H` to anchor `IPC_h0`, then continues training with
//!   unmasked episodes started from random elements of `H`, rewarding
//!   `IPC − IPC_h0 + ε` (eq. 4) under a strict simulation budget.
//!
//! The fidelity proxies are traits — [`LowFidelity`] for the cheap
//! analytical side, the workspace-wide batch-first [`Evaluator`] for
//! the simulator side, [`Constraint`] for feasibility — so the
//! algorithm is testable against synthetic models; the `archdse` crate
//! wires in the real analytical model, cycle-level simulator and area
//! model. Every charge, replay and denial across both phases flows
//! through one [`CostLedger`], the single source of budget truth.
//!
//! # Examples
//!
//! See [`MultiFidelityDse`] for the end-to-end flow, or the `quickstart`
//! example at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod episode;
mod fidelity;
mod hf;
mod lf;
mod multi;
pub mod policy;
mod reinforce;
#[cfg(test)]
mod testutil;

pub use dse_exec::{
    CacheStats, Constraint, CostLedger, CpiCache, Evaluation, Evaluator, Fidelity, FidelityLedger,
    LedgerEntry, LedgerSummary,
};
pub use episode::{greedy_rollout, rollout, Episode, EpisodeStep, StepMemo};
pub use fidelity::{param_bits, LfEvaluator, LowFidelity, LF_TRACE_EQUIVALENT};
pub use hf::{HfOutcome, HfPhase, HfPhaseConfig};
pub use lf::{LfOutcome, LfPhase, LfPhaseConfig, RewardKind};
pub use multi::{DseOutcome, MultiFidelityConfig, MultiFidelityDse};
pub use reinforce::{train_on_episode, ReinforceConfig};

/// The paper's ε: a small constant that keeps the reward of the
/// incumbent-best design positive (eq. 3/4): "In all our experiments,
/// ε is 0.05."
pub const EPSILON: f64 = 0.05;
