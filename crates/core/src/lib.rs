//! # archdse — explainable FNN + multi-fidelity RL micro-architecture DSE
//!
//! The top-level crate of this reproduction of *"Explainable Fuzzy
//! Neural Network with Multi-Fidelity Reinforcement Learning for
//! Micro-Architecture Design Space Exploration"* (DAC 2024). It wires
//! the substrate crates together and exposes:
//!
//! * [`Explorer`] — the one-stop API: pick a [`Benchmark`] (or the
//!   general-purpose six-benchmark average), an area limit, and run the
//!   full LF→HF flow, getting back the best design, its simulated CPI
//!   and the extracted fuzzy rules;
//! * [`eval`] — the fidelity plumbing: [`eval::AnalyticalLf`] adapts the
//!   differentiable analytical model to the RL's low-fidelity trait,
//!   [`eval::SimulatorHf`] adapts the cycle-level simulator to the
//!   workspace-wide batch-first [`Evaluator`] interface (memoized;
//!   budgets and counts live in the run's [`CostLedger`]),
//!   and [`eval::AreaLimit`] the area constraint — the same simulator
//!   and constraint the baseline optimizers run against;
//! * [`regret`] — the sampled reference optimum and regret metric of
//!   §4.1 (eq. 5/6);
//! * [`experiments`] — drivers regenerating every table and figure of
//!   the paper's evaluation (Table 2, Fig. 5, Fig. 6, Fig. 7, and the
//!   §4.3 rule listing).
//!
//! # Quickstart
//!
//! ```no_run
//! use archdse::Explorer;
//! use dse_workloads::Benchmark;
//!
//! let report = Explorer::for_benchmark(Benchmark::Mm)
//!     .area_limit_mm2(7.5)
//!     .seed(42)
//!     .run();
//! println!("best design: {}", report.best_point);
//! println!("simulated CPI: {:.4}", report.best_cpi);
//! for rule in &report.rules {
//!     println!("{rule}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod experiments;
mod explorer;
pub mod pareto;
pub mod regret;
pub mod stats;

pub use explorer::{AreaBelowMinimum, ExplorationReport, Explorer, Preference};

// Re-export the workspace vocabulary so downstream users need one crate.
pub use dse_analytical::AnalyticalModel;
pub use dse_area::AreaModel;
pub use dse_fnn::{extract_rules, Fnn, FnnBuilder, Rule, RuleExtractionConfig};
pub use dse_mfrl::{
    CostLedger, DseOutcome, Evaluation, Evaluator, Fidelity, FidelityLedger, HfPhaseConfig,
    LedgerEntry, LedgerSummary, LfPhaseConfig, MultiFidelityConfig, MultiFidelityDse,
};
pub use dse_sim::{CoreConfig, SimResult, Simulator};
pub use dse_space::{DesignPoint, DesignSpace, MergedParam, Param};
pub use dse_workloads::Benchmark;
