//! Cycle-level trace-driven out-of-order core simulator — the
//! high-fidelity proxy.
//!
//! Substitutes the paper's Chipyard-generated BOOM RTL + VCS simulation.
//! The DSE algorithms only observe the CPI of a configuration, so what
//! this substrate must deliver is a *cycle-level* model that responds to
//! every Table 1 parameter through the same mechanisms the RTL does:
//!
//! * a front end of [`CoreConfig::decode_width`], stalled by
//!   mispredicted branches until resolution plus a refill penalty;
//! * a reorder buffer bounding the in-flight window — unlike the
//!   analytical model, a small ROB here fails to hide even L2 latency
//!   (this is precisely the LF-model bias the paper discusses);
//! * an issue queue holding dispatched-but-unissued instructions;
//! * per-class functional units (Int/Mem/FP), fully pipelined;
//! * a two-level set-associative cache hierarchy with LRU replacement,
//!   where the number of MSHRs caps outstanding L1 load misses.
//!
//! One engine runs all of it: the lane kernel behind [`BatchSimulator`],
//! which runs one design at a time over a shared [`ExpandedTrace`] on a
//! reused lane. One job is one (trace, design) pair; the HF evaluator
//! fans those jobs across the work pool, one lane per worker.
//! [`Simulator`] is the one-design front end. The
//! cycle-by-cycle `ReferenceSimulator` (compiled for tests and under
//! the `reference` feature) is the oracle the kernel is differentially
//! tested against, counter for counter, in `tests/equivalence.rs`.
//!
//! # Examples
//!
//! ```
//! use dse_sim::{CoreConfig, Simulator};
//! use dse_space::DesignSpace;
//! use dse_workloads::Benchmark;
//!
//! let space = DesignSpace::boom();
//! let config = CoreConfig::from_point(&space, &space.largest());
//! let trace = Benchmark::Mm.trace(20_000, 7);
//! let result = Simulator::new(config).run(&trace);
//! assert!(result.cpi() > 0.2, "cannot beat the dispatch bound by much");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
mod config;
mod expand;
mod pipeline;
mod predictor;
#[cfg(any(test, feature = "reference"))]
mod reference;
mod result;

pub use batch::BatchSimulator;
pub use cache::Cache;
pub use config::{CoreConfig, SimLatencies};
pub use expand::ExpandedTrace;
pub use pipeline::Simulator;
pub use predictor::{BranchModel, Gshare};
#[cfg(any(test, feature = "reference"))]
pub use reference::ReferenceSimulator;
pub use result::SimResult;
