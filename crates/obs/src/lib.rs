//! # dse-obs — std-only observability for the DSE stack
//!
//! The paper's pitch is an *explainable* DSE flow; this crate extends
//! that explainability from the FNN's answers to the run itself: where
//! wall-clock went, how the multi-fidelity budget was spent, and what
//! every episode decided. Three pieces, all dependency-free:
//!
//! * [`Registry`] — named counters, gauges and fixed-bucket histograms
//!   over atomic storage. Registration takes a mutex once; updates are
//!   lock-free. Snapshots render as Prometheus text.
//!   [`global()`] is the process-wide instance; components needing
//!   isolated counting own their own and [`Snapshot::merged`] joins
//!   them at exposition time.
//! * [`trace`] — a per-run JSONL span/event tracer (`--trace-out`).
//!   Disabled it costs one relaxed atomic load per call site; enabled
//!   it records spans with ids/parent links and flat key-value events.
//!   Emission is driver-thread-only by convention, which keeps traces
//!   bit-deterministic (modulo timestamps) under worker parallelism.
//! * [`promcheck`] — a reader of the text exposition format and a
//!   promtool-style validator on top of it, shared by the golden tests
//!   and the CLI's `check-metrics` subcommand so CI needs no external
//!   tooling.
//!
//! ## Example
//!
//! ```
//! use dse_obs::{trace, Registry};
//!
//! let registry = Registry::new();
//! let evals = registry.counter_with("evals_total", &[("fidelity", "lf")]);
//! let latency = registry.histogram("eval_seconds", dse_obs::LATENCY_BUCKETS_S);
//! evals.inc();
//! latency.observe(0.012);
//!
//! let text = registry.snapshot().to_prometheus_text();
//! dse_obs::promcheck::check_text(&text).expect("exposition output is well-formed");
//!
//! // Tracing is off by default: this is a no-op costing one atomic load.
//! trace::event("episode", &[("cpi", 1.37.into())]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expo;
pub mod promcheck;
mod registry;
pub mod trace;

pub use promcheck::{check_text, CheckSummary};
pub use registry::{
    global, Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry, Snapshot,
    LATENCY_BUCKETS_S, SIZE_BUCKETS,
};
