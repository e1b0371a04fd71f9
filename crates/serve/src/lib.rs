//! # archdse-serve — the DSE stack as a long-running service
//!
//! A dependency-free HTTP/1.1 JSON service over [`std::net`] exposing
//! the evaluation, explanation and exploration layers of this
//! workspace to concurrent clients:
//!
//! | Endpoint | What it does |
//! |---|---|
//! | `GET /healthz` | liveness + the served benchmarks and space size |
//! | `GET /metrics` | one metrics snapshot: as JSON (request counters, coalescer stats, [`CostLedger`] summary, HF memo counters, job states) or, with `?format=prometheus`, as text |
//! | `POST /v1/evaluate` | CPI of a batch of encoded design points at `"lf"` or `"hf"` fidelity |
//! | `POST /v1/explain` | per-rule contributions behind the FNN's decision at a design point |
//! | `POST /v1/explore` | start a background exploration job |
//! | `POST /v1/workloads` | upload a statically linked RV64 ELF; it is ingested and registered as an evaluable workload |
//! | `GET /v1/jobs/<id>` | poll a job |
//! | `GET /debug/requests` | the flight recorder: recent and slowest completed request timelines |
//! | `POST /v1/shutdown` | graceful shutdown (drains in-flight work) |
//!
//! Each endpoint answers one method: any other method on a known path
//! is a `405`, and an unknown path is a `404` listing the table. A shard
//! router ([`spawn_router`]) serves the same table with the same limits
//! and refuses the same requests; [`spawn`] and [`spawn_router`] both
//! return a [`ServerHandle`].
//!
//! ## Ingested workloads
//!
//! `POST /v1/workloads` accepts `{"name": ..., "elf_base64": ...}`:
//! the binary is run by the functional executor in `dse-ingest`, its
//! event stream is characterized into a workload profile, and the
//! server registers a private evaluation stack for it — an analytical
//! LF model built from the *ingested* profile, an HF simulator
//! replaying the *ingested* trace, and a dedicated ledger. Subsequent
//! `/v1/evaluate` and `/v1/explore` requests address it by
//! `"workload": "<name>"`. Ingested workloads answer the `"lf"` and
//! `"hf"` tiers only: the learned tier and the `"auto"` router are
//! trained on the server's synthetic template workload and would
//! silently misroute a different binary.
//!
//! ## The cross-request micro-batcher
//!
//! The server's core mechanism is the coalescer thread:
//! concurrent `/v1/evaluate` requests are gathered — the first one
//! plus every one queued behind it, up to
//! [`BatcherConfig::max_batch_points`] points — and submitted at once
//! as **one** `CostLedger::evaluate_batch` per fidelity through the shared
//! [`CpiCache`](dse_exec::CpiCache)-backed evaluator. Because the
//! batch-first evaluator contract guarantees bit-identical results and
//! counters versus a sequential walk, coalescing changes throughput but
//! never answers: N concurrent clients observe exactly the CPIs and
//! ledger totals one sequential client would. An idle server never
//! waits for companions; batches form from the requests that arrive
//! while one is running. [`BatcherConfig::max_delay`] adds an opt-in
//! minimum window (zero by default).
//!
//! ## Robustness policy
//!
//! * **Backpressure** — a full evaluation or request queue answers
//!   `503` immediately instead of queueing unboundedly.
//! * **Timeouts** — every connection gets read and write deadlines from
//!   the reactor's timer wheel; slow-loris senders get `408` or a
//!   silent close instead of pinning resources.
//! * **Size limits** — request line, header count and body size are all
//!   capped ([`Limits`]); oversize bodies answer `413`, and an evaluate
//!   batch over 256 points answers `400`.
//! * **Graceful shutdown** — `POST /v1/shutdown` (or
//!   [`ServerHandle::shutdown`]) stops accepting, then drains every
//!   accepted connection, queued evaluation and background job before
//!   the process exits.
//!
//! ## Example
//!
//! ```no_run
//! use archdse::Explorer;
//! use archdse_serve::{client, spawn, ServeConfig};
//! use dse_workloads::Benchmark;
//!
//! let server = spawn(ServeConfig::new(
//!     Explorer::for_benchmark(Benchmark::Mm).trace_len(2_000),
//! ))?;
//! let addr = server.addr().to_string();
//! let health = client::get(&addr, "/healthz")?;
//! assert_eq!(health.status, 200);
//! server.shutdown();
//! server.join();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! [`CostLedger`]: dse_exec::CostLedger

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod conn;
mod flight;
mod front;
mod http;
mod loadgen;
mod protocol;
mod reactor;
mod server;
mod shard;

pub use batcher::{BatcherConfig, CoalescerStats};
pub use front::{routes, Limits, ServerHandle};
pub use http::client;
pub use loadgen::{run as run_loadgen, LatencyStats, LoadgenConfig, LoadgenReport, StatusLatency};
pub use protocol::{
    EvaluateResponse, EvaluatedPoint, ExplainResponse, JobResult, JobStatus, MetricsResponse,
    RequestCounters, WorkloadUploadResponse,
};
pub use server::{spawn, ServeConfig};
pub use shard::{spawn_router, RouterConfig};
