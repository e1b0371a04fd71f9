//! Service-layer round-trip throughput with the cross-request
//! micro-batcher on vs. effectively off: the same concurrent loadgen
//! round against one server with a wide coalescing window and one whose
//! window admits a single request per batch.
//!
//! Both configurations must answer every request (and, per
//! `tests/serve_determinism.rs`, answer it identically); the artifact
//! contrasts their requests-per-batch amortization.

use archdse::Explorer;
use archdse_serve::{run_loadgen, spawn, BatcherConfig, LoadgenConfig, ServeConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use dse_workloads::Benchmark;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 6;
const POINTS_PER_REQUEST: usize = 4;

fn server_config(coalesce: bool) -> ServeConfig {
    let explorer = Explorer::for_benchmark(Benchmark::StringSearch).trace_len(2_000);
    let mut config = ServeConfig::new(explorer);
    config.workers = CLIENTS + 1;
    config.batcher = if coalesce {
        BatcherConfig {
            max_batch_points: 64,
            max_delay: std::time::Duration::from_millis(2),
            queue_capacity: 128,
        }
    } else {
        // A zero-width window: every request becomes its own batch.
        BatcherConfig {
            max_batch_points: POINTS_PER_REQUEST,
            max_delay: std::time::Duration::ZERO,
            queue_capacity: 128,
        }
    };
    config
}

fn loadgen_round(addr: &str) -> archdse_serve::LoadgenReport {
    let mut config = LoadgenConfig::new(addr);
    config.clients = CLIENTS;
    config.requests_per_client = REQUESTS_PER_CLIENT;
    config.points_per_request = POINTS_PER_REQUEST;
    let report = run_loadgen(&config).expect("loadgen round");
    assert_eq!(report.failed, 0, "loadgen round dropped requests");
    report
}

fn bench_serve_coalesce(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_coalesce");
    group.sample_size(10);

    let mut artifact = String::new();
    for (label, coalesce) in [("coalesced", true), ("single-request-batches", false)] {
        let server = spawn(server_config(coalesce)).expect("bind");
        let addr = server.addr().to_string();

        // One warm round for the artifact (and the CPI cache, so both
        // configurations time the service layer, not the simulator).
        let report = loadgen_round(&addr);
        if coalesce {
            assert!(
                report.coalescer.batches < report.coalescer.requests,
                "wide window must amortize: {} batches for {} requests",
                report.coalescer.batches,
                report.coalescer.requests
            );
        }
        artifact.push_str(&format!("--- {label} ---\n{}", report.render()));

        group.bench_function(label, |b| b.iter(|| loadgen_round(&addr)));

        server.shutdown();
        server.join();
    }
    group.finish();

    eprintln!(
        "serve: {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests x {POINTS_PER_REQUEST} points\n\
         {artifact}"
    );
}

criterion_group!(benches, bench_serve_coalesce);
criterion_main!(benches);
