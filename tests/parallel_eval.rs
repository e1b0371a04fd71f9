//! Guarantees of the deterministic parallel evaluation backend:
//! batched evaluation is bit-identical to the sequential walk at any
//! thread count, and the whole exploration flow is reproducible from a
//! seed alone. `tests/serve_determinism.rs` extends the same guarantees
//! across the socket: concurrent HTTP clients of `archdse-serve` see
//! exactly what one sequential client would.

use std::time::Instant;

use archdse::eval::SimulatorHf;
use archdse::{DesignSpace, Explorer};
use dse_space::DesignPoint;
use dse_workloads::Benchmark;

fn spread(space: &DesignSpace, count: u64) -> Vec<DesignPoint> {
    (0..count).map(|i| space.decode(i * (space.size() - 1) / (count - 1))).collect()
}

fn evaluator(threads: usize, trace_len: usize) -> SimulatorHf {
    SimulatorHf::for_benchmarks(
        &[Benchmark::Mm, Benchmark::Fft, Benchmark::Dijkstra],
        trace_len,
        5,
        1.0,
    )
    .with_threads(threads)
}

#[test]
fn cpi_batch_matches_the_sequential_walk_exactly() {
    let space = DesignSpace::boom();
    let mut points = spread(&space, 10);
    // A within-batch duplicate exercises the dedup path.
    points.push(points[3].clone());

    let mut seq = evaluator(1, 2_000);
    let walked: Vec<f64> = points.iter().map(|p| seq.cpi(&space, p)).collect();

    let mut par = evaluator(8, 2_000);
    let batched = par.cpi_batch(&space, &points);

    for (i, (a, b)) in walked.iter().zip(&batched).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "design {i}: {a} != {b}");
    }
    assert_eq!(seq.evaluations(), par.evaluations(), "evaluation accounting diverged");
    assert_eq!(seq.cache_stats(), par.cache_stats(), "cache accounting diverged");
}

#[test]
fn thread_count_does_not_change_batch_results() {
    let space = DesignSpace::boom();
    let points = spread(&space, 8);
    let one = evaluator(1, 2_000).cpi_batch(&space, &points);
    for threads in [2, 4, 16] {
        let many = evaluator(threads, 2_000).cpi_batch(&space, &points);
        let same = one.iter().zip(&many).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{threads} threads diverged from 1 thread");
    }
}

#[test]
fn one_trace_serve_batch_is_identical_at_any_thread_count() {
    // The shape of a `/v1/evaluate` request on a one-benchmark server:
    // a few fresh designs on one trace, now split across workers.
    let space = DesignSpace::boom();
    let points = spread(&space, 4);
    let run = |threads: usize| {
        let mut hf = SimulatorHf::for_benchmark(Benchmark::Mm, 2_000, 5, 1.0).with_threads(threads);
        let cpis = hf.cpi_batch(&space, &points);
        (cpis, hf.cache_stats(), hf.evaluations())
    };
    let (one, one_stats, one_evals) = run(1);
    for threads in [2, 4] {
        let (many, stats, evals) = run(threads);
        let same = one.iter().zip(&many).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{threads} threads diverged from 1 thread: {many:?} vs {one:?}");
        assert_eq!(stats, one_stats, "{threads} threads: memo counters diverged");
        assert_eq!(evals, one_evals, "{threads} threads: evaluation count diverged");
    }
}

#[test]
fn same_seed_explorer_runs_are_bit_identical() {
    let run = || {
        Explorer::for_benchmark(Benchmark::StringSearch)
            .lf_episodes(25)
            .hf_budget(4)
            .trace_len(2_000)
            .seed(11)
            .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.best_point, b.best_point);
    assert_eq!(a.best_cpi.to_bits(), b.best_cpi.to_bits());
    // The full HF trajectory, not just the winner.
    assert_eq!(a.hf.history.len(), b.hf.history.len());
    for ((pa, ca), (pb, cb)) in a.hf.history.iter().zip(&b.hf.history) {
        assert_eq!(pa, pb);
        assert_eq!(ca.to_bits(), cb.to_bits());
    }
    // The candidate set H in order — this is what the lf.rs tie-break
    // fix protects (a HashMap's randomized iteration order used to leak
    // into equal-CPI positions).
    assert_eq!(a.lf.best_designs.len(), b.lf.best_designs.len());
    for ((pa, ca), (pb, cb)) in a.lf.best_designs.iter().zip(&b.lf.best_designs) {
        assert_eq!(pa, pb);
        assert_eq!(ca.to_bits(), cb.to_bits());
    }
    // And the bookkeeping agrees too — ledgers and all.
    assert_eq!(a.hf.evaluations, b.hf.evaluations);
    assert_eq!(a.ledger, b.ledger);
}

#[test]
#[ignore = "timing assertion: run explicitly on a machine with >= 4 idle cores"]
fn four_threads_sweep_at_least_twice_as_fast() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} core(s) available");
        return;
    }
    let space = DesignSpace::boom();
    let points = spread(&space, 24);
    let sweep = |threads: usize| {
        let mut hf =
            SimulatorHf::for_benchmarks(&Benchmark::ALL, 20_000, 7, 1.0).with_threads(threads);
        let start = Instant::now();
        let cpis = hf.cpi_batch(&space, &points);
        (start.elapsed(), cpis)
    };
    // Warm-up pass so page faults and allocator effects don't count.
    let _ = sweep(4);
    let (t1, seq) = sweep(1);
    let (t4, par) = sweep(4);
    assert!(seq.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits()));
    let speedup = t1.as_secs_f64() / t4.as_secs_f64();
    assert!(
        speedup >= 2.0,
        "expected >= 2x speedup with 4 threads, got {speedup:.2}x ({t1:?} vs {t4:?})"
    );
}
