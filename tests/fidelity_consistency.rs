//! Cross-crate integration: the analytical model (LF) and the
//! cycle-level simulator (HF) must agree on trends — that correlation is
//! the load-bearing assumption of the whole multi-fidelity scheme — while
//! disagreeing exactly where the paper says the analytical model is
//! biased (ROB sizing).

use archdse::eval::AnalyticalLf;
use archdse::{CoreConfig, DesignSpace, Param, Simulator};
use dse_mfrl::LowFidelity as _;
use dse_workloads::Benchmark;

/// Spearman rank correlation between two equally-long slices.
fn spearman(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0; v.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let ma = (n - 1.0) / 2.0;
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - ma)).sum();
    let var: f64 = ra.iter().map(|x| (x - ma) * (x - ma)).sum();
    cov / var
}

#[test]
fn lf_and_hf_rank_designs_consistently() {
    let space = DesignSpace::boom();
    // Memory-sensitive workloads must correlate strongly; the compute/
    // front-end-bound ones (vvadd, ss) have tightly clustered CPIs
    // where rank noise dominates, so only a positive trend is required.
    let expectations = [
        (Benchmark::Dijkstra, 0.6),
        (Benchmark::Mm, 0.6),
        (Benchmark::Quicksort, 0.6),
        (Benchmark::Fft, 0.6),
        (Benchmark::FpVvadd, 0.1),
        (Benchmark::StringSearch, 0.1),
    ];
    for (benchmark, min_rho) in expectations {
        let lf = AnalyticalLf::for_benchmark(&space, benchmark, 1.0);
        let trace = benchmark.trace(8_000, 11);
        // A deterministic spread of designs across the space.
        let designs: Vec<_> = (0..24).map(|i| space.decode(i * 125_003 % space.size())).collect();
        let lf_cpi: Vec<f64> = designs.iter().map(|d| lf.cpi(&space, d)).collect();
        let hf_cpi: Vec<f64> = designs
            .iter()
            .map(|d| Simulator::new(CoreConfig::from_point(&space, d)).run(&trace).cpi())
            .collect();
        let rho = spearman(&lf_cpi, &hf_cpi);
        assert!(rho > min_rho, "{benchmark}: LF/HF rank correlation {rho:.2} below {min_rho}");
    }
}

#[test]
fn lf_is_orders_of_magnitude_cheaper_than_hf() {
    // The premise of §3: "about 0.1 ms per design" vs hours of RTL. On
    // our substrate the gap is smaller but must still be large.
    let space = DesignSpace::boom();
    let lf = AnalyticalLf::for_benchmark(&space, Benchmark::Fft, 1.0);
    let trace = Benchmark::Fft.trace(20_000, 5);
    let p = space.decode(1_777_777);

    let t0 = std::time::Instant::now();
    for _ in 0..200 {
        let _ = lf.cpi(&space, &p);
    }
    let lf_time = t0.elapsed() / 200;

    let t1 = std::time::Instant::now();
    let _ = Simulator::new(CoreConfig::from_point(&space, &p)).run(&trace);
    let hf_time = t1.elapsed();

    assert!(
        hf_time > lf_time * 50,
        "fidelity cost gap too small: LF {lf_time:?} vs HF {hf_time:?}"
    );
}

#[test]
fn rob_bias_diverges_between_fidelities() {
    // §4.3: the analytical model assumes ROB stalls only come from
    // beyond-L2 accesses, so with maxed caches it sees almost no ROB
    // benefit; the cycle-level core disagrees because a small ROB fails
    // to hide even L1/L2 latency behind dependent work. The HF phase
    // exists to recover exactly this kind of headroom, so the measured
    // HF benefit must be several times the LF prediction.
    let space = DesignSpace::boom();
    let benchmark = Benchmark::Quicksort;
    let lf = AnalyticalLf::for_benchmark(&space, benchmark, 1.0);

    // A design with maxed caches but minimal ROB.
    let mut point = space.smallest();
    for p in [Param::L2CacheSet, Param::L2CacheWay, Param::L1CacheSet, Param::L1CacheWay] {
        while let Some(next) = point.increased(&space, p) {
            point = next;
        }
    }
    let lf_step = lf.models()[0].cpi_and_step_deltas(&space, &point).1[Param::RobEntry.index()]
        .expect("ROB not at max");
    // LF predicts only a marginal gain per ROB step (≈ −0.01 CPI).
    assert!(lf_step < 0.0, "predicted ROB delta should be (weakly) beneficial: {lf_step}");
    assert!(lf_step > -0.03, "LF should underrate ROB with maxed caches: {lf_step}");

    // The simulator rewards ROB growth far more on the same design.
    let trace = benchmark.trace(20_000, 9);
    let small_rob = Simulator::new(CoreConfig::from_point(&space, &point)).run(&trace).cpi();
    let mut big = point.clone();
    let mut steps = 0;
    while let Some(next) = big.increased(&space, Param::RobEntry) {
        big = next;
        steps += 1;
    }
    let big_rob = Simulator::new(CoreConfig::from_point(&space, &big)).run(&trace).cpi();
    let hf_step = (big_rob - small_rob) / steps as f64;
    assert!(
        hf_step < 3.0 * lf_step,
        "HF per-step ROB benefit ({hf_step:.4}) should dwarf the LF prediction ({lf_step:.4})"
    );
}
