//! The sampled reference optimum and the regret metric (§4.1).
//!
//! The paper: *"For each benchmark, we sample at least 500 points in the
//! promising area, and the best one is considered the sampled optimal
//! õpt"*; regret is `DSE_best − õpt` (eq. 5) and the LF→HF improvement
//! is the regret ratio (eq. 6).

use dse_mfrl::Constraint as _;
use dse_space::{DesignPoint, DesignSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::eval::{AreaLimit, SimulatorHf};

/// Configuration of the reference-optimum sampling pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceConfig {
    /// Number of sampled designs (paper: ≥ 500).
    pub samples: usize,
    /// Fraction of the area limit a design must *use* to count as being
    /// in the "promising area" (big designs; small ones are dominated).
    pub promising_area_fraction: f64,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for ReferenceConfig {
    fn default() -> Self {
        Self { samples: 500, promising_area_fraction: 0.75, seed: 2024 }
    }
}

/// The sampled reference optimum õpt.
#[derive(Debug, Clone)]
pub struct ReferenceOptimum {
    /// The best sampled design.
    pub point: DesignPoint,
    /// Its simulated CPI (õpt).
    pub cpi: f64,
    /// How many designs were actually sampled.
    pub samples: usize,
}

/// Samples the promising area (feasible designs whose area uses at least
/// `promising_area_fraction` of the limit) and simulates every sample,
/// returning the best as õpt (the first sampled, on a tie).
///
/// Which designs are drawn does not depend on any CPI, so every sample
/// is drawn first and all of them are simulated in one
/// [`SimulatorHf::cpi_batch`]: the batch spreads one job per (trace,
/// design) over the worker threads, with answers bit-identical to one
/// [`SimulatorHf::cpi`] per sample.
/// Simulations run outside any [`CostLedger`](dse_exec::CostLedger), so
/// the pass never consumes DSE budget — it defines the measuring stick,
/// exactly like the paper's offline reference sweep (it may warm the
/// evaluator's memo, which is fine: a later metered run is still charged
/// for every proposal).
///
/// # Panics
///
/// Panics if no design in the promising band can be found (an area
/// limit below the smallest design would do that).
pub fn reference_optimum(
    space: &DesignSpace,
    hf: &mut SimulatorHf,
    area: &AreaLimit,
    config: &ReferenceConfig,
) -> ReferenceOptimum {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut points = Vec::with_capacity(config.samples);
    let mut attempts = 0usize;
    let floor = area.limit_mm2() * config.promising_area_fraction;
    while points.len() < config.samples {
        attempts += 1;
        assert!(
            attempts < 1_000 * config.samples.max(1),
            "promising area too small to sample — is the area limit feasible?"
        );
        let p = space.random_point(&mut rng);
        if !area.fits(space, &p) || area.area_mm2(space, &p) < floor {
            continue;
        }
        points.push(p);
    }
    let cpis = hf.cpi_batch(space, &points);
    let mut best: Option<(usize, f64)> = None;
    for (i, &cpi) in cpis.iter().enumerate() {
        if best.is_none_or(|(_, b)| cpi < b) {
            best = Some((i, cpi));
        }
    }
    let (i, cpi) = best.expect("samples > 0");
    let samples = points.len();
    ReferenceOptimum { point: points.swap_remove(i), cpi, samples }
}

/// Regret (eq. 5): how far a DSE result's CPI sits above õpt. Clamped at
/// zero — a DSE run that beats the sampled reference has zero regret.
pub fn regret(dse_best_cpi: f64, reference: &ReferenceOptimum) -> f64 {
    (dse_best_cpi - reference.cpi).max(0.0)
}

/// Improvement ratio (eq. 6): `Regret_LF / Regret_HF` — the paper
/// tabulates how many times smaller the HF regret is. Returns infinity
/// when the HF regret is zero and the LF regret is not.
pub fn improvement(lf_regret: f64, hf_regret: f64) -> f64 {
    if hf_regret <= 0.0 {
        if lf_regret <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        lf_regret / hf_regret
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_workloads::Benchmark;

    #[test]
    fn reference_optimum_is_feasible_and_promising() {
        let space = DesignSpace::boom();
        let mut hf = SimulatorHf::for_benchmark(Benchmark::StringSearch, 2_000, 3, 1.0);
        let area = AreaLimit::new(8.0);
        let cfg = ReferenceConfig { samples: 10, ..Default::default() };
        let r = reference_optimum(&space, &mut hf, &area, &cfg);
        assert_eq!(r.samples, 10);
        assert!(area.fits(&space, &r.point));
        assert!(area.area_mm2(&space, &r.point) >= 8.0 * 0.75);
        // The pass runs outside any ledger, so no run budget exists to
        // consume: a fresh metered run still has its full budget, and
        // re-proposing the reference point costs no model time.
        let mut ledger = dse_exec::CostLedger::new().with_hf_budget(1);
        assert_eq!(ledger.hf_remaining(), Some(1));
        let entry = ledger.evaluate(&mut hf, &space, &r.point);
        assert_eq!(entry.cpi(), Some(r.cpi));
        assert_eq!(ledger.section(dse_exec::Fidelity::High).model_time_units, 0.0);
    }

    #[test]
    fn regret_is_clamped_nonnegative() {
        let space = DesignSpace::boom();
        let reference = ReferenceOptimum { point: space.smallest(), cpi: 1.0, samples: 1 };
        assert_eq!(regret(1.5, &reference), 0.5);
        assert_eq!(regret(0.8, &reference), 0.0);
    }

    #[test]
    fn improvement_handles_zero_regrets() {
        assert!((improvement(0.3, 0.1) - 3.0).abs() < 1e-12);
        assert_eq!(improvement(0.3, 0.0), f64::INFINITY);
        assert_eq!(improvement(0.0, 0.0), 1.0);
    }

    #[test]
    fn more_samples_never_worsen_the_reference() {
        let space = DesignSpace::boom();
        let area = AreaLimit::new(8.0);
        let mut hf = SimulatorHf::for_benchmark(Benchmark::StringSearch, 2_000, 3, 1.0);
        let small = reference_optimum(
            &space,
            &mut hf,
            &area,
            &ReferenceConfig { samples: 5, ..Default::default() },
        );
        let large = reference_optimum(
            &space,
            &mut hf,
            &area,
            &ReferenceConfig { samples: 15, ..Default::default() },
        );
        assert!(large.cpi <= small.cpi, "prefix property of the sampler");
    }
}
