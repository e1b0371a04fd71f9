//! Bit-level pin of the six Fig. 5 baselines on the real simulator.
//!
//! Each optimizer runs against a cold Quicksort simulator under an
//! 8 mm² area limit with a budget of 6, for seeds 1 and 2. The digest
//! covers every evaluated design (encoded), its CPI bits and the run's
//! whole `LedgerSummary`, so any change to proposal order, RNG draws,
//! feasibility checks or ledger accounting moves it. The digests were
//! recorded before the baselines were moved onto the shared evaluator
//! interface.

use archdse::eval::{AreaLimit, SimulatorHf};
use archdse::DesignSpace;
use dse_baselines::{
    ActBoostOptimizer, BagGbrtOptimizer, BoomExplorerOptimizer, Optimizer, RandomForestOptimizer,
    RandomSearchOptimizer, ScboOptimizer,
};
use dse_exec::{FidelityLedger, LedgerSummary};
use dse_workloads::Benchmark;

const BUDGET: usize = 6;

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest_section(hash: &mut u64, section: &FidelityLedger) {
    fnv1a(hash, section.evaluations);
    fnv1a(hash, section.cache_hits);
    fnv1a(hash, section.cache_misses);
    fnv1a(hash, section.denied);
    fnv1a(hash, section.model_time_units.to_bits());
}

/// Digests a summary in the layout the golden constants were recorded
/// with, when the ledger also had a learned mid tier (an empty section,
/// between LF and HF, for every baseline run) and a budget floor (the
/// HF tier, index 2).
fn digest_ledger(hash: &mut u64, ledger: &LedgerSummary) {
    for section in [&ledger.low, &FidelityLedger::default(), &ledger.high] {
        digest_section(hash, section);
    }
    fnv1a(hash, ledger.hf_budget.map_or(u64::MAX, |b| b));
    fnv1a(hash, 2);
}

/// Runs `opt` for `seed` on a cold simulator and digests the outcome.
fn run_digest(opt: &mut dyn Optimizer, seed: u64) -> u64 {
    let space = DesignSpace::boom();
    let mut hf = SimulatorHf::for_benchmark(Benchmark::Quicksort, 2_000, 3, 1.0);
    let result = opt.optimize(&space, &mut hf, &AreaLimit::new(8.0), BUDGET, seed);
    assert_eq!(result.history.len(), BUDGET, "{}", opt.name());

    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for (design, cpi) in &result.history {
        fnv1a(&mut hash, space.encode(design));
        fnv1a(&mut hash, cpi.to_bits());
    }
    fnv1a(&mut hash, space.encode(&result.best_point));
    fnv1a(&mut hash, result.best_value.to_bits());
    digest_ledger(&mut hash, &result.ledger);
    hash
}

#[test]
fn every_baseline_matches_its_recorded_digests() {
    let golden: [(Box<dyn Optimizer>, [u64; 2]); 6] = [
        (Box::new(RandomSearchOptimizer), [0x9aa1_389b_0600_65fd, 0x7f0c_63b5_82be_1d33]),
        (Box::new(RandomForestOptimizer), [0x2d7d_2db4_23ec_1d49, 0xd6cd_4bab_28ad_fd01]),
        (Box::new(ActBoostOptimizer), [0x9c40_2a44_038f_526a, 0xecad_9208_f9ee_0f18]),
        (Box::new(BagGbrtOptimizer), [0x7ce9_b6a8_926b_201d, 0xfdc7_1b69_7b16_2a96]),
        (Box::new(BoomExplorerOptimizer), [0x7048_11b5_3427_18fb, 0xf49f_49cd_13db_8613]),
        (Box::new(ScboOptimizer::default()), [0xb1b0_32e2_cda4_bb2f, 0x4ec1_2d02_4ee9_8f2d]),
    ];
    let mut mismatches = Vec::new();
    for (mut opt, digests) in golden {
        for (seed, golden) in [1u64, 2].into_iter().zip(digests) {
            let digest = run_digest(opt.as_mut(), seed);
            if digest != golden {
                mismatches
                    .push(format!("{} seed {seed}: {digest:#018x} != {golden:#018x}", opt.name()));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
