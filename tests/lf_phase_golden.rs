//! Bit-level pin of a general-purpose LF phase.
//!
//! The LF phase is a long chain of bit-sensitive steps: the analytical
//! CPI and gradient mask pick the legal actions, the FNN scores pick
//! among them, and every episode's REINFORCE update feeds the next. Any
//! change to how those answers are computed, cached or combined that
//! moves a single bit shows up here. The digests were recorded before
//! the phase memoized its per-point answers.

use archdse::Explorer;
use dse_exec::CostLedger;
use dse_mfrl::{LfOutcome, LfPhase, LfPhaseConfig};

const EPISODES: usize = 40;

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Runs the Fig. 5 general-purpose LF phase for `seed` and digests its
/// outcome together with the trained network.
fn lf_phase_digest(seed: u64) -> u64 {
    let explorer = Explorer::general_purpose().seed(seed).lf_episodes(EPISODES);
    let space = explorer.space();
    let mut fnn = explorer.build_fnn();
    let config = LfPhaseConfig { episodes: EPISODES, seed, ..LfPhaseConfig::default() };
    let outcome: LfOutcome = LfPhase::new(config).run(
        &mut fnn,
        space,
        &explorer.lf_model(),
        &explorer.constraints(),
        &mut CostLedger::new(),
    );
    assert_eq!(outcome.episode_designs.len(), EPISODES);

    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    fnv1a(&mut hash, space.encode(&outcome.converged));
    fnv1a(&mut hash, outcome.converged_cpi.to_bits());
    for &cpi in outcome.best_cpi_history.iter().chain(&outcome.policy_cpi_history) {
        fnv1a(&mut hash, cpi.to_bits());
    }
    for design in &outcome.episode_designs {
        fnv1a(&mut hash, space.encode(design));
    }
    for (design, cpi) in &outcome.best_designs {
        fnv1a(&mut hash, space.encode(design));
        fnv1a(&mut hash, cpi.to_bits());
    }
    for &w in fnn.consequents().iter().flatten() {
        fnv1a(&mut hash, w.to_bits());
    }
    for spec in fnn.inputs() {
        for m in &spec.memberships {
            fnv1a(&mut hash, m.center().to_bits());
        }
    }
    hash
}

#[test]
fn general_purpose_lf_phase_matches_the_recorded_digests() {
    const GOLDEN: [(u64, u64); 2] = [(1, 0x027b_6ee0_1ea8_9501), (2, 0xbb91_3964_724e_06bf)];
    for (seed, golden) in GOLDEN {
        let digest = lf_phase_digest(seed);
        assert_eq!(digest, golden, "seed {seed}: {digest:#018x} != {golden:#018x}");
    }
}
