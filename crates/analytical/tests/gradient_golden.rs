//! Bit-level pins of the gradient path.
//!
//! The LF action mask is the sign of `cpi_with_gradient`'s partials, so
//! any change to the dual-number arithmetic that moves a single bit can
//! change which actions an episode may take. These tests hold the value
//! and all 11 partials, as bits, to digests recorded before the dual
//! numbers moved from heap vectors to inline arrays.

use dse_analytical::AnalyticalModel;
use dse_space::{DesignPoint, DesignSpace};
use dse_workloads::Benchmark;

/// Points per benchmark drawn from the space, besides the two corners.
const DRAWN: usize = 256;

/// A fixed point set: both corners plus `DRAWN` splitmix64 draws.
fn points(space: &DesignSpace) -> Vec<DesignPoint> {
    let mut state = 0x005E_ED0F_6AD1_E475_u64;
    let mut out = vec![space.smallest(), space.largest()];
    for _ in 0..DRAWN {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.push(space.decode(z % space.size()));
    }
    out
}

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a over the value and partials of every point, as bits.
fn gradient_digest(benchmark: Benchmark) -> u64 {
    let space = DesignSpace::boom();
    let model = AnalyticalModel::new(&space, benchmark.profile());
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for point in points(&space) {
        let (cpi, grad) = model.cpi_with_gradient(&space, &point);
        fnv1a(&mut hash, cpi.to_bits());
        for g in grad.iter() {
            fnv1a(&mut hash, g.to_bits());
        }
    }
    hash
}

/// Recorded from the heap-vector duals; every later build must match.
const GOLDEN: [(Benchmark, u64); 6] = [
    (Benchmark::Dijkstra, 0x719c_69e6_4b28_1144),
    (Benchmark::Mm, 0x47c8_d68b_a6dc_115a),
    (Benchmark::FpVvadd, 0x79f2_54f9_2878_5582),
    (Benchmark::Quicksort, 0x8322_43ae_d08f_c893),
    (Benchmark::Fft, 0xaeb9_cead_60b8_b905),
    (Benchmark::StringSearch, 0xdc21_5e52_dcec_ac5d),
];

#[test]
fn gradient_bits_match_the_recorded_digests() {
    assert_eq!(GOLDEN.map(|(b, _)| b), Benchmark::ALL, "one golden per benchmark");
    for (benchmark, golden) in GOLDEN {
        let digest = gradient_digest(benchmark);
        assert_eq!(digest, golden, "{benchmark}: {digest:#018x} != {golden:#018x}");
    }
}

#[test]
fn gradient_value_is_the_plain_cpi_bit_for_bit() {
    let space = DesignSpace::boom();
    for benchmark in Benchmark::ALL {
        let model = AnalyticalModel::new(&space, benchmark.profile());
        for point in points(&space) {
            let (cpi, _) = model.cpi_with_gradient(&space, &point);
            assert_eq!(
                cpi.to_bits(),
                model.cpi_in(&space, &point).to_bits(),
                "{benchmark} at {}",
                space.encode(&point)
            );
        }
    }
}
