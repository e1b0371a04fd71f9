//! Bit-level pins of the FNN forward and backward passes.
//!
//! The LF and HF phases sample actions from `forward`'s scores and train
//! on `backward`'s gradients, so a change to either pass that moves a
//! single bit changes every later episode. These tests hold scores,
//! normalized firing strengths and gradients, as bits, to digests
//! recorded from the straight per-rule products (one `product()` over
//! each rule's memberships).
//!
//! The network is a trained-looking one: nonzero consequents and moved
//! parameter centers, set through [`Fnn::apply`]. A fresh network has
//! all-zero consequents, which zeroes the center gradients and would
//! leave most of the backward pass unpinned.

use dse_fnn::{Fnn, FnnBuilder, Observation};
use dse_space::DesignSpace;

/// Observations drawn per digest.
const DRAWN: usize = 500;

/// splitmix64: a fixed stream of well-mixed words.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn fnv1a(hash: &mut u64, word: f64) {
    for byte in word.to_bits().to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The canonical network with every consequent set and every parameter
/// center moved by up to ±20%, through one `apply`.
fn trained(space: &DesignSpace, stream: &mut Stream) -> Fnn {
    let mut fnn = FnnBuilder::for_space(space).build();
    let mut grads = fnn.zero_gradients();
    for row in &mut grads.consequents {
        for g in row {
            *g = stream.uniform(-1.0, 1.0);
        }
    }
    for (row, spec) in grads.centers.iter_mut().zip(fnn.inputs()) {
        for (g, m) in row.iter_mut().zip(&spec.memberships) {
            *g = m.center() * stream.uniform(-0.2, 0.2);
        }
    }
    fnn.apply(&grads, 1.0, 1.0);
    fnn
}

/// Observations at drawn design points with drawn CPIs, the corners
/// included.
fn observations(fnn: &Fnn, space: &DesignSpace, stream: &mut Stream) -> Vec<Observation> {
    let mut out = vec![
        fnn.observation(space, &space.smallest(), 0.2),
        fnn.observation(space, &space.largest(), 4.0),
    ];
    for _ in 0..DRAWN {
        let point = space.decode(stream.next() % space.size());
        let cpi = stream.uniform(0.1, 5.0);
        out.push(fnn.observation(space, &point, cpi));
    }
    out
}

/// Digests of scores, normalized strengths and `backward` gradients over
/// the drawn observations.
fn digests() -> [u64; 3] {
    let space = DesignSpace::boom();
    let mut stream = Stream(0x00F0_4A4D_601D_E400);
    let fnn = trained(&space, &mut stream);
    let moved = fnn.inputs()[1].memberships[0].center();
    assert_ne!(moved, FnnBuilder::for_space(&space).build().inputs()[1].memberships[0].center());
    let mut hashes = [0xCBF2_9CE4_8422_2325_u64; 3];
    for obs in observations(&fnn, &space, &mut stream) {
        let pass = fnn.forward(&obs);
        pass.scores.iter().for_each(|&s| fnv1a(&mut hashes[0], s));
        pass.normalized_strengths().iter().for_each(|&n| fnv1a(&mut hashes[1], n));
        let d_scores: Vec<f64> =
            (0..fnn.output_count()).map(|_| stream.uniform(-1.0, 1.0)).collect();
        let grads = fnn.backward(&pass, &d_scores);
        grads.consequents.iter().chain(&grads.centers).flatten().for_each(|&g| {
            fnv1a(&mut hashes[2], g);
        });
    }
    hashes
}

#[test]
fn forward_and_backward_bits_match_the_recorded_digests() {
    const GOLDEN: [u64; 3] = [0xfbe6_3257_eed2_0c31, 0xda7b_6b48_6e59_cb11, 0x7e94_ae02_3680_7156];
    let got = digests();
    for (name, (digest, golden)) in
        ["scores", "normalized strengths", "gradients"].iter().zip(got.iter().zip(GOLDEN))
    {
        assert_eq!(*digest, golden, "{name}: {digest:#018x} != {golden:#018x}");
    }
}

#[test]
fn the_pinned_network_exercises_the_center_gradients() {
    // Guards the pin itself: with zero consequents every center gradient
    // is exactly zero and the digest would not cover that path.
    let space = DesignSpace::boom();
    let mut stream = Stream(7);
    let fnn = trained(&space, &mut stream);
    let obs = fnn.observation(&space, &space.smallest(), 1.3);
    let grads = fnn.backward(&fnn.forward(&obs), &vec![1.0; fnn.output_count()]);
    assert!(grads.centers[1..].iter().flatten().any(|&g| g != 0.0));
}
