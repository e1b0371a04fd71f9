//! The differentiable analytical CPI model — the low-fidelity proxy.
//!
//! Substitutes the analytic multi-core processor model of Jongerius et
//! al. \[8\] used by the paper's LF phase. It is a mechanistic
//! (interval-style) model: CPI is a base dispatch/ILP/FU-limited term
//! plus cache-hierarchy and branch-flush penalty terms, all computed
//! from a [`WorkloadProfile`] and the 11 design-parameter values.
//!
//! Two properties of the original matter to the algorithm and are
//! reproduced here:
//!
//! 1. **Differentiability** (§3.1): the model is written against the
//!    [`Scalar`] trait, so evaluating it on [`Dual`] numbers yields
//!    ∂CPI/∂parameter for all parameters in one pass. Lookup tables (the
//!    reuse curve) use piecewise-linear fits, exactly the paper's
//!    workaround. The gradients gate which actions the LF phase may take.
//! 2. **Bias** (§3.2, §4.3): "the analytical model … assumes that ROB
//!    stalls only occur due to L3 and DRAM access". Here the ROB term
//!    only scales the DRAM-miss penalty; L2-hit latency is assumed fully
//!    hidden. The cycle-level simulator does *not* share this
//!    assumption, which is what gives the HF phase headroom — and
//!    produces the paper's counter-intuitive "IF L2 is low THEN ROB can
//!    increase" rule.
//!
//! # Examples
//!
//! ```
//! use dse_analytical::AnalyticalModel;
//! use dse_space::DesignSpace;
//! use dse_workloads::Benchmark;
//!
//! let space = DesignSpace::boom();
//! let model = AnalyticalModel::new(&space, Benchmark::Mm.profile());
//! let cpi = model.cpi(&space.smallest());
//! assert!(cpi > model.cpi(&space.largest()), "bigger machines are faster");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod latency;

pub use latency::Latencies;

use dse_autodiff::{Dual, PiecewiseLinear, Scalar};
use dse_space::{DesignPoint, DesignSpace, Param};
use dse_workloads::WorkloadProfile;

/// Sharpness of the smooth min/max operators; high enough that the
/// binding bottleneck dominates, low enough to keep useful gradients in
/// near-ties.
const SMOOTH_BETA: f64 = 16.0;

/// Minimum predicted per-step CPI reduction for a parameter to count as
/// beneficial in [`AnalyticalModel::beneficial_params`].
const BENEFIT_EPS: f64 = 1e-6;

/// The analytical CPI model for one workload.
///
/// Construction pre-fits the workload's reuse curve; evaluation is then
/// a handful of arithmetic operations (~µs on `f64`, matching the
/// paper's "about 0.1 ms per design" claim within an order of
/// magnitude — see the `analytical/*` rows of the `components` bench in
/// `dse-bench`).
#[derive(Debug, Clone)]
pub struct AnalyticalModel {
    profile: WorkloadProfile,
    reuse: PiecewiseLinear,
    latencies: Latencies,
}

impl AnalyticalModel {
    /// Builds the model for a workload profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`] — all
    /// shipped [`Benchmark`](dse_workloads::Benchmark) profiles pass.
    pub fn new(_space: &DesignSpace, profile: WorkloadProfile) -> Self {
        Self::with_latencies(_space, profile, Latencies::default())
    }

    /// Builds the model with custom latency constants.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn with_latencies(
        _space: &DesignSpace,
        profile: WorkloadProfile,
        latencies: Latencies,
    ) -> Self {
        if let Err(e) = profile.validate() {
            panic!("invalid workload profile: {e}");
        }
        let reuse = PiecewiseLinear::new(profile.reuse_hit_points.clone())
            .expect("validated profile has a well-formed reuse curve");
        Self { profile, reuse, latencies }
    }

    /// The workload profile this model was built from.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Predicted cycles per instruction for a design point.
    pub fn cpi(&self, point: &DesignPoint) -> f64 {
        let space = DesignSpace::boom();
        self.cpi_in(&space, point)
    }

    /// Predicted CPI under an explicit design space.
    pub fn cpi_in(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        self.cpi_generic(&Param::ALL.map(|p| point.value(space, p)))
    }

    /// Predicted instructions per cycle (1/CPI).
    pub fn ipc_in(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        1.0 / self.cpi_in(space, point)
    }

    /// CPI together with its gradient with respect to each parameter's
    /// *value* (in [`Param::ALL`] order), via forward-mode autodiff.
    ///
    /// The 11 variables are inline [`Dual`] numbers, so the call does not
    /// touch the heap. The value is bit-identical to
    /// [`cpi_in`](Self::cpi_in).
    pub fn cpi_with_gradient(
        &self,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> (f64, [f64; Param::COUNT]) {
        let duals: [Dual<{ Param::COUNT }>; Param::COUNT] =
            std::array::from_fn(|i| Dual::variable(point.value(space, Param::ALL[i]), i));
        let out = self.cpi_generic(&duals);
        let grad = out.gradient().try_into().expect("the CPI depends on the design parameters");
        (out.value(), grad)
    }

    /// First-order predicted ΔCPI for bumping each parameter to its next
    /// candidate; `None` where the parameter is already maximal.
    ///
    /// This is `∂CPI/∂value × candidate step`, the quantity the LF phase
    /// masks on: the paper "only allow\[s\] the design parameters with
    /// negative gradients to be chosen for increasing".
    pub fn step_deltas(
        &self,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> [Option<f64>; Param::COUNT] {
        self.cpi_and_step_deltas(space, point).1
    }

    /// [`cpi_in`](Self::cpi_in) and [`step_deltas`](Self::step_deltas)
    /// from one gradient pass; both bit-identical to the separate calls.
    pub fn cpi_and_step_deltas(
        &self,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> (f64, [Option<f64>; Param::COUNT]) {
        let (cpi, grad) = self.cpi_with_gradient(space, point);
        let deltas = Param::ALL.map(|p| {
            let idx = point.index_of(p);
            let cands = space.candidates(p);
            if idx + 1 < cands.len() {
                Some(grad[p.index()] * (cands[idx + 1] - cands[idx]))
            } else {
                None
            }
        });
        (cpi, deltas)
    }

    /// Parameters whose next step is predicted to *reduce* CPI — the LF
    /// action mask.
    pub fn beneficial_params(&self, space: &DesignSpace, point: &DesignPoint) -> Vec<Param> {
        self.step_deltas(space, point)
            .into_iter()
            .zip(Param::ALL)
            .filter_map(|(delta, p)| match delta {
                Some(d) if d < -BENEFIT_EPS => Some(p),
                _ => None,
            })
            .collect()
    }

    /// The model body, generic over plain values and dual numbers.
    ///
    /// `values` are the 11 raw parameter values in [`Param::ALL`] order.
    fn cpi_generic<S: Scalar>(&self, values: &[S]) -> S {
        assert_eq!(values.len(), Param::COUNT, "need one value per parameter");
        let v = |p: Param| values[p.index()].clone();
        let mix = &self.profile.mix;
        let line_kib = 64.0 / 1024.0;

        // --- Base term: dispatch width, window ILP and FU throughput. ---
        // Decode bound.
        let decode_cpi = v(Param::DecodeWidth).recip();
        // Window ILP: the issue queue exposes parallelism up to
        // ~sqrt(IQ·dep-distance). The ROB is deliberately ABSENT here
        // (the model's documented bias).
        let window_ilp = (v(Param::IssueQueueEntry) * S::constant(self.profile.mean_dep_distance))
            .sqrt()
            * S::constant(0.9);
        let ilp_cpi = window_ilp.recip();
        // FU throughput: cycles of each unit class consumed per
        // instruction, divided by the unit count.
        let int_demand = mix.int_alu + 3.0 * mix.int_mul + mix.branch;
        let int_cpi = S::constant(int_demand) / v(Param::IntFu);
        let mem_cpi = S::constant(mix.mem()) / v(Param::MemFu);
        let fp_cpi = S::constant(2.0 * mix.fp) / v(Param::FpFu);
        let fu_cpi = int_cpi.smooth_max(&mem_cpi, SMOOTH_BETA).smooth_max(&fp_cpi, SMOOTH_BETA);
        let base_cpi =
            decode_cpi.smooth_max(&ilp_cpi, SMOOTH_BETA).smooth_max(&fu_cpi, SMOOTH_BETA);

        // --- Memory term: L1/L2 miss penalties with MLP overlap. ---
        let l1_kib = v(Param::L1CacheSet) * v(Param::L1CacheWay) * S::constant(line_kib);
        let l2_kib = v(Param::L2CacheSet) * v(Param::L2CacheWay) * S::constant(line_kib);
        let hit1 = self.hit_rate(&l1_kib, &v(Param::L1CacheWay));
        let hit2_raw = self.hit_rate(&l2_kib, &v(Param::L2CacheWay));
        // The L2 serves at least everything the L1 does (inclusive).
        let hit2 = hit2_raw.smooth_max(&hit1, SMOOTH_BETA);
        let miss1 = S::constant(1.0) - hit1;
        let miss2 = S::constant(1.0) - hit2;
        let l2_served = (miss1.clone() - miss2.clone()).smooth_max(&S::constant(0.0), SMOOTH_BETA);

        // Overlap factors: MSHRs cap the workload's inherent MLP.
        let one = S::constant(1.0);
        let mlp = S::constant(self.profile.mlp);
        let mshr_overlap =
            mlp.smooth_min(&v(Param::NMshr), SMOOTH_BETA).smooth_max(&one, SMOOTH_BETA);
        // DRAM misses additionally need ROB window to stay overlapped —
        // the ONLY place the ROB appears in this model (bias).
        let rob_overlap =
            (v(Param::RobEntry) * S::constant(1.0 / 48.0)).smooth_max(&one, SMOOTH_BETA);
        let dram_overlap = mshr_overlap.clone().smooth_min(&rob_overlap, SMOOTH_BETA);

        let loads = S::constant(self.profile.mix.load);
        let l2_pen = loads.clone() * l2_served * S::constant(self.latencies.l2_hit) / mshr_overlap;
        let dram_pen = loads * miss2 * S::constant(self.latencies.dram) / dram_overlap;
        let mem_cpi_term = l2_pen + dram_pen;

        // --- Branch term: mispredict flushes. ---
        let branch_cpi = S::constant(
            mix.branch * self.profile.branch_mispredict_rate * self.latencies.flush_penalty,
        );

        base_cpi + mem_cpi_term + branch_cpi
    }

    /// Effective hit rate of a cache of `capacity_kib` with `ways`
    /// associativity: the reuse CDF, clamped to [0, 1], derated by the
    /// streaming fraction and a conflict-miss factor that shrinks with
    /// associativity.
    fn hit_rate<S: Scalar>(&self, capacity_kib: &S, ways: &S) -> S {
        let raw = self.reuse.eval(capacity_kib);
        let clamped = raw
            .smooth_min(&S::constant(1.0), SMOOTH_BETA)
            .smooth_max(&S::constant(0.0), SMOOTH_BETA);
        let temporal = clamped * S::constant(1.0 - self.profile.streaming_frac);
        // Conflict factor: at 2 ways lose `conflict_frac`, halving per
        // doubling of ways.
        let conflict =
            S::constant(1.0) - S::constant(2.0 * self.profile.conflict_frac) / ways.clone();
        temporal * conflict.smooth_max(&S::constant(0.0), SMOOTH_BETA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_workloads::Benchmark;
    use proptest::prelude::*;

    fn model(b: Benchmark) -> (DesignSpace, AnalyticalModel) {
        let space = DesignSpace::boom();
        let m = AnalyticalModel::new(&space, b.profile());
        (space, m)
    }

    #[test]
    fn cpi_is_positive_and_finite_everywhere_sampled() {
        for b in Benchmark::ALL {
            let (space, m) = model(b);
            for code in [0u64, 1_499_999, 2_999_999, 12_345, 777_777] {
                let cpi = m.cpi_in(&space, &space.decode(code));
                assert!(cpi.is_finite() && cpi > 0.0, "{b}: cpi {cpi}");
            }
        }
    }

    #[test]
    fn largest_design_beats_smallest_on_all_benchmarks() {
        for b in Benchmark::ALL {
            let (space, m) = model(b);
            assert!(
                m.cpi_in(&space, &space.largest()) < m.cpi_in(&space, &space.smallest()),
                "{b}"
            );
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (space, m) = model(Benchmark::Quicksort);
        let point = space.decode(1_234_567);
        let (_, grad) = m.cpi_with_gradient(&space, &point);
        // Finite differences on the continuous relaxation.
        let values = point.values(&space);
        for i in 0..Param::COUNT {
            let h = values[i] * 1e-6 + 1e-9;
            let mut up = values.clone();
            up[i] += h;
            let mut down = values.clone();
            down[i] -= h;
            let fd = (m.cpi_generic(&up) - m.cpi_generic(&down)) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {i}: autodiff {} vs fd {fd}",
                grad[i]
            );
        }
    }

    #[test]
    fn rob_gradient_vanishes_when_l2_holds_everything() {
        // The paper's §4.3 bias: with a large-enough L2 the model sees
        // no DRAM stalls, so increasing ROB is estimated unbeneficial.
        let (space, m) = model(Benchmark::StringSearch); // tiny working set
        let mut point = space.smallest();
        for p in [Param::L2CacheSet, Param::L2CacheWay, Param::L1CacheSet, Param::L1CacheWay] {
            while let Some(next) = point.increased(&space, p) {
                point = next;
            }
        }
        let deltas = m.step_deltas(&space, &point);
        let rob_delta = deltas[Param::RobEntry.index()].unwrap();
        assert!(
            rob_delta.abs() < 5e-3,
            "ROB step should look useless to the LF model, got {rob_delta}"
        );
        assert!(!m.beneficial_params(&space, &point).contains(&Param::RobEntry));
    }

    #[test]
    fn fp_units_never_beneficial_for_integer_workloads() {
        // dijkstra and ss have zero FP fraction.
        for b in [Benchmark::Dijkstra, Benchmark::StringSearch] {
            let (space, m) = model(b);
            for code in [0u64, 345_678, 2_222_222] {
                let point = space.decode(code);
                assert!(
                    !m.beneficial_params(&space, &point).contains(&Param::FpFu),
                    "{b}: FP FU flagged beneficial"
                );
            }
        }
    }

    #[test]
    fn decode_is_beneficial_for_decode_bound_workload() {
        // ss at decode width 1 with ample caches is front-end bound.
        let (space, m) = model(Benchmark::StringSearch);
        let point = space.smallest();
        assert!(m.beneficial_params(&space, &point).contains(&Param::DecodeWidth));
    }

    #[test]
    fn growing_l1_helps_cache_bound_workload() {
        let (space, m) = model(Benchmark::Dijkstra);
        let point = space.smallest();
        let grown = point.increased(&space, Param::L1CacheSet).unwrap();
        assert!(m.cpi_in(&space, &grown) < m.cpi_in(&space, &point));
    }

    #[test]
    fn mshr_matters_more_for_high_mlp_workload() {
        let space = DesignSpace::boom();
        let vvadd = AnalyticalModel::new(&space, Benchmark::FpVvadd.profile());
        let dijkstra = AnalyticalModel::new(&space, Benchmark::Dijkstra.profile());
        let p = space.smallest();
        let up = p.increased(&space, Param::NMshr).unwrap();
        let gain_vvadd = vvadd.cpi_in(&space, &p) - vvadd.cpi_in(&space, &up);
        let gain_dijkstra = dijkstra.cpi_in(&space, &p) - dijkstra.cpi_in(&space, &up);
        assert!(
            gain_vvadd > gain_dijkstra,
            "vvadd gains {gain_vvadd}, dijkstra gains {gain_dijkstra}"
        );
    }

    #[test]
    fn data_scale_increases_cpi() {
        let space = DesignSpace::boom();
        let base = AnalyticalModel::new(&space, Benchmark::Dijkstra.profile());
        let scaled = AnalyticalModel::new(&space, Benchmark::Dijkstra.profile_scaled(8.0));
        let p = space.decode(1_000_000);
        assert!(scaled.cpi_in(&space, &p) > base.cpi_in(&space, &p));
    }

    proptest! {
        #[test]
        fn cpi_positive_finite(code in 0u64..3_000_000) {
            let (space, m) = model(Benchmark::Fft);
            let cpi = m.cpi_in(&space, &space.decode(code));
            prop_assert!(cpi.is_finite());
            prop_assert!(cpi > 0.0);
            prop_assert!(cpi < 100.0, "cpi {cpi} implausible");
        }

        #[test]
        fn beneficial_params_never_at_max(code in 0u64..3_000_000) {
            let (space, m) = model(Benchmark::Mm);
            let point = space.decode(code);
            for p in m.beneficial_params(&space, &point) {
                prop_assert!(!point.is_max(&space, p));
            }
        }

        #[test]
        fn ipc_is_cpi_reciprocal(code in 0u64..3_000_000) {
            let (space, m) = model(Benchmark::Quicksort);
            let point = space.decode(code);
            let prod = m.ipc_in(&space, &point) * m.cpi_in(&space, &point);
            prop_assert!((prod - 1.0).abs() < 1e-12);
        }
    }
}
