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

/// A dual number over all 11 design parameters.
type Grad = Dual<{ Param::COUNT }>;

/// The six terms the model composes, each a function of at most three
/// parameters. [`AnalyticalModel::combine`] folds them into the CPI.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// L1 hit rate.
    L1Hit,
    /// L2 hit rate before the inclusive floor at the L1 hit rate.
    L2HitRaw,
    /// Miss overlap of L2 hits: the workload's MLP capped by the MSHRs.
    MshrOverlap,
    /// Miss overlap of DRAM accesses: the MSHR overlap capped by the ROB.
    DramOverlap,
    /// The front-end bound: decode width ⊔ window ILP.
    FrontEnd,
    /// The functional-unit throughput bound.
    FuThroughput,
}

impl Term {
    const ALL: [Term; 6] = [
        Term::L1Hit,
        Term::L2HitRaw,
        Term::MshrOverlap,
        Term::DramOverlap,
        Term::FrontEnd,
        Term::FuThroughput,
    ];

    /// The parameters the term reads, in the order
    /// [`AnalyticalModel::term`] takes their values. A table's cells run
    /// over them with the last one fastest.
    fn params(self) -> &'static [Param] {
        match self {
            Term::L1Hit => &[Param::L1CacheSet, Param::L1CacheWay],
            Term::L2HitRaw => &[Param::L2CacheSet, Param::L2CacheWay],
            Term::MshrOverlap => &[Param::NMshr],
            Term::DramOverlap => &[Param::NMshr, Param::RobEntry],
            Term::FrontEnd => &[Param::DecodeWidth, Param::IssueQueueEntry],
            Term::FuThroughput => &[Param::IntFu, Param::MemFu, Param::FpFu],
        }
    }
}

/// One term at one combination of its parameters' candidates: the
/// term's value and its partials as bits.
///
/// A term's partials with respect to the parameters it does not read are
/// all the same bits: each starts as the +0.0 of every seeded variable,
/// and every operation treats those slots alike. So a cell keeps that
/// one partial, `other`, beside the partials of the term's own
/// parameters, in 40 bytes instead of a whole [`Grad`]'s 104.
#[derive(Debug, Clone, Copy)]
struct Cell {
    value: f64,
    /// The partials with respect to [`Term::params`], in order.
    own: [f64; 3],
    /// The partial with respect to each parameter the term does not read.
    other: f64,
}

impl Cell {
    /// Packs `term`'s dual at one cell.
    ///
    /// # Panics
    ///
    /// Panics if the dual is a constant, or if its partials for the
    /// parameters the term does not read differ in any bit.
    fn pack(term: Term, dual: &Grad) -> Self {
        let grad = dual.gradient();
        assert_eq!(grad.len(), Param::COUNT, "{term:?} depends on its parameters");
        let params = term.params();
        let mut rest = Param::ALL.iter().filter(|p| !params.contains(p)).map(|p| grad[p.index()]);
        let other = rest.next().expect("a term reads at most three parameters");
        assert!(rest.all(|g| g.to_bits() == other.to_bits()), "{term:?}'s other partials differ");
        let mut own = [0.0; 3];
        for (slot, p) in own.iter_mut().zip(params) {
            *slot = grad[p.index()];
        }
        Self { value: dual.value(), own, other }
    }

    /// The dual [`pack`](Self::pack) was given, bit for bit.
    fn unpack(&self, term: Term) -> Grad {
        let mut grad = [self.other; Param::COUNT];
        for (&g, p) in self.own.iter().zip(term.params()) {
            grad[p.index()] = g;
        }
        Dual::from_parts(self.value, grad)
    }
}

/// The analytical CPI model for one workload, bound to one design space.
///
/// Construction pre-fits the workload's reuse curve and tabulates each
/// of the model's six terms as dual numbers over the candidates of the
/// space it is given: 107 cells on the BOOM space, each computed once.
/// A probe reads six cells and runs the short step that combines them,
/// on plain values for [`cpi_in`](Self::cpi_in) and on dual numbers for
/// the gradient. On a 2-core x86 host that measured 0.19–0.24 µs per
/// CPI and 0.24–0.36 µs per CPI with gradient, far under the paper's
/// "about 0.1 ms per design" (the `analytical/*` rows of the
/// `components` bench in `dse-bench`). Each cell runs the same f64
/// operations on the same seeded duals as evaluating the whole model at
/// the point, so the tabled answers are that evaluation's bits.
///
/// Every probe reads its point's values under the `space` it is passed,
/// and each value must be a candidate of the construction space: any
/// [`restrict`](DesignSpace::restrict)ion of that space qualifies, and a
/// value outside it panics, naming the parameter.
#[derive(Debug, Clone)]
pub struct AnalyticalModel {
    profile: WorkloadProfile,
    reuse: PiecewiseLinear,
    latencies: Latencies,
    /// The construction space's candidates, parameter by parameter in
    /// [`Param::ALL`] order.
    candidates: Vec<f64>,
    /// Where each parameter's candidates start in `candidates`, then
    /// its length.
    starts: [usize; Param::COUNT + 1],
    /// Every term's table, in [`Term::ALL`] order.
    cells: Vec<Cell>,
    /// Where each term's table starts in `cells`.
    offsets: [usize; 6],
}

impl AnalyticalModel {
    /// Builds the model for a workload profile, bound to `space`: only
    /// designs whose values are candidates of `space` can be probed.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`] — all
    /// shipped [`Benchmark`](dse_workloads::Benchmark) profiles pass.
    pub fn new(space: &DesignSpace, profile: WorkloadProfile) -> Self {
        Self::with_latencies(space, profile, Latencies::default())
    }

    /// Builds the model with custom latency constants, bound to `space`
    /// as in [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn with_latencies(
        space: &DesignSpace,
        profile: WorkloadProfile,
        latencies: Latencies,
    ) -> Self {
        if let Err(e) = profile.validate() {
            panic!("invalid workload profile: {e}");
        }
        let reuse = PiecewiseLinear::new(profile.reuse_hit_points.clone())
            .expect("validated profile has a well-formed reuse curve");
        let mut starts = [0; Param::COUNT + 1];
        for p in Param::ALL {
            starts[p.index() + 1] = starts[p.index()] + space.cardinality(p);
        }
        let mut model = Self {
            profile,
            reuse,
            latencies,
            candidates: Param::ALL.iter().flat_map(|&p| space.candidates(p)).copied().collect(),
            starts,
            cells: Vec::new(),
            offsets: [0; 6],
        };
        let mut cells =
            Vec::with_capacity(Term::ALL.map(|term| model.table_size(term)).iter().sum());
        for (t, term) in Term::ALL.into_iter().enumerate() {
            model.offsets[t] = cells.len();
            model.tabulate(term, &mut cells);
        }
        model.cells = cells;
        model
    }

    /// The workload profile this model was built from.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Predicted cycles per instruction for a point of the space the
    /// model was built for.
    ///
    /// # Panics
    ///
    /// Panics if the point's index of some parameter is out of range for
    /// that space.
    pub fn cpi(&self, point: &DesignPoint) -> f64 {
        let idx = Param::ALL.map(|p| {
            let i = point.index_of(p);
            assert!(i < self.candidates(p).len(), "{p} index {i} out of range");
            i
        });
        self.combine(self.cells(idx).map(|cell| cell.value))
    }

    /// Predicted CPI of `point` read under `space`.
    ///
    /// # Panics
    ///
    /// Panics if one of the point's values is not a candidate of the
    /// model's own space.
    pub fn cpi_in(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        self.combine(self.cells(self.indices(space, point)).map(|cell| cell.value))
    }

    /// Predicted instructions per cycle (1/CPI).
    pub fn ipc_in(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        1.0 / self.cpi_in(space, point)
    }

    /// CPI together with its gradient with respect to each parameter's
    /// *value* (in [`Param::ALL`] order), via forward-mode autodiff.
    ///
    /// The terms come from the model's dual tables, so the call does not
    /// touch the heap. The value is bit-identical to
    /// [`cpi_in`](Self::cpi_in).
    ///
    /// # Panics
    ///
    /// As [`cpi_in`](Self::cpi_in).
    pub fn cpi_with_gradient(
        &self,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> (f64, [f64; Param::COUNT]) {
        let cells = self.cells(self.indices(space, point));
        let out = self.combine(std::array::from_fn(|t| cells[t].unpack(Term::ALL[t])));
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

    /// One parameter's candidates in the space the model was built for.
    fn candidates(&self, p: Param) -> &[f64] {
        &self.candidates[self.starts[p.index()]..self.starts[p.index() + 1]]
    }

    /// The candidate index, in the space the model was built for, of each
    /// of `point`'s values read under `space`.
    fn indices(&self, space: &DesignSpace, point: &DesignPoint) -> [usize; Param::COUNT] {
        Param::ALL.map(|p| {
            let value = point.value(space, p);
            let own = self.candidates(p);
            let i = point.index_of(p);
            if own.get(i).is_some_and(|c| c.to_bits() == value.to_bits()) {
                return i;
            }
            own.iter().position(|c| c.to_bits() == value.to_bits()).unwrap_or_else(|| {
                panic!(
                    "{p} = {value} is not a candidate of the space this analytical model \
                     was built for"
                )
            })
        })
    }

    /// The six table cells at the candidate indices `idx`.
    fn cells(&self, idx: [usize; Param::COUNT]) -> [&Cell; 6] {
        std::array::from_fn(|t| {
            let cell = Term::ALL[t]
                .params()
                .iter()
                .fold(0, |cell, &p| cell * self.candidates(p).len() + idx[p.index()]);
            &self.cells[self.offsets[t] + cell]
        })
    }

    /// Cells in one term's table over the model's space.
    fn table_size(&self, term: Term) -> usize {
        term.params().iter().map(|&p| self.candidates(p).len()).product()
    }

    /// Appends every cell of one term over the model's space to `out`,
    /// each evaluated on the duals a whole-model pass seeds for its
    /// parameters.
    fn tabulate(&self, term: Term, out: &mut Vec<Cell>) {
        let params = term.params();
        for cell in 0..self.table_size(term) {
            let mut rest = cell;
            let mut vars = [Dual::variable(0.0, 0); 3];
            for (var, &p) in vars.iter_mut().zip(params).rev() {
                let cands = self.candidates(p);
                *var = Dual::variable(cands[rest % cands.len()], p.index());
                rest /= cands.len();
            }
            out.push(Cell::pack(term, &self.term(term, &vars[..params.len()])));
        }
    }

    /// The whole model at arbitrary parameter values, on or off the
    /// candidate grid: every term evaluated directly, then combined.
    ///
    /// `values` are the 11 raw parameter values in [`Param::ALL`] order.
    #[cfg(test)]
    fn cpi_generic<S: Scalar>(&self, values: &[S]) -> S {
        assert_eq!(values.len(), Param::COUNT, "need one value per parameter");
        self.combine(Term::ALL.map(|term| {
            let vars: Vec<S> = term.params().iter().map(|p| values[p.index()].clone()).collect();
            self.term(term, &vars)
        }))
    }

    /// One term, given the values of its [`Term::params`] in order.
    fn term<S: Scalar>(&self, term: Term, v: &[S]) -> S {
        match term {
            // Capacity in KiB: sets × ways × 64 B lines.
            Term::L1Hit | Term::L2HitRaw => {
                let kib = v[0].clone() * v[1].clone() * S::constant(64.0 / 1024.0);
                self.hit_rate(&kib, &v[1])
            }
            Term::MshrOverlap => self.mshr_overlap(&v[0]),
            // DRAM misses additionally need ROB window to stay overlapped
            // — the ONLY place the ROB appears in this model (bias).
            Term::DramOverlap => {
                let rob_overlap = (v[1].clone() * S::constant(1.0 / 48.0))
                    .smooth_max(&S::constant(1.0), SMOOTH_BETA);
                self.mshr_overlap(&v[0]).smooth_min(&rob_overlap, SMOOTH_BETA)
            }
            // Decode bound ⊔ window ILP: the issue queue exposes
            // parallelism up to ~sqrt(IQ·dep-distance). The ROB is
            // deliberately ABSENT here (the model's documented bias).
            Term::FrontEnd => {
                let decode_cpi = v[0].recip();
                let window_ilp = (v[1].clone() * S::constant(self.profile.mean_dep_distance))
                    .sqrt()
                    * S::constant(0.9);
                decode_cpi.smooth_max(&window_ilp.recip(), SMOOTH_BETA)
            }
            // Cycles of each unit class consumed per instruction, divided
            // by the unit count; `v` is (Int, Mem, FP).
            Term::FuThroughput => {
                let mix = &self.profile.mix;
                let int_demand = mix.int_alu + 3.0 * mix.int_mul + mix.branch;
                let int_cpi = S::constant(int_demand) / v[0].clone();
                let mem_cpi = S::constant(mix.mem()) / v[1].clone();
                let fp_cpi = S::constant(2.0 * mix.fp) / v[2].clone();
                int_cpi.smooth_max(&mem_cpi, SMOOTH_BETA).smooth_max(&fp_cpi, SMOOTH_BETA)
            }
        }
    }

    /// The CPI from the six terms in [`Term::ALL`] order: the base bound
    /// plus L2-hit and DRAM penalties with MLP overlap, plus mispredict
    /// flushes.
    fn combine<S: Scalar>(&self, terms: [S; 6]) -> S {
        let [hit1, hit2_raw, mshr_overlap, dram_overlap, front_end, fu] = terms;
        let base_cpi = front_end.smooth_max(&fu, SMOOTH_BETA);

        // The L2 serves at least everything the L1 does (inclusive).
        let hit2 = hit2_raw.smooth_max(&hit1, SMOOTH_BETA);
        let miss1 = S::constant(1.0) - hit1;
        let miss2 = S::constant(1.0) - hit2;
        let l2_served = (miss1 - miss2.clone()).smooth_max(&S::constant(0.0), SMOOTH_BETA);
        let loads = S::constant(self.profile.mix.load);
        let l2_pen = loads.clone() * l2_served * S::constant(self.latencies.l2_hit) / mshr_overlap;
        let dram_pen = loads * miss2 * S::constant(self.latencies.dram) / dram_overlap;
        let mem_cpi_term = l2_pen + dram_pen;

        // Branch mispredict flushes.
        let branch_cpi = S::constant(
            self.profile.mix.branch
                * self.profile.branch_mispredict_rate
                * self.latencies.flush_penalty,
        );

        base_cpi + mem_cpi_term + branch_cpi
    }

    /// MSHRs cap the workload's inherent MLP; the overlap is at least 1.
    fn mshr_overlap<S: Scalar>(&self, nmshr: &S) -> S {
        S::constant(self.profile.mlp)
            .smooth_min(nmshr, SMOOTH_BETA)
            .smooth_max(&S::constant(1.0), SMOOTH_BETA)
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

    /// Holds the tabled probes at every 1,009th point of `space` to the
    /// whole model evaluated at the point's values: the CPI and all 11
    /// partials as bits, on dual numbers and on plain values.
    fn assert_tables_match_the_direct_composition(model: &AnalyticalModel, space: &DesignSpace) {
        for code in (0..space.size()).step_by(1_009) {
            let point = space.decode(code);
            let values = point.values(space);
            let seeded: Vec<Grad> =
                values.iter().enumerate().map(|(i, &v)| Dual::variable(v, i)).collect();
            let direct = model.cpi_generic(&seeded);
            let (cpi, grad) = model.cpi_with_gradient(space, &point);
            assert_eq!(cpi.to_bits(), direct.value().to_bits(), "cpi at {code}");
            for (i, (g, d)) in grad.iter().zip(direct.gradient()).enumerate() {
                assert_eq!(g.to_bits(), d.to_bits(), "partial {i} at {code}");
            }
            let plain = model.cpi_generic(&values).to_bits();
            assert_eq!(model.cpi_in(space, &point).to_bits(), plain, "f64 at {code}");
            assert_eq!(model.cpi(&point).to_bits(), plain, "own space at {code}");
        }
    }

    #[test]
    fn tabled_probes_are_the_direct_composition_bit_for_bit() {
        let space = DesignSpace::boom();
        let profiles = Benchmark::ALL
            .map(|b| b.profile())
            .into_iter()
            .chain([Benchmark::Mm.profile_scaled(2.0)]);
        for profile in profiles {
            let model = AnalyticalModel::new(&space, profile);
            assert_eq!(model.cells.len(), 107);
            assert_tables_match_the_direct_composition(&model, &space);
        }
    }

    #[test]
    fn restricted_space_builds_its_own_tables() {
        let space = DesignSpace::boom().restrict(Param::RobEntry, 96.0, 160.0);
        let model = AnalyticalModel::new(&space, Benchmark::Quicksort.profile());
        // The DRAM-overlap table shrinks from 5 × 5 to 5 × 3 cells.
        assert_eq!(model.cells.len(), 97);
        assert_tables_match_the_direct_composition(&model, &space);
        // A point of the restricted space reads the same cells from the
        // full space's tables.
        let full = AnalyticalModel::new(&DesignSpace::boom(), Benchmark::Quicksort.profile());
        let point = space.decode(777_777);
        assert_eq!(full.cpi_with_gradient(&space, &point), model.cpi_with_gradient(&space, &point));
    }

    #[test]
    #[should_panic(expected = "ROB Entry = 32 is not a candidate")]
    fn probe_outside_the_tabled_candidates_panics() {
        let space = DesignSpace::boom().restrict(Param::RobEntry, 96.0, 160.0);
        let model = AnalyticalModel::new(&space, Benchmark::Fft.profile());
        let boom = DesignSpace::boom();
        model.cpi_with_gradient(&boom, &boom.smallest());
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
