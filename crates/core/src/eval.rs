//! Fidelity plumbing: the analytical model as the RL's [`LowFidelity`]
//! proxy, the cycle-level simulator as an [`Evaluator`], and the area
//! and power limits as [`Constraint`]s.

use dse_analytical::AnalyticalModel;
use dse_area::{Activity, AreaModel, PowerModel};
use dse_exec::{par_map, par_map_with, CacheStats, CpiCache, Evaluation, Evaluator, Fidelity};
use dse_mfrl::{param_bits, Constraint, LowFidelity, LF_TRACE_EQUIVALENT};
use dse_sim::{BatchSimulator, CoreConfig, ExpandedTrace, SimResult};
use dse_space::{DesignPoint, DesignSpace, Param};
use dse_workloads::{Benchmark, Trace, WorkloadProfile};

/// A workload ingested from a real binary rather than synthesized from
/// a [`Benchmark`]: a characterized profile for the low-fidelity model
/// plus the exact dynamic trace for the high-fidelity simulator.
///
/// The trace sits behind an [`Arc`](std::sync::Arc) so the explorer —
/// which is `Clone` and gets captured by service configuration — never
/// copies a multi-million-instruction trace.
#[derive(Debug, Clone)]
pub struct IngestedWorkload {
    /// Workload name (shows up in reports and service responses).
    pub name: String,
    /// Characterization in the synthetic-benchmark profile form.
    pub profile: WorkloadProfile,
    /// The dynamic instruction trace the HF simulator replays.
    pub trace: std::sync::Arc<Trace>,
}

impl IngestedWorkload {
    /// Bundles a name, profile and trace.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace or a profile that fails
    /// [`WorkloadProfile::validate`] — both indicate the ingestion
    /// pipeline was bypassed.
    pub fn new(name: impl Into<String>, profile: WorkloadProfile, trace: Trace) -> Self {
        assert!(!trace.is_empty(), "ingested workload needs a non-empty trace");
        if let Err(e) = profile.validate() {
            panic!("ingested workload profile invalid: {e}");
        }
        Self { name: name.into(), profile, trace: std::sync::Arc::new(trace) }
    }
}

/// Adapts simulator statistics into the power model's activity profile.
///
/// # Examples
///
/// ```
/// use archdse::eval::activity_of;
/// use archdse::{CoreConfig, DesignSpace, Simulator};
/// use dse_workloads::Benchmark;
///
/// let space = DesignSpace::boom();
/// let result = Simulator::new(CoreConfig::from_point(&space, &space.smallest()))
///     .run(&Benchmark::Mm.trace(2_000, 1));
/// let activity = activity_of(&result);
/// assert_eq!(activity.instructions, 2_000);
/// ```
pub fn activity_of(result: &SimResult) -> Activity {
    Activity {
        instructions: result.instructions,
        cycles: result.cycles,
        l1_accesses: result.l1_accesses,
        l2_accesses: result.l2_accesses,
        dram_accesses: result.l2_misses,
        flushes: result.flushes,
    }
}

/// Low-fidelity adapter: one analytical model per benchmark, averaged.
///
/// For application-specific DSE (Table 2) this holds a single model; for
/// general-purpose DSE (Fig. 5) it averages all six. CPI/IPC average
/// across models; the gradient mask endorses a parameter when the *mean*
/// predicted step benefit is negative.
///
/// Batched estimates ([`LowFidelity::cpi_batch`]) fan designs across the
/// `dse-exec` work pool; each design's estimate is the same pure function
/// either way, so results are bit-identical at any thread count.
#[derive(Debug, Clone)]
pub struct AnalyticalLf {
    models: Vec<AnalyticalModel>,
    threads: usize,
}

/// Minimum mean per-step CPI reduction for the mask (mirrors the
/// threshold inside [`AnalyticalModel::beneficial_params`]).
const BENEFIT_EPS: f64 = 1e-6;

impl AnalyticalLf {
    /// Builds the LF proxy for one benchmark at a data scale.
    pub fn for_benchmark(space: &DesignSpace, benchmark: Benchmark, data_scale: f64) -> Self {
        Self {
            models: vec![AnalyticalModel::new(space, benchmark.profile_scaled(data_scale))],
            threads: dse_exec::default_threads(),
        }
    }

    /// Builds the general-purpose LF proxy averaging `benchmarks`.
    ///
    /// # Panics
    ///
    /// Panics if `benchmarks` is empty.
    pub fn for_benchmarks(space: &DesignSpace, benchmarks: &[Benchmark], data_scale: f64) -> Self {
        assert!(!benchmarks.is_empty(), "need at least one benchmark");
        Self {
            models: benchmarks
                .iter()
                .map(|&b| AnalyticalModel::new(space, b.profile_scaled(data_scale)))
                .collect(),
            threads: dse_exec::default_threads(),
        }
    }

    /// Builds the LF proxy from explicit workload profiles — the path
    /// ingested binaries take, since they have a characterized profile
    /// but no [`Benchmark`] variant.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or any profile fails
    /// [`WorkloadProfile::validate`] (via the analytical model's own
    /// constructor check).
    pub fn for_profiles(space: &DesignSpace, profiles: &[WorkloadProfile]) -> Self {
        assert!(!profiles.is_empty(), "need at least one profile");
        Self {
            models: profiles.iter().map(|p| AnalyticalModel::new(space, p.clone())).collect(),
            threads: dse_exec::default_threads(),
        }
    }

    /// Overrides the worker-thread count for batched estimates.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// The underlying per-benchmark models.
    pub fn models(&self) -> &[AnalyticalModel] {
        &self.models
    }
}

impl LowFidelity for AnalyticalLf {
    fn cpi(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        self.models.iter().map(|m| m.cpi_in(space, point)).sum::<f64>() / self.models.len() as f64
    }

    fn cpi_batch(&self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<f64> {
        par_map(points, self.threads, |p| self.cpi(space, p))
    }

    fn beneficial_params(&self, space: &DesignSpace, point: &DesignPoint) -> Vec<Param> {
        let mut mask = MeanStepMask::new(self.models.len());
        for model in &self.models {
            mask.add(model.step_deltas(space, point));
        }
        let bits = mask.bits();
        Param::ALL.into_iter().filter(|p| bits >> p.index() & 1 == 1).collect()
    }

    /// One gradient pass per model yields both answers. The CPI sums the
    /// models in the same order as [`cpi`](LowFidelity::cpi), and each
    /// gradient pass's value is bit-identical to the plain CPI, so both
    /// halves match the separate calls bit for bit.
    fn cpi_and_mask(&self, space: &DesignSpace, point: &DesignPoint) -> (f64, u16) {
        let mut mask = MeanStepMask::new(self.models.len());
        let sum = self
            .models
            .iter()
            .map(|m| {
                let (cpi, deltas) = m.cpi_and_step_deltas(space, point);
                mask.add(deltas);
                cpi
            })
            .sum::<f64>();
        (sum / self.models.len() as f64, mask.bits())
    }

    fn cost_per_eval(&self) -> f64 {
        self.models.len() as f64 * LF_TRACE_EQUIVALENT
    }
}

/// The mean of several models' per-step ΔCPI, folded one model at a
/// time: a parameter is endorsed when no model has it at its maximum and
/// the mean step is a reduction of more than [`BENEFIT_EPS`].
struct MeanStepMask {
    models: f64,
    mean_delta: [f64; Param::COUNT],
    at_max: [bool; Param::COUNT],
}

impl MeanStepMask {
    fn new(models: usize) -> Self {
        Self {
            models: models as f64,
            mean_delta: [0.0; Param::COUNT],
            at_max: [false; Param::COUNT],
        }
    }

    fn add(&mut self, deltas: [Option<f64>; Param::COUNT]) {
        for (i, delta) in deltas.into_iter().enumerate() {
            match delta {
                Some(d) => self.mean_delta[i] += d / self.models,
                None => self.at_max[i] = true,
            }
        }
    }

    /// The endorsed parameters as [`param_bits`](dse_mfrl::param_bits).
    fn bits(&self) -> u16 {
        param_bits(
            Param::ALL
                .into_iter()
                .filter(|p| !self.at_max[p.index()] && self.mean_delta[p.index()] < -BENEFIT_EPS),
        )
    }
}

/// High-fidelity adapter: the cycle-level simulator over pre-generated
/// benchmark traces, with a memo shared across runs.
///
/// One "HF simulation" in the paper's accounting simulates *all* of this
/// evaluator's benchmarks for one design (the Fig. 5 objective is the
/// six-benchmark average CPI); the result is memoized so re-proposals of
/// a design never rerun the simulator. Budget enforcement and per-run
/// accounting are *not* this type's job — drive it through a
/// [`CostLedger`](dse_exec::CostLedger).
///
/// Per-benchmark traces — and, through [`Evaluator::evaluate_batch`],
/// whole batches of designs — are simulated on the `dse-exec` work pool.
/// Each trace is expanded once into struct-of-arrays form at
/// construction. A batch runs as one lane per (trace, design) job,
/// fanned across the work pool: each worker runs its jobs on one reused
/// [`BatchSimulator`] lane over the shared expansion (see the sim
/// crate's batch module). Results are gathered in job order and each
/// lane run is bit-identical to the reference walk of its design, so
/// the reported CPIs are bit-identical whatever the thread count (see
/// the crate's DESIGN.md).
#[derive(Debug)]
pub struct SimulatorHf {
    traces: Vec<Trace>,
    expanded: Vec<ExpandedTrace>,
    cache: CpiCache,
    threads: usize,
}

impl SimulatorHf {
    /// Builds the HF evaluator for one benchmark.
    pub fn for_benchmark(
        benchmark: Benchmark,
        trace_len: usize,
        seed: u64,
        data_scale: f64,
    ) -> Self {
        Self::for_benchmarks(&[benchmark], trace_len, seed, data_scale)
    }

    /// Builds the HF evaluator averaging several benchmarks.
    ///
    /// Traces are generated once here, so every design is judged on the
    /// identical instruction streams. The worker count defaults to
    /// [`dse_exec::default_threads`] (the `DSE_THREADS` environment
    /// variable, else all cores).
    ///
    /// # Panics
    ///
    /// Panics if `benchmarks` is empty or `trace_len` is zero.
    pub fn for_benchmarks(
        benchmarks: &[Benchmark],
        trace_len: usize,
        seed: u64,
        data_scale: f64,
    ) -> Self {
        assert!(!benchmarks.is_empty(), "need at least one benchmark");
        assert!(trace_len > 0, "trace length must be positive");
        let traces: Vec<Trace> =
            benchmarks.iter().map(|&b| b.trace_scaled(trace_len, seed, data_scale)).collect();
        let expanded = traces.iter().map(ExpandedTrace::expand).collect();
        Self { traces, expanded, cache: CpiCache::new(), threads: dse_exec::default_threads() }
    }

    /// Builds the HF evaluator over explicit pre-built traces — the
    /// path ingested binaries take. The traces are used exactly as
    /// given (no generation, no seed), so the evaluator is
    /// deterministic in the trace bytes alone.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or any trace is empty.
    pub fn for_traces(traces: Vec<Trace>) -> Self {
        assert!(!traces.is_empty(), "need at least one trace");
        assert!(traces.iter().all(|t| !t.is_empty()), "traces must be non-empty");
        let expanded = traces.iter().map(ExpandedTrace::expand).collect();
        Self { traces, expanded, cache: CpiCache::new(), threads: dse_exec::default_threads() }
    }

    /// Overrides the worker-thread count (1 = fully sequential).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// The worker-thread count used for batched simulation.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Designs per simulation job: always 1, since every job is one
    /// (trace, design) pair. Kept for `archdse-perf`, whose one-thread
    /// re-run groups designs by this count.
    pub fn pack_size(&self) -> usize {
        1
    }

    /// Counters of the memoized CPI cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Unique designs simulated over this evaluator's lifetime (every
    /// simulation is memoized, so this is exactly the memo's entry
    /// count). Per-*run* charges live in the driving ledger, not here.
    pub fn evaluations(&self) -> usize {
        self.cache.len()
    }

    /// Memoized CPI of one design, outside any ledger — offline passes
    /// (the regret reference sweep) use this so no run budget is
    /// involved.
    pub fn cpi(&mut self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        Evaluator::evaluate(self, space, point).cpi
    }

    /// Memoized CPI of every design in `points`, outside any ledger.
    pub fn cpi_batch(&mut self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<f64> {
        Evaluator::evaluate_batch(self, space, points).into_iter().map(|ev| ev.cpi).collect()
    }
}

impl Evaluator for SimulatorHf {
    fn fidelity(&self) -> Fidelity {
        Fidelity::High
    }

    /// Batched evaluation fanning one job per (trace, unmemoized
    /// design) pair across the work pool, so even a few designs on one
    /// trace keep every core busy.
    ///
    /// Values and memo counters are identical to evaluating each point
    /// in order; every lane run is bit-identical to per-run simulation
    /// and per-design CPIs are averaged in trace order, so they are
    /// also bit-identical to the sequential walk at any thread count.
    /// Memo answers — including within-batch duplicates after their
    /// first occurrence — come back with [`Evaluation::cached`] set.
    fn evaluate_batch(&mut self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<Evaluation> {
        // Pass 1 (sequential): replay the exact memo-lookup sequence the
        // per-point path would issue, scheduling each design's first
        // unmemoized occurrence for simulation.
        enum Slot {
            Done(f64),
            // Position in `to_run`; `dup` marks occurrences after the
            // first, whose counted memo hit is deferred to pass 3.
            Pending { run: usize, dup: bool },
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(points.len());
        let mut to_run: Vec<(u64, CoreConfig)> = Vec::new();
        let mut scheduled: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for point in points {
            let key = space.encode(point);
            if let Some(&run) = scheduled.get(&key) {
                slots.push(Slot::Pending { run, dup: true });
                continue;
            }
            match self.cache.get(key) {
                Some(cpi) => slots.push(Slot::Done(cpi)),
                None => {
                    scheduled.insert(key, to_run.len());
                    slots.push(Slot::Pending { run: to_run.len(), dup: false });
                    to_run.push((key, CoreConfig::from_point(space, point)));
                }
            }
        }

        // Pass 2 (parallel): one job per (trace, design) pair, trace
        // major, handed out dynamically. Each worker keeps one batch
        // simulator whose lane recycles its buffers from job to job;
        // every run cold-starts the lane, so a result depends only on
        // its (design, trace), never on the worker or the jobs it ran
        // before. Results are gathered in job order and CPIs averaged
        // per design in trace order, so nothing here depends on the
        // thread count.
        let n_traces = self.traces.len();
        let jobs: Vec<(usize, usize)> =
            (0..n_traces).flat_map(|t| (0..to_run.len()).map(move |d| (t, d))).collect();
        let per_job =
            par_map_with(&jobs, self.threads, BatchSimulator::new, |batch, _, &(t, d)| {
                batch.run(&to_run[d].1, &self.expanded[t]).cpi()
            });
        let mut cpis = vec![0.0f64; to_run.len() * n_traces];
        for (&(t, d), &cpi) in jobs.iter().zip(&per_job) {
            cpis[d * n_traces + t] = cpi;
        }
        let means: Vec<f64> = (0..to_run.len())
            .map(|d| cpis[d * n_traces..(d + 1) * n_traces].iter().sum::<f64>() / n_traces as f64)
            .collect();
        for (&(key, _), &mean) in to_run.iter().zip(&means) {
            self.cache.insert(key, mean);
        }

        // Pass 3: resolve pending slots; within-batch duplicates now
        // take the counted memo hit the sequential walk would have.
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(cpi) => Evaluation::new(cpi, Fidelity::High).cached(true),
                Slot::Pending { run, dup } => {
                    if dup {
                        let cpi = self.cache.get(to_run[run].0).expect("inserted in pass 2");
                        Evaluation::new(cpi, Fidelity::High).cached(true)
                    } else {
                        Evaluation::new(means[run], Fidelity::High)
                    }
                }
            })
            .collect()
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn cost_per_eval(&self) -> f64 {
        self.traces.len() as f64
    }
}

/// The area constraint (eq. "grow until the limit", Table 2 budgets).
#[derive(Debug, Clone)]
pub struct AreaLimit {
    model: AreaModel,
    limit_mm2: f64,
}

impl AreaLimit {
    /// A limit of `limit_mm2` under the default [`AreaModel`].
    ///
    /// # Panics
    ///
    /// Panics if the limit is not positive.
    pub fn new(limit_mm2: f64) -> Self {
        assert!(limit_mm2 > 0.0, "area limit must be positive");
        Self { model: AreaModel::new(), limit_mm2 }
    }

    /// The limit in mm².
    pub fn limit_mm2(&self) -> f64 {
        self.limit_mm2
    }

    /// Area of a point under the limit's model.
    pub fn area_mm2(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        self.model.area_mm2(space, point)
    }
}

impl Constraint for AreaLimit {
    fn fits(&self, space: &DesignSpace, point: &DesignPoint) -> bool {
        self.model.fits(space, point, self.limit_mm2)
    }
}

/// The full feasibility predicate: the area limit, optionally tightened
/// by a static-power (leakage) budget.
///
/// Leakage is a pure function of the configuration (no workload
/// activity needed), so it can gate every episode step just like area —
/// the natural extension for power-conscious exploration.
#[derive(Debug, Clone)]
pub struct DesignConstraints {
    area: AreaLimit,
    leakage_limit_mw: Option<f64>,
    power: PowerModel,
}

impl DesignConstraints {
    /// Area-only constraints (the paper's setting).
    pub fn area_only(area: AreaLimit) -> Self {
        Self { area, leakage_limit_mw: None, power: PowerModel::new() }
    }

    /// Adds a leakage budget in mW on top of the area limit.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive.
    pub fn with_leakage_limit(mut self, limit_mw: f64) -> Self {
        assert!(limit_mw > 0.0, "leakage budget must be positive");
        self.leakage_limit_mw = Some(limit_mw);
        self
    }

    /// The wrapped area limit.
    pub fn area(&self) -> &AreaLimit {
        &self.area
    }

    /// The leakage budget, if any.
    pub fn leakage_limit_mw(&self) -> Option<f64> {
        self.leakage_limit_mw
    }

    /// Leakage power of a point under the wrapped power model.
    pub fn leakage_mw(&self, space: &DesignSpace, point: &DesignPoint) -> f64 {
        self.power.leakage_mw(space, point)
    }
}

impl Constraint for DesignConstraints {
    fn fits(&self, space: &DesignSpace, point: &DesignPoint) -> bool {
        if !self.area.fits(space, point) {
            return false;
        }
        match self.leakage_limit_mw {
            Some(limit) => self.power.leakage_mw(space, point) <= limit,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_exec::{CostLedger, LedgerEntry};

    #[test]
    fn analytical_lf_averages_models() {
        let space = DesignSpace::boom();
        let single_mm = AnalyticalLf::for_benchmark(&space, Benchmark::Mm, 1.0);
        let single_ss = AnalyticalLf::for_benchmark(&space, Benchmark::StringSearch, 1.0);
        let both =
            AnalyticalLf::for_benchmarks(&space, &[Benchmark::Mm, Benchmark::StringSearch], 1.0);
        let p = space.decode(1_000_000);
        let avg = (single_mm.cpi(&space, &p) + single_ss.cpi(&space, &p)) / 2.0;
        assert!((both.cpi(&space, &p) - avg).abs() < 1e-12);
    }

    #[test]
    fn analytical_batch_matches_the_sequential_walk() {
        let space = DesignSpace::boom();
        let lf = AnalyticalLf::for_benchmarks(&space, &Benchmark::ALL, 1.0).with_threads(3);
        let points: Vec<DesignPoint> =
            (0..17).map(|i| space.decode(i * 999_331 % space.size())).collect();
        let batched = lf.cpi_batch(&space, &points);
        let walked: Vec<f64> = points.iter().map(|p| lf.cpi(&space, p)).collect();
        assert_eq!(batched, walked);
        assert!((lf.cost_per_eval() - 6.0 * LF_TRACE_EQUIVALENT).abs() < 1e-15);
    }

    #[test]
    fn hf_memo_counts_unique_designs_only() {
        let space = DesignSpace::boom();
        let mut hf = SimulatorHf::for_benchmark(Benchmark::StringSearch, 2_000, 1, 1.0);
        let p = space.smallest();
        let a = hf.cpi(&space, &p);
        let b = hf.cpi(&space, &p);
        assert_eq!(a, b);
        assert_eq!(hf.evaluations(), 1);
        let q = p.increased(&space, Param::DecodeWidth).unwrap();
        let _ = hf.cpi(&space, &q);
        assert_eq!(hf.evaluations(), 2);
    }

    #[test]
    fn evaluator_batch_stamps_memo_provenance() {
        let space = DesignSpace::boom();
        let mut hf = SimulatorHf::for_benchmark(Benchmark::StringSearch, 2_000, 1, 1.0);
        let p = space.smallest();
        let q = p.increased(&space, Param::DecodeWidth).unwrap();
        let _ = hf.cpi(&space, &p);
        let evs = Evaluator::evaluate_batch(&mut hf, &space, &[p.clone(), q.clone(), q.clone()]);
        assert!(evs[0].cached, "memoized design must report cached");
        assert!(!evs[1].cached, "fresh design must report a model run");
        assert!(evs[2].cached, "within-batch duplicate answers from the memo");
        assert_eq!(evs[1].cpi, evs[2].cpi);
        assert_eq!(evs[0].fidelity, Fidelity::High);
        assert_eq!(Evaluator::cost_per_eval(&hf), 1.0, "one benchmark = one trace");
    }

    #[test]
    fn warm_memo_charges_the_run_but_costs_no_model_time() {
        let space = DesignSpace::boom();
        let mut hf = SimulatorHf::for_benchmark(Benchmark::StringSearch, 2_000, 1, 1.0);
        let p = space.smallest();
        // An offline pass (no ledger) warms the memo without touching
        // any run budget.
        let offline = hf.cpi(&space, &p);
        assert_eq!(hf.evaluations(), 1);
        // A later metered run proposing the same design is charged one
        // evaluation — budgets meter proposals — but spends no model
        // time, because the memo answers.
        let mut ledger = CostLedger::new().with_hf_budget(1);
        let entry = ledger.evaluate(&mut hf, &space, &p);
        match entry {
            LedgerEntry::Charged(ev) => {
                assert!(ev.cached);
                assert_eq!(ev.cpi, offline);
            }
            other => panic!("expected a charged entry, got {other:?}"),
        }
        assert_eq!(ledger.evaluations(Fidelity::High), 1);
        assert_eq!(ledger.section(Fidelity::High).model_time_units, 0.0);
        assert_eq!(hf.evaluations(), 1, "no second simulation happened");
    }

    #[test]
    fn area_limit_matches_the_model() {
        let space = DesignSpace::boom();
        let limit = AreaLimit::new(8.0);
        assert!(limit.fits(&space, &space.smallest()));
        assert!(!limit.fits(&space, &space.largest()));
        assert!(limit.area_mm2(&space, &space.smallest()) < 8.0);
    }

    /// The 2,000 points the six-model mask is pinned on.
    fn mask_points(space: &DesignSpace) -> impl Iterator<Item = DesignPoint> + '_ {
        (0..2_000u64).map(|i| space.decode(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % space.size()))
    }

    #[test]
    fn six_model_mask_matches_the_recorded_digest() {
        // FNV-1a over the endorsed-parameter bitmask at 2,000 points,
        // recorded when the dual numbers still kept heap gradients.
        let space = DesignSpace::boom();
        let lf = AnalyticalLf::for_benchmarks(&space, &Benchmark::ALL, 1.0);
        let mut hash = 0xCBF2_9CE4_8422_2325_u64;
        for point in mask_points(&space) {
            let mask: u64 =
                lf.beneficial_params(&space, &point).iter().map(|p| 1u64 << p.index()).sum();
            hash = (hash ^ mask).wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(hash, 0xad56_e325_1669_d814);
    }

    #[test]
    fn fused_probe_matches_the_separate_calls_bit_for_bit() {
        let space = DesignSpace::boom();
        let lf = AnalyticalLf::for_benchmarks(&space, &Benchmark::ALL, 1.0);
        for point in mask_points(&space) {
            let (cpi, mask) = lf.cpi_and_mask(&space, &point);
            assert_eq!(cpi.to_bits(), lf.cpi(&space, &point).to_bits(), "{point:?}");
            assert_eq!(mask, param_bits(lf.beneficial_params(&space, &point)), "{point:?}");
        }
    }

    #[test]
    fn lf_mask_subset_of_in_range_params() {
        let space = DesignSpace::boom();
        let lf = AnalyticalLf::for_benchmarks(&space, &Benchmark::ALL, 1.0);
        let p = space.decode(2_345_678);
        for param in lf.beneficial_params(&space, &p) {
            assert!(!p.is_max(&space, param));
        }
    }
}
