//! The friendly end-to-end API.

use std::error::Error;
use std::fmt;

use dse_area::AreaModel;
use dse_exec::{
    CostLedger, FeatureFn, Fidelity, LearnedTier, LedgerEntry, LedgerRouter, TierGate,
    TieredEvaluator,
};
use dse_fnn::{extract_rules, Fnn, FnnBuilder, Rule, RuleExtractionConfig};
use dse_mfrl::{
    HfOutcome, HfPhaseConfig, LfOutcome, LfPhaseConfig, LowFidelity as _, MultiFidelityConfig,
    MultiFidelityDse, RewardKind,
};
use dse_space::{DesignPoint, DesignSpace, MergedParam, Param};
use dse_workloads::Benchmark;

use crate::eval::{AnalyticalLf, AreaLimit, DesignConstraints, IngestedWorkload, SimulatorHf};

/// A designer preference to embed into the rule base before training
/// (§2.3, Fig. 7): drive `target` upward whenever its merged `group`
/// value is below `threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Preference {
    /// The merged antecedent group carrying the preference.
    pub group: MergedParam,
    /// The low/enough crossover: values below are "low".
    pub threshold: f64,
    /// The design parameter the preference grows.
    pub target: Param,
    /// Consequent boost for "`group` is low → increase `target`" rules.
    pub boost: f64,
}

/// An area limit no design fits under: even the smallest design of the
/// space is larger, so a run could only return an over-limit design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBelowMinimum {
    /// The requested limit in mm².
    pub limit_mm2: f64,
    /// Area of the smallest design, the least limit any design fits under.
    pub min_mm2: f64,
}

impl fmt::Display for AreaBelowMinimum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Round the minimum up, so the printed figure is itself feasible.
        let min = (self.min_mm2 * 100.0).ceil() / 100.0;
        write!(
            f,
            "area limit {} mm2 is below the minimum feasible area of {min:.2} mm2 \
             (the smallest design); no design fits",
            self.limit_mm2
        )
    }
}

impl Error for AreaBelowMinimum {}

/// Everything a DSE run produces.
#[derive(Debug, Clone)]
pub struct ExplorationReport {
    /// The best simulated design.
    pub best_point: DesignPoint,
    /// Its simulated CPI.
    pub best_cpi: f64,
    /// Low-fidelity phase record (candidate set, convergence history).
    pub lf: LfOutcome,
    /// High-fidelity phase record (per-simulation history).
    pub hf: HfOutcome,
    /// The trained network (serializable for later inspection).
    pub fnn: Fnn,
    /// The extracted, pruned rule base (§4.3).
    pub rules: Vec<Rule>,
    /// The run's cost ledger: every LF and HF charge, replay and denial
    /// across both phases — the single source of budget truth.
    pub ledger: CostLedger,
}

/// The end-to-end explorer: configure a workload and an area budget,
/// call [`Explorer::run`].
///
/// # Examples
///
/// ```no_run
/// use archdse::Explorer;
/// use dse_workloads::Benchmark;
///
/// // Application-specific DSE at Table 2's fft operating point.
/// let report = Explorer::for_benchmark(Benchmark::Fft)
///     .area_limit_mm2(8.0)
///     .hf_budget(9)
///     .seed(1)
///     .run();
/// assert!(report.hf.evaluations <= 9);
/// ```
#[derive(Debug, Clone)]
pub struct Explorer {
    space: DesignSpace,
    benchmarks: Vec<Benchmark>,
    workload: Option<IngestedWorkload>,
    area_limit_mm2: f64,
    leakage_limit_mw: Option<f64>,
    seed: u64,
    lf_episodes: usize,
    hf_budget: usize,
    trace_len: usize,
    threads: Option<usize>,
    data_scale: f64,
    param_centers: Vec<(MergedParam, f64)>,
    preference: Option<Preference>,
    gradient_mask: bool,
    reward: RewardKind,
    tiers: usize,
    gate_threshold: f64,
}

impl Explorer {
    /// Application-specific DSE on one benchmark (Table 2 usage).
    pub fn for_benchmark(benchmark: Benchmark) -> Self {
        Self::for_benchmarks(vec![benchmark])
    }

    /// DSE optimizing the average CPI of several benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if `benchmarks` is empty.
    pub fn for_benchmarks(benchmarks: Vec<Benchmark>) -> Self {
        assert!(!benchmarks.is_empty(), "need at least one benchmark");
        Self {
            space: DesignSpace::boom(),
            benchmarks,
            workload: None,
            area_limit_mm2: 8.0,
            leakage_limit_mw: None,
            seed: 0,
            lf_episodes: 300,
            hf_budget: 9,
            trace_len: 30_000,
            threads: None,
            data_scale: 1.0,
            param_centers: Vec::new(),
            preference: None,
            gradient_mask: true,
            reward: RewardKind::IncumbentGap,
            tiers: 2,
            gate_threshold: 0.05,
        }
    }

    /// General-purpose DSE: all six benchmarks at the paper's 8 mm²
    /// constraint (§4.2).
    pub fn general_purpose() -> Self {
        Self::for_benchmarks(Benchmark::ALL.to_vec()).area_limit_mm2(8.0)
    }

    /// Application-specific DSE on a workload ingested from a real
    /// binary: the characterized profile drives the LF analytical
    /// model, the exact executed trace drives the HF simulator.
    /// `trace_len` and the HF trace seed are ignored — the trace is
    /// whatever the program did.
    pub fn for_workload(workload: IngestedWorkload) -> Self {
        // The benchmark list seeds the builder defaults; the workload
        // then overrides both fidelity backends.
        let mut explorer = Self::for_benchmarks(vec![Benchmark::Mm]);
        explorer.benchmarks = Vec::new();
        explorer.workload = Some(workload);
        explorer
    }

    /// The ingested workload this explorer optimizes, if it was built
    /// with [`Explorer::for_workload`].
    pub fn workload(&self) -> Option<&IngestedWorkload> {
        self.workload.as_ref()
    }

    /// Sets the area constraint in mm² (Table 2 uses 6–10).
    pub fn area_limit_mm2(mut self, limit: f64) -> Self {
        self.area_limit_mm2 = limit;
        self
    }

    /// Narrows one parameter's candidate range — §2.3's "adjust the
    /// design space to concentrate on the higher range" workflow, e.g.
    /// after the extracted rules show a parameter always wants to grow.
    ///
    /// # Panics
    ///
    /// Panics if the restriction removes every candidate.
    pub fn restrict_space(mut self, param: Param, min_value: f64, max_value: f64) -> Self {
        self.space = self.space.restrict(param, min_value, max_value);
        self
    }

    /// Additionally caps static (leakage) power in mW — a power-aware
    /// extension beyond the paper's area-only setting. Leakage is a
    /// pure function of the configuration, so it gates every episode
    /// step exactly like the area limit.
    pub fn leakage_limit_mw(mut self, limit: f64) -> Self {
        self.leakage_limit_mw = Some(limit);
        self
    }

    /// Sets the master seed (LF and HF rngs derive from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of LF training episodes.
    pub fn lf_episodes(mut self, episodes: usize) -> Self {
        self.lf_episodes = episodes;
        self
    }

    /// Sets the HF simulation budget (paper: 9 for our method).
    pub fn hf_budget(mut self, budget: usize) -> Self {
        self.hf_budget = budget;
        self
    }

    /// Sets the synthetic trace length per benchmark (accuracy/time
    /// trade-off of the HF proxy).
    pub fn trace_len(mut self, len: usize) -> Self {
        self.trace_len = len;
        self
    }

    /// Sets the HF evaluator's worker-thread count (1 = sequential).
    /// Defaults to the `DSE_THREADS` environment variable, else all
    /// cores; results are identical whatever the value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Scales every benchmark's data footprint (Fig. 6's enlarged
    /// dijkstra uses > 1).
    pub fn data_scale(mut self, scale: f64) -> Self {
        self.data_scale = scale;
        self
    }

    /// Overrides a membership center ("wisely initialized centers",
    /// §2.3 / Fig. 6).
    pub fn param_center(mut self, group: MergedParam, center: f64) -> Self {
        self.param_centers.push((group, center));
        self
    }

    /// Embeds a designer preference before training (Fig. 7).
    pub fn preference(mut self, preference: Preference) -> Self {
        self.preference = Some(preference);
        self
    }

    /// Enables/disables the LF gradient mask (§3.1; disabling is the
    /// ablation).
    pub fn gradient_mask(mut self, enabled: bool) -> Self {
        self.gradient_mask = enabled;
        self
    }

    /// Selects the LF episode-reward shape (eq. 3 by default; the plain
    /// IPC reward is the ablation).
    pub fn reward(mut self, reward: RewardKind) -> Self {
        self.reward = reward;
        self
    }

    /// Sets the fidelity-stack depth: 2 (the default) is the paper's
    /// LF→HF flow; 3 inserts the online-learned mid tier with
    /// uncertainty-gated routing, and the HF budget then meters learned
    /// *and* simulated answers alike (same proposals, fewer simulator
    /// charges). Values other than 2 or 3 panic.
    ///
    /// # Panics
    ///
    /// Panics unless `tiers` is 2 or 3.
    pub fn tiers(mut self, tiers: usize) -> Self {
        assert!(
            (2..=Fidelity::COUNT).contains(&tiers),
            "the stack supports 2 or {} tiers, got {tiers}",
            Fidelity::COUNT
        );
        self.tiers = tiers;
        self
    }

    /// Sets the conformal error-bound threshold of the learned tier's
    /// gate (only meaningful with [`Explorer::tiers`]\(3\)). Tighter
    /// thresholds escalate more proposals to the simulator.
    pub fn gate_threshold(mut self, threshold: f64) -> Self {
        self.gate_threshold = threshold;
        self
    }

    /// The configured stack depth (2 = plain LF→HF).
    pub fn tier_count(&self) -> usize {
        self.tiers
    }

    /// The design space being explored.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The benchmarks whose (average) CPI this explorer optimizes.
    pub fn benchmarks(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// Builds the LF proxy this explorer will train against.
    pub fn lf_model(&self) -> AnalyticalLf {
        match &self.workload {
            Some(w) => AnalyticalLf::for_profiles(
                &self.space,
                &[w.profile.clone().with_data_scale(self.data_scale)],
            ),
            None => AnalyticalLf::for_benchmarks(&self.space, &self.benchmarks, self.data_scale),
        }
    }

    /// Builds the HF evaluator this explorer will spend budget on.
    pub fn hf_evaluator(&self) -> SimulatorHf {
        let hf = match &self.workload {
            Some(w) => SimulatorHf::for_traces(vec![(*w.trace).clone()]),
            None => SimulatorHf::for_benchmarks(
                &self.benchmarks,
                self.trace_len,
                self.seed ^ 0x51,
                self.data_scale,
            ),
        };
        match self.threads {
            Some(threads) => hf.with_threads(threads),
            None => hf,
        }
    }

    /// Builds the area constraint.
    pub fn area(&self) -> AreaLimit {
        AreaLimit::new(self.area_limit_mm2)
    }

    /// Checks that the area limit admits at least one design. Call it
    /// before [`run`](Self::run): the episodes start from the smallest
    /// design, so below its area a run returns an over-limit design.
    ///
    /// # Errors
    ///
    /// [`AreaBelowMinimum`] when the limit is below the area of the
    /// space's smallest design (or not a number).
    pub fn check_area(&self) -> Result<(), AreaBelowMinimum> {
        let min_mm2 = AreaModel::new().area_mm2(&self.space, &self.space.smallest());
        if self.area_limit_mm2 >= min_mm2 {
            Ok(())
        } else {
            Err(AreaBelowMinimum { limit_mm2: self.area_limit_mm2, min_mm2 })
        }
    }

    /// Builds the full feasibility predicate (area + optional leakage
    /// budget) the episodes run under.
    pub fn constraints(&self) -> DesignConstraints {
        let c = DesignConstraints::area_only(self.area());
        match self.leakage_limit_mw {
            Some(limit) => c.with_leakage_limit(limit),
            None => c,
        }
    }

    /// Builds the (possibly preference-seeded) initial network.
    pub fn build_fnn(&self) -> Fnn {
        let mut builder = FnnBuilder::for_space(&self.space);
        for &(group, center) in &self.param_centers {
            builder = builder.param_center(group, center);
        }
        let mut fnn = builder.build();
        if let Some(p) = self.preference {
            // Input 0 is the CPI metric; merged groups follow.
            fnn.embed_preference(1 + p.group.index(), p.threshold, p.target.index(), p.boost);
        }
        fnn
    }

    /// Runs the full LF→HF flow and extracts the rule base.
    ///
    /// The LF phase never touches the simulator, so with two tiers and
    /// more than one worker thread the simulator's traces are generated
    /// on another thread while the LF phase runs, and the HF phase's first
    /// proposal waits for them. The report is the same either way.
    pub fn run(&self) -> ExplorationReport {
        let threads = self.threads.unwrap_or_else(dse_exec::default_threads);
        if self.tiers >= 3 || threads < 2 {
            let mut hf = self.hf_evaluator();
            return self.run_with_hf(&mut hf);
        }
        std::thread::scope(|scope| {
            // The flow runs on the new thread and the simulator is built
            // on this one, so its traces come from this thread's allocator
            // arena as they do when it is built first. Built on the new
            // thread, they raised a campaign's peak RSS by 60%.
            let (simulator, built) = std::sync::mpsc::sync_channel(1);
            let flow = scope.spawn(move || {
                let mut hf = Deferred::new(|| built.recv().expect("the simulator is built"));
                self.run_two_tier(&mut hf)
            });
            // The flow can end, by panicking, before it needs the simulator.
            let _ = simulator.send(self.hf_evaluator());
            flow.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    /// Builds the learned mid tier's feature map: a bias, the LF
    /// estimate and its square (so the ridge fit is an LF→HF
    /// calibration, not a from-scratch CPI model), the normalized
    /// design features, and their products with the LF estimate (the
    /// LF model's blind spots — caches, branching — scale with how
    /// busy the pipeline is, so the correction is multiplicative).
    pub fn learned_features(&self) -> FeatureFn {
        let lf = self.lf_model();
        Box::new(move |space, point| {
            let cpi = lf.cpi(space, point);
            let design = point.feature_vector(space);
            let mut x = Vec::with_capacity(3 + 2 * design.len());
            x.push(1.0);
            x.push(cpi);
            x.push(cpi * cpi);
            x.extend(design.iter().copied());
            x.extend(design.iter().map(|f| f * cpi));
            x
        })
    }

    /// The phase configuration of this explorer's LF→HF flow.
    fn flow_config(&self, tiered: bool) -> MultiFidelityConfig {
        MultiFidelityConfig {
            lf: LfPhaseConfig {
                episodes: self.lf_episodes,
                seed: self.seed,
                gradient_mask: self.gradient_mask,
                reward: self.reward,
                ..Default::default()
            },
            hf: HfPhaseConfig {
                budget: self.hf_budget,
                seed: self.seed ^ 0xA5,
                // With the learned tier in play, learned answers spend
                // the same budget as simulations: equal proposal budget,
                // fewer simulator charges.
                budget_floor: if tiered { Fidelity::Learned } else { Fidelity::High },
                ..Default::default()
            },
        }
    }

    /// The report of a finished flow whose winner simulated at `best_cpi`.
    fn report(&self, outcome: dse_mfrl::DseOutcome, fnn: Fnn, best_cpi: f64) -> ExplorationReport {
        let rules = extract_rules(&fnn, &RuleExtractionConfig::default());
        ExplorationReport {
            best_point: outcome.hf.best_point.clone(),
            best_cpi,
            lf: outcome.lf,
            hf: outcome.hf,
            fnn,
            rules,
            ledger: outcome.ledger,
        }
    }

    /// The two-tier flow against `hf`.
    fn run_two_tier(&self, hf: &mut impl LedgerRouter) -> ExplorationReport {
        let lf = self.lf_model();
        let constraints = self.constraints();
        let mut fnn = self.build_fnn();
        let dse = MultiFidelityDse::new(self.flow_config(false));
        let outcome = dse.run(&mut fnn, &self.space, &lf, hf, &constraints);
        let best_cpi = outcome.hf.best_cpi;
        self.report(outcome, fnn, best_cpi)
    }

    /// Runs the flow against a caller-supplied HF evaluator (so
    /// experiments can share its cache across methods). With three
    /// tiers, a fresh learned tier is trained within the run; use
    /// [`Explorer::run_with_hf_and_tier`] to carry one across runs.
    pub fn run_with_hf(&self, hf: &mut SimulatorHf) -> ExplorationReport {
        if self.tiers >= 3 {
            let mut learned = LearnedTier::new(self.learned_features());
            return self.run_with_hf_and_tier(hf, &mut learned);
        }
        self.run_two_tier(hf)
    }

    /// Runs the three-tier flow against a caller-owned learned tier as
    /// well as a caller-owned simulator. The tier is infrastructure
    /// like the simulator's memo: experiments that run many seeds hand
    /// the same tier to each run, so the ridge keeps training online
    /// across the whole campaign and later runs route more answers to
    /// it. Ignores [`Explorer::tiers`]\(2\) — calling this *is* opting
    /// into the stack.
    pub fn run_with_hf_and_tier(
        &self,
        hf: &mut SimulatorHf,
        learned: &mut LearnedTier,
    ) -> ExplorationReport {
        let lf = self.lf_model();
        let constraints = self.constraints();
        let mut fnn = self.build_fnn();
        let dse = MultiFidelityDse::new(self.flow_config(true));
        let outcome = {
            let mut router =
                TieredEvaluator::new(learned, hf, TierGate::enabled(self.gate_threshold));
            dse.run(&mut fnn, &self.space, &lf, &mut router, &constraints)
        };
        // Tiered routing may have tracked the winner at a learned answer;
        // re-simulate it, offline and memoized with no ledger, so the
        // reported CPI is always the simulator's.
        let best_cpi = hf.cpi(&self.space, &outcome.hf.best_point);
        self.report(outcome, fnn, best_cpi)
    }
}

/// A router built on its first proposal: the HF phase's first proposal
/// waits for it, and the LF phase before it does not.
struct Deferred<F, E> {
    build: Option<F>,
    router: Option<E>,
}

impl<F: FnOnce() -> E, E> Deferred<F, E> {
    fn new(build: F) -> Self {
        Self { build: Some(build), router: None }
    }

    fn get(&mut self) -> &mut E {
        let Self { build, router } = self;
        router.get_or_insert_with(|| build.take().expect("a router is built once")())
    }
}

impl<F: FnOnce() -> E, E: LedgerRouter> LedgerRouter for Deferred<F, E> {
    fn route_batch(
        &mut self,
        ledger: &mut CostLedger,
        space: &DesignSpace,
        points: &[DesignPoint],
    ) -> Vec<LedgerEntry> {
        self.get().route_batch(ledger, space, points)
    }

    fn route(
        &mut self,
        ledger: &mut CostLedger,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> LedgerEntry {
        self.get().route(ledger, space, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_mfrl::Constraint as _;

    fn quick(benchmark: Benchmark) -> Explorer {
        Explorer::for_benchmark(benchmark).lf_episodes(25).hf_budget(4).trace_len(2_000).seed(7)
    }

    #[test]
    fn run_produces_a_feasible_best_design() {
        let report = quick(Benchmark::StringSearch).run();
        let explorer = quick(Benchmark::StringSearch);
        assert!(explorer.area().fits(explorer.space(), &report.best_point));
        assert!(report.best_cpi > 0.0 && report.best_cpi.is_finite());
        assert!(report.hf.evaluations <= 4);
        // The outcome mirrors the ledger, the single source of truth.
        use dse_exec::Fidelity;
        assert_eq!(report.ledger.evaluations(Fidelity::High), report.hf.evaluations);
        assert_eq!(report.ledger.hf_budget(), Some(4));
        assert!(report.ledger.evaluations(Fidelity::Low) > 0, "LF ranking must be metered");
    }

    #[test]
    fn training_produces_a_nonempty_rule_base() {
        let report = quick(Benchmark::Mm).run();
        assert!(!report.rules.is_empty(), "a trained network should yield at least one rule");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(Benchmark::Quicksort).run();
        let b = quick(Benchmark::Quicksort).run();
        assert_eq!(a.best_point, b.best_point);
        assert_eq!(a.best_cpi, b.best_cpi);
    }

    #[test]
    fn restricted_space_confines_the_whole_flow() {
        // Focus the search on decode ≥ 3: every simulated design —
        // including the winner — must respect the narrowed space.
        let explorer = quick(Benchmark::FpVvadd).restrict_space(Param::DecodeWidth, 3.0, 5.0);
        let report = explorer.run();
        let space = explorer.space();
        assert!(report.best_point.value(space, Param::DecodeWidth) >= 3.0);
        for (p, _) in &report.hf.history {
            assert!(p.value(space, Param::DecodeWidth) >= 3.0);
        }
        for d in &report.lf.episode_designs {
            assert!(d.value(space, Param::DecodeWidth) >= 3.0);
        }
    }

    #[test]
    fn area_below_the_smallest_design_is_rejected() {
        let err = quick(Benchmark::Mm).area_limit_mm2(1.0).check_area().unwrap_err();
        let min = err.min_mm2;
        assert!(min > 2.0 && min < 4.0, "smallest design area {min}");
        assert_eq!(err.limit_mm2, 1.0);
        let explorer = quick(Benchmark::Mm).area_limit_mm2(min);
        assert!(explorer.area().fits(explorer.space(), &explorer.space().smallest()));
        let text = err.to_string();
        assert!(text.contains("minimum feasible area"), "{text}");
        // The printed minimum is rounded up, so it is itself feasible.
        let printed: f64 =
            text.split("area of ").nth(1).unwrap().split(' ').next().unwrap().parse().unwrap();
        assert!(quick(Benchmark::Mm).area_limit_mm2(printed).check_area().is_ok(), "{text}");
        assert!(quick(Benchmark::Mm).area_limit_mm2(min).check_area().is_ok());
        assert!(quick(Benchmark::Mm).area_limit_mm2(f64::NAN).check_area().is_err());
    }

    #[test]
    fn leakage_budget_tightens_the_feasible_set() {
        use dse_mfrl::Constraint as _;
        let space = DesignSpace::boom();
        // A tight leakage budget must exclude big designs the area limit
        // alone would admit.
        let roomy = quick(Benchmark::Fft).area_limit_mm2(12.0);
        let capped = quick(Benchmark::Fft).area_limit_mm2(12.0).leakage_limit_mw(60.0);
        let big = space.decode(space.size() - 1);
        assert!(!capped.constraints().fits(&space, &big));
        // And the search must respect it end to end.
        let report = capped.run();
        assert!(capped.constraints().fits(&space, &report.best_point));
        let unconstrained = roomy.run();
        let power = dse_area::PowerModel::new();
        let capped_leak = power.leakage_mw(&space, &report.best_point);
        assert!(capped_leak <= 60.0, "leakage {capped_leak} exceeds the budget");
        // The unconstrained run is free to (and with 12 mm² will) leak more.
        let free_leak = power.leakage_mw(&space, &unconstrained.best_point);
        assert!(free_leak > capped_leak * 0.8, "sanity: budgets actually differ");
    }

    #[test]
    fn three_tier_stack_shares_the_budget_and_reports_simulated_cpi() {
        use dse_exec::Fidelity;
        let report = quick(Benchmark::StringSearch).tiers(3).run();
        // Learned and HF charges share the one budget of 4.
        assert!(report.ledger.budgeted_evaluations() <= 4);
        assert!(report.ledger.evaluations(Fidelity::High) <= 4);
        assert_eq!(report.ledger.budget_floor(), Fidelity::Learned);
        // The headline CPI is always the simulator's, never a learned
        // estimate, and the winner is feasible.
        assert!(report.best_cpi > 0.0 && report.best_cpi.is_finite());
        let explorer = quick(Benchmark::StringSearch);
        assert!(explorer.constraints().fits(explorer.space(), &report.best_point));
        // Deterministic like every other flow.
        let again = quick(Benchmark::StringSearch).tiers(3).run();
        assert_eq!(report.best_point, again.best_point);
        assert_eq!(report.best_cpi, again.best_cpi);
    }

    #[test]
    fn preference_embedding_is_wired_through() {
        let explorer = quick(Benchmark::FpVvadd).preference(Preference {
            group: MergedParam::Decode,
            threshold: 3.5,
            target: Param::DecodeWidth,
            boost: 2.0,
        });
        let fnn = explorer.build_fnn();
        // The seeded consequents must favour decode when it is low.
        let space = explorer.space();
        let small = space.smallest();
        let obs = fnn.observation(space, &small, 1.0);
        let scores = fnn.forward(&obs).scores;
        let decode_score = scores[Param::DecodeWidth.index()];
        assert!(decode_score > 0.5, "preference should pre-bias decode, got {decode_score}");
    }
}
