//! Fig. 5: general-purpose DSE versus the baseline optimizers.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use dse_baselines::{
    ActBoostOptimizer, BagGbrtOptimizer, BoomExplorerOptimizer, Optimizer, RandomForestOptimizer,
    RandomSearchOptimizer, ScboOptimizer,
};
use dse_exec::{LearnedTier, LedgerSummary};
use dse_workloads::Benchmark;

use crate::eval::{AreaLimit, SimulatorHf};
use crate::Explorer;

/// Configuration of the Fig. 5 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Config {
    /// Seeds (the paper runs 5 and reports the mean).
    pub seeds: Vec<u64>,
    /// HF budget for the baselines (paper: 10).
    pub baseline_budget: usize,
    /// HF budget for our method (paper: 9, equalizing wall-clock since
    /// the LF training costs about one HF simulation).
    pub our_budget: usize,
    /// LF training episodes for our method.
    pub lf_episodes: usize,
    /// Synthetic trace length.
    pub trace_len: usize,
    /// The shared area constraint (paper: 8 mm²).
    pub area_limit_mm2: f64,
    /// Relative conformal-error thresholds swept by the 3-tier
    /// ablation, one gated arm per value (see
    /// [`TierGate`](dse_exec::TierGate)). 0.05 is the conservative
    /// operating point; looser gates trade CPI fidelity for fewer
    /// simulations.
    pub gate_thresholds: Vec<f64>,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Self {
            seeds: vec![1, 2, 3, 4, 5],
            baseline_budget: 10,
            our_budget: 9,
            lf_episodes: 300,
            trace_len: 30_000,
            area_limit_mm2: 8.0,
            gate_thresholds: vec![0.05, 0.10],
        }
    }
}

impl Fig5Config {
    /// A seconds-scale configuration for smoke tests.
    pub fn quick() -> Self {
        Self {
            seeds: vec![1, 2],
            baseline_budget: 5,
            our_budget: 4,
            lf_episodes: 25,
            trace_len: 2_000,
            area_limit_mm2: 8.0,
            gate_thresholds: vec![0.05, 0.10],
        }
    }
}

/// One method's aggregated outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Method name.
    pub method: String,
    /// Mean best CPI over the seeds (the paper's reported number).
    pub mean_best_cpi: f64,
    /// Sample standard deviation over the seeds.
    pub std_dev: f64,
    /// Best CPI per seed.
    pub per_seed: Vec<f64>,
    /// HF evaluations the method was charged, summed over the seeds
    /// (every method's charges flow through the same ledger layer, so
    /// these are directly comparable).
    pub hf_evaluations: u64,
    /// The method's aggregated cost ledger over the seeds.
    pub ledger: LedgerSummary,
}

/// The 3-tier-stack ablation: the same flow at the same proposal budget
/// and seeds, two-fidelity versus the gated learned mid tier at each
/// swept gate threshold, every arm on its own fresh simulator so HF
/// model-time is honestly comparable (no memo warmth leaking between
/// arms).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TierAblation {
    /// The plain LF→HF arm.
    pub two_tier: Fig5Row,
    /// The gated 3-tier arms, `(gate_threshold, outcome)`, in the
    /// configured (tightest-first) order.
    pub three_tier: Vec<(f64, Fig5Row)>,
}

impl TierAblation {
    /// Mean-best-CPI gap of a 3-tier arm versus two-fidelity, in
    /// percent (positive = the 3-tier arm found a worse design).
    pub fn cpi_gap_pct(&self, arm: &Fig5Row) -> f64 {
        (arm.mean_best_cpi - self.two_tier.mean_best_cpi) / self.two_tier.mean_best_cpi * 100.0
    }

    /// HF model-time a 3-tier arm saved versus two-fidelity, in
    /// percent of the two-fidelity arm's spend.
    pub fn hf_time_reduction_pct(&self, arm: &Fig5Row) -> f64 {
        let two = self.two_tier.ledger.high.model_time_units;
        if two == 0.0 {
            return 0.0;
        }
        (1.0 - arm.ledger.high.model_time_units / two) * 100.0
    }

    /// Renders the ablation summary appended to the Fig. 5 table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "3-tier ablation (equal proposal budget, fresh simulators per arm):");
        let _ =
            writeln!(s, "| arm | mean best CPI | ΔCPI | HF units | HF saved | learned answers |");
        let _ =
            writeln!(s, "|-----|--------------:|-----:|---------:|---------:|----------------:|");
        let _ = writeln!(
            s,
            "| 2-tier | {:.4} | — | {:.0} | — | — |",
            self.two_tier.mean_best_cpi, self.two_tier.ledger.high.model_time_units,
        );
        for (threshold, arm) in &self.three_tier {
            let _ = writeln!(
                s,
                "| 3-tier, gate {threshold} | {:.4} | {:+.2}% | {:.0} | {:.1}% | {} |",
                arm.mean_best_cpi,
                self.cpi_gap_pct(arm),
                arm.ledger.high.model_time_units,
                self.hf_time_reduction_pct(arm),
                arm.ledger.learned.evaluations,
            );
        }
        s
    }
}

/// All methods' outcomes, sorted best-first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Result {
    /// One row per method.
    pub rows: Vec<Fig5Row>,
    /// The whole experiment's cost ledger (all methods, all seeds).
    pub ledger: LedgerSummary,
    /// The 3-tier-stack ablation (its arms are not comparison rows: they
    /// run on fresh simulators, outside the shared memo).
    pub ablation: TierAblation,
}

impl Fig5Result {
    /// Renders the comparison as a markdown table with per-tier spend
    /// columns, including each baseline's exact one-sided paired
    /// sign-flip p-value against our method (small p ⇒ our win is
    /// unlikely to be seed luck), followed by the tier-stack ablation
    /// summary.
    pub fn to_markdown(&self) -> String {
        let ours = self.row("FNN-MFRL (ours)");
        let mut s = String::new();
        let _ = writeln!(
            s,
            "| method | mean best CPI | std dev | LF evals | learned evals | HF evals | \
             p(ours ≥ method) |"
        );
        let _ = writeln!(
            s,
            "|--------|--------------:|--------:|---------:|--------------:|---------:|\
             ------------------:|"
        );
        for r in &self.rows {
            let p = match ours {
                Some(o) if o.method != r.method && o.per_seed.len() == r.per_seed.len() => {
                    format!("{:.3}", crate::stats::paired_sign_flip_p(&o.per_seed, &r.per_seed))
                }
                _ => "—".to_string(),
            };
            let _ = writeln!(
                s,
                "| {} | {:.4} | {:.4} | {} | {} | {} | {} |",
                r.method,
                r.mean_best_cpi,
                r.std_dev,
                r.ledger.low.evaluations,
                r.ledger.learned.evaluations,
                r.hf_evaluations,
                p
            );
        }
        let _ = writeln!(s);
        s.push_str(&self.ablation.render());
        s
    }

    /// The row for a method, if present.
    pub fn row(&self, method: &str) -> Option<&Fig5Row> {
        self.rows.iter().find(|r| r.method == method)
    }
}

/// Runs the Fig. 5 experiment: six-benchmark average CPI under an 8 mm²
/// limit, our method against the five baselines (plus random search),
/// each repeated over the configured seeds.
///
/// All methods share one memoizing simulator, so identical designs are
/// simulated once — results are unaffected (the simulator is
/// deterministic) and the experiment runs much faster.
pub fn fig5(config: &Fig5Config) -> Fig5Result {
    let space = dse_space::DesignSpace::boom();
    let mut rows = Vec::new();

    // Baselines first, on the same simulator and area limit.
    let mut hf = SimulatorHf::for_benchmarks(&Benchmark::ALL, config.trace_len, 0x51, 1.0);
    let area = AreaLimit::new(config.area_limit_mm2);
    let mut baselines: Vec<Box<dyn Optimizer>> = vec![
        Box::new(BoomExplorerOptimizer),
        Box::new(BagGbrtOptimizer),
        Box::new(ActBoostOptimizer),
        Box::new(ScboOptimizer::default()),
        Box::new(RandomForestOptimizer),
        Box::new(RandomSearchOptimizer),
    ];
    for opt in &mut baselines {
        let mut per_seed = Vec::new();
        let mut ledger = LedgerSummary::default();
        for &seed in &config.seeds {
            let result = opt.optimize(&space, &mut hf, &area, config.baseline_budget, seed);
            per_seed.push(result.best_value);
            ledger.absorb(result.ledger);
        }
        rows.push(Fig5Row {
            method: opt.name().to_string(),
            mean_best_cpi: mean(&per_seed),
            std_dev: crate::stats::std_dev(&per_seed),
            per_seed,
            hf_evaluations: ledger.high.evaluations,
            ledger,
        });
    }

    // Our method, reusing the now-warm memoized simulator.
    let run_ours = |method: &str,
                    tiers: usize,
                    gate_threshold: f64,
                    hf: &mut SimulatorHf,
                    mut learned: Option<&mut LearnedTier>|
     -> Fig5Row {
        let mut per_seed = Vec::new();
        let mut ledger = LedgerSummary::default();
        for &seed in &config.seeds {
            let explorer = Explorer::general_purpose()
                .area_limit_mm2(config.area_limit_mm2)
                .lf_episodes(config.lf_episodes)
                .hf_budget(config.our_budget)
                .trace_len(config.trace_len)
                .tiers(tiers)
                .gate_threshold(gate_threshold)
                .seed(seed);
            let report = match learned.as_deref_mut() {
                // The caller-owned tier keeps training across seeds, so
                // later seeds route more answers to it.
                Some(tier) => explorer.run_with_hf_and_tier(hf, tier),
                None => explorer.run_with_hf(hf),
            };
            per_seed.push(report.best_cpi);
            ledger.absorb(report.ledger.summary());
        }
        Fig5Row {
            method: method.to_string(),
            mean_best_cpi: mean(&per_seed),
            std_dev: crate::stats::std_dev(&per_seed),
            per_seed,
            hf_evaluations: ledger.high.evaluations,
            ledger,
        }
    };
    rows.push(run_ours("FNN-MFRL (ours)", 2, 0.0, &mut hf, None));

    // The tier-stack ablation runs each arm on its own *fresh* simulator
    // (seed-identical to the shared one), so each arm's HF model-time is
    // what that arm alone would have paid. Each 3-tier arm owns one
    // learned tier for the whole campaign — online training across
    // seeds is the point of the mid tier.
    let fresh = || SimulatorHf::for_benchmarks(&Benchmark::ALL, config.trace_len, 0x51, 1.0);
    let ablation = TierAblation {
        two_tier: run_ours("FNN-MFRL (2-tier)", 2, 0.0, &mut fresh(), None),
        three_tier: config
            .gate_thresholds
            .iter()
            .map(|&threshold| {
                let mut tier = LearnedTier::new(Explorer::general_purpose().learned_features());
                let row = run_ours(
                    &format!("FNN-MFRL (3-tier, gate {threshold})"),
                    3,
                    threshold,
                    &mut fresh(),
                    Some(&mut tier),
                );
                (threshold, row)
            })
            .collect(),
    };

    rows.sort_by(|a, b| a.mean_best_cpi.total_cmp(&b.mean_best_cpi));
    let mut total = LedgerSummary::default();
    for row in &rows {
        total.absorb(row.ledger);
    }
    Fig5Result { rows, ledger: total, ablation }
}

use crate::stats::mean;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig5_covers_all_methods() {
        let config = Fig5Config::quick();
        let result = fig5(&config);
        assert_eq!(result.rows.len(), 7);
        for r in &result.rows {
            assert_eq!(r.per_seed.len(), 2, "{}", r.method);
            assert!(r.mean_best_cpi > 0.0 && r.mean_best_cpi.is_finite());
        }
        assert!(result.row("FNN-MFRL (ours)").is_some());
        assert!(result.row("BOOM-Explorer").is_some());
        // Sorted best-first.
        for w in result.rows.windows(2) {
            assert!(w[0].mean_best_cpi <= w[1].mean_best_cpi);
        }
        // Every method's HF charges are budget-exact per seed (our
        // method may underspend if its episode valve trips first): the
        // whole point of funnelling them through one ledger layer.
        let seeds = config.seeds.len() as u64;
        for r in &result.rows {
            if r.method.contains("ours") {
                assert!(r.hf_evaluations <= seeds * config.our_budget as u64, "{}", r.method);
                assert!(r.hf_evaluations > 0, "{}", r.method);
                assert_eq!(r.ledger.hf_budget, Some(seeds * config.our_budget as u64));
            } else {
                assert_eq!(r.hf_evaluations, seeds * config.baseline_budget as u64, "{}", r.method);
                assert_eq!(r.ledger.hf_budget, Some(seeds * config.baseline_budget as u64));
            }
        }
        let total: u64 = result.rows.iter().map(|r| r.hf_evaluations).sum();
        assert_eq!(result.ledger.high.evaluations, total);

        // The ablation arms: the fresh-simulator 2-tier arm must exactly
        // reproduce the warm-memo "ours" row (memo sharing cannot change
        // results), and the 3-tier arm's learned + HF charges share the
        // same proposal budget.
        let ours = result.row("FNN-MFRL (ours)").unwrap();
        let ab = &result.ablation;
        assert_eq!(ab.two_tier.per_seed, ours.per_seed, "fresh sim must reproduce ours");
        let budget = seeds * config.our_budget as u64;
        assert_eq!(ab.three_tier.len(), config.gate_thresholds.len());
        for (threshold, arm) in &ab.three_tier {
            assert!(
                arm.hf_evaluations + arm.ledger.learned.evaluations <= budget,
                "gate {threshold}: learned + HF charges exceed the shared budget"
            );
        }
        assert!(result.to_markdown().contains("3-tier ablation"));
    }
}
