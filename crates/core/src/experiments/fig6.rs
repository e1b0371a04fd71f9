//! Fig. 6: convergence under different membership-center
//! initializations (enlarged dijkstra).

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use dse_exec::{CostLedger, LedgerSummary};
use dse_fnn::FnnBuilder;
use dse_mfrl::{LfPhase, LfPhaseConfig};
use dse_space::{DesignSpace, MergedParam};
use dse_workloads::Benchmark;

use crate::eval::{AnalyticalLf, AreaLimit};

/// Configuration of the Fig. 6 reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Config {
    /// LF training episodes per initialization.
    pub episodes: usize,
    /// Data-size scale for dijkstra (the paper "largely increases" it).
    pub data_scale: f64,
    /// Area limit in mm².
    pub area_limit_mm2: f64,
    /// Base seed shared by all initializations (isolating the init
    /// effect); curves are averaged over `seeds` consecutive seeds to
    /// smooth REINFORCE variance.
    pub seed: u64,
    /// Number of seeds to average each curve over.
    pub seeds: usize,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Self { episodes: 300, data_scale: 8.0, area_limit_mm2: 10.0, seed: 3, seeds: 5 }
    }
}

impl Fig6Config {
    /// A seconds-scale configuration for smoke tests.
    pub fn quick() -> Self {
        Self { episodes: 40, seeds: 2, ..Default::default() }
    }
}

/// One initialization's convergence curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Curve {
    /// Label, e.g. `"high L1/L2 centers"`.
    pub label: String,
    /// The L1-size membership center used.
    pub l1_center_kib: f64,
    /// The L2-size membership center used.
    pub l2_center_kib: f64,
    /// LF CPI of the greedy policy's design after each episode (the
    /// convergence curve plotted in Fig. 6).
    pub history: Vec<f64>,
}

impl Fig6Curve {
    /// First episode from which the policy *stays* within `tolerance`
    /// of its final quality — the convergence point of the curve.
    pub fn episodes_to_converge(&self, tolerance: f64) -> usize {
        let last = *self.history.last().expect("non-empty history");
        let bound = last + tolerance;
        // Walk backwards over the suffix that satisfies the bound.
        let mut idx = self.history.len() - 1;
        while idx > 0 && self.history[idx - 1] <= bound {
            idx -= 1;
        }
        idx
    }
}

/// All curves of the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Result {
    /// One curve per initialization.
    pub curves: Vec<Fig6Curve>,
    /// The study's aggregated cost ledger (LF-only by construction).
    pub ledger: LedgerSummary,
}

impl Fig6Result {
    /// Renders the study as a markdown table followed by every curve,
    /// sampled every 5th episode.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "| initialization | L1 center | L2 center | final best CPI | episodes to within 1% |"
        );
        let _ = writeln!(
            s,
            "|----------------|----------:|----------:|---------------:|----------------------:|"
        );
        for c in &self.curves {
            let last = c.history.last().copied().unwrap_or(f64::NAN);
            let _ = writeln!(
                s,
                "| {} | {:.0} KiB | {:.0} KiB | {:.4} | {} |",
                c.label,
                c.l1_center_kib,
                c.l2_center_kib,
                last,
                c.episodes_to_converge(last * 0.01)
            );
        }
        let _ = writeln!(s, "\nConvergence curves (greedy-policy LF CPI, every 5th episode):");
        for c in &self.curves {
            let samples: Vec<String> =
                c.history.iter().step_by(5).map(|v| format!("{v:.3}")).collect();
            let _ = writeln!(s, "  {:<22} {}", c.label, samples.join(" "));
        }
        s
    }
}

/// Runs the Fig. 6 experiment: LF training on enlarged dijkstra with the
/// L1/L2 membership centers initialized low, at the default, and high.
/// Higher centers should converge faster; all settings should converge
/// (the robustness claim).
pub fn fig6(config: &Fig6Config) -> Fig6Result {
    let space = DesignSpace::boom();
    let lf = AnalyticalLf::for_benchmark(&space, Benchmark::Dijkstra, config.data_scale);
    let area = AreaLimit::new(config.area_limit_mm2);
    let (l1_lo, l1_hi) = MergedParam::L1Size.range(&space);
    let (l2_lo, l2_hi) = MergedParam::L2Size.range(&space);
    let default_l1 = (l1_lo * l1_hi).sqrt();
    let default_l2 = (l2_lo * l2_hi).sqrt();

    let settings: [(&str, f64, f64); 3] = [
        // "low": at the bottom of the range, so even tiny caches read as
        // "enough" — the misleading initialization for a big-data
        // workload.
        ("low L1/L2 centers", l1_lo, l2_lo),
        ("default centers", default_l1, default_l2),
        // "high": only genuinely large caches read as "enough" — the
        // §2.3 "wisely initialized" setting for enlarged dijkstra.
        ("high L1/L2 centers", l1_hi * 0.5, l2_hi * 0.25),
    ];

    let mut total = LedgerSummary::default();
    let curves = settings
        .iter()
        .map(|&(label, l1, l2)| {
            let mut mean_history = vec![0.0; config.episodes];
            for s in 0..config.seeds.max(1) {
                let mut fnn = FnnBuilder::for_space(&space)
                    .param_center(MergedParam::L1Size, l1)
                    .param_center(MergedParam::L2Size, l2)
                    .build();
                let mut ledger = CostLedger::new();
                let outcome = LfPhase::new(LfPhaseConfig {
                    episodes: config.episodes,
                    seed: config.seed + s as u64,
                    ..Default::default()
                })
                .run(&mut fnn, &space, &lf, &area, &mut ledger);
                total.absorb(ledger.summary());
                for (m, v) in mean_history.iter_mut().zip(&outcome.policy_cpi_history) {
                    *m += v / config.seeds.max(1) as f64;
                }
            }
            Fig6Curve {
                label: label.to_string(),
                l1_center_kib: l1,
                l2_center_kib: l2,
                history: mean_history,
            }
        })
        .collect();
    Fig6Result { curves, ledger: total }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig6_all_settings_converge() {
        let result = fig6(&Fig6Config::quick());
        assert_eq!(result.curves.len(), 3);
        for c in &result.curves {
            // The greedy policy improves over training: the final
            // quarter of the curve must beat the first quarter on
            // average (the robustness claim: every setting converges).
            let q = c.history.len() / 4;
            let head: f64 = c.history[..q].iter().sum::<f64>() / q as f64;
            let tail: f64 = c.history[c.history.len() - q..].iter().sum::<f64>() / q as f64;
            assert!(
                tail <= head + 1e-9,
                "{}: policy regressed (head {head}, tail {tail})",
                c.label
            );
        }
        assert!(result.to_markdown().contains("Convergence curves"));
        // LF-only study: every charge lands on the LF side.
        assert!(result.ledger.low.evaluations > 0);
        assert_eq!(result.ledger.high.evaluations, 0);
    }
}
