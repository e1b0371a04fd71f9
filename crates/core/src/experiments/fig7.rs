//! Fig. 7: embedding a designer preference (by default decode width → 4)
//! into the rule base on fp-vvadd.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use dse_exec::{CostLedger, LedgerSummary};
use dse_fnn::FnnBuilder;
use dse_mfrl::{LfPhase, LfPhaseConfig};
use dse_space::{DesignSpace, MergedParam, Param};
use dse_workloads::Benchmark;

use crate::eval::{AnalyticalLf, AreaLimit};
use crate::Preference;

/// Configuration of the Fig. 7 reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Config {
    /// LF training episodes.
    pub episodes: usize,
    /// Area limit in mm² (fp-vvadd's Table 2 budget).
    pub area_limit_mm2: f64,
    /// Seed.
    pub seed: u64,
    /// The preference to embed.
    pub preference: Preference,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Self {
            episodes: 300,
            area_limit_mm2: 6.0,
            seed: 5,
            preference: Preference {
                group: MergedParam::Decode,
                threshold: 3.5, // 3 is "low", 4 is "enough"
                target: Param::DecodeWidth,
                boost: 2.0,
            },
        }
    }
}

impl Fig7Config {
    /// A seconds-scale configuration for smoke tests.
    pub fn quick() -> Self {
        Self { episodes: 40, ..Default::default() }
    }
}

/// One design parameter's value over the training episodes (the grey —
/// and, for decode, blue — lines of Fig. 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamTrajectory {
    /// The parameter.
    pub param: Param,
    /// Its value in each episode's terminal design.
    pub values: Vec<f64>,
}

/// The study result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Result {
    /// The preference embedded into the rule base.
    pub preference: Preference,
    /// The value the preference aims its target at: the least candidate
    /// of `preference.target` above the low/enough threshold.
    pub goal: f64,
    /// Per-parameter trajectories with the preference embedded.
    pub trajectories: Vec<ParamTrajectory>,
    /// The target parameter's value in the converged design *with* the
    /// preference.
    pub final_value: f64,
    /// The target parameter's value in the converged design *without*
    /// the preference (the paper observes fp-vvadd's decode width
    /// originally converges to 3).
    pub baseline_final_value: f64,
    /// The study's aggregated cost ledger across both training runs.
    pub ledger: LedgerSummary,
}

impl Fig7Result {
    /// Renders the outcome summary followed by every parameter's
    /// trajectory, sampled every 5th episode.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let target = self.preference.target;
        let column = format!(" converged {} ", target.name().to_lowercase());
        let _ = writeln!(s, "| setting |{column}|");
        let _ = writeln!(s, "|---------|{}:|", "-".repeat(column.len() - 1));
        let _ = writeln!(s, "| without preference | {} |", self.baseline_final_value);
        let _ = writeln!(s, "| with preference (target {}) | {} |", self.goal, self.final_value);
        let _ = writeln!(s, "\nParameter trajectories over training (every 5th episode):");
        for t in &self.trajectories {
            let marker = if t.param == target { " <-- preferred" } else { "" };
            let samples: Vec<String> = t.values.iter().step_by(5).map(|v| format!("{v}")).collect();
            let _ = writeln!(s, "  {:<18} {}{marker}", t.param.name(), samples.join(" "));
        }
        s
    }
}

/// Runs the Fig. 7 experiment: train on fp-vvadd twice — once plain,
/// once with the configured preference embedded — and record every
/// parameter's trajectory under the preference.
pub fn fig7(config: &Fig7Config) -> Fig7Result {
    let space = DesignSpace::boom();
    let lf = AnalyticalLf::for_benchmark(&space, Benchmark::FpVvadd, 1.0);
    let area = AreaLimit::new(config.area_limit_mm2);
    let phase_cfg =
        LfPhaseConfig { episodes: config.episodes, seed: config.seed, ..Default::default() };

    // Baseline: no preference.
    let mut plain = FnnBuilder::for_space(&space).build();
    let mut baseline_ledger = CostLedger::new();
    let baseline =
        LfPhase::new(phase_cfg).run(&mut plain, &space, &lf, &area, &mut baseline_ledger);
    let p = config.preference;
    let baseline_final_value = baseline.converged.value(&space, p.target);

    // With the preference embedded into the rule base.
    let mut fnn = FnnBuilder::for_space(&space).build();
    fnn.embed_preference(1 + p.group.index(), p.threshold, p.target.index(), p.boost);
    let mut ledger = CostLedger::new();
    let outcome = LfPhase::new(phase_cfg).run(&mut fnn, &space, &lf, &area, &mut ledger);
    let final_value = outcome.converged.value(&space, p.target);
    let mut total = baseline_ledger.summary();
    total.absorb(ledger.summary());

    let trajectories = Param::ALL
        .iter()
        .map(|&param| ParamTrajectory {
            param,
            values: outcome.episode_designs.iter().map(|d| d.value(&space, param)).collect(),
        })
        .collect();

    let candidates = space.candidates(p.target);
    let goal = candidates.iter().copied().find(|&v| v > p.threshold);
    Fig7Result {
        preference: p,
        goal: goal.unwrap_or(candidates[candidates.len() - 1]),
        trajectories,
        final_value,
        baseline_final_value,
        ledger: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig7_preference_lifts_decode() {
        let result = fig7(&Fig7Config::quick());
        assert_eq!(result.trajectories.len(), Param::COUNT);
        for t in &result.trajectories {
            assert_eq!(t.values.len(), 40);
        }
        assert!(result.to_markdown().contains("Parameter trajectories"));
        // The headline claim: the embedded preference drives decode at
        // least as high as the plain run, reaching the target of 4.
        assert!(
            result.final_value >= result.baseline_final_value,
            "preference must not lower decode: {} vs {}",
            result.final_value,
            result.baseline_final_value
        );
        assert!(
            result.final_value >= 4.0,
            "decode should reach the preferred width, got {}",
            result.final_value
        );
    }

    #[test]
    fn quick_fig7_labels_follow_the_configured_preference() {
        let preference = Preference {
            group: MergedParam::Rob,
            threshold: 100.0,
            target: Param::RobEntry,
            boost: 2.0,
        };
        let config = Fig7Config { episodes: 10, preference, ..Fig7Config::default() };
        let text = fig7(&config).to_markdown();
        assert!(text.starts_with("| setting | converged rob entry |\n"), "{text}");
        assert!(text.contains("| with preference (target 128) |"), "{text}");
        let preferred: Vec<&str> = text.lines().filter(|l| l.ends_with("<-- preferred")).collect();
        assert_eq!(preferred.len(), 1, "{text}");
        assert!(preferred[0].trim_start().starts_with("ROB Entry"), "{text}");
    }
}
