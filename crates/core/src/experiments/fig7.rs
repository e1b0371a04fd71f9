//! Fig. 7: embedding a designer preference (decode width → 4) into the
//! rule base on fp-vvadd.

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
    /// Per-parameter trajectories with the preference embedded.
    pub trajectories: Vec<ParamTrajectory>,
    /// Decode width of the converged design *with* the preference.
    pub final_decode: f64,
    /// Decode width of the converged design *without* the preference
    /// (the paper observes fp-vvadd originally converges to 3).
    pub baseline_final_decode: f64,
    /// The study's aggregated cost ledger across both training runs.
    pub ledger: LedgerSummary,
}

impl Fig7Result {
    /// Renders the outcome summary followed by every parameter's
    /// trajectory, sampled every 5th episode.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "| setting | converged decode width |");
        let _ = writeln!(s, "|---------|-----------------------:|");
        let _ = writeln!(s, "| without preference | {} |", self.baseline_final_decode);
        let _ = writeln!(s, "| with preference (target 4) | {} |", self.final_decode);
        let _ = writeln!(s, "\nParameter trajectories over training (every 5th episode):");
        for t in &self.trajectories {
            let marker = if t.param == Param::DecodeWidth { " <-- preferred" } else { "" };
            let samples: Vec<String> = t.values.iter().step_by(5).map(|v| format!("{v}")).collect();
            let _ = writeln!(s, "  {:<18} {}{marker}", t.param.name(), samples.join(" "));
        }
        s
    }
}

/// Runs the Fig. 7 experiment: train on fp-vvadd twice — once plain,
/// once with the decode-width preference embedded — and record every
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
    let baseline_final_decode = baseline.converged.value(&space, Param::DecodeWidth);

    // With the preference embedded into the rule base.
    let mut fnn = FnnBuilder::for_space(&space).build();
    let p = config.preference;
    fnn.embed_preference(1 + p.group.index(), p.threshold, p.target.index(), p.boost);
    let mut ledger = CostLedger::new();
    let outcome = LfPhase::new(phase_cfg).run(&mut fnn, &space, &lf, &area, &mut ledger);
    let final_decode = outcome.converged.value(&space, Param::DecodeWidth);
    let mut total = baseline_ledger.summary();
    total.absorb(ledger.summary());

    let trajectories = Param::ALL
        .iter()
        .map(|&param| ParamTrajectory {
            param,
            values: outcome.episode_designs.iter().map(|d| d.value(&space, param)).collect(),
        })
        .collect();

    Fig7Result { trajectories, final_decode, baseline_final_decode, ledger: total }
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
            result.final_decode >= result.baseline_final_decode,
            "preference must not lower decode: {} vs {}",
            result.final_decode,
            result.baseline_final_decode
        );
        assert!(
            result.final_decode >= 4.0,
            "decode should reach the preferred width, got {}",
            result.final_decode
        );
    }
}
