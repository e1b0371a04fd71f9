//! Per-decision explanations: *why* the network recommended growing a
//! particular parameter at a particular state.
//!
//! Rule extraction (§4.3) summarizes the whole trained rule base; this
//! module answers the complementary, local question a designer asks
//! while watching a search: "the FNN just chose to grow the issue queue
//! — which rules fired, and how strongly?". Because the output layer is
//! a linear combination of normalized firing strengths and crisp
//! consequents, every score decomposes *exactly* into per-rule
//! contributions — no post-hoc approximation involved.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Fnn, ForwardPass, Observation};

/// One rule's share of a decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleContribution {
    /// Rule index in the network.
    pub rule: usize,
    /// The rule rendered as IF-antecedents text (no consequent part).
    pub antecedent_text: String,
    /// Normalized firing strength of the rule at the observation.
    pub firing: f64,
    /// The rule's crisp consequent for the chosen output.
    pub consequent: f64,
    /// `firing × consequent` — the additive share of the output score.
    pub contribution: f64,
}

/// A fully decomposed decision: which output won and which rules put it
/// there.
///
/// # Examples
///
/// ```
/// use dse_fnn::{FnnBuilder, explain_decision};
/// use dse_space::DesignSpace;
///
/// let space = DesignSpace::boom();
/// let fnn = FnnBuilder::for_space(&space).build();
/// let obs = fnn.observation(&space, &space.smallest(), 1.2);
/// let explanation = explain_decision(&fnn, &obs, 0, 3);
/// assert_eq!(explanation.output_name, "l1set");
/// // Contributions always reassemble the exact score.
/// let total: f64 = explanation.contributions.iter().map(|c| c.contribution).sum();
/// assert!((total - explanation.score).abs() < 1e-9 + explanation.residual.abs());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionExplanation {
    /// Index of the explained output (design parameter).
    pub output: usize,
    /// Its display name.
    pub output_name: String,
    /// The exact score the network produced.
    pub score: f64,
    /// The top contributing rules, largest absolute contribution first.
    pub contributions: Vec<RuleContribution>,
    /// Score mass carried by rules outside the reported top-k.
    pub residual: f64,
}

impl DecisionExplanation {
    /// Compact single-line rendering for structured logs and trace
    /// events: `output<-rule3:+0.4210,rule7:-0.093`. Rule order follows
    /// [`contributions`](Self::contributions) (largest magnitude first),
    /// so the string is deterministic for a given network and
    /// observation.
    pub fn compact(&self) -> String {
        let rules: Vec<String> = self
            .contributions
            .iter()
            .map(|c| format!("rule{}:{:+.4}", c.rule, c.contribution))
            .collect();
        format!("{}<-{}", self.output_name, rules.join(","))
    }
}

impl fmt::Display for DecisionExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "score[{}] = {:+.4}, decomposed:", self.output_name, self.score)?;
        for c in &self.contributions {
            writeln!(
                f,
                "  {:+.4} = fire {:.3} x weight {:+.3}  ({})",
                c.contribution, c.firing, c.consequent, c.antecedent_text
            )?;
        }
        write!(f, "  {:+.4} from all other rules", self.residual)
    }
}

/// Decomposes `output`'s score at `obs` into its top-`k` rule
/// contributions.
///
/// # Panics
///
/// Panics if `output` is out of range or the observation length does
/// not match the network.
pub fn explain_decision(
    fnn: &Fnn,
    obs: &Observation,
    output: usize,
    k: usize,
) -> DecisionExplanation {
    assert!(output < fnn.output_count(), "output index out of range");
    explain_pass(fnn, &fnn.forward(obs), output, k)
}

/// Explains the *winning* output at an observation: the parameter the
/// greedy policy would grow, with its top-`k` rules.
pub fn explain_top_action(fnn: &Fnn, obs: &Observation, k: usize) -> DecisionExplanation {
    let pass = fnn.forward(obs);
    let best = pass
        .scores
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
        .expect("network has outputs");
    explain_pass(fnn, &pass, best, k)
}

/// [`explain_decision`] on a pass already run. Only the reported top-`k`
/// rules have their antecedent text rendered.
fn explain_pass(fnn: &Fnn, pass: &ForwardPass, output: usize, k: usize) -> DecisionExplanation {
    let outputs = fnn.output_count();
    let mut contributions: Vec<RuleContribution> = pass
        .normalized_strengths()
        .iter()
        .enumerate()
        .map(|(r, &firing)| {
            let consequent = fnn.consequents()[r * outputs + output];
            RuleContribution {
                rule: r,
                antecedent_text: String::new(),
                firing,
                consequent,
                contribution: firing * consequent,
            }
        })
        .collect();
    contributions.sort_by(|a, b| b.contribution.abs().total_cmp(&a.contribution.abs()));
    let residual: f64 = contributions.iter().skip(k).map(|c| c.contribution).sum();
    contributions.truncate(k);
    for c in &mut contributions {
        c.antecedent_text = antecedent_text(fnn, c.rule);
    }
    DecisionExplanation {
        output,
        output_name: fnn.output_names()[output].clone(),
        score: pass.scores[output],
        contributions,
        residual,
    }
}

/// Renders rule `r`'s antecedent as text ("CPI is high AND L1 is low …").
fn antecedent_text(fnn: &Fnn, r: usize) -> String {
    fnn.rule_labels()[r]
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            let spec = &fnn.inputs()[i];
            format!("{} is {}", spec.name, spec.label(l))
        })
        .collect::<Vec<_>>()
        .join(" AND ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnnBuilder;
    use dse_space::DesignSpace;

    fn trained_net() -> (DesignSpace, Fnn) {
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        // Seed a distinctive preference so decisions are non-trivial.
        fnn.embed_preference(3, 3.5, 5, 1.5); // decode input → decode output
        (space, fnn)
    }

    #[test]
    fn contributions_reassemble_the_score_exactly() {
        let (space, fnn) = trained_net();
        let obs = fnn.observation(&space, &space.smallest(), 1.8);
        let e = explain_decision(&fnn, &obs, 5, 8);
        let total: f64 = e.contributions.iter().map(|c| c.contribution).sum::<f64>() + e.residual;
        assert!((total - e.score).abs() < 1e-9, "decomposition must be exact");
    }

    #[test]
    fn top_action_matches_argmax() {
        let (space, fnn) = trained_net();
        let obs = fnn.observation(&space, &space.smallest(), 1.8);
        let pass = fnn.forward(&obs);
        let argmax =
            pass.scores.iter().enumerate().max_by(|(_, a), (_, b)| a.total_cmp(b)).unwrap().0;
        let e = explain_top_action(&fnn, &obs, 3);
        assert_eq!(e.output, argmax);
        assert_eq!(e.output, 5, "the embedded preference should win at a small design");
    }

    #[test]
    fn contributions_are_sorted_by_magnitude() {
        let (space, fnn) = trained_net();
        let obs = fnn.observation(&space, &space.smallest(), 1.0);
        let e = explain_decision(&fnn, &obs, 5, 10);
        for w in e.contributions.windows(2) {
            assert!(w[0].contribution.abs() >= w[1].contribution.abs());
        }
    }

    #[test]
    fn antecedent_text_names_every_input() {
        let (space, fnn) = trained_net();
        let obs = fnn.observation(&space, &space.smallest(), 1.0);
        let e = explain_decision(&fnn, &obs, 5, 1);
        let text = &e.contributions[0].antecedent_text;
        for name in ["CPI", "L1", "L2", "decode", "ROB", "FU", "IQ"] {
            assert!(text.contains(name), "{text} missing {name}");
        }
    }

    #[test]
    fn compact_rendering_is_deterministic_and_ordered() {
        let (space, fnn) = trained_net();
        let obs = fnn.observation(&space, &space.smallest(), 1.8);
        let a = explain_top_action(&fnn, &obs, 2).compact();
        let b = explain_top_action(&fnn, &obs, 2).compact();
        assert_eq!(a, b);
        assert!(a.starts_with("decode<-rule"), "unexpected rendering: {a}");
        assert_eq!(a.matches("rule").count(), 2);
    }

    #[test]
    fn display_renders_without_panicking() {
        let (space, fnn) = trained_net();
        let obs = fnn.observation(&space, &space.smallest(), 1.0);
        let e = explain_top_action(&fnn, &obs, 2);
        let s = e.to_string();
        assert!(s.contains("score["));
    }

    #[test]
    #[should_panic(expected = "output index out of range")]
    fn out_of_range_output_panics() {
        let (space, fnn) = trained_net();
        let obs = fnn.observation(&space, &space.smallest(), 1.0);
        let _ = explain_decision(&fnn, &obs, 99, 3);
    }
}
