//! Translation of a trained network into human-readable fuzzy rules.
//!
//! Implements the §4.3 script: *"we first map the matrix entries to the
//! fuzzy values of the rules, then we prune the redundant parts of the
//! rules"*. Pruning applies the paper's two criteria:
//!
//! 1. a consequent column whose 1-norm is ≈ 0 is redundant (that design
//!    parameter never learned to move);
//! 2. an antecedent item `X` is redundant when every polarity of `X`
//!    ("X is low", "X is enough", …) claims the same consequent — the
//!    rule does not actually depend on `X`.

use std::collections::BTreeMap;
use std::fmt;

use crate::Fnn;

/// Thresholds controlling rule extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleExtractionConfig {
    /// A rule fires into the report when its consequent entry exceeds
    /// this fraction of the column's maximum positive entry.
    pub strength_fraction: f64,
    /// Columns with a 1-norm below this are dropped as redundant.
    pub column_norm_threshold: f64,
}

impl Default for RuleExtractionConfig {
    fn default() -> Self {
        Self { strength_fraction: 0.5, column_norm_threshold: 1e-3 }
    }
}

/// One extracted IF/THEN rule.
///
/// # Examples
///
/// ```
/// use dse_fnn::Rule;
///
/// let rule = Rule {
///     antecedents: vec![("L1".into(), "enough".into()), ("FU".into(), "low".into())],
///     consequent: "intfu".into(),
///     strength: 0.8,
/// };
/// assert_eq!(rule.to_string(), "IF L1 is enough AND FU is low THEN intfu can increase");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// `(input name, linguistic label)` pairs; empty means the rule
    /// holds unconditionally.
    pub antecedents: Vec<(String, String)>,
    /// The design parameter this rule recommends increasing.
    pub consequent: String,
    /// Mean consequent weight of the merged underlying rules.
    pub strength: f64,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.antecedents.is_empty() {
            write!(f, "THEN {} can increase", self.consequent)
        } else {
            write!(f, "IF ")?;
            for (i, (name, label)) in self.antecedents.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{name} is {label}")?;
            }
            write!(f, " THEN {} can increase", self.consequent)
        }
    }
}

/// Extracts the pruned rule base of a trained network.
///
/// Returns rules sorted by descending strength. An untrained network
/// (all-zero consequents) yields no rules.
pub fn extract_rules(fnn: &Fnn, cfg: &RuleExtractionConfig) -> Vec<Rule> {
    let mut rules = Vec::new();
    let outputs = fnn.output_count();
    for (o, output_name) in fnn.output_names().iter().enumerate() {
        let column: Vec<f64> = fnn.consequents().iter().skip(o).step_by(outputs).copied().collect();
        let norm: f64 = column.iter().map(|v| v.abs()).sum();
        if norm < cfg.column_norm_threshold {
            continue; // paper criterion 1: redundant column
        }
        let max_pos = column.iter().cloned().fold(0.0_f64, f64::max);
        if max_pos <= 0.0 {
            continue;
        }
        let threshold = max_pos * cfg.strength_fraction;
        // Selected rules as (labels, strength); labels use Option so a
        // pruned ("any") antecedent is None.
        let mut selected: Vec<(Vec<Option<usize>>, f64)> = fnn
            .rule_labels()
            .iter()
            .zip(&column)
            .filter(|(_, &c)| c >= threshold)
            .map(|(labels, &c)| (labels.iter().map(|&l| Some(l)).collect(), c))
            .collect();
        prune_antecedents(fnn, &mut selected);
        for (labels, strength) in selected {
            let antecedents = labels
                .iter()
                .enumerate()
                .filter_map(|(i, l)| {
                    l.map(|l| {
                        let spec = &fnn.inputs()[i];
                        (spec.name.clone(), spec.label(l).to_string())
                    })
                })
                .collect();
            rules.push(Rule { antecedents, consequent: output_name.clone(), strength });
        }
    }
    rules.sort_by(|a, b| b.strength.total_cmp(&a.strength));
    rules
}

/// Paper criterion 2: merge rule groups that differ only in one
/// antecedent's label but cover *all* of its labels — that antecedent is
/// redundant. Iterates to a fixpoint.
fn prune_antecedents(fnn: &Fnn, selected: &mut Vec<(Vec<Option<usize>>, f64)>) {
    let n_inputs = fnn.inputs().len();
    loop {
        let mut changed = false;
        for i in 0..n_inputs {
            let arity = fnn.inputs()[i].memberships.len();
            // Group by the labels excluding input i (only entries where
            // input i is still concrete).
            let mut groups: BTreeMap<Vec<Option<usize>>, Vec<usize>> = BTreeMap::new();
            for (idx, (labels, _)) in selected.iter().enumerate() {
                if labels[i].is_none() {
                    continue;
                }
                let mut key = labels.clone();
                key[i] = None;
                groups.entry(key).or_default().push(idx);
            }
            let mut to_remove = Vec::new();
            let mut to_add = Vec::new();
            for (key, members) in groups {
                let mut present: Vec<usize> =
                    members.iter().map(|&idx| selected[idx].0[i].unwrap()).collect();
                present.sort_unstable();
                present.dedup();
                if present.len() == arity {
                    // All polarities claim the same consequent → prune.
                    let mean = members.iter().map(|&idx| selected[idx].1).sum::<f64>()
                        / members.len() as f64;
                    to_remove.extend(members);
                    to_add.push((key, mean));
                    changed = true;
                }
            }
            if !to_remove.is_empty() {
                to_remove.sort_unstable();
                to_remove.dedup();
                for idx in to_remove.into_iter().rev() {
                    selected.swap_remove(idx);
                }
                selected.extend(to_add);
            }
        }
        if !changed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnnBuilder, InputKind, InputSpec, Membership, MembershipKind};
    use dse_space::DesignSpace;

    fn two_param_net() -> Fnn {
        // 2 parameter inputs (no metric): 4 rules, 2 outputs.
        let mk = |name: &str| InputSpec {
            name: name.to_string(),
            kind: InputKind::Parameter,
            memberships: vec![
                Membership::new(MembershipKind::InvSigmoid, 1.0, 0.5),
                Membership::new(MembershipKind::Sigmoid, 1.0, 0.5),
            ],
        };
        Fnn::new(vec![mk("A"), mk("B")], vec!["x".into(), "y".into()])
    }

    /// Finds the rule index with the given labels.
    fn rule_index(fnn: &Fnn, labels: &[usize]) -> usize {
        fnn.rule_labels().iter().position(|l| l == labels).expect("rule exists")
    }

    #[test]
    fn untrained_network_has_no_rules() {
        let space = DesignSpace::boom();
        let f = FnnBuilder::for_space(&space).build();
        assert!(extract_rules(&f, &RuleExtractionConfig::default()).is_empty());
    }

    #[test]
    fn single_strong_entry_becomes_one_rule() {
        let mut f = two_param_net();
        let r = rule_index(&f, &[1, 0]); // A enough, B low
        set_consequent(&mut f, r, 0, 1.0);
        let rules = extract_rules(&f, &RuleExtractionConfig::default());
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].to_string(), "IF A is enough AND B is low THEN x can increase");
    }

    #[test]
    fn redundant_antecedent_is_pruned() {
        // Both "A low, B low" and "A enough, B low" recommend x → the A
        // antecedent is redundant (paper criterion 2).
        let mut f = two_param_net();
        let r = rule_index(&f, &[0, 0]);
        set_consequent(&mut f, r, 0, 1.0);
        let r = rule_index(&f, &[1, 0]);
        set_consequent(&mut f, r, 0, 0.9);
        let rules = extract_rules(&f, &RuleExtractionConfig::default());
        assert_eq!(rules.len(), 1, "{rules:?}");
        assert_eq!(rules[0].to_string(), "IF B is low THEN x can increase");
        assert!((rules[0].strength - 0.95).abs() < 1e-12);
    }

    #[test]
    fn fully_redundant_rule_becomes_unconditional() {
        let mut f = two_param_net();
        for labels in [[0, 0], [0, 1], [1, 0], [1, 1]] {
            let r = rule_index(&f, &labels);
            set_consequent(&mut f, r, 1, 1.0);
        }
        let rules = extract_rules(&f, &RuleExtractionConfig::default());
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].to_string(), "THEN y can increase");
    }

    #[test]
    fn near_zero_columns_are_dropped() {
        let mut f = two_param_net();
        set_consequent(&mut f, 0, 0, 1e-6); // below column_norm_threshold
        set_consequent(&mut f, 1, 1, 1.0);
        let rules = extract_rules(&f, &RuleExtractionConfig::default());
        assert!(rules.iter().all(|r| r.consequent == "y"), "{rules:?}");
    }

    #[test]
    fn weak_entries_fall_below_the_fraction_threshold() {
        let mut f = two_param_net();
        let r = rule_index(&f, &[0, 0]);
        set_consequent(&mut f, r, 0, 1.0);
        let r = rule_index(&f, &[1, 1]);
        set_consequent(&mut f, r, 0, 0.1); // < 0.5 × max
        let rules = extract_rules(&f, &RuleExtractionConfig::default());
        assert_eq!(rules.len(), 1);
    }

    fn set_consequent(f: &mut Fnn, rule: usize, output: usize, value: f64) {
        // Test-only poke through the gradient interface: descend from 0
        // by -value with lr 1.
        let mut grads = f.zero_gradients();
        grads.consequents[rule * f.output_count() + output] = -value;
        f.apply(&grads, 1.0, 0.0);
    }
}
