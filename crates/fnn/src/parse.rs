//! Parsing hand-written fuzzy rules into the network — the inverse of
//! rule extraction.
//!
//! The fuzzy-rule DSE lineage the paper builds on (§1) starts from
//! *designers writing rules*; the FNN automates rule learning but §2.3
//! stresses that experts can still "incorporate preferences directly
//! into the rule base". This module completes that loop: a rule written
//! in the same surface syntax the extractor prints —
//!
//! ```text
//! IF L1 is enough AND FU is low THEN intfu can increase
//! ```
//!
//! — parses against a network's input/output vocabulary and seeds every
//! matching consequent entry, so hand knowledge and learned knowledge
//! live in the same trainable matrix.

use std::error::Error;
use std::fmt;

use crate::Fnn;

/// Error produced while parsing or applying a textual rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseRuleError {
    /// The rule didn't match the `IF … THEN … can increase` shape.
    Malformed(String),
    /// An antecedent referenced an unknown input name.
    UnknownInput(String),
    /// An antecedent used a label the input doesn't have (e.g. `avg` on
    /// a parameter input).
    UnknownLabel {
        /// The input name.
        input: String,
        /// The offending label.
        label: String,
    },
    /// The consequent referenced an unknown output name.
    UnknownOutput(String),
    /// The same input appeared twice in the antecedent.
    DuplicateInput(String),
}

impl fmt::Display for ParseRuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseRuleError::Malformed(s) => {
                write!(f, "rule {s:?} is not of the form 'IF x is l AND … THEN y can increase'")
            }
            ParseRuleError::UnknownInput(name) => write!(f, "unknown antecedent input {name:?}"),
            ParseRuleError::UnknownLabel { input, label } => {
                write!(f, "input {input:?} has no fuzzy set {label:?}")
            }
            ParseRuleError::UnknownOutput(name) => write!(f, "unknown output {name:?}"),
            ParseRuleError::DuplicateInput(name) => {
                write!(f, "input {name:?} appears twice in the antecedent")
            }
        }
    }
}

impl Error for ParseRuleError {}

/// A parsed rule, resolved against a specific network's vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRule {
    /// `(input index, fuzzy-set index)` constraints; inputs not listed
    /// are wildcards.
    pub antecedents: Vec<(usize, usize)>,
    /// The output index the rule increases.
    pub output: usize,
}

/// Parses one rule in the extractor's surface syntax against `fnn`'s
/// input/output names (case-insensitive; the antecedent part may be
/// empty: `THEN rob can increase` holds unconditionally).
///
/// # Errors
///
/// Returns a [`ParseRuleError`] describing the first problem found.
///
/// # Examples
///
/// ```
/// use dse_fnn::{FnnBuilder, parse_rule};
/// use dse_space::DesignSpace;
///
/// # fn main() -> Result<(), dse_fnn::ParseRuleError> {
/// let space = DesignSpace::boom();
/// let fnn = FnnBuilder::for_space(&space).build();
/// let rule = parse_rule(&fnn, "IF L1 is enough AND FU is low THEN intfu can increase")?;
/// assert_eq!(rule.antecedents.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_rule(fnn: &Fnn, text: &str) -> Result<ParsedRule, ParseRuleError> {
    let text = text.trim();
    let lower = text.to_ascii_lowercase();
    let (antecedent_part, consequent_part) = if let Some(rest) = lower.strip_prefix("if ") {
        rest.split_once(" then ").ok_or_else(|| ParseRuleError::Malformed(text.to_string()))?
    } else if let Some(rest) = lower.strip_prefix("then ") {
        ("", rest)
    } else {
        return Err(ParseRuleError::Malformed(text.to_string()));
    };

    // Consequent: "<output> can increase".
    let output_name = consequent_part
        .strip_suffix("can increase")
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| ParseRuleError::Malformed(text.to_string()))?;
    let output = fnn
        .output_names()
        .iter()
        .position(|n| n.eq_ignore_ascii_case(output_name))
        .ok_or_else(|| ParseRuleError::UnknownOutput(output_name.to_string()))?;

    // Antecedents: "<input> is <label>" joined by AND.
    let mut antecedents = Vec::new();
    for clause in antecedent_part.split(" and ").map(str::trim).filter(|c| !c.is_empty()) {
        let (input_name, label_name) = clause
            .split_once(" is ")
            .map(|(a, b)| (a.trim(), b.trim()))
            .ok_or_else(|| ParseRuleError::Malformed(text.to_string()))?;
        let input = fnn
            .inputs()
            .iter()
            .position(|spec| spec.name.eq_ignore_ascii_case(input_name))
            .ok_or_else(|| ParseRuleError::UnknownInput(input_name.to_string()))?;
        if antecedents.iter().any(|&(i, _)| i == input) {
            return Err(ParseRuleError::DuplicateInput(input_name.to_string()));
        }
        let spec = &fnn.inputs()[input];
        let label = (0..spec.memberships.len())
            .find(|&l| spec.label(l).eq_ignore_ascii_case(label_name))
            .ok_or_else(|| ParseRuleError::UnknownLabel {
                input: input_name.to_string(),
                label: label_name.to_string(),
            })?;
        antecedents.push((input, label));
    }
    Ok(ParsedRule { antecedents, output })
}

/// Seeds a parsed rule into the consequent matrix with weight `boost`:
/// every network rule whose antecedent satisfies all the parsed
/// constraints gets `boost` added to the target output's consequent.
///
/// Returns the number of network rules affected.
pub fn apply_rule(fnn: &mut Fnn, rule: &ParsedRule, boost: f64) -> usize {
    let matching: Vec<usize> = fnn
        .rule_labels()
        .iter()
        .enumerate()
        .filter(|(_, labels)| rule.antecedents.iter().all(|&(i, l)| labels[i] == l))
        .map(|(r, _)| r)
        .collect();
    // Route the seed through the gradient interface so the network's
    // internals stay encapsulated.
    let outputs = fnn.output_count();
    let mut grads = fnn.zero_gradients();
    for &r in &matching {
        grads.consequents[r * outputs + rule.output] = -boost;
    }
    fnn.apply(&grads, 1.0, 0.0);
    matching.len()
}

/// Convenience: parses and applies in one call.
///
/// # Errors
///
/// Propagates [`parse_rule`] errors.
pub fn seed_rule(fnn: &mut Fnn, text: &str, boost: f64) -> Result<usize, ParseRuleError> {
    let rule = parse_rule(fnn, text)?;
    Ok(apply_rule(fnn, &rule, boost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{extract_rules, RuleExtractionConfig};
    use crate::FnnBuilder;
    use dse_space::DesignSpace;

    fn net() -> Fnn {
        FnnBuilder::for_space(&DesignSpace::boom()).build()
    }

    #[test]
    fn parses_the_papers_example_rules() {
        let fnn = net();
        for text in [
            "IF L1 is enough AND FU is enough AND decode is low THEN decode can increase",
            "IF L1 is enough AND FU is low THEN intfu can increase",
            "IF L2 is low THEN rob can increase",
            "THEN mshr can increase",
        ] {
            let rule = parse_rule(&fnn, text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(rule.output < fnn.output_count());
        }
    }

    #[test]
    fn parse_is_case_insensitive() {
        let fnn = net();
        let a = parse_rule(&fnn, "if l1 is ENOUGH then INTFU can increase").unwrap();
        let b = parse_rule(&fnn, "IF L1 is enough THEN intfu can increase").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_and_unknown() {
        let fnn = net();
        assert!(matches!(
            parse_rule(&fnn, "increase the rob please"),
            Err(ParseRuleError::Malformed(_))
        ));
        assert!(matches!(
            parse_rule(&fnn, "IF l9 is low THEN rob can increase"),
            Err(ParseRuleError::UnknownInput(_))
        ));
        assert!(matches!(
            parse_rule(&fnn, "IF L1 is avg THEN rob can increase"),
            Err(ParseRuleError::UnknownLabel { .. })
        ));
        assert!(matches!(
            parse_rule(&fnn, "IF L1 is low THEN warp can increase"),
            Err(ParseRuleError::UnknownOutput(_))
        ));
        assert!(matches!(
            parse_rule(&fnn, "IF L1 is low AND L1 is enough THEN rob can increase"),
            Err(ParseRuleError::DuplicateInput(_))
        ));
    }

    #[test]
    fn seeding_affects_the_expected_rule_count() {
        let mut fnn = net();
        // One constrained input out of 7 (CPI has 3 sets, six params 2
        // each): fixing "L1 is enough" leaves 3·2⁵ = 96 rules.
        let n = seed_rule(&mut fnn, "IF L1 is enough THEN l1set can increase", 1.0).unwrap();
        assert_eq!(n, 96);
        // Unconditional rules hit all 192.
        let n = seed_rule(&mut fnn, "THEN mshr can increase", 1.0).unwrap();
        assert_eq!(n, 192);
    }

    #[test]
    fn seeded_rule_round_trips_through_extraction() {
        let mut fnn = net();
        seed_rule(&mut fnn, "IF L2 is low THEN rob can increase", 1.0).unwrap();
        let extracted = extract_rules(&fnn, &RuleExtractionConfig::default());
        assert!(
            extracted.iter().any(|r| r.to_string() == "IF L2 is low THEN rob can increase"),
            "extractor should recover the seeded rule, got {extracted:?}"
        );
    }

    #[test]
    fn seeded_rule_biases_the_policy() {
        let space = DesignSpace::boom();
        let mut fnn = FnnBuilder::for_space(&space).build();
        seed_rule(&mut fnn, "IF decode is low THEN decode can increase", 2.0).unwrap();
        let obs = fnn.observation(&space, &space.smallest(), 1.0);
        let scores = fnn.forward(&obs).scores;
        let decode_idx = 5;
        for (i, &s) in scores.iter().enumerate() {
            if i != decode_idx {
                assert!(scores[decode_idx] > s, "decode should dominate param {i}");
            }
        }
    }
}
