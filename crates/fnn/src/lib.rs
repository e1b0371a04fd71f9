//! The explainable fuzzy neural network (FNN) — the paper's core
//! contribution (§2).
//!
//! A five-layer Takagi–Sugeno fuzzy inference system implemented as a
//! differentiable network:
//!
//! 1. **Fuzzification** — design metrics fuzzify into *low/avg/high*
//!    (inverse-sigmoid / bell / sigmoid membership functions); merged
//!    design parameters fuzzify into *low/enough* (inverse-sigmoid /
//!    sigmoid). See [`Membership`].
//! 2. **Ruling** — every combination of antecedent labels is one rule;
//!    firing strength is the product t-norm of its memberships
//!    (3^#metrics · 2^#params rules).
//! 3. **Normalization** — firing strengths are normalized to sum to 1.
//! 4. **Defuzzification** — zero-order TS consequents: a trainable
//!    `rules × outputs` crisp matrix.
//! 5. **Output** — normalized-strength-weighted sum of consequents: one
//!    score per design parameter.
//!
//! Training follows §2.3: consequents and *parameter* membership centers
//! learn by gradient descent ([`Fnn::backward`] + [`Fnn::apply`]);
//! *metric* centers are frozen because "drastic changes in the centers
//! can activate different rules, rendering previous training
//! ineffective".
//!
//! Interpretability features:
//!
//! * [`rules::extract_rules`] translates the consequent
//!   matrix into pruned IF/THEN rules (§4.3);
//! * [`Fnn::embed_preference`] injects a designer preference (e.g.
//!   "decode width should reach 4") directly into the rule base (§2.3,
//!   Fig. 7).
//!
//! # Examples
//!
//! ```
//! use dse_fnn::{FnnBuilder, Fnn};
//! use dse_space::DesignSpace;
//!
//! let space = DesignSpace::boom();
//! let fnn = FnnBuilder::for_space(&space).build();
//! // One CPI metric + six merged parameter antecedents → 192 rules.
//! assert_eq!(fnn.rule_count(), 192);
//! let scores = fnn.forward(&fnn.observation(&space, &space.smallest(), 1.0)).scores;
//! assert_eq!(scores.len(), 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod explain;
mod mf;
mod network;
pub mod parse;
pub mod rules;

pub use builder::FnnBuilder;
pub use explain::{explain_decision, explain_top_action, DecisionExplanation, RuleContribution};
pub use mf::{Membership, MembershipKind};
pub use network::{
    Fnn, FnnGradients, ForwardPass, InputKind, InputSpec, Observation, PassArena, PassRef,
};
pub use parse::{apply_rule, parse_rule, seed_rule, ParseRuleError, ParsedRule};
pub use rules::{extract_rules, Rule, RuleExtractionConfig};
