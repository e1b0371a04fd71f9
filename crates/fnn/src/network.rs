//! The five-layer fuzzy neural network and its manual backpropagation.

use serde::{Deserialize, Serialize};

use dse_space::{DesignPoint, DesignSpace, MergedParam};

use crate::Membership;

/// Most fuzzy sets any input has (a metric's *low/avg/high*).
const MAX_SETS: usize = 3;

/// Whether an FNN input is a design metric or a design parameter.
///
/// Metric inputs carry three fuzzy sets (*low/avg/high*) with frozen
/// centers; parameter inputs carry two (*low/enough*) with trainable
/// centers (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputKind {
    /// A design metric (e.g. CPI): 3 fuzzy sets, centers frozen.
    Metric,
    /// A (merged) design parameter: 2 fuzzy sets, centers trainable.
    Parameter,
}

/// One antecedent input of the network: a named crisp variable together
/// with its fuzzy sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputSpec {
    /// Display name, e.g. `"CPI"` or `"L1"`.
    pub name: String,
    /// Metric or parameter.
    pub kind: InputKind,
    /// Membership functions, one per fuzzy set: `[low, avg, high]` for
    /// metrics, `[low, enough]` for parameters.
    pub memberships: Vec<Membership>,
}

impl InputSpec {
    /// Linguistic label of fuzzy set `l` for this input kind.
    pub fn label(&self, l: usize) -> &'static str {
        match self.kind {
            InputKind::Metric => ["low", "avg", "high"][l],
            InputKind::Parameter => ["low", "enough"][l],
        }
    }
}

/// A crisp observation: one value per FNN input, in input order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Crisp input values.
    pub values: Vec<f64>,
}

/// Cached intermediate activations of one forward pass, needed by
/// [`Fnn::backward`].
#[derive(Debug, Clone)]
pub struct ForwardPass {
    /// Layer-5 output: one score per design parameter.
    pub scores: Vec<f64>,
    /// Layer-1 output: per input, its fuzzy sets' memberships (unused
    /// slots past the input's set count stay zero).
    memberships: Vec<[f64; MAX_SETS]>,
    normalized: Vec<f64>,
    strength_sum: f64,
    observation: Observation,
}

impl ForwardPass {
    /// Normalized rule firing strengths (layer 3 output), summing to 1.
    pub fn normalized_strengths(&self) -> &[f64] {
        &self.normalized
    }
}

/// Gradients of a scalar loss with respect to the trainable weights.
#[derive(Debug, Clone, PartialEq)]
pub struct FnnGradients {
    /// `∂L/∂consequent[rule][output]`.
    pub consequents: Vec<Vec<f64>>,
    /// `∂L/∂center[input][fuzzy set]` (zero for metric inputs).
    pub centers: Vec<Vec<f64>>,
}

impl FnnGradients {
    /// Element-wise accumulation of another gradient (for batching
    /// REINFORCE steps over an episode).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn accumulate(&mut self, other: &FnnGradients) {
        assert_eq!(self.consequents.len(), other.consequents.len(), "gradient shape mismatch");
        for (a, b) in self.consequents.iter_mut().zip(&other.consequents) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.centers.iter_mut().zip(&other.centers) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Scales every gradient entry by `s`.
    pub fn scale(&mut self, s: f64) {
        for row in &mut self.consequents {
            for x in row {
                *x *= s;
            }
        }
        for row in &mut self.centers {
            for x in row {
                *x *= s;
            }
        }
    }
}

/// The fuzzy neural network (see the [crate docs](crate) for the layer
/// structure).
///
/// Construct via [`FnnBuilder`](crate::FnnBuilder); drive with
/// [`Fnn::forward`] / [`Fnn::backward`] (or [`Fnn::backward_into`]) /
/// [`Fnn::apply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fnn {
    inputs: Vec<InputSpec>,
    output_names: Vec<String>,
    /// `consequents[rule][output]` — the trainable TS crisp values.
    consequents: Vec<Vec<f64>>,
    /// `rule_labels[rule][input]` — which fuzzy set of each input the
    /// rule's antecedent uses (mixed-radix decomposition, precomputed).
    rule_labels: Vec<Vec<usize>>,
}

impl Fnn {
    /// Assembles a network from input specs and output names, with
    /// zero-initialized consequents.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` is empty, or if any input has the
    /// wrong number of membership functions for its kind.
    pub fn new(inputs: Vec<InputSpec>, output_names: Vec<String>) -> Self {
        assert!(!inputs.is_empty(), "need at least one input");
        assert!(!output_names.is_empty(), "need at least one output");
        for spec in &inputs {
            let expected = match spec.kind {
                InputKind::Metric => 3,
                InputKind::Parameter => 2,
            };
            assert_eq!(
                spec.memberships.len(),
                expected,
                "input {} needs {expected} membership functions",
                spec.name
            );
        }
        let n_rules: usize = inputs.iter().map(|s| s.memberships.len()).product();
        let mut rule_labels = Vec::with_capacity(n_rules);
        for r in 0..n_rules {
            let mut rest = r;
            let mut labels = vec![0usize; inputs.len()];
            for (i, spec) in inputs.iter().enumerate().rev() {
                let n = spec.memberships.len();
                labels[i] = rest % n;
                rest /= n;
            }
            rule_labels.push(labels);
        }
        let consequents = vec![vec![0.0; output_names.len()]; n_rules];
        Self { inputs, output_names, consequents, rule_labels }
    }

    /// Number of rules (layer-2 width).
    pub fn rule_count(&self) -> usize {
        self.rule_labels.len()
    }

    /// Number of output scores.
    pub fn output_count(&self) -> usize {
        self.output_names.len()
    }

    /// The antecedent input specs.
    pub fn inputs(&self) -> &[InputSpec] {
        &self.inputs
    }

    /// The output names (design-parameter names in the DSE setting).
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// The consequent matrix (`rules × outputs`).
    pub fn consequents(&self) -> &[Vec<f64>] {
        &self.consequents
    }

    /// The fuzzy-set labels each rule's antecedent uses, per input.
    pub fn rule_labels(&self) -> &[Vec<usize>] {
        &self.rule_labels
    }

    /// Builds the canonical DSE observation `[CPI, merged params…]` for
    /// a design point.
    ///
    /// # Panics
    ///
    /// Panics if this network does not have the canonical layout of one
    /// metric followed by the [`MergedParam::ALL`] groups (networks from
    /// [`FnnBuilder::for_space`](crate::FnnBuilder::for_space) do).
    pub fn observation(&self, space: &DesignSpace, point: &DesignPoint, cpi: f64) -> Observation {
        assert_eq!(
            self.inputs.len(),
            1 + MergedParam::COUNT,
            "observation() requires the canonical 1-metric + merged-param layout"
        );
        assert_eq!(self.inputs[0].kind, InputKind::Metric);
        let mut values = Vec::with_capacity(self.inputs.len());
        values.push(cpi);
        values.extend(MergedParam::ALL.iter().map(|g| g.value(space, point)));
        Observation { values }
    }

    /// Runs the five layers on an observation.
    ///
    /// # Panics
    ///
    /// Panics if the observation length does not match the input count.
    pub fn forward(&self, obs: &Observation) -> ForwardPass {
        assert_eq!(obs.values.len(), self.inputs.len(), "observation length mismatch");
        // Layer 1: fuzzification.
        let memberships: Vec<[f64; MAX_SETS]> = self
            .inputs
            .iter()
            .zip(&obs.values)
            .map(|(spec, &x)| {
                let mut row = [0.0; MAX_SETS];
                for (slot, m) in row.iter_mut().zip(&spec.memberships) {
                    *slot = m.eval(x);
                }
                row
            })
            .collect();
        // Layer 2: product t-norm firing strengths.
        let mut normalized = vec![0.0; self.rule_count()];
        self.rule_products(&memberships, None, &mut normalized);
        // Layer 3: normalization, in place.
        let strength_sum: f64 = normalized.iter().sum::<f64>().max(1e-300);
        for w in &mut normalized {
            *w /= strength_sum;
        }
        // Layers 4+5: TS defuzzification and weighted-sum output.
        let mut scores = vec![0.0; self.output_names.len()];
        for (r, &n) in normalized.iter().enumerate() {
            if n == 0.0 {
                continue;
            }
            for (o, s) in scores.iter_mut().enumerate() {
                *s += n * self.consequents[r][o];
            }
        }
        ForwardPass { scores, memberships, normalized, strength_sum, observation: obs.clone() }
    }

    /// Products of the inputs' memberships for every rule, in rule order,
    /// written to the front of `out`. `skip` leaves one input out of every
    /// product (and so writes a fraction of the rules).
    ///
    /// The products are expanded input by input from `[1.0]`: each input
    /// multiplies every entry so far by each of its memberships (a
    /// Kronecker product, input 0 most significant, as in
    /// [`rule_labels`](Self::rule_labels)). Each entry is therefore the
    /// left fold `1.0·μ₀·μ₁·…` that `Iterator::product` computes per
    /// rule, bit for bit, at about two multiplies per rule instead of one
    /// per input.
    fn rule_products(&self, memberships: &[[f64; MAX_SETS]], skip: Option<usize>, out: &mut [f64]) {
        out[0] = 1.0;
        let mut len = 1;
        for (i, (spec, mu)) in self.inputs.iter().zip(memberships).enumerate() {
            if skip == Some(i) {
                continue;
            }
            let n = spec.memberships.len();
            // Back to front, so entry k is read before any write lands
            // on it (its products go to k·n.., never below k).
            for k in (0..len).rev() {
                let w = out[k];
                for (slot, &m) in out[k * n..(k + 1) * n].iter_mut().zip(mu) {
                    *slot = w * m;
                }
            }
            len *= n;
        }
    }

    /// All-zero gradients shaped like this network's trainable weights.
    pub fn zero_gradients(&self) -> FnnGradients {
        FnnGradients {
            consequents: vec![vec![0.0; self.output_count()]; self.rule_count()],
            centers: self.inputs.iter().map(|s| vec![0.0; s.memberships.len()]).collect(),
        }
    }

    /// Backpropagates `∂L/∂scores` through the cached forward pass,
    /// returning gradients for the consequents and the *parameter*
    /// membership centers (metric centers stay frozen, §2.3).
    ///
    /// # Panics
    ///
    /// Panics if `d_scores.len()` does not match the output count.
    pub fn backward(&self, pass: &ForwardPass, d_scores: &[f64]) -> FnnGradients {
        let mut grads = self.zero_gradients();
        self.backward_into(pass, d_scores, &mut grads, true, &mut Vec::new());
        grads
    }

    /// [`backward`](Self::backward) folded into a caller-owned sum, for
    /// summing per-step gradients over an episode without allocating.
    ///
    /// With `first` set, the step's gradients overwrite `sum`; otherwise
    /// they are added to it. Assigning the first step (rather than adding
    /// it to zeros) makes the sum bit-identical to folding separate
    /// [`backward`](Self::backward) results with
    /// [`FnnGradients::accumulate`], signed zeros included. `scratch` is
    /// reused for the per-rule intermediates and the exclusive products;
    /// its contents on entry do not matter.
    ///
    /// # Panics
    ///
    /// Panics if `d_scores.len()` does not match the output count or
    /// `sum` is not shaped like [`zero_gradients`](Self::zero_gradients).
    pub fn backward_into(
        &self,
        pass: &ForwardPass,
        d_scores: &[f64],
        sum: &mut FnnGradients,
        first: bool,
        scratch: &mut Vec<f64>,
    ) {
        assert_eq!(d_scores.len(), self.output_names.len(), "d_scores length mismatch");
        assert_eq!(sum.consequents.len(), self.rule_count(), "gradient shape mismatch");
        assert_eq!(sum.centers.len(), self.inputs.len(), "gradient shape mismatch");
        let fold = |slot: &mut f64, v: f64| {
            if first {
                *slot = v;
            } else {
                *slot += v;
            }
        };

        // ∂L/∂consequent, and ∂L/∂normalized-strength (q) into scratch.
        scratch.clear();
        for ((row, weights), &n) in
            sum.consequents.iter_mut().zip(&self.consequents).zip(&pass.normalized)
        {
            let mut q = 0.0;
            for ((slot, &w), &g) in row.iter_mut().zip(weights).zip(d_scores) {
                fold(slot, n * g);
                q += w * g;
            }
            scratch.push(q);
        }
        // Through normalization, in place: ∂L/∂w_r = (q_r − Σ_j q_j·n_j) / S.
        let q_dot_n: f64 = scratch.iter().zip(&pass.normalized).map(|(a, b)| a * b).sum();
        for q in scratch.iter_mut() {
            *q = (*q - q_dot_n) / pass.strength_sum;
        }
        let rules = scratch.len();
        scratch.resize(2 * rules, 0.0);
        let (d_firing, excl) = scratch.split_at_mut(rules);

        for (i, spec) in self.inputs.iter().enumerate() {
            if spec.kind != InputKind::Parameter {
                // Metric centers are frozen.
                sum.centers[i].iter_mut().for_each(|slot| fold(slot, 0.0));
                continue;
            }
            // Through the product t-norm to each membership value:
            // ∂w_r/∂μ(i,l) = Π_{i'≠i} μ(i', label_{i'}) for rules using
            // (i,l). Rules run as (hi, l, lo) blocks — hi the labels of
            // the inputs before i, lo those after — and rule (hi, l, lo)'s
            // exclusive product is entry (hi, lo) of the products without
            // input i. Each label's sum still folds in rule order.
            self.rule_products(&pass.memberships, Some(i), excl);
            let sets = spec.memberships.len();
            let lo: usize = self.inputs[i + 1..].iter().map(|s| s.memberships.len()).product();
            let mut d_membership = [0.0f64; MAX_SETS];
            for (block, excl_hi) in d_firing.chunks_exact(sets * lo).zip(excl.chunks_exact(lo)) {
                for (d, dws) in d_membership.iter_mut().zip(block.chunks_exact(lo)) {
                    for (&dw, &e) in dws.iter().zip(excl_hi) {
                        if dw != 0.0 {
                            *d += dw * e;
                        }
                    }
                }
            }
            // Through fuzzification to the trainable centers.
            let x = pass.observation.values[i];
            for ((slot, m), d) in sum.centers[i].iter_mut().zip(&spec.memberships).zip(d_membership)
            {
                fold(slot, d * m.d_center(x));
            }
        }
    }

    /// Gradient-descent update: `w ← w − lr·∂L/∂w`, with separate
    /// learning rates for consequents and parameter-MF centers.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shapes do not match this network.
    pub fn apply(&mut self, grads: &FnnGradients, lr_consequent: f64, lr_center: f64) {
        assert_eq!(grads.consequents.len(), self.rule_count(), "gradient shape mismatch");
        for (row, grow) in self.consequents.iter_mut().zip(&grads.consequents) {
            for (w, g) in row.iter_mut().zip(grow) {
                *w -= lr_consequent * g;
            }
        }
        for (i, spec) in self.inputs.iter_mut().enumerate() {
            if spec.kind != InputKind::Parameter {
                continue;
            }
            for (l, m) in spec.memberships.iter_mut().enumerate() {
                let c = m.center() - lr_center * grads.centers[i][l];
                m.set_center(c);
            }
        }
    }

    /// Embeds a designer preference (§2.3, Fig. 7): re-anchor a
    /// parameter input's *low/enough* centers around `threshold` and
    /// bias every rule with that antecedent "low" toward increasing
    /// `output`.
    ///
    /// E.g. for "decode width should reach 4": `threshold = 3.5` makes
    /// 3 "low" and 4 "enough", and `boost > 0` seeds the consequents so
    /// the network recommends increasing decode whenever it is low.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not a parameter input or `output` is out of
    /// range.
    pub fn embed_preference(&mut self, input: usize, threshold: f64, output: usize, boost: f64) {
        assert!(input < self.inputs.len(), "input index out of range");
        assert!(output < self.output_names.len(), "output index out of range");
        let spec = &mut self.inputs[input];
        assert_eq!(spec.kind, InputKind::Parameter, "preferences attach to parameter inputs");
        for m in &mut spec.memberships {
            m.set_center(threshold);
        }
        for (r, labels) in self.rule_labels.iter().enumerate() {
            if labels[input] == 0 {
                // Antecedent "<input> is low" → consequent "<output> can
                // increase".
                self.consequents[r][output] += boost;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnnBuilder, MembershipKind};
    use proptest::prelude::*;

    fn tiny() -> Fnn {
        // 1 metric + 2 parameters → 3·2·2 = 12 rules; 2 outputs.
        let inputs = vec![
            InputSpec {
                name: "CPI".into(),
                kind: InputKind::Metric,
                memberships: vec![
                    Membership::new(MembershipKind::InvSigmoid, 1.0, 0.3),
                    Membership::new(MembershipKind::Bell, 2.0, 0.8),
                    Membership::new(MembershipKind::Sigmoid, 3.0, 0.3),
                ],
            },
            InputSpec {
                name: "A".into(),
                kind: InputKind::Parameter,
                memberships: vec![
                    Membership::new(MembershipKind::InvSigmoid, 5.0, 1.0),
                    Membership::new(MembershipKind::Sigmoid, 5.0, 1.0),
                ],
            },
            InputSpec {
                name: "B".into(),
                kind: InputKind::Parameter,
                memberships: vec![
                    Membership::new(MembershipKind::InvSigmoid, 10.0, 2.0),
                    Membership::new(MembershipKind::Sigmoid, 10.0, 2.0),
                ],
            },
        ];
        Fnn::new(inputs, vec!["a".into(), "b".into()])
    }

    #[test]
    fn rule_count_is_mixed_radix_product() {
        assert_eq!(tiny().rule_count(), 12);
    }

    #[test]
    fn rule_labels_enumerate_all_combinations() {
        let f = tiny();
        let mut seen: Vec<_> = f.rule_labels().to_vec();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 12, "all label combinations distinct");
        for labels in f.rule_labels() {
            assert!(labels[0] < 3 && labels[1] < 2 && labels[2] < 2);
        }
    }

    #[test]
    fn normalized_strengths_sum_to_one() {
        let f = tiny();
        let pass = f.forward(&Observation { values: vec![2.0, 4.0, 12.0] });
        let s: f64 = pass.normalized_strengths().iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "sum {s}");
    }

    #[test]
    fn scores_bounded_by_consequent_extremes() {
        let mut f = tiny();
        // Set consequents to known range [-2, 3].
        for (r, row) in f.consequents.iter_mut().enumerate() {
            row[0] = if r % 2 == 0 { -2.0 } else { 3.0 };
            row[1] = 1.0;
        }
        let pass = f.forward(&Observation { values: vec![2.5, 3.0, 15.0] });
        assert!(pass.scores[0] >= -2.0 - 1e-9 && pass.scores[0] <= 3.0 + 1e-9);
        assert!((pass.scores[1] - 1.0).abs() < 1e-9, "constant consequent passes through");
    }

    #[test]
    fn backward_matches_finite_difference_on_consequents() {
        let mut f = tiny();
        for (r, row) in f.consequents.iter_mut().enumerate() {
            row[0] = (r as f64) * 0.1 - 0.5;
            row[1] = 0.3 - (r as f64) * 0.05;
        }
        let obs = Observation { values: vec![1.8, 5.5, 9.0] };
        // Loss L = scores[0] → d_scores = [1, 0].
        let pass = f.forward(&obs);
        let grads = f.backward(&pass, &[1.0, 0.0]);
        let h = 1e-6;
        for r in [0usize, 5, 11] {
            let mut fp = f.clone();
            fp.consequents[r][0] += h;
            let up = fp.forward(&obs).scores[0];
            let mut fm = f.clone();
            fm.consequents[r][0] -= h;
            let down = fm.forward(&obs).scores[0];
            let fd = (up - down) / (2.0 * h);
            assert!(
                (grads.consequents[r][0] - fd).abs() < 1e-6,
                "rule {r}: analytic {} vs fd {fd}",
                grads.consequents[r][0]
            );
        }
    }

    #[test]
    fn backward_matches_finite_difference_on_centers() {
        let mut f = tiny();
        for (r, row) in f.consequents.iter_mut().enumerate() {
            row[0] = ((r * 7) % 5) as f64 * 0.2 - 0.4;
        }
        let obs = Observation { values: vec![2.2, 4.5, 11.0] };
        let pass = f.forward(&obs);
        let grads = f.backward(&pass, &[1.0, 0.0]);
        let h = 1e-6;
        for (i, l) in [(1usize, 0usize), (1, 1), (2, 0), (2, 1)] {
            let mut fp = f.clone();
            let c = fp.inputs[i].memberships[l].center();
            fp.inputs[i].memberships[l].set_center(c + h);
            let up = fp.forward(&obs).scores[0];
            let mut fm = f.clone();
            fm.inputs[i].memberships[l].set_center(c - h);
            let down = fm.forward(&obs).scores[0];
            let fd = (up - down) / (2.0 * h);
            assert!(
                (grads.centers[i][l] - fd).abs() < 1e-5,
                "center ({i},{l}): analytic {} vs fd {fd}",
                grads.centers[i][l]
            );
        }
    }

    #[test]
    fn metric_centers_receive_zero_gradient() {
        let f = tiny();
        let obs = Observation { values: vec![2.0, 5.0, 10.0] };
        let pass = f.forward(&obs);
        let grads = f.backward(&pass, &[1.0, 1.0]);
        assert!(grads.centers[0].iter().all(|&g| g == 0.0), "metric centers are frozen");
    }

    #[test]
    fn apply_descends_the_loss() {
        let mut f = tiny();
        for row in f.consequents.iter_mut() {
            row[0] = 0.5;
        }
        let obs = Observation { values: vec![2.0, 5.0, 10.0] };
        // L = scores[0]; descending should reduce it.
        let before = f.forward(&obs).scores[0];
        let pass = f.forward(&obs);
        let grads = f.backward(&pass, &[1.0, 0.0]);
        f.apply(&grads, 0.5, 0.0);
        let after = f.forward(&obs).scores[0];
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn preference_embedding_biases_the_right_rules() {
        let mut f = tiny();
        f.embed_preference(1, 3.5, 0, 2.0);
        // Observation with input A clearly low (value 1 << threshold 3.5).
        let low = f.forward(&Observation { values: vec![2.0, 1.0, 10.0] }).scores[0];
        // Input A clearly enough (value 8 >> 3.5).
        let high = f.forward(&Observation { values: vec![2.0, 8.0, 10.0] }).scores[0];
        assert!(low > high + 1.0, "low {low} should exceed enough {high}");
    }

    #[test]
    fn canonical_observation_layout() {
        let space = DesignSpace::boom();
        let f = FnnBuilder::for_space(&space).build();
        let obs = f.observation(&space, &space.smallest(), 1.5);
        assert_eq!(obs.values.len(), 7);
        assert_eq!(obs.values[0], 1.5);
        assert_eq!(obs.values[1], 2.0); // L1 = 2 KiB at the smallest design
    }

    proptest! {
        #[test]
        fn forward_is_finite_for_any_observation(
            m in -10.0_f64..10.0,
            a in -20.0_f64..20.0,
            b in -20.0_f64..20.0,
        ) {
            let f = tiny();
            let pass = f.forward(&Observation { values: vec![m, a, b] });
            prop_assert!(pass.scores.iter().all(|s| s.is_finite()));
            let sum: f64 = pass.normalized_strengths().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6);
        }
    }
}
