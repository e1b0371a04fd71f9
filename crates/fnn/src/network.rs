//! The five-layer fuzzy neural network and its manual backpropagation.

use serde::{Content, DeError, Deserialize, Serialize};

use dse_space::{DesignPoint, DesignSpace, MergedParam, Param};

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
    values: Vec<f64>,
}

impl ForwardPass {
    /// Normalized rule firing strengths (layer 3 output), summing to 1.
    pub fn normalized_strengths(&self) -> &[f64] {
        &self.normalized
    }
}

/// One forward pass, borrowed from a [`ForwardPass`] or a [`PassArena`]:
/// what [`Fnn::backward_into`] reads.
#[derive(Debug, Clone, Copy)]
pub struct PassRef<'a> {
    scores: &'a [f64],
    memberships: &'a [[f64; MAX_SETS]],
    normalized: &'a [f64],
    strength_sum: f64,
    values: &'a [f64],
}

impl<'a> PassRef<'a> {
    /// Layer-5 output: one score per design parameter.
    pub fn scores(&self) -> &'a [f64] {
        self.scores
    }

    /// Normalized rule firing strengths (layer 3 output), summing to 1.
    pub fn normalized_strengths(&self) -> &'a [f64] {
        self.normalized
    }
}

impl<'a> From<&'a ForwardPass> for PassRef<'a> {
    fn from(pass: &'a ForwardPass) -> Self {
        Self {
            scores: &pass.scores,
            memberships: &pass.memberships,
            normalized: &pass.normalized,
            strength_sum: pass.strength_sum,
            values: &pass.values,
        }
    }
}

/// The forward passes of a sequence of steps, in flat buffers that are
/// cleared and refilled rather than reallocated.
///
/// An episode keeps every step's pass until its REINFORCE update; held
/// in one arena that lives across episodes, a step allocates nothing
/// once the buffers have grown to the longest episode.
#[derive(Debug, Clone, Default)]
pub struct PassArena {
    /// `(inputs, rules, outputs)` of the stored passes' network.
    shape: (usize, usize, usize),
    values: Vec<f64>,
    memberships: Vec<[f64; MAX_SETS]>,
    normalized: Vec<f64>,
    strength_sums: Vec<f64>,
    scores: Vec<f64>,
}

impl PassArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every stored pass, keeping the buffers.
    pub fn clear(&mut self) {
        self.values.clear();
        self.memberships.clear();
        self.normalized.clear();
        self.strength_sums.clear();
        self.scores.clear();
    }

    /// Number of stored passes.
    pub fn len(&self) -> usize {
        self.strength_sums.len()
    }

    /// Whether no pass is stored.
    pub fn is_empty(&self) -> bool {
        self.strength_sums.is_empty()
    }

    /// The `step`-th stored pass.
    ///
    /// # Panics
    ///
    /// Panics if `step >= self.len()`.
    pub fn get(&self, step: usize) -> PassRef<'_> {
        let (inputs, rules, outputs) = self.shape;
        PassRef {
            scores: &self.scores[step * outputs..][..outputs],
            memberships: &self.memberships[step * inputs..][..inputs],
            normalized: &self.normalized[step * rules..][..rules],
            strength_sum: self.strength_sums[step],
            values: &self.values[step * inputs..][..inputs],
        }
    }

    /// Runs `fnn` on the canonical observation of `point` (see
    /// [`Fnn::observation`]) and appends the pass.
    ///
    /// # Panics
    ///
    /// Panics if the network lacks the canonical layout, or if the arena
    /// holds passes of a differently shaped network.
    pub fn push_observed(
        &mut self,
        fnn: &Fnn,
        space: &DesignSpace,
        point: &DesignPoint,
        cpi: f64,
    ) -> PassRef<'_> {
        let shape = (fnn.inputs.len(), fnn.rule_count(), fnn.output_count());
        if self.is_empty() {
            self.shape = shape;
        }
        assert_eq!(self.shape, shape, "the arena holds passes of another network");
        let (inputs, rules, outputs) = shape;
        fnn.observation_into(space, point, cpi, &mut self.values);
        let step = self.len();
        self.memberships.resize(self.memberships.len() + inputs, [0.0; MAX_SETS]);
        self.normalized.resize(self.normalized.len() + rules, 0.0);
        self.scores.resize(self.scores.len() + outputs, 0.0);
        let sum = fnn.forward_into(
            &self.values[step * inputs..],
            &mut self.memberships[step * inputs..],
            &mut self.normalized[step * rules..],
            &mut self.scores[step * outputs..],
        );
        self.strength_sums.push(sum);
        self.get(step)
    }
}

/// Gradients of a scalar loss with respect to the trainable weights.
#[derive(Debug, Clone, PartialEq)]
pub struct FnnGradients {
    /// `∂L/∂consequent`, flat and rule-major like [`Fnn::consequents`]:
    /// entry `rule · outputs + output`.
    pub consequents: Vec<f64>,
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
        for (x, y) in self.consequents.iter_mut().zip(&other.consequents) {
            *x += y;
        }
        for (a, b) in self.centers.iter_mut().zip(&other.centers) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }
}

/// The consequent matrix, flat and rule-major, saved as one array per
/// rule (the format saved networks have always had).
#[derive(Debug, Clone, PartialEq)]
struct Consequents {
    values: Vec<f64>,
    outputs: usize,
}

impl Consequents {
    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.values.chunks_exact(self.outputs)
    }
}

impl Serialize for Consequents {
    fn to_content(&self) -> Content {
        Content::Seq(self.rows().map(|row| row.to_content()).collect())
    }
}

impl Deserialize for Consequents {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let rows = Vec::<Vec<f64>>::from_content(c)?;
        let outputs = rows.first().map_or(0, Vec::len);
        if outputs == 0 || rows.iter().any(|row| row.len() != outputs) {
            return Err(DeError::new("consequents must be rows of equal, nonzero length"));
        }
        Ok(Self { values: rows.concat(), outputs })
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
    /// The trainable TS crisp values, `rules × outputs`.
    consequents: Consequents,
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
        // The consequent block comes before the per-rule label vectors so
        // that it is not the newest allocation: freed last, a large block
        // at the top of the heap let glibc hand the heap back and fault
        // it in again whenever a network is rebuilt after the simulator's
        // traces (8x the minor faults in a repeated explore set-up).
        let outputs = output_names.len();
        let consequents = Consequents { values: vec![0.0; n_rules * outputs], outputs };
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

    /// The consequent matrix (`rules × outputs`), flat and rule-major:
    /// entry `rule · outputs + output`.
    pub fn consequents(&self) -> &[f64] {
        &self.consequents.values
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
        let mut values = Vec::with_capacity(self.inputs.len());
        self.observation_into(space, point, cpi, &mut values);
        Observation { values }
    }

    /// [`observation`](Self::observation)'s values, appended to `out`.
    fn observation_into(
        &self,
        space: &DesignSpace,
        point: &DesignPoint,
        cpi: f64,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(
            self.inputs.len(),
            1 + MergedParam::COUNT,
            "observation() requires the canonical 1-metric + merged-param layout"
        );
        assert_eq!(self.inputs[0].kind, InputKind::Metric);
        out.push(cpi);
        out.extend(MergedParam::ALL.iter().map(|g| g.value(space, point)));
    }

    /// Runs the five layers on an observation.
    ///
    /// # Panics
    ///
    /// Panics if the observation length does not match the input count.
    pub fn forward(&self, obs: &Observation) -> ForwardPass {
        assert_eq!(obs.values.len(), self.inputs.len(), "observation length mismatch");
        let mut memberships = vec![[0.0; MAX_SETS]; self.inputs.len()];
        let mut normalized = vec![0.0; self.rule_count()];
        let mut scores = vec![0.0; self.output_count()];
        let strength_sum =
            self.forward_into(&obs.values, &mut memberships, &mut normalized, &mut scores);
        ForwardPass { scores, memberships, normalized, strength_sum, values: obs.values.clone() }
    }

    /// The five layers on `values`, written to the front of the other
    /// slices; returns the strength sum.
    fn forward_into(
        &self,
        values: &[f64],
        memberships: &mut [[f64; MAX_SETS]],
        normalized: &mut [f64],
        scores: &mut [f64],
    ) -> f64 {
        // Layer 1: fuzzification.
        for ((row, spec), &x) in memberships.iter_mut().zip(&self.inputs).zip(values) {
            *row = [0.0; MAX_SETS];
            for (slot, m) in row.iter_mut().zip(&spec.memberships) {
                *slot = m.eval(x);
            }
        }
        // Layer 2: product t-norm firing strengths.
        let normalized = &mut normalized[..self.rule_count()];
        self.rule_products(memberships, None, normalized);
        // Layer 3: normalization, in place.
        let strength_sum: f64 = normalized.iter().sum::<f64>().max(1e-300);
        for w in normalized.iter_mut() {
            *w /= strength_sum;
        }
        // Layers 4+5: TS defuzzification and weighted-sum output, one
        // rule row at a time.
        let scores = &mut scores[..self.output_count()];
        if let Ok(scores) = <&mut [f64; Param::COUNT]>::try_from(&mut *scores) {
            *scores = weighted_rows(normalized, &self.consequents.values);
        } else {
            scores.fill(0.0);
            for (&n, weights) in normalized.iter().zip(self.consequents.rows()) {
                if n == 0.0 {
                    continue;
                }
                for (s, &w) in scores.iter_mut().zip(weights) {
                    *s += n * w;
                }
            }
        }
        strength_sum
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
            let out = &mut out[..len * n];
            if n == 2 {
                let [m0, m1, _] = *mu;
                for k in (0..len).rev() {
                    let w = out[k];
                    out[2 * k] = w * m0;
                    out[2 * k + 1] = w * m1;
                }
            } else {
                for k in (0..len).rev() {
                    let w = out[k];
                    for (slot, &m) in out[k * n..(k + 1) * n].iter_mut().zip(mu) {
                        *slot = w * m;
                    }
                }
            }
            len *= n;
        }
    }

    /// All-zero gradients shaped like this network's trainable weights.
    pub fn zero_gradients(&self) -> FnnGradients {
        FnnGradients {
            consequents: vec![0.0; self.consequents.values.len()],
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
    pub fn backward<'a>(&self, pass: impl Into<PassRef<'a>>, d_scores: &[f64]) -> FnnGradients {
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
    pub fn backward_into<'a>(
        &self,
        pass: impl Into<PassRef<'a>>,
        d_scores: &[f64],
        sum: &mut FnnGradients,
        first: bool,
        scratch: &mut Vec<f64>,
    ) {
        let pass = pass.into();
        let outputs = self.output_count();
        assert_eq!(d_scores.len(), outputs, "d_scores length mismatch");
        assert_eq!(sum.consequents.len(), self.consequents.values.len(), "gradient shape mismatch");
        assert_eq!(sum.centers.len(), self.inputs.len(), "gradient shape mismatch");
        let fold = |slot: &mut f64, v: f64| {
            if first {
                *slot = v;
            } else {
                *slot += v;
            }
        };

        // ∂L/∂consequent, and ∂L/∂normalized-strength (q) into scratch,
        // one rule row at a time.
        scratch.clear();
        if let Ok(g) = <&[f64; Param::COUNT]>::try_from(d_scores) {
            consequent_rows(
                pass.normalized,
                &self.consequents.values,
                g,
                &mut sum.consequents,
                first,
                scratch,
            );
        } else {
            for ((row, weights), &n) in sum
                .consequents
                .chunks_exact_mut(outputs)
                .zip(self.consequents.rows())
                .zip(pass.normalized)
            {
                let mut q = 0.0;
                for ((slot, &w), &g) in row.iter_mut().zip(weights).zip(d_scores) {
                    fold(slot, n * g);
                    q += w * g;
                }
                scratch.push(q);
            }
        }
        // Through normalization, in place: ∂L/∂w_r = (q_r − Σ_j q_j·n_j) / S.
        let q_dot_n: f64 = scratch.iter().zip(pass.normalized).map(|(a, b)| a * b).sum();
        for q in scratch.iter_mut() {
            *q = (*q - q_dot_n) / pass.strength_sum;
        }
        let rules = scratch.len();
        scratch.resize(2 * rules, 0.0);
        let (d_firing, excl) = scratch.split_at_mut(rules);

        // Through the product t-norm to each membership value:
        // ∂w_r/∂μ(i,l) = Π_{i'≠i} μ(i', label_{i'}) for rules using (i,l).
        // Two-set inputs are taken two at a time, so the four label sums
        // advance together instead of one input's after another's.
        let mut pending = None;
        for (i, spec) in self.inputs.iter().enumerate() {
            match (spec.kind, spec.memberships.len()) {
                // Metric centers are frozen.
                (InputKind::Metric, _) => {
                    sum.centers[i].iter_mut().for_each(|slot| fold(slot, 0.0));
                }
                (InputKind::Parameter, 2) => match pending.take() {
                    None => pending = Some(i),
                    Some(a) => {
                        let d = self.two_set_membership_grads([a, i], &pass, d_firing, excl);
                        self.fold_center_grads(a, &d[0], &pass, sum, first);
                        self.fold_center_grads(i, &d[1], &pass, sum, first);
                    }
                },
                (InputKind::Parameter, sets) => {
                    // Rules run as (hi, l, lo) blocks — hi the labels of
                    // the inputs before i, lo those after — and rule
                    // (hi, l, lo)'s exclusive product is entry (hi, lo) of
                    // the products without input i. Each label's sum
                    // folds in rule order.
                    self.rule_products(pass.memberships, Some(i), excl);
                    let lo = self.rules_after(i);
                    let mut d_membership = [0.0f64; MAX_SETS];
                    for (block, excl_hi) in
                        d_firing.chunks_exact(sets * lo).zip(excl.chunks_exact(lo))
                    {
                        for (d, dws) in d_membership.iter_mut().zip(block.chunks_exact(lo)) {
                            for (&dw, &e) in dws.iter().zip(excl_hi) {
                                if dw != 0.0 {
                                    *d += dw * e;
                                }
                            }
                        }
                    }
                    self.fold_center_grads(i, &d_membership[..sets], &pass, sum, first);
                }
            }
        }
        if let Some(a) = pending {
            let [d] = self.two_set_membership_grads([a], &pass, d_firing, excl);
            self.fold_center_grads(a, &d, &pass, sum, first);
        }
    }

    /// Rules spanned by the labels of the inputs after input `i`.
    fn rules_after(&self, i: usize) -> usize {
        self.inputs[i + 1..].iter().map(|s| s.memberships.len()).product()
    }

    /// `∂L/∂μ(i, l)` for `N` two-set inputs `i` and both their labels `l`,
    /// from the firing-strength gradients `d_firing`; `excl` is scratch
    /// for the inputs' exclusive products.
    ///
    /// Input `i`'s exclusive products run in (hi, lo) order — hi the
    /// labels of the inputs before it, lo those after — and entry
    /// (hi, lo) belongs to rules (hi, 0, lo) and (hi, 1, lo), so each
    /// label's sum folds in rule order. Every term is added, even one with
    /// a zero gradient: the products are finite (memberships lie in
    /// [0, 1]) unless a membership is NaN, which makes every gradient NaN,
    /// so such a term is ±0, and a sum that starts at +0.0 is never -0.0.
    fn two_set_membership_grads<const N: usize>(
        &self,
        inputs: [usize; N],
        pass: &PassRef<'_>,
        d_firing: &[f64],
        excl: &mut [f64],
    ) -> [[f64; 2]; N] {
        let half = d_firing.len() / 2;
        for (&i, products) in inputs.iter().zip(excl.chunks_exact_mut(half)) {
            self.rule_products(pass.memberships, Some(i), products);
        }
        let lo = inputs.map(|i| self.rules_after(i));
        // Per input, the rule of label 0 at the current entry: `base` the
        // start of its (hi, ·, ·) block, `j` its lo offset.
        let mut base = [0usize; N];
        let mut j = [0usize; N];
        let mut d = [[0.0f64; 2]; N];
        for entry in 0..half {
            for k in 0..N {
                let e = excl[k * half + entry];
                let r = base[k] + j[k];
                d[k][0] += d_firing[r] * e;
                d[k][1] += d_firing[r + lo[k]] * e;
                j[k] += 1;
                if j[k] == lo[k] {
                    j[k] = 0;
                    base[k] += 2 * lo[k];
                }
            }
        }
        d
    }

    /// Folds `∂L/∂μ(i, ·)` through fuzzification into input `i`'s center
    /// gradients.
    fn fold_center_grads(
        &self,
        i: usize,
        d_membership: &[f64],
        pass: &PassRef<'_>,
        sum: &mut FnnGradients,
        first: bool,
    ) {
        let x = pass.values[i];
        let memberships = &self.inputs[i].memberships;
        for ((slot, m), &d) in sum.centers[i].iter_mut().zip(memberships).zip(d_membership) {
            let v = d * m.d_center(x);
            if first {
                *slot = v;
            } else {
                *slot += v;
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
        let weights = &mut self.consequents.values;
        assert_eq!(grads.consequents.len(), weights.len(), "gradient shape mismatch");
        for (w, g) in weights.iter_mut().zip(&grads.consequents) {
            *w -= lr_consequent * g;
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
        let outputs = self.output_count();
        for (r, labels) in self.rule_labels.iter().enumerate() {
            if labels[input] == 0 {
                // Antecedent "<input> is low" → consequent "<output> can
                // increase".
                self.consequents.values[r * outputs + output] += boost;
            }
        }
    }
}

// The row loops of the forward and backward passes at a width known when
// compiling: the canonical network's one output per design parameter.
// The same operations as the loops over a runtime width, in the same
// order, but with the row's accumulators or gradients held in registers
// rather than reloaded for every rule.

/// `Σ_r n_r · weights[r]` over rule rows of `N` weights, rules with zero
/// strength skipped.
fn weighted_rows<const N: usize>(normalized: &[f64], weights: &[f64]) -> [f64; N] {
    let mut scores = [0.0; N];
    for (&n, row) in normalized.iter().zip(weights.chunks_exact(N)) {
        if n == 0.0 {
            continue;
        }
        for (s, &w) in scores.iter_mut().zip(row) {
            *s += n * w;
        }
    }
    scores
}

/// The consequent gradients `n_r · g` of every rule row, assigned when
/// `first` and added otherwise, and each row's `q_r = Σ_o w_ro · g_o`
/// pushed to `q`.
fn consequent_rows<const N: usize>(
    normalized: &[f64],
    weights: &[f64],
    g: &[f64; N],
    sum: &mut [f64],
    first: bool,
    q: &mut Vec<f64>,
) {
    for ((row, weights), &n) in sum.chunks_exact_mut(N).zip(weights.chunks_exact(N)).zip(normalized)
    {
        if first {
            for (slot, &g) in row.iter_mut().zip(g) {
                *slot = n * g;
            }
        } else {
            for (slot, &g) in row.iter_mut().zip(g) {
                *slot += n * g;
            }
        }
        let mut q_r = 0.0;
        for (&w, &g) in weights.iter().zip(g) {
            q_r += w * g;
        }
        q.push(q_r);
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
        for (r, row) in f.consequents.values.chunks_exact_mut(2).enumerate() {
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
        for (r, row) in f.consequents.values.chunks_exact_mut(2).enumerate() {
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
            fp.consequents.values[r * 2] += h;
            let up = fp.forward(&obs).scores[0];
            let mut fm = f.clone();
            fm.consequents.values[r * 2] -= h;
            let down = fm.forward(&obs).scores[0];
            let fd = (up - down) / (2.0 * h);
            assert!(
                (grads.consequents[r * 2] - fd).abs() < 1e-6,
                "rule {r}: analytic {} vs fd {fd}",
                grads.consequents[r * 2]
            );
        }
    }

    #[test]
    fn backward_matches_finite_difference_on_centers() {
        let mut f = tiny();
        for (r, row) in f.consequents.values.chunks_exact_mut(2).enumerate() {
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
        for row in f.consequents.values.chunks_exact_mut(2) {
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
    fn arena_passes_match_forward_bit_for_bit() {
        let space = DesignSpace::boom();
        let mut f = FnnBuilder::for_space(&space).build();
        f.embed_preference(3, 3.5, 5, 1.5);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let points = [space.smallest(), space.decode(777_777), space.largest()];
        let mut arena = PassArena::new();
        for round in 0..2 {
            // The second round refills buffers the first one grew.
            arena.clear();
            for (i, point) in points.iter().enumerate() {
                arena.push_observed(&f, &space, point, 0.5 + i as f64 + round as f64);
            }
            assert_eq!(arena.len(), points.len());
            for (i, point) in points.iter().enumerate() {
                let obs = f.observation(&space, point, 0.5 + i as f64 + round as f64);
                let pass = f.forward(&obs);
                let stored = arena.get(i);
                assert_eq!(bits(stored.scores()), bits(&pass.scores));
                assert_eq!(bits(stored.normalized_strengths()), bits(pass.normalized_strengths()));
                let d_scores: Vec<f64> = (0..f.output_count()).map(|o| o as f64 - 5.0).collect();
                assert_eq!(f.backward(stored, &d_scores), f.backward(&pass, &d_scores));
            }
        }
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
