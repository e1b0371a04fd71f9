//! Construction of the canonical DSE network.

use dse_space::{DesignSpace, MergedParam, Param};

use crate::{Fnn, InputKind, InputSpec, Membership, MembershipKind};

/// The assumed CPI scale that places the metric's low/avg/high centers.
const METRIC_RANGE: (f64, f64) = (0.2, 4.0);

/// Builder for the canonical micro-architecture DSE network: one CPI
/// metric antecedent plus the six [`MergedParam`] antecedents, with one
/// output score per raw [`Param`] (192 rules × 11 outputs).
///
/// Defaults place every membership center by dividing the input's scale
/// (geometric mean for the exponentially-spaced cache sizes, arithmetic
/// midpoint otherwise); §2.3's "wisely initialized centers" workflow and
/// the Fig. 6 initialization study go through [`FnnBuilder::param_center`].
///
/// # Examples
///
/// ```
/// use dse_fnn::FnnBuilder;
/// use dse_space::{DesignSpace, MergedParam};
///
/// let space = DesignSpace::boom();
/// // A designer who knows the workload has a big footprint starts the
/// // "L1 is enough" threshold higher:
/// let fnn = FnnBuilder::for_space(&space)
///     .param_center(MergedParam::L1Size, 48.0)
///     .build();
/// assert_eq!(fnn.rule_count(), 192);
/// ```
#[derive(Debug, Clone)]
pub struct FnnBuilder {
    param_centers: Vec<f64>,
    param_widths: Vec<f64>,
}

impl FnnBuilder {
    /// Starts a builder with default centers derived from `space`.
    pub fn for_space(space: &DesignSpace) -> Self {
        let mut centers = Vec::with_capacity(MergedParam::COUNT);
        let mut widths = Vec::with_capacity(MergedParam::COUNT);
        for g in MergedParam::ALL {
            let (lo, hi) = g.range(space);
            let center = match g {
                // Cache capacities are exponentially spaced; anchor the
                // low/enough crossover at the geometric mean.
                MergedParam::L1Size | MergedParam::L2Size => (lo * hi).sqrt(),
                _ => (lo + hi) / 2.0,
            };
            centers.push(center);
            widths.push(((hi - lo) / 8.0).max(1e-6));
        }
        Self { param_centers: centers, param_widths: widths }
    }

    /// Overrides the low/enough crossover center of one merged
    /// parameter (the Fig. 6 initialization knob).
    pub fn param_center(mut self, group: MergedParam, center: f64) -> Self {
        self.param_centers[group.index()] = center;
        self
    }

    /// The current center configured for `group` (for inspection in the
    /// initialization experiments).
    pub fn center_of(&self, group: MergedParam) -> f64 {
        self.param_centers[group.index()]
    }

    /// Assembles the network with zero-initialized consequents.
    pub fn build(self) -> Fnn {
        let (lo, hi) = METRIC_RANGE;
        let range = hi - lo;
        let metric = InputSpec {
            name: "CPI".to_string(),
            kind: InputKind::Metric,
            memberships: vec![
                Membership::new(MembershipKind::InvSigmoid, lo + range * 0.25, range / 8.0),
                Membership::new(MembershipKind::Bell, lo + range * 0.5, range / 4.0),
                Membership::new(MembershipKind::Sigmoid, lo + range * 0.75, range / 8.0),
            ],
        };
        let mut inputs = Vec::with_capacity(1 + MergedParam::COUNT);
        inputs.push(metric);
        for g in MergedParam::ALL {
            let c = self.param_centers[g.index()];
            let w = self.param_widths[g.index()];
            inputs.push(InputSpec {
                name: g.short_name().to_string(),
                kind: InputKind::Parameter,
                memberships: vec![
                    Membership::new(MembershipKind::InvSigmoid, c, w),
                    Membership::new(MembershipKind::Sigmoid, c, w),
                ],
            });
        }
        let outputs = Param::ALL.iter().map(|p| p.short_name().to_string()).collect();
        Fnn::new(inputs, outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observation;

    #[test]
    fn canonical_shape() {
        let space = DesignSpace::boom();
        let f = FnnBuilder::for_space(&space).build();
        assert_eq!(f.inputs().len(), 7);
        assert_eq!(f.output_count(), Param::COUNT);
        assert_eq!(f.rule_count(), 3 * 2usize.pow(6));
    }

    #[test]
    fn cache_centers_use_geometric_mean() {
        let space = DesignSpace::boom();
        let b = FnnBuilder::for_space(&space);
        let (lo, hi) = MergedParam::L2Size.range(&space);
        assert!((b.center_of(MergedParam::L2Size) - (lo * hi).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn custom_center_is_respected() {
        let space = DesignSpace::boom();
        let f = FnnBuilder::for_space(&space).param_center(MergedParam::L1Size, 48.0).build();
        let l1_input = &f.inputs()[1 + MergedParam::L1Size.index()];
        assert_eq!(l1_input.memberships[0].center(), 48.0);
        assert_eq!(l1_input.memberships[1].center(), 48.0);
    }

    #[test]
    fn zero_init_scores_are_zero() {
        let space = DesignSpace::boom();
        let f = FnnBuilder::for_space(&space).build();
        let pass = f.forward(&Observation { values: vec![1.0, 8.0, 256.0, 2.0, 64.0, 5.0, 8.0] });
        assert!(pass.scores.iter().all(|&s| s == 0.0));
    }
}
