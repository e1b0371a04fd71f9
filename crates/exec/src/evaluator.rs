//! The one cost-model interface, and the one feasibility interface.
//!
//! Every cost model in the workspace — the analytical LF proxy (through
//! `dse_mfrl::LfEvaluator`) and the cycle-level HF simulator —
//! implements [`Evaluator`] directly: hand it a batch of
//! design points, get back one [`Evaluation`] per point carrying the CPI,
//! the fidelity tag and whether the evaluator's own memo answered it.
//! Search code never talks to an evaluator directly; it goes through a
//! [`CostLedger`](crate::CostLedger), which is the single source of
//! budget truth. The RL phases and the baseline optimizers ask
//! feasibility questions of the same [`Constraint`].

use dse_space::{DesignPoint, DesignSpace};

use crate::CacheStats;
use serde::{Content, DeError, Deserialize, Serialize};

/// The fidelity of a cost model: the paper's two.
///
/// [`Fidelity::Low`] is the analytical proxy the RL agent explores
/// with; [`Fidelity::High`] is the cycle-level simulator it spends its
/// few simulations on. Ordering (`<`, `>`) puts the cheaper one first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fidelity {
    /// The cheap analytical proxy (~1000x cheaper than a simulation).
    Low,
    /// The cycle-level simulator, the ground truth.
    High,
}

impl Fidelity {
    /// Both fidelities, cheapest first.
    pub const ALL: [Fidelity; 2] = [Fidelity::Low, Fidelity::High];

    /// A short human-readable label ("LF" / "HF").
    pub const fn label(self) -> &'static str {
        match self {
            Fidelity::Low => "LF",
            Fidelity::High => "HF",
        }
    }

    /// The lowercase key used in metric labels, trace events and wire
    /// formats ("lf" / "hf").
    pub const fn key(self) -> &'static str {
        match self {
            Fidelity::Low => "lf",
            Fidelity::High => "hf",
        }
    }

    /// Looks a fidelity up by its wire/metric key (case-insensitive; the
    /// human-readable labels are accepted too).
    pub fn from_key(name: &str) -> Option<Fidelity> {
        Self::ALL
            .into_iter()
            .find(|f| f.key().eq_ignore_ascii_case(name) || f.label().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl Serialize for Fidelity {
    fn to_content(&self) -> Content {
        Content::Str(self.key().to_owned())
    }
}

impl Deserialize for Fidelity {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let name = c.as_str().ok_or_else(|| DeError::new("expected a fidelity name"))?;
        Fidelity::from_key(name).ok_or_else(|| DeError::new(format!("unknown fidelity {name:?}")))
    }
}

/// One evaluated design point: the CPI figure plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Cycles per instruction.
    pub cpi: f64,
    /// The cost model that produced it.
    pub fidelity: Fidelity,
    /// Whether the evaluator answered from its own persistent memo
    /// (`true` means no model run happened for this point).
    pub cached: bool,
}

impl Evaluation {
    /// A fresh (non-memoized) evaluation at `fidelity`.
    pub fn new(cpi: f64, fidelity: Fidelity) -> Self {
        Self { cpi, fidelity, cached: false }
    }

    /// Marks the evaluation as answered from the evaluator's memo.
    pub fn cached(mut self, cached: bool) -> Self {
        self.cached = cached;
        self
    }

    /// Wraps a batch of bare CPI figures, stamping each with `fidelity`.
    pub fn batch(cpis: Vec<f64>, fidelity: Fidelity) -> Vec<Evaluation> {
        cpis.into_iter().map(|cpi| Evaluation::new(cpi, fidelity)).collect()
    }
}

/// A batch-first cost model.
///
/// Implementations must keep `evaluate_batch` semantically identical to
/// evaluating each point in input order — same values, same memo
/// accounting — and backends built on [`par_map`](crate::par_map) must
/// keep it bit-identical to that sequential walk at any thread count.
///
/// Evaluators are *infrastructure*: they may keep a persistent memo
/// shared across runs, but they hold no per-run budget state. Budgets,
/// per-run deduplication and cost counters all live in the
/// [`CostLedger`](crate::CostLedger) that drives them.
pub trait Evaluator {
    /// The fidelity of this cost model.
    fn fidelity(&self) -> Fidelity;

    /// Evaluates every design in `points`, in input order.
    fn evaluate_batch(&mut self, space: &DesignSpace, points: &[DesignPoint]) -> Vec<Evaluation>;

    /// Evaluates a single design (a one-element batch).
    fn evaluate(&mut self, space: &DesignSpace, point: &DesignPoint) -> Evaluation {
        self.evaluate_batch(space, std::slice::from_ref(point))
            .pop()
            .expect("evaluate_batch returned no result for a one-point batch")
    }

    /// Counters of the evaluator's own persistent memo, when it has one.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Model-time units one fresh (non-memoized) evaluation costs.
    ///
    /// The unit is one simulated trace: the HF simulator reports its
    /// trace count, the analytical proxy a ~1000x smaller figure, so a
    /// ledger's cumulative `model_time_units` compare across fidelities.
    fn cost_per_eval(&self) -> f64 {
        1.0
    }
}

/// A feasibility constraint on designs (the area limit, optionally a
/// leakage budget).
///
/// The answer must be a pure function of the point: the RL phases ask
/// once per point and replay the answer.
pub trait Constraint {
    /// Whether `point` is feasible.
    fn fits(&self, space: &DesignSpace, point: &DesignPoint) -> bool;
}

impl<F: Fn(&DesignSpace, &DesignPoint) -> bool> Constraint for F {
    fn fits(&self, space: &DesignSpace, point: &DesignPoint) -> bool {
        self(space, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelities_order_label_and_round_trip() {
        assert!(Fidelity::Low < Fidelity::High);
        assert_eq!(Fidelity::from_key("hf"), Some(Fidelity::High));
        assert_eq!(Fidelity::from_key("LF"), Some(Fidelity::Low));
        assert_eq!(Fidelity::from_key("learned"), None);
        assert_eq!(Fidelity::from_key("medium"), None);
        for fidelity in Fidelity::ALL {
            let content = fidelity.to_content();
            assert_eq!(Fidelity::from_content(&content).unwrap(), fidelity);
        }
        assert!(Fidelity::from_content(&Content::Str("warp".into())).is_err());
    }

    #[test]
    fn evaluation_carries_provenance() {
        let ev = Evaluation::new(2.0, Fidelity::High);
        assert!(!ev.cached);
        assert_eq!(format!("{}", ev.fidelity), "HF");
        assert!(ev.cached(true).cached);
    }

    #[test]
    fn single_evaluate_defaults_to_a_one_point_batch() {
        struct Doubler;
        impl Evaluator for Doubler {
            fn fidelity(&self) -> Fidelity {
                Fidelity::Low
            }
            fn evaluate_batch(
                &mut self,
                space: &DesignSpace,
                points: &[DesignPoint],
            ) -> Vec<Evaluation> {
                points
                    .iter()
                    .map(|p| Evaluation::new(2.0 * space.encode(p) as f64, Fidelity::Low))
                    .collect()
            }
        }
        let space = DesignSpace::boom();
        let point = space.decode(21);
        assert_eq!(Doubler.evaluate(&space, &point).cpi, 42.0);
        assert_eq!(Doubler.cost_per_eval(), 1.0);
        assert_eq!(Doubler.cache_stats(), CacheStats::default());
    }
}
