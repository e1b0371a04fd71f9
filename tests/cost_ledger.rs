//! Cross-layer accounting: the run's `CostLedger` must agree, counter
//! for counter, with the evaluators' own bookkeeping — for the full
//! LF→HF flow and for every Fig. 5 baseline under the same budget. The
//! ledger is the single source of budget truth; these tests pin that
//! claim against the real simulator stack.

use archdse::eval::{AreaLimit, SimulatorHf};
use archdse::{DesignSpace, Evaluator, Explorer, Fidelity};
use dse_baselines::{
    ActBoostOptimizer, BagGbrtOptimizer, BoomExplorerOptimizer, Optimizer, RandomForestOptimizer,
    RandomSearchOptimizer, ScboOptimizer,
};
use dse_mfrl::LowFidelity as _;
use dse_workloads::Benchmark;

fn explorer(hf_budget: usize) -> Explorer {
    Explorer::for_benchmark(Benchmark::Quicksort)
        .lf_episodes(30)
        .hf_budget(hf_budget)
        .trace_len(2_000)
        .seed(7)
}

#[test]
fn full_flow_ledger_matches_the_evaluators_own_counters() {
    let ex = explorer(5);
    let mut hf = ex.hf_evaluator();
    let report = ex.run_with_hf(&mut hf);

    // HF: the ledger charged exactly the designs the cold simulator
    // memoized, and the phase outcome mirrors the same number.
    let high = *report.ledger.section(Fidelity::High);
    assert_eq!(high.evaluations as usize, hf.evaluations());
    assert_eq!(high.evaluations as usize, hf.cache_stats().entries);
    assert_eq!(high.evaluations as usize, report.hf.evaluations);
    assert_eq!(report.ledger.hf_budget(), Some(5));

    // Every HF proposal was either charged or denied; replays hit the
    // run memo.
    assert_eq!(high.cache_misses, high.evaluations + high.denied);

    // Model time is metered per fresh evaluation at the evaluator's own
    // rate (one unit per trace for the simulator).
    let hf_rate = Evaluator::cost_per_eval(&hf);
    assert!(hf_rate >= 1.0);
    let expected = high.evaluations as f64 * hf_rate;
    assert!(
        (high.model_time_units - expected).abs() < 1e-9,
        "HF model time {} != {} evals x {} units",
        high.model_time_units,
        high.evaluations,
        hf_rate
    );

    // LF: the training episodes all charge the ledger; the analytical
    // model is unbudgeted and uncached, so nothing is denied and every
    // evaluation costs its trace-equivalent share.
    let low = *report.ledger.section(Fidelity::Low);
    assert!(low.evaluations > 0, "LF training must be metered");
    assert_eq!(low.denied, 0);
    assert_eq!(low.cache_misses, low.evaluations);
    let lf_rate = ex.lf_model().cost_per_eval();
    let expected = low.evaluations as f64 * lf_rate;
    assert!(
        (low.model_time_units - expected).abs() < 1e-6 * expected.max(1.0),
        "LF model time {} != {} evals x {} units",
        low.model_time_units,
        low.evaluations,
        lf_rate
    );

    // And the roll-up agrees with the sections it summarizes.
    let summary = report.ledger.summary();
    assert_eq!(summary.high, high);
    assert_eq!(summary.low, low);
    assert_eq!(summary.hf_budget, Some(5));
}

#[test]
fn every_baseline_ledger_matches_its_objective_at_the_same_budget() {
    let space = DesignSpace::boom();
    let budget = 5;
    let mut optimizers: Vec<Box<dyn Optimizer>> = vec![
        Box::new(RandomSearchOptimizer),
        Box::new(RandomForestOptimizer),
        Box::new(ActBoostOptimizer),
        Box::new(BagGbrtOptimizer),
        Box::new(BoomExplorerOptimizer),
        Box::new(ScboOptimizer::default()),
    ];
    for opt in &mut optimizers {
        let mut hf = SimulatorHf::for_benchmark(Benchmark::Quicksort, 2_000, 3, 1.0);
        let result = opt.optimize(&space, &mut hf, &AreaLimit::new(8.0), budget, 3);
        let name = opt.name();

        // Identical accounting across methods: the budget is installed
        // and spent in full, once per unique design.
        assert_eq!(result.ledger.hf_budget, Some(budget as u64), "{name}");
        assert_eq!(result.ledger.high.evaluations, budget as u64, "{name}");
        assert_eq!(result.history.len(), budget, "{name}");

        // The ledger's charge count is exactly what reached the cold
        // memoized simulator underneath the objective.
        assert_eq!(result.ledger.high.evaluations as usize, hf.evaluations(), "{name}");
        assert_eq!(
            result.ledger.high.cache_misses,
            result.ledger.high.evaluations + result.ledger.high.denied,
            "{name}"
        );

        // Baselines never touch the analytical model.
        assert_eq!(result.ledger.low.evaluations, 0, "{name}");
    }
}

#[test]
fn zero_hf_budget_denies_the_anchor_and_never_simulates() {
    let ex = explorer(0);
    let mut hf = ex.hf_evaluator();
    let report = ex.run_with_hf(&mut hf);
    assert_eq!(report.ledger.hf_budget(), Some(0));
    assert_eq!(report.ledger.evaluations(Fidelity::High), 0);
    assert_eq!(hf.evaluations(), 0, "a zero budget must not touch the simulator");
    assert!(report.ledger.section(Fidelity::High).denied >= 1, "the anchor denial is recorded");
    assert!(report.best_cpi.is_finite() && report.best_cpi > 0.0, "LF fallback still answers");
    assert!(report.hf.history.is_empty());
}

#[test]
fn hf_budget_of_one_charges_exactly_the_anchor() {
    let ex = explorer(1);
    let mut hf = ex.hf_evaluator();
    let report = ex.run_with_hf(&mut hf);
    assert_eq!(report.ledger.evaluations(Fidelity::High), 1);
    assert_eq!(hf.evaluations(), 1);
    assert_eq!(report.ledger.hf_remaining(), Some(0));
    assert_eq!(report.hf.history.len(), 1);
    // The one charge is the LF-converged anchor, and it is the winner.
    let (anchor, anchor_cpi) = &report.hf.history[0];
    assert_eq!(report.best_point, *anchor);
    assert_eq!(report.best_cpi.to_bits(), anchor_cpi.to_bits());
}
