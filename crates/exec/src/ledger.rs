//! The per-fidelity cost ledger — the single source of budget truth.
//!
//! A [`CostLedger`] sits between search code and the [`Evaluator`]s it
//! drives. Every proposal flows through [`CostLedger::evaluate`] /
//! [`CostLedger::evaluate_batch`] and lands in exactly one of three
//! counters:
//!
//! * **hit** — the ledger already evaluated this design earlier in the
//!   run; the stored CPI is replayed for free ([`LedgerEntry::Replayed`]).
//! * **miss + charged** — a design new to this run; the evaluator is
//!   invoked, the per-fidelity evaluation count rises by one
//!   ([`LedgerEntry::Charged`]). This charges the run's budget even when
//!   the evaluator answers from a memo warmed by *another* run — budgets
//!   meter proposals, not simulator work.
//! * **miss + denied** — a design new to this run proposed after the
//!   budget ran out; nothing is evaluated ([`LedgerEntry::Denied`]).
//!
//! The budget meters charged HF evaluations; LF charges never spend it.
//!
//! `model_time_units` accumulates the actual cost of fresh model runs
//! (an evaluator-memo answer costs nothing), in units of one simulated
//! trace, so both fidelities' spend is comparable on one axis.
//!
//! Search code proposes through a [`LedgerRouter`]: any [`Evaluator`]
//! is one, and wrappers that time or defer an evaluator implement it too.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

use dse_obs::{trace, Histogram};
use dse_space::{DesignPoint, DesignSpace};
use serde::{Deserialize, Serialize};

use crate::{Evaluation, Evaluator, Fidelity};

/// Cached per-fidelity handle for the evaluator-call latency histogram.
fn eval_batch_seconds(fidelity: Fidelity) -> &'static Histogram {
    static CELLS: [OnceLock<Histogram>; 2] = [const { OnceLock::new() }; 2];
    CELLS[fidelity as usize].get_or_init(|| {
        dse_obs::global().histogram_with(
            "exec_eval_batch_seconds",
            &[("fidelity", fidelity.key())],
            dse_obs::LATENCY_BUCKETS_S,
        )
    })
}

/// Cached per-fidelity handle for the scheduled-batch-size histogram.
fn eval_batch_points(fidelity: Fidelity) -> &'static Histogram {
    static CELLS: [OnceLock<Histogram>; 2] = [const { OnceLock::new() }; 2];
    CELLS[fidelity as usize].get_or_init(|| {
        dse_obs::global().histogram_with(
            "exec_eval_batch_points",
            &[("fidelity", fidelity.key())],
            dse_obs::SIZE_BUCKETS,
        )
    })
}

/// Counters for one fidelity of a [`CostLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FidelityLedger {
    /// Charged evaluations: run-unique designs handed to the evaluator.
    pub evaluations: u64,
    /// Proposals replayed from the ledger's run memo.
    pub cache_hits: u64,
    /// Proposals not in the run memo (charged or denied).
    pub cache_misses: u64,
    /// Proposals denied because the budget was exhausted.
    pub denied: u64,
    /// Cumulative cost of fresh model runs, in trace-simulation units.
    pub model_time_units: f64,
}

impl FidelityLedger {
    /// Total proposals that reached this fidelity.
    pub fn proposals(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }

    /// Adds another ledger's counters into this one.
    pub fn absorb(&mut self, other: FidelityLedger) {
        self.evaluations += other.evaluations;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.denied += other.denied;
        self.model_time_units += other.model_time_units;
    }
}

impl std::fmt::Display for FidelityLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // LF trace-equivalents are thousandths, so keep enough precision
        // for small totals instead of truncating them to "0.0".
        let time = self.model_time_units;
        let digits = if time != 0.0 && time < 10.0 { 3 } else { 1 };
        write!(
            f,
            "{} evals ({} hits / {} misses, {} denied, {:.digits$} time units)",
            self.evaluations, self.cache_hits, self.cache_misses, self.denied, time
        )
    }
}

/// The serializable roll-up of a [`CostLedger`] for reports.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LedgerSummary {
    /// Low-fidelity counters.
    pub low: FidelityLedger,
    /// High-fidelity counters.
    pub high: FidelityLedger,
    /// The HF budget, when one was installed.
    pub hf_budget: Option<u64>,
}

impl LedgerSummary {
    /// The counters of one fidelity.
    pub fn section(&self, fidelity: Fidelity) -> &FidelityLedger {
        match fidelity {
            Fidelity::Low => &self.low,
            Fidelity::High => &self.high,
        }
    }

    /// Both fidelities' counters, cheapest first.
    pub fn sections(&self) -> [(Fidelity, &FidelityLedger); 2] {
        [(Fidelity::Low, &self.low), (Fidelity::High, &self.high)]
    }

    /// Total model time spent at both fidelities.
    pub fn total_model_time(&self) -> f64 {
        self.low.model_time_units + self.high.model_time_units
    }

    /// Adds another summary's counters into this one (budgets add too).
    pub fn absorb(&mut self, other: LedgerSummary) {
        self.low.absorb(other.low);
        self.high.absorb(other.high);
        self.hf_budget = match (self.hf_budget, other.hf_budget) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0) + b.unwrap_or(0)),
        };
    }
}

impl std::fmt::Display for LedgerSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "LF: {}", self.low)?;
        write!(f, "HF: {}", self.high)?;
        if let Some(budget) = self.hf_budget {
            write!(f, " [budget {budget}]")?;
        }
        Ok(())
    }
}

/// The outcome of proposing one design to a [`CostLedger`].
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerEntry {
    /// A run-unique design: the evaluator ran and the budget was charged.
    Charged(Evaluation),
    /// A design this run already paid for; its CPI replayed for free.
    Replayed(f64),
    /// A new design proposed after the budget ran out; not evaluated.
    Denied,
}

impl LedgerEntry {
    /// The CPI, unless the proposal was denied.
    pub fn cpi(&self) -> Option<f64> {
        match self {
            LedgerEntry::Charged(ev) => Some(ev.cpi),
            LedgerEntry::Replayed(cpi) => Some(*cpi),
            LedgerEntry::Denied => None,
        }
    }

    /// Whether the proposal was denied for lack of budget.
    pub fn is_denied(&self) -> bool {
        matches!(self, LedgerEntry::Denied)
    }
}

/// One fidelity's run-local state: counters plus the run memo.
#[derive(Debug, Clone, PartialEq, Default)]
struct FidelityState {
    counters: FidelityLedger,
    seen: HashMap<u64, f64>,
}

/// Per-run evaluation accounting at both fidelities.
///
/// One ledger lives for one optimization run; evaluators (which may
/// carry memos shared across runs) are infrastructure handed in per
/// call. The ledger deduplicates proposals within the run, enforces the
/// HF budget, and meters model time — search code reads budgets and
/// counts *only* from here.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostLedger {
    state: [FidelityState; 2],
    budget: Option<u64>,
}

impl CostLedger {
    /// An empty ledger with no budget installed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: installs an HF evaluation budget.
    pub fn with_hf_budget(mut self, budget: usize) -> Self {
        self.set_hf_budget(budget);
        self
    }

    /// Installs (or replaces) the HF evaluation budget.
    pub fn set_hf_budget(&mut self, budget: usize) {
        self.budget = Some(budget as u64);
    }

    /// The installed budget, if any.
    pub fn hf_budget(&self) -> Option<usize> {
        self.budget.map(|b| b as usize)
    }

    /// HF evaluations still affordable (`None` when unlimited).
    pub fn hf_remaining(&self) -> Option<usize> {
        let spent = self.section(Fidelity::High).evaluations;
        self.budget.map(|b| b.saturating_sub(spent) as usize)
    }

    /// The counters of one fidelity.
    pub fn section(&self, fidelity: Fidelity) -> &FidelityLedger {
        &self.state[fidelity as usize].counters
    }

    /// Charged evaluation count of one fidelity.
    pub fn evaluations(&self, fidelity: Fidelity) -> usize {
        self.section(fidelity).evaluations as usize
    }

    /// The CPI this run already paid for, if any (uncounted peek).
    pub fn known(&self, fidelity: Fidelity, key: u64) -> Option<f64> {
        self.state[fidelity as usize].seen.get(&key).copied()
    }

    /// Whether this run already evaluated the design (uncounted).
    pub fn knows(&self, fidelity: Fidelity, key: u64) -> bool {
        self.state[fidelity as usize].seen.contains_key(&key)
    }

    /// Number of run-unique designs evaluated at one fidelity.
    pub fn unique_designs(&self, fidelity: Fidelity) -> usize {
        self.state[fidelity as usize].seen.len()
    }

    /// Proposes one design: replay, charge, or deny.
    pub fn evaluate<E: Evaluator + ?Sized>(
        &mut self,
        evaluator: &mut E,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> LedgerEntry {
        self.evaluate_batch(evaluator, space, std::slice::from_ref(point))
            .pop()
            .expect("one-point batch produced no entry")
    }

    /// Proposes a batch of designs, in input order.
    ///
    /// Accounting is *counter-exact* with proposing each point one at a
    /// time: run-memo replays and budget charges happen sequentially in
    /// input order (so a budget that runs out mid-batch denies exactly
    /// the points the sequential walk would deny), and only the
    /// run-unique survivors go to the evaluator — in one
    /// `evaluate_batch` call, where backends parallelize.
    pub fn evaluate_batch<E: Evaluator + ?Sized>(
        &mut self,
        evaluator: &mut E,
        space: &DesignSpace,
        points: &[DesignPoint],
    ) -> Vec<LedgerEntry> {
        enum Slot {
            Ready(LedgerEntry),
            Fresh(usize),
            Dup(usize),
        }
        let fidelity = evaluator.fidelity();
        let before = *self.section(fidelity);
        let budgeted = fidelity == Fidelity::High;
        // Pass 1 (sequential, input order): replay run-memo hits, fold
        // within-batch duplicates, charge or deny the rest.
        let mut scheduled: Vec<DesignPoint> = Vec::new();
        let mut scheduled_keys: HashMap<u64, usize> = HashMap::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(points.len());
        for point in points {
            let key = space.encode(point);
            if let Some(&cpi) = self.state[fidelity as usize].seen.get(&key) {
                self.section_mut(fidelity).cache_hits += 1;
                slots.push(Slot::Ready(LedgerEntry::Replayed(cpi)));
            } else if let Some(&idx) = scheduled_keys.get(&key) {
                // The sequential walk would answer this duplicate from
                // the run memo right after its first occurrence ran.
                self.section_mut(fidelity).cache_hits += 1;
                slots.push(Slot::Dup(idx));
            } else {
                self.section_mut(fidelity).cache_misses += 1;
                let exhausted = budgeted && self.hf_remaining() == Some(0);
                if exhausted {
                    self.section_mut(fidelity).denied += 1;
                    slots.push(Slot::Ready(LedgerEntry::Denied));
                } else {
                    self.section_mut(fidelity).evaluations += 1;
                    scheduled_keys.insert(key, scheduled.len());
                    slots.push(Slot::Fresh(scheduled.len()));
                    scheduled.push(point.clone());
                }
            }
        }
        // Pass 2: one batch call into the evaluator (parallel backends
        // keep this bit-identical to the sequential walk).
        let eval_start = Instant::now();
        let evaluated = if scheduled.is_empty() {
            Vec::new()
        } else {
            evaluator.evaluate_batch(space, &scheduled)
        };
        let eval_elapsed = eval_start.elapsed();
        assert_eq!(
            evaluated.len(),
            scheduled.len(),
            "evaluator returned {} results for {} designs",
            evaluated.len(),
            scheduled.len()
        );
        // Pass 3 (sequential, scheduled order): meter fresh model runs
        // and record the run memo.
        let cost = evaluator.cost_per_eval();
        for (point, ev) in scheduled.iter().zip(&evaluated) {
            if !ev.cached {
                self.section_mut(fidelity).model_time_units += cost;
            }
            self.state[fidelity as usize].seen.insert(space.encode(point), ev.cpi);
        }
        if !points.is_empty() {
            if !scheduled.is_empty() {
                eval_batch_seconds(fidelity).observe_duration(eval_elapsed);
                eval_batch_points(fidelity).observe(scheduled.len() as f64);
            }
            if trace::enabled() {
                // Every ledger mutation flows through this method, so
                // summing these deltas per fidelity over a whole trace
                // reproduces the final `LedgerSummary` exactly — the
                // invariant `trace-report` checks offline.
                let after = *self.section(fidelity);
                let mut fields: Vec<(&str, trace::FieldValue)> = vec![
                    ("fidelity", fidelity.key().into()),
                    ("proposals", points.len().into()),
                    ("evaluations", (after.evaluations - before.evaluations).into()),
                    ("cache_hits", (after.cache_hits - before.cache_hits).into()),
                    ("cache_misses", (after.cache_misses - before.cache_misses).into()),
                    ("denied", (after.denied - before.denied).into()),
                    ("model_time_units", (after.model_time_units - before.model_time_units).into()),
                    ("dur_us", (eval_elapsed.as_micros() as u64).into()),
                ];
                // Span links: when a coalesced service batch parked the
                // trace ids it serves (`trace::set_batch_links`), the
                // batch record names every member request it fanned
                // cost back to.
                let links = trace::take_batch_links();
                if !links.is_empty() {
                    fields.push(("links", links.into()));
                }
                trace::event("ledger_batch", &fields);
            }
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(entry) => entry,
                Slot::Fresh(i) => LedgerEntry::Charged(evaluated[i].clone()),
                Slot::Dup(i) => LedgerEntry::Replayed(evaluated[i].cpi),
            })
            .collect()
    }

    /// The serializable roll-up for reports.
    pub fn summary(&self) -> LedgerSummary {
        LedgerSummary {
            low: *self.section(Fidelity::Low),
            high: *self.section(Fidelity::High),
            hf_budget: self.budget,
        }
    }

    fn section_mut(&mut self, fidelity: Fidelity) -> &mut FidelityLedger {
        &mut self.state[fidelity as usize].counters
    }
}

impl std::fmt::Display for CostLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.summary().fmt(f)
    }
}

/// Anything that can answer proposals through a [`CostLedger`]. Every
/// [`Evaluator`] is one (the blanket impl); the MFRL phases are generic
/// over this, so wrappers that time an evaluator, or build it on first
/// use, slot in without the phases knowing.
pub trait LedgerRouter {
    /// Proposes a batch, in input order, through the ledger.
    fn route_batch(
        &mut self,
        ledger: &mut CostLedger,
        space: &DesignSpace,
        points: &[DesignPoint],
    ) -> Vec<LedgerEntry>;

    /// Proposes one design (a one-point batch).
    fn route(
        &mut self,
        ledger: &mut CostLedger,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> LedgerEntry {
        self.route_batch(ledger, space, std::slice::from_ref(point))
            .pop()
            .expect("one-point batch produced no entry")
    }
}

impl<E: Evaluator + ?Sized> LedgerRouter for E {
    fn route_batch(
        &mut self,
        ledger: &mut CostLedger,
        space: &DesignSpace,
        points: &[DesignPoint],
    ) -> Vec<LedgerEntry> {
        ledger.evaluate_batch(self, space, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheStats, CpiCache};

    /// A memoized test evaluator: CPI = encoded index as f64.
    struct Memo {
        cache: CpiCache,
        runs: usize,
    }

    impl Memo {
        fn new() -> Self {
            Self { cache: CpiCache::new(), runs: 0 }
        }
    }

    impl Evaluator for Memo {
        fn fidelity(&self) -> Fidelity {
            Fidelity::High
        }
        fn evaluate_batch(
            &mut self,
            space: &DesignSpace,
            points: &[DesignPoint],
        ) -> Vec<Evaluation> {
            points
                .iter()
                .map(|p| {
                    let key = space.encode(p);
                    match self.cache.get(key) {
                        Some(cpi) => Evaluation::new(cpi, Fidelity::High).cached(true),
                        None => {
                            self.runs += 1;
                            let cpi = key as f64;
                            self.cache.insert(key, cpi);
                            Evaluation::new(cpi, Fidelity::High)
                        }
                    }
                })
                .collect()
        }
        fn cache_stats(&self) -> CacheStats {
            self.cache.stats()
        }
        fn cost_per_eval(&self) -> f64 {
            3.0
        }
    }

    /// A fidelity-tagged trivial evaluator: CPI = encoded index, fixed cost.
    struct Flat(Fidelity, f64);

    impl Evaluator for Flat {
        fn fidelity(&self) -> Fidelity {
            self.0
        }
        fn evaluate_batch(
            &mut self,
            space: &DesignSpace,
            points: &[DesignPoint],
        ) -> Vec<Evaluation> {
            points.iter().map(|p| Evaluation::new(space.encode(p) as f64, self.0)).collect()
        }
        fn cost_per_eval(&self) -> f64 {
            self.1
        }
    }

    fn points(space: &DesignSpace, codes: &[u64]) -> Vec<DesignPoint> {
        codes.iter().map(|&c| space.decode(c)).collect()
    }

    #[test]
    fn charges_replays_and_denies_in_input_order() {
        let space = DesignSpace::boom();
        let mut ledger = CostLedger::new().with_hf_budget(2);
        let mut memo = Memo::new();
        // 5 → charged; 5 → replayed; 9 → charged (budget now spent);
        // 9 → replayed (already paid); 13 → denied.
        let batch = points(&space, &[5, 5, 9, 9, 13]);
        let entries = ledger.evaluate_batch(&mut memo, &space, &batch);
        assert_eq!(entries[0], LedgerEntry::Charged(Evaluation::new(5.0, Fidelity::High)));
        assert_eq!(entries[1], LedgerEntry::Replayed(5.0));
        assert_eq!(entries[2].cpi(), Some(9.0));
        assert_eq!(entries[3], LedgerEntry::Replayed(9.0));
        assert!(entries[4].is_denied());
        let high = *ledger.section(Fidelity::High);
        assert_eq!(high.evaluations, 2);
        assert_eq!(high.cache_hits, 2);
        assert_eq!(high.cache_misses, 3);
        assert_eq!(high.denied, 1);
        assert_eq!(high.model_time_units, 6.0);
        assert_eq!(ledger.hf_remaining(), Some(0));
        assert_eq!(memo.runs, 2);
    }

    #[test]
    fn batch_accounting_matches_the_sequential_walk() {
        let space = DesignSpace::boom();
        let codes = [3u64, 17, 3, 42, 17, 8, 42, 99, 3];
        let batch = points(&space, &codes);

        let mut batched_ledger = CostLedger::new().with_hf_budget(4);
        let mut batched_memo = Memo::new();
        let batched = batched_ledger.evaluate_batch(&mut batched_memo, &space, &batch);

        let mut walked_ledger = CostLedger::new().with_hf_budget(4);
        let mut walked_memo = Memo::new();
        let walked: Vec<LedgerEntry> =
            batch.iter().map(|p| walked_ledger.evaluate(&mut walked_memo, &space, p)).collect();

        assert_eq!(batched, walked);
        assert_eq!(batched_ledger, walked_ledger);
        assert_eq!(batched_memo.cache.stats(), walked_memo.cache.stats());
    }

    #[test]
    fn warm_evaluator_memo_still_charges_the_run() {
        let space = DesignSpace::boom();
        let mut memo = Memo::new();
        // Warm the evaluator's memo in a first run.
        let mut first = CostLedger::new();
        first.evaluate(&mut memo, &space, &space.decode(7));
        // A second run proposing the same design is still charged one
        // evaluation — but no fresh model time is spent.
        let mut second = CostLedger::new().with_hf_budget(1);
        let entry = second.evaluate(&mut memo, &space, &space.decode(7));
        match entry {
            LedgerEntry::Charged(ev) => assert!(ev.cached),
            other => panic!("expected a charged entry, got {other:?}"),
        }
        assert_eq!(second.evaluations(Fidelity::High), 1);
        assert_eq!(second.section(Fidelity::High).model_time_units, 0.0);
        assert_eq!(second.hf_remaining(), Some(0));
        assert_eq!(memo.runs, 1);
    }

    #[test]
    fn zero_budget_denies_everything_and_one_allows_one() {
        let space = DesignSpace::boom();
        let mut memo = Memo::new();
        let mut zero = CostLedger::new().with_hf_budget(0);
        assert!(zero.evaluate(&mut memo, &space, &space.decode(4)).is_denied());
        assert_eq!(zero.section(Fidelity::High).denied, 1);
        assert_eq!(memo.runs, 0);

        let mut one = CostLedger::new().with_hf_budget(1);
        let batch = points(&space, &[4, 6]);
        let entries = one.evaluate_batch(&mut memo, &space, &batch);
        assert_eq!(entries[0].cpi(), Some(4.0));
        assert!(entries[1].is_denied());
        // The design this run paid for replays even with zero remaining.
        assert_eq!(one.evaluate(&mut memo, &space, &space.decode(4)), LedgerEntry::Replayed(4.0));
    }

    #[test]
    fn fidelities_account_separately() {
        let space = DesignSpace::boom();
        let mut ledger = CostLedger::new().with_hf_budget(0);
        // LF evaluations are never limited by the budget.
        let entry = ledger.evaluate(&mut Flat(Fidelity::Low, 0.001), &space, &space.decode(11));
        assert_eq!(entry.cpi(), Some(11.0));
        assert_eq!(ledger.evaluations(Fidelity::Low), 1);
        assert_eq!(ledger.evaluations(Fidelity::High), 0);
        assert!(ledger.knows(Fidelity::Low, 11));
        assert!(!ledger.knows(Fidelity::High, 11));
        let summary = ledger.summary();
        assert_eq!(summary.low.evaluations, 1);
        assert_eq!(summary.hf_budget, Some(0));
        assert!((summary.total_model_time() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn each_fidelity_keeps_its_own_memo_and_counters() {
        let space = DesignSpace::boom();
        let mut ledger = CostLedger::new();
        for fidelity in Fidelity::ALL {
            let entries =
                ledger.evaluate_batch(&mut Flat(fidelity, 0.5), &space, &points(&space, &[2, 2]));
            assert_eq!(entries[0].cpi(), Some(2.0));
            assert_eq!(entries[1], LedgerEntry::Replayed(2.0));
        }
        for fidelity in Fidelity::ALL {
            let section = ledger.section(fidelity);
            assert_eq!((section.evaluations, section.cache_hits), (1, 1));
            assert!(ledger.knows(fidelity, 2));
            assert_eq!(ledger.unique_designs(fidelity), 1);
        }
        // The summary's sections are exactly the per-fidelity counters,
        // and totals are the sums over them.
        let summary = ledger.summary();
        for (fidelity, section) in summary.sections() {
            assert_eq!(section, ledger.section(fidelity));
        }
        assert!((summary.total_model_time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summaries_absorb_counters_and_budgets() {
        let mut a = LedgerSummary {
            low: FidelityLedger { evaluations: 2, ..Default::default() },
            high: FidelityLedger { evaluations: 3, model_time_units: 9.0, ..Default::default() },
            hf_budget: Some(5),
        };
        let b = LedgerSummary {
            high: FidelityLedger { evaluations: 1, model_time_units: 3.0, ..Default::default() },
            hf_budget: None,
            ..Default::default()
        };
        a.absorb(b);
        assert_eq!(a.low.evaluations, 2);
        assert_eq!(a.high.evaluations, 4);
        assert_eq!(a.high.model_time_units, 12.0);
        assert_eq!(a.hf_budget, Some(5));
    }

    #[test]
    fn summary_round_trips_through_serde_and_displays() {
        let summary = CostLedger::new().with_hf_budget(9).summary();
        let content = serde::Serialize::to_content(&summary);
        let restored: LedgerSummary = serde::Deserialize::from_content(&content).unwrap();
        assert_eq!(summary, restored);
        let text = format!("{summary}");
        assert!(text.contains("LF:") && text.contains("HF:") && text.contains("budget 9]"));
    }
}
