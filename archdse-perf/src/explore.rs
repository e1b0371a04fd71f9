//! `explore-fig5`: sequential Fig. 5 general-purpose campaigns.

use std::time::Instant;

use archdse::Explorer;
use dse_exec::{CostLedger, Fidelity, LedgerSummary};
use dse_fnn::{extract_rules, RuleExtractionConfig};
use dse_mfrl::{Constraint as _, HfPhase, HfPhaseConfig, LfPhase, LfPhaseConfig, RewardKind};
use serde_json::Value;

use crate::layers::{TimedConstraint, TimedLf, TimedRouter};
use crate::report::{timed_setup, Ctx, WorkloadResult};
use crate::stats::{cpi_digest, mean, ms, ratio};

/// Campaign seeds per `--seed` block: `--seed s` runs seeds
/// `16s + 1 ..= 16s + 16`, cycling when the window allows more.
const BLOCK: u64 = 16;

/// Campaigns always run (and digested), however short the window.
const DIGEST_CAMPAIGNS: usize = 2;

const HF_BUDGET: usize = 9;
const LF_EPISODES: usize = 300;
const AREA_MM2: f64 = 8.0;

/// The paper's Fig. 5 configuration, spelled out so a change of the
/// explorer's defaults cannot silently change the workload.
fn campaign(seed: u64) -> Explorer {
    Explorer::general_purpose()
        .seed(seed)
        .lf_episodes(LF_EPISODES)
        .hf_budget(HF_BUDGET)
        .trace_len(30_000)
        .area_limit_mm2(AREA_MM2)
        .tiers(2)
}

/// What a campaign must reproduce exactly, however it is driven.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    best_code: u64,
    best_cpi_bits: u64,
    hf_evaluations: usize,
    ledger: LedgerSummary,
}

fn untraced(seed: u64) -> Outcome {
    let explorer = campaign(seed);
    let report = explorer.run();
    Outcome {
        best_code: explorer.space().encode(&report.best_point),
        best_cpi_bits: report.best_cpi.to_bits(),
        hf_evaluations: report.hf.evaluations,
        ledger: report.ledger.summary(),
    }
}

/// Per-campaign layer times and counts of one traced campaign.
#[derive(Debug, Default)]
struct Layers {
    build_ms: f64,
    lf_phase_ms: f64,
    hf_phase_ms: f64,
    rules_ms: f64,
    mask_ms: f64,
    mask_calls: f64,
    cpi_ms: f64,
    cpi_calls: f64,
    fits_ms: f64,
    fits_calls: f64,
    route_ms: f64,
    hf_eval_ms: f64,
    hf_batches: f64,
    hf_simulated: f64,
    /// HF proposals the run ledger replayed, and all HF proposals.
    hf_hits: f64,
    hf_proposals: f64,
}

/// The campaign `Explorer::run` performs, driven phase by phase through
/// the layer wrappers with the explorer's own phase configuration.
fn traced(seed: u64) -> (Outcome, Layers) {
    let explorer = campaign(seed);
    let space = explorer.space();
    let start = Instant::now();
    let lf = explorer.lf_model();
    let mut hf = explorer.hf_evaluator();
    let constraints = explorer.constraints();
    let mut fnn = explorer.build_fnn();
    let build_ms = ms(start.elapsed());

    let lf_timed = TimedLf::new(&lf);
    let fits = TimedConstraint::new(&constraints);
    let mut router = TimedRouter::new(&mut hf);
    let mut ledger = CostLedger::new();
    // The explorer's phase configuration is private; this copy of it is
    // held to the original by the reproduction check in `run`.
    let lf_config = LfPhaseConfig {
        episodes: LF_EPISODES,
        seed,
        gradient_mask: true,
        reward: RewardKind::IncumbentGap,
        ..Default::default()
    };
    let hf_config = HfPhaseConfig {
        budget: HF_BUDGET,
        seed: seed ^ 0xA5,
        budget_floor: Fidelity::High,
        ..Default::default()
    };
    let start = Instant::now();
    let lf_outcome = LfPhase::new(lf_config).run(&mut fnn, space, &lf_timed, &fits, &mut ledger);
    let lf_phase_ms = ms(start.elapsed());
    let start = Instant::now();
    let hf_outcome = HfPhase::new(hf_config).run(
        &mut fnn,
        space,
        &lf_timed,
        &mut router,
        &fits,
        &lf_outcome,
        &mut ledger,
    );
    let hf_phase_ms = ms(start.elapsed());
    let start = Instant::now();
    std::hint::black_box(extract_rules(&fnn, &RuleExtractionConfig::default()));
    let rules_ms = ms(start.elapsed());

    let outcome = Outcome {
        best_code: space.encode(&hf_outcome.best_point),
        best_cpi_bits: hf_outcome.best_cpi.to_bits(),
        hf_evaluations: hf_outcome.evaluations,
        ledger: ledger.summary(),
    };
    let layers = Layers {
        build_ms,
        lf_phase_ms,
        hf_phase_ms,
        rules_ms,
        mask_ms: lf_timed.mask.ms(),
        mask_calls: lf_timed.mask.calls() as f64,
        cpi_ms: lf_timed.cpi.ms(),
        cpi_calls: lf_timed.cpi.calls() as f64,
        fits_ms: fits.fits.ms(),
        fits_calls: fits.fits.calls() as f64,
        route_ms: router.route.ms(),
        hf_eval_ms: router.eval.batches.ms(),
        hf_batches: router.eval.batches.calls() as f64,
        hf_simulated: router.eval.simulated as f64,
        hf_hits: outcome.ledger.high.cache_hits as f64,
        hf_proposals: outcome.ledger.high.proposals() as f64,
    };
    (outcome, layers)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> WorkloadResult {
    let mut result = WorkloadResult::new("explore-fig5");
    let block: Vec<u64> =
        (1..=BLOCK).map(|i| ctx.seed.wrapping_mul(BLOCK).wrapping_add(i)).collect();

    // Set-up: everything a campaign builds before its first episode.
    let (setup_s, _) = timed_setup(|| {
        let e = campaign(block[0]);
        (e.lf_model(), e.hf_evaluator(), e.constraints(), e.build_fnn())
    });

    let window = ctx.window();
    let mut runs: Vec<(u64, Outcome)> = Vec::new();
    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    while window.open(runs.len(), DIGEST_CAMPAIGNS) {
        let seed = block[runs.len() % block.len()];
        let start = Instant::now();
        let outcome = untraced(seed);
        latencies.push(ms(start.elapsed()));
        result.attempted += 1;
        if ctx.traced {
            let start = Instant::now();
            let (again, campaign_layers) = traced(seed);
            traced_latencies.push(ms(start.elapsed()));
            result.attempted += 1;
            if again != outcome {
                result.failed += 1;
                result.failures.push(format!(
                    "seed {seed}: traced campaign diverged: {again:?} vs untraced {outcome:?}"
                ));
            }
            layers.push(campaign_layers);
        }
        runs.push((seed, outcome));
    }
    let elapsed = window.start.elapsed().as_secs_f64();
    let peak_rss = crate::stats::peak_rss_mb("self");

    check(&mut result, &runs);
    let prefix = &runs[..DIGEST_CAMPAIGNS];
    let rows: Vec<(u64, f64)> =
        prefix.iter().map(|(_, o)| (o.best_code, f64::from_bits(o.best_cpi_bits))).collect();
    let ledger_words: Vec<u64> = prefix
        .iter()
        .flat_map(|(_, o)| {
            let (low, high) = (o.ledger.low, o.ledger.high);
            [
                low.evaluations,
                low.cache_hits,
                low.cache_misses,
                low.model_time_units.to_bits(),
                high.evaluations,
                high.cache_hits,
                high.cache_misses,
                high.denied,
                high.model_time_units.to_bits(),
            ]
        })
        .collect();
    result.digest(ctx.seed, cpi_digest(&rows, &ledger_words));
    let best_cpis: Vec<f64> = rows.iter().map(|&(_, cpi)| cpi).collect();
    result.info("best_cpi", Value::F64(mean(&best_cpis)));
    result.info("seeds", Value::Str(format!("{}..={}", block[0], block[block.len() - 1])));
    result.info("campaigns", Value::U64(runs.len() as u64));

    result.set("setup_s", setup_s);
    result.latencies(&latencies);
    result.set("throughput_per_s", runs.len() as f64 / elapsed);
    result.set("peak_rss_mb", peak_rss.unwrap_or(0.0));
    if ctx.traced {
        set_layers(&mut result, &layers);
        result.trace_overhead(&traced_latencies, &latencies);
    }
    result
}

/// Correctness gates, outside the window: each winner fits the area
/// limit, used at most the HF budget, and its CPI is the simulator's;
/// a repeated seed reproduces its first outcome exactly.
fn check(result: &mut WorkloadResult, runs: &[(u64, Outcome)]) {
    for (i, (seed, outcome)) in runs.iter().enumerate() {
        if let Some((_, first)) = runs[..i].iter().find(|(s, _)| s == seed) {
            result.check(first == outcome, || format!("seed {seed}: rerun differs"));
            continue;
        }
        let explorer = campaign(*seed);
        let space = explorer.space();
        let winner = space.decode(outcome.best_code);
        result.check(explorer.area().fits(space, &winner), || {
            format!("seed {seed}: winner {} exceeds {AREA_MM2} mm2", outcome.best_code)
        });
        let hf_charged = outcome.ledger.high.evaluations as usize;
        result.check(outcome.hf_evaluations <= HF_BUDGET && hf_charged <= HF_BUDGET, || {
            format!("seed {seed}: {hf_charged} HF evaluations exceed the budget {HF_BUDGET}")
        });
        let offline = explorer.hf_evaluator().cpi(space, &winner);
        result.check(offline.to_bits() == outcome.best_cpi_bits, || {
            let best = f64::from_bits(outcome.best_cpi_bits);
            format!("seed {seed}: best_cpi {best} but the simulator says {offline}")
        });
    }
}

/// Per-campaign means of the traced campaigns' layer figures.
fn set_layers(result: &mut WorkloadResult, layers: &[Layers]) {
    let avg = |f: fn(&Layers) -> f64| mean(&layers.iter().map(f).collect::<Vec<_>>());
    let analytical = avg(|l| l.mask_ms + l.cpi_ms);
    let phases = avg(|l| l.lf_phase_ms + l.hf_phase_ms + l.rules_ms);
    let route = avg(|l| l.route_ms);
    let fits = avg(|l| l.fits_ms);
    result.set("analytical.mask_ms", avg(|l| l.mask_ms));
    result.set("analytical.mask_calls", avg(|l| l.mask_calls));
    result.set("analytical.cpi_ms", avg(|l| l.cpi_ms));
    result.set("analytical.cpi_calls", avg(|l| l.cpi_calls));
    result.set("fnn.policy_ms", phases - analytical - fits - route);
    result.set("area.fits_ms", fits);
    result.set("area.fits_calls", avg(|l| l.fits_calls));
    result.set("mfrl.lf_phase_ms", avg(|l| l.lf_phase_ms));
    result.set("mfrl.hf_phase_ms", avg(|l| l.hf_phase_ms));
    result.set("core.build_ms", avg(|l| l.build_ms));
    result.set("exec.route_ms", route);
    result.set("exec.ledger_self_ms", route - avg(|l| l.hf_eval_ms));
    result.set("exec.hf_batches", avg(|l| l.hf_batches));
    result.set("exec.hf_designs_simulated", avg(|l| l.hf_simulated));
    result.set("sim.hf_eval_ms", avg(|l| l.hf_eval_ms));
    result.set("core.evaluate_batch_ms", ratio(avg(|l| l.hf_eval_ms), avg(|l| l.hf_batches)));
    result.set("exec.hf_hit_ratio", ratio(avg(|l| l.hf_hits), avg(|l| l.hf_proposals)));
}
