//! The differential suite proving the lane kernel bit-identical to the
//! retained cycle-by-cycle reference walk, the simulator's only oracle.
//!
//! [`Simulator`] runs on a [`BatchSimulator`] lane, so every case here
//! covers both. Equivalence is asserted on the *full* [`SimResult`] —
//! every counter, not just CPI — across:
//!
//! * every [`Benchmark::ALL`] trace with a list of design-space corner
//!   points (and each corner through `Simulator`);
//! * front-end (gshare) and prefetch variants, mixed *within* one list;
//! * one reused lane fed the same designs in several orders, with
//!   back-to-back repeats — the orders dynamic job hand-out can produce;
//! * reuse of one `BatchSimulator` and one `Simulator` across traces;
//! * hand-built traces that maximise idle-cycle skip-ahead and MSHR
//!   stalls;
//! * the exact deterministic (trace, design) pairs exercised by the
//!   workspace-level `tests/parallel_eval.rs` and
//!   `tests/serve_determinism.rs` suites, so their thread-count and
//!   coalescing bit-identity guarantees provably rest on the oracle;
//! * ≥64 random (trace, design list) proptest cases with mixed flags,
//!   which also check the accounting invariants of every run.

use std::collections::BTreeSet;

use dse_sim::{
    BatchSimulator, BranchModel, CoreConfig, ExpandedTrace, ReferenceSimulator, SimResult,
    Simulator,
};
use dse_space::{DesignSpace, Param};
use dse_workloads::{Benchmark, Instr, Op, Trace};
use proptest::prelude::*;

/// Oracle results for every design of a list.
fn reference(configs: &[CoreConfig], trace: &Trace) -> Vec<SimResult> {
    configs.iter().map(|cfg| ReferenceSimulator::new(cfg.clone()).run(trace)).collect()
}

/// One differential case: every design of the list, run in turn on one
/// reused lane, versus the oracle, full-result equality design by
/// design.
fn assert_pack_matches(configs: &[CoreConfig], trace: &Trace, label: &str) -> Vec<SimResult> {
    let lanes = BatchSimulator::new().run_pack(configs, &ExpandedTrace::expand(trace));
    let oracle = reference(configs, trace);
    assert_eq!(lanes.len(), oracle.len(), "result count: {label}");
    for (design, (got, want)) in lanes.iter().zip(&oracle).enumerate() {
        assert_eq!(got, want, "design {design} diverged from the reference: {label}");
    }
    lanes
}

fn corner_configs(space: &DesignSpace) -> Vec<CoreConfig> {
    let mut corners = vec![space.smallest(), space.largest()];
    // Decoded extremes and mid-space codes hit mixed corners (e.g. a
    // wide machine with a tiny IQ) that the named corners miss.
    for code in [1, space.size() / 3, space.size() / 2, space.size() - 2] {
        corners.push(space.decode(code));
    }
    corners.iter().map(|point| CoreConfig::from_point(space, point)).collect()
}

#[test]
fn all_benchmarks_match_with_a_corner_pack() {
    let space = DesignSpace::boom();
    let pack = corner_configs(&space);
    for b in Benchmark::ALL {
        let trace = b.trace(5_000, 13);
        let lanes = assert_pack_matches(&pack, &trace, &format!("{b} corner pack"));
        for (cfg, lane) in pack.iter().zip(&lanes) {
            assert_eq!(lane.instructions, 5_000, "{b}");
            assert_eq!(&Simulator::new(cfg.clone()).run(&trace), lane, "{b} through Simulator");
        }
    }
}

/// All four (gshare × prefetch) variants of every corner point.
fn front_end_variants(space: &DesignSpace) -> Vec<CoreConfig> {
    let mut configs = Vec::new();
    for base in corner_configs(space) {
        for gshare in [false, true] {
            for prefetch in [false, true] {
                let mut cfg = base.clone();
                if gshare {
                    cfg.branch_model = BranchModel::Gshare { history_bits: 6, table_bits: 10 };
                }
                cfg.l2_next_line_prefetch = prefetch;
                configs.push(cfg);
            }
        }
    }
    configs
}

#[test]
fn front_end_and_prefetch_variants_match_within_one_pack() {
    // Designs with different front-end models run back to back on one
    // lane, so a predictor or prefetcher swap between runs is covered.
    let space = DesignSpace::boom();
    let trace = Benchmark::Quicksort.trace(8_000, 7);
    assert_pack_matches(&front_end_variants(&space), &trace, "mixed front-end list");
}

#[test]
fn design_order_on_a_reused_lane_is_invisible() {
    // Dynamic job hand-out decides which designs one worker's lane sees
    // and in what order. Feed one reused simulator the mixed corner and
    // front-end list forwards, in a fixed permutation with back-to-back
    // repeats, and backwards: every run must match the oracle for its
    // own design.
    let space = DesignSpace::boom();
    let configs = front_end_variants(&space);
    let trace = Benchmark::Dijkstra.trace(6_000, 3);
    let x = ExpandedTrace::expand(&trace);
    let oracle = reference(&configs, &trace);

    let n = configs.len();
    // 7 is coprime with the list length, so this visits every design.
    assert_ne!(n % 7, 0, "the stride must permute all {n} designs");
    let permuted: Vec<usize> = (0..n)
        .flat_map(|i| {
            let d = i * 7 % n;
            if i % 5 == 0 {
                vec![d, d]
            } else {
                vec![d]
            }
        })
        .collect();
    let orders = [(0..n).collect::<Vec<_>>(), permuted, (0..n).rev().collect()];
    let mut reused = BatchSimulator::new();
    for (o, order) in orders.iter().enumerate() {
        for &d in order {
            assert_eq!(reused.run(&configs[d], &x), oracle[d], "order {o}, design {d}");
        }
    }
}

#[test]
fn reuse_across_traces_matches_the_reference() {
    // One BatchSimulator sweeping (trace, pack) jobs back to back — the
    // worker pattern in `SimulatorHf::evaluate_batch` — and one
    // Simulator rerun on alternating traces must both leave no state
    // behind from one job to the next.
    let space = DesignSpace::boom();
    let configs = corner_configs(&space);
    let mut reused = BatchSimulator::new();
    let mut cfg = configs[3].clone();
    cfg.branch_model = BranchModel::Gshare { history_bits: 6, table_bits: 10 };
    cfg.l2_next_line_prefetch = true;
    let mut single = Simulator::new(cfg.clone());
    for (i, b) in
        [Benchmark::Mm, Benchmark::Fft, Benchmark::Dijkstra, Benchmark::Mm].into_iter().enumerate()
    {
        let trace = b.trace(3_000, 11);
        let pack = &configs[..configs.len() - (i % 2)];
        assert_eq!(
            reused.run_pack(pack, &ExpandedTrace::expand(&trace)),
            reference(pack, &trace),
            "{b} on the reused batch simulator"
        );
        assert_eq!(
            single.run(&trace),
            ReferenceSimulator::new(cfg.clone()).run(&trace),
            "{b} on the reused simulator"
        );
    }
}

#[test]
fn skip_ahead_and_mshr_stalls_match_the_reference() {
    let space = DesignSpace::boom();
    let smallest = CoreConfig::from_point(&space, &space.smallest());
    let mut few_mshr = space.largest();
    while let Some(next) = few_mshr.decreased(Param::NMshr) {
        few_mshr = next;
    }
    let few_mshr = CoreConfig::from_point(&space, &few_mshr);
    let load = |i: u64, dep: bool| Instr {
        op: Op::Load,
        deps: [(dep && i > 0).then_some(1), None],
        // A fresh line every access, far apart: always misses.
        addr: Some(i * 8192),
        branch: None,
    };

    // A chain of dependent cold-missing loads maximises idle spans:
    // each DRAM wait is skipped by the kernel and walked cycle by cycle
    // by the reference.
    let chain: Trace = (0..600).map(|i| load(i, true)).collect();
    let r = assert_pack_matches(std::slice::from_ref(&smallest), &chain, "serial cold misses");
    assert_eq!(r[0].l1_misses, 600);
    assert!(r[0].cycles > 600 * 100, "each load should pay DRAM latency");

    // Independent streaming misses on the fewest-MSHR design: ready
    // loads sit MSHR-blocked across skipped spans, exercising the bulk
    // credit of `mshr_stall_cycles`.
    let stream: Trace = (0..2_000).map(|i| load(i, false)).collect();
    let r = assert_pack_matches(&[few_mshr], &stream, "MSHR-bound stream");
    assert!(r[0].mshr_stall_cycles > 0, "the MSHR file must saturate");
}

/// The exact (trace, design) pairs `tests/parallel_eval.rs` evaluates:
/// `SimulatorHf::for_benchmarks(&[Mm, Fft, Dijkstra], 2_000, 5, 1.0)`
/// over ten designs spread across the space.
#[test]
fn parallel_eval_suite_pairs_match() {
    let space = DesignSpace::boom();
    let pack: Vec<CoreConfig> = (0..10u64)
        .map(|i| CoreConfig::from_point(&space, &space.decode(i * (space.size() - 1) / 9)))
        .collect();
    for b in [Benchmark::Mm, Benchmark::Fft, Benchmark::Dijkstra] {
        assert_pack_matches(&pack, &b.trace_scaled(2_000, 5, 1.0), &format!("parallel_eval {b}"));
    }
}

/// The exact (trace, design) pairs `tests/serve_determinism.rs` pushes
/// through `archdse-serve`: the Explorer's StringSearch HF evaluator
/// (trace seed `9 ^ 0x51`) over the request stream's design codes.
#[test]
fn serve_determinism_suite_pairs_match() {
    const CLIENT_THREADS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 6;
    const POINTS_PER_REQUEST: usize = 3;

    let space = DesignSpace::boom();
    let trace = Benchmark::StringSearch.trace_scaled(500, 9 ^ 0x51, 1.0);
    let mut codes = BTreeSet::new();
    for c in 0..CLIENT_THREADS {
        for r in 0..REQUESTS_PER_CLIENT {
            for i in 0..POINTS_PER_REQUEST {
                let raw = (c * 1_000_003 + r * 7_919 + i * 104_729) as u64;
                codes.insert(if i == 0 { raw % 5 } else { raw % space.size() });
            }
        }
    }
    assert!(codes.len() > 10, "the stream must cover a spread of designs");
    let pack: Vec<CoreConfig> =
        codes.iter().map(|&code| CoreConfig::from_point(&space, &space.decode(code))).collect();
    assert_pack_matches(&pack, &trace, "serve_determinism designs");
}

prop_compose! {
    /// An arbitrary valid instruction at position `i`.
    fn arb_instr(i: usize)(
        kind in 0u8..6,
        d1 in proptest::option::of(1u32..64),
        d2 in proptest::option::of(1u32..64),
        addr in 0u64..(1 << 22),
        site in 0u16..64,
        taken in proptest::bool::ANY,
        mispredicted in proptest::bool::weighted(0.2),
    ) -> Instr {
        let op = match kind {
            0 => Op::IntAlu,
            1 => Op::IntMul,
            2 => Op::Load,
            3 => Op::Store,
            4 => Op::FpAlu,
            _ => Op::Branch,
        };
        let clamp = |d: Option<u32>| d.map(|d| d.min(i as u32)).filter(|&d| d > 0);
        Instr {
            op,
            deps: [clamp(d1), clamp(d2)],
            addr: matches!(op, Op::Load | Op::Store).then_some(addr & !7),
            branch: (op == Op::Branch).then_some(dse_workloads::BranchInfo {
                site,
                taken,
                mispredicted,
            }),
        }
    }
}

fn arb_trace(len: usize) -> impl Strategy<Value = Trace> {
    (0..len).map(arb_instr).collect::<Vec<_>>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ≥64 random (trace, design list) cases: designs drawn from random
    /// codes — with the gshare and prefetch flags flipped on
    /// alternating designs — run in turn on one lane versus the
    /// reference, full `SimResult` equality plus the accounting
    /// invariants.
    #[test]
    fn random_packs_match_the_reference(
        trace in arb_trace(500),
        codes in proptest::collection::vec(0u64..3_000_000, 1..7),
        gshare in proptest::bool::ANY,
        prefetch in proptest::bool::ANY,
    ) {
        prop_assume!(!trace.is_empty());
        let space = DesignSpace::boom();
        let pack: Vec<CoreConfig> = codes
            .iter()
            .enumerate()
            .map(|(i, &code)| {
                let mut cfg = CoreConfig::from_point(&space, &space.decode(code));
                // Flip the out-of-space knobs on alternating designs so
                // mixed lists are the common case, not the corner.
                if gshare && i % 2 == 0 {
                    cfg.branch_model = BranchModel::Gshare { history_bits: 6, table_bits: 10 };
                }
                cfg.l2_next_line_prefetch = prefetch && i % 2 == 1;
                cfg
            })
            .collect();
        let lanes = BatchSimulator::new().run_pack(&pack, &ExpandedTrace::expand(&trace));
        prop_assert_eq!(&lanes, &reference(&pack, &trace));
        let branches = trace.iter().filter(|i| i.op == Op::Branch).count() as u64;
        for (cfg, r) in pack.iter().zip(&lanes) {
            // Every instruction commits exactly once.
            prop_assert_eq!(r.instructions, trace.len() as u64);
            // The machine cannot beat its own dispatch width.
            prop_assert!(r.cycles * cfg.decode_width as u64 >= r.instructions);
            // Cache accounting is hierarchical.
            prop_assert!(r.l1_misses <= r.l1_accesses);
            prop_assert_eq!(r.l2_accesses, r.l1_misses);
            prop_assert!(r.l2_misses <= r.l2_accesses);
            // Flushes can't exceed the number of branches.
            prop_assert!(r.flushes <= branches);
        }
    }
}
