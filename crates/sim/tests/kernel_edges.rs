//! Edge cases of the lane kernel's branch-lean decisions, each checked
//! field for field against the cycle-by-cycle `ReferenceSimulator`.
//!
//! The kernel resolves operands, wakeups and cache victims with selects
//! instead of branches, which leans on invariants of the ROB ring (a
//! slot outside the in-flight window has committed and is `Done`), of
//! the staged wakeup buffer (at most one entry per ROB slot) and of the
//! cache stamps. Each case here sits on one of those boundaries:
//!
//! * dependency distances at and past the ROB size, and past 2^20;
//! * both operands of one instruction on the same producer;
//! * a distance equal to the in-flight count, and one past it;
//! * ring wrap-around at non-power-of-two and largest ROB sizes;
//! * latencies at which every class completes at issue time;
//! * a wakeup burst that fills the issue queue from one producer;
//! * the trace-oracle and the gshare front end.

use dse_sim::{
    BatchSimulator, BranchModel, CoreConfig, ExpandedTrace, ReferenceSimulator, SimLatencies,
};
use dse_space::DesignSpace;
use dse_workloads::{Benchmark, Instr, Op, Trace};

/// A cold DRAM miss: a fresh 4 KiB page per `n`.
fn cold_load(n: u64, deps: [Option<u32>; 2]) -> Instr {
    Instr { op: Op::Load, deps, addr: Some(0x4000_0000 + n * 4096), branch: None }
}

fn alu(deps: [Option<u32>; 2]) -> Instr {
    Instr { deps, ..Instr::nop() }
}

/// The largest design with its ROB, issue queue and width replaced.
fn config(rob: usize, iq: usize, width: usize) -> CoreConfig {
    let space = DesignSpace::boom();
    let mut cfg = CoreConfig::from_point(&space, &space.largest());
    cfg.rob_entries = rob;
    cfg.iq_entries = iq;
    cfg.decode_width = width;
    cfg
}

/// Both front ends of `cfg`.
fn front_ends(cfg: &CoreConfig) -> [CoreConfig; 2] {
    let mut gshare = cfg.clone();
    gshare.branch_model = BranchModel::Gshare { history_bits: 6, table_bits: 10 };
    [cfg.clone(), gshare]
}

/// Runs every config (each under both front ends) over `trace` on one
/// reused lane and asserts each result equals the reference's.
fn assert_matches(configs: &[CoreConfig], trace: &Trace, label: &str) {
    let x = ExpandedTrace::expand(trace);
    let mut lane = BatchSimulator::new();
    for cfg in configs.iter().flat_map(front_ends) {
        let got = lane.run(&cfg, &x);
        let want = ReferenceSimulator::new(cfg.clone()).run(trace);
        assert_eq!(got, want, "{label}: diverged on {cfg:?}");
        assert_eq!(got.instructions, trace.len() as u64, "{label}");
    }
}

/// A load that blocks the ROB head for a DRAM round trip, after
/// `prefix` independent instructions that commit first, followed by
/// `fill` instructions whose operands come from `deps(j)`, `j` being
/// the distance back to the load. Once the prefix has committed and
/// while the load blocks, the `j`-th filler dispatches with exactly `j`
/// instructions in flight: distance `j` is the in-flight count (the
/// load, still live) and `j + 1` is one past it (the last committed
/// prefix instruction).
fn blocked_head(prefix: usize, fill: usize, deps: impl Fn(u32) -> [Option<u32>; 2]) -> Trace {
    let mut trace: Trace = (0..prefix).map(|_| Instr::nop()).collect();
    trace.push(cold_load(0, [None, None]));
    trace.extend((1..=fill as u32).map(|j| alu(deps(j))));
    // A tail so the run drains past the burst.
    trace.extend((0..64).map(|i| alu([Some(1 + i % 3), None])));
    trace
}

#[test]
fn distances_at_and_past_the_in_flight_count() {
    for rob in [96, 160] {
        let configs = [config(rob, rob, 5), config(rob, 24, 2), config(rob, 24, 1)];
        let trace = blocked_head(8, rob + 8, |j| [Some(j), Some(j + 1)]);
        assert_matches(&configs, &trace, &format!("window edge, ROB {rob}"));
    }
}

#[test]
fn both_operands_on_one_producer() {
    // Every filler waits twice on the blocked load (one waiter-list
    // entry per operand, one wakeup) and, in the second trace, twice on
    // its immediate predecessor, a chain of double links.
    for rob in [96, 160] {
        let configs = [config(rob, rob, 5), config(rob, 24, 3)];
        assert_matches(
            &configs,
            &blocked_head(4, rob, |j| [Some(j), Some(j)]),
            &format!("double link to the head, ROB {rob}"),
        );
        assert_matches(
            &configs,
            &blocked_head(4, rob, |_| [Some(1), Some(1)]),
            &format!("double-link chain, ROB {rob}"),
        );
    }
}

#[test]
fn distances_at_and_past_the_rob_size_alias_live_slots() {
    // A distance of `rob + k` names a committed producer whose ring slot
    // now holds the instruction `k` back. Here every even filler waits
    // on the blocked load, and every odd one names distances `rob + 1`
    // and `rob + 3`, aliasing two of those waiting slots: it must read
    // both operands as resolved and issue at once, never link to them.
    // Distance `rob` itself aliases the consumer's own slot.
    for rob in [96, 160] {
        let configs = [config(rob, rob, 5), config(rob, 24, 4)];
        let r = rob as u32;
        let mut trace: Trace = (0..2 * rob).map(|_| Instr::nop()).collect();
        trace.push(cold_load(1, [None, None]));
        trace.extend((1..2 * r).map(|j| match j % 2 {
            0 => alu([Some(j), None]),
            _ => alu([Some(r + 1), Some(r + 3)]),
        }));
        trace.extend((0..r).map(|k| alu([Some(2 * r + k % 5), Some(r)])));
        assert_matches(&configs, &trace, &format!("aliased distances, ROB {rob}"));
    }
}

#[test]
fn distances_past_two_to_the_twentieth() {
    // Distances this long only come from long traces (ingested
    // binaries); they are far outside any window, in the wrapping
    // compare's high range.
    const FAR: u32 = 1 << 20;
    let mut trace: Trace = vec![Instr::nop(); FAR as usize + 4];
    trace.push(cold_load(2, [Some(FAR), None]));
    trace.extend((0..32).map(|k| alu([Some(FAR + 4 + k), Some(1)])));
    trace.push(alu([Some(trace.len() as u32), Some(FAR + 1)]));
    // A small machine keeps the reference walk of 2^20 instructions
    // short.
    assert_matches(&[config(96, 24, 5)], &trace, "distances past 2^20");
}

#[test]
fn a_wake_burst_fills_the_issue_queue() {
    // 24 consumers of one load fill a 24-entry issue queue and all wake
    // in the load's single completion; on a 25-entry ROB that is every
    // slot but the producer's own.
    let trace = blocked_head(0, 24 * 6, |j| [Some(j % 24 + 1), None]);
    let mut burst: Trace = vec![cold_load(3, [None, None])];
    burst.extend((1..=24).map(|j| alu([Some(j), Some(j)])));
    burst.extend(trace);
    let configs = [config(25, 24, 5), config(96, 24, 5), config(160, 24, 2)];
    assert_matches(&configs, &burst, "wake burst");
}

#[test]
fn every_class_completing_at_issue_matches() {
    // With unit L1-hit, multiply and FP latencies every class that hits
    // in L1 completes at issue time, so whole dependence chains move
    // through the staged-wakeup path instead of the timing wheel.
    let latencies = SimLatencies { l1_hit: 1, int_mul: 1, fp: 1, ..SimLatencies::default() };
    let configs: Vec<CoreConfig> = [config(96, 24, 5), config(160, 40, 3), config(32, 8, 1)]
        .into_iter()
        .map(|cfg| CoreConfig { latencies, ..cfg })
        .collect();
    for b in Benchmark::ALL {
        assert_matches(&configs, &b.trace(3_000, 5), &format!("{b} at unit latencies"));
    }
    assert_matches(
        &configs,
        &blocked_head(4, 200, |j| [Some(j), Some(1)]),
        "blocked head at unit latencies",
    );
}

#[test]
fn ring_wrap_at_rob_96_and_160() {
    // Long benchmark runs wrap the ROB ring many times; 96 entries is a
    // non-power-of-two ring whose last ready-bitmap word is partial.
    let configs = [config(96, 24, 5), config(96, 96, 4), config(160, 40, 5), config(160, 24, 1)];
    for b in Benchmark::ALL {
        assert_matches(&configs, &b.trace(6_000, 9), &format!("{b} ring wrap"));
    }
}
