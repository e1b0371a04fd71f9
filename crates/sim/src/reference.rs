//! The retained cycle-by-cycle reference walk.
//!
//! This is the original O(cycles × ROB) pipeline model, kept verbatim
//! as the oracle for the lane kernel (`batch.rs`): the differential
//! suite in `tests/equivalence.rs` asserts full [`SimResult`]
//! bit-equality between the two. It is compiled only for tests and
//! under the `reference` feature (which the bench harness enables to
//! measure kernel-vs-reference throughput) — production evaluation
//! always runs the lane kernel.

use std::collections::VecDeque;

use dse_workloads::{Instr, Op, Trace};

use crate::{BranchModel, Cache, CoreConfig, Gshare, SimResult};

/// Progress guard: if nothing commits for this many cycles the pipeline
/// has deadlocked, which is a simulator bug worth failing loudly on.
const DEADLOCK_CYCLES: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// In the issue queue, waiting for operands and a functional unit.
    Dispatched,
    /// Executing; completes at the stored cycle.
    Issued { done_at: u64 },
    /// Finished executing; awaiting in-order commit.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    trace_idx: usize,
    op: Op,
    addr: Option<u64>,
    deps: [Option<u32>; 2],
    state: State,
}

/// The original cycle-by-cycle out-of-order core simulator.
///
/// Semantically identical to the lane kernel of
/// [`BatchSimulator`](crate::BatchSimulator) — the differential suite
/// proves bit-equality of every counter — but it re-scans the whole ROB
/// twice per simulated cycle and simulates every idle cycle
/// individually, which is what the lane kernel exists to avoid. One
/// instance simulates one trace.
///
/// # Examples
///
/// ```
/// use dse_sim::{BatchSimulator, CoreConfig, ExpandedTrace, ReferenceSimulator};
/// use dse_space::DesignSpace;
/// use dse_workloads::Benchmark;
///
/// let space = DesignSpace::boom();
/// let trace = Benchmark::StringSearch.trace(2_000, 1);
/// let cfg = CoreConfig::from_point(&space, &space.smallest());
/// let reference = ReferenceSimulator::new(cfg.clone()).run(&trace);
/// let lane = BatchSimulator::new().run(&cfg, &ExpandedTrace::expand(&trace));
/// assert_eq!(reference, lane);
/// ```
#[derive(Debug)]
pub struct ReferenceSimulator {
    config: CoreConfig,
    l1: Cache,
    l2: Cache,
    predictor: Option<Gshare>,
}

impl ReferenceSimulator {
    /// Creates a simulator with cold caches for one configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn new(config: CoreConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid core configuration: {e}");
        }
        let l1 = Cache::new(config.l1_sets, config.l1_ways);
        let l2 = Cache::new(config.l2_sets, config.l2_ways);
        let predictor = match config.branch_model {
            BranchModel::FromTrace => None,
            BranchModel::Gshare { history_bits, table_bits } => {
                Some(Gshare::new(history_bits, table_bits))
            }
        };
        Self { config, l1, l2, predictor }
    }

    /// Simulates a trace to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace, or if the pipeline stops making
    /// progress (which would indicate a simulator bug).
    pub fn run(mut self, trace: &Trace) -> SimResult {
        assert!(!trace.is_empty(), "cannot simulate an empty trace");
        let cfg = self.config.clone();
        let lat = cfg.latencies;

        let mut stats = SimResult::default();
        let mut rob: VecDeque<RobEntry> = VecDeque::with_capacity(cfg.rob_entries);
        // Completion cycle per trace index (u64::MAX = not yet done).
        let mut done_at = vec![u64::MAX; trace.len()];
        // Outstanding L1 miss completion times (MSHR occupancy).
        let mut mshr_busy: Vec<u64> = Vec::with_capacity(cfg.mshrs);
        // Count of dispatched-but-unissued entries (IQ occupancy).
        let mut iq_occupancy: usize = 0;

        let mut next_fetch = 0usize; // next trace index to dispatch
        let mut committed = 0usize;
        let mut cycle: u64 = 0;
        let mut fetch_resume_at: u64 = 0;
        // Trace index of an unresolved mispredicted branch blocking fetch.
        let mut pending_flush: Option<usize> = None;
        let mut last_commit_cycle: u64 = 0;

        while committed < trace.len() {
            cycle += 1;
            assert!(
                cycle - last_commit_cycle < DEADLOCK_CYCLES,
                "pipeline deadlock at cycle {cycle} (committed {committed}/{})",
                trace.len()
            );

            // 1. Complete executions whose latency has elapsed.
            for entry in rob.iter_mut() {
                if let State::Issued { done_at: t } = entry.state {
                    if t <= cycle {
                        entry.state = State::Done;
                        done_at[entry.trace_idx] = t;
                        if pending_flush == Some(entry.trace_idx) {
                            pending_flush = None;
                            fetch_resume_at = t + lat.flush_penalty;
                            stats.flushes += 1;
                        }
                    }
                }
            }
            mshr_busy.retain(|&t| t > cycle);

            // 2. In-order commit, up to the machine width.
            let mut commits = 0;
            while commits < cfg.decode_width {
                match rob.front() {
                    Some(e) if e.state == State::Done => {
                        rob.pop_front();
                        committed += 1;
                        commits += 1;
                        last_commit_cycle = cycle;
                    }
                    _ => break,
                }
            }

            // 3. Issue from the issue-queue window (the oldest
            //    `iq_entries` unissued instructions), oldest first.
            let mut int_slots = cfg.int_fus;
            let mut mem_slots = cfg.mem_fus;
            let mut fp_slots = cfg.fp_fus;
            let mut window_seen = 0usize;
            let mut mshr_blocked_load = false;
            for entry in rob.iter_mut() {
                if entry.state != State::Dispatched {
                    continue;
                }
                window_seen += 1;
                if window_seen > cfg.iq_entries {
                    break;
                }
                let idx = entry.trace_idx;
                let ready = entry.deps.iter().flatten().all(|&d| {
                    let producer = idx - d as usize;
                    done_at[producer] <= cycle
                });
                if !ready {
                    continue;
                }
                match entry.op {
                    Op::IntAlu | Op::IntMul | Op::Branch => {
                        if int_slots == 0 {
                            continue;
                        }
                        int_slots -= 1;
                        let l = match entry.op {
                            Op::IntMul => lat.int_mul,
                            _ => lat.int_alu,
                        };
                        entry.state = State::Issued { done_at: cycle + l };
                    }
                    Op::FpAlu => {
                        if fp_slots == 0 {
                            continue;
                        }
                        fp_slots -= 1;
                        entry.state = State::Issued { done_at: cycle + lat.fp };
                    }
                    Op::Load => {
                        if mem_slots == 0 {
                            continue;
                        }
                        // A load needs a free MSHR in case it misses; if
                        // none is free it must wait (BOOM blocks the
                        // pipe the same way).
                        if mshr_busy.len() >= cfg.mshrs {
                            mshr_blocked_load = true;
                            continue;
                        }
                        mem_slots -= 1;
                        let addr = entry.addr.expect("loads carry addresses");
                        stats.l1_accesses += 1;
                        let latency = if self.l1.access(addr) {
                            lat.l1_hit
                        } else {
                            stats.l1_misses += 1;
                            stats.l2_accesses += 1;
                            let t = if self.l2.access(addr) {
                                lat.l1_hit + lat.l2_hit
                            } else {
                                stats.l2_misses += 1;
                                if cfg.l2_next_line_prefetch {
                                    // Idealized next-line prefetch: the
                                    // following line is resident by the
                                    // time a streaming access wants it.
                                    self.l2.access(addr + crate::cache::LINE_BYTES);
                                    stats.prefetches += 1;
                                }
                                lat.l1_hit + lat.l2_hit + lat.dram
                            };
                            mshr_busy.push(cycle + t);
                            t
                        };
                        entry.state = State::Issued { done_at: cycle + latency };
                    }
                    Op::Store => {
                        if mem_slots == 0 {
                            continue;
                        }
                        mem_slots -= 1;
                        // Stores retire into a store buffer: they update
                        // the cache state but never stall the pipeline.
                        let addr = entry.addr.expect("stores carry addresses");
                        stats.l1_accesses += 1;
                        if !self.l1.access(addr) {
                            stats.l1_misses += 1;
                            stats.l2_accesses += 1;
                            if !self.l2.access(addr) {
                                stats.l2_misses += 1;
                            }
                        }
                        entry.state = State::Issued { done_at: cycle + 1 };
                    }
                }
                if matches!(entry.state, State::Issued { .. }) {
                    iq_occupancy -= 1;
                }
            }
            if mshr_blocked_load {
                stats.mshr_stall_cycles += 1;
            }

            // 4. Dispatch new instructions unless the front end is
            //    frozen by an unresolved mispredict or refilling after a
            //    flush.
            if pending_flush.is_none() && cycle >= fetch_resume_at {
                let mut dispatched = 0;
                while dispatched < cfg.decode_width
                    && next_fetch < trace.len()
                    && rob.len() < cfg.rob_entries
                    && iq_occupancy < cfg.iq_entries
                {
                    let instr: &Instr = &trace[next_fetch];
                    rob.push_back(RobEntry {
                        trace_idx: next_fetch,
                        op: instr.op,
                        addr: instr.addr,
                        deps: instr.deps,
                        state: State::Dispatched,
                    });
                    iq_occupancy += 1;
                    // Resolve the prediction at fetch: either the trace
                    // oracle or the live gshare predictor.
                    let was_mispredict = match (&mut self.predictor, instr.branch) {
                        (Some(p), Some(info)) => p.mispredicts(&info),
                        (None, Some(info)) => info.mispredicted,
                        _ => false,
                    };
                    next_fetch += 1;
                    dispatched += 1;
                    if was_mispredict {
                        pending_flush = Some(next_fetch - 1);
                        break;
                    }
                }
            }
        }

        stats.cycles = cycle;
        stats.instructions = committed as u64;
        stats
    }
}
