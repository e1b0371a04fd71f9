//! The public one-design [`Simulator`] front end over the lane kernel.

use dse_workloads::Trace;

use crate::{BatchSimulator, CoreConfig, ExpandedTrace, SimResult};

/// The cycle-level out-of-order core simulator.
///
/// Per simulated cycle the pipeline, in order: retires completed
/// executions, commits up to `decode_width` instructions in order,
/// issues ready instructions from the issue-queue window to free
/// functional units (loads probing the cache hierarchy, gated by MSHR
/// availability), and dispatches new instructions unless a mispredicted
/// branch has frozen the front end.
///
/// A `Simulator` is one design on the lane kernel: each
/// [`run`](Simulator::run) expands the trace and runs it on the lane of
/// a [`BatchSimulator`], which is differentially tested to produce
/// bit-identical [`SimResult`]s to the retained cycle-by-cycle
/// `ReferenceSimulator` walk. Every run starts from a cold core, so
/// results depend only on `(config, trace)`. Sweeps over many designs
/// should expand each trace once and call [`BatchSimulator::run`] per
/// (trace, design) job, one `BatchSimulator` per worker.
///
/// # Examples
///
/// ```
/// use dse_sim::{CoreConfig, Simulator};
/// use dse_space::DesignSpace;
/// use dse_workloads::Benchmark;
///
/// let space = DesignSpace::boom();
/// let cfg = CoreConfig::from_point(&space, &space.smallest());
/// let result = Simulator::new(cfg).run(&Benchmark::StringSearch.trace(5_000, 1));
/// assert_eq!(result.instructions, 5_000);
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: CoreConfig,
    batch: BatchSimulator,
}

impl Simulator {
    /// Creates a simulator for one configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn new(config: CoreConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid core configuration: {e}");
        }
        Self { config, batch: BatchSimulator::new() }
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Simulates a trace to completion on a cold core and returns the
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace, on a load or store without an address,
    /// or if the pipeline stops making progress (which would indicate a
    /// simulator bug).
    pub fn run(&mut self, trace: &Trace) -> SimResult {
        self.batch.run(&self.config, &ExpandedTrace::expand(trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_space::{DesignSpace, Param};
    use dse_workloads::{Benchmark, Instr, Op};

    fn config_at(point_code: u64) -> CoreConfig {
        let space = DesignSpace::boom();
        CoreConfig::from_point(&space, &space.decode(point_code))
    }

    fn smallest() -> CoreConfig {
        let space = DesignSpace::boom();
        CoreConfig::from_point(&space, &space.smallest())
    }

    fn largest() -> CoreConfig {
        let space = DesignSpace::boom();
        CoreConfig::from_point(&space, &space.largest())
    }

    #[test]
    fn independent_alu_ops_reach_the_dispatch_bound() {
        // A pure stream of independent 1-cycle integer ops on a wide
        // machine should approach CPI = 1/width.
        let trace: Trace = (0..10_000).map(|_| Instr::nop()).collect();
        let cfg = largest();
        let width = cfg.decode_width as f64;
        let r = Simulator::new(cfg).run(&trace);
        let cpi = r.cpi();
        assert!(cpi < 1.05 / width + 0.05, "cpi {cpi} vs ideal {}", 1.0 / width);
    }

    #[test]
    fn serial_dependency_chain_forces_cpi_of_one() {
        // Every op depends on its predecessor: no machine can beat CPI 1
        // with 1-cycle ALUs.
        let trace: Trace = (0..5_000)
            .map(|i| Instr {
                op: Op::IntAlu,
                deps: [if i > 0 { Some(1) } else { None }, None],
                addr: None,
                branch: None,
            })
            .collect();
        let r = Simulator::new(largest()).run(&trace);
        assert!(r.cpi() >= 1.0, "cpi {} beats the dataflow bound", r.cpi());
        assert!(r.cpi() < 1.3, "cpi {} too far above the dataflow bound", r.cpi());
    }

    #[test]
    fn wider_decode_helps_parallel_code() {
        let trace: Trace = (0..20_000).map(|_| Instr::nop()).collect();
        let narrow = Simulator::new(smallest()).run(&trace).cpi();
        let wide = Simulator::new(largest()).run(&trace).cpi();
        assert!(wide < narrow / 2.0, "narrow {narrow} wide {wide}");
    }

    #[test]
    fn cache_misses_slow_execution() {
        // Random loads over 1 MiB vs over 1 KiB.
        let mk = |span: u64| -> Trace {
            (0..5_000u64)
                .map(|i| Instr {
                    op: Op::Load,
                    deps: [None, None],
                    addr: Some((i.wrapping_mul(0x9E3779B97F4A7C15) % (span / 8)) * 8),
                    branch: None,
                })
                .collect()
        };
        let hot = Simulator::new(smallest()).run(&mk(1024));
        let cold = Simulator::new(smallest()).run(&mk(1 << 20));
        assert!(cold.cpi() > 2.0 * hot.cpi(), "hot {} cold {}", hot.cpi(), cold.cpi());
        assert!(cold.l1_miss_rate() > hot.l1_miss_rate());
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let mk = |mispredict: bool| -> Trace {
            (0..10_000)
                .map(|i| {
                    if i % 5 == 0 {
                        Instr::branch(1, true, mispredict && i % 10 == 0)
                    } else {
                        Instr::nop()
                    }
                })
                .collect()
        };
        let clean = Simulator::new(smallest()).run(&mk(false));
        let flushy = Simulator::new(smallest()).run(&mk(true));
        assert!(flushy.cpi() > clean.cpi());
        assert!(flushy.flushes > 0);
        assert_eq!(clean.flushes, 0);
    }

    #[test]
    fn rob_size_matters_under_memory_latency() {
        // Unlike the analytical model, the cycle-level core needs ROB
        // entries to hide L2-and-beyond latency behind independent work.
        let space = DesignSpace::boom();
        let mut small_rob = space.largest();
        while let Some(next) = small_rob.decreased(Param::RobEntry) {
            small_rob = next;
        }
        let trace = Benchmark::Dijkstra.trace(30_000, 3);
        let big = Simulator::new(CoreConfig::from_point(&space, &space.largest())).run(&trace);
        let small = Simulator::new(CoreConfig::from_point(&space, &small_rob)).run(&trace);
        assert!(
            small.cpi() > big.cpi() * 1.02,
            "shrinking ROB 160→32 should hurt: big {} small {}",
            big.cpi(),
            small.cpi()
        );
    }

    #[test]
    fn mshrs_matter_for_streaming_workloads() {
        let space = DesignSpace::boom();
        let mut few_mshr = space.largest();
        while let Some(next) = few_mshr.decreased(Param::NMshr) {
            few_mshr = next;
        }
        let trace = Benchmark::FpVvadd.trace(30_000, 5);
        let many = Simulator::new(CoreConfig::from_point(&space, &space.largest())).run(&trace);
        let few = Simulator::new(CoreConfig::from_point(&space, &few_mshr)).run(&trace);
        assert!(
            few.cpi() > many.cpi(),
            "2 MSHRs should throttle vvadd: many {} few {}",
            many.cpi(),
            few.cpi()
        );
    }

    #[test]
    fn determinism() {
        // Two fresh instances and a reused one agree, with the live
        // gshare front end included.
        let trace = Benchmark::Quicksort.trace(10_000, 9);
        let mut cfg = config_at(777);
        cfg.branch_model = crate::BranchModel::Gshare { history_bits: 8, table_bits: 10 };
        let mut sim = Simulator::new(cfg.clone());
        let a = sim.run(&trace);
        assert_eq!(a, Simulator::new(cfg).run(&trace));
        assert_eq!(a, sim.run(&trace), "a run must not leak state into the next");
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let _ = Simulator::new(smallest()).run(&Vec::new());
    }

    #[test]
    fn gshare_model_is_calibrated_to_the_oracle_rate() {
        // The trace generator calibrates branch-outcome entropy so a
        // learned predictor's miss rate lands near the profile's
        // misprediction rate — the two front-end models must agree to
        // within a factor of two on a branchy workload.
        let trace = Benchmark::Quicksort.trace(20_000, 7);
        let oracle = Simulator::new(smallest()).run(&trace);
        let mut cfg = smallest();
        cfg.branch_model = crate::BranchModel::Gshare { history_bits: 4, table_bits: 12 };
        let gshare = Simulator::new(cfg).run(&trace);
        assert!(gshare.flushes > 0, "some branches must still mispredict");
        let ratio = gshare.flushes as f64 / oracle.flushes as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "gshare ({}) vs oracle ({}) flushes diverge by {ratio:.2}x",
            gshare.flushes,
            oracle.flushes
        );
    }

    #[test]
    fn next_line_prefetch_helps_streaming_loads() {
        // A pure streaming load pattern: every line is touched in order,
        // so the next-line prefetcher converts most L2 misses into hits.
        let trace: Trace = (0..8_000u64)
            .map(|i| Instr { op: Op::Load, deps: [None, None], addr: Some(i * 64), branch: None })
            .collect();
        let plain = Simulator::new(smallest()).run(&trace);
        let mut cfg = smallest();
        cfg.l2_next_line_prefetch = true;
        let prefetched = Simulator::new(cfg).run(&trace);
        assert!(prefetched.prefetches > 0);
        assert_eq!(plain.prefetches, 0);
        // Miss-triggered degree-1 next-line prefetching converts every
        // other miss of a pure stream: expect ~50%.
        assert!(
            prefetched.l2_misses <= plain.l2_misses / 2 + 1,
            "prefetching should halve streaming L2 misses: {} vs {}",
            prefetched.l2_misses,
            plain.l2_misses
        );
        assert!(prefetched.cpi() < plain.cpi());
    }
}
