//! Simulator configuration derived from a design point.

use dse_space::{DesignPoint, DesignSpace, Param};

use crate::BranchModel;

/// Fixed pipeline/memory latency constants (cycles at 1 GHz).
///
/// `l2_hit`, `dram` and `flush_penalty` deliberately equal the
/// analytical model's constants in `dse-analytical` (18, 180 and 12
/// cycles), so that LF/HF disagreement comes from modeling abstraction,
/// not inconsistent physics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimLatencies {
    /// Load-to-use latency of an L1 hit.
    pub l1_hit: u64,
    /// Additional latency of an L2 hit (on top of the L1 probe).
    pub l2_hit: u64,
    /// Additional latency of a DRAM access (on top of L1+L2 probes).
    pub dram: u64,
    /// Integer ALU latency.
    pub int_alu: u64,
    /// Integer multiply latency.
    pub int_mul: u64,
    /// Floating-point op latency.
    pub fp: u64,
    /// Front-end refill penalty after a resolved mispredicted branch.
    pub flush_penalty: u64,
}

impl Default for SimLatencies {
    fn default() -> Self {
        Self { l1_hit: 3, l2_hit: 18, dram: 180, int_alu: 1, int_mul: 3, fp: 4, flush_penalty: 12 }
    }
}

/// Micro-architectural configuration of the simulated core.
///
/// # Examples
///
/// ```
/// use dse_sim::CoreConfig;
/// use dse_space::DesignSpace;
///
/// let space = DesignSpace::boom();
/// let cfg = CoreConfig::from_point(&space, &space.smallest());
/// assert_eq!(cfg.decode_width, 1);
/// assert_eq!(cfg.rob_entries, 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// L1 data-cache sets.
    pub l1_sets: usize,
    /// L1 data-cache ways.
    pub l1_ways: usize,
    /// L2 cache sets.
    pub l2_sets: usize,
    /// L2 cache ways.
    pub l2_ways: usize,
    /// Miss-status holding registers (max outstanding L1 load misses).
    pub mshrs: usize,
    /// Decode/dispatch/commit width.
    pub decode_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Memory (load/store) units.
    pub mem_fus: usize,
    /// Integer ALUs.
    pub int_fus: usize,
    /// Floating-point units.
    pub fp_fus: usize,
    /// Issue-queue entries.
    pub iq_entries: usize,
    /// Latency constants.
    pub latencies: SimLatencies,
    /// How branch mispredictions are decided.
    pub branch_model: BranchModel,
    /// Whether the L2 runs a next-line prefetcher (fetches line N+1 on
    /// every demand miss) — an extension knob off by default, since the
    /// paper's BOOM configurations do not sweep prefetching.
    pub l2_next_line_prefetch: bool,
}

impl CoreConfig {
    /// Maps a design point onto a core configuration.
    pub fn from_point(space: &DesignSpace, point: &DesignPoint) -> Self {
        let v = |p: Param| point.value(space, p) as usize;
        Self {
            l1_sets: v(Param::L1CacheSet),
            l1_ways: v(Param::L1CacheWay),
            l2_sets: v(Param::L2CacheSet),
            l2_ways: v(Param::L2CacheWay),
            mshrs: v(Param::NMshr),
            decode_width: v(Param::DecodeWidth),
            rob_entries: v(Param::RobEntry),
            mem_fus: v(Param::MemFu),
            int_fus: v(Param::IntFu),
            fp_fus: v(Param::FpFu),
            iq_entries: v(Param::IssueQueueEntry),
            latencies: SimLatencies::default(),
            branch_model: BranchModel::default(),
            l2_next_line_prefetch: false,
        }
    }

    /// Validates structural invariants (non-zero resources).
    ///
    /// # Errors
    ///
    /// Returns a description of the first zero-sized structure.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("l1_sets", self.l1_sets),
            ("l1_ways", self.l1_ways),
            ("l2_sets", self.l2_sets),
            ("l2_ways", self.l2_ways),
            ("mshrs", self.mshrs),
            ("decode_width", self.decode_width),
            ("rob_entries", self.rob_entries),
            ("mem_fus", self.mem_fus),
            ("int_fus", self.int_fus),
            ("fp_fus", self.fp_fus),
            ("iq_entries", self.iq_entries),
        ] {
            if v == 0 {
                return Err(format!("{name} must be non-zero"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_point_maps_all_parameters() {
        let space = DesignSpace::boom();
        let cfg = CoreConfig::from_point(&space, &space.largest());
        assert_eq!(cfg.l1_sets, 64);
        assert_eq!(cfg.l1_ways, 16);
        assert_eq!(cfg.l2_sets, 2048);
        assert_eq!(cfg.l2_ways, 16);
        assert_eq!(cfg.mshrs, 10);
        assert_eq!(cfg.decode_width, 5);
        assert_eq!(cfg.rob_entries, 160);
        assert_eq!(cfg.mem_fus, 2);
        assert_eq!(cfg.int_fus, 5);
        assert_eq!(cfg.fp_fus, 2);
        assert_eq!(cfg.iq_entries, 24);
        cfg.validate().unwrap();
    }

    #[test]
    fn every_space_point_yields_valid_config() {
        let space = DesignSpace::boom();
        for code in [0u64, 1_000_000, 2_999_999] {
            CoreConfig::from_point(&space, &space.decode(code)).validate().unwrap();
        }
    }
}
