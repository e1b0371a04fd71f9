//! One-time trace expansion into a flat struct-of-arrays form.
//!
//! A DSE sweep runs hundreds of designs over the *same* trace. A trace
//! is a slice of [`Instr`] records — roughly 40 bytes each, most of it
//! `Option` discriminants a dispatch stage would re-decode on every
//! single run. [`ExpandedTrace`] pays that decode exactly once: operation classes, dependency
//! distances, memory addresses and branch metadata are split into
//! dense parallel arrays with all `Option`s pre-resolved, so the
//! lane kernel's dispatch stage reads exactly the bytes it needs and
//! every worker's lane shares one read-only copy (the type is `Sync` —
//! plain owned arrays, no interior mutability).

use std::convert::Infallible;

use dse_workloads::{Instr, Op, Trace};

/// `deps` sentinel: this operand has no register producer.
pub(crate) const NO_DEP: u32 = 0;

/// Branch-metadata flag: the instruction is a branch.
pub(crate) const BR_IS_BRANCH: u32 = 1;
/// Branch-metadata flag: the branch was actually taken.
pub(crate) const BR_TAKEN: u32 = 1 << 1;
/// Branch-metadata flag: the trace oracle marked it mispredicted.
pub(crate) const BR_MISPREDICTED: u32 = 1 << 2;
/// Shift of the static branch site in the packed branch metadata.
pub(crate) const BR_SITE_SHIFT: u32 = 16;

/// A [`Trace`] decoded once into flat struct-of-arrays storage.
///
/// Produced by [`ExpandedTrace::expand`] and consumed by
/// [`BatchSimulator`](crate::BatchSimulator): the expansion is paid one
/// time per trace, then shared read-only by every worker and every
/// design pack that sweeps over it.
///
/// # Examples
///
/// ```
/// use dse_sim::ExpandedTrace;
/// use dse_workloads::Benchmark;
///
/// let trace = Benchmark::Mm.trace(2_000, 7);
/// let expanded = ExpandedTrace::expand(&trace);
/// assert_eq!(expanded.len(), trace.len());
/// ```
#[derive(Debug, Clone)]
pub struct ExpandedTrace {
    /// Operation class per instruction.
    pub(crate) ops: Vec<Op>,
    /// Register-dependency distances per instruction ([`NO_DEP`] when
    /// the operand has no producer). Distances are ≥ 1 and point at
    /// earlier instructions, exactly as in [`Instr::deps`].
    ///
    /// [`Instr::deps`]: dse_workloads::Instr::deps
    pub(crate) deps: Vec<[u32; 2]>,
    /// Byte address per instruction (0 for non-memory instructions,
    /// which never read it).
    pub(crate) addrs: Vec<u64>,
    /// Packed branch metadata per instruction: [`BR_IS_BRANCH`],
    /// [`BR_TAKEN`] and [`BR_MISPREDICTED`] flags plus the static site
    /// in the bits at [`BR_SITE_SHIFT`]; 0 for non-branches.
    pub(crate) branches: Vec<u32>,
}

impl ExpandedTrace {
    /// Decodes `trace` into struct-of-arrays form.
    ///
    /// # Panics
    ///
    /// Panics on a dependency distance of 0 (a self-dependency, which
    /// no well-formed trace contains), a load or store without an
    /// address, or a trace longer than the kernel's `u32` entry ids can
    /// index.
    pub fn expand(trace: &Trace) -> Self {
        match Self::from_stream(trace.iter().copied().map(Ok::<_, Infallible>)) {
            Ok(expanded) => expanded,
            Err(never) => match never {},
        }
    }

    /// Decodes a *streamed* trace into struct-of-arrays form without
    /// ever holding a `Vec<Instr>` — the decode loop behind
    /// [`ExpandedTrace::expand`], also fed by traces read incrementally
    /// (e.g. from an on-disk trace file). The error type is the
    /// stream's own; the first stream error aborts the expansion and is
    /// returned verbatim.
    ///
    /// # Errors
    ///
    /// Whatever error the underlying stream yields.
    ///
    /// # Panics
    ///
    /// Panics on a dependency distance of 0, a load or store without an
    /// address, or a stream longer than the kernel's `u32` entry ids
    /// can index, exactly as [`ExpandedTrace::expand`] does.
    pub fn from_stream<E>(stream: impl IntoIterator<Item = Result<Instr, E>>) -> Result<Self, E> {
        let stream = stream.into_iter();
        let capacity = stream.size_hint().0;
        let mut ops = Vec::with_capacity(capacity);
        let mut deps = Vec::with_capacity(capacity);
        let mut addrs = Vec::with_capacity(capacity);
        let mut branches = Vec::with_capacity(capacity);
        for item in stream {
            let instr = item?;
            assert!(ops.len() < u32::MAX as usize, "trace too long for the event queue");
            ops.push(instr.op);
            let dep = |d: Option<u32>| match d {
                Some(d) => {
                    assert!(d >= 1, "dependency distances must be >= 1");
                    d
                }
                None => NO_DEP,
            };
            deps.push([dep(instr.deps[0]), dep(instr.deps[1])]);
            addrs.push(match instr.addr {
                Some(addr) => addr,
                None => {
                    assert!(
                        !matches!(instr.op, Op::Load | Op::Store),
                        "loads and stores must carry addresses"
                    );
                    0
                }
            });
            branches.push(match instr.branch {
                Some(b) => {
                    BR_IS_BRANCH
                        | if b.taken { BR_TAKEN } else { 0 }
                        | if b.mispredicted { BR_MISPREDICTED } else { 0 }
                        | (u32::from(b.site) << BR_SITE_SHIFT)
                }
                None => 0,
            });
        }
        metrics().expansions.inc();
        Ok(Self { ops, deps, addrs, branches })
    }

    /// Number of instructions in the expanded trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Cached registry handle for the expansion counter.
struct ExpandMetrics {
    expansions: dse_obs::Counter,
}

fn metrics() -> &'static ExpandMetrics {
    static METRICS: std::sync::OnceLock<ExpandMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ExpandMetrics {
        expansions: dse_obs::global().counter("sim_trace_expansions_total"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_workloads::Benchmark;

    #[test]
    fn expansion_round_trips_every_field() {
        let trace = Benchmark::Quicksort.trace(5_000, 3);
        let x = ExpandedTrace::expand(&trace);
        assert_eq!(x.len(), trace.len());
        for (i, instr) in trace.iter().enumerate() {
            assert_eq!(x.ops[i], instr.op);
            for op in 0..2 {
                match instr.deps[op] {
                    Some(d) => assert_eq!(x.deps[i][op], d),
                    None => assert_eq!(x.deps[i][op], NO_DEP),
                }
            }
            assert_eq!(x.addrs[i], instr.addr.unwrap_or(0));
            match instr.branch {
                Some(b) => {
                    assert_ne!(x.branches[i] & BR_IS_BRANCH, 0);
                    assert_eq!(x.branches[i] & BR_TAKEN != 0, b.taken);
                    assert_eq!(x.branches[i] & BR_MISPREDICTED != 0, b.mispredicted);
                    assert_eq!((x.branches[i] >> BR_SITE_SHIFT) as u16, b.site);
                }
                None => assert_eq!(x.branches[i], 0),
            }
        }
    }

    #[test]
    fn empty_trace_expands_empty() {
        let x = ExpandedTrace::expand(&Vec::new());
        assert!(x.is_empty());
        assert_eq!(x.len(), 0);
    }

    #[test]
    fn from_stream_matches_expand() {
        let trace = Benchmark::Mm.trace(3_000, 11);
        let eager = ExpandedTrace::expand(&trace);
        let streamed: ExpandedTrace =
            ExpandedTrace::from_stream(trace.iter().cloned().map(Ok::<_, ()>)).unwrap();
        assert_eq!(streamed.ops, eager.ops);
        assert_eq!(streamed.deps, eager.deps);
        assert_eq!(streamed.addrs, eager.addrs);
        assert_eq!(streamed.branches, eager.branches);
    }

    #[test]
    fn from_stream_propagates_the_first_error() {
        let items = vec![Ok(Instr::nop()), Err("boom"), Ok(Instr::nop())];
        assert_eq!(ExpandedTrace::from_stream(items).unwrap_err(), "boom");
    }

    #[test]
    #[should_panic(expected = "distances must be >= 1")]
    fn self_dependency_is_rejected() {
        let mut instr = Instr::nop();
        instr.deps[0] = Some(0);
        let _ = ExpandedTrace::expand(&vec![instr]);
    }

    #[test]
    #[should_panic(expected = "loads and stores must carry addresses")]
    fn address_free_load_is_rejected() {
        let load = Instr { op: Op::Load, deps: [None, None], addr: None, branch: None };
        let _ = ExpandedTrace::expand(&vec![Instr::nop(), load]);
    }
}
