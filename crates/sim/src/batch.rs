//! The lane kernel: the simulator engine, one design ("lane") run to
//! completion over an expanded trace.
//!
//! One job is one (trace, design) pair. [`BatchSimulator`] keeps a
//! single lane whose allocations (ROB ring, cache arrays, timing wheel)
//! it recycles from design to design, and runs each design over a
//! shared, read-only [`ExpandedTrace`] from the first instruction to
//! the last in one call. Parallelism lives one level up: the HF
//! evaluator fans its (trace, design) jobs across the work pool, one
//! `BatchSimulator` per worker. Every run cold-starts the lane, so each
//! result is a pure function of its (design, trace) pair and
//! bit-identical to the cycle-by-cycle `ReferenceSimulator` walk of the
//! original trace, whatever ran on the lane before (asserted by
//! `crates/sim/tests/equivalence.rs`). [`Simulator`](crate::Simulator)
//! is the one-design front end over the same lane.
//!
//! The kernel pays only for events where the reference walk re-scans
//! the ROB every cycle:
//!
//! * ROB bookkeeping works in slot indices, so the hot loops never
//!   compute `idx % rob_entries` (an integer division) — head/fetch
//!   slots advance by wrapping increments, dependency slots by a
//!   compare-and-subtract;
//! * each in-flight producer carries an intrusive list of waiting
//!   consumers; a dispatched instruction counts its unresolved operands
//!   once and becomes ready exactly when its last producer completes;
//! * completion events live in a bucketed [`TimingWheel`] — O(1)
//!   flat-array push/pop with a cached earliest due time — and
//!   instructions whose latency is a single cycle (stores, and int/fp
//!   ops at unit latency) never enter it at all: they complete at issue
//!   time with the due time and side effects an event popping next
//!   cycle would have had, their consumer wakeups staged until the
//!   issue scan ends so nothing issues a cycle early;
//! * the ready set is one bit per ROB slot, and the issue scan walks
//!   set bits once around the ring from the ROB head — exactly
//!   ascending age order, so loads and stores probe the caches in the
//!   reference walk's order — stopping early once every
//!   functional-unit class is spent for the cycle or every ready entry
//!   has been visited;
//! * the per-cycle "can anything issue?" probe is O(1) (ready count,
//!   ready-load count, MSHR count), and on cycles where it proves
//!   nothing can issue the scan is skipped entirely, crediting the
//!   same single MSHR stall the full scan would have found;
//! * idle cycles are skipped: when no event is due, the head cannot
//!   commit, nothing can issue and the front end is frozen or full, the
//!   clock jumps to the next completion event or fetch-resume cycle,
//!   bulk-crediting one MSHR stall per skipped cycle with a ready load;
//! * the caches are [`LaneCache`]s — decision-identical to
//!   [`Cache`](crate::Cache) but indexed by shift/mask for the
//!   power-of-two geometries of the design space — and the MSHR file
//!   is a counter decremented on load completion instead of a per-cycle
//!   expiry scan, because an MSHR frees exactly when its load's
//!   completion event pops.
//!
//! # Branch-lean rule
//!
//! What the kernel pays for is host branch mispredictions, not
//! arithmetic: the branchy form of this loop took 110–130 ns per
//! simulated instruction on the built-in benchmarks at random design
//! points, and about 50 ns on a synthetic chain of dependent
//! single-cycle ALU ops, whose decisions never change (2-core x86
//! host). Straight-line runs are too short to batch (a mean 0.5–1.5
//! instructions between memory accesses and branches on the built-in
//! benchmarks), so the cost is in per-instruction decisions whose
//! outcome follows the trace data. Hot decisions are therefore written
//! as selects, masks, counter adds and non-short-circuit `&`/`|`, with
//! no data-dependent early exits, and each leans on an invariant
//! rather than a test:
//!
//! * dispatch resolves operands with one wrapping compare (`NO_DEP` is
//!   0) and sends an operand outside the in-flight window to the
//!   consumer's own slot, which has committed and is `Done`, so linking
//!   a waiter, counting `pending` and setting the ready bit are selects;
//! * the skip-ahead probe combines its tests with `&`/`|` and reads the
//!   wheel's cached due time directly;
//! * a completion stages every woken consumer into a fixed-size buffer
//!   and advances its length by `pending == 1`, and releases an MSHR by
//!   subtracting `holds_mshr`;
//! * [`LaneCache::access`] finds the matching way and the victim (the
//!   first least stamp) in one pass;
//! * the issue scan stops once it has visited as many entries as were
//!   ready when it began.
//!
//! In-process paired A/B runs (the same 64 random designs × 6
//! benchmarks × 30k instructions on both kernels, alternating job by
//! job, every `SimResult` asserted equal) measured the edits above,
//! cumulatively and in that order, at 1.11–1.12×, 1.14–1.18×, 1.18×,
//! 1.19–1.22× and 1.23–1.29× the branchy kernel's throughput (two
//! series). The one input shape it loses on is a chain of dependent
//! single-cycle ALU ops, where every branch predicts perfectly: about
//! 5% slower there (52 → 54 ns per instruction). Per-class ready
//! bitmaps, a table-driven FU class, a done-bitmap commit and an
//! inlined cache access measured no gain or a loss. A new hot-path
//! decision should follow the same rule, and be kept only if such an
//! A/B shows it.
//!
//! Kernel activity (lane runs, wheel pops, skipped cycles, per-run
//! wall time) is kept in plain lane-local integers and published to the
//! `sim_kernel_*` metrics once per run, never from the hot loop.

use std::time::Instant;

use dse_workloads::Op;

use crate::expand::{BR_IS_BRANCH, BR_MISPREDICTED, BR_SITE_SHIFT, BR_TAKEN, NO_DEP};
use crate::{BranchModel, CoreConfig, ExpandedTrace, Gshare, SimResult};

/// Progress guard: if nothing commits for this many cycles the pipeline
/// has deadlocked, which is a simulator bug worth failing loudly on.
const DEADLOCK_CYCLES: u64 = 1_000_000;

/// Null link of the intrusive waiter lists.
const NO_WAITER: u32 = u32::MAX;

// Dispatch tests "has a producer in the window" as one wrapping compare,
// `d.wrapping_sub(1) < in_flight`, which needs the sentinel to wrap.
const _: () = assert!(NO_DEP == 0, "the operand-window test relies on NO_DEP being 0");

/// Completion events bucketed by cycle — a timing wheel.
///
/// Every scheduled latency is at most one worst-case memory access
/// (`l1_hit + l2_hit + dram`), so at any instant all live events span at
/// most `horizon` cycles; with the bucket count sized past that horizon,
/// bucket indices are unambiguous within one lap of the earliest event.
/// Buckets are intrusive singly-linked lists threaded through a per-slot
/// `next` array (a ROB slot has at most one event in flight), so push
/// and pop are O(1) flat-array writes with no per-bucket allocation, and
/// the earliest due time is a cached field — peeking costs one load.
///
/// Events due on the same cycle pop in per-bucket LIFO order. The order
/// is observation-free: equal-time completions only do
/// order-independent work (see [`Lane::complete`]).
#[derive(Debug, Default)]
struct TimingWheel {
    /// Per bucket: head slot of the chain, or [`NO_WAITER`].
    head: Vec<u32>,
    /// Per ROB slot: next slot in the same bucket's chain.
    next: Vec<u32>,
    /// One bit per bucket, set while the bucket is non-empty.
    occupied: Vec<u64>,
    /// Cached earliest due time; `u64::MAX` when empty.
    next_due: u64,
    len: usize,
}

impl TimingWheel {
    /// Grows the wheel so every latency up to `horizon` cycles fits
    /// within one lap, and sizes the chain links for `slots` ROB
    /// entries. Bucket storage never shrinks — a wheel sized for a slow
    /// design keeps working for a fast one.
    fn reshape(&mut self, horizon: u64, slots: usize) {
        let need = ((horizon + 1).next_power_of_two() as usize).max(64);
        if self.head.len() < need {
            self.head.resize(need, NO_WAITER);
            self.occupied.resize(need / 64, 0);
        }
        // Link values are only read while reachable from a head, so
        // grown entries need no particular value.
        self.next.resize(slots.max(self.next.len()), NO_WAITER);
    }

    /// Removes every event for a fresh run.
    fn clear(&mut self) {
        if self.len > 0 {
            for w in 0..self.occupied.len() {
                let mut bits = self.occupied[w];
                while bits != 0 {
                    self.head[w * 64 + bits.trailing_zeros() as usize] = NO_WAITER;
                    bits &= bits - 1;
                }
                self.occupied[w] = 0;
            }
        }
        self.len = 0;
        self.next_due = u64::MAX;
    }

    /// Schedules `slot` to complete at cycle `at`.
    fn push(&mut self, at: u64, slot: u32) {
        debug_assert!(
            self.next_due == u64::MAX || at.abs_diff(self.next_due) < self.head.len() as u64,
            "event at {at} more than one wheel lap from earliest {}",
            self.next_due
        );
        let b = (at as usize) & (self.head.len() - 1);
        self.next[slot as usize] = self.head[b];
        if self.head[b] == NO_WAITER {
            self.occupied[b / 64] |= 1 << (b % 64);
        }
        self.head[b] = slot;
        self.len += 1;
        self.next_due = self.next_due.min(at);
    }

    /// Pops one event due at or before `now`, with its due time.
    fn pop_due(&mut self, now: u64) -> Option<(u64, u32)> {
        let at = self.next_due;
        if at > now {
            return None;
        }
        let b = (at as usize) & (self.head.len() - 1);
        let slot = self.head[b];
        let rest = self.next[slot as usize];
        self.head[b] = rest;
        self.len -= 1;
        if rest == NO_WAITER {
            self.occupied[b / 64] &= !(1 << (b % 64));
            self.next_due = self.scan_from(at + 1);
        }
        Some((at, slot))
    }

    /// Earliest live due time at or after `from`, or `u64::MAX` if the
    /// wheel is empty. All live events lie within `horizon` (< one lap)
    /// of each other, so one lap of the occupancy bitmap from `from`'s
    /// bucket finds the minimum unambiguously.
    fn scan_from(&self, from: u64) -> u64 {
        if self.len == 0 {
            return u64::MAX;
        }
        let n = self.head.len();
        let start = (from as usize) & (n - 1);
        let words = self.occupied.len();
        let mut w = start / 64;
        let mut word = self.occupied[w] & (!0u64 << (start % 64));
        for _ in 0..=words {
            if word != 0 {
                let b = w * 64 + word.trailing_zeros() as usize;
                return from + ((b + n - start) & (n - 1)) as u64;
            }
            w += 1;
            if w == words {
                w = 0;
            }
            word = self.occupied[w];
        }
        unreachable!("timing wheel holds {} events but no occupied bucket", self.len)
    }
}

/// The lane-local cache model: hit/miss and victim decisions exactly
/// match [`Cache`] (same set/tag split, same true-LRU with first-empty
/// preference and lowest-index tie break), laid out for the batch
/// kernel's access pattern. `(tag, stamp)` pairs interleave in one array
/// so a set probe walks one contiguous stream instead of two, and the
/// in-design-space power-of-two set counts index by shift/mask instead
/// of two 64-bit divisions (non-power-of-two geometries fall back to the
/// exact divisions).
#[derive(Debug, Default)]
struct LaneCache {
    sets: usize,
    ways: usize,
    /// `log2(sets)` when `sets` is a power of two, else `u32::MAX`.
    shift: u32,
    /// `(tag + 1, last-access stamp)` per line; tag 0 marks empty.
    /// `lines[set * ways + way]`, like [`Cache`].
    lines: Vec<(u64, u64)>,
    tick: u64,
}

impl LaneCache {
    /// Re-geometries to empty `sets × ways`, reusing the line storage.
    fn reshape(&mut self, sets: usize, ways: usize) {
        debug_assert!(sets > 0 && ways > 0);
        self.sets = sets;
        self.ways = ways;
        self.shift = if sets.is_power_of_two() { sets.trailing_zeros() } else { u32::MAX };
        self.lines.clear();
        self.lines.resize(sets * ways, (0, 0));
        self.tick = 0;
    }

    /// Empties the cache; equivalent to a fresh reshape.
    fn reset(&mut self) {
        self.lines.fill((0, 0));
        self.tick = 0;
    }

    /// Accesses `addr`, returning whether it hit; allocates on miss and
    /// updates LRU state either way — bit-for-bit the decisions of
    /// [`Cache::access`].
    fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = addr / crate::cache::LINE_BYTES;
        let (set, tag) = if self.shift != u32::MAX {
            (line as usize & (self.sets - 1), line >> self.shift)
        } else {
            ((line % self.sets as u64) as usize, line / self.sets as u64)
        };
        // Tags get +1 so 0 can mark an empty way; `line` cannot
        // overflow: it is `addr / 64`, so `tag + 1` fits.
        let key = tag + 1;
        let set = &mut self.lines[set * self.ways..(set + 1) * self.ways];
        // One pass with no early exit finds both the matching way and
        // the victim, as selects rather than data-dependent branches.
        // The victim is the first way of least stamp: empty ways carry
        // stamp 0 and live stamps are distinct ticks ≥ 1, so that is the
        // first empty way if any, else the true-LRU way — exactly
        // `Cache`'s choice.
        let mut hit = usize::MAX;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (w, &(way_key, stamp)) in set.iter().enumerate() {
            hit = if way_key == key { w } else { hit };
            let older = stamp < oldest;
            victim = if older { w } else { victim };
            oldest = if older { stamp } else { oldest };
        }
        let is_hit = hit != usize::MAX;
        set[if is_hit { hit } else { victim }] = (key, self.tick);
        is_hit
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Dispatched, waiting for operands and a functional unit.
    Waiting,
    /// Executing; a completion event is scheduled.
    Issued,
    /// Finished executing; awaiting in-order commit.
    Done,
}

/// One ROB entry of a lane, stored in a ring of `rob_entries` slots.
/// 16 bytes — four entries per cache line.
#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u64,
    /// Head of this producer's waiter list: packed
    /// `(consumer_slot << 1) | operand`, or [`NO_WAITER`].
    first_waiter: u32,
    op: Op,
    state: SlotState,
    /// Operands still waiting on an in-flight producer.
    pending: u8,
    /// Whether this in-flight load occupies an MSHR (released when its
    /// completion event pops — the release times coincide exactly).
    holds_mshr: bool,
}

impl Slot {
    /// Filler for never-dispatched ring slots.
    fn vacant() -> Self {
        Slot {
            addr: 0,
            first_waiter: NO_WAITER,
            op: Op::IntAlu,
            state: SlotState::Done,
            pending: 0,
            holds_mshr: false,
        }
    }
}

/// One design's complete simulation state: core structures plus the
/// position of its run. A lane recycles every allocation across
/// designs.
#[derive(Debug)]
struct Lane {
    config: CoreConfig,
    l1: LaneCache,
    l2: LaneCache,
    predictor: Option<Gshare>,
    slots: Vec<Slot>,
    /// Per consumer slot, per operand: next packed waiter in the
    /// producer's list.
    next_waiter: Vec<[u32; 2]>,
    /// One bit per ROB slot, set while the slot is ready to issue.
    /// Scanning set bits from `head_slot` (wrapping once) visits ready
    /// entries in ROB age = ascending trace-index order — exactly the
    /// order a sorted ready queue would, with O(1) insertion instead of
    /// a sorted `Vec::insert` memmove.
    ready_bits: Vec<u64>,
    /// Number of set bits in `ready_bits`.
    ready_len: usize,
    /// Ready entries that are loads (the only class whose issue can be
    /// blocked by a full MSHR file rather than a per-cycle FU slot).
    ready_loads: usize,
    /// Consumers woken by completions, staged until the current stage
    /// finishes. Staging keeps a wakeup that happens *during* the issue
    /// scan (an instruction completing at issue time) from becoming
    /// issue-eligible one cycle early. Fixed at `rob_entries + 1`
    /// entries, of which the first `woken_len` are live. Every wakeup
    /// writes at index `woken_len`, and a consumer is staged at most
    /// once per stage, so `woken_len ≤ rob_entries` and every write is
    /// in bounds.
    woken: Vec<(u32, Op)>,
    woken_len: usize,
    /// Pending completion events, bucketed by due cycle.
    events: TimingWheel,
    /// Loads currently holding an MSHR (outstanding L1 misses). An MSHR
    /// frees exactly when its load's completion event pops, so a count
    /// replaces the per-cycle expiry scan over release times.
    mshr_inflight: usize,
    stats: SimResult,
    /// Trace index of the ROB head (committed instructions).
    committed: usize,
    /// Next trace index to dispatch.
    next_fetch: usize,
    /// `committed % rob_entries`, maintained by wrapping increment.
    head_slot: usize,
    /// `next_fetch % rob_entries`, maintained by wrapping increment.
    fetch_slot: usize,
    /// Dispatched-but-unissued entries.
    iq_occupancy: usize,
    cycle: u64,
    fetch_resume_at: u64,
    /// ROB slot of an unresolved mispredicted branch blocking fetch.
    /// Slots are unambiguous here: fetch freezes until the flush
    /// resolves, so the branch's slot cannot be reused meanwhile.
    pending_flush: Option<u32>,
    last_commit_cycle: u64,
    /// Completion events popped from the timing wheel (observability
    /// only, like the field below — never part of [`SimResult`]).
    events_popped: u64,
    /// Cycles the idle skip-ahead jumped over instead of walking.
    skipped_cycles: u64,
}

impl Lane {
    fn new(config: &CoreConfig) -> Self {
        let mut l1 = LaneCache::default();
        l1.reshape(config.l1_sets, config.l1_ways);
        let mut l2 = LaneCache::default();
        l2.reshape(config.l2_sets, config.l2_ways);
        Self {
            l1,
            l2,
            predictor: build_predictor(config),
            config: config.clone(),
            slots: Vec::new(),
            next_waiter: Vec::new(),
            ready_bits: Vec::new(),
            ready_len: 0,
            ready_loads: 0,
            woken: Vec::new(),
            woken_len: 0,
            events: TimingWheel::default(),
            mshr_inflight: 0,
            stats: SimResult::default(),
            committed: 0,
            next_fetch: 0,
            head_slot: 0,
            fetch_slot: 0,
            iq_occupancy: 0,
            cycle: 0,
            fetch_resume_at: 0,
            pending_flush: None,
            last_commit_cycle: 0,
            events_popped: 0,
            skipped_cycles: 0,
        }
    }

    /// Points this lane at `config` and returns it to a cold core
    /// (empty caches, cleared predictor, nothing in flight), reusing
    /// allocations wherever the geometry allows.
    fn start(&mut self, config: &CoreConfig) {
        if *config != self.config {
            self.l1.reshape(config.l1_sets, config.l1_ways);
            self.l2.reshape(config.l2_sets, config.l2_ways);
            self.predictor = match (config.branch_model, self.predictor.take()) {
                (BranchModel::Gshare { history_bits, table_bits }, Some(p))
                    if p.matches_geometry(history_bits, table_bits) =>
                {
                    Some(p)
                }
                _ => build_predictor(config),
            };
            self.config = config.clone();
        }
        self.l1.reset();
        self.l2.reset();
        if let Some(p) = &mut self.predictor {
            p.reset();
        }
        let cap = self.config.rob_entries;
        self.slots.clear();
        self.slots.resize(cap, Slot::vacant());
        self.next_waiter.clear();
        self.next_waiter.resize(cap, [NO_WAITER; 2]);
        self.ready_bits.clear();
        self.ready_bits.resize(cap.div_ceil(64), 0);
        self.ready_len = 0;
        self.ready_loads = 0;
        self.woken.resize(cap + 1, (0, Op::IntAlu));
        self.woken_len = 0;
        let lat = self.config.latencies;
        self.events.reshape(
            (lat.l1_hit + lat.l2_hit + lat.dram)
                .max(lat.int_alu)
                .max(lat.int_mul)
                .max(lat.fp)
                .max(1),
            cap,
        );
        self.events.clear();
        self.mshr_inflight = 0;
        self.stats = SimResult::default();
        self.committed = 0;
        self.next_fetch = 0;
        self.head_slot = 0;
        self.fetch_slot = 0;
        self.iq_occupancy = 0;
        self.cycle = 0;
        self.fetch_resume_at = 0;
        self.pending_flush = None;
        self.last_commit_cycle = 0;
        self.events_popped = 0;
        self.skipped_cycles = 0;
    }

    /// Marks `slot` ready to issue.
    #[inline]
    fn make_ready(&mut self, slot: u32, op: Op) {
        self.ready_bits[slot as usize / 64] |= 1 << (slot % 64);
        self.ready_len += 1;
        self.ready_loads += usize::from(op == Op::Load);
    }

    /// Publishes staged wakeups into the ready bitmap.
    #[inline]
    fn drain_woken(&mut self) {
        for k in 0..self.woken_len {
            let (slot, op) = self.woken[k];
            self.make_ready(slot, op);
        }
        self.woken_len = 0;
    }

    /// Retires the execution of `slot`, whose completion fell due at
    /// cycle `t`: marks it done, releases its MSHR, resolves a flush it
    /// was blocking, and stages a wakeup for every consumer waiting on
    /// it (the caller publishes them with [`Self::drain_woken`]).
    /// Same-cycle completions may run in any order: each only marks its
    /// own slot, matches the flush by slot id and decrements pending
    /// counts, and staged wakeups publish as a set, so the tie order
    /// never reaches the statistics.
    #[inline]
    fn complete(&mut self, slot: usize, t: u64) {
        debug_assert_eq!(self.slots[slot].state, SlotState::Issued);
        self.slots[slot].state = SlotState::Done;
        self.mshr_inflight -= usize::from(self.slots[slot].holds_mshr);
        self.slots[slot].holds_mshr = false;
        if self.pending_flush == Some(slot as u32) {
            self.pending_flush = None;
            self.fetch_resume_at = t + self.config.latencies.flush_penalty;
            self.stats.flushes += 1;
        }
        // Wake every consumer waiting on this producer: stage each one
        // unconditionally and keep it only if this was its last
        // unresolved operand.
        let mut waiter = self.slots[slot].first_waiter;
        self.slots[slot].first_waiter = NO_WAITER;
        while waiter != NO_WAITER {
            let (consumer, operand) = ((waiter >> 1) as usize, (waiter & 1) as usize);
            waiter = self.next_waiter[consumer][operand];
            let entry = self.slots[consumer];
            self.slots[consumer].pending = entry.pending - 1;
            self.woken[self.woken_len] = (consumer as u32, entry.op);
            self.woken_len += usize::from(entry.pending == 1);
        }
    }

    /// Runs this (freshly started) lane until it commits the whole
    /// trace.
    fn run(&mut self, x: &ExpandedTrace) {
        let lat = self.config.latencies;
        let cap = self.config.rob_entries;

        while self.committed < x.len() {
            self.cycle += 1;

            // --- Idle-cycle skip-ahead (O(1) probes) -----------------
            // Non-short-circuit `&`/`|`: every probe is a cheap load and
            // compare, and combining them costs less than the branch
            // mispredictions of evaluating them lazily.
            let head_done = (self.committed < self.next_fetch)
                & (self.slots[self.head_slot].state == SlotState::Done);
            let event_due = self.events.next_due <= self.cycle;
            let can_issue = (self.ready_len > self.ready_loads)
                | ((self.ready_loads > 0) & (self.mshr_inflight < self.config.mshrs));
            let fetch_has_room = (self.next_fetch < x.len())
                & (self.next_fetch - self.committed < cap)
                & (self.iq_occupancy < self.config.iq_entries);
            let can_dispatch = self.pending_flush.is_none() & fetch_has_room;
            if !(event_due
                | head_done
                | can_issue
                | (can_dispatch & (self.cycle >= self.fetch_resume_at)))
            {
                let mut target = self.events.next_due;
                if can_dispatch {
                    target = target.min(self.fetch_resume_at);
                }
                assert!(
                    target != u64::MAX,
                    "pipeline deadlock at cycle {} (committed {}/{})",
                    self.cycle,
                    self.committed,
                    x.len()
                );
                debug_assert!(target > self.cycle);
                // Every skipped cycle with a ready (necessarily
                // MSHR-blocked) load would have counted one stall in
                // the per-cycle walk; credit them in bulk.
                if self.ready_len > 0 {
                    self.stats.mshr_stall_cycles += target - self.cycle;
                }
                self.skipped_cycles += target - self.cycle;
                self.cycle = target;
            }
            assert!(
                self.cycle - self.last_commit_cycle < DEADLOCK_CYCLES,
                "pipeline deadlock at cycle {} (committed {}/{})",
                self.cycle,
                self.committed,
                x.len()
            );

            // 1. Complete executions whose latency has elapsed. (Unit-
            //    latency instructions never get here: they complete at
            //    issue time, below.) Wakeups publish before the issue
            //    stage, so a woken consumer is issue-eligible this
            //    cycle — just as in the reference walk.
            while let Some((t, slot)) = self.events.pop_due(self.cycle) {
                self.events_popped += 1;
                self.complete(slot as usize, t);
            }
            self.drain_woken();

            // 2. In-order commit, up to the machine width.
            let mut commits = 0;
            while commits < self.config.decode_width
                && self.committed < self.next_fetch
                && self.slots[self.head_slot].state == SlotState::Done
            {
                self.committed += 1;
                self.head_slot += 1;
                if self.head_slot == cap {
                    self.head_slot = 0;
                }
                commits += 1;
            }
            if commits > 0 {
                self.last_commit_cycle = self.cycle;
            }

            // 3. Issue ready instructions, oldest first, to free
            //    functional units. When the O(1) probe proves nothing
            //    can issue, the only scan-observable effect would be
            //    the single MSHR stall a blocked ready load records.
            let issuable = self.ready_len > self.ready_loads
                || (self.ready_loads > 0 && self.mshr_inflight < self.config.mshrs);
            if !issuable {
                if self.ready_loads > 0 {
                    self.stats.mshr_stall_cycles += 1;
                }
            } else {
                let mut int_slots = self.config.int_fus;
                let mut mem_slots = self.config.mem_fus;
                let mut fp_slots = self.config.fp_fus;
                let mut mshr_blocked_load = false;
                // Walk set bits once around the ring starting at the
                // ROB head: [head_slot..cap) then [0..head_slot), which
                // is exactly ascending trace-index (age) order. The
                // head word is visited twice, masked to its high then
                // its low bits. Wakeups during the scan are staged, so
                // no bit is set behind it: once `ready_len` bits (as
                // counted now) have been visited, the rest of the ring
                // is empty and the walk stops.
                let mut unvisited = self.ready_len;
                let words = self.ready_bits.len();
                let high = !0u64 << (self.head_slot % 64);
                let mut w = self.head_slot / 64;
                'scan: for step in 0..=words {
                    let sel = if step == 0 {
                        high
                    } else if step == words {
                        !high
                    } else {
                        !0
                    };
                    let mut bits = self.ready_bits[w] & sel;
                    while bits != 0 {
                        if (int_slots | mem_slots | fp_slots) == 0 {
                            // Every functional-unit class is spent for
                            // this cycle, so each remaining entry would
                            // take its `*_slots == 0` skip — a load
                            // blocked this way never even probes the
                            // MSHR file. Leave the rest ready and stop.
                            break 'scan;
                        }
                        let bit = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        unvisited -= 1;
                        let slot = w * 64 + bit;
                        let entry = self.slots[slot];
                        let done_at = match entry.op {
                            Op::IntAlu | Op::IntMul | Op::Branch => {
                                if int_slots == 0 {
                                    continue;
                                }
                                int_slots -= 1;
                                let l =
                                    if entry.op == Op::IntMul { lat.int_mul } else { lat.int_alu };
                                self.cycle + l
                            }
                            Op::FpAlu => {
                                if fp_slots == 0 {
                                    continue;
                                }
                                fp_slots -= 1;
                                self.cycle + lat.fp
                            }
                            Op::Load => {
                                if mem_slots == 0 {
                                    continue;
                                }
                                // A load needs a free MSHR in case it
                                // misses; if none is free it must wait.
                                if self.mshr_inflight >= self.config.mshrs {
                                    mshr_blocked_load = true;
                                    continue;
                                }
                                mem_slots -= 1;
                                self.stats.l1_accesses += 1;
                                let latency = if self.l1.access(entry.addr) {
                                    lat.l1_hit
                                } else {
                                    self.stats.l1_misses += 1;
                                    self.stats.l2_accesses += 1;
                                    let t = if self.l2.access(entry.addr) {
                                        lat.l1_hit + lat.l2_hit
                                    } else {
                                        self.stats.l2_misses += 1;
                                        if self.config.l2_next_line_prefetch {
                                            // Idealized next-line
                                            // prefetch: the following
                                            // line is resident by the
                                            // time a stream wants it.
                                            self.l2.access(entry.addr + crate::cache::LINE_BYTES);
                                            self.stats.prefetches += 1;
                                        }
                                        lat.l1_hit + lat.l2_hit + lat.dram
                                    };
                                    self.slots[slot].holds_mshr = true;
                                    self.mshr_inflight += 1;
                                    t
                                };
                                self.ready_loads -= 1;
                                self.cycle + latency
                            }
                            Op::Store => {
                                if mem_slots == 0 {
                                    continue;
                                }
                                mem_slots -= 1;
                                // Stores retire into a store buffer:
                                // they update cache state but never
                                // stall.
                                self.stats.l1_accesses += 1;
                                if !self.l1.access(entry.addr) {
                                    self.stats.l1_misses += 1;
                                    self.stats.l2_accesses += 1;
                                    if !self.l2.access(entry.addr) {
                                        self.stats.l2_misses += 1;
                                    }
                                }
                                self.cycle + 1
                            }
                        };
                        self.ready_bits[w] &= !(1u64 << bit);
                        self.ready_len -= 1;
                        self.iq_occupancy -= 1;
                        self.slots[slot].state = SlotState::Issued;
                        if done_at == self.cycle + 1 && !self.slots[slot].holds_mshr {
                            // Unit latency: complete right now instead
                            // of taking a wheel round-trip through the
                            // next iteration. The due time and every
                            // observable side effect are those of an
                            // event popping at `cycle + 1`; staged
                            // wakeups publish after the scan, so a
                            // woken consumer still cannot issue before
                            // the next cycle.
                            self.complete(slot, done_at);
                        } else {
                            self.events.push(done_at, slot as u32);
                        }
                    }
                    if unvisited == 0 {
                        break;
                    }
                    w += 1;
                    if w == words {
                        w = 0;
                    }
                }
                if mshr_blocked_load {
                    self.stats.mshr_stall_cycles += 1;
                }
                self.drain_woken();
            }

            // 4. Dispatch new instructions unless the front end is
            //    frozen by an unresolved mispredict or refilling.
            if self.pending_flush.is_none() && self.cycle >= self.fetch_resume_at {
                // All four dispatch bounds shrink by exactly one per
                // dispatched instruction, so the burst length is known
                // up front; only a mispredict cuts it short.
                let burst = self
                    .config
                    .decode_width
                    .min(x.len() - self.next_fetch)
                    .min(cap - (self.next_fetch - self.committed))
                    .min(self.config.iq_entries - self.iq_occupancy);
                let mut dispatched = 0;
                while dispatched < burst {
                    let i = self.next_fetch;
                    let slot = self.fetch_slot;
                    let op = x.ops[i];
                    // Count unresolved operands and hook this consumer
                    // into each outstanding producer's wakeup list,
                    // without branching on the (unpredictable) operand
                    // shape. `NO_DEP` is 0, so one wrapping compare tests
                    // "has a producer, and it is still in the window". An
                    // operand outside the window is pointed at distance 0
                    // — the consumer's own slot, whose previous occupant
                    // has committed and is `Done`, and whose waiter head
                    // the `Slot` write below overwrites — so the link is
                    // a select on the producer's state either way. A
                    // window is at most `cap` deep, so one wrap-around
                    // select finds the producer's slot without a modulo.
                    let in_flight = i - self.committed;
                    let mut pending = 0u8;
                    for (operand, &d) in x.deps[i].iter().enumerate() {
                        let d = d as usize;
                        let d = if d.wrapping_sub(1) < in_flight { d } else { 0 };
                        let p_slot = if slot >= d { slot - d } else { slot + cap - d };
                        let producer = self.slots[p_slot];
                        let live = producer.state != SlotState::Done;
                        self.next_waiter[slot][operand] = producer.first_waiter;
                        let link = ((slot as u32) << 1) | operand as u32;
                        self.slots[p_slot].first_waiter =
                            if live { link } else { producer.first_waiter };
                        pending += u8::from(live);
                    }
                    self.slots[slot] = Slot {
                        addr: x.addrs[i],
                        first_waiter: NO_WAITER,
                        op,
                        state: SlotState::Waiting,
                        pending,
                        holds_mshr: false,
                    };
                    let ready = pending == 0;
                    self.ready_bits[slot / 64] |= u64::from(ready) << (slot % 64);
                    self.ready_len += usize::from(ready);
                    self.ready_loads += usize::from(ready & (op == Op::Load));
                    self.iq_occupancy += 1;
                    // Resolve the prediction at fetch: either the trace
                    // oracle (non-branches carry no flags, so the oracle
                    // needs no is-branch test) or the live gshare
                    // predictor, which only branches may train.
                    let meta = x.branches[i];
                    let was_mispredict = match &mut self.predictor {
                        Some(p) => {
                            meta & BR_IS_BRANCH != 0
                                && p.predict_and_update(
                                    (meta >> BR_SITE_SHIFT) as u16,
                                    meta & BR_TAKEN != 0,
                                )
                        }
                        None => meta & BR_MISPREDICTED != 0,
                    };
                    self.next_fetch += 1;
                    self.fetch_slot += 1;
                    if self.fetch_slot == cap {
                        self.fetch_slot = 0;
                    }
                    dispatched += 1;
                    if was_mispredict {
                        self.pending_flush = Some(slot as u32);
                        break;
                    }
                }
            }
        }

        self.stats.cycles = self.cycle;
        self.stats.instructions = self.committed as u64;
    }
}

fn build_predictor(config: &CoreConfig) -> Option<Gshare> {
    match config.branch_model {
        BranchModel::FromTrace => None,
        BranchModel::Gshare { history_bits, table_bits } => {
            Some(Gshare::new(history_bits, table_bits))
        }
    }
}

/// Runs designs one at a time over a shared [`ExpandedTrace`] on one
/// reused lane — the simulator engine every high-fidelity evaluation
/// runs on.
///
/// Results are bit-identical to the cycle-by-cycle `ReferenceSimulator`
/// walk of each design over the original trace. Each run cold-starts
/// the lane, so a result never depends on which designs the simulator
/// ran before.
///
/// A `BatchSimulator` reuses its lane's allocations (ROB ring, cache
/// arrays, timing wheel) across runs, so a worker thread sweeping many
/// designs allocates once, not once per design.
///
/// # Examples
///
/// ```
/// use dse_sim::{BatchSimulator, CoreConfig, ExpandedTrace, ReferenceSimulator};
/// use dse_space::DesignSpace;
/// use dse_workloads::Benchmark;
///
/// let space = DesignSpace::boom();
/// let trace = Benchmark::Mm.trace(2_000, 7);
/// let expanded = ExpandedTrace::expand(&trace);
/// let config = CoreConfig::from_point(&space, &space.largest());
/// let mut sim = BatchSimulator::new();
/// let result = sim.run(&config, &expanded);
/// assert_eq!(result, ReferenceSimulator::new(config).run(&trace));
/// ```
#[derive(Debug, Default)]
pub struct BatchSimulator {
    /// Built on the first run, then recycled.
    lane: Option<Lane>,
}

impl BatchSimulator {
    /// Creates a batch simulator; its lane is allocated on first use.
    pub fn new() -> Self {
        Self { lane: None }
    }

    /// Simulates `config` over `trace` from a cold core.
    ///
    /// The result is bit-identical to
    /// `ReferenceSimulator::new(config).run(&original_trace)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace or an invalid configuration.
    pub fn run(&mut self, config: &CoreConfig, trace: &ExpandedTrace) -> SimResult {
        assert!(!trace.is_empty(), "cannot simulate an empty trace");
        if let Err(e) = config.validate() {
            panic!("invalid core configuration: {e}");
        }
        let lane = self.lane.get_or_insert_with(|| Lane::new(config));
        lane.start(config);
        let start = Instant::now();
        lane.run(trace);
        let busy = start.elapsed();

        // Kernel activity goes to the atomic registry once per run,
        // never into `SimResult` (whose bit-identity the equivalence
        // suite compares) and never from the hot loop.
        let m = metrics();
        m.kernel_runs.inc();
        m.events_popped.add(lane.events_popped);
        m.skipped_cycles.add(lane.skipped_cycles);
        m.run_seconds.observe_duration(busy);
        lane.stats
    }

    /// Simulates every design of `configs` over `trace` in turn on the
    /// one reused lane, returning one [`SimResult`] per design in input
    /// order — [`Self::run`] in a loop, kept for callers that hold a
    /// slice of designs.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace, an empty design list, or an invalid
    /// configuration.
    pub fn run_pack(&mut self, configs: &[CoreConfig], trace: &ExpandedTrace) -> Vec<SimResult> {
        assert!(!configs.is_empty(), "cannot simulate an empty design pack");
        configs.iter().map(|config| self.run(config, trace)).collect()
    }
}

/// Cached registry handles for lane-kernel metrics.
struct BatchMetrics {
    /// Lane runs (one per (trace, design) job), each over an
    /// already-expanded trace; together with `sim_trace_expansions_total`
    /// this measures how far each one-time expansion was amortized.
    kernel_runs: dse_obs::Counter,
    events_popped: dse_obs::Counter,
    skipped_cycles: dse_obs::Counter,
    /// One sample per lane run: its wall time.
    run_seconds: dse_obs::Histogram,
}

fn metrics() -> &'static BatchMetrics {
    static METRICS: std::sync::OnceLock<BatchMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = dse_obs::global();
        BatchMetrics {
            kernel_runs: registry.counter("sim_kernel_runs_total"),
            events_popped: registry.counter("sim_kernel_events_popped_total"),
            skipped_cycles: registry.counter("sim_kernel_skipped_cycles_total"),
            run_seconds: registry.histogram("sim_kernel_run_seconds", dse_obs::LATENCY_BUCKETS_S),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_space::DesignSpace;
    use dse_workloads::{Benchmark, Instr};
    use proptest::prelude::*;

    proptest! {
        /// `LaneCache` picks its victim as the first least stamp in one
        /// pass; `Cache` prefers the first empty way, then the true-LRU
        /// one. Their hit sequences must agree on any address stream, at
        /// odd and power-of-two set counts, with the kernel's next-line
        /// prefetch mixed in, before and after a reset.
        #[test]
        fn lane_cache_matches_cache(
            stream in proptest::collection::vec((0u64..1 << 16, proptest::bool::ANY), 1..400),
        ) {
            for sets in [1usize, 3, 16, 2048] {
                for ways in [1usize, 2, 5, 16] {
                    let mut lane = LaneCache::default();
                    lane.reshape(sets, ways);
                    // A line pool a few times the cache's capacity (at
                    // most 4096 lines), so streams both hit and evict.
                    let span = (sets * ways * 3).min(4096) as u64;
                    for round in 0..2 {
                        let mut cache = crate::Cache::new(sets, ways);
                        for (k, &(draw, prefetch)) in stream.iter().enumerate() {
                            let addr = (draw % span) * crate::cache::LINE_BYTES + draw % 64;
                            let hit = cache.access(addr);
                            prop_assert_eq!(
                                lane.access(addr), hit,
                                "{}x{} round {} access {}", sets, ways, round, k
                            );
                            if prefetch && !hit {
                                let next = addr + crate::cache::LINE_BYTES;
                                prop_assert_eq!(lane.access(next), cache.access(next));
                            }
                        }
                        lane.reset();
                    }
                }
            }
        }
    }

    fn configs(count: u64) -> Vec<CoreConfig> {
        let space = DesignSpace::boom();
        (0..count)
            .map(|i| {
                CoreConfig::from_point(&space, &space.decode(i * (space.size() - 1) / count.max(2)))
            })
            .collect()
    }

    #[test]
    fn kernel_counters_reach_the_registry() {
        // A chain of dependent cold-missing loads: every load is a wheel
        // event and each DRAM wait is a skipped idle span.
        let trace: Vec<Instr> = (0..200u64)
            .map(|i| Instr {
                op: Op::Load,
                deps: [(i > 0).then_some(1), None],
                addr: Some(i * 8192),
                branch: None,
            })
            .collect();
        let registry = dse_obs::global();
        let runs = registry.counter("sim_kernel_runs_total");
        let popped = registry.counter("sim_kernel_events_popped_total");
        let skipped = registry.counter("sim_kernel_skipped_cycles_total");
        let seconds = registry.histogram("sim_kernel_run_seconds", dse_obs::LATENCY_BUCKETS_S);
        let before = (runs.get(), popped.get(), skipped.get(), seconds.count());
        let x = ExpandedTrace::expand(&trace);
        let mut batch = BatchSimulator::new();
        for config in &configs(2) {
            let _ = batch.run(config, &x);
            let lane = batch.lane.as_ref().expect("lane built by the run");
            assert_eq!(lane.events_popped, 200, "one wheel pop per load");
            assert!(lane.skipped_cycles > 200 * 100, "DRAM waits are skipped");
        }
        // Other tests publish concurrently, so the registry only bounds
        // these runs' contribution from below.
        assert!(runs.get() - before.0 >= 2);
        assert!(popped.get() - before.1 >= 400);
        assert!(skipped.get() - before.2 >= 2 * 200 * 100);
        assert!(seconds.count() - before.3 >= 2, "one wall-time sample per run");
    }

    #[test]
    #[should_panic(expected = "empty design pack")]
    fn empty_pack_panics() {
        let x = ExpandedTrace::expand(&Benchmark::Mm.trace(100, 1));
        let _ = BatchSimulator::new().run_pack(&[], &x);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let x = ExpandedTrace::expand(&Vec::new());
        let _ = BatchSimulator::new().run_pack(&configs(1), &x);
    }
}
