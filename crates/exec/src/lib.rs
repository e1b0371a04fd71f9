//! Deterministic parallel evaluation backend.
//!
//! Every CPI evaluation in the workspace used to be strictly
//! sequential. This crate supplies the two pieces that make batched
//! evaluation fast *without* giving up reproducibility:
//!
//! * [`par_map`] / [`par_map_indexed`] / [`par_map_with`] — a std-only
//!   scoped-thread work pool (`std::thread::scope`, no dependencies)
//!   that fans a slice of jobs across cores and gathers results **by
//!   index**, so the output order — and therefore every downstream fold
//!   over it — is independent of OS scheduling. Running with 1 thread
//!   or N threads produces bit-identical results. The `_with` variant
//!   gives each worker a private scratch value (e.g. a reusable
//!   simulator) so per-job setup costs amortize across a batch.
//! * [`CpiCache`] — the shared memoized CPI cache keyed by a design's
//!   encoded index, with hit/miss/eval counters ([`CacheStats`]). It
//!   replaces the ad-hoc `HashMap` caches that used to live separately
//!   in the HF evaluator, the HF phase and the test utilities, and its
//!   counters surface in `HfOutcome`/`ExplorationReport` as free
//!   observability.
//!
//! On top of the backend sit the workspace's unified evaluation types:
//! [`Evaluator`] (the one batch-first cost-model interface — every
//! fidelity implements it directly, and the baselines drive the same
//! simulator through it — returning [`Evaluation`]s tagged with a
//! [`Fidelity`]), [`Constraint`] (the one feasibility interface shared
//! by the RL phases and the baselines) and [`CostLedger`] (the per-run,
//! per-fidelity accounting of evaluations, cache hits/misses, denied
//! proposals and model-time units — the single source of budget truth).
//!
//! Thread-count policy lives in [`default_threads`]: the `DSE_THREADS`
//! environment variable when set (a positive integer), otherwise the
//! machine's available parallelism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evaluator;
mod ledger;

pub use evaluator::{Constraint, Evaluation, Evaluator, Fidelity};
pub use ledger::{CostLedger, FidelityLedger, LedgerEntry, LedgerRouter, LedgerSummary};

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "DSE_THREADS";

/// The default number of worker threads for batched evaluation.
///
/// Honours `DSE_THREADS` (a positive integer) when set; otherwise the
/// machine's available parallelism; 1 when even that is unknown. A set
/// but unusable value (unparsable, or zero) is reported once on stderr
/// and otherwise ignored.
pub fn default_threads() -> usize {
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| {
            eprintln!(
                "warning: ignoring {THREADS_ENV}={value:?} (expected a positive integer); \
                 falling back to the machine's available parallelism"
            );
        });
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` workers, returning results
/// in item order regardless of scheduling.
///
/// Work distribution is a shared atomic cursor, so threads stay busy on
/// uneven jobs; results are gathered by index, so `par_map(items, 1, f)`
/// and `par_map(items, n, f)` return identical vectors whenever `f` is a
/// pure function of its arguments. With `threads <= 1` (or fewer than
/// two items) no threads are spawned at all.
///
/// # Panics
///
/// Propagates the first panic raised inside `f`.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, threads, |_, item| f(item))
}

/// [`par_map`] variant handing `f` the item index as well.
///
/// # Panics
///
/// Propagates the first panic raised inside `f`.
pub fn par_map_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, threads, || (), |(), i, item| f(i, item))
}

/// [`par_map_indexed`] variant with per-worker scratch state.
///
/// Each worker thread calls `init` once and hands the resulting scratch
/// value to every job it processes, so expensive per-job setup (a
/// simulator's cache arrays, a scratch buffer) amortizes across the
/// batch. The scratch must not influence results — job outputs are
/// gathered by index, and the bit-identical-at-any-thread-count
/// guarantee only holds if `f(scratch, i, item)` is a pure function of
/// `(i, item)`.
///
/// With `threads <= 1` (or fewer than two items) everything runs on the
/// calling thread with a single scratch value and no spawns. Otherwise
/// the calling thread is one of the workers and `threads - 1` more are
/// spawned, so a two-worker batch pays for one spawn, not two.
///
/// # Panics
///
/// Propagates the first panic raised inside `init` or `f`.
pub fn par_map_with<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        let mut scratch = init();
        return items.iter().enumerate().map(|(i, item)| f(&mut scratch, i, item)).collect();
    }

    let start = std::time::Instant::now();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut gathered: Vec<Option<R>> = Vec::with_capacity(items.len());
    gathered.resize_with(items.len(), || None);

    let mut gather_time = std::time::Duration::ZERO;
    let work = || {
        let mut scratch = init();
        let mut produced = Vec::new();
        loop {
            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= items.len() {
                return produced;
            }
            produced.push((i, f(&mut scratch, i, &items[i])));
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let own = work();
        // Gathering starts when the calling thread's share runs dry:
        // the first join also absorbs the straggler wait, later ones
        // are pure scatter-by-index.
        let gather_start = std::time::Instant::now();
        let joined = handles.into_iter().map(|h| h.join().expect("evaluation worker panicked"));
        for (i, value) in std::iter::once(own).chain(joined).flatten() {
            gathered[i] = Some(value);
        }
        gather_time = gather_start.elapsed();
    });

    metrics().record(items.len(), start.elapsed(), gather_time);
    gathered.into_iter().map(|slot| slot.expect("every index produced")).collect()
}

/// Cached registry handles for the `par_map` wall/gather histograms.
struct ParMapMetrics {
    wall_seconds: dse_obs::Histogram,
    gather_seconds: dse_obs::Histogram,
    items: dse_obs::Histogram,
}

impl ParMapMetrics {
    fn record(&self, n_items: usize, wall: std::time::Duration, gather: std::time::Duration) {
        self.wall_seconds.observe_duration(wall);
        self.gather_seconds.observe_duration(gather);
        self.items.observe(n_items as f64);
    }
}

fn metrics() -> &'static ParMapMetrics {
    static METRICS: std::sync::OnceLock<ParMapMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = dse_obs::global();
        ParMapMetrics {
            wall_seconds: registry.histogram("exec_par_map_seconds", dse_obs::LATENCY_BUCKETS_S),
            gather_seconds: registry
                .histogram("exec_par_map_gather_seconds", dse_obs::LATENCY_BUCKETS_S),
            items: registry.histogram("exec_par_map_items", dse_obs::SIZE_BUCKETS),
        }
    })
}

/// Hit/miss/eval counters of a [`CpiCache`] (or any memoized evaluator).
///
/// Serializable so services can surface memo counters verbatim in
/// metrics payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh evaluation.
    pub misses: u64,
    /// Distinct designs currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Merges another counter set into this one (entry counts add).
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({} cached, {:.0}% hit rate)",
            self.hits,
            self.misses,
            self.entries,
            self.hit_rate() * 100.0
        )
    }
}

/// The shared memoized CPI cache, keyed by encoded design point.
///
/// One cache instance backs one evaluator (or one search phase); every
/// lookup is counted so experiment reports can state exactly how much
/// work memoization saved.
///
/// # Examples
///
/// ```
/// use dse_exec::CpiCache;
///
/// let mut cache = CpiCache::new();
/// assert_eq!(cache.get(7), None);
/// cache.insert(7, 1.25);
/// assert_eq!(cache.get(7), Some(1.25));
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CpiCache {
    map: HashMap<u64, f64>,
    hits: u64,
    misses: u64,
}

impl CpiCache {
    /// An empty cache with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counted lookup: a hit or miss is recorded.
    pub fn get(&mut self, key: u64) -> Option<f64> {
        match self.map.get(&key) {
            Some(&cpi) => {
                self.hits += 1;
                Some(cpi)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Uncounted lookup (for peeking without skewing the counters).
    pub fn peek(&self, key: u64) -> Option<f64> {
        self.map.get(&key).copied()
    }

    /// Stores the CPI of a design.
    pub fn insert(&mut self, key: u64, cpi: f64) {
        self.map.insert(key, cpi);
    }

    /// Whether a design is cached (uncounted).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Number of distinct designs cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats { hits: self.hits, misses: self.misses, entries: self.map.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_on_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map(&items, threads, |&x| x * x), expected, "{threads} threads");
        }
    }

    #[test]
    fn par_map_results_are_bit_identical_across_thread_counts() {
        // Floating-point work whose result depends on evaluation inputs
        // only — parallel scheduling must not perturb a single bit.
        let items: Vec<f64> = (1..200).map(|i| i as f64 * 0.37).collect();
        let work = |&x: &f64| (x.sin() * x.sqrt()).powi(3) / (1.0 + x);
        let sequential = par_map(&items, 1, work);
        for threads in [2, 5, 16] {
            let parallel = par_map(&items, threads, work);
            let same = sequential.iter().zip(&parallel).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{threads} threads diverged");
        }
    }

    #[test]
    fn par_map_indexed_passes_the_item_index() {
        let items = ["a", "b", "c"];
        let labelled = par_map_indexed(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(labelled, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn par_map_handles_empty_and_single_inputs() {
        assert_eq!(par_map(&[] as &[u8], 4, |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[9], 4, |&x| x + 1), vec![10]);
    }

    #[test]
    fn par_map_with_reuses_scratch_within_a_worker() {
        // The scratch is a per-worker job counter: with one worker it
        // must see every job; results stay in item order regardless.
        let items: Vec<u32> = (0..50).collect();
        let out = par_map_with(
            &items,
            1,
            || 0u32,
            |count, _, &x| {
                *count += 1;
                (x, *count)
            },
        );
        assert_eq!(out.iter().map(|&(x, _)| x).collect::<Vec<_>>(), items);
        let counts: Vec<u32> = out.iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, (1..=50).collect::<Vec<_>>(), "one worker sees all jobs in order");
    }

    #[test]
    fn par_map_with_matches_sequential_at_any_thread_count() {
        // A pure function of (i, item) must give bit-identical output
        // whatever the worker count, scratch reuse included.
        let items: Vec<f64> = (1..150).map(|i| i as f64 * 0.73).collect();
        let run = |threads: usize| {
            par_map_with(&items, threads, Vec::<f64>::new, |buf, i, &x| {
                buf.push(x); // scratch mutation must not leak into results
                (x.sin().abs() * (i as f64 + 1.0)).sqrt()
            })
        };
        let sequential = run(1);
        for threads in [2, 4, 16] {
            let parallel = run(threads);
            let same = sequential.iter().zip(&parallel).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{threads} threads diverged");
        }
    }

    #[test]
    fn par_map_with_makes_the_calling_thread_a_worker() {
        // One scratch per worker, and one of the workers is the caller:
        // `threads` workers cost `threads - 1` spawns.
        let items: Vec<u32> = (0..64).collect();
        for threads in [2, 3, 8] {
            let inits = std::sync::Mutex::new(Vec::new());
            let out = par_map_with(
                &items,
                threads,
                || inits.lock().unwrap().push(std::thread::current().id()),
                |(), _, &x| x + 1,
            );
            assert_eq!(out, (1..=64).collect::<Vec<_>>());
            let inits = inits.into_inner().unwrap();
            assert_eq!(inits.len(), threads, "one scratch per worker");
            let caller = std::thread::current().id();
            assert_eq!(inits.iter().filter(|&&id| id == caller).count(), 1, "{threads} threads");
        }
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut cache = CpiCache::new();
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.get(1), None);
        cache.insert(1, 2.5);
        assert_eq!(cache.get(1), Some(2.5));
        assert_eq!(cache.peek(2), None); // uncounted
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.lookups(), 3);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_absorb_adds_counters() {
        let mut a = CacheStats { hits: 1, misses: 2, entries: 3 };
        a.absorb(CacheStats { hits: 10, misses: 20, entries: 30 });
        assert_eq!(a, CacheStats { hits: 11, misses: 22, entries: 33 });
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
