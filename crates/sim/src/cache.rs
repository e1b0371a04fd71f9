//! Set-associative cache with LRU replacement.

/// A set-associative cache with true-LRU replacement and 64-byte lines.
///
/// Used for both the L1 data cache and the unified L2. Only tags are
/// tracked (timing simulation needs hit/miss, not data). LRU state is an
/// access counter per line — exact LRU, not pseudo-LRU, which keeps the
/// conflict-miss behaviour deterministic and easy to reason about in
/// tests.
///
/// # Examples
///
/// ```
/// use dse_sim::Cache;
///
/// let mut c = Cache::new(2, 2); // 2 sets × 2 ways
/// assert!(!c.access(0x000)); // cold miss
/// assert!(c.access(0x000)); // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]`: resident tag or `None`.
    tags: Vec<Option<u64>>,
    /// Last-access stamp per way, for LRU victim selection.
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// 64-byte cache lines throughout the hierarchy.
pub const LINE_BYTES: u64 = 64;

impl Cache {
    /// Creates an empty cache of `sets × ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Self {
            sets,
            ways,
            tags: vec![None; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Accesses `addr`, returning whether it hit; allocates the line and
    /// updates LRU state either way (allocate-on-miss for both loads and
    /// stores).
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = addr / LINE_BYTES;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        let base = set * self.ways;
        // Hit?
        for w in 0..self.ways {
            if self.tags[base + w] == Some(tag) {
                self.stamps[base + w] = self.tick;
                self.hits += 1;
                return true;
            }
        }
        // Miss: fill into the LRU (or first empty) way.
        self.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            match self.tags[base + w] {
                None => {
                    victim = w;
                    break;
                }
                Some(_) if self.stamps[base + w] < oldest => {
                    oldest = self.stamps[base + w];
                    victim = w;
                }
                Some(_) => {}
            }
        }
        self.tags[base + victim] = Some(tag);
        self.stamps[base + victim] = self.tick;
        false
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over all accesses so far (0 if never accessed).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(16, 2);
        assert!(!c.access(0x1000));
        for _ in 0..10 {
            assert!(c.access(0x1000));
        }
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 10);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = Cache::new(16, 2);
        assert!(!c.access(0x40));
        assert!(c.access(0x41));
        assert!(c.access(0x7F));
        assert!(!c.access(0x80)); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set × 2 ways: three conflicting lines exercise LRU.
        let mut c = Cache::new(1, 2);
        let (a, b, d) = (0x000, 0x040, 0x080);
        c.access(a);
        c.access(b);
        c.access(a); // a most recent
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a), "a should have survived");
        assert!(!c.access(b), "b was the LRU victim");
    }

    #[test]
    fn associativity_removes_conflicts() {
        // Two lines mapping to the same set conflict at 1 way but
        // coexist at 2 ways.
        let stride = 64 * 4; // same set in a 4-set cache
        let mut direct = Cache::new(4, 1);
        let mut assoc = Cache::new(2, 2); // same capacity
        for _ in 0..8 {
            direct.access(0);
            direct.access(stride);
            assoc.access(0);
            assoc.access(stride);
        }
        assert!(assoc.miss_rate() < direct.miss_rate());
    }

    #[test]
    fn working_set_fits_iff_capacity_sufficient() {
        let mut small = Cache::new(4, 2); // 512 B
        let mut large = Cache::new(32, 2); // 4 KiB
                                           // 2 KiB working set, streamed twice.
        for round in 0..2 {
            for addr in (0..2048u64).step_by(64) {
                let hs = small.access(addr);
                let hl = large.access(addr);
                if round == 1 {
                    assert!(hl, "large cache retains the working set");
                    let _ = hs;
                }
            }
        }
        assert!(small.miss_rate() > large.miss_rate());
    }

    proptest! {
        #[test]
        fn counters_are_consistent(addrs in proptest::collection::vec(0u64..1_000_000, 1..500)) {
            let mut c = Cache::new(8, 2);
            for a in &addrs {
                c.access(*a);
            }
            prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
            prop_assert!((0.0..=1.0).contains(&c.miss_rate()));
        }

        #[test]
        fn second_access_to_any_address_hits_immediately(addr in 0u64..1_000_000) {
            let mut c = Cache::new(8, 2);
            c.access(addr);
            prop_assert!(c.access(addr));
        }
    }
}
