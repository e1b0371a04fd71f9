//! Hashed timer wheel for coarse per-connection deadlines.
//!
//! The reactor needs thousands of read/write deadlines that are armed and
//! re-armed on every request but almost never fire. A hashed wheel gives
//! O(1) insert and amortised O(1) expiry at a fixed granularity (the tick).
//!
//! Each owner (a connection) keeps its current deadline beside it, in a
//! [`Deadline`], and holds at most one live wheel entry: re-arming to a
//! later time only rewrites the [`Deadline`] and leaves the wheel alone. A
//! second entry goes in only when a re-arm moves the deadline *earlier*
//! than the entry already queued. When an entry fires, [`TimerWheel::settle`]
//! checks it against the owner's [`Deadline`]: it is re-queued if the
//! deadline moved later, dropped if the owner's generation moved on (the
//! phase it guarded is over) or if a newer entry superseded it, and
//! reported due otherwise. So the wheel holds about one entry per owner,
//! however many requests each one serves.
//!
//! [`TimerWheel::next_deadline`] bounds the poller's sleep. It reads an
//! occupancy bitmap (one bit per slot) and never looks at entries, so its
//! cost is fixed by the wheel size, not by how many deadlines are pending.

use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
struct Entry {
    due_tick: u64,
    token: u64,
}

/// A wheel entry that came due in [`TimerWheel::expire`]: hand it, with its
/// owner's [`Deadline`], to [`TimerWheel::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fired {
    /// The owner's token, as given to [`TimerWheel::arm`].
    pub token: u64,
    due_tick: u64,
}

/// One owner's deadline, kept beside the owner: when it is due, the
/// generation it guards, and which of the owner's wheel entries is current.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deadline {
    /// Due tick and the owner generation it was armed under.
    armed: Option<(u64, u64)>,
    /// Due tick of the owner's current wheel entry; an entry of the owner
    /// that fires with any other tick has been superseded.
    entry: Option<u64>,
}

/// Fixed-granularity timer wheel; see the module docs.
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    /// Bit `s` is set while slot `s` holds an entry.
    occupied: Vec<u64>,
    tick: Duration,
    start: Instant,
    /// First tick index that has not been expired yet. Every pending
    /// entry is due at or after it.
    cursor: u64,
    len: usize,
}

impl TimerWheel {
    /// Creates a wheel of `slots` buckets at `tick` granularity. Deadlines
    /// longer than `slots * tick` are still correct (entries re-queue on
    /// their slot until their tick comes up), just slightly more work.
    pub fn new(tick: Duration, slots: usize) -> TimerWheel {
        assert!(tick > Duration::ZERO, "tick must be positive");
        assert!(slots > 0, "wheel needs at least one slot");
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            occupied: vec![0; slots.div_ceil(64)],
            tick,
            start: Instant::now(),
            cursor: 0,
            len: 0,
        }
    }

    /// Number of entries in the wheel, superseded ones included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let elapsed = at.saturating_duration_since(self.start);
        (elapsed.as_nanos() / self.tick.as_nanos()) as u64
    }

    /// The instant tick `tick` begins.
    fn instant_of(&self, tick: u64) -> Instant {
        let nanos =
            self.tick.as_nanos().saturating_mul(u128::from(tick)).min(u128::from(u64::MAX)) as u64;
        self.start + Duration::from_nanos(nanos)
    }

    /// The tick a deadline `after` from `now` falls due on: rounded *up*
    /// past `now + after`, so it never fires early, and never before the
    /// cursor.
    fn due_tick(&self, now: Instant, after: Duration) -> u64 {
        (self.tick_of(now + after) + 1).max(self.cursor)
    }

    fn insert(&mut self, due_tick: u64, token: u64) {
        let slot = (due_tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(Entry { due_tick, token });
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.len += 1;
    }

    /// Arms `deadline` to fall due `after` from `now`, guarding the owner's
    /// `generation`; it replaces whatever the deadline was armed for. A wheel
    /// entry is inserted only when the owner has none due by then.
    pub fn arm(
        &mut self,
        deadline: &mut Deadline,
        now: Instant,
        after: Duration,
        token: u64,
        generation: u64,
    ) {
        let due = self.due_tick(now, after);
        deadline.armed = Some((due, generation));
        if deadline.entry.is_none_or(|queued| due < queued) {
            self.insert(due, token);
            deadline.entry = Some(due);
        }
    }

    /// Collects every entry whose tick has passed by `now` into `out`
    /// (cleared first). Settle each against its owner with
    /// [`TimerWheel::settle`].
    pub fn expire(&mut self, now: Instant, out: &mut Vec<Fired>) {
        out.clear();
        let now_tick = self.tick_of(now);
        if now_tick < self.cursor {
            return;
        }
        let nslots = self.slots.len() as u64;
        // Visit each slot at most once even if we fell far behind.
        let last = now_tick.min(self.cursor + nslots - 1);
        for t in self.cursor..=last {
            let slot = (t % nslots) as usize;
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].due_tick <= now_tick {
                    let e = bucket.swap_remove(i);
                    out.push(Fired { token: e.token, due_tick: e.due_tick });
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
            if bucket.is_empty() {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
            }
        }
        self.cursor = now_tick + 1;
    }

    /// Settles an entry [`TimerWheel::expire`] returned against its owner's
    /// `deadline` and current `generation`. Returns `true` when the deadline
    /// has passed. Otherwise the entry was superseded, guards a stale
    /// generation, or its deadline moved later (it is then re-queued).
    pub fn settle(&mut self, deadline: &mut Deadline, fired: Fired, generation: u64) -> bool {
        if deadline.entry != Some(fired.due_tick) {
            return false;
        }
        deadline.entry = None;
        match deadline.armed {
            Some((due, armed_under)) if armed_under == generation => {
                if due < self.cursor {
                    deadline.armed = None;
                    return true;
                }
                self.insert(due, fired.token);
                deadline.entry = Some(due);
            }
            _ => deadline.armed = None,
        }
        false
    }

    /// A time no later than the earliest pending entry's tick, or `None`
    /// when the wheel is empty. Bounds the poller timeout.
    ///
    /// It is the start of the first occupied slot's next tick. Entries
    /// beyond the wheel's horizon make it early, never late: the reactor
    /// then wakes once, expires nothing and asks again.
    pub fn next_deadline(&self) -> Option<Instant> {
        if self.len == 0 {
            return None;
        }
        let nslots = self.slots.len();
        let from = (self.cursor % nslots as u64) as usize;
        let slot = self.first_occupied_from(from)?;
        let ahead = (slot + nslots - from) % nslots;
        Some(self.instant_of(self.cursor + ahead as u64))
    }

    /// The first occupied slot at or after `from`, wrapping around.
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let words = self.occupied.len();
        let (word, bit) = (from / 64, from % 64);
        let head = self.occupied[word] & (!0u64 << bit);
        if head != 0 {
            return Some(word * 64 + head.trailing_zeros() as usize);
        }
        // The other words in ring order, then the start word's low bits.
        (1..=words).map(|k| (word + k) % words).find_map(|w| {
            let bits = self.occupied[w];
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MS: Duration = Duration::from_millis(1);

    /// Expires at `now` and settles every fired entry against the one
    /// owner `deadline` at `generation`; returns how many came due.
    fn expire_one(
        wheel: &mut TimerWheel,
        deadline: &mut Deadline,
        now: Instant,
        generation: u64,
    ) -> usize {
        let mut fired = Vec::new();
        wheel.expire(now, &mut fired);
        fired.into_iter().filter(|&f| wheel.settle(deadline, f, generation)).count()
    }

    fn tokens(fired: &[Fired]) -> Vec<u64> {
        fired.iter().map(|f| f.token).collect()
    }

    #[test]
    fn deadlines_fire_in_order_and_never_early() {
        let mut wheel = TimerWheel::new(MS, 16);
        let t0 = wheel.start;
        let (mut a, mut b) = (Deadline::default(), Deadline::default());
        wheel.arm(&mut a, t0, 5 * MS, 1, 0);
        wheel.arm(&mut b, t0, 50 * MS, 2, 0);
        assert_eq!(expire_one(&mut wheel, &mut a, t0 + 2 * MS, 0), 0, "nothing due yet");

        let mut out = Vec::new();
        wheel.expire(t0 + 10 * MS, &mut out);
        assert_eq!(tokens(&out), vec![1]);
        assert!(wheel.settle(&mut a, out[0], 0));
        assert_eq!(wheel.len(), 1);

        // Far beyond the wheel horizon (16 ticks) in one jump.
        wheel.expire(t0 + 200 * MS, &mut out);
        assert_eq!(tokens(&out), vec![2]);
        assert!(wheel.settle(&mut b, out[0], 0));
        assert!(wheel.is_empty());
    }

    #[test]
    fn entries_beyond_the_horizon_wait_for_their_tick() {
        let mut wheel = TimerWheel::new(MS, 4);
        let t0 = wheel.start;
        let mut deadline = Deadline::default();
        // 10 ms with a 4-slot wheel: the entry's slot comes round at about
        // 2 ms, but it must not fire until its own tick.
        wheel.arm(&mut deadline, t0, 10 * MS, 7, 3);
        assert_eq!(expire_one(&mut wheel, &mut deadline, t0 + 4 * MS, 3), 0);
        assert_eq!(expire_one(&mut wheel, &mut deadline, t0 + 12 * MS, 3), 1);
    }

    #[test]
    fn next_deadline_tracks_the_earliest_entry() {
        let mut wheel = TimerWheel::new(MS, 8);
        assert!(wheel.next_deadline().is_none());
        let t0 = wheel.start;
        let (mut a, mut b) = (Deadline::default(), Deadline::default());
        wheel.arm(&mut a, t0, 30 * MS, 1, 0);
        wheel.arm(&mut b, t0, 3 * MS, 2, 0);
        let dl = wheel.next_deadline().expect("entries pending");
        let dt = dl.saturating_duration_since(t0);
        assert!(dt >= 3 * MS && dt <= 6 * MS, "{dt:?}");
        // Once that entry is gone, the bound moves on. The one left is
        // beyond the 8-tick horizon, so the bound is when its slot next
        // comes round (15 ms), never the emptied slot (12 ms).
        assert_eq!(expire_one(&mut wheel, &mut b, t0 + 10 * MS, 0), 1);
        let dt = wheel.next_deadline().expect("one entry left").saturating_duration_since(t0);
        assert!(dt >= 15 * MS && dt <= 31 * MS, "{dt:?}");
    }

    #[test]
    fn rearming_one_deadline_many_times_keeps_at_most_two_entries() {
        // The reactor's pattern: a read deadline, then a write deadline,
        // then the next read deadline, each 10 s out, 100k times over a
        // minute of simulated keep-alive traffic, expiring as it goes.
        let mut wheel = TimerWheel::new(5 * MS, 512);
        let t0 = wheel.start;
        let mut deadline = Deadline::default();
        let mut generation = 0;
        for i in 0..100_000u32 {
            let now = t0 + Duration::from_micros(600) * i;
            generation += 1;
            wheel.arm(&mut deadline, now, Duration::from_secs(10), 9, generation);
            assert_eq!(expire_one(&mut wheel, &mut deadline, now, generation), 0, "at {i}");
            assert!(wheel.len() <= 2, "{} entries after {i} re-arms", wheel.len());
        }
        assert_eq!(wheel.len(), 1);
    }

    #[test]
    fn a_deadline_moved_earlier_fires_at_most_one_tick_late() {
        let tick = 5 * MS;
        let mut wheel = TimerWheel::new(tick, 64);
        let t0 = wheel.start;
        let mut deadline = Deadline::default();
        wheel.arm(&mut deadline, t0, Duration::from_secs(10), 4, 1);
        let due = t0 + 3 * MS + 120 * MS;
        wheel.arm(&mut deadline, t0 + 3 * MS, 120 * MS, 4, 2);
        assert_eq!(wheel.len(), 2, "moving earlier queues a second entry");
        let mut now = t0;
        let fired_at = loop {
            now += Duration::from_micros(250);
            if expire_one(&mut wheel, &mut deadline, now, 2) > 0 {
                break now;
            }
            assert!(now < t0 + Duration::from_secs(11), "never fired");
        };
        assert!(fired_at > due && fired_at <= due + tick, "fired {:?} after due", fired_at - due);
        // The superseded 10 s entry is dropped when it comes round.
        assert_eq!(expire_one(&mut wheel, &mut deadline, t0 + Duration::from_secs(11), 2), 0);
        assert!(wheel.is_empty());
    }

    #[test]
    fn a_stale_generation_never_fires() {
        let mut wheel = TimerWheel::new(MS, 16);
        let t0 = wheel.start;
        let mut deadline = Deadline::default();
        wheel.arm(&mut deadline, t0, 5 * MS, 3, 7);
        // The owner moved to generation 8 without re-arming: the phase the
        // deadline guarded is over.
        for step in 1..100 {
            assert_eq!(expire_one(&mut wheel, &mut deadline, t0 + step * MS, 8), 0);
        }
        assert!(wheel.is_empty());
        assert_eq!(deadline, Deadline::default());
    }

    #[test]
    fn a_deadline_moved_later_is_requeued_not_fired() {
        let mut wheel = TimerWheel::new(MS, 16);
        let t0 = wheel.start;
        let mut deadline = Deadline::default();
        wheel.arm(&mut deadline, t0, 5 * MS, 3, 1);
        wheel.arm(&mut deadline, t0 + 4 * MS, 40 * MS, 3, 1);
        assert_eq!(wheel.len(), 1, "moving later inserts nothing");
        assert_eq!(expire_one(&mut wheel, &mut deadline, t0 + 10 * MS, 1), 0);
        assert_eq!(wheel.len(), 1, "re-queued at the new deadline");
        assert_eq!(expire_one(&mut wheel, &mut deadline, t0 + 43 * MS, 1), 0);
        assert_eq!(expire_one(&mut wheel, &mut deadline, t0 + 46 * MS, 1), 1);
    }

    proptest! {
        #[test]
        fn next_deadline_is_never_later_than_the_earliest_live_entry(
            ops in proptest::collection::vec((proptest::bool::ANY, 0u64..60), 1..120),
            slots in 1usize..80,
        ) {
            let mut wheel = TimerWheel::new(MS, slots);
            let mut now = wheel.start;
            // The model: every inserted entry's token and tick, until expired.
            let mut live: Vec<(u64, u64)> = Vec::new();
            let mut out = Vec::new();
            for (token, (insert, ms)) in (0u64..).zip(ops) {
                if insert {
                    let due = wheel.due_tick(now, Duration::from_millis(ms));
                    wheel.insert(due, token);
                    live.push((token, due));
                } else {
                    now += Duration::from_millis(ms);
                    wheel.expire(now, &mut out);
                    let now_tick = wheel.tick_of(now);
                    let mut due: Vec<u64> =
                        live.iter().filter(|e| e.1 <= now_tick).map(|e| e.0).collect();
                    live.retain(|e| e.1 > now_tick);
                    let mut got = tokens(&out);
                    due.sort_unstable();
                    got.sort_unstable();
                    prop_assert_eq!(got, due, "expire must return exactly the entries due");
                }
                prop_assert_eq!(wheel.len(), live.len());
                match live.iter().map(|e| e.1).min() {
                    None => prop_assert!(wheel.next_deadline().is_none()),
                    Some(earliest) => {
                        let bound = wheel.next_deadline().expect("entries pending");
                        prop_assert!(bound <= wheel.instant_of(earliest));
                    }
                }
            }
        }

        #[test]
        fn a_deadline_fires_once_within_a_tick_of_its_latest_arming(
            ops in proptest::collection::vec((0u8..3, 1u64..40), 1..150),
        ) {
            let mut wheel = TimerWheel::new(MS, 8);
            let mut deadline = Deadline::default();
            let mut now = wheel.start;
            let mut generation = 0u64;
            // The model: when the current arming is due (if it is live).
            let mut due_at: Option<Instant> = None;
            for (op, ms) in ops {
                let span = Duration::from_millis(ms);
                match op {
                    0 => {
                        wheel.arm(&mut deadline, now, span, 1, generation);
                        due_at = Some(now + span);
                    }
                    1 => {
                        generation += 1;
                        due_at = None;
                    }
                    _ => {
                        now += span;
                        let fired = expire_one(&mut wheel, &mut deadline, now, generation) > 0;
                        match due_at {
                            Some(due) if now > due + MS => {
                                prop_assert!(fired, "more than a tick late");
                            }
                            Some(due) if fired => prop_assert!(now > due, "fired early"),
                            _ => prop_assert!(!fired, "fired while disarmed"),
                        }
                        if fired {
                            due_at = None;
                        }
                    }
                }
            }
        }
    }
}
