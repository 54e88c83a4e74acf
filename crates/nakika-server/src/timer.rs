//! A hashed timer wheel for per-connection deadlines on the reactor.
//!
//! The reactor's poll loop used to sleep forever (`timeout_ms = -1`):
//! with no I/O and no self-pipe wakeup, nothing ever ran, which meant a
//! slow-loris client that dripped one header byte per second pinned its
//! slab slot for the lifetime of the process.  The wheel fixes the
//! *mechanism* half of that problem: it tracks one deadline per
//! connection and tells the poll loop how long it may sleep
//! ([`TimerWheel::next_deadline_ms`]), so deadlines fire from the poll
//! timeout itself — no self-pipe write, no reliance on the peer sending
//! more bytes.  The *policy* half (when to re-arm a deadline) lives in
//! the reactor: a deadline is re-armed only on protocol progress
//! (complete request parsed, output drained), never on raw bytes.
//!
//! Design: a classic hashed wheel — `slots` buckets of `tick_ms`
//! granularity, entries hashed by `deadline / tick_ms % slots`.  Entries
//! are `(slab index, generation)` pairs; the wheel is deliberately
//! *lazy*: it never removes or updates entries in place.  Re-arming
//! inserts a fresh entry and bumps nothing; when an old entry surfaces,
//! [`TimerWheel::expire`] hands it to the caller's validation closure,
//! which checks it against the connection's authoritative deadline (and
//! generation) and either evicts or tells the wheel to re-file it.  This
//! keeps insert O(1) with no per-connection back-pointers into the wheel.
//!
//! Time is a plain `u64` of milliseconds supplied by the caller, so unit
//! tests drive the wheel with a [`ManualClock`](nakika_core::service::ManualClock)
//! instead of the wall.

/// One armed deadline: the connection's slab index and generation at the
/// time it was filed (the generation defends against slab-slot reuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimerEntry {
    pub(crate) idx: usize,
    pub(crate) gen: u64,
    pub(crate) deadline_ms: u64,
}

/// Verdict of the caller's validation closure for a surfaced entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerVerdict {
    /// The deadline really has passed: evict the connection.
    Fire,
    /// The connection made progress since this entry was filed; its
    /// authoritative deadline is now the given time — re-file it.
    Refile(u64),
    /// The connection is gone (closed, or the slot was reused under a
    /// newer generation): drop the entry.
    Drop,
}

pub(crate) struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    tick_ms: u64,
    /// Wheel time already swept, in ticks since time zero.
    swept_tick: u64,
    len: usize,
}

impl TimerWheel {
    pub(crate) fn new(tick_ms: u64, slots: usize, now_ms: u64) -> TimerWheel {
        assert!(tick_ms > 0 && slots > 1);
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick_ms,
            swept_tick: now_ms / tick_ms,
            len: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Files a deadline.  Deadlines already in the past land in the next
    /// sweepable tick rather than being lost.
    pub(crate) fn insert(&mut self, idx: usize, gen: u64, deadline_ms: u64) {
        let tick = (deadline_ms / self.tick_ms).max(self.swept_tick + 1);
        let slot = (tick as usize) % self.slots.len();
        self.slots[slot].push(TimerEntry {
            idx,
            gen,
            deadline_ms,
        });
        self.len += 1;
    }

    /// Milliseconds the poll loop may sleep before the next entry *could*
    /// be due, or `None` when the wheel is empty (sleep forever).  This is
    /// a lower bound: an entry hashed into a near slot by a far-future
    /// deadline may cause an early wakeup (the sweep just re-files it),
    /// but a due deadline is never reported later than one tick.
    pub(crate) fn next_deadline_ms(&self, now_ms: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let n = self.slots.len() as u64;
        (1..=n)
            .map(|ahead| self.swept_tick + ahead)
            .find(|tick| !self.slots[(*tick as usize) % self.slots.len()].is_empty())
            .map(|tick| (tick * self.tick_ms).saturating_sub(now_ms).max(1))
    }

    /// Sweeps every tick up to `now_ms`, surfacing each filed entry to
    /// `judge`.  `Fire` entries are returned (the caller evicts),
    /// `Refile` entries are re-filed at their new deadline, `Drop`
    /// entries vanish.
    pub(crate) fn expire(
        &mut self,
        now_ms: u64,
        mut judge: impl FnMut(&TimerEntry) -> TimerVerdict,
    ) -> Vec<TimerEntry> {
        let now_tick = now_ms / self.tick_ms;
        if now_tick <= self.swept_tick || self.len == 0 {
            self.swept_tick = self.swept_tick.max(now_tick);
            return Vec::new();
        }
        let mut fired = Vec::new();
        let mut refile = Vec::new();
        // A jump farther than one rotation visits every slot exactly once.
        let span = (now_tick - self.swept_tick).min(self.slots.len() as u64);
        for tick in self.swept_tick + 1..=self.swept_tick + span {
            let slot = (tick as usize) % self.slots.len();
            for entry in self.slots[slot].drain(..) {
                self.len -= 1;
                if entry.deadline_ms > now_ms {
                    // Far-future deadline that hashed into this rotation:
                    // not due yet, file it for the next pass.
                    refile.push(entry);
                    continue;
                }
                match judge(&entry) {
                    TimerVerdict::Fire => fired.push(entry),
                    TimerVerdict::Refile(deadline_ms) => refile.push(TimerEntry {
                        deadline_ms,
                        ..entry
                    }),
                    TimerVerdict::Drop => {}
                }
            }
        }
        self.swept_tick = now_tick;
        for entry in refile {
            self.insert(entry.idx, entry.gen, entry.deadline_ms);
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nakika_core::service::{Clock, ManualClock};

    /// Millisecond view over the seconds-granularity [`ManualClock`], so
    /// these tests are driven by the same clock abstraction as the
    /// service layer.
    fn ms(clock: &ManualClock) -> u64 {
        clock.now_secs() * 1000
    }

    #[test]
    fn deadline_fires_from_poll_timeout_without_a_wakeup() {
        // The downgrade-resilience scenario: nothing ever writes to the
        // self-pipe and the peer sends no further bytes.  The only thing
        // the poll loop has is the wheel's suggested sleep — after
        // sleeping it, the deadline must fire.
        let clock = ManualClock::new(100);
        let mut wheel = TimerWheel::new(25, 256, ms(&clock));
        wheel.insert(7, 1, ms(&clock) + 5_000);

        // The wheel bounds the sleep: never past the deadline.
        let sleep = wheel.next_deadline_ms(ms(&clock)).expect("armed");
        assert!(sleep <= 5_000, "sleep {sleep} must not overshoot");

        // Simulate the loop sleeping exactly as told, repeatedly, with no
        // events delivered.  Within the deadline (+ one tick of slack) the
        // entry surfaces.
        let mut fired = Vec::new();
        let mut slept_ms = 0;
        while fired.is_empty() {
            let sleep = wheel.next_deadline_ms(ms(&clock)).expect("still armed");
            slept_ms += sleep;
            assert!(slept_ms <= 5_000 + 25, "deadline overshot: {slept_ms}");
            clock.advance(sleep.div_ceil(1000).max(1));
            fired = wheel.expire(ms(&clock), |_| TimerVerdict::Fire);
        }
        assert_eq!(fired.len(), 1);
        assert_eq!((fired[0].idx, fired[0].gen), (7, 1));
        assert!(wheel.is_empty());
        assert_eq!(wheel.next_deadline_ms(ms(&clock)), None);
    }

    #[test]
    fn progress_refiles_instead_of_firing() {
        let clock = ManualClock::new(0);
        let mut wheel = TimerWheel::new(25, 64, ms(&clock));
        wheel.insert(3, 9, 2_000);
        clock.advance(3); // 3000 ms: past the filed deadline.
        let fired = wheel.expire(ms(&clock), |_| TimerVerdict::Refile(6_000));
        assert!(fired.is_empty(), "progressed connection must not fire");
        assert!(!wheel.is_empty());
        clock.advance(4); // 7000 ms: past the re-filed deadline.
        let fired = wheel.expire(ms(&clock), |_| TimerVerdict::Fire);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].deadline_ms, 6_000);
    }

    #[test]
    fn dropped_entries_vanish_and_empty_wheel_sleeps_forever() {
        let clock = ManualClock::new(0);
        let mut wheel = TimerWheel::new(25, 64, ms(&clock));
        wheel.insert(1, 1, 500);
        clock.advance(1);
        let fired = wheel.expire(ms(&clock), |_| TimerVerdict::Drop);
        assert!(fired.is_empty());
        assert!(wheel.is_empty());
        assert_eq!(wheel.next_deadline_ms(ms(&clock)), None);
    }

    #[test]
    fn far_future_deadline_does_not_fire_early() {
        let clock = ManualClock::new(0);
        // 8 slots * 10 ms tick = one rotation is only 80 ms, so a 10 s
        // deadline wraps the wheel many times over.
        let mut wheel = TimerWheel::new(10, 8, ms(&clock));
        wheel.insert(2, 4, 10_000);
        for _ in 0..9 {
            clock.advance(1);
            let fired = wheel.expire(ms(&clock), |_| TimerVerdict::Fire);
            assert!(fired.is_empty(), "fired {} ms early", 10_000 - ms(&clock));
        }
        clock.advance(1); // 10_000 ms.
        let fired = wheel.expire(ms(&clock), |_| TimerVerdict::Fire);
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn past_deadlines_are_not_lost() {
        let clock = ManualClock::new(10);
        let mut wheel = TimerWheel::new(25, 64, ms(&clock));
        // Deadline already in the past at insert time.
        wheel.insert(5, 2, 1_000);
        clock.advance(1);
        let fired = wheel.expire(ms(&clock), |_| TimerVerdict::Fire);
        assert_eq!(fired.len(), 1);
    }
}
