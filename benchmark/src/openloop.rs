//! The open-loop scheduler: sends go out on a fixed schedule whether or not
//! the system keeps up, and every latency is taken from the instant a send
//! was *due*, not from when the generator got round to it. A stall
//! therefore charges its wait to every request queued behind it instead of
//! silently pausing the load (coordinated omission).

use std::time::{Duration, Instant};

/// Time as the scheduler sees it; the test substitutes a clock it can stall.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= t_ns`; at once when that instant has passed.
    fn wait_until(&self, t_ns: u64);
}

/// Wall clock counted from a shared epoch, so due times and observations
/// taken on different threads are comparable.
#[derive(Debug, Clone, Copy)]
pub struct RealClock {
    pub epoch: Instant,
}

impl RealClock {
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// Sleeps through the bulk of a long wait and spins the last stretch:
    /// a sleeping generator leaves its core to the system under test, and
    /// the spin keeps the send within microseconds of its due time.
    fn wait_until(&self, t_ns: u64) {
        const SPIN_BELOW_NS: u64 = 150_000;
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            let remaining = t_ns - now;
            if remaining > SPIN_BELOW_NS {
                std::thread::sleep(Duration::from_nanos(remaining - SPIN_BELOW_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// A fixed-rate schedule: send `i` is due at `start_ns + i * period_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub period_ns: u64,
}

impl Schedule {
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + i * self.period_ns
    }
}

/// Drives the sends `first, first + step, …` below `total` on `schedule`
/// (one caller per connection, each with its own `first`). `send` gets the
/// send's index and due time and returns when the send call returns. The
/// schedule is never re-based: after a stall the overdue sends go out back
/// to back, each still carrying its original due time. Returns how late
/// each send started (`start − due`, ns) — the generator's own lag.
pub fn drive<C: Clock>(
    clock: &C,
    schedule: Schedule,
    first: u64,
    step: u64,
    total: u64,
    mut send: impl FnMut(u64, u64),
) -> Vec<u64> {
    let mut lags = Vec::with_capacity((total.saturating_sub(first) / step.max(1)) as usize + 1);
    let mut i = first;
    while i < total {
        let due = schedule.due_ns(i);
        clock.wait_until(due);
        lags.push(clock.now_ns().saturating_sub(due));
        send(i, due);
        i += step;
    }
    lags
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when someone waits on it or a send takes time.
    struct FakeClock(Cell<u64>);

    impl FakeClock {
        fn advance(&self, ns: u64) {
            self.0.set(self.0.get() + ns);
        }
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    const PERIOD: u64 = 1_000_000; // 1 ms between sends
    const SERVICE: u64 = 100_000; // a healthy send takes 100 µs
    const STALL: u64 = 50_000_000; // one send takes 50 ms
    const STALLED_SEND: u64 = 10;

    #[test]
    fn requests_behind_a_stall_are_charged_the_wait() {
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule {
            start_ns: 0,
            period_ns: PERIOD,
        };
        let mut latency = Vec::new(); // completion − due: what we report
        let mut service = Vec::new(); // completion − actual start: what coordinated omission reports
        let lags = drive(&clock, schedule, 0, 1, 100, |i, due| {
            let started = clock.now_ns();
            clock.advance(if i == STALLED_SEND { STALL } else { SERVICE });
            latency.push(clock.now_ns() - due);
            service.push(clock.now_ns() - started);
        });

        // Before the stall every send starts on time and costs its service time.
        assert!(lags[..=STALLED_SEND as usize].iter().all(|&l| l == 0));
        assert!(latency[..STALLED_SEND as usize]
            .iter()
            .all(|&l| l == SERVICE));
        assert_eq!(latency[STALLED_SEND as usize], STALL);

        // The send due 1 ms after the stalled one could not start for 49 ms,
        // and that wait is in its latency although its own service was fast.
        let next = STALLED_SEND as usize + 1;
        assert_eq!(lags[next], STALL - PERIOD);
        assert_eq!(latency[next], STALL - PERIOD + SERVICE);
        assert_eq!(service[next], SERVICE);

        // The backlog drains at (PERIOD − SERVICE) per send, so ~54 sends
        // run late; a coordinated-omission measurement would show one slow
        // request and ninety-nine fast ones.
        let late = latency.iter().filter(|&&l| l > 2 * SERVICE).count();
        assert!((50..=60).contains(&late), "{late} late requests");
        assert_eq!(service.iter().filter(|&&s| s > SERVICE).count(), 1);

        // Overdue sends go out back to back: no due time is skipped or moved.
        assert_eq!(latency.len(), 100);
        // Once the backlog is gone the generator is on schedule again.
        assert_eq!(*lags.last().unwrap(), 0);
        assert_eq!(*latency.last().unwrap(), SERVICE);
    }

    #[test]
    fn two_senders_share_one_schedule() {
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule {
            start_ns: 500,
            period_ns: 10,
        };
        let mut seen = Vec::new();
        drive(&clock, schedule, 1, 2, 7, |i, due| seen.push((i, due)));
        assert_eq!(seen, vec![(1, 510), (3, 530), (5, 550)]);
    }

    #[test]
    fn the_real_clock_waits_until_the_due_time() {
        let clock = RealClock {
            epoch: Instant::now(),
        };
        let due = clock.now_ns() + 2_000_000;
        clock.wait_until(due);
        assert!(clock.now_ns() >= due);
        clock.wait_until(0); // already past: returns at once
    }
}
