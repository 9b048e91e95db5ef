//! Logical stream clock.

use spot_types::{DurableState, PersistError, StateReader, StateWriter};

/// Monotonic logical clock.
///
/// SPOT's default configuration advances the clock by one tick per arriving
/// point, making ω of the (ω, ε) model a *count-based* window. Batch
/// arrivals can share a tick by calling [`LogicalClock::advance`] manually
/// instead of [`LogicalClock::tick`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogicalClock {
    now: u64,
}

impl LogicalClock {
    /// Clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current tick.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances by one tick and returns the new time.
    #[inline]
    pub fn tick(&mut self) -> u64 {
        self.now += 1;
        self.now
    }

    /// Advances by `ticks`.
    pub fn advance(&mut self, ticks: u64) -> u64 {
        self.now += ticks;
        self.now
    }
}

impl DurableState for LogicalClock {
    fn capture(&self, w: &mut StateWriter) {
        w.u64("now", self.now);
    }

    fn restore(&mut self, r: &StateReader<'_>) -> Result<(), PersistError> {
        self.now = r.u64("now")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_monotonic() {
        let mut c = LogicalClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.advance(10), 12);
        assert_eq!(c.now(), 12);
    }
}
