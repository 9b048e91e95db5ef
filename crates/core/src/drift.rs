//! Concept-drift detection.
//!
//! SPOT watches a *novelty rate*: per arriving point, the fraction of its
//! FS projected cells that held (almost) nothing before it arrived. Under
//! a stable distribution this rate settles to a baseline; when the
//! generating distribution moves, new regions of the space light up and
//! the rate jumps. A Page–Hinkley test on that signal raises the drift
//! alarm, which the detector answers with an immediate SST re-evolution.

use spot_types::{DurableState, PersistError, StateReader, StateWriter};

/// One-sided (increase) Page–Hinkley change detector.
#[derive(Debug, Clone)]
pub struct PageHinkley {
    delta: f64,
    lambda: f64,
    min_n: u64,
    n: u64,
    mean: f64,
    cum: f64,
    min_cum: f64,
}

impl PageHinkley {
    /// Creates the detector: `delta` is the tolerated drift-free
    /// fluctuation, `lambda` the alarm threshold, `min_n` the warm-up
    /// sample count before alarms may fire.
    pub fn new(delta: f64, lambda: f64, min_n: u64) -> Self {
        PageHinkley {
            delta,
            lambda,
            min_n,
            n: 0,
            mean: 0.0,
            cum: 0.0,
            min_cum: 0.0,
        }
    }

    /// Observes one value; returns `true` when drift is signalled. The
    /// detector resets itself after an alarm.
    ///
    /// The first `min_n` observations are pure warm-up: they feed the mean
    /// estimate but do not accumulate deviation. Without this, the early
    /// gap between the unsettled mean and the true baseline masquerades as
    /// drift (cold-start false alarms).
    pub fn observe(&mut self, x: f64) -> bool {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        if self.n <= self.min_n {
            return false;
        }
        self.cum += x - self.mean - self.delta;
        self.min_cum = self.min_cum.min(self.cum);
        if self.cum - self.min_cum > self.lambda {
            self.reset();
            return true;
        }
        false
    }

    /// Observations since the last reset.
    pub fn observations(&self) -> u64 {
        self.n
    }

    /// Running mean of the monitored signal.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Clears all state (called automatically after an alarm).
    pub fn reset(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.cum = 0.0;
        self.min_cum = 0.0;
    }
}

impl DurableState for PageHinkley {
    fn capture(&self, w: &mut StateWriter) {
        w.f64_bits("delta", self.delta);
        w.f64_bits("lambda", self.lambda);
        w.u64("min_n", self.min_n);
        w.u64("n", self.n);
        w.f64_bits("mean", self.mean);
        w.f64_bits("cum", self.cum);
        w.f64_bits("min_cum", self.min_cum);
    }

    fn restore(&mut self, r: &StateReader<'_>) -> Result<(), PersistError> {
        self.delta = r.f64_bits("delta")?;
        self.lambda = r.f64_bits("lambda")?;
        self.min_n = r.u64("min_n")?;
        self.n = r.u64("n")?;
        self.mean = r.f64_bits("mean")?;
        self.cum = r.f64_bits("cum")?;
        self.min_cum = r.f64_bits("min_cum")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_signal_never_alarms() {
        let mut ph = PageHinkley::new(0.005, 10.0, 30);
        for i in 0..5000 {
            // Stationary ~20% novelty with deterministic dither.
            let x = if i % 5 == 0 { 1.0 } else { 0.0 };
            assert!(!ph.observe(x), "false alarm at {i}");
        }
        assert!((ph.mean() - 0.2).abs() < 0.05);
    }

    #[test]
    fn level_shift_alarms() {
        let mut ph = PageHinkley::new(0.005, 10.0, 30);
        for i in 0..1000 {
            assert!(!ph.observe(if i % 10 == 0 { 1.0 } else { 0.0 }));
        }
        // Novelty jumps to 90%.
        let mut fired_at = None;
        for i in 0..1000 {
            if ph.observe(if i % 10 == 0 { 0.0 } else { 1.0 }) {
                fired_at = Some(i);
                break;
            }
        }
        let at = fired_at.expect("drift must be detected");
        assert!(at < 500, "took too long: {at}");
    }

    #[test]
    fn warmup_suppresses_alarms() {
        let mut ph = PageHinkley::new(0.0, 0.1, 100);
        // Wild signal, but within warm-up.
        for i in 0..99 {
            assert!(!ph.observe(if i % 2 == 0 { 1.0 } else { 0.0 }));
        }
    }

    #[test]
    fn resets_after_alarm() {
        let mut ph = PageHinkley::new(0.005, 5.0, 10);
        for _ in 0..50 {
            ph.observe(0.0);
        }
        let mut fired = false;
        for _ in 0..200 {
            if ph.observe(1.0) {
                fired = true;
                break;
            }
        }
        assert!(fired);
        assert_eq!(ph.observations(), 0);
    }
}
