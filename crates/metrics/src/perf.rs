//! Wall-clock throughput instrumentation.

use std::time::{Duration, Instant};

/// Wall-clock throughput meter.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    started: Instant,
    items: u64,
}

impl Default for ThroughputMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl ThroughputMeter {
    /// Starts the clock.
    pub fn new() -> Self {
        ThroughputMeter {
            started: Instant::now(),
            items: 0,
        }
    }

    /// Records `n` processed items.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.items += n;
    }

    /// Elapsed time since construction.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Items per second since construction.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.items as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts_items() {
        let mut m = ThroughputMeter::new();
        m.add(10);
        m.add(5);
        std::thread::sleep(Duration::from_millis(2));
        assert!(m.elapsed() >= Duration::from_millis(2));
        // 15 items over at least 2 ms.
        assert!(m.throughput() > 0.0 && m.throughput() <= 7_500.0);
    }
}
