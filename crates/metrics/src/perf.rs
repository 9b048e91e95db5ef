//! Throughput, latency and memory instrumentation.

use spot_types::stats::quantile;
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

    /// Items recorded so far.
    pub fn items(&self) -> u64 {
        self.items
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

/// Per-item latency recorder with bounded memory (uniform reservoir).
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
    capacity: usize,
    seen: u64,
}

impl LatencyRecorder {
    /// Recorder holding at most `capacity` samples (≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LatencyRecorder {
            samples: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, d: Duration) {
        self.seen += 1;
        let micros = d.as_secs_f64() * 1e6;
        if self.samples.len() < self.capacity {
            self.samples.push(micros);
        } else {
            // Deterministic reservoir: replace a pseudo-random slot derived
            // from the sequence number (keeps the recorder dependency-free
            // and reproducible).
            let slot =
                (self.seen.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.capacity;
            self.samples[slot] = micros;
        }
    }

    /// Number of observations recorded (not retained).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Latency quantile in microseconds over the retained sample.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(&self.samples, q)
    }

    /// Mean latency in microseconds over the retained sample.
    pub fn mean_us(&self) -> f64 {
        spot_types::stats::mean(&self.samples)
    }
}

/// A point-in-time memory reading of a detector's synopses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryReading {
    /// Populated projected cells summed over subspaces.
    pub projected_cells: usize,
    /// Approximate bytes across all synopsis stores.
    pub approx_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts_items() {
        let mut m = ThroughputMeter::new();
        m.add(10);
        m.add(5);
        assert_eq!(m.items(), 15);
        std::thread::sleep(Duration::from_millis(2));
        assert!(m.throughput() > 0.0);
        assert!(m.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn latency_quantiles() {
        let mut r = LatencyRecorder::new(100);
        for i in 1..=100u64 {
            r.record(Duration::from_micros(i));
        }
        assert_eq!(r.seen(), 100);
        let p50 = r.quantile_us(0.5);
        assert!((p50 - 50.5).abs() < 1.0, "p50={p50}");
        assert!(r.quantile_us(1.0) <= 100.0 + 1e-9);
        assert!(r.mean_us() > 0.0);
    }

    #[test]
    fn reservoir_stays_bounded() {
        let mut r = LatencyRecorder::new(8);
        for i in 0..1000u64 {
            r.record(Duration::from_micros(i));
        }
        assert_eq!(r.seen(), 1000);
        assert!(r.samples.len() <= 8);
    }
}
