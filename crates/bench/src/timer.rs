//! The micro arms' timer, on `std` alone: per-iteration mean and minimum.

use std::hint::black_box;
use std::time::Instant;

/// Timed samples per arm.
const SAMPLES: u32 = 20;

/// One arm's reading, in seconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Mean over every timed iteration.
    pub mean_s: f64,
    /// The fastest sample's per-iteration time.
    pub min_s: f64,
}

/// Times `routine` over `SAMPLES` samples of equal length (one calibration
/// call sizes a sample to ≥ 2 ms), prints the arm's `mean … min …` line
/// under `id` and returns the reading.
pub fn time_arm<O>(id: &str, mut routine: impl FnMut() -> O) -> Timing {
    let t0 = Instant::now();
    black_box(routine());
    let iters = (2_000_000 / t0.elapsed().as_nanos().max(20)).clamp(1, 100_000) as u64;
    let (mut total, mut min_s) = (0.0, f64::INFINITY);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let dt = t.elapsed().as_secs_f64();
        total += dt;
        min_s = min_s.min(dt / iters as f64);
    }
    let mean_s = total / (f64::from(SAMPLES) * iters as f64);
    let (mean, min) = (human(mean_s), human(min_s));
    println!("{id:<40} mean {mean:>12}   min {min:>12}   ({iters} iters/sample)");
    Timing { mean_s, min_s }
}

fn human(s: f64) -> String {
    match s {
        s if s >= 1.0 => format!("{s:.3} s"),
        s if s >= 1e-3 => format!("{:.3} ms", s * 1e3),
        s if s >= 1e-6 => format!("{:.3} µs", s * 1e6),
        s => format!("{:.1} ns", s * 1e9),
    }
}
