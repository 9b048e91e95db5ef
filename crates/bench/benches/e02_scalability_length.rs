//! E2 — Scalability over stream length.
//!
//! Paper claim (Section III): the decaying cell summaries are maintained
//! incrementally, so per-point cost — and, with pruning, memory — must stay
//! flat as the stream grows. This experiment streams increasing numbers of
//! points through one SPOT instance and reports throughput, per-point
//! latency and live synopsis state at each checkpoint. Expected shape: flat
//! throughput, plateaued cell counts (stationary stream + pruning).

use serde_json::{json, Value};
use spot::SpotBuilder;
use spot_bench::{emit, results_dir};
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_metrics::Table;
use spot_types::DomainBounds;
use std::time::Instant;

const PHI: usize = 16;
const CHECKPOINTS: [usize; 4] = [10_000, 25_000, 50_000, 100_000];

fn main() {
    let config = SyntheticConfig {
        dims: PHI,
        outlier_fraction: 0.02,
        seed: 13,
        ..Default::default()
    };
    let mut generator = SyntheticGenerator::new(config).expect("config is valid");
    let train = generator.generate_normal(1000);

    let mut spot = SpotBuilder::new(DomainBounds::unit(PHI))
        .fs_max_dimension(2)
        .seed(2)
        .build()
        .expect("config is valid");
    spot.learn(&train).expect("learning succeeds");

    let mut table = Table::new(
        "E2: scalability over stream length (phi=16, MaxDimension=2)",
        &[
            "points",
            "points/s (segment)",
            "us/point",
            "proj cells",
            "approx KiB",
        ],
    );
    let mut artifact: Vec<Value> = Vec::new();

    let mut processed = 0usize;
    for &target in &CHECKPOINTS {
        let segment = target - processed;
        let started = Instant::now();
        for record in generator.by_ref().take(segment) {
            spot.process(&record.point).expect("dimensions match");
        }
        let secs = started.elapsed().as_secs_f64();
        processed = target;
        let fp = spot.footprint();
        let throughput = segment as f64 / secs;
        table.add_row(vec![
            target.to_string(),
            format!("{throughput:.0}"),
            format!("{:.1}", 1e6 * secs / segment as f64),
            fp.projected_cells.to_string(),
            (fp.approx_bytes / 1024).to_string(),
        ]);
        artifact.push(json!({
            "points": target,
            "throughput": throughput,
            "us_per_point": 1e6 * secs / segment as f64,
            "projected_cells": fp.projected_cells,
            "bytes": fp.approx_bytes,
        }));
    }

    emit("e02_scalability_length", &table, artifact);
    println!("(figures data at {})", results_dir().display());
}
