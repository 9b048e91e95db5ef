//! E1 — Efficiency vs dimensionality.
//!
//! Paper claim (Sections II-B, III): the incrementally maintainable
//! synopses let SPOT "handle fast data streams". This experiment measures
//! detection-stage throughput (points/second) as the stream dimensionality
//! ϕ grows, against both full-space baselines. Expected shape: SPOT scales
//! with |SST| (≈ C(ϕ,2) at MaxDimension 2), the grid baseline with ϕ, and
//! the windowed kNN baseline with window × ϕ; SPOT stays within interactive
//! rates while exact kNN degrades fastest in absolute cost per point.

use serde_json::Value;
use spot::SpotBuilder;
use spot_baselines::fullspace::{FullSpaceConfig, FullSpaceGridDetector};
use spot_baselines::window_knn::{WindowKnnConfig, WindowKnnDetector};
use spot_bench::{emit, run_detector, RunOutcome};
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_metrics::Table;
use spot_types::{DomainBounds, StreamDetector};

const TRAIN: usize = 800;
const STREAM: usize = 3000;

fn main() {
    let mut table = Table::new(
        "E1: detection throughput (points/s) vs dimensionality",
        &["phi", "detector", "sst/state", "points/s", "us/point"],
    );
    let mut artifacts: Vec<RunOutcome> = Vec::new();

    for phi in [8usize, 16, 24, 32, 48] {
        let config = SyntheticConfig {
            dims: phi,
            outlier_fraction: 0.02,
            cluster_subspace_dims: 4.min(phi / 2),
            seed: 11,
            ..Default::default()
        };
        let mut generator = SyntheticGenerator::new(config).expect("config is valid");
        let train = generator.generate_normal(TRAIN);
        let records = generator.generate(STREAM);

        // SPOT.
        let mut spot = SpotBuilder::new(DomainBounds::unit(phi))
            .fs_max_dimension(2)
            .seed(1)
            .build()
            .expect("config is valid");
        spot.learn(&train).expect("learning succeeds");
        let sst_size = spot.sst().len();
        let out = run_detector(&mut spot, &records);
        table.add_row(vec![
            phi.to_string(),
            out.detector.clone(),
            format!("{sst_size} subspaces"),
            format!("{:.0}", out.throughput),
            format!("{:.1}", 1e6 * out.seconds / out.points as f64),
        ]);
        artifacts.push(out);

        // Full-space grid baseline.
        let mut full =
            FullSpaceGridDetector::new(DomainBounds::unit(phi), FullSpaceConfig::default())
                .expect("config is valid");
        StreamDetector::learn(&mut full, &train).expect("learning succeeds");
        let out = run_detector(&mut full, &records);
        table.add_row(vec![
            phi.to_string(),
            out.detector.clone(),
            format!("{} cells", full.live_cells()),
            format!("{:.0}", out.throughput),
            format!("{:.1}", 1e6 * out.seconds / out.points as f64),
        ]);
        artifacts.push(out);

        // Exact sliding-window kNN baseline.
        let mut knn = WindowKnnDetector::new(WindowKnnConfig {
            window: 1000,
            k: 5,
            radius: 0.3 * (phi as f64).sqrt(),
        })
        .expect("config is valid");
        StreamDetector::learn(&mut knn, &train).expect("learning succeeds");
        let out = run_detector(&mut knn, &records);
        table.add_row(vec![
            phi.to_string(),
            out.detector.clone(),
            format!("{} raw points", knn.buffered_points()),
            format!("{:.0}", out.throughput),
            format!("{:.1}", 1e6 * out.seconds / out.points as f64),
        ]);
        artifacts.push(out);
    }

    emit(
        "e01_throughput_dims",
        &table,
        artifacts.iter().map(Value::from).collect::<Vec<_>>(),
    );
}
