//! E10 — Synopsis memory vs dimensionality and granularity.
//!
//! Paper claim (Section II-B): BCS/PCS are "compact structures", and the
//! decaying summaries plus pruning keep the synopsis bounded on unbounded
//! streams. This experiment streams a fixed workload and reports live cells
//! and bytes across ϕ and m, with pruning on and off. Expected shape: cells
//! grow with ϕ (more subspaces in FS) and with m (finer partition); pruning
//! cuts the totals substantially without touching fresh state; everything
//! is orders of magnitude below the raw-window equivalent.

use serde_json::{json, Value};
use spot::SpotBuilder;
use spot_bench::emit;
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_metrics::Table;
use spot_stream::TimeModel;
use spot_types::{DataPoint, DomainBounds};

const TRAIN: usize = 800;
const STREAM: usize = 8000;

fn main() {
    let mut table = Table::new(
        "E10: synopsis memory after an 8k-point stream (omega=500)",
        &[
            "phi",
            "m",
            "pruning",
            "proj cells",
            "approx KiB",
            "raw-window KiB",
        ],
    );
    let mut artifact: Vec<Value> = Vec::new();

    for phi in [8usize, 16, 32] {
        for m in [5u16, 10, 20] {
            for pruning in [false, true] {
                let config = SyntheticConfig {
                    dims: phi,
                    outlier_fraction: 0.02,
                    cluster_subspace_dims: 4.min(phi / 2),
                    seed: 53,
                    ..Default::default()
                };
                let mut generator = SyntheticGenerator::new(config).expect("config is valid");
                let train = generator.generate_normal(TRAIN);

                let mut builder = SpotBuilder::new(DomainBounds::unit(phi))
                    .fs_max_dimension(2)
                    .granularity(m)
                    .time_model(TimeModel::new(500, 0.01).expect("parameters are valid"))
                    .seed(7);
                builder = if pruning {
                    builder.pruning(500, 1e-3)
                } else {
                    builder.pruning(0, 0.0)
                };
                let mut spot = builder.build().expect("config is valid");
                spot.learn(&train).expect("learning succeeds");
                for r in generator.by_ref().take(STREAM) {
                    spot.process(&r.point).expect("dimensions match");
                }
                let fp = spot.footprint();
                // What an exact window of omega points would store instead.
                let raw_window_bytes =
                    500 * (std::mem::size_of::<DataPoint>() + phi * std::mem::size_of::<f64>());
                table.add_row(vec![
                    phi.to_string(),
                    m.to_string(),
                    if pruning { "on" } else { "off" }.to_string(),
                    fp.projected_cells.to_string(),
                    (fp.approx_bytes / 1024).to_string(),
                    (raw_window_bytes / 1024).to_string(),
                ]);
                artifact.push(json!({
                    "phi": phi,
                    "granularity": m,
                    "pruning": pruning,
                    "projected_cells": fp.projected_cells,
                    "bytes": fp.approx_bytes,
                    "raw_window_bytes": raw_window_bytes,
                }));
            }
        }
    }

    emit("e10_memory", &table, artifact);
}
