//! E5 — The "wide spectrum of settings" sweep.
//!
//! Paper claim (Section IV): SPOT was evaluated "under a wide spectrum of
//! settings". The two parameters that shape the whole system are FS's
//! MaxDimension (how much of the lattice is monitored exactly) and the grid
//! granularity m (how finely cells partition each dimension). This
//! experiment sweeps both and reports effectiveness, SST size and
//! throughput. Expected shape: F1 improves sharply from MaxDimension 1 → 2
//! (the planted outliers live in 2-dim subspaces) with little gain at 3;
//! granularity trades resolution against cell sparsity, peaking at
//! moderate m; cost grows with both.

use serde_json::{json, Value};
use spot::SpotBuilder;
use spot_bench::{emit, run_detector};
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_metrics::Table;
use spot_types::DomainBounds;

const PHI: usize = 16;
const TRAIN: usize = 1200;
const STREAM: usize = 4000;

fn main() {
    let mut table = Table::new(
        "E5: parameter sweep (phi=16, 3% planted 2-dim outliers)",
        &[
            "MaxDimension",
            "granularity m",
            "|SST|",
            "F1",
            "FPR",
            "points/s",
        ],
    );
    let mut artifact: Vec<Value> = Vec::new();

    for max_dimension in [1usize, 2, 3] {
        for granularity in [5u16, 10, 15, 20] {
            let config = SyntheticConfig {
                dims: PHI,
                outlier_fraction: 0.03,
                seed: 23,
                ..Default::default()
            };
            let mut generator = SyntheticGenerator::new(config).expect("config is valid");
            let train = generator.generate_normal(TRAIN);
            let records = generator.generate(STREAM);

            let mut spot = SpotBuilder::new(DomainBounds::unit(PHI))
                .fs_max_dimension(max_dimension)
                .granularity(granularity)
                .seed(6)
                .build()
                .expect("config is valid");
            spot.learn(&train).expect("learning succeeds");
            let sst = spot.sst().len();
            let out = run_detector(&mut spot, &records);
            table.add_row(vec![
                max_dimension.to_string(),
                granularity.to_string(),
                sst.to_string(),
                format!("{:.3}", out.f1),
                format!("{:.3}", out.fpr),
                format!("{:.0}", out.throughput),
            ]);
            artifact.push(json!({
                "max_dimension": max_dimension,
                "granularity": granularity,
                "sst": sst,
                "f1": out.f1,
                "fpr": out.fpr,
                "throughput": out.throughput,
            }));
        }
    }

    emit("e05_parameter_sweep", &table, artifact);
}
