//! Quickstart: learn on a historical batch, detect projected outliers in a
//! synthetic stream, print each outlier with its outlying subspaces.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use spot::SpotBuilder;
use spot_data::{SyntheticConfig, SyntheticGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16-dimensional stream: clustered normal data plus ~2% planted
    // projected outliers (anomalous only inside a 2-dim subspace).
    let config = SyntheticConfig {
        dims: 16,
        outlier_fraction: 0.02,
        seed: 7,
        ..Default::default()
    };
    let mut generator = SyntheticGenerator::new(config)?;
    println!(
        "planted outlying subspaces: {}",
        generator
            .outlier_subspace_pool()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Build SPOT over the generator's domain and learn from a clean batch.
    let mut detector = SpotBuilder::new(generator.bounds())
        .fs_max_dimension(2)
        .seed(42)
        .build()?;
    let train = generator.generate_normal(2000);
    let report = detector.learn(&train)?;
    println!(
        "learning stage: {} training points, {} OD candidates, CS = {:?}",
        report.training_points,
        report.od_candidates,
        report
            .cs
            .iter()
            .map(|(s, _)| s.to_string())
            .collect::<Vec<_>>()
    );

    // Detection stage: one pass over 5000 arriving points.
    let mut hits = 0;
    let mut truth = 0;
    let mut caught = 0;
    for record in generator.generate(5000) {
        let verdict = detector.process(&record.point)?;
        if record.is_anomaly() {
            truth += 1;
            if verdict.outlier {
                caught += 1;
            }
        }
        if verdict.outlier {
            hits += 1;
            if hits <= 10 {
                let subspaces = verdict
                    .findings
                    .iter()
                    .take(3)
                    .map(|f| format!("{} (rd={:.3})", f.subspace, f.rd))
                    .collect::<Vec<_>>()
                    .join(", ");
                println!(
                    "#{:<5} outlier (truth: {:<9}) in {}",
                    record.seq,
                    record.label.category(),
                    subspaces
                );
            }
        }
    }
    println!("…");
    println!(
        "flagged {hits} points; detected {caught}/{truth} planted outliers; stats: {:?}",
        detector.stats()
    );
    let fp = detector.footprint();
    println!(
        "synopsis memory: {} projected cells ≈ {} KiB",
        fp.projected_cells,
        fp.approx_bytes / 1024
    );
    Ok(())
}
