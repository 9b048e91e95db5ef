//! Subspace explorer — "why is this point an outlier?"
//!
//! The HOS-Miner-style companion workflow (reference [6] of the paper): for
//! a chosen query point, search the space lattice with MOGA for the
//! subspaces in which that point is most outlying relative to the recent
//! stream, and print them with their sparsity scores. This is the
//! interactive part of the demo script, as a CLI.
//!
//! Run with:
//! ```text
//! cargo run --release --example subspace_explorer
//! ```

use spot::SpotBuilder;
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_types::DataPoint;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SyntheticConfig {
        dims: 20,
        outlier_fraction: 0.0,
        seed: 31,
        ..Default::default()
    };
    let mut generator = SyntheticGenerator::new(config)?;

    let mut detector = SpotBuilder::new(generator.bounds())
        .fs_max_dimension(1)
        .seed(3)
        .build()?;
    detector.learn(&generator.generate_normal(1500))?;
    // Feed some live stream so the reservoir reflects "recent" data.
    for record in generator.generate(2000) {
        detector.process(&record.point)?;
    }

    // Query 1: a normal-looking point taken from the stream itself.
    let normal_probe = generator.generate_normal(1).remove(0);
    // Query 2: the same point pushed into empty territory in dims {3, 11}.
    let mut vals = normal_probe.values().to_vec();
    vals[3] = 0.997;
    vals[11] = 0.003;
    let outlier_probe = DataPoint::new(vals);

    let probes = [
        ("normal probe", &normal_probe),
        ("planted probe", &outlier_probe),
    ];
    let verdicts = probes.map(|(_, probe)| detector.process(probe));
    // Explaining only reads the detector: a shared reference is enough, so
    // a service can answer "why?" under a read lock while others ask too.
    let detector = &detector;
    for ((name, probe), verdict) in probes.into_iter().zip(verdicts) {
        println!("== {name} ==");
        let verdict = verdict?;
        println!(
            "  flagged online: {} (score {:.3})",
            verdict.outlier, verdict.score
        );
        let top = detector.explain(probe, 5)?;
        for (rank, (subspace, score)) in top.iter().enumerate() {
            println!(
                "  #{:<2} subspace {:<12} sparsity score {:.4}",
                rank + 1,
                subspace.to_string(),
                score
            );
        }
        println!();
    }
    println!(
        "(the planted probe should surface subspaces containing dims 3 and/or 11; \
     lower score = sparser = more outlying)"
    );
    Ok(())
}
