//! Network-intrusion monitoring — the paper's motivating application.
//!
//! Streams KDD-Cup'99-like connection records through SPOT with *supervised*
//! learning: a handful of labeled attack exemplars seed the Outlier-driven
//! SST Subspaces (OS), enabling example-based detection of similar attacks.
//! Reports per-attack-family detection rates and the false-alarm rate, and
//! shows how the flagged subspaces map back to feature names.
//!
//! Run with:
//! ```text
//! cargo run --release --example network_intrusion
//! ```

use spot::SpotBuilder;
use spot_data::{AttackKind, KddConfig, KddGenerator, FEATURE_NAMES};
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Rare-attack regime: density-based detection targets *rare* events.
    // (At KDD's native skew the DoS flood is ~2% of ALL traffic; its cells
    // become dense and it stops being an outlier — see the E4 bench,
    // `crates/bench/benches/e04_kdd_categories.rs`.)
    let mut generator = KddGenerator::new(KddConfig {
        attack_fraction: 0.01,
        family_weights: [0.4, 0.25, 0.2, 0.15],
        seed: 2024,
    })?;

    // Supervised learning: clean history + two exemplars per family from
    // the security team's incident archive.
    let train = generator.generate_normal(2500);
    let mut exemplars = Vec::new();
    for kind in AttackKind::ALL {
        exemplars.push(generator.attack_exemplar(kind));
        exemplars.push(generator.attack_exemplar(kind));
    }
    let mut detector = SpotBuilder::new(generator.bounds())
        .fs_max_dimension(2)
        .os_capacity(32)
        .seed(7)
        .build()?;
    let report = detector.learn_with_examples(&train, &exemplars)?;
    println!("OS seeded with {} exemplar subspaces:", report.os.len());
    for (s, score) in report.os.iter().take(6) {
        let names: Vec<&str> = s.dims().map(|d| FEATURE_NAMES[d]).collect();
        println!("  {s} = {{{}}} (score {score:.3})", names.join(", "));
    }

    // Monitor 20k connections.
    let mut per_family: HashMap<String, (u32, u32)> = HashMap::new(); // (caught, total)
    let mut false_alarms = 0u32;
    let mut normals = 0u32;
    for record in generator.generate(20_000) {
        let verdict = detector.process(&record.point)?;
        if record.is_anomaly() {
            let entry = per_family
                .entry(record.label.category().to_string())
                .or_default();
            entry.1 += 1;
            if verdict.outlier {
                entry.0 += 1;
            }
        } else {
            normals += 1;
            if verdict.outlier {
                false_alarms += 1;
            }
        }
    }

    println!("\nper-family detection over 20k connections:");
    let mut families: Vec<_> = per_family.iter().collect();
    families.sort();
    for (family, (caught, total)) in families {
        println!(
            "  {family:<6} {caught:>4}/{total:<4} ({:.1}%)",
            100.0 * *caught as f64 / (*total).max(1) as f64
        );
    }
    println!(
        "false-alarm rate: {false_alarms}/{normals} ({:.2}%)",
        100.0 * false_alarms as f64 / normals.max(1) as f64
    );
    println!("detector stats: {:?}", detector.stats());
    Ok(())
}
