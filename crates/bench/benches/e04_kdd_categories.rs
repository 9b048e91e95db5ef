//! E4 — Effectiveness on the KDD-Cup'99-like intrusion stream.
//!
//! Paper claim (Sections III, IV): SPOT is effective on "real-life
//! streaming data sets"; the canonical one for this literature is network
//! intrusion data. Using the simulated KDD stream (DESIGN.md §3), SPOT
//! learns with a few labeled exemplars per attack family (supervised OS)
//! and is compared per family against the baselines, at two attack mixes.
//! Expected shape: rare families (probe/R2L/U2R) detected near-perfectly
//! with a ~1-2% false-alarm rate; the *high-rate* DoS flood saturates its
//! own cells and washes out for every density-based method — the classic
//! blind spot, quantified by the contrast between the skewed and the
//! rare-attack mixes; kNN is competitive on large-displacement families,
//! weaker on the 2-dim R2L signature; the full-space grid floods alarms.

use serde_json::{json, Value};
use spot::SpotBuilder;
use spot_baselines::fullspace::{FullSpaceConfig, FullSpaceGridDetector};
use spot_baselines::window_knn::{WindowKnnConfig, WindowKnnDetector};
use spot_bench::emit;
use spot_data::{AttackKind, KddConfig, KddGenerator, NUM_FEATURES};
use spot_metrics::Table;
use spot_types::{Detection, DomainBounds, LabeledRecord, StreamDetector};
use std::collections::BTreeMap;

const TRAIN: usize = 2000;
const STREAM: usize = 12_000;

#[derive(Default, Clone)]
struct FamilyStats {
    caught: u32,
    total: u32,
}

/// The artifact form of one detector's per-family counts.
fn families_json(fams: BTreeMap<String, FamilyStats>) -> Value {
    let row = |f: FamilyStats| json!({"caught": f.caught, "total": f.total});
    Value::Object(fams.into_iter().map(|(k, f)| (k, row(f))).collect())
}

fn per_family<F>(
    detector_name: &str,
    records: &[LabeledRecord],
    mut process: F,
) -> (Table, BTreeMap<String, FamilyStats>, f64)
where
    F: FnMut(&LabeledRecord) -> Detection,
{
    let mut families: BTreeMap<String, FamilyStats> = BTreeMap::new();
    let mut false_alarms = 0u32;
    let mut normals = 0u32;
    for r in records {
        let d = process(r);
        if r.is_anomaly() {
            let e = families.entry(r.label.category().to_string()).or_default();
            e.total += 1;
            if d.outlier {
                e.caught += 1;
            }
        } else {
            normals += 1;
            if d.outlier {
                false_alarms += 1;
            }
        }
    }
    let fpr = false_alarms as f64 / normals.max(1) as f64;
    let mut table = Table::new(
        format!("E4: per-family detection on KDD-like stream — {detector_name}"),
        &["family", "caught", "total", "detection rate"],
    );
    for (family, s) in &families {
        table.add_row(vec![
            family.clone(),
            s.caught.to_string(),
            s.total.to_string(),
            format!("{:.3}", s.caught as f64 / s.total.max(1) as f64),
        ]);
    }
    table.add_row(vec![
        "(false alarms)".into(),
        false_alarms.to_string(),
        normals.to_string(),
        format!("{fpr:.4}"),
    ]);
    (table, families, fpr)
}

fn main() {
    let mut generator = KddGenerator::new(KddConfig {
        attack_fraction: 0.03,
        seed: 404,
        ..Default::default()
    })
    .expect("config is valid");
    let train = generator.generate_normal(TRAIN);
    let mut exemplars = Vec::new();
    for kind in AttackKind::ALL {
        exemplars.push(generator.attack_exemplar(kind));
        exemplars.push(generator.attack_exemplar(kind));
    }
    let records = generator.generate(STREAM);

    let mut artifact: BTreeMap<String, Value> = BTreeMap::new();

    // SPOT (supervised: exemplars seed OS).
    let mut spot = SpotBuilder::new(DomainBounds::unit(NUM_FEATURES))
        .fs_max_dimension(2)
        .os_capacity(32)
        .seed(4)
        .build()
        .expect("config is valid");
    spot.learn_with_examples(&train, &exemplars)
        .expect("learning succeeds");
    let (table, fams, fpr) = per_family("spot (supervised)", &records, |r| {
        StreamDetector::process(&mut spot, &r.point)
    });
    table.print();
    println!("spot fpr: {fpr:.4}\n");
    artifact.insert("spot".into(), families_json(fams));

    // Full-space grid.
    let mut full =
        FullSpaceGridDetector::new(DomainBounds::unit(NUM_FEATURES), FullSpaceConfig::default())
            .expect("config is valid");
    StreamDetector::learn(&mut full, &train).expect("learning succeeds");
    let (table, fams, fpr) = per_family("fullspace-grid", &records, |r| full.process(&r.point));
    table.print();
    println!("fullspace fpr: {fpr:.4}\n");
    artifact.insert("fullspace-grid".into(), families_json(fams));

    // Windowed kNN.
    let mut knn = WindowKnnDetector::new(WindowKnnConfig {
        window: 1500,
        k: 5,
        radius: 0.35,
    })
    .expect("config is valid");
    StreamDetector::learn(&mut knn, &train).expect("learning succeeds");
    let (table, fams, fpr) = per_family("window-knn", &records, |r| knn.process(&r.point));
    table.print();
    println!("window-knn fpr: {fpr:.4}\n");
    artifact.insert("window-knn".into(), families_json(fams));

    // SPOT again at a rare-attack mix: quantifies how much of the DoS loss
    // above is the rate effect (a flood saturating its own cells) rather
    // than a blind signature.
    let mut generator = KddGenerator::new(KddConfig {
        attack_fraction: 0.01,
        family_weights: [0.4, 0.25, 0.2, 0.15],
        seed: 404,
    })
    .expect("config is valid");
    let train = generator.generate_normal(TRAIN);
    let mut exemplars = Vec::new();
    for kind in AttackKind::ALL {
        exemplars.push(generator.attack_exemplar(kind));
        exemplars.push(generator.attack_exemplar(kind));
    }
    let records = generator.generate(STREAM);
    let mut spot = SpotBuilder::new(DomainBounds::unit(NUM_FEATURES))
        .fs_max_dimension(2)
        .os_capacity(32)
        .seed(4)
        .build()
        .expect("config is valid");
    spot.learn_with_examples(&train, &exemplars)
        .expect("learning succeeds");
    let (table, fams, fpr) = per_family("spot (supervised, rare-attack mix)", &records, |r| {
        StreamDetector::process(&mut spot, &r.point)
    });
    println!("spot (rare mix) fpr: {fpr:.4}");
    artifact.insert("spot-rare-mix".into(), families_json(fams));
    emit(
        "e04_kdd_categories",
        &table,
        Value::Object(artifact.into_iter().collect()),
    );
}
