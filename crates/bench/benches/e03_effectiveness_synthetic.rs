//! E3 — Effectiveness on synthetic projected-outlier streams.
//!
//! Paper claim (Sections I, III): full-space stream detectors "rely on full
//! data space to detect outliers and thus projected outliers cannot be
//! discovered"; SPOT's SST finds them. This experiment plants projected
//! outliers (anomalous in a hidden 2-dim subspace only) and compares
//! precision/recall/F1/FPR/AUC across detectors, plus SPOT's
//! subspace-recovery rate. Expected shape: SPOT clearly ahead on F1 and
//! AUC; full-space density floods false positives (high recall, terrible
//! precision) or misses everything, depending on threshold; random
//! subspaces sit in between.

use serde_json::Value;
use spot::SpotBuilder;
use spot_baselines::fullspace::{FullSpaceConfig, FullSpaceGridDetector};
use spot_baselines::random_subspace::{RandomSubspaceConfig, RandomSubspaceDetector};
use spot_baselines::window_knn::{WindowKnnConfig, WindowKnnDetector};
use spot_bench::{emit, run_detector, RunOutcome};
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_metrics::{best_jaccard, Table};
use spot_subspace::Subspace;
use spot_types::{DomainBounds, StreamDetector};

const PHI: usize = 16;
const TRAIN: usize = 1500;
const STREAM: usize = 6000;

fn main() {
    let config = SyntheticConfig {
        dims: PHI,
        outlier_fraction: 0.03,
        seed: 17,
        ..Default::default()
    };
    let mut generator = SyntheticGenerator::new(config).expect("config is valid");
    let train = generator.generate_normal(TRAIN);
    let records = generator.generate(STREAM);

    let mut table = Table::new(
        "E3: effectiveness on synthetic projected outliers (phi=16, 3% outliers)",
        &["detector", "precision", "recall", "F1", "FPR", "AUC"],
    );
    let mut artifacts: Vec<RunOutcome> = Vec::new();

    // SPOT — measured separately so subspace recovery can be collected too.
    let mut spot = SpotBuilder::new(DomainBounds::unit(PHI))
        .fs_max_dimension(2)
        .seed(3)
        .build()
        .expect("config is valid");
    spot.learn(&train).expect("learning succeeds");
    let mut confusion = spot_metrics::ConfusionMatrix::new();
    let mut scored: Vec<(f64, bool)> = Vec::new();
    let mut recovered = 0usize;
    let mut detected_true = 0usize;
    let started = std::time::Instant::now();
    for r in &records {
        let v = spot.process(&r.point).expect("dimensions match");
        confusion.record(v.outlier, r.is_anomaly());
        scored.push((v.score, r.is_anomaly()));
        if v.outlier {
            if let Some(info) = r.label.anomaly() {
                detected_true += 1;
                let truth = Subspace::from_mask(info.true_subspace.expect("generator sets it"))
                    .expect("mask is valid");
                if best_jaccard(truth, &v.subspaces()) >= 0.5 {
                    recovered += 1;
                }
            }
        }
    }
    let spot_secs = started.elapsed().as_secs_f64();
    table.add_row(vec![
        "spot".into(),
        format!("{:.3}", confusion.precision()),
        format!("{:.3}", confusion.recall()),
        format!("{:.3}", confusion.f1()),
        format!("{:.3}", confusion.false_positive_rate()),
        format!("{:.3}", spot_metrics::roc_auc(&scored)),
    ]);
    artifacts.push(RunOutcome {
        detector: "spot".into(),
        points: records.len(),
        confusion,
        precision: confusion.precision(),
        recall: confusion.recall(),
        f1: confusion.f1(),
        fpr: confusion.false_positive_rate(),
        auc: spot_metrics::roc_auc(&scored),
        throughput: records.len() as f64 / spot_secs,
        seconds: spot_secs,
    });

    // Baselines through the common harness.
    let mut full = FullSpaceGridDetector::new(DomainBounds::unit(PHI), FullSpaceConfig::default())
        .expect("config is valid");
    StreamDetector::learn(&mut full, &train).expect("learning succeeds");
    let out = run_detector(&mut full, &records);
    push_row(&mut table, &out);
    artifacts.push(out);

    let mut knn = WindowKnnDetector::new(WindowKnnConfig {
        window: 1500,
        k: 5,
        radius: 0.3 * (PHI as f64).sqrt(),
    })
    .expect("config is valid");
    StreamDetector::learn(&mut knn, &train).expect("learning succeeds");
    let out = run_detector(&mut knn, &records);
    push_row(&mut table, &out);
    artifacts.push(out);

    let mut random = RandomSubspaceDetector::new(
        DomainBounds::unit(PHI),
        RandomSubspaceConfig {
            num_subspaces: 60,
            ..Default::default()
        },
    )
    .expect("config is valid");
    StreamDetector::learn(&mut random, &train).expect("learning succeeds");
    let out = run_detector(&mut random, &records);
    push_row(&mut table, &out);
    artifacts.push(out);

    emit(
        "e03_effectiveness_synthetic",
        &table,
        artifacts.iter().map(Value::from).collect::<Vec<_>>(),
    );
    println!(
        "SPOT subspace recovery: {recovered}/{detected_true} detected outliers \
         explained with Jaccard >= 0.5 against the planted subspace"
    );
}

fn push_row(table: &mut Table, out: &RunOutcome) {
    table.add_row(vec![
        out.detector.clone(),
        format!("{:.3}", out.precision),
        format!("{:.3}", out.recall),
        format!("{:.3}", out.f1),
        format!("{:.3}", out.fpr),
        format!("{:.3}", out.auc),
    ]);
}
