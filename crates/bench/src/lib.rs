//! Shared experiment harness for the SPOT benchmark targets.
//!
//! Each `benches/eNN_*.rs` target regenerates one table/figure of the
//! evaluation plan: throughput against dimensionality (E1) and stream
//! length (E2), effectiveness against the baselines on the synthetic (E3)
//! and the KDD-like (E4) streams, a parameter sweep (E5), MOGA's front
//! quality (E6), self-evolution under drift (E7), the SST ablation (E8),
//! the time model (E9) and memory (E10). This library holds the plumbing
//! they share: running any [`StreamDetector`] over a labeled stream while
//! collecting effectiveness and efficiency measurements, writing the
//! table + JSON artifact pair, and the [`timer`] the `micro` arms run on.

pub mod timer;

use serde_json::{json, Value};
use spot_metrics::{roc_auc, ConfusionMatrix, Table, ThroughputMeter};
use spot_types::{LabeledRecord, StreamDetector};
use std::path::PathBuf;

/// Everything measured while streaming a labeled dataset through a
/// detector.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Detector name.
    pub detector: String,
    /// Points processed.
    pub points: usize,
    /// Confusion counts against ground truth.
    pub confusion: ConfusionMatrix,
    /// Precision.
    pub precision: f64,
    /// Recall (detection rate).
    pub recall: f64,
    /// F1.
    pub f1: f64,
    /// False-positive rate.
    pub fpr: f64,
    /// ROC-AUC over the detector's scores.
    pub auc: f64,
    /// Points per second (detection stage only).
    pub throughput: f64,
    /// Wall-clock seconds of the detection stage.
    pub seconds: f64,
}

impl From<&RunOutcome> for Value {
    fn from(o: &RunOutcome) -> Self {
        let c = &o.confusion;
        json!({
            "detector": o.detector.as_str(),
            "points": o.points,
            "confusion": json!({"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn_": c.fn_}),
            "precision": o.precision,
            "recall": o.recall,
            "f1": o.f1,
            "fpr": o.fpr,
            "auc": o.auc,
            "throughput": o.throughput,
            "seconds": o.seconds,
        })
    }
}

/// Streams `records` through `detector` (already learned) and measures
/// everything.
pub fn run_detector<D: StreamDetector + ?Sized>(
    detector: &mut D,
    records: &[LabeledRecord],
) -> RunOutcome {
    let mut confusion = ConfusionMatrix::new();
    let mut scored: Vec<(f64, bool)> = Vec::with_capacity(records.len());
    let mut meter = ThroughputMeter::new();
    for r in records {
        let d = detector.process(&r.point);
        meter.add(1);
        confusion.record(d.outlier, r.is_anomaly());
        let score = if d.score.is_finite() { d.score } else { 1e18 };
        scored.push((score, r.is_anomaly()));
    }
    RunOutcome {
        detector: detector.name().to_string(),
        points: records.len(),
        confusion,
        precision: confusion.precision(),
        recall: confusion.recall(),
        f1: confusion.f1(),
        fpr: confusion.false_positive_rate(),
        auc: roc_auc(&scored),
        throughput: meter.throughput(),
        seconds: meter.elapsed().as_secs_f64(),
    }
}

/// Directory where every experiment drops its JSON artifact
/// (`<workspace>/results`).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Prints the table and writes the artifact next to it.
pub fn emit(experiment: &str, table: &Table, artifact: impl Into<Value>) {
    table.print();
    let path = results_dir().join(format!("{experiment}.json"));
    match std::fs::File::create(&path) {
        Ok(f) => {
            if serde_json::to_writer_pretty(f, &artifact.into()).is_ok() {
                println!("(artifact: {})", path.display());
            }
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_types::{DataPoint, Detection, Label, Result};

    /// Flags everything with |x0| > 0.5.
    struct ThresholdDetector;

    impl StreamDetector for ThresholdDetector {
        fn learn(&mut self, _training: &[DataPoint]) -> Result<()> {
            Ok(())
        }
        fn process(&mut self, p: &DataPoint) -> Detection {
            let s = p.value(0).abs();
            Detection {
                outlier: s > 0.5,
                score: s,
            }
        }
        fn name(&self) -> &str {
            "threshold"
        }
    }

    #[test]
    fn run_detector_measures_effectiveness() {
        let records: Vec<LabeledRecord> = (0..100)
            .map(|i| {
                let anomalous = i % 10 == 0;
                let v = if anomalous { 0.9 } else { 0.1 };
                let label = if anomalous {
                    Label::Anomaly(spot_types::AnomalyInfo::category("x"))
                } else {
                    Label::Normal
                };
                LabeledRecord::new(i, DataPoint::new(vec![v]), label)
            })
            .collect();
        let out = run_detector(&mut ThresholdDetector, &records);
        assert_eq!(out.points, 100);
        assert!((out.precision - 1.0).abs() < 1e-12);
        assert!((out.recall - 1.0).abs() < 1e-12);
        assert!((out.auc - 1.0).abs() < 1e-12);
        assert!(out.throughput > 0.0);
    }

    #[test]
    fn measures_something() {
        let t = timer::time_arm("noop", || std::hint::black_box(1 + 1));
        assert!(t.mean_s > 0.0);
        assert!(t.min_s <= t.mean_s * (1.0 + 1e-9));
    }

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }
}
