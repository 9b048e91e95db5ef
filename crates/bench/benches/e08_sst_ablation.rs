//! E8 — SST component ablation.
//!
//! Paper claim (Section II-C1): the three SST subsets "supplement each
//! other in terms of … capturing the right subspaces where projected
//! outliers are hidden". The probe workload is the sensor-field stream:
//! *spike* and *stuck* faults are visible in 1-dim projections (FS with
//! MaxDimension 1 suffices), but *correlation breaks* are marginally
//! plausible in every single dimension — only the joint 2-sensor
//! projection is anomalous, so FS(1) structurally cannot see them and the
//! learned components must supply the pair subspaces. Expected shape:
//! "FS only" catches spikes/stuck but ~0% of correlation breaks; adding OS
//! (exemplar-seeded pairs) recovers them; the full SST dominates.
//!
//! (A displaced-coordinate workload shows *no* spread between the rows —
//! `SyntheticGenerator::displaced_coordinate` moves every planted
//! coordinate away from every cluster centre of its dimension, so each
//! displaced dim is already 1-dim-visible.)

use serde_json::{json, Value};
use spot::{EvolutionConfig, Spot, SpotBuilder};
use spot_bench::emit;
use spot_data::{SensorConfig, SensorGenerator};
use spot_metrics::Table;
use spot_types::{DataPoint, LabeledRecord};
use std::collections::BTreeMap;

const TRAIN: usize = 2500;
const STREAM: usize = 8000;

fn build(generator: &SensorGenerator) -> Spot {
    SpotBuilder::new(generator.bounds())
        // MaxDimension 1: FS sees marginals only; pair subspaces must be
        // learned.
        .fs_max_dimension(1)
        .os_capacity(64)
        // Freeze online adaptation so the ablation stays clean.
        .evolution(EvolutionConfig {
            enabled: false,
            ..Default::default()
        })
        .seed(14)
        .build()
        .expect("config is valid")
}

fn per_family(spot: &mut Spot, records: &[LabeledRecord]) -> (BTreeMap<String, (u32, u32)>, f64) {
    let mut fams: BTreeMap<String, (u32, u32)> = BTreeMap::new();
    let mut fp = 0u32;
    let mut normals = 0u32;
    for r in records {
        let v = spot.process(&r.point).expect("dimensions match");
        if r.is_anomaly() {
            let e = fams.entry(r.label.category().to_string()).or_default();
            e.1 += 1;
            if v.outlier {
                e.0 += 1;
            }
        } else {
            normals += 1;
            if v.outlier {
                fp += 1;
            }
        }
    }
    (fams, fp as f64 / normals.max(1) as f64)
}

fn main() {
    let make_generator = || {
        SensorGenerator::new(SensorConfig {
            sensors: 24,
            fault_fraction: 0.03,
            seed: 61,
            ..Default::default()
        })
        .expect("config is valid")
    };
    let mut generator = make_generator();
    let train = generator.generate_normal(TRAIN);
    // Exemplars for OS: a handful of each fault family from the incident
    // archive (drawn from a side stream so the evaluation stream is
    // untouched).
    let mut archive = make_generator();
    archive.generate_normal(TRAIN); // advance identically to `generator`
    let exemplars: Vec<DataPoint> = archive
        .by_ref()
        .filter(|r| r.is_anomaly())
        .take(30)
        .map(|r| r.point)
        .collect();
    let records = generator.generate(STREAM);

    let mut table = Table::new(
        "E8: SST ablation on sensor faults (FS MaxDimension=1; corr-break is 2-dim-only)",
        &[
            "configuration",
            "|SST|",
            "corr-break",
            "spike",
            "stuck",
            "FPR",
        ],
    );
    let mut artifact: Vec<Value> = Vec::new();

    let mut run = |name: &str, mut spot: Spot| {
        let sst = spot.sst().len();
        let (fams, fpr) = per_family(&mut spot, &records);
        let rate = |k: &str| {
            fams.get(k).map_or("-".to_string(), |(c, t)| {
                format!("{:.3}", *c as f64 / (*t).max(1) as f64)
            })
        };
        table.add_row(vec![
            name.to_string(),
            sst.to_string(),
            rate("corr-break"),
            rate("spike"),
            rate("stuck"),
            format!("{fpr:.4}"),
        ]);
        artifact.push(json!({
            "configuration": name.to_string(),
            "sst": sst,
            "families": Value::Object(
                fams.into_iter()
                    .map(|(k, (c, t))| (k, Value::from(vec![c, t])))
                    .collect()
            ),
            "fpr": fpr,
        }));
    };

    // FS only: learn (warms synopses + estimates scales), then drop the
    // learned components.
    let mut spot = build(&generator);
    spot.learn(&train).expect("learning succeeds");
    spot.clear_cs();
    spot.clear_os();
    run("FS only", spot);

    // FS + CS: plain unsupervised learning.
    let mut spot = build(&generator);
    spot.learn(&train).expect("learning succeeds");
    spot.clear_os();
    run("FS + CS", spot);

    // FS + OS: supervised exemplars, CS dropped.
    let mut spot = build(&generator);
    spot.learn_with_examples(&train, &exemplars)
        .expect("learning succeeds");
    spot.clear_cs();
    run("FS + OS", spot);

    // Full SST.
    let mut spot = build(&generator);
    spot.learn_with_examples(&train, &exemplars)
        .expect("learning succeeds");
    run("FS + CS + OS", spot);

    emit("e08_sst_ablation", &table, artifact);
}
