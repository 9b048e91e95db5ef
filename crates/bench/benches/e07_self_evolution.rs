//! E7 — SST self-evolution and OS growth under concept drift.
//!
//! Paper claim (Section II-C2): CS self-evolution and the online growth of
//! OS let SPOT "cope with dynamics of data streams and respond to the
//! possible concept drift". This experiment streams an abruptly drifting
//! workload through an adaptive SPOT (evolution + drift response on) and a
//! frozen one (both off), reporting windowed F1 over time. Expected shape:
//! both drop at the change point; the adaptive instance recovers toward its
//! pre-drift level while the frozen one stays degraded.

use spot::{DriftConfig, EvolutionConfig, Spot, SpotBuilder};
use spot_bench::emit;
use spot_data::{DriftKind, DriftingGenerator, SyntheticConfig};
use spot_metrics::Table;
use spot_types::{DomainBounds, LabeledRecord};

const PHI: usize = 12;
const DRIFT_AT: u64 = 6000;
const STREAM: usize = 12_000;
const WINDOW: usize = 1500;

fn windowed_f1(spot: &mut Spot, records: &[LabeledRecord]) -> Vec<f64> {
    let mut out = Vec::new();
    let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
    for (i, r) in records.iter().enumerate() {
        let v = spot.process(&r.point).expect("dimensions match");
        match (v.outlier, r.is_anomaly()) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
        if (i + 1) % WINDOW == 0 {
            let p = tp as f64 / (tp + fp).max(1) as f64;
            let r_ = tp as f64 / (tp + fn_).max(1) as f64;
            out.push(if p + r_ > 0.0 {
                2.0 * p * r_ / (p + r_)
            } else {
                0.0
            });
            tp = 0;
            fp = 0;
            fn_ = 0;
        }
    }
    out
}

fn build(adaptive: bool) -> Spot {
    let mut builder = SpotBuilder::new(DomainBounds::unit(PHI))
        .fs_max_dimension(2)
        .seed(12);
    builder = if adaptive {
        builder
            .evolution(EvolutionConfig {
                period: 500,
                ..Default::default()
            })
            .drift(DriftConfig::default())
    } else {
        builder
            .evolution(EvolutionConfig {
                enabled: false,
                ..Default::default()
            })
            .drift(DriftConfig {
                enabled: false,
                ..Default::default()
            })
    };
    builder.build().expect("config is valid")
}

fn main() {
    let before = SyntheticConfig {
        dims: PHI,
        outlier_fraction: 0.03,
        // 3-dim planted subspaces: beyond FS(MaxDimension=2), so the
        // learned components carry the detection and their freshness is
        // what the experiment isolates.
        outlier_subspace_dims: 3,
        seed: 37,
        ..Default::default()
    };
    let mut after = before.clone();
    after.seed = 38;
    after.center_range = (0.7, 0.95); // new behaviour in fresh territory
    let mut source = DriftingGenerator::new(before, after, DriftKind::Abrupt { at: DRIFT_AT })
        .expect("configs are valid");
    let train = source.before_mut().generate_normal(1500);
    let records = source.generate(STREAM);

    let mut adaptive = build(true);
    let mut frozen = build(false);
    adaptive.learn(&train).expect("learning succeeds");
    frozen.learn(&train).expect("learning succeeds");

    let f1_adaptive = windowed_f1(&mut adaptive, &records);
    let f1_frozen = windowed_f1(&mut frozen, &records);

    let mut table = Table::new(
        "E7: windowed F1 under abrupt drift (drift at 6000)",
        &["window end", "adaptive F1", "frozen F1", "phase"],
    );
    for (i, (fa, ff)) in f1_adaptive.iter().zip(&f1_frozen).enumerate() {
        let end = (i + 1) * WINDOW;
        table.add_row(vec![
            end.to_string(),
            format!("{fa:.3}"),
            format!("{ff:.3}"),
            if end as u64 <= DRIFT_AT {
                "pre-drift".into()
            } else {
                "post-drift".to_string()
            },
        ]);
    }

    emit(
        "e07_self_evolution",
        &table,
        serde_json::json!({
            "window": WINDOW,
            "drift_at": DRIFT_AT,
            "adaptive": f1_adaptive,
            "frozen": f1_frozen,
            "adaptive_stats": format!("{:?}", adaptive.stats()),
            "frozen_stats": format!("{:?}", frozen.stats()),
        }),
    );
    println!("adaptive stats: {:?}", adaptive.stats());
    println!("frozen stats:   {:?}", frozen.stats());
}
