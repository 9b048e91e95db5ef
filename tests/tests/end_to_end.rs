//! End-to-end effectiveness: SPOT on synthetic projected-outlier streams,
//! with quality floors and superiority over the full-space baseline.

use spot::SpotBuilder;
use spot_baselines::fullspace::{FullSpaceConfig, FullSpaceGridDetector};
use spot_data::{SyntheticConfig, SyntheticGenerator};
use spot_metrics::ConfusionMatrix;
use spot_types::{LabeledRecord, StreamDetector};

fn stream(seed: u64, dims: usize, n: usize) -> (Vec<spot_types::DataPoint>, Vec<LabeledRecord>) {
    let config = SyntheticConfig {
        dims,
        outlier_fraction: 0.03,
        seed,
        ..Default::default()
    };
    let mut g = SyntheticGenerator::new(config).unwrap();
    let train = g.generate_normal(1500);
    let records = g.generate(n);
    (train, records)
}

fn evaluate<D: StreamDetector>(detector: &mut D, records: &[LabeledRecord]) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::new();
    for r in records {
        let d = detector.process(&r.point);
        m.record(d.outlier, r.is_anomaly());
    }
    m
}

#[test]
fn spot_detects_projected_outliers_with_good_f1() {
    let (train, records) = stream(7, 12, 4000);
    let mut spot = SpotBuilder::new(spot_types::DomainBounds::unit(12))
        .fs_max_dimension(2)
        .seed(1)
        .build()
        .unwrap();
    spot.learn(&train).unwrap();
    let m = evaluate(&mut spot, &records);
    assert!(m.recall() > 0.7, "recall {:.3} too low ({m:?})", m.recall());
    assert!(m.f1() > 0.6, "f1 {:.3} too low ({m:?})", m.f1());
    assert!(
        m.false_positive_rate() < 0.1,
        "fpr {:.3} too high",
        m.false_positive_rate()
    );
}

#[test]
fn spot_beats_fullspace_baseline_on_projected_outliers() {
    let (train, records) = stream(21, 12, 4000);
    let mut spot = SpotBuilder::new(spot_types::DomainBounds::unit(12))
        .fs_max_dimension(2)
        .seed(2)
        .build()
        .unwrap();
    spot.learn(&train).unwrap();
    let spot_m = evaluate(&mut spot, &records);

    let mut full = FullSpaceGridDetector::new(
        spot_types::DomainBounds::unit(12),
        FullSpaceConfig::default(),
    )
    .unwrap();
    StreamDetector::learn(&mut full, &train).unwrap();
    let full_m = evaluate(&mut full, &records);

    assert!(
        spot_m.f1() > full_m.f1(),
        "SPOT F1 {:.3} must beat full-space F1 {:.3}",
        spot_m.f1(),
        full_m.f1()
    );
}

#[test]
fn reported_subspaces_overlap_planted_ones() {
    let config = SyntheticConfig {
        dims: 12,
        outlier_fraction: 0.03,
        seed: 9,
        ..Default::default()
    };
    let mut g = SyntheticGenerator::new(config).unwrap();
    let train = g.generate_normal(1500);
    let records = g.generate(4000);
    let mut spot = SpotBuilder::new(spot_types::DomainBounds::unit(12))
        .fs_max_dimension(2)
        .seed(3)
        .build()
        .unwrap();
    spot.learn(&train).unwrap();

    let mut overlaps = 0usize;
    let mut detected = 0usize;
    for r in &records {
        let v = spot.process(&r.point).unwrap();
        if let Some(info) = r.label.anomaly() {
            if v.outlier {
                detected += 1;
                let truth =
                    spot_subspace::Subspace::from_mask(info.true_subspace.unwrap()).unwrap();
                let best = spot_metrics::best_jaccard(truth, &v.subspaces());
                if best >= 0.5 {
                    overlaps += 1;
                }
            }
        }
    }
    assert!(
        detected > 50,
        "too few detections ({detected}) for a meaningful check"
    );
    let frac = overlaps as f64 / detected as f64;
    assert!(
        frac > 0.6,
        "only {frac:.2} of detections overlap the planted subspace"
    );
}

#[test]
fn memory_stays_bounded_on_long_streams() {
    let config = SyntheticConfig {
        dims: 10,
        outlier_fraction: 0.01,
        seed: 4,
        ..Default::default()
    };
    let mut g = SyntheticGenerator::new(config).unwrap();
    let train = g.generate_normal(1000);
    let mut spot = SpotBuilder::new(spot_types::DomainBounds::unit(10))
        .fs_max_dimension(2)
        .time_model(spot_stream::TimeModel::new(500, 0.01).unwrap())
        .pruning(500, 1e-3)
        .seed(5)
        .build()
        .unwrap();
    spot.learn(&train).unwrap();

    // OS growth keeps adding projected stores for a while; each new store
    // needs ~one prune horizon to saturate. Judge the plateau on the final
    // quarter of the stream, after the SST composition has settled.
    let mut peak_tail = 0usize;
    let mut at_three_quarters = 0usize;
    for (i, r) in g.generate(20_000).into_iter().enumerate() {
        spot.process(&r.point).unwrap();
        let cells = spot.footprint().projected_cells;
        if i == 15_000 {
            at_three_quarters = cells;
        }
        if i >= 15_000 {
            peak_tail = peak_tail.max(cells);
        }
    }
    assert!(
        (peak_tail as f64) < at_three_quarters as f64 * 1.6,
        "cells kept growing: at 15k {at_three_quarters}, tail peak {peak_tail}"
    );
}

#[test]
fn the_state_of_a_wide_detector_is_its_projected_cells() {
    // ϕ = 64: every point below is alone in its full-space cell, so a
    // full-space table would hold one 1.1 KB cell per remembered point
    // (≈ 20 MB of footprint and of checkpoint for this stream). The
    // detector's state is its 64 one-dimensional stores instead.
    let dims = 64;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut point = || {
        spot_types::DataPoint::new(
            (0..dims)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect(),
        )
    };
    let grid =
        spot_synopsis::Grid::new(spot_types::DomainBounds::unit(dims), 10).expect("valid grid");
    let mut cells = std::collections::HashSet::new();
    let mut spot = SpotBuilder::new(spot_types::DomainBounds::unit(dims))
        .fs_max_dimension(1)
        .seed(9)
        .build()
        .unwrap();
    for i in 0..20_000 {
        let p = point();
        assert!(
            cells.insert(grid.base_coords(&p).unwrap()),
            "test premise: point {i} shares a full-space cell"
        );
        spot.process(&p).unwrap();
    }
    let footprint = spot.footprint();
    assert!(footprint.projected_cells >= 64 * 10);
    assert!(
        footprint.approx_bytes < 1 << 20,
        "footprint {} B",
        footprint.approx_bytes
    );
    let checkpoint = spot.checkpoint().to_bytes();
    assert!(
        checkpoint.len() < 1 << 20,
        "checkpoint {} B",
        checkpoint.len()
    );
}
