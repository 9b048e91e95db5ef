//! Property-based robustness: SPOT must absorb arbitrary (even
//! out-of-bounds) numeric streams without panicking, keep its counters
//! consistent, and respect configuration invariants.

use proptest::prelude::*;
use spot::{EvolutionConfig, Spot, SpotBuilder};
use spot_types::{DataPoint, DomainBounds, SpotError};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn survives_arbitrary_streams(
        seed in 0u64..1000,
        train_vals in proptest::collection::vec(
            proptest::collection::vec(-2.0f64..3.0, 4), 20..60
        ),
        stream_vals in proptest::collection::vec(
            proptest::collection::vec(-5.0f64..6.0, 4), 10..80
        ),
    ) {
        let mut spot = SpotBuilder::new(DomainBounds::unit(4))
            .fs_max_dimension(2)
            .seed(seed)
            .evolution(EvolutionConfig { period: 20, ..Default::default() })
            .build()
            .unwrap();
        let train: Vec<DataPoint> = train_vals.into_iter().map(DataPoint::new).collect();
        spot.learn(&train).unwrap();
        let mut outliers = 0u64;
        for vals in stream_vals {
            let v = spot.process(&DataPoint::new(vals)).unwrap();
            if v.outlier {
                outliers += 1;
                prop_assert!(!v.findings.is_empty());
            } else {
                prop_assert!(v.findings.is_empty());
            }
            prop_assert!((0.0..=1.0).contains(&v.score) || v.score == 0.0);
            for f in &v.findings {
                prop_assert!(f.rd < spot.config().thresholds.rd);
            }
        }
        prop_assert_eq!(spot.stats().outliers, outliers);
        prop_assert!(spot.stats().processed >= outliers);
    }

    #[test]
    fn verdict_ticks_are_monotonic(
        n in 5usize..40,
    ) {
        let mut spot = SpotBuilder::new(DomainBounds::unit(3)).seed(1).build().unwrap();
        let train: Vec<DataPoint> = (0..50)
            .map(|i| DataPoint::new(vec![0.5 + (i % 5) as f64 * 0.01; 3]))
            .collect();
        spot.learn(&train).unwrap();
        let mut last = spot.now();
        for i in 0..n {
            let v = spot.process(&DataPoint::new(vec![i as f64 / n as f64; 3])).unwrap();
            prop_assert!(v.tick > last);
            last = v.tick;
        }
    }
}

#[test]
fn dimension_mismatch_is_an_error_not_a_panic() {
    let mut spot = SpotBuilder::new(DomainBounds::unit(4)).build().unwrap();
    let train: Vec<DataPoint> = (0..30).map(|_| DataPoint::new(vec![0.5; 4])).collect();
    spot.learn(&train).unwrap();
    assert!(spot.process(&DataPoint::new(vec![0.5; 3])).is_err());
    assert!(spot.process(&DataPoint::new(vec![0.5; 5])).is_err());
    // The detector remains usable afterwards.
    assert!(spot.process(&DataPoint::new(vec![0.5; 4])).is_ok());
}

#[test]
fn a_refused_learn_leaves_the_detector_untouched() {
    // Every training point and exemplar is admitted before the learning
    // stage changes anything: no CS without stores, no advanced RNG.
    let fresh = || {
        SpotBuilder::new(DomainBounds::unit(4))
            .seed(5)
            .build()
            .unwrap()
    };
    let untouched = fresh().checkpoint();
    let train: Vec<DataPoint> = (0..300)
        .map(|i| {
            let c = [0.2, 0.7][i % 2];
            DataPoint::new(vec![
                c + (i % 9) as f64 * 0.01,
                c,
                0.5,
                (i % 7) as f64 / 7.0,
            ])
        })
        .collect();
    let mut nan_train = train.clone();
    nan_train[150] = DataPoint::new(vec![0.5, f64::NAN, 0.5, 0.5]);
    let nan_exemplar = DataPoint::new(vec![f64::NAN, 0.5, 0.5, 0.5]);
    let cases = [
        (
            "a NaN exemplar",
            &train,
            vec![DataPoint::new(vec![0.95, 0.05, 0.5, 0.5]), nan_exemplar],
            SpotError::NonFiniteValue { dim: 0 },
        ),
        (
            "a NaN training point",
            &nan_train,
            Vec::new(),
            SpotError::NonFiniteValue { dim: 1 },
        ),
        (
            "a wrong-width exemplar",
            &train,
            vec![DataPoint::new(vec![0.9; 3])],
            SpotError::DimensionMismatch {
                expected: 4,
                got: 3,
            },
        ),
    ];
    for (name, training, exemplars, want) in cases {
        let mut spot = fresh();
        let refused = spot.learn_with_examples(training, &exemplars);
        assert_eq!(refused.unwrap_err(), want, "{name}");
        assert!(!spot.is_learned(), "{name}");
        let moved = spot.checkpoint().as_bytes() != untouched.as_bytes();
        assert!(!moved, "{name}: the refused learn changed the detector");
    }
}

#[test]
fn extreme_values_are_clamped_into_boundary_cells() {
    let mut spot = SpotBuilder::new(DomainBounds::unit(4))
        .seed(2)
        .build()
        .unwrap();
    // Enough training mass that a singleton boundary cell is sparse
    // relative to the uniform expectation (RD needs N ≫ m/τ).
    let train: Vec<DataPoint> = (0..800)
        .map(|i| DataPoint::new(vec![0.5 + (i % 7) as f64 * 0.01; 4]))
        .collect();
    spot.learn(&train).unwrap();
    for v in [f64::MAX, f64::MIN, 1e300, -1e300] {
        let verdict = spot.process(&DataPoint::new(vec![v; 4])).unwrap();
        // Far outside the trained region: must be an outlier, not a crash.
        assert!(verdict.outlier);
    }
}

/// What a detector learned, CS then OS as (mask, score bits), and its
/// verdicts afterwards as (flag, score bits).
type Learned = (Vec<(u64, u64)>, Vec<(bool, u64)>);

/// A detector at ϕ = 8 learned on `training` with seed 11, then run over
/// 1 000 points spread over the domain and past its bounds.
fn learn_then_process(training: &[DataPoint]) -> Learned {
    let mut spot: Spot = SpotBuilder::new(DomainBounds::unit(8))
        .seed(11)
        .evolution(EvolutionConfig {
            period: 250,
            ..Default::default()
        })
        .build()
        .unwrap();
    spot.learn(training).unwrap();
    let sst = spot
        .sst()
        .cs()
        .chain(spot.sst().os())
        .map(|e| (e.subspace.mask(), e.score.to_bits()))
        .collect();
    let verdicts = (0..1000u64)
        .map(|i| {
            let values = (0..8u64)
                .map(|d| ((i * 37 + d * 11) % 113) as f64 / 100.0 - 0.05)
                .collect();
            let v = spot.process(&DataPoint::new(values)).unwrap();
            (v.outlier, v.score.to_bits())
        })
        .collect();
    (sst, verdicts)
}

#[test]
fn learning_takes_every_edge_of_a_training_set() {
    let mut spot = SpotBuilder::new(DomainBounds::unit(8)).build().unwrap();
    assert!(matches!(spot.learn(&[]), Err(SpotError::EmptyTrainingSet)));

    let one = DataPoint::new(vec![0.3, 0.7, 0.5, 0.1, 0.9, 0.5, 0.2, 0.8]);
    let copies = vec![one.clone(); 2000];
    let hostile: Vec<DataPoint> = (0..300u64)
        .map(|i| {
            let values = (0..8u64)
                .map(|d| match (i * 7 + d * 3) % 23 {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    2 => -0.4,
                    3 => 1.9,
                    4 => 1e300,
                    k => k as f64 / 23.0,
                })
                .collect();
            DataPoint::new(values)
        })
        .collect();
    for (name, training) in [
        ("one point", vec![one]),
        ("2 000 copies of one point", copies),
        ("±∞ and out-of-bounds coordinates", hostile),
    ] {
        // Two same-seed detectors learn the same SST and give the same
        // verdicts afterwards.
        let first = learn_then_process(&training);
        let second = learn_then_process(&training);
        assert_eq!(first, second, "{name}");
        assert_eq!(first.1.len(), 1000, "{name}");
    }
}
