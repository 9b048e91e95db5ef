//! Warm-restart acceptance suite: for random streams crossing evolution
//! and pruning ticks, `checkpoint → restore → continue` must yield
//! verdicts, stats and footprint **bit-identical** to an uninterrupted
//! run — through the sealed checkpoint bytes, on both the one-by-one and
//! the batch path.

use proptest::prelude::*;
use spot::{restore_from_bytes, EvolutionConfig, Spot, SpotBuilder, Verdict};
use spot_types::{DataPoint, DomainBounds};

const DIMS: usize = 4;

fn training(n: usize) -> Vec<DataPoint> {
    let centers = [[0.2, 0.25], [0.6, 0.7], [0.85, 0.3]];
    (0..n)
        .map(|i| {
            let c = centers[i % 3];
            let jitter = |k: usize| ((i * (k + 5)) % 11) as f64 / 11.0 * 0.05;
            DataPoint::new(vec![
                c[0] + jitter(0),
                c[1] + jitter(1),
                0.35 + jitter(2) * 4.0,
                0.45 + jitter(3) * 4.0,
            ])
        })
        .collect()
}

/// A stream with planted projected outliers, deterministic in `salt`.
fn stream(n: usize, salt: u64) -> Vec<DataPoint> {
    training(n)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let mut v = p.into_values();
            if (i as u64 + salt).is_multiple_of(13) {
                v[2 + i % 2] = 0.96 - ((i as u64 + salt) % 7) as f64 * 0.012;
            }
            DataPoint::new(v)
        })
        .collect()
}

fn detector(seed: u64, evolution_period: u64, prune_every: u64) -> Spot {
    let mut s = SpotBuilder::new(DomainBounds::unit(DIMS))
        .seed(seed)
        .evolution(EvolutionConfig {
            period: evolution_period,
            outlier_buffer: 32,
            reservoir: 128,
            min_outliers_for_os: 3,
            ..Default::default()
        })
        .pruning(prune_every, 1e-4)
        .build()
        .unwrap();
    s.learn(&training(250)).unwrap();
    s
}

fn assert_verdicts_bitwise(want: &[Verdict], got: &[Verdict]) {
    assert_eq!(want.len(), got.len());
    for (a, b) in want.iter().zip(got) {
        // Field-level asserts for diagnostics; bitwise_eq is the
        // authoritative (field-complete) predicate.
        assert_eq!(a.outlier, b.outlier, "tick {}", a.tick);
        assert_eq!(a.findings, b.findings, "tick {}", a.tick);
        assert!(a.bitwise_eq(b), "tick {}: {a:?} vs {b:?}", a.tick);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One-by-one processing, cut at a random point. Evolution and pruning
    /// periods are drawn small enough that several maintenance ticks land
    /// on both sides of the cut.
    #[test]
    fn resume_is_bit_exact_one_by_one(
        seed in 0u64..1000,
        salt in 0u64..100,
        evolution_period in 40u64..120,
        prune_every in 30u64..100,
        cut_frac in 0.1f64..0.9,
    ) {
        let pts = stream(360, salt);
        let cut = ((pts.len() as f64 * cut_frac) as usize).clamp(1, pts.len() - 1);

        let mut uninterrupted = detector(seed, evolution_period, prune_every);
        let want: Vec<Verdict> = pts.iter().map(|p| uninterrupted.process(p).unwrap()).collect();

        let mut before = detector(seed, evolution_period, prune_every);
        let mut got: Vec<Verdict> = pts[..cut].iter().map(|p| before.process(p).unwrap()).collect();
        let bytes = before.checkpoint().to_bytes();
        drop(before);
        let mut resumed = restore_from_bytes(&bytes).unwrap();
        got.extend(pts[cut..].iter().map(|p| resumed.process(p).unwrap()));

        assert_verdicts_bitwise(&want, &got);
        prop_assert_eq!(resumed.stats(), uninterrupted.stats());
        prop_assert_eq!(resumed.footprint(), uninterrupted.footprint());
        prop_assert_eq!(resumed.now(), uninterrupted.now());
        // Maintenance-relevant hidden state is equal too: both detectors
        // checkpoint to the same bytes.
        prop_assert_eq!(
            resumed.checkpoint().to_bytes(),
            uninterrupted.checkpoint().to_bytes()
        );
    }

    /// Batch processing: the maintenance-bounded runs must be insensitive
    /// to where the checkpoint fell.
    #[test]
    fn resume_is_bit_exact_for_batches(
        seed in 0u64..1000,
        salt in 0u64..100,
        evolution_period in 40u64..120,
        prune_every in 30u64..100,
        cut in 40usize..320,
        chunk in 20usize..90,
    ) {
        let pts = stream(360, salt);

        let mut uninterrupted = detector(seed, evolution_period, prune_every);
        let mut want = Vec::new();
        for c in pts.chunks(chunk) {
            want.extend(uninterrupted.process_batch(c).unwrap());
        }

        let mut before = detector(seed, evolution_period, prune_every);
        let mut got = Vec::new();
        for c in pts[..cut].chunks(chunk) {
            got.extend(before.process_batch(c).unwrap());
        }
        let bytes = before.checkpoint().to_bytes();
        drop(before);
        let mut resumed = restore_from_bytes(&bytes).unwrap();
        for c in pts[cut..].chunks(chunk) {
            got.extend(resumed.process_batch(c).unwrap());
        }

        assert_verdicts_bitwise(&want, &got);
        prop_assert_eq!(resumed.stats(), uninterrupted.stats());
        prop_assert_eq!(resumed.footprint(), uninterrupted.footprint());
    }
}

#[test]
fn resume_preserves_drift_response() {
    // A level shift after the checkpoint must fire the drift alarm on the
    // same tick for the resumed and the uninterrupted detector — the
    // Page–Hinkley statistics accumulated *before* the cut carry over.
    let build = || {
        let mut s = SpotBuilder::new(DomainBounds::unit(DIMS))
            .seed(7)
            .drift(spot::DriftConfig {
                enabled: true,
                delta: 0.005,
                lambda: 2.0,
                min_points: 50,
                novelty_floor: 5.0,
            })
            .build()
            .unwrap();
        s.learn(&training(250)).unwrap();
        s
    };
    // Stationary prefix, then a shifted regime that opens fresh cells.
    let mut pts = stream(200, 3);
    pts.extend((0..200).map(|i| {
        DataPoint::new(vec![
            0.05 + (i % 17) as f64 * 0.002,
            0.9 - (i % 13) as f64 * 0.003,
            0.05 + (i % 11) as f64 * 0.004,
            0.9 - (i % 7) as f64 * 0.005,
        ])
    }));

    let mut uninterrupted = build();
    let want: Vec<Verdict> = pts
        .iter()
        .map(|p| uninterrupted.process(p).unwrap())
        .collect();
    assert!(
        want.iter().any(|v| v.drift),
        "test premise: the shift must trigger a drift alarm"
    );

    let mut before = build();
    let mut got: Vec<Verdict> = pts[..180]
        .iter()
        .map(|p| before.process(p).unwrap())
        .collect();
    let mut resumed = restore_from_bytes(&before.checkpoint().to_bytes()).unwrap();
    got.extend(pts[180..].iter().map(|p| resumed.process(p).unwrap()));

    assert_verdicts_bitwise(&want, &got);
    assert_eq!(
        resumed.stats().drift_events,
        uninterrupted.stats().drift_events
    );
}
