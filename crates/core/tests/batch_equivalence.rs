//! `Spot::process_batch` against fixed numbers and against `Spot::process`.
//!
//! The batch path ingests and screens a maintenance-bounded run store by
//! store, then commits it point by point. Two streams pin its output to
//! constants recorded before the parallel executors, run overlap and the
//! batched commit were deleted, so the serial path is checked against
//! numbers it did not produce itself. The remaining tests compare it with
//! one-by-one processing across maintenance ticks, chunkings, CS
//! self-evolution and a checkpoint resume.

use proptest::prelude::*;
use spot::types::{DataPoint, DomainBounds};
use spot::{DriftConfig, EvolutionConfig, Spot, SpotBuilder, SpotStats, Verdict};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Every field of every verdict, then the SST the stream left behind.
fn digest(verdicts: &[Verdict], spot: &Spot) -> u64 {
    let mut h = Fnv::new();
    for v in verdicts {
        h.u64(v.tick);
        h.u64(u64::from(v.outlier) | u64::from(v.drift) << 1);
        h.f64(v.score);
        for f in &v.findings {
            h.u64(f.subspace.mask());
            h.f64(f.rd);
            h.f64(f.irsd);
        }
    }
    for s in spot.sst().iter_all() {
        h.u64(s.mask());
    }
    h.0
}

/// The logical counters plus the two batch counters `benchmark/` reads:
/// processed, outliers, evolutions, os_added, drift_events, cells_pruned,
/// batch_points, batch_runs.
fn counters(stats: &SpotStats) -> [u64; 8] {
    [
        stats.processed,
        stats.outliers,
        stats.evolutions,
        stats.os_added,
        stats.drift_events,
        stats.cells_pruned,
        stats.batch_points,
        stats.batch_runs,
    ]
}

fn build_spot(seed: u64, dims: usize, evo_period: u64, prune_every: u64) -> Spot {
    SpotBuilder::new(DomainBounds::unit(dims))
        .seed(seed)
        .fs_max_dimension(2)
        .evolution(EvolutionConfig {
            period: evo_period,
            ..Default::default()
        })
        .pruning(prune_every, 1e-4)
        .build()
        .unwrap()
}

/// Deterministic pseudo-stream with occasional spikes so outliers (and
/// with them OS growth and drift signals) actually occur.
fn stream(n: usize, dims: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            let mut v: Vec<f64> = (0..dims)
                .map(|d| {
                    let x = (i as u64)
                        .wrapping_mul(d as u64 + 3)
                        .wrapping_add(salt.wrapping_mul(7))
                        % 23;
                    0.2 + (x as f64 / 23.0) * 0.5
                })
                .collect();
            if i % 13 == 5 {
                v[i % dims] = if (i / 13) % 2 == 0 { 0.98 } else { 0.01 };
            }
            DataPoint::new(v)
        })
        .collect()
}

/// Dense training batch (three tight clusters in dims {0,1}).
fn clustered_train(dims: usize, n: usize) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            let centers = [[0.2, 0.2], [0.5, 0.7], [0.8, 0.3]];
            let c = centers[i % 3];
            let mut v = vec![0.0; dims];
            v[0] = c[0] + ((i * 7) % 13) as f64 / 13.0 * 0.04;
            v[1] = c[1] + ((i * 11) % 13) as f64 / 13.0 * 0.04;
            for (d, item) in v.iter_mut().enumerate().skip(2) {
                *item = 0.3 + ((i * (d + 3)) % 17) as f64 / 17.0 * 0.4;
            }
            DataPoint::new(v)
        })
        .collect()
}

fn assert_same_verdicts(want: &[Verdict], got: &[Verdict], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: length");
    for (a, b) in want.iter().zip(got) {
        // Field-level asserts for diagnostics; bitwise_eq is the
        // authoritative (field-complete) predicate.
        assert_eq!(a.outlier, b.outlier, "{label}: tick {}", a.tick);
        assert_eq!(
            a.findings, b.findings,
            "{label}: findings at tick {}",
            a.tick
        );
        assert!(a.bitwise_eq(b), "{label}: tick {}: {a:?} vs {b:?}", a.tick);
    }
}

#[test]
fn drift_alarm_inside_a_run_matches_the_recorded_batch_output() {
    // A learned detector (CS populated) under an aggressive Page–Hinkley
    // configuration, fed a stream that shifts into fresh territory: four
    // alarms fire (ticks 331, 461, 513, 561), each rewriting CS (store
    // add/remove + reservoir replay) in the middle of a run's commit, so
    // where the runs begin decides what the rest of each run was screened
    // against. Recorded from the batch path as it stood with its
    // executors, its run overlap and its exact-fallback commit.
    const WANT_COUNTERS: [u64; 6] = [600, 36, 4, 0, 4, 0];
    const CHUNKINGS: [(usize, u64, u64); 4] = [
        (300, 0x89d6_7429_3eb8_893e, 4),
        (97, 0x0a0d_f1ad_1f63_5d72, 7),
        (256, 0x0a0d_f1ad_1f63_5d72, 3),
        (1, 0x0a0d_f1ad_1f63_5d72, 600),
    ];
    let dims = 5;
    let make = || {
        let mut s = SpotBuilder::new(DomainBounds::unit(dims))
            .seed(17)
            .fs_max_dimension(2)
            .evolution(EvolutionConfig {
                period: 5000, // periodic maintenance out of the way
                ..Default::default()
            })
            .drift(DriftConfig {
                enabled: true,
                delta: 0.01,
                lambda: 0.2,
                min_points: 40,
                novelty_floor: 5.0,
            })
            .pruning(0, 1e-4)
            .build()
            .unwrap();
        s.learn(&clustered_train(dims, 260)).unwrap();
        s
    };
    // Familiar territory first, then a tail that keeps opening fresh
    // projected cells.
    let mut pts = stream(300, dims, 9);
    for i in 0..300usize {
        let v: Vec<f64> = (0..dims)
            .map(|d| 0.76 + ((i * (d + 3) + 5 * d) % 23) as f64 / 23.0 * 0.23)
            .collect();
        pts.push(DataPoint::new(v));
    }
    for (chunk, want_digest, want_runs) in CHUNKINGS {
        let mut spot = make();
        let mut verdicts = Vec::new();
        for c in pts.chunks(chunk) {
            verdicts.extend(spot.process_batch(c).unwrap());
        }
        let got = (digest(&verdicts, &spot), counters(spot.stats()));
        assert_eq!(
            (got.0, &got.1[..6], got.1[6], got.1[7]),
            (want_digest, &WANT_COUNTERS[..], 600, want_runs),
            "chunk {chunk}: {:#x} {:?}",
            got.0,
            got.1
        );
    }
}

#[test]
fn maintenance_ticks_match_the_recorded_batch_output_at_every_chunking() {
    // Periodic evolution at every 90th tick, OS growth and pruning at
    // every 70th (a short time model, so cells really are evicted) split
    // the runs; the verdicts equal one-by-one processing at every
    // chunking, and only the run count depends on the chunking. Recorded
    // as for the drift stream above.
    const WANT_DIGEST: u64 = 0xdc27_fb9b_ac11_b966;
    const WANT_COUNTERS: [u64; 6] = [700, 112, 8, 9, 0, 692];
    const CHUNKINGS: [(usize, u64); 6] =
        [(1, 700), (7, 116), (64, 28), (97, 25), (256, 20), (700, 18)];
    let make = || {
        let mut s = SpotBuilder::new(DomainBounds::unit(5))
            .seed(31)
            .fs_max_dimension(2)
            .time_model(spot::stream::TimeModel::new(200, 0.01).unwrap())
            .evolution(EvolutionConfig {
                period: 90,
                outlier_buffer: 32,
                reservoir: 128,
                min_outliers_for_os: 3,
                ..Default::default()
            })
            .pruning(70, 1e-3)
            .rd_threshold(0.5)
            .build()
            .unwrap();
        s.learn(&clustered_train(5, 250)).unwrap();
        s
    };
    let mut pts = stream(700, 5, 17);
    for (i, p) in pts.iter_mut().enumerate() {
        if i % 11 == 3 {
            let mut v = p.values().to_vec();
            v[i % 5] = 0.01 + (i % 7) as f64 * 0.14;
            v[(i + 2) % 5] = 0.99 - (i % 5) as f64 * 0.2;
            *p = DataPoint::new(v);
        }
    }
    let mut one_by_one = make();
    let want: Vec<Verdict> = pts.iter().map(|p| one_by_one.process(p).unwrap()).collect();
    assert_eq!(digest(&want, &one_by_one), WANT_DIGEST, "Spot::process");
    assert_eq!(counters(one_by_one.stats())[..6], WANT_COUNTERS);
    for (chunk, want_runs) in CHUNKINGS {
        let mut spot = make();
        let mut got = Vec::new();
        for c in pts.chunks(chunk) {
            got.extend(spot.process_batch(c).unwrap());
        }
        let got = (digest(&got, &spot), counters(spot.stats()));
        assert_eq!(
            (got.0, &got.1[..6], got.1[6], got.1[7]),
            (WANT_DIGEST, &WANT_COUNTERS[..], 700, want_runs),
            "chunk {chunk}: {:#x} {:?}",
            got.0,
            got.1
        );
    }
}

/// `pts` one by one, then in `chunk`-sized batches: the verdicts, the
/// stats, the footprint and a probe point's verdict (which exposes the
/// final PCS of every monitored subspace) must all agree.
fn check_batch_against_one_by_one(make: impl Fn() -> Spot, pts: &[DataPoint], chunk: usize) {
    let probe = pts[pts.len() / 2].clone();
    let mut reference = make();
    let want: Vec<Verdict> = pts.iter().map(|p| reference.process(p).unwrap()).collect();
    let want_probe = reference.process(&probe).unwrap();

    for (label, chunk_size) in [("whole batch", pts.len()), ("chunked batch", chunk)] {
        let mut spot = make();
        let mut got = Vec::new();
        for c in pts.chunks(chunk_size) {
            got.extend(spot.process_batch(c).unwrap());
        }
        assert_same_verdicts(&want, &got, label);
        let got_probe = spot.process(&probe).unwrap();
        assert_same_verdicts(
            std::slice::from_ref(&want_probe),
            std::slice::from_ref(&got_probe),
            label,
        );
        assert_eq!(spot.stats(), reference.stats(), "{label}: stats");
        assert_eq!(
            spot.footprint(),
            reference.footprint(),
            "{label}: footprint"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batch_is_bit_identical_to_one_by_one_across_maintenance_ticks(
        seed in 0u64..1000,
        dims in 3usize..6,
        evo_period in 20u64..90,
        prune_every in 15u64..70,
        n in 80usize..200,
        chunk in 11usize..97,
        salt in 0u64..100,
    ) {
        // Streams are long enough to cross both maintenance periods.
        let n = n.max(evo_period as usize + 10).max(prune_every as usize + 10);
        let pts = stream(n, dims, salt);
        check_batch_against_one_by_one(
            || build_spot(seed, dims, evo_period, prune_every),
            &pts,
            chunk,
        );
    }
}

#[test]
fn learned_detector_with_cs_evolution_is_bit_identical() {
    // A learned detector has a populated CS, so periodic self-evolution
    // actually rewrites the SST (add/remove/replay of projected stores)
    // mid-stream — the heaviest maintenance the batch runs must split
    // around.
    let dims = 6;
    let train = clustered_train(dims, 300);
    let make = || {
        let mut s = SpotBuilder::new(DomainBounds::unit(dims))
            .seed(23)
            .evolution(EvolutionConfig {
                period: 110,
                ..Default::default()
            })
            .pruning(85, 1e-4)
            .build()
            .unwrap();
        s.learn(&train).unwrap();
        s
    };
    let pts = stream(320, dims, 41);
    check_batch_against_one_by_one(make, &pts, 73);
}

#[test]
fn checkpoint_resume_is_bit_identical() {
    // A checkpoint taken mid-stream, restored after the original is
    // dropped, continues exactly as the uninterrupted detector does —
    // one by one and in batches.
    let make = || {
        let mut s = build_spot(31, 5, 90, 70);
        s.learn(&stream(250, 5, 9)).unwrap();
        s
    };
    let pts = stream(400, 5, 17);

    let mut uninterrupted = make();
    let want: Vec<Verdict> = pts
        .iter()
        .map(|p| uninterrupted.process(p).unwrap())
        .collect();

    let mut first_half = make();
    let prefix: Vec<Verdict> = pts[..210]
        .iter()
        .map(|p| first_half.process(p).unwrap())
        .collect();
    let bytes = first_half.checkpoint().to_bytes();
    drop(first_half); // the "crash"

    let resume = || spot::restore_from_bytes(&bytes).unwrap();
    {
        let mut r = resume();
        let mut got = prefix.clone();
        got.extend(pts[210..].iter().map(|p| r.process(p).unwrap()));
        assert_same_verdicts(&want, &got, "resumed one-by-one");
        assert_eq!(r.stats(), uninterrupted.stats());
        assert_eq!(r.footprint(), uninterrupted.footprint());
    }
    {
        let mut r = resume();
        let mut got = prefix.clone();
        for c in pts[210..].chunks(47) {
            got.extend(r.process_batch(c).unwrap());
        }
        assert_same_verdicts(&want, &got, "resumed batches");
        assert_eq!(r.stats(), uninterrupted.stats());
        assert_eq!(r.footprint(), uninterrupted.footprint());
    }
}
