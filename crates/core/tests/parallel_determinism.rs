//! Parallel-runtime determinism: every execution strategy of the batch
//! path — serial, multi-threaded shard executor, cooperative `SharedSpot`,
//! and (with the `parallel` feature) the manager's persistent worker pool
//! at any worker count — must yield verdicts and synopsis state
//! bit-identical to one-by-one sequential processing, including streams
//! that cross periodic evolution and pruning maintenance ticks.

use proptest::prelude::*;
use spot::synopsis::{SerialExecutor, StoreExecutor};
use spot::types::{DataPoint, DomainBounds};
use spot::{DriftConfig, EvolutionConfig, SharedSpot, Spot, SpotBuilder, TuningConfig, Verdict};

/// Shard executor fanning `work` across N scoped threads plus the caller —
/// the worst-case interleaving for the claim protocol.
struct FanOut(usize);

impl StoreExecutor for FanOut {
    fn execute(&self, work: &(dyn Fn() + Sync)) {
        std::thread::scope(|scope| {
            for _ in 0..self.0 {
                scope.spawn(work);
            }
            work();
        });
    }
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

/// Reference run plus a probe point whose verdict exposes the final PCS of
/// every monitored subspace.
fn sequential_reference(
    mut spot: Spot,
    pts: &[DataPoint],
    probe: &DataPoint,
) -> (Vec<Verdict>, Verdict, Spot) {
    let verdicts: Vec<Verdict> = pts.iter().map(|p| spot.process(p).unwrap()).collect();
    let probe_verdict = spot.process(probe).unwrap();
    (verdicts, probe_verdict, spot)
}

fn check_all_strategies(make: impl Fn() -> Spot, pts: &[DataPoint], chunk: usize, helpers: usize) {
    let probe = pts[pts.len() / 2].clone();
    let (want, want_probe, reference) = sequential_reference(make(), pts, &probe);

    // Strategy: whole-batch and chunked through the default executor.
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

    // Strategy: explicit multi-thread shard executor.
    {
        let exec = FanOut(helpers);
        let mut spot = make();
        let mut got = Vec::new();
        for c in pts.chunks(chunk) {
            got.extend(spot.process_batch_with(c, &exec).unwrap());
        }
        assert_same_verdicts(&want, &got, "fan-out executor");
        let got_probe = spot.process(&probe).unwrap();
        assert_same_verdicts(
            std::slice::from_ref(&want_probe),
            std::slice::from_ref(&got_probe),
            "fan-out executor",
        );
        assert_eq!(spot.stats(), reference.stats());
        assert_eq!(spot.footprint(), reference.footprint());
    }

    // Strategy: cooperative SharedSpot (sharded) and single-mutex control.
    for (label, shared) in [
        ("cooperative SharedSpot", SharedSpot::new(make())),
        ("single-mutex SharedSpot", SharedSpot::single_mutex(make())),
    ] {
        let mut got = Vec::new();
        for c in pts.chunks(chunk) {
            got.extend(shared.process_batch(c).unwrap());
        }
        assert_same_verdicts(&want, &got, label);
        let got_probe = shared.process(&probe).unwrap();
        assert_same_verdicts(
            std::slice::from_ref(&want_probe),
            std::slice::from_ref(&got_probe),
            label,
        );
        assert_eq!(shared.stats(), *reference.stats(), "{label}: stats");
        assert_eq!(
            shared.with(|s| s.footprint()),
            reference.footprint(),
            "{label}: footprint"
        );
    }

    // Strategy: the executor service's persistent pool at several sizes
    // (available in every build; the `parallel` feature only changes the
    // default engagement policy).
    for workers in [1usize, 2, 4] {
        let mut spot = make();
        spot.set_parallel_workers(Some(workers));
        let mut got = Vec::new();
        for c in pts.chunks(chunk) {
            got.extend(spot.process_batch(c).unwrap());
        }
        assert_same_verdicts(&want, &got, &format!("pool workers={workers}"));
        let got_probe = spot.process(&probe).unwrap();
        assert_same_verdicts(
            std::slice::from_ref(&want_probe),
            std::slice::from_ref(&got_probe),
            &format!("pool workers={workers}"),
        );
        assert_eq!(spot.stats(), reference.stats());
        assert_eq!(spot.footprint(), reference.footprint());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_strategy_is_bit_identical_across_maintenance_ticks(
        seed in 0u64..1000,
        dims in 3usize..6,
        evo_period in 20u64..90,
        prune_every in 15u64..70,
        n in 80usize..200,
        chunk in 11usize..97,
        helpers in 1usize..4,
        salt in 0u64..100,
    ) {
        // Streams are long enough to cross both maintenance periods.
        let n = n.max(evo_period as usize + 10).max(prune_every as usize + 10);
        let pts = stream(n, dims, salt);
        check_all_strategies(
            || build_spot(seed, dims, evo_period, prune_every),
            &pts,
            chunk,
            helpers,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tuned_chunking_and_sharded_commits_stay_bit_identical(
        seed in 0u64..500,
        commit_chunk in 1usize..80,
        pool_min in 1usize..20,
        evo_period in 25u64..80,
        prune_every in 20u64..60,
        chunk in 16usize..120,
        helpers in 0usize..4,
        salt in 0u64..50,
        drift_on in proptest::bool::ANY,
    ) {
        // Tuning is pure scheduling: arbitrary commit granularities and
        // pool-engagement floors, pushed through shard executors of
        // 0-4 helpers (0 degrades to the caller alone), must reproduce
        // the default-tuning sequential reference bit-for-bit — with and
        // without the drift detector folding Page-Hinkley observations
        // into the sharded commit.
        let dims = 4;
        let n = 160usize
            .max(evo_period as usize + 10)
            .max(prune_every as usize + 10);
        let pts = stream(n, dims, salt);
        let probe = pts[pts.len() / 2].clone();
        let tuned = TuningConfig {
            pool_min_stores: pool_min,
            pool_min_points: pool_min,
            commit_chunk,
        };
        let make = |tuning: TuningConfig| {
            let mut b = SpotBuilder::new(DomainBounds::unit(dims))
                .seed(seed)
                .fs_max_dimension(2)
                .evolution(EvolutionConfig {
                    period: evo_period,
                    ..Default::default()
                })
                .pruning(prune_every, 1e-4)
                .tuning(tuning);
            if drift_on {
                b = b.drift(DriftConfig {
                    enabled: true,
                    delta: 0.01,
                    lambda: 0.4,
                    min_points: 40,
                    novelty_floor: 5.0,
                });
            }
            b.build().unwrap()
        };
        let (want, want_probe, reference) =
            sequential_reference(make(TuningConfig::default()), &pts, &probe);

        // Tuned granularities through an explicit fan-out shard executor.
        let exec = FanOut(helpers);
        let mut spot = make(tuned);
        let mut got = Vec::new();
        for c in pts.chunks(chunk) {
            got.extend(spot.process_batch_with(c, &exec).unwrap());
        }
        assert_same_verdicts(&want, &got, "tuned fan-out");
        let got_probe = spot.process(&probe).unwrap();
        assert_same_verdicts(
            std::slice::from_ref(&want_probe),
            std::slice::from_ref(&got_probe),
            "tuned fan-out",
        );
        prop_assert_eq!(spot.stats(), reference.stats());
        prop_assert_eq!(spot.footprint(), reference.footprint());

        // And through the persistent pool with the tuned engagement
        // floors actually deciding when the pool engages.
        for workers in [1usize, 3] {
            let mut spot = make(tuned);
            spot.set_parallel_workers(Some(workers));
            let mut got = Vec::new();
            for c in pts.chunks(chunk) {
                got.extend(spot.process_batch(c).unwrap());
            }
            assert_same_verdicts(&want, &got, &format!("tuned pool workers={workers}"));
            let got_probe = spot.process(&probe).unwrap();
            assert_same_verdicts(
                std::slice::from_ref(&want_probe),
                std::slice::from_ref(&got_probe),
                &format!("tuned pool workers={workers}"),
            );
            prop_assert_eq!(spot.stats(), reference.stats());
            prop_assert_eq!(spot.footprint(), reference.footprint());
        }
    }
}

/// Dense 6-dim training batch (three tight clusters in dims {0,1}).
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

#[test]
fn drift_triggered_mid_run_evolution_is_bit_identical_across_executors() {
    // A learned detector (CS populated) under an aggressive Page–Hinkley
    // configuration, fed a stream that shifts into fresh territory: drift
    // alarms fire *inside* batch runs and trigger immediate CS
    // self-evolution — a full SST rewrite (store add/remove + reservoir
    // replay) mid-commit, the heaviest state mutation the two-phase split
    // has to sequence correctly. Every executor must match the
    // serial-executor batch reference bit-for-bit at identical chunking.
    // (One-by-one processing is deliberately *not* the reference here:
    // drift-triggered evolution timing is the batch path's one documented
    // divergence.)
    let dims = 5;
    let train = clustered_train(dims, 260);
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
                lambda: 0.4,
                min_points: 40,
                novelty_floor: 5.0,
            })
            .pruning(0, 1e-4)
            .build()
            .unwrap();
        s.learn(&train).unwrap();
        s
    };
    // Familiar territory first (alarm-free runs → the PH-simulation gate
    // lets their commits overlap), then a shifting tail that keeps opening
    // fresh projected cells (high novelty fraction → PH alarms → those
    // runs refuse overlap and commit sequentially).
    let mut pts = stream(300, dims, 9);
    for i in 0..300usize {
        let v: Vec<f64> = (0..dims)
            .map(|d| 0.76 + ((i * (d + 3) + 5 * d) % 23) as f64 / 23.0 * 0.23)
            .collect();
        pts.push(DataPoint::new(v));
    }
    // Wider than `Spot::BATCH_RUN` so each call splits into several runs:
    // alarm-free runs overlap (the gate simulates the PH updates from the
    // sweep plans), alarm-carrying runs fall back to sequential commits.
    let chunk = 300;

    let mut reference = make();
    let mut want = Vec::new();
    for c in pts.chunks(chunk) {
        want.extend(reference.process_batch_with(c, &SerialExecutor).unwrap());
    }
    assert!(
        reference.stats().drift_events > 0,
        "scenario must raise drift alarms: {:?}",
        reference.stats()
    );
    assert!(
        reference.stats().evolutions > 0,
        "drift alarms must trigger CS self-evolution mid-run: {:?}",
        reference.stats()
    );
    assert!(
        reference.stats().overlapped_runs > 0,
        "the PH-simulation gate must still overlap alarm-free runs: {:?}",
        reference.stats()
    );
    assert!(
        reference.stats().overlapped_runs < reference.stats().batch_runs,
        "alarm-carrying runs must refuse overlap: {:?}",
        reference.stats()
    );

    // Multi-threaded fan-out executor.
    {
        let exec = FanOut(3);
        let mut spot = make();
        let mut got = Vec::new();
        for c in pts.chunks(chunk) {
            got.extend(spot.process_batch_with(c, &exec).unwrap());
        }
        assert_same_verdicts(&want, &got, "fan-out under drift evolution");
        assert_eq!(spot.stats(), reference.stats());
        assert_eq!(spot.footprint(), reference.footprint());
    }

    // Cooperative and single-mutex SharedSpot.
    for (label, shared) in [
        ("cooperative under drift evolution", SharedSpot::new(make())),
        (
            "single-mutex under drift evolution",
            SharedSpot::single_mutex(make()),
        ),
    ] {
        let mut got = Vec::new();
        for c in pts.chunks(chunk) {
            got.extend(shared.process_batch(c).unwrap());
        }
        assert_same_verdicts(&want, &got, label);
        assert_eq!(shared.stats(), *reference.stats(), "{label}: stats");
        assert_eq!(
            shared.with(|s| s.footprint()),
            reference.footprint(),
            "{label}: footprint"
        );
    }

    // The persistent pool at several sizes.
    for workers in [1usize, 3] {
        let mut spot = make();
        spot.set_parallel_workers(Some(workers));
        let mut got = Vec::new();
        for c in pts.chunks(chunk) {
            got.extend(spot.process_batch(c).unwrap());
        }
        assert_same_verdicts(&want, &got, &format!("pool workers={workers} under drift"));
        assert_eq!(spot.stats(), reference.stats());
        assert_eq!(spot.footprint(), reference.footprint());
    }
}

#[test]
fn run_overlap_engages_and_matches_one_by_one() {
    // With CS empty and maintenance periods far apart, the batch path may
    // overlap every run's commit with the next run's shard ingestion. The
    // overlap must actually engage (the pipeline counter advances) and
    // stay bit-identical to one-by-one sequential processing.
    let dims = 4;
    let make = || {
        SpotBuilder::new(DomainBounds::unit(dims))
            .seed(29)
            .fs_max_dimension(2)
            .evolution(EvolutionConfig {
                period: 100_000,
                ..Default::default()
            })
            .pruning(100_000, 1e-4)
            .build()
            .unwrap()
    };
    // Chunks wider than `Spot::BATCH_RUN` (256), so every batch call
    // splits into several runs — the only place run overlap can engage.
    let pts = stream(900, dims, 13);
    let chunk = 450;
    let mut reference = make();
    let want: Vec<Verdict> = pts.iter().map(|p| reference.process(p).unwrap()).collect();

    for (label, exec_helpers) in [("overlap serial", 0usize), ("overlap fan-out", 3)] {
        let mut spot = make();
        let mut got = Vec::new();
        for c in pts.chunks(chunk) {
            if exec_helpers == 0 {
                got.extend(spot.process_batch(c).unwrap());
            } else {
                got.extend(spot.process_batch_with(c, &FanOut(exec_helpers)).unwrap());
            }
        }
        assert_same_verdicts(&want, &got, label);
        assert_eq!(spot.stats(), reference.stats(), "{label}: stats");
        assert_eq!(
            spot.footprint(),
            reference.footprint(),
            "{label}: footprint"
        );
        assert!(
            spot.stats().overlapped_runs > 0,
            "{label}: run overlap never engaged ({:?})",
            spot.stats()
        );
        assert_eq!(
            spot.stats().batch_runs,
            spot.stats().overlapped_runs + pts.chunks(chunk).len() as u64,
            "{label}: every non-final run of each batch call must overlap"
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
    let train: Vec<DataPoint> = (0..300)
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
        .collect();
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
    check_all_strategies(make, &pts, 73, 3);
}

#[test]
fn checkpoint_capture_is_executor_invariant_and_resume_is_bit_identical() {
    // Capturing a checkpoint through any executor (serial, fan-out
    // threads, pool workers) must produce byte-identical JSON — each
    // store's column encoding is one claim unit, and capture is read-only
    // per store. Resuming from it must then continue bit-identically to
    // the uninterrupted detector on every execution strategy.
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
    let serial_json = serde_json::to_string(&first_half.checkpoint()).unwrap();
    let fanout_json = serde_json::to_string(&first_half.checkpoint_with(&FanOut(3))).unwrap();
    assert_eq!(serial_json, fanout_json, "capture is executor-invariant");
    {
        let mut pooled = first_half;
        pooled.set_parallel_workers(Some(2));
        let pool_json = serde_json::to_string(&pooled.checkpoint()).unwrap();
        assert_eq!(serial_json, pool_json, "pool capture matches serial");
        first_half = pooled;
    }

    // Resume and continue: one-by-one, chunked batches, and pooled
    // batches all match the uninterrupted run.
    drop(first_half); // the "crash"
    let resume = || spot::restore_from_json(&serial_json).unwrap();
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
            got.extend(r.process_batch_with(c, &FanOut(3)).unwrap());
        }
        assert_same_verdicts(&want, &got, "resumed fan-out batches");
        assert_eq!(r.stats(), uninterrupted.stats());
        assert_eq!(r.footprint(), uninterrupted.footprint());
    }
    {
        let mut r = resume();
        r.set_parallel_workers(Some(2));
        let mut got = prefix.clone();
        for c in pts[210..].chunks(47) {
            got.extend(r.process_batch(c).unwrap());
        }
        assert_same_verdicts(&want, &got, "resumed pooled batches");
        assert_eq!(r.stats(), uninterrupted.stats());
        assert_eq!(r.footprint(), uninterrupted.footprint());
    }
}

#[test]
fn shared_checkpoint_never_stalls_concurrent_producers() {
    // SharedSpot::checkpoint must complete while producers keep the
    // detector busy — blocked producers claim capture units (the job-board
    // protocol) instead of convoying — and every checkpoint taken
    // mid-traffic must be a valid, restorable prefix state.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut spot = build_spot(37, 4, 95, 75);
    spot.learn(&stream(250, 4, 5)).unwrap();
    let shared = SharedSpot::new(spot);
    let base_processed = shared.stats().processed;

    let pts = Arc::new(stream(1800, 4, 21));
    let stop = Arc::new(AtomicBool::new(false));
    // Producers and checkpointer leave the gate together: the stream is
    // short enough that producers released first could be done before the
    // checkpointer is first scheduled.
    let gate = std::sync::Barrier::new(4);
    let checkpoints = std::thread::scope(|scope| {
        let mut producers = Vec::new();
        for t in 0..3usize {
            let shared = shared.clone();
            let pts = Arc::clone(&pts);
            let gate = &gate;
            producers.push(scope.spawn(move || {
                gate.wait();
                for chunk in pts[t * 600..(t + 1) * 600].chunks(60) {
                    shared.process_batch(chunk).unwrap();
                }
            }));
        }
        let checkpointer = {
            let shared = shared.clone();
            let stop = Arc::clone(&stop);
            let gate = &gate;
            scope.spawn(move || {
                let mut taken = Vec::new();
                gate.wait();
                loop {
                    // Render outside the lock, as a real persister would.
                    taken.push(serde_json::to_string(&shared.checkpoint()).unwrap());
                    if stop.load(Ordering::Relaxed) {
                        break taken;
                    }
                }
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        checkpointer.join().unwrap()
    });

    assert_eq!(shared.stats().processed, base_processed + 1800);
    assert!(
        !checkpoints.is_empty(),
        "checkpointer made progress under load"
    );
    // Every mid-traffic checkpoint restores to a consistent prefix state,
    // and a restored detector accepts further traffic.
    for json in [checkpoints.first().unwrap(), checkpoints.last().unwrap()] {
        let mut restored = spot::restore_from_json(json).unwrap();
        let processed = restored.stats().processed;
        assert!(processed >= base_processed && processed <= base_processed + 1800);
        restored.process(&pts[0]).unwrap();
    }
    // A quiescent checkpoint equals the detector's own serial capture.
    let quiescent = serde_json::to_string(&shared.checkpoint()).unwrap();
    let direct = shared.with(|s| serde_json::to_string(&s.checkpoint()).unwrap());
    assert_eq!(quiescent, direct);
}
