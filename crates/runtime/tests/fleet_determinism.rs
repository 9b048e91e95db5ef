//! Fleet-runtime acceptance suite.
//!
//! Pins the contract of `SpotFleet`:
//!
//! * **Tenant determinism** — for each tenant, verdicts + stats +
//!   footprint through the fleet (batched, queued, and with concurrent
//!   co-tenant ingest) are bit-identical to a standalone `Spot` with the
//!   same configuration and input.
//! * **Off-lock monitoring** — `SpotFleet::stats()`/`footprint()` complete
//!   while a tenant's detector lock is held.
//! * **Durability** — `FleetCheckpoint` round-trips bit-exactly per
//!   tenant through its binary container; unknown tenants/versions are
//!   typed errors.

use proptest::prelude::*;
use spot::{EvolutionConfig, Spot, SpotBuilder, SpotConfig, Verdict};
use spot_runtime::{FleetCheckpoint, FleetConfig, SpotFleet, TenantId, FLEET_CHECKPOINT_VERSION};
use spot_types::{DataPoint, DomainBounds, SpotError, StateWriter};

fn tenant_config(seed: u64, dims: usize) -> SpotConfig {
    SpotBuilder::new(DomainBounds::unit(dims))
        .seed(seed)
        .fs_max_dimension(2)
        .evolution(EvolutionConfig {
            period: 70,
            ..Default::default()
        })
        .pruning(55, 1e-4)
        .build_config()
        .unwrap()
}

fn training(n: usize, dims: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            DataPoint::new(
                (0..dims)
                    .map(|d| {
                        let x = (i as u64)
                            .wrapping_mul(d as u64 + 5)
                            .wrapping_add(salt.wrapping_mul(11))
                            % 19;
                        0.35 + (x as f64 / 19.0) * 0.3
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Stream with occasional spikes so outliers, OS growth and drift signals
/// actually occur.
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
            if i % 11 == 4 {
                v[i % dims] = if (i / 11) % 2 == 0 { 0.97 } else { 0.02 };
            }
            DataPoint::new(v)
        })
        .collect()
}

fn assert_same_verdicts(want: &[Verdict], got: &[Verdict], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: length");
    for (a, b) in want.iter().zip(got) {
        assert!(a.bitwise_eq(b), "{label}: tick {}: {a:?} vs {b:?}", a.tick);
    }
}

/// Standalone reference: the exact verdict/stat/footprint sequence a
/// tenant must reproduce through the fleet.
fn standalone_reference(seed: u64, dims: usize, train: &[DataPoint], pts: &[DataPoint]) -> Spot {
    let mut spot = Spot::new(tenant_config(seed, dims)).unwrap();
    spot.learn(train).unwrap();
    let _: Vec<Verdict> = pts.iter().map(|p| spot.process(p).unwrap()).collect();
    spot
}

fn standalone_verdicts(
    seed: u64,
    dims: usize,
    train: &[DataPoint],
    pts: &[DataPoint],
) -> (Vec<Verdict>, Spot) {
    let mut spot = Spot::new(tenant_config(seed, dims)).unwrap();
    spot.learn(train).unwrap();
    let verdicts = pts.iter().map(|p| spot.process(p).unwrap()).collect();
    (verdicts, spot)
}

#[test]
fn queued_ingestion_matches_standalone() {
    let dims = 4;
    let train = training(180, dims, 2);
    let pts = stream(300, dims, 8);
    let (want, _) = standalone_verdicts(23, dims, &train, &pts);

    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 64,
        micro_batch: 48,
    });
    let id = TenantId::new("queued").unwrap();
    fleet.register(id.clone(), tenant_config(23, dims)).unwrap();
    fleet.learn(&id, &train).unwrap();

    // Producer enqueues (blocking on backpressure), a consumer thread
    // drains micro-batches; arrival order must be preserved end to end.
    let got: Vec<Verdict> = std::thread::scope(|scope| {
        let producer_fleet = fleet.clone();
        let producer_id = id.clone();
        let producer_pts = &pts;
        let producer = scope.spawn(move || {
            for p in producer_pts {
                producer_fleet.ingest(&producer_id, p.clone()).unwrap();
            }
        });
        let mut got = Vec::new();
        while got.len() < pts.len() {
            let batch = fleet.drain(&id).unwrap();
            if batch.is_empty() {
                std::thread::yield_now();
            } else {
                assert!(batch.len() <= 48, "drain respects the micro-batch cap");
                got.extend(batch);
            }
        }
        producer.join().unwrap();
        got
    });
    assert_same_verdicts(&want, &got, "queued ingestion");
    assert_eq!(fleet.queue_len(&id).unwrap(), 0);
    assert_eq!(fleet.stats().queued, 0);
}

#[test]
fn bounded_queue_enforces_backpressure() {
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 8,
        micro_batch: 4,
    });
    let id = TenantId::new("slow").unwrap();
    fleet.register(id.clone(), tenant_config(1, 3)).unwrap();
    fleet.learn(&id, &training(120, 3, 1)).unwrap();

    // Fill to capacity without a consumer: the queue accepts exactly
    // `queue_capacity` points, then reports Full.
    let p = DataPoint::new(vec![0.4, 0.4, 0.4]);
    for i in 0..8 {
        assert!(fleet.try_ingest(&id, p.clone()).unwrap(), "slot {i}");
    }
    assert!(
        !fleet.try_ingest(&id, p.clone()).unwrap(),
        "9th must be Full"
    );
    assert_eq!(fleet.queue_len(&id).unwrap(), 8);
    // Draining frees capacity; occupancy never exceeds the bound.
    let verdicts = fleet.drain(&id).unwrap();
    assert_eq!(verdicts.len(), 4, "one micro-batch");
    assert_eq!(fleet.queue_len(&id).unwrap(), 4);
    assert!(fleet.try_ingest(&id, p.clone()).unwrap());
    let rest = fleet.drain_fully(&id).unwrap();
    assert_eq!(rest.len(), 5);
    assert_eq!(fleet.queue_len(&id).unwrap(), 0);
}

#[test]
fn concurrent_drains_of_one_tenant_preserve_arrival_order() {
    // Two drainer threads race on the same tenant. The per-tenant drain
    // guard is held through processing, so micro-batches must commit in
    // pop order — the union of both drainers' verdicts, ordered by tick,
    // must equal the standalone reference exactly.
    let dims = 4;
    let train = training(160, dims, 5);
    let pts = stream(400, dims, 6);
    let (want, _) = standalone_verdicts(29, dims, &train, &pts);

    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 128,
        micro_batch: 32,
    });
    let id = TenantId::new("raced").unwrap();
    fleet.register(id.clone(), tenant_config(29, dims)).unwrap();
    fleet.learn(&id, &train).unwrap();

    let mut got: Vec<Verdict> = std::thread::scope(|scope| {
        let producer_fleet = fleet.clone();
        let producer_id = id.clone();
        let producer_pts = &pts;
        scope.spawn(move || {
            for p in producer_pts {
                producer_fleet.ingest(&producer_id, p.clone()).unwrap();
            }
        });
        let drainers: Vec<_> = (0..2)
            .map(|_| {
                let fleet = fleet.clone();
                let id = id.clone();
                let total = pts.len();
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    // Drain until the whole stream is accounted for; the
                    // co-drainer may own the rest.
                    while fleet.tenant_stats(&id).unwrap().processed < total as u64 {
                        let batch = fleet.drain(&id).unwrap();
                        if batch.is_empty() {
                            std::thread::yield_now();
                        } else {
                            mine.extend(batch);
                        }
                    }
                    mine
                })
            })
            .collect();
        drainers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    got.sort_by_key(|v| v.tick);
    assert_same_verdicts(&want, &got, "raced drains");
}

#[test]
fn evict_unblocks_a_producer_stuck_on_a_full_queue() {
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 4,
        micro_batch: 4,
    });
    let id = TenantId::new("full").unwrap();
    fleet.register(id.clone(), tenant_config(3, 3)).unwrap();
    let p = DataPoint::new(vec![0.3, 0.3, 0.3]);
    for _ in 0..4 {
        assert!(fleet.try_ingest(&id, p.clone()).unwrap());
    }
    std::thread::scope(|scope| {
        let blocked_fleet = fleet.clone();
        let blocked_id = id.clone();
        let point = p.clone();
        let producer = scope.spawn(move || blocked_fleet.ingest(&blocked_id, point));
        // Give the producer time to block on the full queue, then evict:
        // the dropped receiver must fail its pending send. Without the
        // disconnect this join would deadlock and the test would hang.
        std::thread::sleep(std::time::Duration::from_millis(50));
        fleet.evict(&id).unwrap();
        assert_eq!(
            producer.join().unwrap().unwrap_err(),
            SpotError::UnknownTenant("full".to_string())
        );
    });
    // Draining an evicted-but-still-held entry is a no-op, not a panic.
    assert!(!fleet.contains(&id));
}

#[test]
fn concurrent_co_tenants_do_not_perturb_each_other() {
    // Every tenant ingests its own stream from its own thread, all
    // through one fleet; each must match its standalone reference
    // bit-for-bit.
    let dims = 4;
    let tenants: Vec<(TenantId, u64)> = (0..4u64)
        .map(|t| (TenantId::new(format!("t{t}")).unwrap(), 31 + t))
        .collect();
    let train = training(160, dims, 4);

    let fleet = SpotFleet::new(FleetConfig::default());
    for (id, seed) in &tenants {
        fleet
            .register(id.clone(), tenant_config(*seed, dims))
            .unwrap();
        fleet.learn(id, &train).unwrap();
    }

    std::thread::scope(|scope| {
        for (id, seed) in &tenants {
            let fleet = fleet.clone();
            let train = &train;
            scope.spawn(move || {
                let pts = stream(240, dims, *seed);
                let mut got = Vec::new();
                for chunk in pts.chunks(37) {
                    got.extend(fleet.process_batch(id, chunk).unwrap());
                }
                let (want, reference) = standalone_verdicts(*seed, dims, train, &pts);
                assert_same_verdicts(&want, &got, &format!("tenant {id}"));
                assert_eq!(fleet.tenant_stats(id).unwrap(), *reference.stats());
                assert_eq!(fleet.tenant_footprint(id).unwrap(), reference.footprint());
            });
        }
    });
    // Learning replays do not count as detection-stage `processed`.
    assert_eq!(fleet.stats().processed, 4 * 240);
}

#[test]
fn fleet_stats_never_take_a_detector_lock() {
    let fleet = SpotFleet::new(FleetConfig::default());
    let a = TenantId::new("a").unwrap();
    let b = TenantId::new("b").unwrap();
    fleet.register(a.clone(), tenant_config(1, 3)).unwrap();
    fleet.register(b.clone(), tenant_config(2, 3)).unwrap();
    fleet.learn(&a, &training(120, 3, 1)).unwrap();
    for p in stream(40, 3, 2) {
        fleet.process(&a, &p).unwrap();
    }
    // Hold tenant a's detector lock; stats()/footprint() must still
    // complete (they read seqlocks and atomics only — if they touched the
    // lock this would deadlock and the test would hang).
    let (stats, footprint) = fleet
        .with_tenant(&a, |_locked| (fleet.stats(), fleet.footprint()))
        .unwrap();
    assert_eq!(stats.tenants, 2);
    assert_eq!(stats.processed, 40);
    assert_eq!(footprint.tenants, 2);
    assert!(footprint.projected_cells > 0);
}

#[test]
fn registry_errors_are_typed() {
    let fleet = SpotFleet::new(FleetConfig::default());
    let id = TenantId::new("dup").unwrap();
    fleet.register(id.clone(), tenant_config(1, 3)).unwrap();
    assert_eq!(
        fleet.register(id.clone(), tenant_config(1, 3)).unwrap_err(),
        SpotError::DuplicateTenant("dup".to_string())
    );
    let ghost = TenantId::new("ghost").unwrap();
    assert_eq!(
        fleet
            .process(&ghost, &DataPoint::new(vec![0.5; 3]))
            .unwrap_err(),
        SpotError::UnknownTenant("ghost".to_string())
    );
    assert_eq!(
        fleet.evict(&ghost).unwrap_err(),
        SpotError::UnknownTenant("ghost".to_string())
    );
    assert!(fleet.evict(&id).is_ok());
    assert!(fleet.is_empty());
}

#[test]
fn fleet_checkpoint_roundtrips_bit_exactly_per_tenant() {
    let dims = 4;
    let train = training(170, dims, 6);
    let tenants: Vec<(TenantId, u64)> = (0..3u64)
        .map(|t| (TenantId::new(format!("cp{t}")).unwrap(), 41 + t))
        .collect();
    let head: Vec<Vec<DataPoint>> = tenants
        .iter()
        .map(|(_, seed)| stream(150, dims, *seed))
        .collect();
    let tail: Vec<Vec<DataPoint>> = tenants
        .iter()
        .map(|(_, seed)| stream(130, dims, seed ^ 0xF00))
        .collect();

    // Capture a fleet mid-stream…
    let fleet = SpotFleet::new(FleetConfig::default());
    for ((id, seed), pts) in tenants.iter().zip(&head) {
        fleet
            .register(id.clone(), tenant_config(*seed, dims))
            .unwrap();
        fleet.learn(id, &train).unwrap();
        fleet.process_batch(id, pts).unwrap();
    }
    let bytes = fleet.checkpoint().to_bytes();

    // …restore through the container into a new fleet, continue each
    // tenant, and compare against an uninterrupted standalone detector.
    let restored_cp = FleetCheckpoint::from_bytes(&bytes).unwrap();
    assert_eq!(restored_cp.len(), 3);
    let restored = SpotFleet::from_checkpoint(&restored_cp, FleetConfig::default()).unwrap();
    for (i, (id, seed)) in tenants.iter().enumerate() {
        let mut got = Vec::new();
        for chunk in tail[i].chunks(41) {
            got.extend(restored.process_batch(id, chunk).unwrap());
        }
        let mut uninterrupted = Spot::new(tenant_config(*seed, dims)).unwrap();
        uninterrupted.learn(&train).unwrap();
        for p in &head[i] {
            uninterrupted.process(p).unwrap();
        }
        let want: Vec<Verdict> = tail[i]
            .iter()
            .map(|p| uninterrupted.process(p).unwrap())
            .collect();
        assert_same_verdicts(&want, &got, &format!("restored tenant {id}"));
        assert_eq!(restored.tenant_stats(id).unwrap(), *uninterrupted.stats());
        assert_eq!(
            restored.tenant_footprint(id).unwrap(),
            uninterrupted.footprint()
        );
    }

    // Capture → restore → capture is a fixed point (on a fresh restore;
    // `restored` has advanced past the capture point above).
    let refreshed = SpotFleet::from_checkpoint(
        &FleetCheckpoint::from_bytes(&bytes).unwrap(),
        FleetConfig::default(),
    )
    .unwrap();
    assert_eq!(refreshed.checkpoint().to_bytes(), bytes);
}

#[test]
fn single_tenant_restore_replaces_in_place() {
    let dims = 3;
    let train = training(140, dims, 2);
    let fleet = SpotFleet::new(FleetConfig::default());
    let id = TenantId::new("solo").unwrap();
    fleet.register(id.clone(), tenant_config(7, dims)).unwrap();
    fleet.learn(&id, &train).unwrap();
    let pts = stream(120, dims, 3);
    fleet.process_batch(&id, &pts[..60]).unwrap();
    let cp = fleet.checkpoint();

    // Mutate past the capture point, then roll the tenant back.
    fleet.process_batch(&id, &pts[60..]).unwrap();
    fleet.restore_tenant(&cp, &id).unwrap();
    let reference = standalone_reference(7, dims, &train, &pts[..60]);
    assert_eq!(fleet.tenant_stats(&id).unwrap(), *reference.stats());

    // Restoring an id the checkpoint does not hold is a typed error.
    let ghost = TenantId::new("ghost").unwrap();
    assert_eq!(
        fleet.restore_tenant(&cp, &ghost).unwrap_err(),
        SpotError::UnknownTenant("ghost".to_string())
    );
}

#[test]
fn checkpoint_versioning_errors_are_typed() {
    // An envelope of `(id, tenant container)` entries; `None` leaves the
    // container out.
    let envelope = |version: u32, tenants: &[(&str, Option<&[u8]>)]| {
        let mut w = StateWriter::container(version);
        w.nested_list("tenants", tenants, |w, (id, cp)| {
            w.bytes("id", id.as_bytes());
            if let Some(cp) = cp {
                w.bytes("checkpoint", cp);
            }
        });
        w.nested_list("wal", std::iter::empty::<()>(), |_, _| {});
        w.seal()
    };
    let current = FLEET_CHECKPOINT_VERSION;
    assert!(matches!(
        FleetCheckpoint::from_bytes(b"not a container").unwrap_err(),
        SpotError::SnapshotCorrupt(_)
    ));
    // A sealed envelope without its `wal` list.
    let mut partial = StateWriter::container(current);
    partial.nested_list("tenants", std::iter::empty::<()>(), |_, _| {});
    assert!(matches!(
        FleetCheckpoint::from_bytes(&partial.seal()).unwrap_err(),
        SpotError::SnapshotCorrupt(_)
    ));
    assert_eq!(
        FleetCheckpoint::from_bytes(&envelope(9, &[])).unwrap_err(),
        SpotError::UnsupportedSnapshotVersion(9)
    );
    // A valid envelope with a broken tenant payload is corrupt, not a panic.
    for cp in [None, Some(&b"SPOTBIN1 but no more"[..])] {
        assert!(matches!(
            FleetCheckpoint::from_bytes(&envelope(current, &[("x", cp)])).unwrap_err(),
            SpotError::SnapshotCorrupt(_)
        ));
    }
    // Duplicate ids in the payload are rejected.
    let fleet = SpotFleet::new(FleetConfig::default());
    let id = TenantId::new("d").unwrap();
    fleet.register(id.clone(), tenant_config(1, 3)).unwrap();
    fleet.learn(&id, &training(100, 3, 1)).unwrap();
    let cp = fleet.checkpoint_tenant(&id).unwrap();
    let entry = ("d", Some(cp.as_bytes()));
    let single = envelope(current, &[entry]);
    assert_eq!(FleetCheckpoint::from_bytes(&single).unwrap().len(), 1);
    assert!(matches!(
        FleetCheckpoint::from_bytes(&envelope(current, &[entry, entry])).unwrap_err(),
        SpotError::SnapshotCorrupt(_)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance bar: any tenant mix, any chunking, concurrent
    /// co-tenant ingest — every tenant is bit-identical to its standalone
    /// reference.
    #[test]
    fn fleet_tenants_are_bit_identical_to_standalone(
        seeds in proptest::collection::vec(0u64..500, 2..5),
        n in 90usize..220,
        chunk in 17usize..71,
    ) {
        let dims = 4;
        let train = training(150, dims, 13);
        let fleet = SpotFleet::new(FleetConfig::default());
        let ids: Vec<TenantId> = seeds
            .iter()
            .enumerate()
            .map(|(i, _)| TenantId::new(format!("p{i}")).unwrap())
            .collect();
        for (id, seed) in ids.iter().zip(&seeds) {
            fleet.register(id.clone(), tenant_config(*seed, dims)).unwrap();
            fleet.learn(id, &train).unwrap();
        }
        std::thread::scope(|scope| {
            for (id, seed) in ids.iter().zip(&seeds) {
                let fleet = fleet.clone();
                let train = &train;
                scope.spawn(move || {
                    let pts = stream(n, dims, *seed);
                    let mut got = Vec::new();
                    for c in pts.chunks(chunk) {
                        got.extend(fleet.process_batch(id, c).unwrap());
                    }
                    let (want, reference) = standalone_verdicts(*seed, dims, train, &pts);
                    assert_same_verdicts(&want, &got, &format!("tenant {id}"));
                    assert_eq!(fleet.tenant_stats(id).unwrap(), *reference.stats());
                    assert_eq!(
                        fleet.tenant_footprint(id).unwrap(),
                        reference.footprint()
                    );
                });
            }
        });
    }
}
