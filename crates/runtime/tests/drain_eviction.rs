//! Drain/eviction races and the queue's lifecycle: `drain_fully` against
//! a producer that never stops, eviction under a producer blocked in
//! `ingest`, `pump` sweeping while tenants vanish mid-pass, and what a
//! revive, a restore, an eviction or a durable checkpoint does to a
//! producer waiting for room in a full queue; and `drain_with`'s delivery
//! order when two threads drain one tenant.

use spot::{Spot, SpotBuilder, SpotConfig, Verdict};
use spot_runtime::{CheckpointStore, FleetConfig, IngestOutcome, SpotFleet, WalTuning};
use spot_stream::WalSource;
use spot_types::{DataPoint, DomainBounds, Result, SpotError, TenantId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const DIMS: usize = 3;

fn tid(name: &str) -> TenantId {
    TenantId::new(name).unwrap()
}

fn tenant_config(seed: u64) -> SpotConfig {
    SpotBuilder::new(DomainBounds::unit(DIMS))
        .seed(seed)
        .build_config()
        .unwrap()
}

fn training(n: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            DataPoint::new(
                (0..DIMS)
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

fn point(i: u64) -> DataPoint {
    DataPoint::new(
        (0..DIMS)
            .map(|d| 0.2 + ((i.wrapping_mul(d as u64 + 3) % 23) as f64 / 23.0) * 0.5)
            .collect(),
    )
}

/// The old drain-until-empty contract livelocked when a producer kept the
/// queue full. `drain_fully` now snapshots the queued count once: it must
/// return in bounded work even though the producer never stops pushing.
#[test]
fn drain_fully_terminates_against_racing_producer() {
    const CAPACITY: usize = 64;
    const MICRO: usize = 8;
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: CAPACITY,
        micro_batch: MICRO,
    });
    let id = tid("racer");
    fleet.register(id.clone(), tenant_config(7)).unwrap();
    fleet.learn(&id, &training(64, 7)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let fleet = fleet.clone();
        let id = id.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                fleet.ingest(&id, point(i)).unwrap();
                i += 1;
            }
        })
    };

    // Wait until the producer has the queue pinned at capacity.
    let deadline = Instant::now() + Duration::from_secs(5);
    while fleet.queue_len(&id).unwrap() < CAPACITY {
        assert!(Instant::now() < deadline, "producer never filled the queue");
        std::thread::yield_now();
    }

    // One call, against a producer that refills every slot the drain
    // frees. Bounded: at most the snapshot plus one micro-batch of
    // overshoot — never "until the queue is empty".
    let drained = fleet.drain_fully(&id).unwrap();
    assert!(
        drained.len() <= CAPACITY + MICRO,
        "drain_fully drained {} points — it chased the producer instead of \
         honoring its snapshot",
        drained.len()
    );
    assert!(!drained.is_empty(), "a full queue must yield verdicts");

    // Unblock and retire the producer (it may be parked in a full send;
    // keep draining until it observes the stop flag).
    stop.store(true, Ordering::Relaxed);
    while !producer.is_finished() {
        let _ = fleet.drain(&id);
        std::thread::yield_now();
    }
    producer.join().unwrap();
}

/// Evicting a tenant must fail a producer blocked inside `ingest` on the
/// full queue with `UnknownTenant` — not strand it forever.
#[test]
fn evict_unblocks_producer_stuck_in_ingest() {
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 4,
        micro_batch: 4,
    });
    let id = tid("doomed");
    fleet.register(id.clone(), tenant_config(11)).unwrap();
    fleet.learn(&id, &training(64, 11)).unwrap();

    let producer = {
        let fleet = fleet.clone();
        let id = id.clone();
        std::thread::spawn(move || {
            // Points 0..4 fill the queue; point 4 blocks (Block policy,
            // nothing draining) until the eviction cuts the channel.
            for i in 0..8 {
                fleet.ingest(&id, point(i))?;
            }
            Ok(())
        })
    };

    // Wait for the producer to be wedged: queue full, thread alive.
    let deadline = Instant::now() + Duration::from_secs(5);
    while fleet.queue_len(&id).unwrap() < 4 {
        assert!(Instant::now() < deadline, "producer never filled the queue");
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        !producer.is_finished(),
        "producer should be blocked in ingest"
    );

    fleet.evict(&id).unwrap();
    let outcome = producer.join().unwrap();
    match outcome {
        Err(SpotError::UnknownTenant(name)) => assert_eq!(name, "doomed"),
        other => panic!("blocked producer must unblock with UnknownTenant, got {other:?}"),
    }
}

/// `pump` lists tenants, then drains each: a tenant evicted between the
/// listing and its drain must be skipped — never surfaced as an error,
/// and never at the expense of co-tenants. The window is a race, so the
/// test runs it many times and asserts the invariant holds on every
/// interleaving the scheduler produces.
#[test]
fn pump_skips_tenants_evicted_mid_pass() {
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 64,
        micro_batch: 4,
    });
    let stable = tid("stable");
    fleet.register(stable.clone(), tenant_config(3)).unwrap();
    fleet.learn(&stable, &training(64, 3)).unwrap();

    for round in 0..50u64 {
        let victim = tid("victim");
        fleet
            .register(victim.clone(), tenant_config(round))
            .unwrap();
        fleet.learn(&victim, &training(64, round)).unwrap();
        for i in 0..8 {
            fleet.ingest(&victim, point(round * 100 + i)).unwrap();
            fleet.ingest(&stable, point(round * 100 + i)).unwrap();
        }

        let evictor = {
            let fleet = fleet.clone();
            let victim = victim.clone();
            std::thread::spawn(move || {
                // Vary the eviction's landing spot inside the pass.
                for _ in 0..(round % 7) {
                    std::thread::yield_now();
                }
                fleet.evict(&victim).unwrap();
            })
        };

        // Sweep until the stable tenant's backlog is gone. Every entry the
        // pump reports must be healthy: an eviction mid-pass is a skip,
        // not an UnknownTenant error.
        let deadline = Instant::now() + Duration::from_secs(5);
        while fleet.queue_len(&stable).unwrap() > 0 {
            assert!(Instant::now() < deadline, "round {round}: pump stalled");
            for (id, result) in fleet.pump() {
                let verdicts =
                    result.unwrap_or_else(|e| panic!("round {round}: pump surfaced {e} for {id}"));
                assert!(!verdicts.is_empty(), "pump must omit empty drains");
            }
        }
        evictor.join().unwrap();
        assert!(matches!(
            fleet.drain(&victim),
            Err(SpotError::UnknownTenant(_))
        ));
    }

    // The stable co-tenant was drained in full across all rounds.
    assert_eq!(fleet.tenant_stats(&stable).unwrap().processed, 50 * 8);
}

/// Two threads drain one tenant through `drain_with` while a producer
/// ingests: the deliveries never interleave or reorder — each one's ticks
/// continue where the previous delivery's stopped — and their
/// concatenation is bit-identical to a standalone detector's verdicts.
/// The test starts its own drainers, so it races on a single core too.
#[test]
fn drain_with_delivers_in_commit_order_across_drainers() {
    const POINTS: u64 = 3_000;
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 64,
        micro_batch: 8,
    });
    let id = tid("ordered");
    fleet.register(id.clone(), tenant_config(11)).unwrap();
    fleet.learn(&id, &training(64, 11)).unwrap();
    let mut standalone = Spot::new(tenant_config(11)).unwrap();
    standalone.learn(&training(64, 11)).unwrap();
    let want: Vec<_> = (0..POINTS)
        .map(|i| standalone.process(&point(i)).unwrap())
        .collect();

    let delivered = Arc::new(Mutex::new(Vec::new()));
    let producer = {
        let (fleet, id) = (fleet.clone(), id.clone());
        std::thread::spawn(move || {
            for i in 0..POINTS {
                fleet.ingest(&id, point(i)).unwrap();
            }
        })
    };
    let drainers: Vec<_> = (0..2)
        .map(|_| {
            let (fleet, id) = (fleet.clone(), id.clone());
            let delivered = Arc::clone(&delivered);
            std::thread::spawn(move || {
                let deadline = Instant::now() + DEADLINE;
                while (delivered.lock().unwrap().len() as u64) < POINTS {
                    assert!(Instant::now() < deadline, "the drainers stalled");
                    let n = fleet
                        .drain_with(&id, |verdicts| {
                            let mut log = delivered.lock().unwrap();
                            let next = log
                                .last()
                                .map_or(verdicts[0].tick, |v: &Verdict| v.tick + 1);
                            assert_eq!(verdicts[0].tick, next, "a delivery overtook another");
                            assert!(verdicts.windows(2).all(|w| w[1].tick == w[0].tick + 1));
                            log.extend_from_slice(verdicts);
                        })
                        .unwrap();
                    if n == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    join_within(producer, "the producer");
    for drainer in drainers {
        join_within(drainer, "a drainer");
    }

    let got = delivered.lock().unwrap();
    assert_eq!(got.len(), want.len());
    for (a, b) in want.iter().zip(got.iter()) {
        assert!(a.bitwise_eq(b), "diverged at tick {}", a.tick);
    }
}

// ---- the queue's lifecycle under a producer waiting for room ------------

const DEADLINE: Duration = Duration::from_secs(5);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spot-queue-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Joins `handle`, failing the test if it has not finished by the
/// deadline (a bare `join` would hang the suite on a stranded thread).
fn join_within<T>(handle: JoinHandle<T>, what: &str) -> T {
    let deadline = Instant::now() + DEADLINE;
    while !handle.is_finished() {
        assert!(Instant::now() < deadline, "{what} did not return in time");
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.join().unwrap()
}

/// A learned tenant behind a 2-point queue (`Block` policy), with the
/// WAL under `wal` when given.
fn two_slot_fleet(name: &str, wal: Option<&PathBuf>) -> (SpotFleet, TenantId) {
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 2,
        micro_batch: 4,
    });
    let id = tid(name);
    fleet.register(id.clone(), tenant_config(5)).unwrap();
    fleet.learn(&id, &training(64, 5)).unwrap();
    if let Some(root) = wal {
        fleet.enable_wal(root, WalTuning::default()).unwrap();
    }
    (fleet, id)
}

/// Fills the 2-point queue with points 1 and 2, then spawns a producer
/// whose point 3 finds it full, and returns once that producer waits.
fn wedge_producer(fleet: &SpotFleet, id: &TenantId) -> JoinHandle<Result<IngestOutcome>> {
    for i in 1..=2 {
        assert_eq!(fleet.ingest(id, point(i)).unwrap(), IngestOutcome::Enqueued);
    }
    let producer = {
        let fleet = fleet.clone();
        let id = id.clone();
        std::thread::spawn(move || fleet.ingest(&id, point(3)))
    };
    std::thread::sleep(Duration::from_millis(30));
    assert!(
        !producer.is_finished(),
        "the third point should wait for room"
    );
    producer
}

/// Drains until `producer` has returned and the queue is empty; returns
/// the verdicts drained and the producer's outcome.
fn drain_out(
    fleet: &SpotFleet,
    id: &TenantId,
    producer: JoinHandle<Result<IngestOutcome>>,
) -> (usize, Result<IngestOutcome>) {
    let deadline = Instant::now() + DEADLINE;
    let mut drained = 0;
    loop {
        drained += fleet.drain(id).map_or(0, |v| v.len());
        if producer.is_finished() && fleet.queue_len(id).unwrap_or(0) == 0 {
            return (drained, producer.join().unwrap());
        }
        assert!(Instant::now() < deadline, "the producer never returned");
        std::thread::yield_now();
    }
}

/// Without a WAL a revive keeps the backlog in place: the producer that
/// was waiting for room when the detector was swapped lands in the queue
/// the revived detector drains, so every point acknowledged `Enqueued`
/// gets its verdict.
#[test]
fn revive_without_wal_processes_every_enqueued_point() {
    let (fleet, id) = two_slot_fleet("revive-plain", None);
    fleet.checkpoint_tenant(&id).unwrap();
    let base = fleet.tenant_stats(&id).unwrap().processed;
    let producer = wedge_producer(&fleet, &id);

    assert_eq!(fleet.revive_tenant(&id).unwrap(), 2, "carried");
    let (drained, outcome) = drain_out(&fleet, &id, producer);
    assert_eq!(outcome.unwrap(), IngestOutcome::Enqueued);
    assert_eq!(drained, 3, "an acknowledged point was dropped");
    assert_eq!(fleet.tenant_stats(&id).unwrap().processed, base + 3);
}

/// A restore is a fresh registration — the queue restarts empty — but a
/// producer waiting for room in the replaced queue returns into the new
/// one instead of waiting forever.
#[test]
fn restore_releases_a_producer_waiting_for_room() {
    let (fleet, id) = two_slot_fleet("restore", None);
    let producer = wedge_producer(&fleet, &id);

    fleet.restore_tenant(&fleet.checkpoint(), &id).unwrap();
    let outcome = join_within(producer, "a producer waiting across restore_tenant");
    assert_eq!(outcome.unwrap(), IngestOutcome::Enqueued);
    assert_eq!(fleet.queue_len(&id).unwrap(), 1);
    assert_eq!(fleet.drain_fully(&id).unwrap().len(), 1);
}

/// With a WAL a revive replays the log tail instead of keeping the
/// queue: whether the waiting producer's point is logged before the
/// revive (and replayed) or after (and drained), it is processed exactly
/// once, and logged exactly once.
#[test]
fn walled_revive_processes_every_admitted_point_once() {
    let root = temp_dir("revive-walled");
    let (fleet, id) = two_slot_fleet("revive-walled", Some(&root));
    fleet.checkpoint_tenant(&id).unwrap();
    let base = fleet.tenant_stats(&id).unwrap().processed;
    let producer = wedge_producer(&fleet, &id);

    let replayed = fleet.revive_tenant(&id).unwrap();
    let (drained, outcome) = drain_out(&fleet, &id, producer);
    assert_eq!(outcome.unwrap(), IngestOutcome::Enqueued);
    assert_eq!(replayed as usize + drained, 3);
    assert_eq!(fleet.tenant_stats(&id).unwrap().processed, base + 3);
    assert_eq!(WalSource::open(&root, &id).unwrap().len(), 3);
    let _ = std::fs::remove_dir_all(&root);
}

/// A producer waiting for room holds no lock the tenant's lifecycle
/// calls need: a revive, an eviction and a durable checkpoint of that
/// tenant each return promptly, with and without a WAL, and the producer
/// then completes (`UnknownTenant` after the eviction).
#[test]
fn lifecycle_calls_complete_while_a_producer_waits_for_room() {
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Revive,
        Evict,
        CheckpointDurable,
    }
    for walled in [false, true] {
        for call in [Call::Revive, Call::Evict, Call::CheckpointDurable] {
            let what = format!("{call:?} (WAL: {walled})");
            let root = temp_dir(&format!("{call:?}-{walled}"));
            let wal = walled.then(|| root.join("wal"));
            let (fleet, id) = two_slot_fleet("waited-on", wal.as_ref());
            fleet.checkpoint_tenant(&id).unwrap();
            let store = CheckpointStore::open(&root, 4).unwrap();
            let producer = wedge_producer(&fleet, &id);

            let caller = {
                let (fleet, id) = (fleet.clone(), id.clone());
                std::thread::spawn(move || match call {
                    Call::Revive => fleet.revive_tenant(&id).map(drop),
                    Call::Evict => fleet.evict(&id),
                    Call::CheckpointDurable => fleet.checkpoint_durable(&store).map(drop),
                })
            };
            join_within(caller, &what).unwrap_or_else(|e| panic!("{what}: {e}"));
            let (_, outcome) = drain_out(&fleet, &id, producer);
            match call {
                Call::Evict => assert!(
                    matches!(outcome, Err(SpotError::UnknownTenant(_))),
                    "{what}: {outcome:?}"
                ),
                _ => assert_eq!(outcome.unwrap(), IngestOutcome::Enqueued, "{what}"),
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
