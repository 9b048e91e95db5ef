//! Drain/eviction races: `drain_fully` against a producer that never
//! stops, eviction under a producer blocked in `ingest`, and `pump`
//! sweeping while tenants vanish mid-pass.

use spot::{SpotBuilder, SpotConfig};
use spot_runtime::{FleetConfig, SpotFleet};
use spot_types::{DataPoint, DomainBounds, SpotError, TenantId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
