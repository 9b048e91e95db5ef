//! Multi-tenant fleet walkthrough: the full tenant lifecycle of a fleet
//! of independent detectors.
//!
//! Registers a handful of sensor tenants with different configurations,
//! learns each from its own history, streams points through the bounded
//! per-tenant queues, reads fleet-wide stats off-lock, checkpoints the
//! whole fleet to JSON, and proves a restored tenant continues the stream
//! bit-identically.
//!
//! Run with `cargo run --release --example tenant_fleet`.

use spot::{SpotBuilder, SpotConfig};
use spot_runtime::{FleetCheckpoint, FleetConfig, SpotFleet, TenantId};
use spot_types::{DataPoint, DomainBounds};

const DIMS: usize = 6;

fn tenant_config(seed: u64) -> SpotConfig {
    SpotBuilder::new(DomainBounds::unit(DIMS))
        .fs_max_dimension(2)
        .seed(seed)
        .build_config()
        .expect("valid config")
}

/// Per-tenant synthetic sensor stream: a stable regime with occasional
/// projected spikes, salted per tenant so every tenant sees its own data.
fn sensor_stream(n: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            let mut v: Vec<f64> = (0..DIMS)
                .map(|d| {
                    let x = (i as u64)
                        .wrapping_mul(d as u64 + 3)
                        .wrapping_add(salt.wrapping_mul(13))
                        % 29;
                    0.25 + (x as f64 / 29.0) * 0.4
                })
                .collect();
            if i % 41 == 7 {
                v[(i + salt as usize) % DIMS] = 0.97;
            }
            DataPoint::new(v)
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One fleet; each tenant's detector runs on whichever thread
    // processes or drains it.
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 512,
        micro_batch: 256,
    });

    // 1. Register + learn: each tenant is an independent detector.
    let tenants: Vec<TenantId> = (0..4)
        .map(|t| TenantId::new(format!("sensor-{t}")).expect("valid id"))
        .collect();
    for (t, id) in tenants.iter().enumerate() {
        fleet.register(id.clone(), tenant_config(7 + t as u64))?;
        let report = fleet.learn(id, &sensor_stream(400, t as u64))?;
        println!(
            "{id}: learned (|CS| = {}, {} MOGA evaluations)",
            report.cs.len(),
            report.moga_evaluations
        );
    }
    println!("fleet: {} tenants", fleet.len());

    // 2. Ingest through the bounded queues and drain in micro-batches.
    for (t, id) in tenants.iter().enumerate() {
        for p in sensor_stream(600, 100 + t as u64) {
            fleet.ingest(id, p)?;
            if fleet.queue_len(id)? >= 256 {
                fleet.drain(id)?;
            }
        }
    }
    let mut outliers = 0usize;
    // `pump` reports per-tenant results: a faulted tenant surfaces as its
    // own `Err` entry without aborting the sweep (none here — unwrap).
    for (id, verdicts) in fleet.pump() {
        let verdicts = verdicts?;
        let flagged = verdicts.iter().filter(|v| v.outlier).count();
        outliers += flagged;
        println!(
            "{id}: drained {} queued points ({flagged} outliers)",
            verdicts.len()
        );
    }
    for id in &tenants {
        outliers += fleet.drain_fully(id)?.iter().filter(|v| v.outlier).count();
    }

    // 3. Off-lock monitoring: aggregated counters without touching any
    // tenant's detector lock.
    let stats = fleet.stats();
    let footprint = fleet.footprint();
    println!(
        "fleet stats: processed={} outliers={} ({outliers} in the final drains) queued={} | {} projected cells, {:.1} KiB",
        stats.processed,
        stats.outliers,
        stats.queued,
        footprint.projected_cells,
        footprint.approx_bytes as f64 / 1024.0
    );

    // 4. Checkpoint the whole fleet, restore it into a new fleet, and
    // verify one tenant continues bit-identically.
    let bytes = fleet.checkpoint().to_bytes();
    println!("fleet checkpoint: {} bytes (binary container)", bytes.len());
    let restored = SpotFleet::from_checkpoint(
        &FleetCheckpoint::from_bytes(&bytes)?,
        FleetConfig::default(),
    )?;

    let probe = sensor_stream(200, 999);
    let id = &tenants[0];
    let want = fleet.process_batch(id, &probe)?;
    let got = restored.process_batch(id, &probe)?;
    assert_eq!(want.len(), got.len());
    for (a, b) in want.iter().zip(&got) {
        assert!(
            a.bitwise_eq(b),
            "restored tenant diverged at tick {}",
            a.tick
        );
    }
    println!(
        "restore OK: {} post-restore verdicts bit-identical",
        got.len()
    );

    // 5. Evict: the fleet keeps serving the survivors.
    fleet.evict(&tenants[3])?;
    println!("evicted {}; {} tenants remain", tenants[3], fleet.len());
    Ok(())
}
