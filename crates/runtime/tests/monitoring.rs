//! The fleet's monitoring plane.
//!
//! Each tenant's stats and footprint are a snapshot the fleet publishes
//! after every detector operation it runs. Pinned here:
//!
//! * **Off-lock reads** — `stats`, `tenant_stats`, `footprint` and
//!   `tenant_footprint` return while another thread holds the tenant's
//!   detector, with the last completed operation's values.
//! * **No torn publication** — a panicking operation publishes nothing.
//! * **Monotone, then exact** — reads taken during ingestion never go
//!   backwards, and at quiescence they equal `Spot::stats()` and
//!   `Spot::footprint()` bit for bit.
//!
//! Many callers sharing one tenant's detector are pinned in the crate's
//! `concurrent` unit tests.

use spot::{EvolutionConfig, SpotBuilder, SpotConfig, SpotStats, SynopsisFootprint};
use spot_runtime::{FaultPlan, FleetConfig, SpotFleet, TenantHealth, TenantId};
use spot_types::{DataPoint, DomainBounds, SpotError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

const DIMS: usize = 4;

fn tid(name: &str) -> TenantId {
    TenantId::new(name).unwrap()
}

/// Periodic evolution and pruning both land inside the test streams, so
/// the published footprint shrinks as well as grows.
fn config(seed: u64) -> SpotConfig {
    SpotBuilder::new(DomainBounds::unit(DIMS))
        .seed(seed)
        .evolution(EvolutionConfig {
            period: 90,
            ..Default::default()
        })
        .pruning(70, 1e-4)
        .build_config()
        .unwrap()
}

fn training() -> Vec<DataPoint> {
    (0..200)
        .map(|i| DataPoint::new(vec![0.4 + (i % 10) as f64 * 0.01; DIMS]))
        .collect()
}

fn stream(n: usize) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            DataPoint::new(
                (0..DIMS)
                    .map(|d| ((i * (d + 3) + 7 * d) % 23) as f64 / 23.0)
                    .collect(),
            )
        })
        .collect()
}

fn learned_fleet(ids: &[&str]) -> SpotFleet {
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 64,
        micro_batch: 50,
    });
    for (seed, id) in ids.iter().enumerate() {
        fleet.register(tid(id), config(seed as u64 + 7)).unwrap();
        fleet.learn(&tid(id), &training()).unwrap();
    }
    fleet
}

/// The detector's own counters and footprint, read under its lock.
fn exact(fleet: &SpotFleet, id: &TenantId) -> (SpotStats, SynopsisFootprint) {
    fleet
        .with_tenant(id, |s| (*s.stats(), s.footprint()))
        .unwrap()
}

#[test]
fn monitoring_reads_return_while_a_detector_is_held() {
    let fleet = learned_fleet(&["a", "b"]);
    let (a, b) = (tid("a"), tid("b"));
    fleet.process_batch(&a, &stream(120)).unwrap();
    fleet.process_batch(&b, &stream(40)).unwrap();
    let (want_a, want_fp_a) = exact(&fleet, &a);
    let (want_b, want_fp_b) = exact(&fleet, &b);

    // One thread holds tenant a's detector until the barrier releases it.
    let held = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let holder = {
        let (fleet, a) = (fleet.clone(), a.clone());
        let (held, release) = (Arc::clone(&held), Arc::clone(&release));
        std::thread::spawn(move || {
            fleet
                .with_tenant(&a, |_| {
                    held.wait();
                    release.wait();
                })
                .unwrap()
        })
    };
    held.wait();
    let (tx, rx) = mpsc::channel();
    let reader = {
        let (fleet, a) = (fleet.clone(), a.clone());
        std::thread::spawn(move || {
            let read = (
                fleet.stats(),
                fleet.tenant_stats(&a).unwrap(),
                fleet.footprint(),
                fleet.tenant_footprint(&a).unwrap(),
                fleet.health(&a).unwrap(),
                fleet.health_tag(&a).unwrap(),
            );
            tx.send(read).unwrap();
        })
    };
    let read = rx.recv_timeout(Duration::from_secs(10));
    // Release the holder before asserting, so a failure does not leave it
    // (and a reader queued behind it) blocked.
    release.wait();
    holder.join().unwrap();
    reader.join().unwrap();
    let (stats, tenant_stats, footprint, tenant_footprint, health, health_tag) =
        read.expect("a monitoring read waited for the tenant's detector lock");

    assert_eq!(tenant_stats, want_a);
    assert_eq!(tenant_footprint, want_fp_a);
    assert_eq!(health, TenantHealth::Healthy);
    assert_eq!(health_tag, "healthy");
    assert_eq!(stats.tenants, 2);
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.processed, want_a.processed + want_b.processed);
    assert_eq!(stats.outliers, want_a.outliers + want_b.outliers);
    assert_eq!(footprint.tenants, 2);
    assert_eq!(
        footprint.projected_cells,
        want_fp_a.projected_cells + want_fp_b.projected_cells
    );
    assert_eq!(
        footprint.approx_bytes,
        want_fp_a.approx_bytes + want_fp_b.approx_bytes
    );
}

#[test]
fn a_panicking_operation_publishes_nothing() {
    let fleet = learned_fleet(&["a"]);
    let a = tid("a");
    fleet.process_batch(&a, &stream(40)).unwrap();
    let (want, want_fp) = exact(&fleet, &a);
    assert_eq!(fleet.tenant_stats(&a).unwrap(), want);

    // The panic fires mid-batch, after 17 points changed the detector.
    fleet.arm_faults(FaultPlan::new().panic_at(a.clone(), 17));
    let err = fleet.process_batch(&a, &stream(30)).unwrap_err();
    assert!(matches!(err, SpotError::TenantPoisoned { .. }), "{err:?}");
    assert_eq!(fleet.tenant_stats(&a).unwrap(), want);
    assert_eq!(fleet.tenant_footprint(&a).unwrap(), want_fp);
    assert_eq!(fleet.stats().processed, want.processed);
    match fleet.health(&a).unwrap() {
        TenantHealth::Quarantined(info) => assert_eq!(info.processed, want.processed),
        other => panic!("expected quarantine, got {other:?}"),
    }
}

#[test]
fn monitoring_reads_are_monotone_during_ingestion_and_exact_at_quiescence() {
    let fleet = learned_fleet(&["a"]);
    let a = tid("a");
    let trained = fleet.tenant_stats(&a).unwrap().processed;
    let stop = Arc::new(AtomicBool::new(false));
    let reading = Arc::new(AtomicBool::new(false));
    let monitor = {
        let (fleet, a) = (fleet.clone(), a.clone());
        let (stop, reading) = (Arc::clone(&stop), Arc::clone(&reading));
        std::thread::spawn(move || {
            let (mut reads, mut last) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let tenant = fleet.tenant_stats(&a).unwrap();
                let fleet_wide = fleet.stats();
                assert!(tenant.processed >= last, "counters went backwards");
                assert!(fleet_wide.processed >= tenant.processed);
                last = tenant.processed;
                let _ = (fleet.footprint(), fleet.tenant_footprint(&a).unwrap());
                reads += 1;
                reading.store(true, Ordering::Relaxed);
            }
            reads
        })
    };
    // The whole stream can be ingested before the monitor thread is first
    // scheduled: start only once it is reading.
    while !reading.load(Ordering::Relaxed) {
        std::thread::yield_now();
    }
    // Both publishing paths: synchronous batches and queued drains.
    let pts = stream(400);
    for chunk in pts[..200].chunks(50) {
        fleet.process_batch(&a, chunk).unwrap();
    }
    for p in &pts[200..] {
        fleet.ingest(&a, p.clone()).unwrap();
        if fleet.queue_len(&a).unwrap() == 50 {
            fleet.drain(&a).unwrap();
        }
    }
    fleet.drain_fully(&a).unwrap();
    stop.store(true, Ordering::Relaxed);
    assert!(monitor.join().unwrap() > 0);

    let (want, want_fp) = exact(&fleet, &a);
    assert_eq!(want.processed, trained + 400);
    assert_eq!(fleet.tenant_stats(&a).unwrap(), want);
    assert_eq!(fleet.tenant_footprint(&a).unwrap(), want_fp);
    let footprint = fleet.footprint();
    assert_eq!(footprint.projected_cells, want_fp.projected_cells);
    assert_eq!(footprint.approx_bytes, want_fp.approx_bytes);
}
