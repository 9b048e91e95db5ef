//! Multi-threaded soak: the service plane under concurrent tenants,
//! scripted network faults, and a mid-soak graceful shutdown.
//!
//! The acceptance bar (ISSUE 8):
//!
//! * ≥ 8 concurrent connections across ≥ 4 tenants produce a verdict
//!   stream **bit-identical** to direct `SpotFleet` ingestion — the HTTP
//!   hop adds exactly nothing to the math.
//! * That identity survives injected wire faults (torn request lines,
//!   mid-body disconnects, stalled reads tripping the deadline, accept
//!   storms) and `/drain` calls racing the pump threads, all running
//!   *during* the soak.
//! * A mid-soak graceful shutdown with the WAL enabled loses zero
//!   admitted points: everything the server acknowledged (and everything
//!   it admitted without managing to acknowledge) is drained, verdicted,
//!   checkpointed, and recoverable.

use spot::{SpotBuilder, SpotConfig, Verdict};
use spot_runtime::{CheckpointStore, FleetConfig, SpotFleet, WalTuning};
use spot_serve::{
    inject, NetFault, RetryPolicy, ServeClient, ServeConfig, SpotServer, VerdictSink,
};
use spot_types::{DataPoint, DomainBounds, TenantId};
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const DIMS: usize = 3;
const TENANTS: usize = 8;

fn tid(i: usize) -> TenantId {
    TenantId::new(format!("soak-{i}")).unwrap()
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

fn stream(n: usize, salt: u64) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            let mut v: Vec<f64> = (0..DIMS)
                .map(|d| {
                    let x = (i as u64)
                        .wrapping_mul(d as u64 + 3)
                        .wrapping_add(salt.wrapping_mul(7))
                        % 23;
                    0.2 + (x as f64 / 23.0) * 0.5
                })
                .collect();
            if i % 11 == 4 {
                v[i % DIMS] = 0.97;
            }
            DataPoint::new(v)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spot-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn soak_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 200,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        retry_after_unit: Duration::from_millis(1),
    }
}

type VerdictLog = Arc<Mutex<HashMap<TenantId, Vec<Verdict>>>>;

fn collecting_sink() -> (VerdictLog, VerdictSink) {
    let log: VerdictLog = Arc::new(Mutex::new(HashMap::new()));
    let sink_log = Arc::clone(&log);
    let sink: VerdictSink = Arc::new(move |id: &TenantId, verdicts: &[Verdict]| {
        sink_log
            .lock()
            .unwrap()
            .entry(id.clone())
            .or_default()
            .extend_from_slice(verdicts);
    });
    (log, sink)
}

/// Direct-ingestion twin: a fresh serial fleet that learns identically and
/// processes exactly `prefix` points of tenant `i`'s stream.
fn twin_verdicts(i: usize, total: usize, prefix: usize) -> Vec<Verdict> {
    let fleet = SpotFleet::new(FleetConfig::default());
    let id = tid(i);
    fleet
        .register(id.clone(), tenant_config(100 + i as u64))
        .unwrap();
    fleet.learn(&id, &training(64, i as u64)).unwrap();
    let points = stream(total, 100 + i as u64);
    if prefix == 0 {
        return Vec::new();
    }
    fleet.process_batch(&id, &points[..prefix]).unwrap()
}

fn assert_bitwise(want: &[Verdict], got: &[Verdict], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: verdict count diverged");
    for (a, b) in want.iter().zip(got) {
        assert!(a.bitwise_eq(b), "{label}: diverged at tick {}", a.tick);
    }
}

/// Headline soak: 8 tenants × 1 persistent ingest connection each (plus
/// a `/drain` connection racing the pump threads, and fault and storm
/// connections on top), scripted wire faults running throughout — and the
/// verdict stream stays bit-identical to direct ingestion.
#[test]
fn soak_bit_identical_under_network_faults() {
    const POINTS: usize = 300;
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 32,
        micro_batch: 8,
    });
    for i in 0..TENANTS {
        fleet
            .register(tid(i), tenant_config(100 + i as u64))
            .unwrap();
        fleet.learn(&tid(i), &training(64, i as u64)).unwrap();
    }

    let (log, sink) = collecting_sink();
    let config = ServeConfig {
        workers: 12,
        max_connections: 16,
        read_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let server = SpotServer::builder(fleet.clone())
        .config(config)
        .verdict_sink(sink)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // 8 producers, one persistent connection per tenant: per-tenant
    // request order IS arrival order, which is what makes the bit-identity
    // comparison meaningful.
    let mut producers = Vec::new();
    for i in 0..TENANTS {
        producers.push(std::thread::spawn(move || {
            let mut client = ServeClient::new(addr).with_policy(soak_policy());
            let id = tid(i);
            let points = stream(POINTS, 100 + i as u64);
            let mut admitted = 0u64;
            for chunk in points.chunks(17) {
                let report = client
                    .ingest(&id, chunk)
                    .unwrap_or_else(|e| panic!("tenant {i} ingest failed: {e}"));
                admitted += report.enqueued;
            }
            admitted
        }));
    }

    // `/drain` calls race the pump threads over every tenant while the
    // producers run; the tenant's drain lock must keep its sink stream in
    // arrival order whichever thread delivers a batch.
    let producing = Arc::new(AtomicBool::new(true));
    let drainer = {
        let producing = Arc::clone(&producing);
        std::thread::spawn(move || {
            let mut client = ServeClient::new(addr).with_policy(soak_policy());
            let mut drains = 0u64;
            while producing.load(Ordering::Acquire) {
                for i in 0..TENANTS {
                    drains += u64::from(client.drain(&tid(i)).is_ok());
                }
            }
            drains
        })
    };

    // Scripted fault storm alongside the producers: fixed schedule, real
    // sockets, zero randomness.
    let fault_thread = std::thread::spawn(move || {
        for round in 0..4u32 {
            let _ = inject(addr, &NetFault::TornRequestLine, Duration::from_secs(2));
            let _ = inject(
                addr,
                &NetFault::MidBodyDisconnect {
                    content_length: 4096,
                    sent: 64 * (round as usize + 1),
                },
                Duration::from_secs(2),
            );
            let _ = inject(addr, &NetFault::Garbage, Duration::from_secs(2));
            let _ = inject(
                addr,
                &NetFault::StalledRead {
                    hold: Duration::from_millis(150),
                },
                Duration::from_secs(2),
            );
        }
        // Accept storm: more simultaneous connections than the cap.
        let held: Vec<_> = (0..30)
            .filter_map(|_| TcpStream::connect(addr).ok())
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        drop(held);
    });

    let mut sent = 0u64;
    for producer in producers {
        sent += producer.join().expect("producer thread must not panic");
    }
    fault_thread.join().expect("fault thread must not panic");
    producing.store(false, Ordering::Release);
    let drains = drainer.join().expect("drain thread must not panic");
    assert!(drains > 0, "no /drain call raced the pump");
    assert_eq!(
        sent,
        (TENANTS * POINTS) as u64,
        "faults must never cost an acknowledged admission"
    );

    // Let the pump finish moving the tail, then stop everything.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while fleet.stats().queued > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "pump failed to drain the backlog"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = server.stats();
    assert!(
        stats.timeouts >= 1,
        "stalled reads must trip the read deadline: {stats:?}"
    );
    assert!(
        stats.bad_requests >= 1,
        "garbage must be rejected as bad requests: {stats:?}"
    );
    assert!(
        stats.shed_connections >= 1,
        "the accept storm must shed beyond the cap: {stats:?}"
    );
    let report = server.shutdown().unwrap();
    assert!(report.undrained.is_empty());

    // The wire added nothing: per tenant, the served verdict stream is
    // bit-identical to direct ingestion of the same points.
    let log = log.lock().unwrap();
    for i in 0..TENANTS {
        let served = log.get(&tid(i)).map(Vec::as_slice).unwrap_or(&[]);
        assert_eq!(served.len(), POINTS, "tenant {i}: lost verdicts");
        let direct = twin_verdicts(i, POINTS, POINTS);
        assert_bitwise(&direct, served, &format!("tenant {i}"));
    }
}

/// Mid-soak graceful shutdown with the WAL enabled: producers are cut off
/// mid-stream, yet every admitted point is drained, verdicted,
/// checkpointed — and the recovered fleet agrees to the last count.
#[test]
fn soak_graceful_shutdown_with_wal_loses_nothing_admitted() {
    const POINTS: usize = 400;
    let dir = temp_dir("shutdown");
    let store = CheckpointStore::open(&dir, 3).unwrap();
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 32,
        micro_batch: 8,
    });
    for i in 0..TENANTS {
        fleet
            .register(tid(i), tenant_config(100 + i as u64))
            .unwrap();
        fleet.learn(&tid(i), &training(64, i as u64)).unwrap();
    }
    fleet
        .enable_wal(dir.join("wal"), WalTuning::default())
        .unwrap();

    let (log, sink) = collecting_sink();
    let config = ServeConfig {
        workers: 12,
        max_connections: 16,
        drain_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let server = SpotServer::builder(fleet.clone())
        .config(config)
        .store(store)
        .verdict_sink(sink)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Producers push small batches until the shutdown cuts them off; each
    // returns the admissions the server *acknowledged* (a lower bound —
    // the final in-flight request may have been admitted without a
    // readable response).
    let mut producers = Vec::new();
    for i in 0..TENANTS {
        producers.push(std::thread::spawn(move || {
            let mut client = ServeClient::new(addr).with_policy(RetryPolicy {
                max_attempts: 6,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
                retry_after_unit: Duration::from_millis(1),
            });
            let id = tid(i);
            let points = stream(POINTS, 100 + i as u64);
            let mut acknowledged = 0u64;
            for chunk in points.chunks(11) {
                match client.ingest(&id, chunk) {
                    Ok(report) => acknowledged += report.enqueued,
                    // Shutdown reached this producer; stop cleanly.
                    Err(_) => break,
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            acknowledged
        }));
    }

    // Shut down mid-soak, while producers are actively pushing.
    std::thread::sleep(Duration::from_millis(150));
    let report = server.shutdown().unwrap();
    assert!(report.generation.is_some(), "final durable checkpoint");
    assert!(report.undrained.is_empty());

    let acknowledged: Vec<u64> = producers
        .into_iter()
        .map(|p| p.join().expect("producer thread must not panic"))
        .collect();

    // Zero admitted points lost: per tenant the sink holds one verdict
    // per admitted point — at least everything acknowledged — and they
    // are bit-identical to direct ingestion of the same prefix.
    let log = log.lock().unwrap();
    let mut admitted_total = 0usize;
    for (i, &acked) in acknowledged.iter().enumerate() {
        let served = log.get(&tid(i)).map(Vec::as_slice).unwrap_or(&[]);
        let admitted = served.len();
        admitted_total += admitted;
        assert!(
            admitted as u64 >= acked,
            "tenant {i}: acknowledged {acked} but only {admitted} verdicts — admitted work was lost"
        );
        assert_eq!(
            fleet.tenant_stats(&tid(i)).unwrap().processed,
            admitted as u64,
            "tenant {i}: drain left admitted points unprocessed"
        );
        let direct = twin_verdicts(i, POINTS, admitted);
        assert_bitwise(&direct, served, &format!("tenant {i}"));
    }
    assert!(
        admitted_total > 0,
        "the soak must have admitted something before the shutdown"
    );

    // The final checkpoint covers everything: a recovery from disk agrees
    // with the sink exactly (nothing to replay, nothing missing).
    drop(fleet);
    let (recovered, scan) = SpotFleet::recover(
        &dir,
        FleetConfig {
            queue_capacity: 32,
            micro_batch: 8,
        },
    )
    .unwrap();
    assert_eq!(scan.total_replayed(), 0, "checkpoint must cover the WAL");
    for i in 0..TENANTS {
        let served = log.get(&tid(i)).map(Vec::as_slice).unwrap_or(&[]);
        assert_eq!(
            recovered.tenant_stats(&tid(i)).unwrap().processed,
            served.len() as u64,
            "tenant {i}: recovery disagrees with the served verdict count"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
