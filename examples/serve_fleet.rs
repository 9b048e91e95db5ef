//! Service-plane walkthrough: the fleet behind the in-tree HTTP server.
//!
//! Starts a [`spot_serve::SpotServer`] over a [`SpotFleet`] with a durable
//! checkpoint store attached, registers tenants over the wire, pushes
//! deliberately more points than the queues hold so the client has to ride
//! out `429 Retry-After` backpressure, reads lock-free stats, forces a
//! drain, takes a durable checkpoint via `/admin/checkpoint`, and finishes
//! with a graceful shutdown that seals a final generation and leaves
//! nothing queued. Afterwards the store's `.ckpt` generations — each a
//! full fleet checkpoint in a binary column container — are listed and
//! the newest is restored into a fleet.
//!
//! Run with `cargo run --release --example serve_fleet`.

use spot::Verdict;
use spot_runtime::{CheckpointStore, FleetConfig, SpotFleet};
use spot_serve::{RetryPolicy, ServeClient, ServeConfig, SpotServer, VerdictSink};
use spot_types::{DataPoint, TenantId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DIMS: usize = 4;

/// Per-tenant synthetic stream: a stable regime with occasional spikes.
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
    // 1. A small fleet with deliberately tight queues, served over HTTP.
    //    The verdict sink is the server's outlier delivery path: it rides
    //    the pump thread, off every detector lock. A checkpoint store in a
    //    scratch directory arms `/admin/checkpoint` and the final durable
    //    checkpoint on shutdown; every file it writes is a binary column
    //    container.
    let store_dir = std::env::temp_dir().join(format!("spot-serve-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = CheckpointStore::open(&store_dir, 4)?;
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity: 64,
        micro_batch: 32,
    });
    let outliers = Arc::new(AtomicU64::new(0));
    let sink: VerdictSink = {
        let outliers = Arc::clone(&outliers);
        Arc::new(move |id: &TenantId, verdicts: &[Verdict]| {
            let flagged = verdicts.iter().filter(|v| v.outlier).count() as u64;
            if flagged > 0 {
                println!("  sink: {id} flagged {flagged} outliers");
            }
            outliers.fetch_add(flagged, Ordering::Relaxed);
        })
    };
    let server = SpotServer::builder(fleet.clone())
        .config(ServeConfig {
            workers: 4,
            max_connections: 32,
            ..ServeConfig::default()
        })
        .verdict_sink(sink)
        .store(store)
        .bind("127.0.0.1:0")?;
    let addr = server.local_addr();
    println!("serving the fleet on http://{addr}");

    // 2. A client with a retry policy: deterministic exponential backoff,
    //    honoring the server's Retry-After hints on 429.
    let mut client = ServeClient::new(addr).with_policy(RetryPolicy {
        max_attempts: 32,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(50),
        retry_after_unit: Duration::from_millis(10),
    });
    assert!(client.healthy(), "server must answer /healthz");

    // 3. Register + learn over the wire.
    let tenants: Vec<TenantId> = (0..3)
        .map(|t| TenantId::new(format!("edge-{t}")).expect("valid id"))
        .collect();
    for (t, id) in tenants.iter().enumerate() {
        client.register(id, DIMS, 7 + t as u64, &sensor_stream(400, t as u64))?;
        println!("registered {id} over HTTP");
    }

    // 4. Ingest far more than the 64-slot queues hold: the client absorbs
    //    429s, waiting out the server's own backlog estimate.
    for (t, id) in tenants.iter().enumerate() {
        let report = client.ingest(id, &sensor_stream(600, 100 + t as u64))?;
        println!(
            "{id}: enqueued {} points in {} requests ({} backpressure waits)",
            report.enqueued, report.requests, report.backpressure_hits
        );
    }

    // 5. Force the tail out synchronously and read per-tenant stats off
    //    the lock-free counters.
    for id in &tenants {
        client.drain(id)?;
        println!("{id}: stats {}", client.tenant_stats(id)?);
    }

    // 6. A durable checkpoint over the wire, then more traffic on one
    //    tenant for the shutdown checkpoint to seal.
    println!("checkpoint: {}", client.checkpoint()?.text());
    client.ingest(&tenants[0], &sensor_stream(200, 777))?;
    client.drain(&tenants[0])?;

    // 7. Graceful shutdown: stop accepting, finish in-flight requests,
    //    drain every queue, seal a final durable generation. Nothing
    //    admitted is lost.
    let report = server.shutdown()?;
    println!(
        "shutdown: drained {} straggler points, {} requests served, sink saw {} outliers, \
         final checkpoint generation {:?}",
        report.drained,
        report.requests,
        outliers.load(Ordering::Relaxed),
        report.generation
    );
    assert!(report.undrained.is_empty());
    assert_eq!(fleet.stats().queued, 0);

    // 8. Look at what the store holds — one full checkpoint per
    //    generation — and restore the newest exactly as cold recovery
    //    would.
    let store = CheckpointStore::open(&store_dir, 4)?;
    for g in store.generations()? {
        let bytes = std::fs::metadata(store_dir.join(format!("fleet-{g:08}.ckpt")))?.len();
        println!("  generation {g}: {bytes} bytes (binary column container)");
    }
    let scan = store.load_latest()?;
    let (generation, newest) = scan.recovered.expect("the newest generation must load");
    let restored = SpotFleet::from_checkpoint(&newest, FleetConfig::default())?;
    assert_eq!(restored.tenant_ids(), fleet.tenant_ids());
    for id in &tenants {
        assert_eq!(restored.tenant_stats(id)?, fleet.tenant_stats(id)?);
    }
    println!(
        "restored generation {generation}: {} tenants, {} rejected generations",
        restored.len(),
        scan.rejected.len()
    );
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}
