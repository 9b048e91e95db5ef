//! Service-plane acceptance suite: status mapping, limits, deadlines,
//! shedding, keep-alive, and the graceful shutdown protocol — all
//! exercised over real sockets against a live server.

use spot::{SpotBuilder, Verdict};
use spot_runtime::{CheckpointStore, FaultPlan, FleetConfig, OverloadPolicy, SpotFleet};
use spot_serve::{
    inject, retry_after_secs, FaultOutcome, HttpLimits, NetFault, RetryPolicy, ServeClient,
    ServeConfig, SpotServer, VerdictSink,
};
use spot_types::{DataPoint, DomainBounds, TenantId};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DIMS: usize = 3;

fn tid(name: &str) -> TenantId {
    TenantId::new(name).expect("valid tenant id")
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
    let dir = std::env::temp_dir().join(format!("spot-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A serial (deterministic) fleet with a small queue.
fn serial_fleet(queue_capacity: usize, micro_batch: usize) -> SpotFleet {
    SpotFleet::new(FleetConfig {
        queue_capacity,
        micro_batch,
    })
}

/// Millisecond-scale retry policy so tests finish fast.
fn quick_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(40),
        retry_after_unit: Duration::from_millis(1),
    }
}

/// Raw request on a fresh socket; returns (status, body).
fn raw_request(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    // Head complete; read until content-length satisfied.
                    let text = String::from_utf8_lossy(&buf);
                    if let Some(head_end) = text.find("\r\n\r\n") {
                        let len = text
                            .lines()
                            .find_map(|l| l.strip_prefix("content-length: "))
                            .and_then(|v| v.trim().parse::<usize>().ok())
                            .unwrap_or(0);
                        if buf.len() >= head_end + 4 + len {
                            break;
                        }
                    }
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf).into_owned();
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn header_value(text: &str, name: &str) -> Option<String> {
    // Raw responses use lower-case header names.
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name}: ")))
        .map(|v| v.trim().to_string())
}

#[test]
fn health_ready_stats_and_tenant_stats() {
    let fleet = serial_fleet(64, 16);
    let server = SpotServer::builder(fleet.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = ServeClient::new(server.local_addr()).with_policy(quick_policy());

    assert!(client.healthy());
    assert!(client.ready());

    let id = tid("alpha");
    client.register(&id, DIMS, 7, &training(64, 1)).unwrap();
    fleet.process_batch(&id, &stream(10, 2)).unwrap();

    let stats = client.stats().unwrap();
    assert!(stats.contains("\"tenants\":1"), "stats: {stats}");
    assert!(stats.contains("\"server\""), "stats: {stats}");

    let tstats = client.tenant_stats(&id).unwrap();
    assert!(
        tstats.contains("\"processed\":10"),
        "tenant stats: {tstats}"
    );
    assert!(
        tstats.contains("\"health\":\"healthy\""),
        "tenant stats: {tstats}"
    );

    server.shutdown().unwrap();
}

#[test]
fn status_code_mapping_over_the_wire() {
    let fleet = serial_fleet(64, 16);
    let server = SpotServer::builder(fleet).bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = ServeClient::new(addr).with_policy(quick_policy());

    // 404: tenant the registry does not hold.
    let err = client.ingest(&tid("ghost"), &stream(1, 0)).unwrap_err();
    assert!(matches!(
        err,
        spot_serve::ClientError::Status { status: 404, .. }
    ));

    // 201 then 409: duplicate registration.
    let id = tid("beta");
    client.register(&id, DIMS, 3, &training(64, 2)).unwrap();
    let err = client.register(&id, DIMS, 3, &[]).unwrap_err();
    assert!(matches!(
        err,
        spot_serve::ClientError::Status { status: 409, .. }
    ));

    // 400: dimension mismatch rejected before admission.
    let err = client
        .ingest(&id, &[DataPoint::new(vec![0.5; DIMS + 2])])
        .unwrap_err();
    assert!(matches!(
        err,
        spot_serve::ClientError::Status { status: 400, .. }
    ));

    // 400: malformed JSON body.
    let (status, _) = raw_request(
        addr,
        "POST /tenants/beta/ingest HTTP/1.1\r\ncontent-length: 9\r\n\r\n{\"points\"",
    );
    assert_eq!(status, 400);

    // 405: wrong method on a known route; 404: unknown route.
    let (status, _) = raw_request(addr, "POST /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
    assert_eq!(status, 405);
    let (status, _) = raw_request(addr, "GET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(status, 404);

    // 409: checkpoint admin without a store attached.
    let err = client.checkpoint().unwrap_err();
    assert!(matches!(
        err,
        spot_serve::ClientError::Status { status: 409, .. }
    ));

    // 200 then 404: eviction is terminal.
    client.evict(&id).unwrap();
    let err = client.evict(&id).unwrap_err();
    assert!(matches!(
        err,
        spot_serve::ClientError::Status { status: 404, .. }
    ));

    server.shutdown().unwrap();
}

#[test]
fn backpressure_maps_to_429_with_retry_after() {
    // `/ingest` admits through `try_ingest`, which refuses on a full queue
    // whatever the tenant's overload policy: no policy sheds or samples a
    // served point.
    for policy in [
        OverloadPolicy::Block,
        OverloadPolicy::Shed,
        OverloadPolicy::Sample { keep_one_in: 3 },
    ] {
        // Pump disabled: the queue only moves when we say so.
        let fleet = serial_fleet(8, 4);
        let server = SpotServer::builder(fleet)
            .pump(false)
            .bind("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr();
        let mut client = ServeClient::new(addr).with_policy(quick_policy());

        let id = tid("gamma");
        client.register(&id, DIMS, 11, &training(64, 3)).unwrap();
        server.fleet().set_overload_policy(&id, policy).unwrap();

        // 20 points against an 8-slot queue: exactly 8 admitted, then 429.
        let points = stream(20, 4);
        let body = format!(
            "{{\"points\":{}}}",
            serde_json::to_string(&serde_json::Value::Array(
                points
                    .iter()
                    .map(|p| serde_json::Value::Array(
                        p.values()
                            .iter()
                            .map(|v| serde_json::Value::F64(*v))
                            .collect()
                    ))
                    .collect()
            ))
            .unwrap()
        );
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(
            format!(
                "POST /tenants/gamma/ingest HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let mut text = String::new();
        let mut chunk = [0u8; 8192];
        loop {
            match raw.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    text.push_str(&String::from_utf8_lossy(&chunk[..n]));
                    if text.contains("\"enqueued\"") {
                        break;
                    }
                }
            }
        }
        assert!(text.starts_with("HTTP/1.1 429"), "{policy:?}: {text}");
        assert!(text.contains("\"enqueued\":8"), "{policy:?}: {text}");
        // Retry-After derives from occupancy: 8 queued / micro_batch 4 = 2s.
        assert_eq!(
            header_value(&text, "retry-after").as_deref(),
            Some("2"),
            "{policy:?}: {text}"
        );
        assert_eq!(server.fleet().stats().shed, 0, "{policy:?}");

        // Drain server-side, resume the tail from the reported offset:
        // with the pump off every admission is accounted deterministically.
        client.drain(&id).unwrap();
        let report = client.ingest(&id, &points[8..16]).unwrap();
        assert_eq!(report.enqueued, 8);
        client.drain(&id).unwrap();
        let report = client.ingest(&id, &points[16..]).unwrap();
        assert_eq!(report.enqueued, 4);
        client.drain(&id).unwrap();
        let tstats = client.tenant_stats(&id).unwrap();
        assert!(
            tstats.contains("\"processed\":20"),
            "{policy:?}: tenant stats: {tstats}"
        );
        let stats = server.fleet().stats();
        assert_eq!((stats.shed, stats.sampled_kept), (0, 0), "{policy:?}");
        server.shutdown().unwrap();
    }
    assert_eq!(retry_after_secs(8, 4), 2);
}

#[test]
fn client_rides_out_backpressure_with_pump() {
    let fleet = serial_fleet(8, 4);
    let server = SpotServer::builder(fleet.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = ServeClient::new(server.local_addr()).with_policy(RetryPolicy {
        max_attempts: 64,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        retry_after_unit: Duration::from_millis(1),
    });

    let id = tid("delta");
    client.register(&id, DIMS, 13, &training(64, 5)).unwrap();

    let points = stream(200, 6);
    let report = client.ingest(&id, &points).unwrap();
    assert_eq!(report.enqueued, 200, "report: {report:?}");
    assert!(
        report.backpressure_hits > 0,
        "a 25x oversubscribed queue must push back at least once: {report:?}"
    );

    client.drain(&id).unwrap();
    let stats = fleet.tenant_stats(&id).unwrap();
    assert_eq!(stats.processed, 200);

    server.shutdown().unwrap();
}

#[test]
fn oversized_frames_and_protocol_violations() {
    let fleet = serial_fleet(64, 16);
    let config = ServeConfig {
        limits: HttpLimits {
            max_request_line: 512,
            max_head_bytes: 1024,
            max_headers: 16,
            max_body_bytes: 2048,
        },
        ..ServeConfig::default()
    };
    let server = SpotServer::builder(fleet)
        .config(config)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // 413: body larger than the limit, rejected from the declared length
    // alone (the server never buffers the payload).
    let (status, _) = raw_request(
        addr,
        "POST /tenants/x/ingest HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n",
    );
    assert_eq!(status, 413);

    // 411: body-bearing method without a length.
    let (status, _) = raw_request(addr, "POST /tenants/x/ingest HTTP/1.1\r\n\r\n");
    assert_eq!(status, 411);

    // 431: oversized header block.
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
        "a".repeat(4096)
    );
    let (status, _) = raw_request(addr, &huge);
    assert_eq!(status, 431);

    // 501: method this plane does not implement.
    let (status, _) = raw_request(addr, "PATCH /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
    assert_eq!(status, 501);

    // 400: bytes that are not HTTP.
    let outcome = inject(addr, &NetFault::Garbage, Duration::from_secs(2)).unwrap();
    assert_eq!(outcome, FaultOutcome::Status(400));

    // The server survives all of it.
    let mut client = ServeClient::new(addr).with_policy(quick_policy());
    assert!(client.healthy());
    server.shutdown().unwrap();
}

#[test]
fn conflicting_content_lengths_are_refused_not_guessed() {
    // Two lengths for one body: whichever the server picked (the first
    // makes this a healthy 200 followed by a second request), a proxy in
    // front of it could have picked the other. The admission plane
    // refuses.
    let server = SpotServer::builder(serial_fleet(64, 16))
        .bind("127.0.0.1:0")
        .unwrap();
    let (status, _) = raw_request(
        server.local_addr(),
        "GET /healthz HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 23\r\n\r\n\
         GET /nope HTTP/1.1\r\n\r\n",
    );
    assert_eq!(status, 400);
    let stats = server.stats();
    assert_eq!(stats.bad_requests, 1, "{stats:?}");
    let mut client = ServeClient::new(server.local_addr()).with_policy(quick_policy());
    assert!(client.healthy());
    server.shutdown().unwrap();
}

#[test]
fn slow_loris_trips_the_read_deadline() {
    let fleet = serial_fleet(64, 16);
    let config = ServeConfig {
        read_timeout: Duration::from_millis(80),
        ..ServeConfig::default()
    };
    let server = SpotServer::builder(fleet)
        .config(config)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Partial head, then silence well past the deadline: the worker must
    // answer 408 (or close) instead of staying pinned.
    let outcome = inject(
        addr,
        &NetFault::StalledRead {
            hold: Duration::from_millis(300),
        },
        Duration::from_secs(2),
    )
    .unwrap();
    assert_eq!(outcome, FaultOutcome::Status(408), "stall must trip 408");

    let mut client = ServeClient::new(addr).with_policy(quick_policy());
    assert!(client.healthy(), "server must survive the slow loris");
    let report = server.shutdown().unwrap();
    assert!(report.requests >= 1);
}

#[test]
fn torn_and_midbody_disconnects_admit_nothing() {
    let fleet = serial_fleet(64, 16);
    let server = SpotServer::builder(fleet.clone())
        .pump(false)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();
    let mut client = ServeClient::new(addr).with_policy(quick_policy());

    let id = tid("epsilon");
    client.register(&id, DIMS, 17, &training(64, 7)).unwrap();

    for _ in 0..5 {
        let outcome = inject(addr, &NetFault::TornRequestLine, Duration::from_secs(2)).unwrap();
        assert_eq!(outcome, FaultOutcome::ClosedSilently);
        let outcome = inject(
            addr,
            &NetFault::MidBodyDisconnect {
                content_length: 512,
                sent: 100,
            },
            Duration::from_secs(2),
        )
        .unwrap();
        assert_eq!(outcome, FaultOutcome::ClosedSilently);
    }

    // Nothing was admitted anywhere, and the plane still serves.
    assert_eq!(fleet.stats().queued, 0);
    assert_eq!(fleet.stats().processed, 0);
    assert!(client.healthy());
    server.shutdown().unwrap();
}

#[test]
fn connection_cap_sheds_with_503_at_accept() {
    let fleet = serial_fleet(64, 16);
    let config = ServeConfig {
        workers: 2,
        max_connections: 2,
        ..ServeConfig::default()
    };
    let server = SpotServer::builder(fleet)
        .config(config)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Two idle connections occupy the whole cap...
    let hold_a = TcpStream::connect(addr).unwrap();
    let hold_b = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // ...so the third is shed at accept time with a best-effort 503.
    let mut shed = TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match shed.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let text = String::from_utf8_lossy(&buf);
    assert!(
        text.starts_with("HTTP/1.1 503"),
        "expected accept-time shed, got: {text:?}"
    );
    assert!(server.stats().shed_connections >= 1);

    // Capacity frees up once the holders leave.
    drop(hold_a);
    drop(hold_b);
    std::thread::sleep(Duration::from_millis(100));
    let mut client = ServeClient::new(addr).with_policy(quick_policy());
    assert!(client.healthy());

    server.shutdown().unwrap();
}

#[test]
fn keep_alive_serves_sequential_and_pipelined_requests() {
    let fleet = serial_fleet(64, 16);
    let server = SpotServer::builder(fleet).bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Two pipelined requests in one write; both must answer on the same
    // connection, in order.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /readyz HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut text = String::new();
    let mut chunk = [0u8; 4096];
    while text.matches("HTTP/1.1 200").count() < 2 {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed early: {text:?}");
        text.push_str(&String::from_utf8_lossy(&chunk[..n]));
    }
    assert!(text.contains("\"ok\""), "responses: {text}");
    assert!(text.contains("\"ready\""), "responses: {text}");

    // A third request on the same (kept-alive) socket still works; asking
    // to close closes.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut rest = Vec::new();
    let mut n = stream.read(&mut chunk).unwrap();
    while n > 0 {
        rest.extend_from_slice(&chunk[..n]);
        n = stream.read(&mut chunk).unwrap_or(0);
    }
    let rest = String::from_utf8_lossy(&rest);
    assert!(rest.starts_with("HTTP/1.1 200"), "response: {rest}");
    assert!(rest.contains("connection: close"), "response: {rest}");

    server.shutdown().unwrap();
}

#[test]
fn checkpoint_endpoint_writes_a_full_generation_per_call() {
    let dir = temp_dir("checkpoint-endpoint");
    let store = CheckpointStore::open(&dir, 4).unwrap();
    let fleet = serial_fleet(64, 16);
    let server = SpotServer::builder(fleet.clone())
        .store(store)
        .pump(false)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = ServeClient::new(server.local_addr()).with_policy(quick_policy());

    let id = tid("checkpointed");
    client.register(&id, DIMS, 31, &training(64, 3)).unwrap();
    client.ingest(&id, &stream(20, 4)).unwrap();
    client.drain(&id).unwrap();
    let body = client.checkpoint().unwrap().text();
    assert_eq!(body, "{\"generation\":1}");

    // A query string does not change the route: the second call is the
    // next full generation.
    client.ingest(&id, &stream(10, 5)).unwrap();
    client.drain(&id).unwrap();
    let response = client
        .request("POST", "/admin/checkpoint?mode=delta", Some("{}"))
        .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.text(), "{\"generation\":2}");
    let live = fleet.checkpoint().to_bytes();

    // /stats carries the WAL prune-failure counter (zero on this box).
    let stats = client.stats().unwrap();
    assert!(stats.contains("\"wal_prune_failures\":0"), "stats: {stats}");

    server.shutdown().unwrap();

    // Generation 2 is the live fleet at the time it was taken.
    let store = CheckpointStore::open(&dir, 4).unwrap();
    assert_eq!(store.load(2).unwrap().to_bytes(), live);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_queues_and_checkpoints() {
    let dir = temp_dir("shutdown");
    let store = CheckpointStore::open(&dir, 3).unwrap();
    let fleet = serial_fleet(64, 16);
    let server = SpotServer::builder(fleet.clone())
        .store(store)
        .pump(false)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = ServeClient::new(server.local_addr()).with_policy(quick_policy());

    let id = tid("zeta");
    client.register(&id, DIMS, 19, &training(64, 8)).unwrap();
    let report = client.ingest(&id, &stream(30, 9)).unwrap();
    assert_eq!(report.enqueued, 30);
    assert_eq!(fleet.stats().queued, 30, "pump is off; backlog must sit");

    let report = server.shutdown().unwrap();
    assert_eq!(report.drained, 30, "the frozen backlog drains in full");
    assert!(report.generation.is_some(), "final durable checkpoint");
    assert!(report.undrained.is_empty());

    // Admission re-opens for the in-process fleet after the server exits,
    // and the drained work is visible.
    assert_eq!(fleet.tenant_stats(&id).unwrap().processed, 30);
    assert!(fleet.try_ingest(&id, stream(1, 10).pop().unwrap()).unwrap());

    // The checkpoint is loadable and holds the drained state.
    let store = CheckpointStore::open(&dir, 3).unwrap();
    let scan = store.load_latest().unwrap();
    let (_, checkpoint) = scan.recovered.expect("valid generation");
    assert!(checkpoint.get(&id).is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn draining_server_refuses_new_work_with_503() {
    // The admission gate itself (SpotError::ShuttingDown → 503) is pinned
    // here without a race: gate the fleet directly, then hit the running
    // server.
    let fleet = serial_fleet(64, 16);
    let server = SpotServer::builder(fleet.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = ServeClient::new(server.local_addr()).with_policy(RetryPolicy {
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        retry_after_unit: Duration::from_millis(1),
    });

    let id = tid("eta");
    client.register(&id, DIMS, 23, &training(64, 11)).unwrap();

    fleet.begin_shutdown();
    let err = client.ingest(&id, &stream(5, 12)).unwrap_err();
    match err {
        spot_serve::ClientError::RetriesExhausted { status, body } => {
            assert_eq!(status, 503);
            assert!(body.contains("shutting down"), "body: {body}");
        }
        other => panic!("expected retries exhausted on 503, got {other}"),
    }
    fleet.end_shutdown();
    let report = client.ingest(&id, &stream(5, 12)).unwrap();
    assert_eq!(report.enqueued, 5);

    server.shutdown().unwrap();
}

/// A sink that panics is caught on the pump thread that called it: the
/// panic is counted on `/stats`, its batch counts as delivered, and the
/// pump keeps moving verdicts — the queue never fills behind a dead pump.
#[test]
fn a_panicking_sink_is_counted_and_the_pump_keeps_delivering() {
    const POSTS: usize = 20;
    let fleet = serial_fleet(64, 16);
    let calls = Arc::new(AtomicU64::new(0));
    let lost = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(AtomicU64::new(0));
    let sink: VerdictSink = {
        let (calls, lost, seen) = (Arc::clone(&calls), Arc::clone(&lost), Arc::clone(&seen));
        Arc::new(move |_: &TenantId, verdicts: &[Verdict]| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                lost.store(verdicts.len() as u64, Ordering::SeqCst);
                panic!("sink fault");
            }
            seen.fetch_add(verdicts.len() as u64, Ordering::SeqCst);
        })
    };
    let server = SpotServer::builder(fleet.clone())
        .verdict_sink(sink)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = ServeClient::new(server.local_addr()).with_policy(quick_policy());
    let id = tid("kappa");
    client.register(&id, DIMS, 29, &training(64, 13)).unwrap();

    let points = stream(POSTS * 16, 14);
    for chunk in points.chunks(16) {
        let report = client.ingest(&id, chunk).unwrap();
        assert_eq!(report.enqueued, 16);
        std::thread::sleep(Duration::from_millis(5));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while lost.load(Ordering::SeqCst) + seen.load(Ordering::SeqCst) < points.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "delivery stalled after the sink panicked: {} of {} verdicts",
            lost.load(Ordering::SeqCst) + seen.load(Ordering::SeqCst),
            points.len()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(fleet.queue_len(&id).unwrap(), 0);
    assert_eq!(server.stats().sink_panics, 1);
    assert!(lost.load(Ordering::SeqCst) > 0);
    let stats = client.stats().unwrap();
    assert!(stats.contains("\"sink_panics\":1"), "stats: {stats}");

    server.shutdown().unwrap();
}

/// A `/drain` that meets a fault mid-backlog still delivers the
/// micro-batches committed before it, then reports the fault: 48 points
/// queued, micro-batch 16, a panic at the 41st point — the sink receives
/// the first 32 verdicts, bit-identical to direct processing, and the
/// route answers 503.
#[test]
fn a_drain_that_faults_delivers_the_batches_committed_before_it() {
    let config = SpotBuilder::new(DomainBounds::unit(DIMS))
        .seed(31)
        .build_config()
        .unwrap();
    let id = tid("theta");
    let points = stream(48, 15);
    let fleet = serial_fleet(64, 16);
    fleet.register(id.clone(), config.clone()).unwrap();
    fleet.learn(&id, &training(64, 15)).unwrap();
    let twin = serial_fleet(64, 16);
    twin.register(id.clone(), config).unwrap();
    twin.learn(&id, &training(64, 15)).unwrap();
    let want = twin.process_batch(&id, &points[..32]).unwrap();

    let log = Arc::new(Mutex::new(Vec::new()));
    let sink: VerdictSink = {
        let log = Arc::clone(&log);
        Arc::new(move |_: &TenantId, verdicts: &[Verdict]| {
            log.lock().unwrap().extend_from_slice(verdicts);
        })
    };
    let server = SpotServer::builder(fleet.clone())
        .verdict_sink(sink)
        .pump(false)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = ServeClient::new(server.local_addr()).with_policy(quick_policy());
    assert_eq!(client.ingest(&id, &points).unwrap().enqueued, 48);
    fleet.arm_faults(FaultPlan::new().panic_at(id.clone(), 40));

    let err = client.drain(&id).unwrap_err();
    assert!(
        matches!(err, spot_serve::ClientError::Status { status: 503, .. }),
        "{err}"
    );
    assert!(fleet.health(&id).unwrap().is_quarantined());
    let got = log.lock().unwrap();
    assert_eq!(got.len(), 32, "committed verdicts were dropped");
    for (a, b) in want.iter().zip(got.iter()) {
        assert!(a.bitwise_eq(b), "diverged at tick {}", a.tick);
    }
    drop(got);

    server.shutdown().unwrap();
}
