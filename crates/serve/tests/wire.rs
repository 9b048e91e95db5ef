//! The binary ingest body (`application/x-spot-points`) over real
//! sockets: equivalence with the JSON body across a `429` resume, typed
//! `400`s for hostile bodies, a byte-mutation loop, `±∞` end to end, and
//! the client's at-least-once delivery contract.

use serde_json::Value;
use spot::Verdict;
use spot_runtime::{FleetConfig, SpotFleet};
use spot_serve::http::{read_request, read_response, ClientResponse, HttpLimits, NextRequest};
use spot_serve::{ClientError, RetryPolicy, ServeClient, SpotServer};
use spot_types::{DataPoint, SpotError, TenantId};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const DIMS: usize = 3;
const MEDIA: &str = "application/x-spot-points";

fn tid(name: &str) -> TenantId {
    TenantId::new(name).expect("valid tenant id")
}

fn training(n: usize) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            DataPoint::new(
                (0..DIMS)
                    .map(|d| 0.35 + ((i * (d + 5) + 11) % 19) as f64 / 19.0 * 0.3)
                    .collect(),
            )
        })
        .collect()
}

fn stream(n: usize, salt: usize) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            let mut v: Vec<f64> = (0..DIMS)
                .map(|d| 0.2 + ((i * (d + 3) + salt * 7) % 23) as f64 / 23.0 * 0.5)
                .collect();
            if i % 11 == 4 {
                v[i % DIMS] = 0.97;
            }
            DataPoint::new(v)
        })
        .collect()
}

/// A serial (deterministic) fleet behind a server whose pump is off, so
/// the queue only moves when a test drains it.
fn served(queue_capacity: usize, micro_batch: usize) -> (SpotFleet, SpotServer) {
    let fleet = SpotFleet::new(FleetConfig {
        queue_capacity,
        micro_batch,
    });
    let server = SpotServer::builder(fleet.clone())
        .pump(false)
        .bind("127.0.0.1:0")
        .unwrap();
    (fleet, server)
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        retry_after_unit: Duration::from_millis(1),
    }
}

/// Every tenant in this file is registered alike, so their verdicts on one
/// stream are comparable bit for bit.
fn register(addr: SocketAddr, name: &str) -> TenantId {
    let id = tid(name);
    ServeClient::new(addr)
        .with_policy(policy())
        .register(&id, DIMS, 29, &training(64))
        .unwrap();
    id
}

fn coords(points: &[DataPoint]) -> Vec<f64> {
    points.iter().flat_map(|p| p.values().to_vec()).collect()
}

fn lanes_body(dims: u32, coords: &[f64]) -> Vec<u8> {
    let mut body = dims.to_le_bytes().to_vec();
    for v in coords {
        body.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    body
}

/// The JSON body as the JSON renderer makes it (non-finite floats become
/// `null`).
fn json_body(points: &[DataPoint]) -> Vec<u8> {
    let rows = points
        .iter()
        .map(|p| Value::Array(p.values().iter().map(|v| Value::F64(*v)).collect()))
        .collect();
    format!(
        "{{\"points\":{}}}",
        serde_json::to_string(&Value::Array(rows)).unwrap()
    )
    .into_bytes()
}

fn enqueued(response: &ClientResponse) -> Option<u64> {
    let doc: Value = serde_json::from_str(&response.text()).ok()?;
    match doc.get_field("enqueued") {
        Some(Value::U64(n)) => Some(*n),
        _ => None,
    }
}

fn assert_bitwise(want: &[Verdict], got: &[Verdict], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: verdict count diverged");
    for (a, b) in want.iter().zip(got) {
        assert!(a.bitwise_eq(b), "{label}: diverged at tick {}", a.tick);
    }
}

/// One kept-alive connection for hand-built requests.
struct Raw {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        Raw {
            stream,
            carry: Vec::new(),
        }
    }

    fn post(&mut self, path: &str, content_type: Option<&str>, body: &[u8]) -> ClientResponse {
        let mut request = format!("POST {path} HTTP/1.1\r\n");
        if let Some(media) = content_type {
            request.push_str(&format!("content-type: {media}\r\n"));
        }
        request.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        let mut bytes = request.into_bytes();
        bytes.extend_from_slice(body);
        self.stream.write_all(&bytes).unwrap();
        read_response(
            &mut self.stream,
            &mut self.carry,
            &HttpLimits::default(),
            Instant::now() + Duration::from_secs(5),
        )
        .expect("the server answers")
    }
}

#[test]
fn json_and_lanes_admit_one_stream_alike_across_a_429_resume() {
    // An 8-slot queue and a 40-point batch: every request is cut short
    // until the queue is drained.
    let (fleet, server) = served(8, 4);
    let addr = server.local_addr();
    let json = register(addr, "json");
    let lanes = register(addr, "lanes");
    let points = stream(40, 5);

    // JSON by hand, resuming each 429 from its `enqueued`.
    let mut raw = Raw::connect(addr);
    let mut json_verdicts = Vec::new();
    let (mut offset, mut refusals) = (0, 0);
    while offset < points.len() {
        let r = raw.post("/tenants/json/ingest", None, &json_body(&points[offset..]));
        offset += enqueued(&r).expect("every ingest answer reports enqueued") as usize;
        match r.status {
            200 => {}
            429 => refusals += 1,
            other => panic!("unexpected {other}: {}", r.text()),
        }
        json_verdicts.extend(fleet.drain_fully(&json).unwrap());
    }
    assert_eq!(refusals, 4, "8 of 40 points fit per request");

    // Lanes through the client, whose 429 resume re-encodes the tail.
    // Nothing drains until the client's second request is routed, so its
    // first one is refused mid-batch for certain.
    let routed = server.stats().requests;
    let mut client = ServeClient::new(addr).with_policy(policy());
    let mut lanes_verdicts = Vec::new();
    let report = std::thread::scope(|s| {
        let sender = s.spawn(|| client.ingest(&lanes, &points));
        while server.stats().requests < routed + 2 {
            std::thread::sleep(Duration::from_micros(100));
        }
        while !sender.is_finished() || fleet.queue_len(&lanes).unwrap() > 0 {
            lanes_verdicts.extend(fleet.drain_fully(&lanes).unwrap());
            std::thread::sleep(Duration::from_micros(100));
        }
        sender.join().expect("the client thread must not panic")
    })
    .unwrap();
    assert_eq!(report.enqueued, 40, "{report:?}");
    assert!(report.backpressure_hits >= 1, "{report:?}");

    assert_eq!(json_verdicts.len(), 40);
    assert_bitwise(&json_verdicts, &lanes_verdicts, "lanes vs JSON");
    assert_eq!(
        fleet.tenant_stats(&json).unwrap(),
        fleet.tenant_stats(&lanes).unwrap()
    );
    server.shutdown().unwrap();
}

#[test]
fn hostile_binary_bodies_are_typed_400s_that_admit_nothing() {
    let (fleet, server) = served(64, 16);
    let addr = server.local_addr();
    let id = register(addr, "hostile");
    let path = "/tenants/hostile/ingest";
    let valid = coords(&stream(4, 1));
    let nan_at = |bits: u64, at: usize| {
        let mut c = valid.clone();
        c[at] = f64::from_bits(bits);
        lanes_body(DIMS as u32, &c)
    };
    let whole = lanes_body(DIMS as u32, &valid);
    let nan = |dim| SpotError::NonFiniteValue { dim }.to_string();
    let cases = [
        ("empty body", Vec::new(), "shorter than".to_string()),
        ("3-byte body", vec![3, 0, 0], "shorter than".into()),
        ("dims 0", lanes_body(0, &valid), "dims 0".into()),
        ("dims 0, no points", lanes_body(0, &[]), "dims 0".into()),
        (
            "dims not the tenant's",
            lanes_body(4, &valid[..8]),
            SpotError::DimensionMismatch {
                expected: DIMS,
                got: 4,
            }
            .to_string(),
        ),
        (
            "ragged tail",
            whole[..whole.len() - 3].to_vec(),
            "whole number".into(),
        ),
        (
            "one lane short",
            lanes_body(DIMS as u32, &valid[..11]),
            "whole number".into(),
        ),
        (
            "dims u32::MAX",
            lanes_body(u32::MAX, &valid),
            "whole number".into(),
        ),
        ("quiet NaN", nan_at(0x7ff8_0000_0000_0000, 0), nan(0)),
        ("signalling NaN", nan_at(0x7ff0_0000_0000_0001, 4), nan(1)),
        ("negative NaN", nan_at(0xfff8_0000_0000_0000, 11), nan(2)),
        ("all-ones NaN", nan_at(u64::MAX, 6), nan(0)),
    ];

    // One kept-alive connection carries every case and what follows.
    let mut raw = Raw::connect(addr);
    for (label, body, want) in &cases {
        let r = raw.post(path, Some(MEDIA), body);
        assert_eq!(r.status, 400, "{label}: {}", r.text());
        assert!(r.text().contains(want.as_str()), "{label}: {}", r.text());
        assert_eq!(enqueued(&r), Some(0), "{label}");
        assert!(r.keep_alive, "{label}: the connection must stay open");
        assert_eq!(fleet.queue_len(&id).unwrap(), 0, "{label}: admitted");
    }

    // The header alone is an empty batch.
    let r = raw.post(path, Some(MEDIA), &lanes_body(DIMS as u32, &[]));
    assert_eq!((r.status, enqueued(&r)), (200, Some(0)), "{}", r.text());
    let r = raw.post(path, Some(MEDIA), &whole);
    assert_eq!((r.status, enqueued(&r)), (200, Some(4)), "{}", r.text());

    // Only the exact media type selects lanes; anything else is JSON.
    for media in [
        None,
        Some("application/octet-stream"),
        Some("application/x-spot-points; v=1"),
        Some("Application/X-Spot-Points"),
    ] {
        let r = raw.post(path, media, &whole);
        assert_eq!(r.status, 400, "{media:?}: {}", r.text());
        assert!(
            r.text().contains("JSON") || r.text().contains("UTF-8"),
            "{media:?}: {}",
            r.text()
        );
    }
    assert_eq!(fleet.queue_len(&id).unwrap(), 4);
    server.shutdown().unwrap();
}

#[test]
fn json_bodies_answer_row_by_row_as_before() {
    let (fleet, server) = served(64, 16);
    let addr = server.local_addr();
    let id = register(addr, "json-rows");
    let width = |got| {
        SpotError::DimensionMismatch {
            expected: DIMS,
            got,
        }
        .to_string()
    };
    let not_points = "must be an array of number arrays".to_string();
    let p3 = "[0.5,0.5,0.5]";
    // (body, status, enqueued, error text)
    let cases = [
        ("{\"points\":[]}".to_string(), 200, Some(0), String::new()),
        ("{\"points\":[[]]}".into(), 400, Some(0), width(0)),
        (
            format!("{{\"points\":[{p3},[0.5,0.5]]}}"),
            400,
            Some(0),
            width(2),
        ),
        (
            format!("{{\"points\":[[0.5,0.5],{p3}]}}"),
            400,
            Some(0),
            width(2),
        ),
        (
            format!("{{\"points\":[{p3},[1,2,3,4],[]]}}"),
            400,
            Some(0),
            width(4),
        ),
        (
            format!("{{\"points\":[{p3},[0.5],\"x\"]}}"),
            400,
            None,
            not_points.clone(),
        ),
        ("{\"pts\":[]}".into(), 400, None, not_points),
        ("{\"points\"".into(), 400, None, "malformed JSON".into()),
        (
            format!("{{\"points\":[{p3},{p3}]}}"),
            200,
            Some(2),
            String::new(),
        ),
    ];
    let mut raw = Raw::connect(addr);
    for (body, status, admitted, error) in &cases {
        let r = raw.post("/tenants/json-rows/ingest", None, body.as_bytes());
        assert_eq!(
            (r.status, enqueued(&r)),
            (*status, *admitted),
            "{body}: {}",
            r.text()
        );
        assert!(r.text().contains(error.as_str()), "{body}: {}", r.text());
    }
    assert_eq!(fleet.queue_len(&id).unwrap(), 2);
    server.shutdown().unwrap();
}

#[test]
fn mutated_binary_bodies_never_panic_and_a_200_admits_what_the_body_frames() {
    let (fleet, server) = served(1 << 12, 64);
    let addr = server.local_addr();
    let id = register(addr, "mutant");
    let valid = lanes_body(DIMS as u32, &coords(&stream(8, 2)));
    let framed = |body: &[u8]| -> Option<u64> {
        let dims = u32::from_le_bytes(body.get(..4)?.try_into().unwrap()) as usize;
        let row = 8 * dims;
        (dims > 0 && (body.len() - 4).is_multiple_of(row)).then(|| ((body.len() - 4) / row) as u64)
    };

    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut raw = Raw::connect(addr);
    let (mut admitted, mut refused) = (0, 0);
    for round in 0..600 {
        let mut body = valid.clone();
        match round % 3 {
            0 => {
                let at = next() as usize % body.len();
                body[at] ^= 1 << (next() % 8);
            }
            1 => body.truncate(next() as usize % body.len()),
            _ => {
                let extra = next() % 49;
                body.extend((0..extra).map(|_| next() as u8));
            }
        }
        let r = raw.post("/tenants/mutant/ingest", Some(MEDIA), &body);
        match r.status {
            200 => {
                assert_eq!(enqueued(&r), framed(&body), "round {round}: {body:?}");
                admitted += 1;
            }
            400 => refused += 1,
            other => panic!("round {round}: unexpected {other}: {}", r.text()),
        }
        let queued = fleet.queue_len(&id).unwrap() as u64;
        assert_eq!(Some(queued), enqueued(&r), "round {round}");
        fleet.drain_fully(&id).unwrap();
    }
    assert!(admitted > 0 && refused > 0, "{admitted} / {refused}");
    server.shutdown().unwrap();
}

#[test]
fn infinities_cross_the_wire_and_verdict_as_direct_ingestion_does() {
    let (fleet, server) = served(64, 16);
    let addr = server.local_addr();
    let wire = register(addr, "wire");
    let direct = register(addr, "direct");
    let points: Vec<DataPoint> = stream(30, 6)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let mut v = p.values().to_vec();
            if i % 5 == 2 {
                v[i % DIMS] = if i % 2 == 0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                };
            }
            DataPoint::new(v)
        })
        .collect();

    // What the JSON renderer makes of `±∞` (`null`) is still refused.
    let r = Raw::connect(addr).post("/tenants/wire/ingest", None, &json_body(&points));
    assert_eq!(r.status, 400, "{}", r.text());
    assert_eq!(fleet.queue_len(&wire).unwrap(), 0);

    let report = ServeClient::new(addr)
        .with_policy(policy())
        .ingest(&wire, &points)
        .unwrap();
    assert_eq!(report.enqueued, 30);
    let served = fleet.drain_fully(&wire).unwrap();
    let want = fleet.process_batch(&direct, &points).unwrap();
    assert_bitwise(&want, &served, "±∞ over the wire vs direct");
    server.shutdown().unwrap();
}

#[test]
fn ragged_points_are_refused_before_a_byte_is_sent() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let mut client = ServeClient::new(listener.local_addr().unwrap());
    let points = [
        DataPoint::new(vec![0.5; DIMS]),
        DataPoint::new(vec![0.5; DIMS]),
        DataPoint::new(vec![0.5; DIMS - 1]),
    ];
    match client.ingest(&tid("ragged"), &points) {
        Err(ClientError::Invalid(SpotError::DimensionMismatch {
            expected: DIMS,
            got,
        })) if got == DIMS - 1 => {}
        other => panic!("expected a local DimensionMismatch, got {other:?}"),
    }
    // Not even a connection was opened.
    let err = listener.accept().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
}

#[test]
fn a_lost_response_resends_the_batch_so_delivery_is_at_least_once() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let receive = |conn: &mut TcpStream| match read_request(
            conn,
            &mut Vec::new(),
            &HttpLimits::default(),
            Duration::from_secs(5),
            Duration::from_secs(5),
        ) {
            Ok(NextRequest::Request(req)) => {
                assert_eq!(req.header("content-type"), Some(MEDIA));
                req.body
            }
            other => panic!("expected a request, got {other:?}"),
        };
        // The first connection reads the whole request and hangs up
        // unanswered; the second answers it.
        let (mut first, _) = listener.accept().unwrap();
        let once = receive(&mut first);
        drop(first);
        let (mut second, _) = listener.accept().unwrap();
        let twice = receive(&mut second);
        second
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 14\r\n\r\n{\"enqueued\":5}")
            .unwrap();
        (once, twice)
    });

    let points = stream(5, 1);
    let report = ServeClient::new(addr)
        .with_policy(policy())
        .ingest(&tid("twice"), &points)
        .unwrap();
    assert_eq!((report.enqueued, report.requests), (5, 1));
    let (once, twice) = fake.join().expect("the fake server must not panic");
    assert_eq!(once, twice, "the resend is the same batch");
    assert_eq!(once, lanes_body(DIMS as u32, &coords(&points)));
}
