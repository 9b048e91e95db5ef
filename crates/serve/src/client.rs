//! Tiny in-tree client for the SPOT service plane.
//!
//! Built for unreliable networks: every request runs under a deadline,
//! transport failures reconnect and retry under a deterministic
//! counter-based exponential backoff, `429` responses are retried after
//! the server's `Retry-After` hint, and partially-accepted ingest batches
//! resume from the `enqueued` count the server reports — so a batch is
//! never silently truncated by a mid-batch rejection.
//!
//! Delivery is **at-least-once**: when a fully written request loses its
//! response, the transport retry resends it, and a server that admitted
//! it admits it again. Ingest bodies are f64 lanes
//! (`application/x-spot-points`); every other request is JSON.

use crate::http::{percent_encode, read_response, ClientResponse, HttpLimits};
use crate::points;
use serde::Value;
use spot_types::{DataPoint, SpotError, TenantId};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Retry behavior. Backoff is a pure function of the attempt counter —
/// `base * 2^attempt`, capped — so tests can pin the exact schedule.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per logical operation before giving up.
    pub max_attempts: u32,
    /// First backoff delay; attempt `n` sleeps `base * 2^n` (capped).
    pub backoff_base: Duration,
    /// Upper bound for one backoff sleep.
    pub backoff_cap: Duration,
    /// Wall-clock value of one `Retry-After` unit. Real servers mean
    /// seconds; tests shrink it so a soak finishes in milliseconds.
    pub retry_after_unit: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            retry_after_unit: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Deterministic backoff for attempt `n` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        (self.backoff_base * factor).min(self.backoff_cap)
    }
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure after exhausting reconnect attempts.
    Transport(String),
    /// The server answered with a non-retryable error status.
    Status {
        /// HTTP status code.
        status: u16,
        /// Response body (JSON error document).
        body: String,
    },
    /// Retryable statuses (`429`/`503`) kept coming until the attempt
    /// budget ran out.
    RetriesExhausted {
        /// Last status observed.
        status: u16,
        /// Last response body.
        body: String,
    },
    /// The server broke the protocol (unparseable response).
    Protocol(String),
    /// The call's input was refused locally; no byte was sent.
    /// [`ServeClient::ingest`] gives [`SpotError::DimensionMismatch`]
    /// when its points do not all share one width (`expected` is the first
    /// point's width, `got` the first that differs).
    Invalid(SpotError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(msg) => write!(f, "transport failure: {msg}"),
            ClientError::Status { status, body } => write!(f, "HTTP {status}: {body}"),
            ClientError::RetriesExhausted { status, body } => {
                write!(f, "retries exhausted (last HTTP {status}: {body})")
            }
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Invalid(e) => write!(f, "refused before sending: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// How one ingest call fared.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestReport {
    /// Points the server admitted.
    pub enqueued: u64,
    /// Requests sent (1 for the happy path).
    pub requests: u32,
    /// `429` rejections absorbed along the way.
    pub backpressure_hits: u32,
    /// `503` rejections absorbed along the way.
    pub unavailable_hits: u32,
}

/// A keep-alive HTTP client bound to one server address.
pub struct ServeClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    limits: HttpLimits,
    /// Per-request deadline (connect, write, and read of the response).
    timeout: Duration,
    conn: Option<(TcpStream, Vec<u8>)>,
    /// The request being sent, head and body, rebuilt for each request.
    out: Vec<u8>,
}

impl ServeClient {
    /// A client with default policy and a 5s per-request deadline.
    pub fn new(addr: SocketAddr) -> Self {
        ServeClient {
            addr,
            policy: RetryPolicy::default(),
            limits: HttpLimits::default(),
            timeout: Duration::from_secs(5),
            conn: None,
            out: Vec::new(),
        }
    }

    /// Replace the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the per-request deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// One request with transport-level retry: connection failures and
    /// torn responses reconnect and resend under the backoff schedule.
    /// Status codes are returned as-is — semantic retry (429/503) belongs
    /// to the operation wrappers below.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        let body = body.unwrap_or("");
        self.out.clear();
        put_head(&mut self.out, method, path, None, body.len());
        self.out.extend_from_slice(body.as_bytes());
        self.send()
    }

    /// Sends the request in `out` with transport-level retry. A resend
    /// after a lost response may be the request's second admission.
    fn send(&mut self) -> Result<ClientResponse, ClientError> {
        let mut last_err = String::new();
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                std::thread::sleep(self.policy.backoff(attempt - 1));
            }
            match self.send_once() {
                Ok(response) => return Ok(response),
                Err(e) => {
                    // The connection is in an unknown state; reconnect.
                    self.conn = None;
                    last_err = e;
                }
            }
        }
        Err(ClientError::Transport(last_err))
    }

    fn send_once(&mut self) -> Result<ClientResponse, String> {
        let deadline = Instant::now() + self.timeout;
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            let _ = stream.set_nodelay(true);
            self.conn = Some((stream, Vec::new()));
        }
        let (stream, carry) = self.conn.as_mut().expect("connection just ensured");

        let remaining = deadline
            .checked_duration_since(Instant::now())
            .unwrap_or(Duration::from_millis(1));
        stream
            .set_write_timeout(Some(remaining.max(Duration::from_millis(1))))
            .map_err(|e| e.to_string())?;
        stream
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;

        let response = read_response(stream, carry, &self.limits, deadline)
            .map_err(|e| format!("response: {}", e.describe()))?;
        if !response.keep_alive {
            self.conn = None;
        }
        Ok(response)
    }

    /// Register a tenant (optionally with training data). `dims` is
    /// mandatory; pass `seed` for reproducible detectors.
    pub fn register(
        &mut self,
        tenant: &TenantId,
        dims: usize,
        seed: u64,
        training: &[DataPoint],
    ) -> Result<ClientResponse, ClientError> {
        let body = format!(
            "{{\"dims\":{dims},\"seed\":{seed},\"training\":{}}}",
            points_json(training)
        );
        let path = format!("/tenants/{}", percent_encode(tenant.as_str()));
        let response = self.request("PUT", &path, Some(&body))?;
        expect_status(response, 201)
    }

    /// Evict a tenant.
    pub fn evict(&mut self, tenant: &TenantId) -> Result<ClientResponse, ClientError> {
        let path = format!("/tenants/{}", percent_encode(tenant.as_str()));
        let response = self.request("DELETE", &path, None)?;
        expect_status(response, 200)
    }

    /// Ingest a batch as f64 lanes, absorbing backpressure: `429` waits
    /// out the server's `Retry-After` (scaled by the policy unit, floored
    /// by the backoff schedule) and resumes from the reported `enqueued`
    /// count; `503` backs off and retries the remainder the same way.
    /// Points of differing widths are [`ClientError::Invalid`].
    pub fn ingest(
        &mut self,
        tenant: &TenantId,
        points: &[DataPoint],
    ) -> Result<IngestReport, ClientError> {
        let dims = points.first().map_or(0, DataPoint::dims);
        if let Some(odd) = points.iter().find(|p| p.dims() != dims) {
            return Err(ClientError::Invalid(SpotError::DimensionMismatch {
                expected: dims,
                got: odd.dims(),
            }));
        }
        let lane_dims = u32::try_from(dims)
            .map_err(|_| ClientError::Invalid(SpotError::TooManyDimensions(dims)))?;
        let path = format!("/tenants/{}/ingest", percent_encode(tenant.as_str()));
        let mut report = IngestReport::default();
        let mut offset = 0usize;
        let mut attempt = 0u32;
        while offset < points.len() {
            let tail = &points[offset..];
            let len = points::encoded_len(dims, tail.len());
            self.out.clear();
            put_head(&mut self.out, "POST", &path, Some(points::MEDIA_TYPE), len);
            points::encode(&mut self.out, lane_dims, tail);
            let response = self.send()?;
            report.requests += 1;
            let accepted = parse_enqueued(&response).unwrap_or(0);
            offset += accepted;
            match response.status {
                200 => {
                    report.enqueued += accepted as u64;
                    return Ok(report);
                }
                429 | 503 => {
                    report.enqueued += accepted as u64;
                    if response.status == 429 {
                        report.backpressure_hits += 1;
                    } else {
                        report.unavailable_hits += 1;
                    }
                    attempt += 1;
                    if attempt >= self.policy.max_attempts {
                        return Err(ClientError::RetriesExhausted {
                            status: response.status,
                            body: response.text(),
                        });
                    }
                    let backoff = self.policy.backoff(attempt - 1);
                    let hinted = response
                        .header("retry-after")
                        .and_then(|v| v.parse::<u32>().ok())
                        .map(|units| self.policy.retry_after_unit * units);
                    // Honor the server hint but never retry sooner than
                    // our own schedule would.
                    std::thread::sleep(hinted.map_or(backoff, |h| h.max(backoff)));
                }
                status => {
                    return Err(ClientError::Status {
                        status,
                        body: response.text(),
                    });
                }
            }
        }
        Ok(report)
    }

    /// Force a synchronous drain of a tenant's queue on the server.
    pub fn drain(&mut self, tenant: &TenantId) -> Result<ClientResponse, ClientError> {
        let path = format!("/tenants/{}/drain", percent_encode(tenant.as_str()));
        let response = self.request("POST", &path, Some("{}"))?;
        expect_status(response, 200)
    }

    /// Take a durable checkpoint of the whole fleet.
    pub fn checkpoint(&mut self) -> Result<ClientResponse, ClientError> {
        let response = self.request("POST", "/admin/checkpoint", Some("{}"))?;
        expect_status(response, 200)
    }

    /// Restore a tenant from the newest valid checkpoint generation.
    pub fn restore(&mut self, tenant: &TenantId) -> Result<ClientResponse, ClientError> {
        let path = format!("/tenants/{}/restore", percent_encode(tenant.as_str()));
        let response = self.request("POST", &path, Some("{}"))?;
        expect_status(response, 200)
    }

    /// Per-tenant stats document (raw JSON).
    pub fn tenant_stats(&mut self, tenant: &TenantId) -> Result<String, ClientError> {
        let path = format!("/tenants/{}/stats", percent_encode(tenant.as_str()));
        let response = self.request("GET", &path, None)?;
        Ok(expect_status(response, 200)?.text())
    }

    /// Whole-service stats document (raw JSON).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let response = self.request("GET", "/stats", None)?;
        Ok(expect_status(response, 200)?.text())
    }

    /// `true` when `/healthz` answers 200.
    pub fn healthy(&mut self) -> bool {
        matches!(self.request("GET", "/healthz", None), Ok(r) if r.status == 200)
    }

    /// `true` when `/readyz` answers 200.
    pub fn ready(&mut self) -> bool {
        matches!(self.request("GET", "/readyz", None), Ok(r) if r.status == 200)
    }
}

fn expect_status(response: ClientResponse, want: u16) -> Result<ClientResponse, ClientError> {
    if response.status == want {
        Ok(response)
    } else {
        Err(ClientError::Status {
            status: response.status,
            body: response.text(),
        })
    }
}

/// Appends a request head announcing a `len`-byte body.
fn put_head(out: &mut Vec<u8>, method: &str, path: &str, media: Option<&str>, len: usize) {
    let media = media.map_or(String::new(), |m| format!("content-type: {m}\r\n"));
    write!(
        out,
        "{method} {path} HTTP/1.1\r\nhost: spot\r\n{media}content-length: {len}\r\n\r\n"
    )
    .expect("writing to a Vec cannot fail");
}

fn parse_enqueued(response: &ClientResponse) -> Option<usize> {
    let doc: Value = serde_json::from_str(&response.text()).ok()?;
    match doc.get_field("enqueued") {
        Some(Value::U64(n)) => usize::try_from(*n).ok(),
        Some(Value::I64(n)) => usize::try_from(*n).ok(),
        _ => None,
    }
}

/// Render points as a JSON array-of-arrays with full `f64` round-trip
/// fidelity (the serde_json compat crate prints floats losslessly).
fn points_json(points: &[DataPoint]) -> String {
    let value = Value::Array(
        points
            .iter()
            .map(|p| Value::Array(p.values().iter().map(|v| Value::F64(*v)).collect()))
            .collect(),
    );
    serde_json::to_string(&value).expect("value tree always renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic() {
        let policy = RetryPolicy {
            max_attempts: 8,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            retry_after_unit: Duration::from_millis(1),
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(10));
        assert_eq!(policy.backoff(1), Duration::from_millis(20));
        assert_eq!(policy.backoff(2), Duration::from_millis(40));
        assert_eq!(policy.backoff(3), Duration::from_millis(80));
        // Capped from here on.
        assert_eq!(policy.backoff(4), Duration::from_millis(100));
        assert_eq!(policy.backoff(31), Duration::from_millis(100));
    }

    #[test]
    fn points_render_losslessly() {
        let p = vec![DataPoint::new(vec![0.1, 2.5e-3, 1.0 / 3.0])];
        let text = points_json(&p);
        let doc: Value = serde_json::from_str(&text).unwrap();
        let row = doc.get_index(0).unwrap();
        for (i, want) in [0.1, 2.5e-3, 1.0 / 3.0].iter().enumerate() {
            match row.get_index(i).unwrap() {
                Value::F64(f) => assert_eq!(f, want, "lossy float at {i}"),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }
}
