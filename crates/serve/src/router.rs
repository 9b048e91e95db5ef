//! Route dispatch and the status-code ↔ [`SpotError`] mapping.
//!
//! Every handler is a pure function of the shared [`AppState`] and one
//! parsed request; connection concerns (deadlines, keep-alive, shedding)
//! live in `server.rs`. The observability routes (`/healthz`, `/readyz`,
//! `/stats`, per-tenant stats) ride only the monitoring plane — each
//! tenant's stats-and-footprint snapshot and the atomic queue/health
//! mirrors — never a detector lock, so they stay responsive while every
//! worker is busy processing batches.

use crate::http::{percent_decode, Method, Request, Response};
use crate::points;
use crate::server::AppState;
use serde_json::Value;
use spot::SpotBuilder;
use spot_types::{DataPoint, DomainBounds, SpotError, TenantId};
use std::sync::atomic::Ordering;

/// HTTP status for a [`SpotError`] surfaced by a handler.
///
/// | error | status |
/// |---|---|
/// | `UnknownTenant` | 404 |
/// | `DuplicateTenant`, `NotLearned` | 409 |
/// | `TenantPoisoned`, `ShuttingDown` | 503 |
/// | input/config errors | 400 |
/// | persistence corruption / I/O | 500 |
pub fn status_for(err: &SpotError) -> u16 {
    match err {
        SpotError::UnknownTenant(_) => 404,
        SpotError::DuplicateTenant(_) | SpotError::NotLearned => 409,
        SpotError::TenantPoisoned { .. } | SpotError::ShuttingDown => 503,
        SpotError::DimensionMismatch { .. }
        | SpotError::InvalidConfig(_)
        | SpotError::EmptyTrainingSet
        | SpotError::TooManyDimensions(_)
        | SpotError::NonFiniteValue { .. } => 400,
        SpotError::UnsupportedSnapshotVersion(_)
        | SpotError::SnapshotCorrupt(_)
        | SpotError::WalCorrupt(_)
        | SpotError::Io(_) => 500,
    }
}

/// `Retry-After` seconds for a full-queue rejection, derived from queue
/// occupancy: one second per micro-batch pump pass the backlog needs,
/// clamped to `1..=8`. Deterministic, so clients and tests can pin it.
pub fn retry_after_secs(queued: usize, micro_batch: usize) -> u64 {
    (queued.div_ceil(micro_batch.max(1)) as u64).clamp(1, 8)
}

/// Dispatch one request.
pub(crate) fn route(state: &AppState, req: &Request) -> Response {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    let path = req
        .target
        .split_once('?')
        .map_or(req.target.as_str(), |(p, _)| p);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let draining = state.draining.load(Ordering::Acquire);

    // During a graceful drain, mutating routes are refused up front so the
    // drain phase sees a frozen fleet; read-only routes keep answering
    // (ops will poll /stats while the drain runs).
    if draining && req.method != Method::Get && !matches!(segments.as_slice(), ["healthz"]) {
        return error_body(503, "the fleet is shutting down; ingestion is gated", None);
    }

    match (req.method, segments.as_slice()) {
        (Method::Get, ["healthz"]) => healthz(state, draining),
        (Method::Get, ["readyz"]) => readyz(state, draining),
        (Method::Get, ["stats"]) => stats(state, draining),
        (Method::Get, ["tenants", id, "stats"]) => with_tenant(id, |id| tenant_stats(state, id)),
        (Method::Put, ["tenants", id]) => with_tenant(id, |id| register(state, id, &req.body)),
        (Method::Delete, ["tenants", id]) => with_tenant(id, |id| evict(state, id)),
        (Method::Post, ["tenants", id, "ingest"]) => with_tenant(id, |id| ingest(state, id, req)),
        (Method::Post, ["tenants", id, "drain"]) => with_tenant(id, |id| drain(state, id)),
        (Method::Post, ["tenants", id, "restore"]) => with_tenant(id, |id| restore(state, id)),
        (Method::Post, ["admin", "checkpoint"]) => checkpoint(state),
        (_, ["healthz" | "readyz" | "stats"]) | (_, ["admin", "checkpoint"]) => {
            error_body(405, "method not allowed", None)
        }
        (_, ["tenants", ..]) => error_body(405, "method not allowed", None),
        _ => error_body(404, "no such route", None),
    }
}

/// Decode the tenant path segment and run the handler.
fn with_tenant(raw: &str, f: impl FnOnce(&TenantId) -> Response) -> Response {
    let decoded = match percent_decode(raw) {
        Some(d) => d,
        None => return error_body(400, "malformed percent-encoding in tenant id", None),
    };
    match TenantId::new(&decoded) {
        Ok(id) => f(&id),
        Err(e) => error_body(400, &e.to_string(), None),
    }
}

fn healthz(state: &AppState, draining: bool) -> Response {
    if draining {
        Response::json(503, obj(vec![("status", Value::Str("draining".into()))]))
    } else {
        Response::json(
            200,
            obj(vec![
                ("status", Value::Str("ok".into())),
                ("tenants", Value::U64(state.fleet.len() as u64)),
            ]),
        )
    }
}

fn readyz(state: &AppState, draining: bool) -> Response {
    let fs = state.fleet.stats();
    if draining {
        return Response::json(503, obj(vec![("status", Value::Str("draining".into()))]));
    }
    // Ready means the fleet can make progress: not draining and not every
    // tenant dead. An empty fleet is ready (registration is the first
    // request a fresh deployment sees).
    let alive = fs.tenants - fs.quarantined - fs.failed;
    if fs.tenants > 0 && alive == 0 {
        return Response::json(
            503,
            obj(vec![
                ("status", Value::Str("degraded".into())),
                ("quarantined", Value::U64(fs.quarantined as u64)),
                ("failed", Value::U64(fs.failed as u64)),
            ]),
        );
    }
    Response::json(
        200,
        obj(vec![
            ("status", Value::Str("ready".into())),
            ("tenants", Value::U64(fs.tenants as u64)),
            ("queued", Value::U64(fs.queued as u64)),
        ]),
    )
}

fn stats(state: &AppState, draining: bool) -> Response {
    let fs = state.fleet.stats();
    let fp = state.fleet.footprint();
    let c = &state.counters;
    Response::json(
        200,
        obj(vec![
            ("draining", Value::Bool(draining)),
            (
                "fleet",
                obj_value(vec![
                    ("tenants", Value::U64(fs.tenants as u64)),
                    ("quarantined", Value::U64(fs.quarantined as u64)),
                    ("failed", Value::U64(fs.failed as u64)),
                    ("queued", Value::U64(fs.queued as u64)),
                    ("processed", Value::U64(fs.processed)),
                    ("outliers", Value::U64(fs.outliers)),
                    ("evolutions", Value::U64(fs.evolutions)),
                    ("drift_events", Value::U64(fs.drift_events)),
                    ("panics", Value::U64(fs.panics)),
                    ("recoveries", Value::U64(fs.recoveries)),
                    ("wal_prune_failures", Value::U64(fs.wal_prune_failures)),
                    ("wal_syncs", Value::U64(fs.wal_syncs)),
                    ("approx_bytes", Value::U64(fp.approx_bytes as u64)),
                ]),
            ),
            (
                "server",
                obj_value(vec![
                    ("accepted", Value::U64(c.accepted.load(Ordering::Relaxed))),
                    (
                        "shed_connections",
                        Value::U64(c.shed_connections.load(Ordering::Relaxed)),
                    ),
                    ("requests", Value::U64(c.requests.load(Ordering::Relaxed))),
                    ("timeouts", Value::U64(c.timeouts.load(Ordering::Relaxed))),
                    (
                        "bad_requests",
                        Value::U64(c.bad_requests.load(Ordering::Relaxed)),
                    ),
                    (
                        "forced_closes",
                        Value::U64(c.forced_closes.load(Ordering::Relaxed)),
                    ),
                    (
                        "sink_panics",
                        Value::U64(c.sink_panics.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
        ]),
    )
}

fn tenant_stats(state: &AppState, id: &TenantId) -> Response {
    let stats = match state.fleet.tenant_stats(id) {
        Ok(s) => s,
        Err(e) => return spot_error(&e, None),
    };
    let queued = state.fleet.queue_len(id).unwrap_or(0);
    let health = state.fleet.health_tag(id).unwrap_or("unknown");
    let wal = match state.fleet.wal_position(id) {
        Ok(Some(pos)) => Value::U64(pos),
        _ => Value::Null,
    };
    Response::json(
        200,
        obj(vec![
            ("tenant", Value::Str(id.to_string())),
            ("health", Value::Str(health.to_string())),
            ("queued", Value::U64(queued as u64)),
            ("processed", Value::U64(stats.processed)),
            ("outliers", Value::U64(stats.outliers)),
            ("evolutions", Value::U64(stats.evolutions)),
            ("os_added", Value::U64(stats.os_added)),
            ("drift_events", Value::U64(stats.drift_events)),
            ("cells_pruned", Value::U64(stats.cells_pruned)),
            ("wal_position", wal),
        ]),
    )
}

fn register(state: &AppState, id: &TenantId, body: &[u8]) -> Response {
    let doc = match parse_body(body) {
        Ok(d) => d,
        Err(r) => return r,
    };
    let dims = match doc.get_field("dims").and_then(as_usize) {
        Some(d) if d > 0 => d,
        _ => return error_body(400, "field \"dims\" (positive integer) is required", None),
    };
    let bounds = match doc.get_field("bounds") {
        None => DomainBounds::unit(dims),
        Some(b) => {
            let min = b.get_field("min").and_then(as_f64_array);
            let max = b.get_field("max").and_then(as_f64_array);
            match (min, max) {
                (Some(min), Some(max)) => match DomainBounds::new(min, max) {
                    Ok(b) => b,
                    Err(e) => return spot_error(&e, None),
                },
                _ => {
                    return error_body(400, "\"bounds\" needs \"min\" and \"max\" arrays", None);
                }
            }
        }
    };
    let mut builder = SpotBuilder::new(bounds);
    if let Some(g) = doc.get_field("granularity").and_then(as_usize) {
        builder = builder.granularity(g.min(u16::MAX as usize) as u16);
    }
    if let Some(d) = doc.get_field("fs_max_dimension").and_then(as_usize) {
        builder = builder.fs_max_dimension(d);
    }
    if let Some(s) = doc.get_field("seed").and_then(as_u64) {
        builder = builder.seed(s);
    }
    if let Some(rd) = doc.get_field("rd_threshold").and_then(as_f64) {
        builder = builder.rd_threshold(rd);
    }
    let config = match builder.build_config() {
        Ok(c) => c,
        Err(e) => return spot_error(&e, None),
    };
    if let Err(e) = state.fleet.register(id.clone(), config) {
        return spot_error(&e, None);
    }
    let training = match doc.get_field("training") {
        None => Vec::new(),
        Some(t) => match as_points(t) {
            Some(points) => points,
            None => {
                // Registration must stay atomic: a half-registered tenant
                // with unparseable training data is removed again.
                let _ = state.fleet.evict(id);
                return error_body(400, "\"training\" must be an array of number arrays", None);
            }
        },
    };
    let trained = training.len();
    if !training.is_empty() {
        if let Err(e) = state.fleet.learn(id, &training) {
            let _ = state.fleet.evict(id);
            return spot_error(&e, None);
        }
    }
    Response::json(
        201,
        obj(vec![
            ("tenant", Value::Str(id.to_string())),
            ("trained", Value::U64(trained as u64)),
        ]),
    )
}

fn evict(state: &AppState, id: &TenantId) -> Response {
    match state.fleet.evict(id) {
        Ok(()) => Response::json(200, obj(vec![("evicted", Value::Str(id.to_string()))])),
        Err(e) => spot_error(&e, None),
    }
}

/// One decoded ingest body: `n` points of `dims` coordinates, row-major
/// in `lanes`.
struct Batch {
    dims: usize,
    n: usize,
    lanes: Vec<f64>,
    /// JSON only: the width of the first row whose width differs from the
    /// first row's. `lanes` holds the rows before it.
    ragged: Option<usize>,
}

fn ingest(state: &AppState, id: &TenantId, req: &Request) -> Response {
    // Only the exact binary media type selects lanes; anything else, or no
    // header at all, is a JSON body.
    let batch = if req.header("content-type") == Some(points::MEDIA_TYPE) {
        points::decode(&req.body)
            .map(|(dims, lanes)| Batch {
                dims,
                n: lanes.len() / dims,
                lanes,
                ragged: None,
            })
            .map_err(|e| error_body(400, e, Some(0)))
    } else {
        json_batch(&req.body)
    };
    let batch = match batch {
        Ok(b) => b,
        Err(r) => return r,
    };
    // Validate the whole batch *before* admitting anything, so a batch is
    // all-or-nothing: the fleet refuses a bad point at admission too, but
    // only that point — the ones before it would already be queued.
    let dims = match state.fleet.tenant_dims(id) {
        Ok(d) => d,
        Err(e) => return spot_error(&e, None),
    };
    // Row by row, a width check then a NaN scan: a uniform batch fails the
    // width check on its first row or never, so this order is per-row order.
    let mismatch = |got| SpotError::DimensionMismatch {
        expected: dims,
        got,
    };
    let invalid = if batch.n > 0 && batch.dims != dims {
        Some(mismatch(batch.dims))
    } else if let Some(at) = batch.lanes.iter().position(|v| v.is_nan()) {
        Some(SpotError::NonFiniteValue { dim: at % dims })
    } else {
        batch.ragged.map(mismatch)
    };
    if let Some(e) = invalid {
        return spot_error(&e, Some(0));
    }
    let mut enqueued = 0u64;
    for row in batch.lanes.chunks_exact(dims) {
        match state.fleet.try_ingest(id, DataPoint::new(row.to_vec())) {
            Ok(true) => enqueued += 1,
            Ok(false) => {
                // Queue full: `try_ingest` refuses and the point stays
                // with the client. 429 carries how far we got plus a
                // Retry-After derived from the backlog, so a well-behaved
                // client resumes from the tail after the pump catches up.
                let queued = state.fleet.queue_len(id).unwrap_or(0);
                let config = state.fleet.config();
                let secs = retry_after_secs(queued, config.micro_batch);
                return error_body(429, "tenant ingest queue is full", Some(enqueued))
                    .header("retry-after", secs.to_string());
            }
            Err(e) => return spot_error(&e, Some(enqueued)),
        }
    }
    Response::json(200, obj(vec![("enqueued", Value::U64(enqueued))]))
}

fn drain(state: &AppState, id: &TenantId) -> Response {
    let (mut drained, mut outliers) = (0, 0);
    let counted = state.drain_backlog(id, |verdicts| {
        drained += verdicts.len() as u64;
        outliers += verdicts.iter().filter(|v| v.outlier).count() as u64;
    });
    match counted {
        Ok(()) => Response::json(
            200,
            obj(vec![
                ("drained", Value::U64(drained)),
                ("outliers", Value::U64(outliers)),
            ]),
        ),
        Err(e) => spot_error(&e, None),
    }
}

fn restore(state: &AppState, id: &TenantId) -> Response {
    let store = match &state.store {
        Some(s) => s,
        None => return error_body(409, "no checkpoint store attached", None),
    };
    let scan = match store.load_latest() {
        Ok(s) => s,
        Err(e) => return spot_error(&e, None),
    };
    let (generation, checkpoint) = match scan.recovered {
        Some(found) => found,
        None => return error_body(404, "no valid checkpoint generation", None),
    };
    match state.fleet.restore_tenant(&checkpoint, id) {
        Ok(()) => Response::json(
            200,
            obj(vec![
                ("tenant", Value::Str(id.to_string())),
                ("generation", Value::U64(generation)),
            ]),
        ),
        Err(e) => spot_error(&e, None),
    }
}

fn checkpoint(state: &AppState) -> Response {
    let store = match &state.store {
        Some(s) => s,
        None => return error_body(409, "no checkpoint store attached", None),
    };
    match state.fleet.checkpoint_durable(store) {
        Ok(generation) => Response::json(200, obj(vec![("generation", Value::U64(generation))])),
        Err(e) => spot_error(&e, None),
    }
}

/// Render a [`SpotError`] as its mapped status with a JSON body; ingest
/// handlers pass `enqueued` so partially accepted batches are resumable.
fn spot_error(e: &SpotError, enqueued: Option<u64>) -> Response {
    error_body(status_for(e), &e.to_string(), enqueued)
}

fn error_body(status: u16, message: &str, enqueued: Option<u64>) -> Response {
    let mut fields = vec![("error", Value::Str(message.to_string()))];
    if let Some(n) = enqueued {
        fields.push(("enqueued", Value::U64(n)));
    }
    Response::json(status, obj(fields))
}

/// The JSON ingest body, `{"points": [[number, …], …]}`, as a [`Batch`].
fn json_batch(body: &[u8]) -> Result<Batch, Response> {
    let points = parse_body(body)?
        .get_field("points")
        .and_then(as_points)
        .ok_or_else(|| error_body(400, "\"points\" must be an array of number arrays", None))?;
    let dims = points.first().map_or(0, DataPoint::dims);
    let n = points.iter().take_while(|p| p.dims() == dims).count();
    let lanes = points[..n]
        .iter()
        .flat_map(DataPoint::values)
        .copied()
        .collect();
    let ragged = points.get(n).map(DataPoint::dims);
    Ok(Batch {
        dims,
        n,
        lanes,
        ragged,
    })
}

fn parse_body(body: &[u8]) -> Result<Value, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| error_body(400, "request body is not UTF-8", None))?;
    serde_json::from_str::<Value>(text)
        .map_err(|e| error_body(400, &format!("malformed JSON body: {e}"), None))
}

fn obj(fields: Vec<(&str, Value)>) -> String {
    serde_json::to_string(&obj_value(fields)).expect("value tree always renders")
}

fn obj_value(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn as_usize(v: &Value) -> Option<usize> {
    as_u64(v).and_then(|n| usize::try_from(n).ok())
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

fn as_f64_array(v: &Value) -> Option<Vec<f64>> {
    match v {
        Value::Array(items) => items.iter().map(as_f64).collect(),
        _ => None,
    }
}

fn as_points(v: &Value) -> Option<Vec<DataPoint>> {
    match v {
        Value::Array(items) => items
            .iter()
            .map(|p| as_f64_array(p).map(DataPoint::new))
            .collect(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping_is_total() {
        assert_eq!(status_for(&SpotError::UnknownTenant("t".into())), 404);
        assert_eq!(status_for(&SpotError::DuplicateTenant("t".into())), 409);
        assert_eq!(status_for(&SpotError::NotLearned), 409);
        assert_eq!(status_for(&SpotError::ShuttingDown), 503);
        assert_eq!(
            status_for(&SpotError::TenantPoisoned {
                tenant: "t".into(),
                panic: "boom".into()
            }),
            503
        );
        assert_eq!(status_for(&SpotError::NonFiniteValue { dim: 0 }), 400);
        assert_eq!(
            status_for(&SpotError::DimensionMismatch {
                expected: 2,
                got: 3
            }),
            400
        );
        assert_eq!(status_for(&SpotError::WalCorrupt("x".into())), 500);
        assert_eq!(status_for(&SpotError::Io("x".into())), 500);
    }

    #[test]
    fn retry_after_tracks_backlog() {
        assert_eq!(retry_after_secs(0, 256), 1);
        assert_eq!(retry_after_secs(1, 256), 1);
        assert_eq!(retry_after_secs(257, 256), 2);
        assert_eq!(retry_after_secs(1024, 256), 4);
        assert_eq!(retry_after_secs(usize::MAX, 256), 8);
        // Degenerate micro-batch cannot divide by zero.
        assert_eq!(retry_after_secs(10, 0), 8);
    }
}
