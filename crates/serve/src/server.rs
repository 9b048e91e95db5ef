//! The SPOT fleet HTTP server: bounded accept, worker pool, one pump
//! thread per available core, and the graceful shutdown protocol.
//!
//! Robustness invariants (see `docs/service.md`):
//!
//! - **Bounded everything.** At most [`ServeConfig::max_connections`]
//!   accepted connections exist at once; beyond that the accept loop sheds
//!   with a best-effort `503` and an immediate close, so overload degrades
//!   to fast rejections instead of unbounded queues.
//! - **Deadlines everywhere.** Each request must arrive within
//!   [`ServeConfig::read_timeout`] of its first byte, responses must flush
//!   within [`ServeConfig::write_timeout`], and idle keep-alive
//!   connections are reclaimed after [`ServeConfig::idle_timeout`].
//! - **Ordered verdict delivery.** A configured [`VerdictSink`] observes
//!   every tenant's verdicts in exact arrival order: the pump threads, the
//!   HTTP drain route and the shutdown drain all deliver through
//!   [`SpotFleet::drain_with`], inside the tenant's drain lock, so one
//!   tenant's batches reach the sink in commit order while different
//!   tenants are delivered in parallel. A panicking sink is caught and
//!   counted ([`ServerStats::sink_panics`]); delivery goes on.
//! - **A request cannot remove a worker.** A panic while a request is read
//!   or routed is caught and counted ([`ServerStats::request_panics`]);
//!   the request is answered `500` where the stream still takes it, its
//!   connection closes, and the worker serves the next one.
//! - **Graceful shutdown loses nothing admitted.** [`SpotServer::shutdown`]
//!   stops accepting, closes idle connections, lets in-flight requests
//!   finish under [`ServeConfig::drain_deadline`] (then force-closes the
//!   stragglers), gates fleet admission behind
//!   [`SpotError::ShuttingDown`], drains every tenant queue into the sink,
//!   and takes a final durable checkpoint when a store is attached.

use crate::http::{read_request, HttpError, HttpLimits, NextRequest, Response};
use crate::router::route;
use spot::Verdict;
use spot_runtime::{CheckpointStore, SpotFleet};
use spot_types::{Result, SpotError, TenantId};
use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Verdict consumer fed by the pump threads and the drain paths.
///
/// It may be called concurrently for different tenants, never for one
/// tenant: each tenant's micro-batches arrive in arrival order, each
/// exactly once. A call that panics is caught and counted in
/// [`ServerStats::sink_panics`]; its batch counts as delivered.
pub type VerdictSink = Arc<dyn Fn(&TenantId, &[Verdict]) + Send + Sync>;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Hard cap on accepted connections (active + handoff queue); beyond
    /// it the accept loop sheds with `503`.
    pub max_connections: usize,
    /// Budget for reading one request once its first byte arrived
    /// (slow-loris defense).
    pub read_timeout: Duration,
    /// Budget for writing one response.
    pub write_timeout: Duration,
    /// How long an idle keep-alive connection may wait for its next
    /// request.
    pub idle_timeout: Duration,
    /// How long [`SpotServer::shutdown`] waits for in-flight requests
    /// before force-closing their connections.
    pub drain_deadline: Duration,
    /// Wire-level input limits.
    pub limits: HttpLimits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(3),
            limits: HttpLimits::default(),
        }
    }
}

/// Monotonic service counters, all updated with relaxed atomics (they are
/// observability, not synchronization).
#[derive(Debug, Default)]
pub(crate) struct ServerCounters {
    pub accepted: AtomicU64,
    pub shed_connections: AtomicU64,
    pub requests: AtomicU64,
    pub timeouts: AtomicU64,
    pub bad_requests: AtomicU64,
    pub forced_closes: AtomicU64,
    pub sink_panics: AtomicU64,
    pub request_panics: AtomicU64,
}

/// Snapshot of the server counters (see [`SpotServer::stats`]).
#[derive(Debug, Clone, Copy)]
pub struct ServerStats {
    /// Connections accepted, including the ones then shed at the cap.
    pub accepted: u64,
    /// Connections rejected at accept time because the cap was reached.
    pub shed_connections: u64,
    /// Requests parsed and routed.
    pub requests: u64,
    /// Requests abandoned because the read deadline expired.
    pub timeouts: u64,
    /// Connections closed on malformed/oversized input.
    pub bad_requests: u64,
    /// Connections force-closed by the shutdown drain deadline.
    pub forced_closes: u64,
    /// Verdict sink calls that panicked (caught; delivery went on).
    pub sink_panics: u64,
    /// Requests whose reading or routing panicked (caught: answered `500`
    /// where possible, the connection closed, the worker kept).
    pub request_panics: u64,
    /// Connections currently being served.
    pub active_connections: usize,
    /// Accepted connections waiting for a worker.
    pub queued_connections: usize,
}

/// What one graceful shutdown accomplished.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Verdicts produced by the final queue drain (points that were
    /// admitted but not yet pumped when shutdown began).
    pub drained: u64,
    /// Generation of the final durable checkpoint, when a store is
    /// attached.
    pub generation: Option<u64>,
    /// In-flight connections cut by the drain deadline.
    pub forced_closes: u64,
    /// Total requests the server routed over its lifetime.
    pub requests: u64,
    /// Tenants whose final drain failed (quarantined mid-flight); their
    /// queued points stay recoverable through the WAL.
    pub undrained: Vec<TenantId>,
}

/// State shared between the router and the connection machinery.
pub(crate) struct AppState {
    pub fleet: SpotFleet,
    pub store: Option<CheckpointStore>,
    pub draining: AtomicBool,
    pub counters: ServerCounters,
    pub sink: Option<VerdictSink>,
}

impl AppState {
    /// Hands one committed micro-batch to the sink, catching a panic.
    fn deliver(&self, id: &TenantId, verdicts: &[Verdict]) {
        let Some(sink) = &self.sink else { return };
        if catch_unwind(AssertUnwindSafe(|| sink(id, verdicts))).is_err() {
            self.counters.sink_panics.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drains `id`'s current backlog into the sink, each micro-batch as it
    /// commits, passing it to `seen` too. The queued count is taken once,
    /// as in [`SpotFleet::drain_fully`]; an error leaves the batches
    /// before it delivered.
    pub(crate) fn drain_backlog(
        &self,
        id: &TenantId,
        mut seen: impl FnMut(&[Verdict]),
    ) -> Result<()> {
        let mut remaining = self.fleet.queue_len(id)?;
        while remaining > 0 {
            let n = self.fleet.drain_with(id, |verdicts| {
                seen(verdicts);
                self.deliver(id, verdicts);
            })?;
            if n == 0 {
                break;
            }
            remaining = remaining.saturating_sub(n);
        }
        Ok(())
    }
}

struct ConnEntry {
    stream: TcpStream,
    /// True while a fully-received request is being processed; shutdown
    /// force-closes idle (`false`) connections immediately and only waits
    /// on busy ones.
    busy: Arc<AtomicBool>,
}

struct Shared {
    app: AppState,
    config: ServeConfig,
    /// Accepted connections awaiting a worker.
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    accepting: AtomicBool,
    stop_workers: AtomicBool,
    stop_pump: AtomicBool,
    /// Connections currently owned by workers.
    active: AtomicUsize,
    /// Registry of live connections (clone + busy flag) for shutdown.
    conns: Mutex<HashMap<u64, ConnEntry>>,
    next_conn: AtomicU64,
}

/// Builder for [`SpotServer`].
pub struct ServerBuilder {
    fleet: SpotFleet,
    config: ServeConfig,
    store: Option<CheckpointStore>,
    sink: Option<VerdictSink>,
    pump: bool,
}

impl ServerBuilder {
    /// Replace the default [`ServeConfig`].
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach a checkpoint store: enables `/admin/checkpoint` and
    /// `/tenants/{id}/restore`, and makes shutdown take a final durable
    /// checkpoint.
    pub fn store(mut self, store: CheckpointStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Attach a verdict sink fed in per-tenant arrival order.
    pub fn verdict_sink(mut self, sink: VerdictSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Enable/disable the background pump threads, one per available core
    /// (default on). With the pump off, verdicts only move on explicit
    /// `/drain` requests and at shutdown — useful for deterministic tests.
    pub fn pump(mut self, enabled: bool) -> Self {
        self.pump = enabled;
        self
    }

    /// Bind and start serving. `addr` with port `0` picks a free port
    /// (see [`SpotServer::local_addr`]).
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<SpotServer> {
        let listener = TcpListener::bind(addr).map_err(|e| SpotError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| SpotError::Io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| SpotError::Io(e.to_string()))?;

        let shared = Arc::new(Shared {
            app: AppState {
                fleet: self.fleet,
                store: self.store,
                draining: AtomicBool::new(false),
                counters: ServerCounters::default(),
                sink: self.sink,
            },
            config: self.config,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            accepting: AtomicBool::new(true),
            stop_workers: AtomicBool::new(false),
            stop_pump: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("spot-serve-accept".to_string())
                    .spawn(move || accept_loop(&shared, listener))
                    .map_err(|e| SpotError::Io(e.to_string()))?,
            );
        }
        for i in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("spot-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| SpotError::Io(e.to_string()))?,
            );
        }
        let pumps = if self.pump {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            0
        };
        for k in 0..pumps {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("spot-serve-pump-{k}"))
                    .spawn(move || pump_loop(&shared, k, pumps))
                    .map_err(|e| SpotError::Io(e.to_string()))?,
            );
        }

        Ok(SpotServer {
            shared,
            addr,
            threads,
            stopped: false,
        })
    }
}

/// A running fleet server. Dropping it without calling
/// [`SpotServer::shutdown`] stops the threads abruptly (no final drain or
/// checkpoint).
pub struct SpotServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    stopped: bool,
}

impl SpotServer {
    /// Start building a server over `fleet`.
    pub fn builder(fleet: SpotFleet) -> ServerBuilder {
        ServerBuilder {
            fleet,
            config: ServeConfig::default(),
            store: None,
            sink: None,
            pump: true,
        }
    }

    /// The bound address (resolves port `0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fleet this server fronts.
    pub fn fleet(&self) -> &SpotFleet {
        &self.shared.app.fleet
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.app.counters;
        ServerStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            shed_connections: c.shed_connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            bad_requests: c.bad_requests.load(Ordering::Relaxed),
            forced_closes: c.forced_closes.load(Ordering::Relaxed),
            sink_panics: c.sink_panics.load(Ordering::Relaxed),
            request_panics: c.request_panics.load(Ordering::Relaxed),
            active_connections: self.shared.active.load(Ordering::Relaxed),
            queued_connections: lock(&self.shared.queue).len(),
        }
    }

    /// The graceful shutdown protocol, in order:
    ///
    /// 1. Set the draining flag and gate fleet admission
    ///    ([`SpotError::ShuttingDown`]); stop accepting.
    /// 2. Close idle keep-alive connections immediately; wait up to
    ///    [`ServeConfig::drain_deadline`] for in-flight requests, then
    ///    force-close stragglers.
    /// 3. Stop the worker and pump threads.
    /// 4. Drain every tenant queue into the verdict sink, each tenant's
    ///    micro-batches in arrival order — the admission gate guarantees
    ///    the backlog is frozen, so nothing admitted is missed.
    /// 5. Take a final durable checkpoint when a store is attached: after
    ///    this, a process exit loses nothing the WAL admitted.
    /// 6. Re-open fleet admission (the in-process fleet outlives the
    ///    server and stays usable).
    pub fn shutdown(mut self) -> Result<ShutdownReport> {
        let shared = Arc::clone(&self.shared);
        let app = &shared.app;

        // 1. Gate admission, stop accepting.
        app.draining.store(true, Ordering::Release);
        app.fleet.begin_shutdown();
        shared.accepting.store(false, Ordering::Release);

        // 2. Close idle connections now; they are not in-flight work.
        for entry in lock(&shared.conns).values() {
            if !entry.busy.load(Ordering::Acquire) {
                let _ = entry.stream.shutdown(Shutdown::Both);
            }
        }
        let deadline = Instant::now() + shared.config.drain_deadline;
        while Instant::now() < deadline {
            if shared.active.load(Ordering::Acquire) == 0 && lock(&shared.queue).is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let stragglers: Vec<_> = lock(&shared.conns).keys().copied().collect();
        if !stragglers.is_empty() {
            let conns = lock(&shared.conns);
            for id in &stragglers {
                if let Some(entry) = conns.get(id) {
                    let _ = entry.stream.shutdown(Shutdown::Both);
                    app.counters.forced_closes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // 3. Stop the threads (workers exit promptly: force-closed sockets
        // fail their reads, queued connections are closed on sight).
        self.stop_threads();

        // 4. Frozen-backlog drain.
        let mut drained = 0u64;
        let mut undrained = Vec::new();
        for id in app.fleet.tenant_ids() {
            if app
                .drain_backlog(&id, |v| drained += v.len() as u64)
                .is_err()
            {
                undrained.push(id);
            }
        }

        // 5. Final durable checkpoint.
        let generation = match &app.store {
            Some(store) => Some(app.fleet.checkpoint_durable(store)?),
            None => None,
        };

        // 6. The fleet outlives the server.
        app.fleet.end_shutdown();

        Ok(ShutdownReport {
            drained,
            generation,
            forced_closes: app.counters.forced_closes.load(Ordering::Relaxed),
            requests: app.counters.requests.load(Ordering::Relaxed),
            undrained,
        })
    }

    /// Stop and join every thread; idempotent.
    fn stop_threads(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        let shared = &self.shared;
        shared.accepting.store(false, Ordering::Release);
        shared.stop_workers.store(true, Ordering::Release);
        shared.stop_pump.store(true, Ordering::Release);
        shared.queue_cv.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SpotServer {
    fn drop(&mut self) {
        // Abrupt stop: no final drain/checkpoint, but no leaked threads
        // either. Cut every live socket so blocked reads return.
        self.shared.app.draining.store(true, Ordering::Release);
        for entry in lock(&self.shared.conns).values() {
            let _ = entry.stream.shutdown(Shutdown::Both);
        }
        self.stop_threads();
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    while shared.accepting.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.app.counters.accepted.fetch_add(1, Ordering::Relaxed);
                let live = shared.active.load(Ordering::Acquire) + lock(&shared.queue).len();
                if live >= shared.config.max_connections {
                    shed(shared, stream);
                    continue;
                }
                lock(&shared.queue).push_back(stream);
                shared.queue_cv.notify_one();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Nonblocking accept so this loop can observe shutdown;
                // the sleep bounds the idle poll rate.
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE under storm):
                // back off briefly instead of spinning.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Best-effort `503` for a connection rejected at accept time.
fn shed(shared: &Shared, mut stream: TcpStream) {
    shared
        .app
        .counters
        .shed_connections
        .fetch_add(1, Ordering::Relaxed);
    let body = Response::json(503, "{\"error\":\"connection capacity exhausted\"}")
        .header("retry-after", "1");
    let _ = body.write_to(
        &mut stream,
        true,
        Instant::now() + Duration::from_millis(100),
    );
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                if shared.stop_workers.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        shared.active.fetch_add(1, Ordering::AcqRel);
        serve_connection(shared, stream);
        shared.active.fetch_sub(1, Ordering::AcqRel);
    }
}

fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let app = &shared.app;
    let config = &shared.config;
    let _ = stream.set_nodelay(true);

    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let busy = Arc::new(AtomicBool::new(false));
    if let Ok(clone) = stream.try_clone() {
        lock(&shared.conns).insert(
            conn_id,
            ConnEntry {
                stream: clone,
                busy: Arc::clone(&busy),
            },
        );
    }

    let mut carry = Vec::new();
    loop {
        // A connection picked up (or coming back around) mid-drain is not
        // in-flight work; close it instead of waiting for its next request.
        if app.draining.load(Ordering::Acquire) {
            break;
        }
        // Reading and routing run under `catch_unwind`: a panic there costs
        // this connection, not the worker (nothing of the answer has been
        // written yet, so a 500 can still go out).
        let exchange = catch_unwind(AssertUnwindSafe(|| {
            read_request(
                &mut stream,
                &mut carry,
                &config.limits,
                config.idle_timeout,
                config.read_timeout,
            )
            .map(|next| match next {
                NextRequest::Request(req) => {
                    busy.store(true, Ordering::Release);
                    #[cfg(test)]
                    tests::planted_panic(&req);
                    Some((route(app, &req), req.keep_alive))
                }
                NextRequest::Closed | NextRequest::Idle => None,
            })
        }));
        match exchange {
            Ok(Ok(Some((response, keep_alive)))) => {
                let close = !keep_alive || app.draining.load(Ordering::Acquire);
                let wrote = response
                    .write_to(&mut stream, close, Instant::now() + config.write_timeout)
                    .is_ok();
                busy.store(false, Ordering::Release);
                if !wrote || close {
                    break;
                }
            }
            Ok(Ok(None)) => break,
            Err(_panic) => {
                app.counters.request_panics.fetch_add(1, Ordering::Relaxed);
                let _ = Response::json(500, "{\"error\":\"internal error\"}").write_to(
                    &mut stream,
                    true,
                    Instant::now() + config.write_timeout,
                );
                break;
            }
            Ok(Err(error)) => {
                // A `None` status is a mid-request disconnect: nobody is
                // listening for a response, so close silently.
                if let Some(status) = error.status() {
                    let counter = if matches!(error, HttpError::Timeout) {
                        &app.counters.timeouts
                    } else {
                        &app.counters.bad_requests
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    let body = format!("{{\"error\":{:?}}}", error.describe());
                    let _ = Response::json(status, body).write_to(
                        &mut stream,
                        true,
                        Instant::now() + config.write_timeout,
                    );
                }
                break;
            }
        }
    }

    lock(&shared.conns).remove(&conn_id);
    let _ = stream.shutdown(Shutdown::Both);
}

/// How long a pump thread sleeps after a pass that moved nothing.
const PUMP_INTERVAL: Duration = Duration::from_millis(1);

/// Background verdict mover `k` of `n`: one micro-batch (the fleet's
/// fairness unit) per tenant per pass, over the tenants at positions ≡ k
/// (mod n) in the sorted id list, so the threads' tenants are disjoint.
/// The tenant's drain lock, not the split, orders its delivery: a tenant
/// that changes thread when registrations change stays ordered.
fn pump_loop(shared: &Shared, k: usize, n: usize) {
    let app = &shared.app;
    while !shared.stop_pump.load(Ordering::Acquire) {
        let mut moved = false;
        for id in app.fleet.tenant_ids().iter().skip(k).step_by(n) {
            if shared.stop_pump.load(Ordering::Acquire) {
                return;
            }
            // Evicted or quarantined mid-pass → skip. The server runs no
            // supervision pass: a quarantined tenant waits for
            // `POST /tenants/{id}/restore` (or a revive by the embedder).
            let delivered = app.fleet.drain_with(id, |v| app.deliver(id, v));
            moved |= delivered.is_ok_and(|count| count > 0);
        }
        if !moved {
            std::thread::sleep(PUMP_INTERVAL);
        }
    }
}

/// Poison-tolerant lock: the shared state is a registry of connections and
/// counters with no invariants a panicking holder could break mid-update.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_runtime::FleetConfig;
    use std::io::{Read, Write};

    /// The one request target whose routing panics, in this crate's unit
    /// tests only.
    const PLANTED: &str = "/planted-panic";

    pub(super) fn planted_panic(req: &crate::Request) {
        if req.target == PLANTED {
            panic!("planted panic while routing {PLANTED}");
        }
    }

    /// Sends `request` on a fresh connection and reads until the server
    /// closes it.
    fn exchange(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        answer
    }

    #[test]
    fn a_panicking_request_costs_its_connection_not_the_worker() {
        let server = SpotServer::builder(SpotFleet::new(FleetConfig::default()))
            .config(ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            })
            .pump(false)
            .bind("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr();
        let answer = exchange(addr, "GET /planted-panic HTTP/1.1\r\nhost: x\r\n\r\n");
        assert!(answer.starts_with("HTTP/1.1 500 "), "{answer}");
        // The only worker survived: a fresh connection is answered.
        let answer = exchange(
            addr,
            "GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
        );
        assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
        let stats = server.stats();
        assert_eq!(stats.request_panics, 1);
        // Both connections are released: the worker's `active` count and
        // the registry entries.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().active_connections > 0 || !lock(&server.shared.conns).is_empty() {
            assert!(Instant::now() < deadline, "a connection was not released");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.shutdown().unwrap().forced_closes, 0);
    }
}
