//! `serve_http_4t`: four tenants behind a `SpotServer` with the pump on,
//! driven over loopback by two keep-alive `ServeClient` connections (one
//! thread each, as many as the box has cores) in 16-point POSTs.
//!
//! Verdicts are observed in a timestamping `VerdictSink`; the k-th verdict
//! the sink sees for a tenant answers the k-th point the server admitted
//! for it, so latency is measured without touching the server.

use crate::env::peak_rss_mb;
use crate::fleet::{learned_fleet, LearnedFleet, Sizes, DRAIN_LIMIT};
use crate::openloop::{drive, Clock, RealClock, Schedule};
use crate::reference::references;
use crate::result::{latency_metrics, Check, Metric, WorkloadResult};
use crate::spans::Recorder;
use crate::stats::{summarise, Confusion, VerdictDigest};
use crate::workload::{
    tenant_index, TenantStream, Workload, OPEN_LOOP_RATE, POST_POINTS, SEGMENTS,
};
use spot_runtime::{FleetConfig, TenantId};
use spot_serve::{RetryPolicy, ServeClient, ServeConfig, SpotServer, VerdictSink};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 5;
/// Client connections, one thread each.
pub const CONNECTIONS: usize = 2;

/// The closed loop rides out 429s quickly: the default policy sleeps whole
/// seconds per `Retry-After` unit, which would measure the client's
/// patience instead of the server.
pub fn closed_loop_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1000,
        backoff_base: Duration::from_micros(200),
        backoff_cap: Duration::from_millis(2),
        retry_after_unit: Duration::from_micros(250),
    }
}

/// The open loop retries a 429 too, but briefly: a request the server
/// keeps refusing for ~50 ms is a failure. The wait is not hidden — the
/// request's latency, and that of every request behind it, runs from its
/// due time. (With no retry at all, one noisy-neighbour stall that filled
/// a 1024-point queue failed a run in ten on the baseline box.)
pub fn open_loop_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 25,
        ..closed_loop_policy()
    }
}

/// What the verdict sink has seen.
#[derive(Default)]
pub struct SinkState {
    pub digests: Vec<VerdictDigest>,
    pub flags: Vec<Vec<bool>>,
    /// One entry per sink call: tenant, verdicts delivered, when.
    pub events: Vec<(usize, usize, Instant)>,
    pub seen: u64,
}

pub struct SinkLog {
    state: Mutex<SinkState>,
    changed: Condvar,
}

impl SinkLog {
    pub fn new(tenants: usize) -> Arc<Self> {
        Arc::new(SinkLog {
            state: Mutex::new(SinkState {
                digests: vec![VerdictDigest::default(); tenants],
                flags: vec![Vec::new(); tenants],
                ..SinkState::default()
            }),
            changed: Condvar::new(),
        })
    }

    /// The callback handed to the server. It runs on the server's pump
    /// thread, so it does as little as a probe can: stamp, digest, count.
    pub fn sink(self: &Arc<Self>) -> VerdictSink {
        let log = Arc::clone(self);
        Arc::new(move |id: &TenantId, verdicts: &[spot::Verdict]| {
            let now = Instant::now();
            let t = tenant_index(id);
            let mut state = log.lock();
            state.digests[t].update_all(verdicts);
            state.flags[t].extend(verdicts.iter().map(|v| v.outlier));
            state.events.push((t, verdicts.len(), now));
            state.seen += verdicts.len() as u64;
            drop(state);
            log.changed.notify_all();
        })
    }

    pub fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().expect("sink state lock poisoned")
    }

    /// Waits until `target` verdicts have been seen; returns when the last
    /// of them arrived, or `None` after `limit`.
    pub fn wait_seen(&self, target: u64, limit: Duration) -> Option<Instant> {
        let deadline = Instant::now() + limit;
        let mut state = self.lock();
        while state.seen < target {
            let left = deadline.checked_duration_since(Instant::now())?;
            state = self
                .changed
                .wait_timeout(state, left)
                .expect("sink state lock poisoned")
                .0;
        }
        state.events.last().map(|e| e.2)
    }
}

/// One client connection and the tenants whose points travel on it. A
/// tenant's points must all take one connection, or they could overtake
/// one another.
pub struct Lane {
    pub client: ServeClient,
    pub tenants: Vec<usize>,
    pub streams: Vec<TenantStream>,
    pub failed: u64,
    pub backpressure_429: u64,
    /// Set by the traced run: one `serve.request` span per POST.
    pub trace: Option<Recorder>,
}

/// One open-loop request as its lane saw it (times in ns of the shared clock).
pub struct OpenRequest {
    pub tenant: usize,
    pub due_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl Lane {
    /// Sends `per_tenant` points of each of the lane's tenants, alternating
    /// between them request by request.
    fn send_closed(&mut self, ids: &[TenantId], per_tenant: usize, start: &Barrier) {
        let blocks: Vec<_> = self
            .streams
            .iter_mut()
            .map(|s| s.block(per_tenant).points)
            .collect();
        start.wait();
        let mut untraced = Recorder::new(Instant::now(), false);
        for offset in (0..per_tenant).step_by(POST_POINTS) {
            for (block, &t) in blocks.iter().zip(&self.tenants) {
                let chunk = &block[offset..(offset + POST_POINTS).min(per_tenant)];
                let request = (t * per_tenant + offset) as u64;
                let rec = self.trace.as_mut().unwrap_or(&mut untraced);
                let client = &mut self.client;
                match rec.timed("serve.request", None, request, || {
                    client.ingest(&ids[t], chunk)
                }) {
                    Ok(report) => self.backpressure_429 += u64::from(report.backpressure_hits),
                    Err(_) => self.failed += chunk.len() as u64,
                }
            }
        }
    }

    /// Sends this lane's share (`first`, `first + step`, …) of an open-loop
    /// request schedule, staying one request ahead with the data.
    fn send_open(
        &mut self,
        ids: &[TenantId],
        clock: &RealClock,
        schedule: Schedule,
        (first, step): (u64, u64),
        total: u64,
    ) -> (Vec<OpenRequest>, Vec<u64>) {
        let mut requests = Vec::new();
        let mut turn = 0usize;
        let mut ahead = self.streams[0].block(POST_POINTS).points;
        let lanes_tenants = self.tenants.len();
        let lags = drive(clock, schedule, first, step, total, |_, due_ns| {
            let t = self.tenants[turn % lanes_tenants];
            let ok = match self.client.ingest(&ids[t], &ahead) {
                Ok(report) => report.enqueued as usize == POST_POINTS,
                Err(_) => false,
            };
            requests.push(OpenRequest {
                tenant: t,
                due_ns,
                done_ns: clock.now_ns(),
                ok,
            });
            turn += 1;
            ahead = self.streams[turn % lanes_tenants].block(POST_POINTS).points;
        });
        (requests, lags)
    }
}

pub struct Served {
    pub server: SpotServer,
    pub ids: Vec<TenantId>,
    pub lanes: Vec<Lane>,
    pub log: Arc<SinkLog>,
}

/// Learns the tenants, binds the server and opens the lanes.
pub fn serve(w: &Workload, seed: u64, pump: bool, config: FleetConfig) -> Served {
    let LearnedFleet {
        fleet,
        ids,
        streams,
    } = learned_fleet(w, seed, config);
    let log = SinkLog::new(w.tenants);
    let server = SpotServer::builder(fleet)
        .config(ServeConfig {
            workers: CONNECTIONS,
            ..ServeConfig::default()
        })
        .verdict_sink(log.sink())
        .pump(pump)
        .bind("127.0.0.1:0")
        .expect("bind a loopback port");
    let lanes = open_lanes(
        server.local_addr(),
        w.tenants,
        streams,
        closed_loop_policy(),
    );
    Served {
        server,
        ids,
        lanes,
        log,
    }
}

/// Tenant `t` travels on lane `t % CONNECTIONS`.
fn open_lanes(
    addr: SocketAddr,
    tenants: usize,
    streams: Vec<TenantStream>,
    policy: RetryPolicy,
) -> Vec<Lane> {
    let mut lanes: Vec<Lane> = (0..CONNECTIONS)
        .map(|_| Lane {
            client: ServeClient::new(addr).with_policy(policy.clone()),
            tenants: Vec::new(),
            streams: Vec::new(),
            failed: 0,
            backpressure_429: 0,
            trace: None,
        })
        .collect();
    for (t, stream) in (0..tenants).zip(streams) {
        lanes[t % CONNECTIONS].tenants.push(t);
        lanes[t % CONNECTIONS].streams.push(stream);
    }
    lanes
}

/// Every lane sends `per_tenant` points of each of its tenants, all lanes
/// starting together. Returns that common start, once every lane is done.
pub fn send_all(served: &mut Served, per_tenant: usize) -> Instant {
    let start = Barrier::new(CONNECTIONS + 1);
    let ids = &served.ids;
    std::thread::scope(|scope| {
        for lane in &mut served.lanes {
            let start = &start;
            scope.spawn(move || lane.send_closed(ids, per_tenant, start));
        }
        start.wait();
        Instant::now()
    })
}

/// One closed-loop interval over all lanes: returns the time from the
/// common start to the last verdict in the sink, or `None` if verdicts
/// went missing.
pub fn closed_interval(
    served: &mut Served,
    per_tenant: usize,
    target_seen: u64,
) -> Option<Duration> {
    let t0 = send_all(served, per_tenant);
    let failed: u64 = served.lanes.iter().map(|l| l.failed).sum();
    served
        .log
        .wait_seen(target_seen - failed, DRAIN_LIMIT)
        .map(|last| last.saturating_duration_since(t0))
}

/// What an open-loop phase measured.
pub struct OpenLoop {
    pub verdict_latencies: Vec<u64>,
    pub request_latencies: Vec<u64>,
    pub generator_lags: Vec<u64>,
    /// Points whose request failed or whose verdict never came.
    pub failed: u64,
    pub sent: u64,
    /// Points still queued in the fleet when the schedule ended.
    pub queued_at_end: usize,
    /// Response received → sink callback for the request's last verdict, ns
    /// (0 when the verdict was seen first).
    pub sink_lags: Vec<u64>,
}

/// Runs `requests` 16-point POSTs at `rate` points per second.
pub fn open_loop(served: &mut Served, rate: u64, requests: u64) -> OpenLoop {
    let addr = served.server.local_addr();
    for lane in &mut served.lanes {
        lane.client = ServeClient::new(addr).with_policy(open_loop_policy());
        // Connect before the schedule starts.
        lane.client.healthy();
    }
    let (events_before, seen_before) = {
        let state = served.log.lock();
        (state.events.len(), state.seen)
    };
    let clock = RealClock {
        epoch: Instant::now(),
    };
    let schedule = Schedule {
        start_ns: 2_000_000,
        period_ns: POST_POINTS as u64 * 1_000_000_000 / rate,
    };
    let ids = &served.ids;
    let mut per_lane = Vec::new();
    std::thread::scope(|scope| {
        // A workload with fewer tenants than connections leaves a lane idle.
        let busy: Vec<&mut Lane> = served
            .lanes
            .iter_mut()
            .filter(|lane| !lane.tenants.is_empty())
            .collect();
        let step = busy.len() as u64;
        let handles: Vec<_> = busy
            .into_iter()
            .enumerate()
            .map(|(c, lane)| {
                scope.spawn(move || {
                    lane.send_open(ids, &clock, schedule, (c as u64, step), requests)
                })
            })
            .collect();
        for h in handles {
            per_lane.push(h.join().expect("client thread panicked"));
        }
    });
    let queued_at_end = served.server.fleet().stats().queued;

    let tenants = served.ids.len();
    let mut out = OpenLoop {
        verdict_latencies: Vec::new(),
        request_latencies: Vec::new(),
        generator_lags: Vec::new(),
        failed: 0,
        sent: requests * POST_POINTS as u64,
        queued_at_end,
        sink_lags: Vec::new(),
    };
    // Per tenant, the requests that were admitted, in admission order.
    let mut admitted: Vec<Vec<&OpenRequest>> = vec![Vec::new(); tenants];
    for (reqs, lags) in &per_lane {
        out.generator_lags.extend(lags);
        for r in reqs {
            if r.ok {
                out.request_latencies.push(r.done_ns - r.due_ns);
                admitted[r.tenant].push(r);
            } else {
                out.failed += POST_POINTS as u64;
            }
        }
    }
    let expected = seen_before + out.sent - out.failed;
    served.log.wait_seen(expected, DRAIN_LIMIT);
    let state = served.log.lock();
    let mut seen = vec![0usize; tenants];
    for &(t, n, at) in &state.events[events_before..] {
        let at_ns = clock.ns_of(at);
        for _ in 0..n {
            if let Some(req) = admitted[t].get(seen[t] / POST_POINTS) {
                out.verdict_latencies.push(at_ns.saturating_sub(req.due_ns));
                if seen[t] % POST_POINTS == POST_POINTS - 1 {
                    out.sink_lags.push(at_ns.saturating_sub(req.done_ns));
                }
            }
            seen[t] += 1;
        }
    }
    out.failed += expected.saturating_sub(state.seen);
    out
}

pub fn run(w: &'static Workload, seed: u64, seconds: u64) -> WorkloadResult {
    let sizes = Sizes::of(w, seconds);
    let mut result = WorkloadResult {
        workload: w.name.to_string(),
        ..WorkloadResult::default()
    };
    sizes.record(w, &mut result);
    result.sizes.insert("tail_points".into(), 0);
    result
        .sizes
        .insert("post_points".into(), POST_POINTS as u64);
    let tenants = w.tenants;

    // Set-up: generators, learn, register, bind, connect.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let served = serve(w, seed, true, FleetConfig::default());
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some(served);
    }
    let mut served = kept.expect("SETUP_REPS > 0");
    result
        .metrics
        .push(Metric::median_of("setup_s", &setups, "s"));

    // Warm-up and phase A: closed loop to the last verdict in the sink.
    let interval_points = (sizes.interval_per_tenant * tenants) as u64;
    let mut sent = 0u64;
    let mut segment_s = [0f64; SEGMENTS];
    let mut missing_closed = false;
    for interval in 0..sizes.warmup_intervals + SEGMENTS {
        sent += interval_points;
        match closed_interval(&mut served, sizes.interval_per_tenant, sent) {
            Some(took) => {
                if let Some(timed) = interval.checked_sub(sizes.warmup_intervals) {
                    segment_s[timed] += took.as_secs_f64();
                }
            }
            None => {
                missing_closed = true;
                break;
            }
        }
    }
    let throughputs: Vec<f64> = segment_s
        .iter()
        .map(|s| interval_points as f64 / s)
        .collect();
    result
        .metrics
        .push(Metric::median_of("throughput_pts_s", &throughputs, "1/s"));
    result.checks.push(Check::new(
        "closed_loop_verdicts_all_arrive",
        !missing_closed,
        "",
    ));

    // Phase B: open loop, 16-point requests on a fixed schedule.
    let open_requests = (sizes.open_per_tenant * tenants / POST_POINTS) as u64;
    let mut open = open_loop(&mut served, OPEN_LOOP_RATE, open_requests);
    sent += open.sent;
    for (name, sample) in [
        ("verdict_latency", &mut open.verdict_latencies),
        ("request_latency", &mut open.request_latencies),
    ] {
        if sample.is_empty() {
            sample.push(0);
        }
        result
            .metrics
            .extend(latency_metrics(name, &summarise(sample)));
    }
    result.metrics.push(Metric::reading(
        "generator_lag_p99_us",
        summarise(&mut open.generator_lags).p99 as f64 / 1e3,
        "us",
    ));
    result.checks.push(Check::new(
        "open_loop_backlog_bounded",
        open.queued_at_end <= FleetConfig::default().micro_batch * tenants,
        format!(
            "{} points queued when the schedule ended",
            open.queued_at_end
        ),
    ));

    let footprint = served.server.fleet().footprint();
    result.metrics.push(Metric::reading(
        "state_bytes",
        footprint.approx_bytes as f64,
        "B",
    ));
    result
        .metrics
        .push(Metric::reading("peak_rss_mb", peak_rss_mb(), "MB"));
    let server_stats = served.server.stats();
    let fleet_stats = served.server.fleet().stats();
    let closed_failed: u64 = served.lanes.iter().map(|l| l.failed).sum();
    let backpressure: u64 = served.lanes.iter().map(|l| l.backpressure_429).sum();
    for (name, value) in [
        ("serve.requests", server_stats.requests),
        ("serve.backpressure_429", backpressure),
        ("serve.bad_requests", server_stats.bad_requests),
        ("serve.timeouts", server_stats.timeouts),
        ("serve.shed_connections", server_stats.shed_connections),
    ] {
        result
            .metrics
            .push(Metric::reading(name, value as f64, "count"));
    }
    for (name, value) in [
        ("core.outliers", fleet_stats.outliers),
        ("core.evolutions", fleet_stats.evolutions),
        ("core.os_added", fleet_stats.os_added),
        ("core.drift_events", fleet_stats.drift_events),
        ("synopsis.cells_pruned", fleet_stats.cells_pruned),
        ("synopsis.base_cells", footprint.base_cells as u64),
        ("synopsis.projected_cells", footprint.projected_cells as u64),
        ("runtime.fleet.shed", fleet_stats.shed),
    ] {
        result.counts.insert(name.to_string(), value);
    }

    let Served { server, log, .. } = served;
    let report = server.shutdown();
    result.checks.push(Check::new(
        "shutdown_finds_nothing_undrained",
        matches!(&report, Ok(r) if r.drained == 0 && r.undrained.is_empty()),
        report.map_or_else(
            |e| e.to_string(),
            |r| format!("{} drained at shutdown", r.drained),
        ),
    ));

    let state = log.lock();
    let admitted_per_tenant = sizes.closed_per_tenant() + sizes.open_per_tenant;
    let refs = references(w, seed, &state.flags, admitted_per_tenant, 0);
    let mut confusion = Confusion::default();
    for (t, r) in refs.iter().enumerate() {
        confusion.merge(&r.confusion);
        result
            .digests
            .insert(format!("t{t}"), state.digests[t].hex());
    }
    result.checks.push(Check::new(
        "verdict_count_equals_admitted",
        (0..tenants).all(|t| state.flags[t].len() == admitted_per_tenant),
        format!(
            "{:?} verdicts per tenant, {admitted_per_tenant} admitted",
            state.flags.iter().map(Vec::len).collect::<Vec<_>>()
        ),
    ));
    result.checks.push(Check::new(
        "digest_equals_standalone_spot",
        (0..tenants).all(|t| state.digests[t] == refs[t].main),
        "",
    ));
    result
        .metrics
        .push(Metric::reading("f1", confusion.f1(), "ratio"));
    result.counts.insert("confusion.tp".into(), confusion.tp);
    result.counts.insert("confusion.fp".into(), confusion.fp);
    result.counts.insert("confusion.fn".into(), confusion.fn_);

    result.attempted = sent;
    result.failed = closed_failed + open.failed + fleet_stats.shed;
    result
}
