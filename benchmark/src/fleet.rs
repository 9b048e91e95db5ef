//! `fleet_durable_4t`: four tenants on an in-process `SpotFleet` with every
//! durability layer on — WAL (fsync every 256), verdict archive, delta
//! checkpoints — then a crash and a recovery.
//!
//! Two threads, as many as the box has cores: the *generator* (this thread)
//! ingests and checkpoints, the *drainer* calls `pump()` and archives.
//!
//! Harness rule: checkpoints are issued from the generator thread, never
//! from the drainer. `ingest` on a walled tenant holds the WAL appender
//! across a blocking enqueue, and a checkpoint's WAL prune takes the same
//! lock, so a drainer that checkpoints deadlocks against a producer blocked
//! on a full queue.

use crate::env::{dir_bytes, peak_rss_mb, ScratchDir};
use crate::openloop::{drive, Clock, RealClock, Schedule};
use crate::reference::references;
use crate::result::{latency_metrics, Check, Metric, WorkloadResult};
use crate::stats::{summarise, Confusion, VerdictDigest};
use crate::workload::{
    round_down, tenant_id, tenant_index, TenantStream, Workload, CHUNK, OPEN_LOOP_RATE, SEGMENTS,
};
use spot_runtime::{CheckpointStore, FleetConfig, SpotFleet, TenantId, VerdictArchive, WalTuning};
use spot_types::DataPoint;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 5;
/// Share of `--seconds` the open-loop phase lasts.
const OPEN_LOOP_SHARE: f64 = 0.35;
/// Points per tenant processed after recovery to prove the state is right.
const TAIL_POINTS: usize = 10 * CHUNK;
/// How long verdicts may trail the last send before they count as missing.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// Checkpoint generations kept, as `SpotFleet::recover` keeps them.
const CHECKPOINT_RETAIN: usize = 4;

pub struct Sizes {
    /// Untimed closed-loop intervals before the first timed one. Every
    /// interval ends quiesced (and, on the durable fleet, with a delta
    /// checkpoint); a timed interval is one segment.
    pub warmup_intervals: usize,
    /// Points per tenant per closed-loop interval.
    pub interval_per_tenant: usize,
    /// Points per tenant in the open-loop phase.
    pub open_per_tenant: usize,
}

impl Sizes {
    pub fn of(w: &Workload, seconds: u64) -> Self {
        let warmup_intervals = (SEGMENTS as f64 * w.warmup_share / (1.0 - w.warmup_share))
            .round()
            .max(1.0) as usize;
        let intervals = (warmup_intervals + SEGMENTS) as u64;
        let closed = w.nominal_rate * seconds;
        let open = (OPEN_LOOP_RATE as f64 * seconds as f64 * OPEN_LOOP_SHARE) as u64;
        Sizes {
            warmup_intervals,
            interval_per_tenant: round_down(closed / intervals / w.tenants as u64, CHUNK as u64)
                as usize,
            open_per_tenant: round_down(open / w.tenants as u64, CHUNK as u64) as usize,
        }
    }

    pub fn closed_per_tenant(&self) -> usize {
        (self.warmup_intervals + SEGMENTS) * self.interval_per_tenant
    }

    pub fn record(&self, w: &Workload, result: &mut WorkloadResult) {
        let t = w.tenants as u64;
        let mut put = |k: &str, v: u64| result.sizes.insert(k.to_string(), v);
        put("tenants", t);
        put("interval_points", self.interval_per_tenant as u64 * t);
        put("warmup_intervals", self.warmup_intervals as u64);
        put("segments", SEGMENTS as u64);
        put("open_loop_points", self.open_per_tenant as u64 * t);
        put("open_loop_rate", OPEN_LOOP_RATE);
        put("tail_points", TAIL_POINTS as u64 * t);
    }
}

/// A fleet whose tenants have learned, and the streams that feed them.
pub struct LearnedFleet {
    pub fleet: SpotFleet,
    pub ids: Vec<TenantId>,
    pub streams: Vec<TenantStream>,
}

pub fn learned_fleet(w: &Workload, seed: u64, config: FleetConfig) -> LearnedFleet {
    let fleet = SpotFleet::new(config);
    let ids: Vec<TenantId> = (0..w.tenants).map(tenant_id).collect();
    let mut streams = Vec::with_capacity(w.tenants);
    for (t, id) in ids.iter().enumerate() {
        let mut stream = TenantStream::new(w, seed, t);
        fleet
            .register(id.clone(), stream.config().clone())
            .expect("fresh tenant id");
        fleet
            .learn(id, &stream.training())
            .expect("training batch is well-formed");
        streams.push(stream);
    }
    LearnedFleet {
        fleet,
        ids,
        streams,
    }
}

/// The files a durable fleet writes under one directory, laid out the way
/// `SpotFleet::recover` expects them (`<dir>/wal`, checkpoints in `<dir>`).
pub struct Durability {
    pub store: CheckpointStore,
    pub archive: VerdictArchive,
}

pub fn make_durable(fleet: &SpotFleet, dir: &Path) -> Durability {
    fleet
        .enable_wal(dir.join("wal"), WalTuning::default())
        .expect("enable WAL on an idle fleet");
    Durability {
        store: CheckpointStore::open(dir, CHECKPOINT_RETAIN).expect("open checkpoint store"),
        archive: VerdictArchive::open(dir.join("archive")).expect("open verdict archive"),
    }
}

/// Size of the file a checkpoint call just wrote.
pub fn generation_bytes(dir: &Path, generation: u64) -> u64 {
    let stem = format!("fleet-{generation:08}.");
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&stem))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// What the drainer thread accumulates.
pub struct Drained {
    pub digests: Vec<VerdictDigest>,
    pub flags: Vec<Vec<bool>>,
    /// Open-loop phase only: due time → verdict seen, ns.
    pub latencies: Vec<u64>,
    pub errors: u64,
    /// Verdicts of the open-loop phase seen so far, per tenant.
    open_seen: Vec<u64>,
}

impl Drained {
    pub fn new(tenants: usize) -> Self {
        Drained {
            digests: vec![VerdictDigest::default(); tenants],
            flags: vec![Vec::new(); tenants],
            latencies: Vec::new(),
            errors: 0,
            open_seen: vec![0; tenants],
        }
    }
}

/// Signals between the generator and the drainer.
#[derive(Default)]
pub struct Signals {
    /// Verdicts the drainer has taken delivery of.
    pub drained: AtomicU64,
    /// Generator → drainer: fsync the archive, then clear this.
    pub sync_archive: AtomicBool,
    pub stop: AtomicBool,
}

impl Signals {
    /// Spins until `drained` reaches `target`; `false` on timeout.
    pub fn wait_drained(&self, target: u64, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while self.drained.load(Ordering::SeqCst) < target {
            if Instant::now() > deadline {
                return false;
            }
            std::hint::spin_loop();
        }
        true
    }
}

/// The drainer: `pump()` until told to stop, archiving and digesting every
/// verdict. With `open` set, each verdict's latency is taken from the due
/// time of the point it answers (tenant `t`'s k-th open-loop point was send
/// number `k × tenants + t` of the schedule).
pub fn drain_loop(
    fleet: &SpotFleet,
    archive: &mut VerdictArchive,
    out: &mut Drained,
    signals: &Signals,
    open: Option<(RealClock, Schedule)>,
) {
    let tenants = out.digests.len() as u64;
    loop {
        let pumped = fleet.pump();
        if pumped.is_empty() {
            if signals.sync_archive.load(Ordering::SeqCst) {
                archive.sync().expect("fsync the verdict archive");
                signals.sync_archive.store(false, Ordering::SeqCst);
            }
            if signals.stop.load(Ordering::SeqCst) {
                return;
            }
            std::hint::spin_loop();
            continue;
        }
        let seen_ns = open.map(|(clock, _)| clock.now_ns());
        let mut n = 0u64;
        for (id, verdicts) in pumped {
            let Ok(verdicts) = verdicts else {
                out.errors += 1;
                continue;
            };
            let t = tenant_index(&id);
            archive
                .append(&verdicts)
                .expect("append to the verdict archive");
            out.digests[t].update_all(&verdicts);
            out.flags[t].extend(verdicts.iter().map(|v| v.outlier));
            if let (Some((_, schedule)), Some(seen_ns)) = (open, seen_ns) {
                for _ in 0..verdicts.len() {
                    let due = schedule.due_ns(out.open_seen[t] * tenants + t as u64);
                    out.latencies.push(seen_ns.saturating_sub(due));
                    out.open_seen[t] += 1;
                }
            }
            n += verdicts.len() as u64;
        }
        signals.drained.fetch_add(n, Ordering::SeqCst);
    }
}

/// Ingests `points[t]` of every tenant round-robin. Returns points shed or
/// refused.
pub fn ingest_round_robin(fleet: &SpotFleet, ids: &[TenantId], points: Vec<Vec<DataPoint>>) -> u64 {
    let mut failed = 0;
    let mut lanes: Vec<_> = points.into_iter().map(Vec::into_iter).collect();
    loop {
        let mut any = false;
        for (id, lane) in ids.iter().zip(&mut lanes) {
            if let Some(p) = lane.next() {
                any = true;
                match fleet.ingest(id, p) {
                    Ok(spot_runtime::IngestOutcome::Enqueued) => {}
                    _ => failed += 1,
                }
            }
        }
        if !any {
            return failed;
        }
    }
}

/// The two-thread pipeline of the durable fleet: this thread generates and
/// ingests, a scoped drainer thread pumps, archives and digests.
pub struct Pipeline {
    pub fleet: SpotFleet,
    pub ids: Vec<TenantId>,
    pub streams: Vec<TenantStream>,
    pub archive: VerdictArchive,
    pub drained: Drained,
    pub signals: Signals,
    /// Points offered so far, and those shed or refused.
    pub sent: u64,
    pub failed: u64,
    /// The open loop keeps one point per tenant generated ahead, so that
    /// making a point never delays its send; what is left over when a
    /// schedule ends opens whatever is sent next.
    ahead: Vec<DataPoint>,
}

/// What one open-loop phase measured.
pub struct OpenPhase {
    /// Due time → verdict seen, ns, one per verdict.
    pub latencies: Vec<u64>,
    /// How late each send started, ns.
    pub lags: Vec<u64>,
    /// Points still queued in the fleet when the schedule ended.
    pub queued_at_end: usize,
    /// Verdicts that had not arrived `DRAIN_LIMIT` after the last send.
    pub missing: u64,
}

impl Pipeline {
    pub fn new(learned: LearnedFleet, archive: VerdictArchive) -> Self {
        let LearnedFleet {
            fleet,
            ids,
            mut streams,
        } = learned;
        let ahead = streams.iter_mut().map(TenantStream::point).collect();
        Pipeline {
            drained: Drained::new(ids.len()),
            fleet,
            ids,
            streams,
            archive,
            signals: Signals::default(),
            sent: 0,
            failed: 0,
            ahead,
        }
    }

    /// The next `n` points of every tenant's stream.
    pub fn next_points(&mut self, n: usize) -> Vec<Vec<DataPoint>> {
        next_points(&mut self.streams, &mut self.ahead, n)
    }

    /// Closed loop under the default `Block` policy: `intervals` times,
    /// ingest `per_tenant` points of every tenant round-robin and wait for
    /// the last verdict and an archive fsync. `at_quiesce` then runs on
    /// this (the generator) thread with the fleet idle, given the
    /// interval's number and how long it took. `false` if verdicts went
    /// missing.
    pub fn closed(
        &mut self,
        intervals: usize,
        per_tenant: usize,
        mut at_quiesce: impl FnMut(&SpotFleet, usize, Duration),
    ) -> bool {
        let mut complete = true;
        std::thread::scope(|scope| {
            let (fleet, signals) = (&self.fleet, &self.signals);
            let (archive, drained) = (&mut self.archive, &mut self.drained);
            let drainer = scope.spawn(move || drain_loop(fleet, archive, drained, signals, None));
            for interval in 0..intervals {
                // Generated outside the timed stretch, one interval at a time.
                let points = next_points(&mut self.streams, &mut self.ahead, per_tenant);
                let t0 = Instant::now();
                self.failed += ingest_round_robin(fleet, &self.ids, points);
                self.sent += (per_tenant * self.ids.len()) as u64;
                if !signals.wait_drained(self.sent - self.failed, DRAIN_LIMIT) {
                    complete = false;
                    break;
                }
                signals.sync_archive.store(true, Ordering::SeqCst);
                while signals.sync_archive.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                at_quiesce(fleet, interval, t0.elapsed());
            }
            signals.stop.store(true, Ordering::SeqCst);
            drainer.join().expect("drainer thread panicked");
        });
        self.signals.stop.store(false, Ordering::SeqCst);
        complete
    }

    /// Open loop: `total` points round-robin at `rate` points per second,
    /// each stamped with its due time.
    pub fn open(&mut self, rate: u64, total: u64) -> OpenPhase {
        let tenants = self.ids.len();
        let clock = RealClock {
            epoch: Instant::now(),
        };
        let schedule = Schedule {
            start_ns: 2_000_000,
            period_ns: 1_000_000_000 / rate,
        };
        self.drained.open_seen.iter_mut().for_each(|n| *n = 0);
        let missing_before =
            (self.sent - self.failed) - self.signals.drained.load(Ordering::SeqCst);
        let mut lags = Vec::new();
        let mut queued_at_end = 0;
        std::thread::scope(|scope| {
            let (fleet, signals) = (&self.fleet, &self.signals);
            let (archive, drained) = (&mut self.archive, &mut self.drained);
            let drainer = scope.spawn(move || {
                drain_loop(fleet, archive, drained, signals, Some((clock, schedule)))
            });
            lags = drive(&clock, schedule, 0, 1, total, |i, _due| {
                let t = (i % tenants as u64) as usize;
                let next = self.streams[t].point();
                let point = std::mem::replace(&mut self.ahead[t], next);
                match fleet.ingest(&self.ids[t], point) {
                    Ok(spot_runtime::IngestOutcome::Enqueued) => {}
                    _ => self.failed += 1,
                }
            });
            queued_at_end = fleet.stats().queued;
            self.sent += total;
            signals.wait_drained(self.sent - self.failed - missing_before, DRAIN_LIMIT);
            signals.stop.store(true, Ordering::SeqCst);
            drainer.join().expect("drainer thread panicked");
        });
        self.signals.stop.store(false, Ordering::SeqCst);
        let drained = self.signals.drained.load(Ordering::SeqCst);
        OpenPhase {
            latencies: std::mem::take(&mut self.drained.latencies),
            lags,
            queued_at_end,
            missing: (self.sent - self.failed - missing_before).saturating_sub(drained),
        }
    }
}

/// See [`Pipeline::next_points`]; a free function so that the closed loop
/// can call it while its drainer borrows the rest of the pipeline.
fn next_points(
    streams: &mut [TenantStream],
    ahead: &mut [DataPoint],
    n: usize,
) -> Vec<Vec<DataPoint>> {
    streams
        .iter_mut()
        .zip(ahead)
        .map(|(stream, ahead)| {
            let mut points = stream.block(n).points;
            // Keep the stream's order: the point generated ahead goes
            // first, the newest becomes the one held ahead.
            if let Some(last) = points.last_mut() {
                std::mem::swap(ahead, last);
                points.rotate_right(1);
            }
            points
        })
        .collect()
}

pub fn run(w: &'static Workload, seed: u64, seconds: u64) -> WorkloadResult {
    let sizes = Sizes::of(w, seconds);
    let mut result = WorkloadResult {
        workload: w.name.to_string(),
        ..WorkloadResult::default()
    };
    sizes.record(w, &mut result);
    let tenants = w.tenants;

    // Set-up: generators, learn, register, WAL, store and archive.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let scratch = ScratchDir::new(&format!("fleet-{rep}"));
        let t0 = Instant::now();
        let learned = learned_fleet(w, seed, FleetConfig::default());
        let durable = make_durable(&learned.fleet, scratch.path());
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some((scratch, learned, durable));
    }
    let (scratch, learned, Durability { store, archive }) = kept.expect("SETUP_REPS > 0");
    let mut pipeline = Pipeline::new(learned, archive);
    result
        .metrics
        .push(Metric::median_of("setup_s", &setups, "s"));

    let dir = scratch.path();
    let wal_dir = dir.join("wal");
    let mut wal_written = 0u64;
    let mut wal_after_last_checkpoint = 0u64;
    let mut checkpoint_written = 0u64;
    let mut checkpoint_ms = Vec::new();
    let mut segment_s = [0f64; SEGMENTS];

    // Warm-up and phase A: closed loop; every interval ends quiesced and
    // with a delta checkpoint, issued from this thread.
    let complete = pipeline.closed(
        sizes.warmup_intervals + SEGMENTS,
        sizes.interval_per_tenant,
        |fleet, interval, took| {
            // The fleet is idle: this delta's size is a function of the
            // stream alone, and so is the WAL it lets the fleet prune.
            wal_written += dir_bytes(&wal_dir) - wal_after_last_checkpoint;
            let c0 = Instant::now();
            let generation = fleet
                .checkpoint_durable_delta(&store)
                .expect("durable delta checkpoint");
            let checkpoint = c0.elapsed();
            wal_after_last_checkpoint = dir_bytes(&wal_dir);
            checkpoint_written += generation_bytes(dir, generation);
            if let Some(timed) = interval.checked_sub(sizes.warmup_intervals) {
                // The checkpoint stall is `checkpoint_ms`, not throughput:
                // it is a 20 MB write and fsync on shared storage, and
                // inside the segments it made throughput repeat no better
                // than 19 % between identical runs.
                segment_s[timed] = took.as_secs_f64();
                checkpoint_ms.push(checkpoint.as_secs_f64() * 1e3);
            }
        },
    );
    result
        .checks
        .push(Check::new("closed_loop_verdicts_all_arrive", complete, ""));

    // Phase B: open loop at a fixed rate, no checkpoints: what it admits is
    // the WAL tail the recovery below has to replay.
    let mut open = pipeline.open(OPEN_LOOP_RATE, (sizes.open_per_tenant * tenants) as u64);
    pipeline.archive.sync().expect("fsync the verdict archive");
    wal_written += dir_bytes(&wal_dir) - wal_after_last_checkpoint;
    let archive_bytes = dir_bytes(&dir.join("archive"));
    let admitted_per_tenant = sizes.closed_per_tenant() + sizes.open_per_tenant;

    let throughputs: Vec<f64> = segment_s
        .iter()
        .map(|s| (sizes.interval_per_tenant * tenants) as f64 / s)
        .collect();
    result
        .metrics
        .push(Metric::median_of("throughput_pts_s", &throughputs, "1/s"));
    if open.latencies.is_empty() {
        open.latencies.push(0);
    }
    result.metrics.extend(latency_metrics(
        "verdict_latency",
        &summarise(&mut open.latencies),
    ));
    let footprint = pipeline.fleet.footprint();
    result.metrics.push(Metric::reading(
        "state_bytes",
        footprint.approx_bytes as f64,
        "B",
    ));
    result
        .metrics
        .push(Metric::reading("peak_rss_mb", peak_rss_mb(), "MB"));
    result
        .metrics
        .push(Metric::median_of("checkpoint_ms", &checkpoint_ms, "ms"));
    result.metrics.push(Metric::reading(
        "disk_bytes_per_point",
        (wal_written + checkpoint_written + archive_bytes) as f64
            / (pipeline.sent - pipeline.failed) as f64,
        "B",
    ));
    // Neither is a count that repeats. The archive writes a frame per
    // drained micro-batch, and how the open loop's points fall into
    // micro-batches is a matter of timing; a checkpoint persists the
    // detector's stage timers, whose varints change length with the values.
    let admitted = (pipeline.sent - pipeline.failed) as f64;
    result.metrics.push(Metric::reading(
        "archive_bytes_per_verdict",
        archive_bytes as f64 / admitted,
        "B",
    ));
    result.metrics.push(Metric::reading(
        "checkpoint_bytes_per_point",
        checkpoint_written as f64 / admitted,
        "B",
    ));
    result.metrics.push(Metric::reading(
        "generator_lag_p99_us",
        summarise(&mut open.lags).p99 as f64 / 1e3,
        "us",
    ));
    let stats = pipeline.fleet.stats();
    for (name, value) in [
        ("runtime.fleet.shed", stats.shed),
        ("runtime.wal.bytes", wal_written),
        ("core.outliers", stats.outliers),
        ("core.evolutions", stats.evolutions),
        ("core.os_added", stats.os_added),
        ("core.drift_events", stats.drift_events),
        ("synopsis.cells_pruned", stats.cells_pruned),
        ("synopsis.base_cells", footprint.base_cells as u64),
        ("synopsis.projected_cells", footprint.projected_cells as u64),
    ] {
        result.counts.insert(name.to_string(), value);
    }
    result.checks.push(Check::new(
        "open_loop_backlog_bounded",
        open.queued_at_end <= FleetConfig::default().micro_batch * tenants,
        format!(
            "{} points queued when the schedule ended",
            open.queued_at_end
        ),
    ));
    result
        .checks
        .push(Check::equal("no_drain_errors", pipeline.drained.errors, 0));

    // Phase C: the process "crashes" — the fleet is dropped without a
    // shutdown or a final checkpoint — and is recovered from its files.
    let tail = pipeline.next_points(TAIL_POINTS);
    let Pipeline {
        fleet,
        ids,
        archive,
        drained,
        mut sent,
        mut failed,
        ..
    } = pipeline;
    drop(fleet);
    drop(archive);
    let t0 = Instant::now();
    let recovered = SpotFleet::recover(dir, FleetConfig::default());
    result.metrics.push(Metric::reading(
        "recover_s",
        t0.elapsed().as_secs_f64(),
        "s",
    ));
    let mut tail_digests = vec![VerdictDigest::default(); tenants];
    let mut recovered_processed = vec![0u64; tenants];
    match &recovered {
        Ok((fleet, recovery)) => {
            result.counts.insert(
                "runtime.recover.replayed_pts".into(),
                recovery.total_replayed(),
            );
            for (t, id) in ids.iter().enumerate() {
                recovered_processed[t] = fleet.tenant_stats(id).map_or(0, |s| s.processed);
                for chunk in tail[t].chunks(CHUNK) {
                    match fleet.process_batch(id, chunk) {
                        Ok(verdicts) => tail_digests[t].update_all(&verdicts),
                        Err(_) => failed += chunk.len() as u64,
                    }
                }
            }
            sent += (TAIL_POINTS * tenants) as u64;
        }
        Err(e) => result
            .checks
            .push(Check::new("recovery_succeeds", false, e.to_string())),
    }
    drop(recovered);

    // Output checks against standalone detectors fed the same streams.
    let refs = references(w, seed, &drained.flags, admitted_per_tenant, TAIL_POINTS);
    let mut confusion = Confusion::default();
    for (t, r) in refs.iter().enumerate() {
        confusion.merge(&r.confusion);
        result
            .digests
            .insert(format!("t{t}"), drained.digests[t].hex());
        result
            .digests
            .insert(format!("t{t}.after_recovery"), tail_digests[t].hex());
    }
    let per_tenant = |f: &dyn Fn(usize) -> bool| (0..tenants).all(f);
    result.checks.push(Check::new(
        "verdict_count_equals_admitted",
        per_tenant(&|t| drained.flags[t].len() == admitted_per_tenant),
        format!(
            "{:?} verdicts per tenant, {admitted_per_tenant} admitted",
            drained.flags.iter().map(Vec::len).collect::<Vec<_>>()
        ),
    ));
    result.checks.push(Check::new(
        "digest_equals_standalone_spot",
        per_tenant(&|t| drained.digests[t] == refs[t].main),
        "",
    ));
    result.checks.push(Check::new(
        "recovered_processed_equals_admitted",
        per_tenant(&|t| recovered_processed[t] == refs[t].processed_after_main),
        format!("{recovered_processed:?}"),
    ));
    result.checks.push(Check::new(
        "digest_after_recovery_equals_standalone_spot",
        per_tenant(&|t| tail_digests[t] == refs[t].tail),
        "",
    ));
    result
        .metrics
        .push(Metric::reading("f1", confusion.f1(), "ratio"));
    result.counts.insert("confusion.tp".into(), confusion.tp);
    result.counts.insert("confusion.fp".into(), confusion.fp);
    result.counts.insert("confusion.fn".into(), confusion.fn_);

    result.attempted = sent;
    result.failed = failed + open.missing + u64::from(!complete);
    result
}
