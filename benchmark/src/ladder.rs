//! The traced run: one workload's input pushed through the layer
//! boundaries in turn —
//!
//! ```text
//! Grid quantize → bare SynopsisManager → Spot::process_batch / process
//!   → SpotFleet::process_batch → ingest + pump → + WAL → + archive,
//!   checkpoints, recovery → the two-thread pipeline
//!   → HTTP admission (pump off) → HTTP with the pump on
//! ```
//!
//! — recording one span per public call (calls shorter than a clock read
//! are timed 256 at a time). Successive arms differ by one layer, so a
//! layer's cost is the difference of two arms, and the layers along the
//! workload's blocking steps must add up to its end-to-end arm. Arms run on
//! the head of the stream (a short warm-up, then `timed` points), so they
//! attribute cost; the end-to-end numbers always come from the untraced run.

use crate::env::{dir_bytes, process_cpu_s, ScratchDir};
use crate::fleet::{
    generation_bytes, learned_fleet, make_durable, Durability, LearnedFleet, Pipeline, DRAIN_LIMIT,
};
use crate::result::{out_dir, write_file, Check, Metric, WorkloadResult};
use crate::serve::{closed_interval, open_loop, send_all, serve, CONNECTIONS};
use crate::spans::{self, Recorder, SpanId};
use crate::stats::{median, summarise};
use crate::workload::{round_down, tenant_index, Path, TenantStream, Workload, CHUNK, POST_POINTS};
use spot::subspace::Subspace;
use spot::{restore_from_bytes, Spot, SpotConfig};
use spot_runtime::{FleetConfig, SpotFleet};
use spot_serve::http::{read_request, HttpLimits, NextRequest};
use spot_serve::ServeClient;
use spot_synopsis::{Grid, SynopsisManager};
use spot_types::DataPoint;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The open-loop rates tried, points per second.
const RATES: [(u64, &str); 3] = [(40_000, "r40k"), (80_000, "r80k"), (120_000, "r120k")];
/// A rate is sustained when its p99 verdict latency stays within this and
/// the backlog at the end of the schedule is at most one micro-batch a tenant.
const LATENCY_LIMIT: Duration = Duration::from_millis(50);
/// Points per tenant between two checkpoints of the durability arm.
const BETWEEN_CHECKPOINTS: usize = 8 * CHUNK;
const DELTA_CHECKPOINTS: usize = 3;

struct Plan {
    /// Per tenant: untimed head, timed stretch, and what the checkpoint and
    /// recovery steps consume afterwards.
    warm: usize,
    timed: usize,
    extra: usize,
    /// Points of one open-loop phase.
    open_points: u64,
}

impl Plan {
    fn of(w: &Workload, seconds: u64) -> Self {
        // Wide points cost more at every layer (four times the JSON at
        // ϕ=64); fewer of them keep the traced run inside its time.
        let points = (3_000.0 * seconds as f64 * (16.0 / w.phi as f64).sqrt()) as u64;
        let timed = round_down(points / w.tenants as u64, CHUNK as u64) as usize;
        Plan {
            warm: round_down(timed as u64 / 2, CHUNK as u64) as usize,
            timed,
            extra: (DELTA_CHECKPOINTS + 2) * BETWEEN_CHECKPOINTS,
            // 0.04 × seconds at the lowest rate, in whole rounds of requests.
            open_points: round_down(
                RATES[0].0 * seconds * 4 / 100,
                (POST_POINTS * w.tenants * CONNECTIONS) as u64,
            ),
        }
    }
}

struct Ladder {
    w: &'static Workload,
    seed: u64,
    plan: Plan,
    configs: Vec<SpotConfig>,
    /// Per tenant, `warm + timed + extra` points of its stream.
    inputs: Vec<Vec<DataPoint>>,
    /// Per tenant, the SST a detector holds after the warm-up.
    ssts: Vec<Vec<Subspace>>,
    rec: Recorder,
    metrics: Vec<Metric>,
    counts: BTreeMap<String, u64>,
    checks: Vec<Check>,
}

impl Ladder {
    fn tenants(&self) -> usize {
        self.w.tenants
    }

    /// Timed points over all tenants: the divisor of every ns/point.
    fn n(&self) -> f64 {
        (self.plan.timed * self.w.tenants) as f64
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::reading(name, value, unit));
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// Total ns in the spans named `name` recorded since index `from`
    /// (spans are appended in arm order; an arm notes where it started).
    fn total_ns(&self, from: usize, name: &str) -> u64 {
        self.rec.spans()[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The same per timed point.
    fn ns_pt(&self, from: usize, name: &str) -> f64 {
        self.total_ns(from, name) as f64 / self.n()
    }
}

pub fn trace(w: &'static Workload, seed: u64, seconds: u64) -> WorkloadResult {
    let plan = Plan::of(w, seconds);
    let epoch = Instant::now();

    // Inputs once, shared by every arm; `learn` timed on its own.
    let mut configs = Vec::new();
    let mut inputs = Vec::new();
    let mut learn_s = Vec::new();
    for t in 0..w.tenants {
        let mut stream = TenantStream::new(w, seed, t);
        let training = stream.training();
        let mut spot = Spot::new(stream.config().clone()).expect("validated config");
        let t0 = Instant::now();
        spot.learn(&training)
            .expect("training batch is well-formed");
        learn_s.push(t0.elapsed().as_secs_f64());
        configs.push(stream.config().clone());
        inputs.push(stream.block(plan.warm + plan.timed + plan.extra).points);
    }
    let mut l = Ladder {
        w,
        seed,
        plan,
        configs,
        inputs,
        ssts: Vec::new(),
        rec: Recorder::new(epoch, true),
        metrics: Vec::new(),
        counts: BTreeMap::new(),
        checks: Vec::new(),
    };
    l.put("core.learn_s", median(&learn_s), "s");

    arm_quantize(&mut l);
    // The detector arms come before the bare manager's: the manager is
    // loaded with the SST a detector holds after the warm-up.
    let core_batch_untraced = arm_core(&mut l, Path::Batch, false);
    arm_core(&mut l, Path::Batch, true);
    let core_point_untraced = arm_core(&mut l, Path::Point, false);
    arm_core(&mut l, Path::Point, true);
    arm_manager(&mut l, true);
    arm_manager(&mut l, false);
    l.put(
        "core.detect_self_ns_pt",
        l.get("core.process_batch_ns_pt")
            - l.get("synopsis.manager.update_query_batch_ns_pt")
            - l.get("synopsis.manager.prune_ns_pt"),
        "ns",
    );
    arm_fleet_direct(&mut l);
    arm_fleet_queued(&mut l, false);
    arm_fleet_queued(&mut l, true);
    let pipeline_untraced = arm_fleet_pipeline(&mut l);
    arm_serve_admit(&mut l);
    arm_read_request(&mut l);
    let serve_untraced = arm_serve_pipeline(&mut l);

    // The layers along the workload's blocking steps against its own arm.
    let detector_self = l.get("core.sweep_ns_pt") + l.get("core.commit_ns_pt");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let (arm, untraced, layer_sum) = match w.path {
        Path::Batch => (
            l.get("core.process_batch_ns_pt"),
            core_batch_untraced,
            l.get("synopsis.manager.update_query_batch_ns_pt") + detector_self,
        ),
        Path::Point => (
            l.get("core.process_ns_pt"),
            core_point_untraced,
            l.get("synopsis.manager.update_query_ns_pt") + detector_self,
        ),
        // Two stages in parallel: the slower one sets the pace.
        Path::Fleet => (
            l.get("runtime.pipeline_ns_pt"),
            pipeline_untraced,
            (l.get("runtime.fleet.ingest_ns_pt") + l.get("runtime.wal.append_ns_pt")).max(
                l.get("runtime.fleet.drain_walled_ns_pt")
                    + l.get("runtime.archive.append_ns_verdict"),
            ),
        ),
        // The pump thread alone, or all the work spread over the cores.
        Path::Serve => (
            l.get("serve.pipeline_ns_pt"),
            serve_untraced,
            l.get("runtime.fleet.drain_ns_pt")
                .max((l.get("runtime.fleet.drain_ns_pt") + l.get("serve.admit_cpu_ns_pt")) / nproc),
        ),
    };
    l.put("trace.e2e_arm_ns_pt", arm, "ns");
    l.put("trace.layer_sum_ns_pt", layer_sum, "ns");
    l.put("trace.sum_error_pct", (layer_sum - arm) / arm * 100.0, "%");
    l.put(
        "trace.overhead_pct",
        (arm - untraced) / untraced * 100.0,
        "%",
    );
    l.put("trace.spans", l.rec.spans().len() as f64, "count");

    let Ladder {
        rec,
        metrics,
        counts,
        checks,
        plan,
        ..
    } = l;
    let spans = rec.into_spans();
    let path = out_dir().join(format!("spans-{}.json", w.name));
    write_file(&path, &spans::to_json(&spans)).expect("write the trace file");
    let mut result = WorkloadResult {
        workload: w.name.to_string(),
        attempted: ((plan.warm + plan.timed) * w.tenants) as u64,
        metrics,
        counts,
        checks,
        ..WorkloadResult::default()
    };
    for (k, v) in [
        ("warm", plan.warm),
        ("timed", plan.timed),
        ("extra", plan.extra),
    ] {
        result
            .sizes
            .insert(format!("{k}_points_per_tenant"), v as u64);
    }
    result
        .sizes
        .insert("open_loop_points".into(), plan.open_points);
    // Counts double as per-layer metrics so the driver's list has them.
    for (name, value) in result.counts.clone() {
        result
            .metrics
            .push(Metric::reading(&name, value as f64, "count"));
    }
    result
}

fn arm_quantize(l: &mut Ladder) {
    let root = l.rec.open("arm.quantize", None, 0);
    let from = l.rec.spans().len();
    for t in 0..l.tenants() {
        let config = &l.configs[t];
        let grid = Grid::new(config.bounds.clone(), config.granularity).expect("validated config");
        let mut coords = Vec::new();
        let (warm, timed) = (l.plan.warm, l.plan.timed);
        for (c, chunk) in l.inputs[t][warm..warm + timed].chunks(CHUNK).enumerate() {
            let id = (c * l.w.tenants + t) as u64;
            l.rec.timed("synopsis.grid.quantize_x256", root, id, || {
                for p in chunk {
                    grid.base_coords_into(p, &mut coords)
                        .expect("generated points are well-formed");
                    black_box(&coords);
                }
            });
        }
    }
    l.rec.close(root);
    let ns = l.ns_pt(from, "synopsis.grid.quantize_x256");
    l.put("synopsis.grid.quantize_ns_pt", ns, "ns");
}

/// Feeds `points` to a bare manager at the detector's maintenance cadence:
/// runs never span a prune tick, and the prune is its own span.
#[allow(clippy::too_many_arguments)]
fn manager_feed(
    manager: &mut SynopsisManager,
    config: &SpotConfig,
    points: &[DataPoint],
    tick: &mut u64,
    batch: bool,
    rec: &mut Recorder,
    root: Option<SpanId>,
    id_of_chunk: impl Fn(usize) -> u64,
) {
    let every = match config.prune_every {
        0 => u64::MAX,
        n => n,
    };
    let (mut sinks, mut outcomes, mut sink) = (Vec::new(), Vec::new(), Vec::new());
    for (c, chunk) in points.chunks(CHUNK).enumerate() {
        let id = id_of_chunk(c);
        let mut rest = chunk;
        while !rest.is_empty() {
            let until_prune = (every - *tick % every).min(rest.len() as u64) as usize;
            let (run, later) = rest.split_at(until_prune);
            if batch {
                rec.timed("synopsis.manager.update_and_query_batch", root, id, || {
                    manager
                        .update_and_query_batch(*tick + 1, run, &mut sinks, &mut outcomes)
                        .expect("generated points are well-formed")
                });
            } else {
                for (i, p) in run.iter().enumerate() {
                    rec.timed("synopsis.manager.update_and_query", root, id, || {
                        manager
                            .update_and_query(*tick + 1 + i as u64, p, &mut sink)
                            .expect("generated points are well-formed")
                    });
                }
            }
            *tick += run.len() as u64;
            rest = later;
            if tick.is_multiple_of(every) {
                rec.timed("synopsis.manager.prune", root, id, || {
                    manager.prune(*tick, config.prune_floor)
                });
            }
        }
    }
}

fn arm_manager(l: &mut Ladder, batch: bool) {
    let (arm, call, metric) = if batch {
        (
            "arm.manager_batch",
            "synopsis.manager.update_and_query_batch",
            "synopsis.manager.update_query_batch_ns_pt",
        )
    } else {
        (
            "arm.manager_point",
            "synopsis.manager.update_and_query",
            "synopsis.manager.update_query_ns_pt",
        )
    };
    let root = l.rec.open(arm, None, 0);
    let from = l.rec.spans().len();
    let tenants = l.tenants();
    for t in 0..tenants {
        let config = l.configs[t].clone();
        let grid = Grid::new(config.bounds.clone(), config.granularity).expect("validated config");
        let mut manager = SynopsisManager::new(grid, config.time_model);
        for s in &l.ssts[t] {
            manager.add_subspace(*s);
        }
        let mut tick = 0u64;
        let (warm, timed) = (l.plan.warm, l.plan.timed);
        l.rec.set_enabled(false);
        manager_feed(
            &mut manager,
            &config,
            &l.inputs[t][..warm],
            &mut tick,
            batch,
            &mut l.rec,
            root,
            |_| 0,
        );
        l.rec.set_enabled(true);
        let id = |c: usize| (c * tenants + t) as u64;
        manager_feed(
            &mut manager,
            &config,
            &l.inputs[t][warm..warm + timed],
            &mut tick,
            batch,
            &mut l.rec,
            root,
            id,
        );
    }
    l.rec.close(root);
    let ns = l.ns_pt(from, call);
    l.put(metric, ns, "ns");
    if batch {
        let prune = l.ns_pt(from, "synopsis.manager.prune");
        l.put("synopsis.manager.prune_ns_pt", prune, "ns");
    }
}

/// `Spot::process_batch` or `Spot::process` over every tenant's stream,
/// chunk by chunk round-robin. Untraced, it returns the wall-clock ns per
/// point of the timed stretch and records nothing.
fn arm_core(l: &mut Ladder, path: Path, traced: bool) -> f64 {
    let tenants = l.tenants();
    let mut spots: Vec<Spot> = (0..tenants)
        .map(|t| TenantStream::with_learned_spot(l.w, l.seed, t).1)
        .collect();
    let feed = |spot: &mut Spot, chunk: &[DataPoint], rec: &mut Recorder, root, id| match path {
        Path::Point => {
            for p in chunk {
                black_box(rec.timed("core.process", root, id, || spot.process(p)))
                    .expect("generated points are well-formed");
            }
        }
        _ => {
            black_box(rec.timed("core.process_batch", root, id, || spot.process_batch(chunk)))
                .expect("generated points are well-formed");
        }
    };
    let (warm, timed) = (l.plan.warm, l.plan.timed);
    l.rec.set_enabled(false);
    for (t, spot) in spots.iter_mut().enumerate() {
        for chunk in l.inputs[t][..warm].chunks(CHUNK) {
            feed(spot, chunk, &mut l.rec, None, 0);
        }
    }
    if l.ssts.is_empty() {
        l.ssts = spots.iter().map(|s| s.sst().iter_all().collect()).collect();
    }
    let before: Vec<_> = spots.iter().map(|s| *s.stats()).collect();
    l.rec.set_enabled(traced);
    let name = if path == Path::Point {
        "arm.core_point"
    } else {
        "arm.core_batch"
    };
    let root = l.rec.open(name, None, 0);
    let from = l.rec.spans().len();
    let t0 = Instant::now();
    for c in 0..timed / CHUNK {
        for (t, spot) in spots.iter_mut().enumerate() {
            let chunk = &l.inputs[t][warm + c * CHUNK..warm + (c + 1) * CHUNK];
            feed(spot, chunk, &mut l.rec, root, (c * tenants + t) as u64);
        }
    }
    let wall_ns_pt = t0.elapsed().as_nanos() as f64 / l.n();
    l.rec.close(root);
    l.rec.set_enabled(true);
    if !traced {
        return wall_ns_pt;
    }

    if path == Path::Point {
        let ns = l.ns_pt(from, "core.process");
        l.put("core.process_ns_pt", ns, "ns");
        return wall_ns_pt;
    }
    let ns = l.ns_pt(from, "core.process_batch");
    l.put("core.process_batch_ns_pt", ns, "ns");
    let delta = |f: &dyn Fn(&spot::SpotStats) -> u64| -> u64 {
        spots
            .iter()
            .zip(&before)
            .map(|(s, b)| f(s.stats()) - f(b))
            .sum()
    };
    let (sweep, commit) = (delta(&|s| s.sweep_nanos), delta(&|s| s.commit_nanos));
    for (name, value) in [
        ("core.outliers", delta(&|s| s.outliers)),
        ("core.evolutions", delta(&|s| s.evolutions)),
        ("core.os_added", delta(&|s| s.os_added)),
        ("core.drift_events", delta(&|s| s.drift_events)),
        ("core.batch_runs", delta(&|s| s.batch_runs)),
        ("synopsis.cells_pruned", delta(&|s| s.cells_pruned)),
        (
            "synopsis.base_cells",
            spots.iter().map(|s| s.footprint().base_cells as u64).sum(),
        ),
        (
            "synopsis.projected_cells",
            spots
                .iter()
                .map(|s| s.footprint().projected_cells as u64)
                .sum(),
        ),
    ] {
        l.counts.insert(name.to_string(), value);
    }
    let n = l.n();
    l.put("core.sweep_ns_pt", sweep as f64 / n, "ns");
    l.put("core.commit_ns_pt", commit as f64 / n, "ns");

    // Checkpoint cost of one warm detector: capture, encode, restore.
    let (mut capture, mut encode, mut restore, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let mut resumes = true;
    for rep in 0..3u64 {
        let spot = &spots[0];
        let (cp, ms) = l
            .rec
            .timed_ms("core.checkpoint.capture", root, rep, || spot.checkpoint());
        capture.push(ms);
        let (encoded, ms) = l
            .rec
            .timed_ms("core.checkpoint.encode", root, rep, || cp.to_bytes());
        encode.push(ms);
        let (restored, ms) = l
            .rec
            .timed_ms("core.restore", root, rep, || restore_from_bytes(&encoded));
        restore.push(ms);
        resumes &= restored.is_ok_and(|s| s.stats().processed == spot.stats().processed);
        bytes = encoded.len();
    }
    l.checks.push(Check::new(
        "restored_detector_resumes_at_same_position",
        resumes,
        "",
    ));
    l.put("core.checkpoint_capture_ms", median(&capture), "ms");
    l.put("core.checkpoint_encode_ms", median(&encode), "ms");
    l.put("core.restore_ms", median(&restore), "ms");
    l.put("core.checkpoint_bytes", bytes as f64, "B");
    wall_ns_pt
}

fn arm_fleet_direct(l: &mut Ladder) {
    let LearnedFleet { fleet, ids, .. } = learned_fleet(l.w, l.seed, FleetConfig::default());
    let (warm, timed, tenants) = (l.plan.warm, l.plan.timed, l.tenants());
    for (t, id) in ids.iter().enumerate() {
        for chunk in l.inputs[t][..warm].chunks(CHUNK) {
            fleet
                .process_batch(id, chunk)
                .expect("generated points are well-formed");
        }
    }
    let root = l.rec.open("arm.fleet_direct", None, 0);
    let from = l.rec.spans().len();
    for c in 0..timed / CHUNK {
        for (t, id) in ids.iter().enumerate() {
            let chunk = &l.inputs[t][warm + c * CHUNK..warm + (c + 1) * CHUNK];
            black_box(l.rec.timed(
                "runtime.fleet.process_batch",
                root,
                (c * tenants + t) as u64,
                || fleet.process_batch(id, chunk),
            ))
            .expect("generated points are well-formed");
        }
    }
    l.rec.close(root);
    let ns = l.ns_pt(from, "runtime.fleet.process_batch");
    l.put("runtime.fleet.process_batch_ns_pt", ns, "ns");
}

/// One thread alternating `ingest` (a chunk per tenant, which the default
/// queue holds without blocking) and `pump` until dry — the queued path with
/// neither stage waiting on the other. With `walled`, the WAL and the
/// archive are on, and the arm goes on to checkpoints and a recovery.
fn arm_fleet_queued(l: &mut Ladder, walled: bool) {
    let learned = learned_fleet(l.w, l.seed, FleetConfig::default());
    let scratch = ScratchDir::new("ladder-queued");
    let mut durable = walled.then(|| make_durable(&learned.fleet, scratch.path()));
    let LearnedFleet { fleet, ids, .. } = learned;
    let (warm, timed, tenants) = (l.plan.warm, l.plan.timed, l.tenants());
    let verdicts = std::cell::Cell::new(0u64);

    // One round: a chunk per tenant in, then everything out.
    let round =
        |l: &mut Ladder, at: usize, root: Option<SpanId>, durable: &mut Option<Durability>| {
            let c = at / CHUNK;
            for (t, id) in ids.iter().enumerate() {
                let chunk = l.inputs[t][at..at + CHUNK].to_vec();
                l.rec.timed(
                    "runtime.fleet.ingest_x256",
                    root,
                    (c * tenants + t) as u64,
                    || {
                        for p in chunk {
                            fleet.ingest(id, p).expect("the queue holds a chunk");
                        }
                    },
                );
            }
            loop {
                let pumped = l
                    .rec
                    .timed("runtime.fleet.pump", root, c as u64, || fleet.pump());
                if pumped.is_empty() {
                    break;
                }
                for (id, result) in pumped {
                    let batch = result.expect("generated points are well-formed");
                    verdicts.set(verdicts.get() + batch.len() as u64);
                    if let Some(d) = durable {
                        let id = (c * tenants + tenant_index(&id)) as u64;
                        l.rec
                            .timed("runtime.archive.append", root, id, || {
                                d.archive.append(&batch)
                            })
                            .expect("append to the verdict archive");
                    }
                }
            }
        };

    l.rec.set_enabled(false);
    for at in (0..warm).step_by(CHUNK) {
        round(l, at, None, &mut durable);
    }
    l.rec.set_enabled(true);
    let root = l.rec.open(
        if walled {
            "arm.fleet_walled"
        } else {
            "arm.fleet_queued"
        },
        None,
        0,
    );
    let from = l.rec.spans().len();
    for at in (warm..warm + timed).step_by(CHUNK) {
        round(l, at, root, &mut durable);
    }
    let ingest = l.ns_pt(from, "runtime.fleet.ingest_x256");
    let drain = l.ns_pt(from, "runtime.fleet.pump");
    let Some(Durability { store, mut archive }) = durable.take() else {
        l.rec.close(root);
        l.put("runtime.fleet.ingest_ns_pt", ingest, "ns");
        l.put("runtime.fleet.drain_ns_pt", drain, "ns");
        return;
    };
    l.put(
        "runtime.wal.append_ns_pt",
        ingest - l.get("runtime.fleet.ingest_ns_pt"),
        "ns",
    );
    l.put("runtime.fleet.drain_walled_ns_pt", drain, "ns");
    let append = l.ns_pt(from, "runtime.archive.append");
    l.put("runtime.archive.append_ns_verdict", append, "ns");
    archive.sync().expect("fsync the verdict archive");
    let dir = scratch.path();
    let admitted = ((warm + timed) * tenants) as f64;
    l.put(
        "runtime.wal.bytes_pt",
        dir_bytes(&dir.join("wal")) as f64 / admitted,
        "B",
    );
    l.put(
        "runtime.archive.bytes_verdict",
        dir_bytes(&dir.join("archive")) as f64 / verdicts.get() as f64,
        "B",
    );

    // A full checkpoint, then deltas a fixed stretch of stream apart.
    let mut at = warm + timed;
    let (generation, full_ms) = l.rec.timed_ms("runtime.checkpoint.full", root, 0, || {
        fleet.checkpoint_durable(&store)
    });
    let generation = generation.expect("durable checkpoint");
    l.put("runtime.checkpoint.full_ms", full_ms, "ms");
    l.put(
        "runtime.checkpoint.full_bytes",
        generation_bytes(dir, generation) as f64,
        "B",
    );
    let (mut delta_ms, mut delta_bytes) = (Vec::new(), Vec::new());
    for rep in 0..DELTA_CHECKPOINTS {
        l.rec.set_enabled(false);
        for _ in 0..BETWEEN_CHECKPOINTS / CHUNK {
            round(l, at, None, &mut None);
            at += CHUNK;
        }
        l.rec.set_enabled(true);
        let (generation, ms) = l
            .rec
            .timed_ms("runtime.checkpoint.delta", root, rep as u64, || {
                fleet.checkpoint_durable_delta(&store)
            });
        delta_ms.push(ms);
        let generation = generation.expect("durable delta checkpoint");
        delta_bytes.push(generation_bytes(dir, generation) as f64);
    }
    l.put("runtime.checkpoint.delta_ms", median(&delta_ms), "ms");
    l.put("runtime.checkpoint.delta_bytes", median(&delta_bytes), "B");

    // A WAL tail past the last checkpoint, a crash, a recovery.
    l.rec.set_enabled(false);
    for _ in 0..BETWEEN_CHECKPOINTS / CHUNK {
        round(l, at, None, &mut None);
        at += CHUNK;
    }
    l.rec.set_enabled(true);
    l.counts
        .insert("runtime.fleet.shed".into(), fleet.stats().shed);
    drop(fleet);
    drop(archive);
    let (recovered, recover_ms) = l.rec.timed_ms("runtime.recover", root, 0, || {
        SpotFleet::recover(dir, FleetConfig::default())
    });
    l.rec.close(root);
    l.put("runtime.recover_s", recover_ms / 1e3, "s");
    let replayed = recovered.as_ref().map_or(0, |(_, r)| r.total_replayed());
    l.counts
        .insert("runtime.recover.replayed_pts".into(), replayed);
    l.checks.push(Check::equal(
        "recovery_replays_the_wal_tail",
        replayed,
        (BETWEEN_CHECKPOINTS * tenants) as u64,
    ));
}

/// The durable fleet as the workload drives it: generator and drainer on
/// two threads. First untraced through the very code the end-to-end run
/// uses (closed loop, then the open-loop rates), then traced with one span
/// per `pump` and a stamp per `ingest` for the queue wait. Returns the
/// untraced ns per point.
fn arm_fleet_pipeline(l: &mut Ladder) -> f64 {
    let (warm, timed, tenants) = (l.plan.warm, l.plan.timed, l.tenants());
    let untraced = {
        let scratch = ScratchDir::new("ladder-pipeline");
        let learned = learned_fleet(l.w, l.seed, FleetConfig::default());
        let Durability { archive, .. } = make_durable(&learned.fleet, scratch.path());
        let mut pipeline = Pipeline::new(learned, archive);
        pipeline.closed(1, warm, |_, _, _| {});
        let mut took = Duration::ZERO;
        pipeline.closed(1, timed, |_, _, t| took = t);
        let mut sustained = 0u64;
        for (rate, label) in RATES {
            let mut phase = pipeline.open(rate, l.plan.open_points * rate / RATES[0].0);
            let p99 = if phase.latencies.is_empty() {
                f64::NAN
            } else {
                summarise(&mut phase.latencies).p99 as f64 / 1e3
            };
            l.put(&format!("runtime.latency_p99_us.{label}"), p99, "us");
            if rate == RATES[0].0 {
                let lag = summarise(&mut phase.lags).p99 as f64 / 1e3;
                l.put("runtime.generator_lag_us_p99", lag, "us");
            }
            let healthy = phase.missing == 0
                && p99 <= LATENCY_LIMIT.as_micros() as f64
                && phase.queued_at_end <= FleetConfig::default().micro_batch * tenants;
            if healthy {
                sustained = rate;
            }
        }
        l.put("runtime.sustained_rate_pts_s", sustained as f64, "1/s");
        took.as_nanos() as f64 / l.n()
    };

    let scratch = ScratchDir::new("ladder-pipeline-traced");
    let learned = learned_fleet(l.w, l.seed, FleetConfig::default());
    let Durability { mut archive, .. } = make_durable(&learned.fleet, scratch.path());
    let LearnedFleet { fleet, ids, .. } = learned;
    let per_tenant = warm + timed;
    let stamps: Vec<Vec<AtomicU64>> = (0..tenants)
        .map(|_| (0..per_tenant).map(|_| AtomicU64::new(0)).collect())
        .collect();
    let (recording, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let drained = AtomicU64::new(0);
    let epoch = Instant::now();
    let ns_now = || epoch.elapsed().as_nanos() as u64;
    let root = l.rec.open("arm.fleet_pipeline", None, 0);
    let mut drainer_rec = Recorder::new(l.rec.epoch(), true);
    let mut waits: Vec<u64> = Vec::new();
    let mut wall = Duration::ZERO;
    std::thread::scope(|scope| {
        let drainer = scope.spawn(|| {
            let mut seen = vec![0usize; tenants];
            let mut pumps = 0u64;
            loop {
                let (p0, p0_ns) = (Instant::now(), ns_now());
                let pumped = fleet.pump();
                if pumped.is_empty() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::hint::spin_loop();
                    continue;
                }
                let on = recording.load(Ordering::SeqCst);
                drainer_rec.set_enabled(on);
                drainer_rec.record("runtime.fleet.pump", None, pumps, p0, Instant::now());
                let mut n = 0;
                for (id, result) in pumped {
                    let batch = result.expect("generated points are well-formed");
                    let t = tenant_index(&id);
                    drainer_rec
                        .timed("runtime.archive.append", None, pumps, || {
                            archive.append(&batch)
                        })
                        .expect("append to the verdict archive");
                    if on {
                        // Queue wait: ingest returned → the pump that
                        // delivered the point began.
                        waits.extend(
                            stamps[t][seen[t]..seen[t] + batch.len()]
                                .iter()
                                .map(|s| p0_ns.saturating_sub(s.load(Ordering::SeqCst))),
                        );
                    }
                    seen[t] += batch.len();
                    n += batch.len() as u64;
                }
                pumps += 1;
                drained.fetch_add(n, Ordering::SeqCst);
            }
        });
        let mut t0 = Instant::now();
        // `k` is the position in every tenant's input and stamp table alike.
        #[allow(clippy::needless_range_loop)]
        for k in 0..per_tenant {
            if k == warm {
                // Quiesce, then start the timed stretch.
                wait_until(&drained, (warm * tenants) as u64);
                recording.store(true, Ordering::SeqCst);
                t0 = Instant::now();
            }
            for (t, id) in ids.iter().enumerate() {
                let point = l.inputs[t][k].clone();
                fleet
                    .ingest(id, point)
                    .expect("block policy admits every point");
                stamps[t][k].store(ns_now(), Ordering::SeqCst);
            }
        }
        wait_until(&drained, (per_tenant * tenants) as u64);
        wall = t0.elapsed();
        stop.store(true, Ordering::SeqCst);
        drainer.join().expect("drainer thread panicked");
    });
    l.rec.absorb(drainer_rec, root);
    l.rec.close(root);
    l.put(
        "runtime.pipeline_ns_pt",
        wall.as_nanos() as f64 / l.n(),
        "ns",
    );
    let wait = summarise(&mut waits);
    l.put(
        "runtime.fleet.queue_wait_us_p50",
        wait.p50 as f64 / 1e3,
        "us",
    );
    l.put(
        "runtime.fleet.queue_wait_us_p99",
        wait.p99 as f64 / 1e3,
        "us",
    );
    untraced
}

fn wait_until(counter: &AtomicU64, target: u64) {
    let deadline = Instant::now() + DRAIN_LIMIT;
    while counter.load(Ordering::SeqCst) < target && Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// The server with the pump off and queues that hold the whole arm: the
/// wire, the parser, the router and admission, and no detector.
fn arm_serve_admit(l: &mut Ladder) {
    let (warm, timed) = (l.plan.warm, l.plan.timed);
    let config = FleetConfig {
        queue_capacity: warm + timed + POST_POINTS,
        ..FleetConfig::default()
    };
    let mut served = serve(l.w, l.seed, false, config);
    send_all(&mut served, warm);
    let cpu0 = process_cpu_s();
    let root = l.rec.open("arm.serve_admit", None, 0);
    let t0 = send_all(&mut served, timed);
    let wall = t0.elapsed();
    l.rec.close(root);
    let cpu = process_cpu_s() - cpu0;
    l.put("serve.admit_ns_pt", wall.as_nanos() as f64 / l.n(), "ns");
    l.put("serve.admit_cpu_ns_pt", cpu * 1e9 / l.n(), "ns");
    // Dropped, not shut down: draining the backlog is not what is measured.
    drop(served);
}

/// `http::read_request` over an in-memory request: exactly the bytes the
/// in-tree client sends for one 16-point ingest, captured off a socket.
fn arm_read_request(l: &mut Ladder) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let points = l.inputs[0][..POST_POINTS].to_vec();
    let id = crate::workload::tenant_id(0);
    let sender = std::thread::spawn(move || {
        let _ = ServeClient::new(addr).ingest(&id, &points);
    });
    let (mut peer, _) = listener.accept().expect("the client connects");
    let mut request = Vec::new();
    let mut buf = [0u8; 4096];
    // Read the head, then as much body as it announces.
    let body_start = loop {
        let n = peer.read(&mut buf).expect("read the client's request");
        request.extend_from_slice(&buf[..n]);
        if let Some(pos) = request.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        assert!(n > 0, "client closed before sending a request");
    };
    let head = String::from_utf8_lossy(&request[..body_start]).to_ascii_lowercase();
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("the client sends a content-length");
    while request.len() < body_start + length {
        let n = peer.read(&mut buf).expect("read the client's request");
        assert!(n > 0, "client closed mid-request");
        request.extend_from_slice(&buf[..n]);
    }
    peer.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 15\r\n\r\n{\"enqueued\":16}")
        .expect("answer the client");
    sender.join().expect("client thread panicked");
    l.put(
        "serve.wire_bytes_pt",
        request.len() as f64 / POST_POINTS as f64,
        "B",
    );

    // The whole request is in `carry`, so the socket is never read.
    let mut idle = TcpStream::connect(addr).expect("loopback connect");
    let limits = HttpLimits::default();
    let root = l.rec.open("arm.read_request", None, 0);
    let from = l.rec.spans().len();
    let calls = 2_000u64;
    for i in 0..calls {
        let mut carry = request.clone();
        let parsed = l.rec.timed("serve.http.read_request", root, i, || {
            read_request(
                &mut idle,
                &mut carry,
                &limits,
                Duration::from_secs(1),
                Duration::from_secs(1),
            )
        });
        assert!(
            matches!(parsed, Ok(NextRequest::Request(_))),
            "captured request must parse"
        );
    }
    l.rec.close(root);
    let total = l.total_ns(from, "serve.http.read_request");
    l.put(
        "serve.http.read_request_ns_req",
        total as f64 / calls as f64,
        "ns",
    );
}

/// The server as the workload drives it, pump on: closed loop untraced and
/// traced (one `serve.request` span per POST), then the open-loop rates.
/// Returns the untraced ns per point.
fn arm_serve_pipeline(l: &mut Ladder) -> f64 {
    let (warm, timed, tenants) = (l.plan.warm, l.plan.timed, l.tenants());
    let mut served = serve(l.w, l.seed, true, FleetConfig::default());
    let mut sent = 0u64;
    let mut interval = |served: &mut crate::serve::Served, per_tenant: usize| {
        sent += (per_tenant * tenants) as u64;
        closed_interval(served, per_tenant, sent).map_or(f64::NAN, |took| {
            took.as_nanos() as f64 / (per_tenant * tenants) as f64
        })
    };
    interval(&mut served, warm);
    let untraced = interval(&mut served, timed);
    for lane in &mut served.lanes {
        lane.trace = Some(Recorder::new(l.rec.epoch(), true));
    }
    let root = l.rec.open("arm.serve_pipeline", None, 0);
    let traced = interval(&mut served, timed);
    for lane in &mut served.lanes {
        if let Some(rec) = lane.trace.take() {
            l.rec.absorb(rec, root);
        }
    }
    l.rec.close(root);
    l.put("serve.pipeline_ns_pt", traced, "ns");

    let mut sustained = 0u64;
    for (rate, label) in RATES {
        let requests = l.plan.open_points * rate / RATES[0].0 / POST_POINTS as u64;
        let mut phase = open_loop(&mut served, rate, requests);
        let p99 = if phase.verdict_latencies.is_empty() {
            f64::NAN
        } else {
            summarise(&mut phase.verdict_latencies).p99 as f64 / 1e3
        };
        l.put(&format!("serve.latency_p99_us.{label}"), p99, "us");
        if rate == RATES[0].0 {
            let pick = |sample: &mut Vec<u64>| {
                if sample.is_empty() {
                    sample.push(0);
                }
                summarise(sample)
            };
            let request = pick(&mut phase.request_latencies);
            l.put("serve.request_us_p50", request.p50 as f64 / 1e3, "us");
            l.put("serve.request_us_p99", request.p99 as f64 / 1e3, "us");
            let lag = pick(&mut phase.sink_lags).p50 as f64 / 1e3;
            l.put("serve.sink_lag_us_p50", lag, "us");
            let lag = pick(&mut phase.generator_lags).p99 as f64 / 1e3;
            l.put("serve.generator_lag_us_p99", lag, "us");
        }
        let healthy = phase.failed == 0
            && p99 <= LATENCY_LIMIT.as_micros() as f64
            && phase.queued_at_end <= FleetConfig::default().micro_batch * tenants;
        if healthy {
            sustained = rate;
        }
    }
    l.put("serve.sustained_rate_pts_s", sustained as f64, "1/s");
    let stats = served.server.stats();
    let backpressure: u64 = served.lanes.iter().map(|lane| lane.backpressure_429).sum();
    for (name, value) in [
        ("serve.requests", stats.requests),
        ("serve.backpressure_429", backpressure),
        ("serve.bad_requests", stats.bad_requests),
        ("serve.timeouts", stats.timeouts),
        ("serve.shed_connections", stats.shed_connections),
    ] {
        l.put(name, value as f64, "count");
    }
    untraced
}
