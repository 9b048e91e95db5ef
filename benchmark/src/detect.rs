//! The two single-detector workloads: a closed loop of one thread calling
//! `Spot::process_batch` (256-point chunks) or `Spot::process` (one point).

use crate::env::peak_rss_mb;
use crate::result::{latency_metrics, Check, Metric, WorkloadResult};
use crate::stats::{summarise, Confusion, VerdictDigest};
use crate::workload::{round_down, Path, TenantStream, Workload, CHUNK, SEGMENTS};
use spot::{Spot, SpotStats, Verdict};
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Points generated at a time. Small, so that peak memory is the detector's
/// and not the harness's.
const BLOCK: usize = 4 * CHUNK;
/// Points on which the batch and per-point paths must agree bit for bit.
const EQUIVALENCE_POINTS: usize = 50_000;

/// Stream sizes for `seconds`: the head of the stream warms the detector up
/// untimed, the rest is `SEGMENTS` timed segments.
pub struct Sizes {
    pub warmup: usize,
    pub segment: usize,
}

impl Sizes {
    pub fn of(w: &Workload, seconds: u64) -> Self {
        let total = w.nominal_rate * seconds;
        let warmup = round_down((total as f64 * w.warmup_share) as u64, BLOCK as u64);
        let segment = round_down((total - warmup.min(total)) / SEGMENTS as u64, BLOCK as u64);
        Sizes {
            warmup: warmup as usize,
            segment: segment as usize,
        }
    }

    pub fn total(&self) -> usize {
        self.warmup + SEGMENTS * self.segment
    }
}

/// Feeds one block through `path`, timing each call. `on_call` sees every
/// call's duration (ns) and verdicts, outside the timed region.
fn feed(
    spot: &mut Spot,
    path: Path,
    points: &[spot_types::DataPoint],
    mut on_call: impl FnMut(u64, &[Verdict]),
) {
    match path {
        Path::Point => {
            for p in points {
                let t0 = Instant::now();
                let verdict = spot.process(p).expect("generated points are well-formed");
                let ns = t0.elapsed().as_nanos() as u64;
                on_call(ns, std::slice::from_ref(&verdict));
            }
        }
        _ => {
            for chunk in points.chunks(CHUNK) {
                let t0 = Instant::now();
                let verdicts = spot
                    .process_batch(chunk)
                    .expect("generated points are well-formed");
                let ns = t0.elapsed().as_nanos() as u64;
                on_call(ns, &verdicts);
            }
        }
    }
}

fn exact_counts(stats: &SpotStats) -> [(&'static str, u64); 6] {
    [
        ("core.outliers", stats.outliers),
        ("core.evolutions", stats.evolutions),
        ("core.os_added", stats.os_added),
        ("core.drift_events", stats.drift_events),
        ("core.batch_runs", stats.batch_runs),
        ("synopsis.cells_pruned", stats.cells_pruned),
    ]
}

pub fn run(w: &'static Workload, seed: u64, seconds: u64) -> WorkloadResult {
    let sizes = Sizes::of(w, seconds);
    let mut result = WorkloadResult {
        workload: w.name.to_string(),
        ..WorkloadResult::default()
    };
    result
        .sizes
        .insert("warmup_points".into(), sizes.warmup as u64);
    result
        .sizes
        .insert("segment_points".into(), sizes.segment as u64);
    result.sizes.insert("segments".into(), SEGMENTS as u64);

    // Set-up: generator + training batch + learn, several times over.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut learned = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        learned = Some(TenantStream::with_learned_spot(w, seed, 0));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (mut stream, mut spot) = learned.expect("SETUP_REPS > 0");
    result
        .metrics
        .push(Metric::median_of("setup_s", &setups, "s"));

    let mut digest = VerdictDigest::default();
    let mut digest_at_equivalence = None;
    let mut confusion = Confusion::default();
    let mut verdicts_seen = 0usize;
    let mut latencies: Vec<u64> = Vec::with_capacity(match w.path {
        Path::Point => SEGMENTS * sizes.segment,
        _ => SEGMENTS * sizes.segment / CHUNK,
    });
    let mut segment_ns = [0u64; SEGMENTS];
    let mut fed = 0usize;
    while fed < sizes.total() {
        // Generated between the timed calls, on this thread: a generator
        // running ahead on the second core made the timings noisier. Blocks
        // never straddle the warm-up or a segment: all are multiples of BLOCK.
        let block = stream.block(BLOCK);
        let segment = fed
            .checked_sub(sizes.warmup)
            .map(|timed| timed / sizes.segment);
        let mut at = 0usize;
        feed(&mut spot, w.path, &block.points, |ns, verdicts| {
            if let Some(s) = segment {
                segment_ns[s] += ns;
                latencies.push(ns);
            }
            for v in verdicts {
                digest.update(v);
                confusion.observe(v.outlier, block.planted[at]);
                at += 1;
                if verdicts_seen + at == EQUIVALENCE_POINTS {
                    digest_at_equivalence = Some(digest);
                }
            }
        });
        verdicts_seen += at;
        fed += block.points.len();
    }

    let throughputs: Vec<f64> = segment_ns
        .iter()
        .map(|&ns| sizes.segment as f64 / (ns as f64 / 1e9))
        .collect();
    result
        .metrics
        .push(Metric::median_of("throughput_pts_s", &throughputs, "1/s"));
    result.metrics.extend(latency_metrics(
        "verdict_latency",
        &summarise(&mut latencies),
    ));
    result
        .metrics
        .push(Metric::reading("f1", confusion.f1(), "ratio"));
    let footprint = spot.footprint();
    result.metrics.push(Metric::reading(
        "state_bytes",
        footprint.approx_bytes as f64,
        "B",
    ));
    // Read before the reference detectors below allocate theirs.
    result
        .metrics
        .push(Metric::reading("peak_rss_mb", peak_rss_mb(), "MB"));

    for (name, value) in exact_counts(spot.stats()) {
        result.counts.insert(name.to_string(), value);
    }
    result
        .counts
        .insert("synopsis.base_cells".into(), footprint.base_cells as u64);
    result.counts.insert(
        "synopsis.projected_cells".into(),
        footprint.projected_cells as u64,
    );
    result.counts.insert("confusion.tp".into(), confusion.tp);
    result.counts.insert("confusion.fp".into(), confusion.fp);
    result.counts.insert("confusion.fn".into(), confusion.fn_);
    result.digests.insert("t0".into(), digest.hex());

    result.attempted = sizes.total() as u64;
    result.checks.push(Check::equal(
        "verdicts_equal_points",
        verdicts_seen,
        sizes.total(),
    ));
    result.checks.push(Check::equal(
        "processed_equals_points",
        spot.stats().processed,
        sizes.total() as u64,
    ));
    drop(spot);
    result
        .checks
        .push(paths_agree(w, seed, sizes.total(), digest_at_equivalence));
    result
}

/// Batch path == per-point path, verdict for verdict, on the head of the
/// stream — and both equal to what the measured run produced there.
fn paths_agree(
    w: &Workload,
    seed: u64,
    stream_len: usize,
    measured: Option<VerdictDigest>,
) -> Check {
    const NAME: &str = "batch_equals_point_on_stream_head";
    let n = EQUIVALENCE_POINTS.min(stream_len);
    let (mut stream, mut by_batch) = TenantStream::with_learned_spot(w, seed, 0);
    let (_, mut by_point) = TenantStream::with_learned_spot(w, seed, 0);
    let head = stream.block(n);
    let mut batch = Vec::with_capacity(n);
    feed(&mut by_batch, Path::Batch, &head.points, |_, v| {
        batch.extend_from_slice(v)
    });
    let mut point = Vec::with_capacity(n);
    feed(&mut by_point, Path::Point, &head.points, |_, v| {
        point.extend_from_slice(v)
    });
    if let Some(i) = (0..n).find(|&i| !batch[i].bitwise_eq(&point[i])) {
        return Check::new(NAME, false, format!("paths differ at point {i}"));
    }
    let mut digest = VerdictDigest::default();
    digest.update_all(&batch);
    match measured {
        Some(m) if n == EQUIVALENCE_POINTS && m != digest => Check::new(
            NAME,
            false,
            format!(
                "measured run digest {} != reference {}",
                m.hex(),
                digest.hex()
            ),
        ),
        _ => Check::new(NAME, true, format!("{n} points")),
    }
}
