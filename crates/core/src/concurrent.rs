//! Thread-safe detector handle for producer/consumer deployments.
//!
//! A live deployment has one or more producer threads pulling from network
//! feeds while monitoring threads read
//! verdict statistics or run `explain` on demand. [`SharedSpot`] wraps the
//! detector for all of them: one mutex serializes the detector's work —
//! SPOT is a one-pass, per-point algorithm, and a detector runs on one
//! thread at a time — while monitoring never takes that mutex.
//! [`SharedSpot::stats`] reads a seqlock of atomics published after every
//! operation — the logical counters plus the batch-path metrics (run
//! counts, sweep/commit timings) — and [`SharedSpot::footprint`] reads the
//! synopsis manager's [`LiveCounters`] mirror, so dashboards never stall
//! ingestion. Throughput across many streams comes from many detectors
//! (`spot-runtime`'s fleet runs independent tenants on independent
//! threads), not from splitting one detector's work.

use crate::detector::{Spot, SynopsisFootprint};
use crate::snapshot::SpotCheckpoint;
use crate::verdict::{LearningReport, SpotStats, Verdict};
use parking_lot::Mutex;
use spot_synopsis::LiveCounters;
use spot_types::{DataPoint, Result};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Seqlock over the running counters: single writer (whoever holds the
/// detector lock), wait-free readers. An odd sequence number marks a write
/// in progress; readers retry until they straddle a stable even value.
/// Carries the logical counters *and* the batch-path metrics (run counts,
/// sweep/commit timings), so monitoring threads read batch-eval
/// throughput without ever touching the detector lock.
struct StatsCell {
    seq: AtomicU64,
    fields: [AtomicU64; 10],
}

impl StatsCell {
    fn new() -> Self {
        StatsCell {
            seq: AtomicU64::new(0),
            fields: Default::default(),
        }
    }

    fn publish(&self, stats: &SpotStats) {
        let values = [
            stats.processed,
            stats.outliers,
            stats.evolutions,
            stats.os_added,
            stats.drift_events,
            stats.cells_pruned,
            stats.batch_points,
            stats.batch_runs,
            stats.sweep_nanos,
            stats.commit_nanos,
        ];
        // Odd: write in progress. The fence orders the field stores after
        // the odd sequence number becomes visible — a Release on the
        // increment alone would only order *prior* accesses and lets
        // weakly-ordered CPUs publish fields under an even sequence,
        // tearing reads.
        self.seq.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (cell, v) in self.fields.iter().zip(values) {
            cell.store(v, Ordering::Relaxed);
        }
        self.seq.fetch_add(1, Ordering::Release); // even: stable
    }

    fn read(&self) -> SpotStats {
        loop {
            let before = self.seq.load(Ordering::Acquire);
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut values = [0u64; 10];
            for (v, cell) in values.iter_mut().zip(&self.fields) {
                *v = cell.load(Ordering::Relaxed);
            }
            // Order the field loads before the validating re-read; the
            // mirror image of the writer's Release fence.
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == before {
                return SpotStats {
                    processed: values[0],
                    outliers: values[1],
                    evolutions: values[2],
                    os_added: values[3],
                    drift_events: values[4],
                    cells_pruned: values[5],
                    batch_points: values[6],
                    batch_runs: values[7],
                    sweep_nanos: values[8],
                    commit_nanos: values[9],
                };
            }
        }
    }
}

struct Shared {
    core: Mutex<Spot>,
    stats: StatsCell,
    live: Arc<LiveCounters>,
}

/// Cloneable, thread-safe handle to a SPOT detector.
#[derive(Clone)]
pub struct SharedSpot {
    inner: Arc<Shared>,
}

impl SharedSpot {
    /// Wraps a detector: every operation takes the detector lock in turn,
    /// and `stats()` / `footprint()` are served without it.
    pub fn new(spot: Spot) -> Self {
        let shared = SharedSpot {
            inner: Arc::new(Shared {
                stats: StatsCell::new(),
                live: spot.live_counters(),
                core: Mutex::new(spot),
            }),
        };
        let guard = shared.inner.core.lock();
        shared.inner.stats.publish(guard.stats());
        drop(guard);
        shared
    }

    fn publish_stats(&self, spot: &Spot) {
        self.inner.stats.publish(spot.stats());
    }

    /// Runs the learning stage, returning the same [`LearningReport`] the
    /// unwrapped [`Spot::learn`] produces (CS/OS contents, MOGA effort) —
    /// the lock adds no information loss.
    pub fn learn(&self, training: &[DataPoint]) -> Result<LearningReport> {
        let mut guard = self.inner.core.lock();
        let r = guard.learn(training);
        self.publish_stats(&guard);
        r
    }

    /// Processes one point.
    pub fn process(&self, point: &DataPoint) -> Result<Verdict> {
        let mut guard = self.inner.core.lock();
        let r = guard.process(point);
        self.publish_stats(&guard);
        r
    }

    /// Processes a batch under a single lock acquisition — the preferred
    /// entry for producer threads that drain their channel in chunks.
    pub fn process_batch(&self, points: &[DataPoint]) -> Result<Vec<Verdict>> {
        let mut guard = self.inner.core.lock();
        let r = guard.process_batch(points);
        self.publish_stats(&guard);
        r
    }

    /// Captures a complete checkpoint of the detector (see
    /// [`Spot::checkpoint`]) under the detector lock. The expensive part
    /// of persistence (rendering the checkpoint to bytes, writing
    /// it out) happens on the returned value, outside the lock.
    pub fn checkpoint(&self) -> SpotCheckpoint {
        self.inner.core.lock().checkpoint()
    }

    /// Snapshot of the running counters — served wait-free from a seqlock
    /// published after every operation; never touches the detector lock.
    pub fn stats(&self) -> SpotStats {
        self.inner.stats.read()
    }

    /// Snapshot of the synopsis memory footprint — served from the
    /// manager's lock-free [`LiveCounters`] mirror; never touches the
    /// detector lock. Values lag ingestion by at most the store currently
    /// being written.
    pub fn footprint(&self) -> SynopsisFootprint {
        SynopsisFootprint {
            base_cells: 0,
            projected_cells: self.inner.live.live_cells(),
            approx_bytes: self.inner.live.approx_bytes(),
        }
    }

    /// Runs a closure with exclusive access to the detector (for anything
    /// not covered by the convenience methods).
    pub fn with<R>(&self, f: impl FnOnce(&mut Spot) -> R) -> R {
        let mut guard = self.inner.core.lock();
        let r = f(&mut guard);
        self.publish_stats(&guard);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EvolutionConfig, SpotBuilder};
    use spot_types::DomainBounds;
    use std::sync::atomic::AtomicBool;

    fn train() -> Vec<DataPoint> {
        (0..200)
            .map(|i| DataPoint::new(vec![0.4 + (i % 10) as f64 * 0.01; 4]))
            .collect()
    }

    fn stream(n: usize, dims: usize) -> Vec<DataPoint> {
        (0..n)
            .map(|i| {
                DataPoint::new(
                    (0..dims)
                        .map(|d| ((i * (d + 3) + 7 * d) % 23) as f64 / 23.0)
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn shared_processing_across_threads() {
        let spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(3)
            .build()
            .unwrap();
        let shared = SharedSpot::new(spot);
        shared.learn(&train()).unwrap();

        let mut handles = Vec::new();
        for t in 0..4u64 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                let mut outliers = 0;
                for i in 0..100 {
                    let v = 0.4 + ((i + t) % 10) as f64 * 0.01;
                    if h.process(&DataPoint::new(vec![v; 4])).unwrap().outlier {
                        outliers += 1;
                    }
                }
                outliers
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.stats().processed, 400);
        assert!(shared.footprint().projected_cells > 0);
    }

    #[test]
    fn with_gives_full_access() {
        let spot = SpotBuilder::new(DomainBounds::unit(4))
            .seed(3)
            .build()
            .unwrap();
        let shared = SharedSpot::new(spot);
        let phi = shared.with(|s| s.config().phi());
        assert_eq!(phi, 4);
    }

    fn maintenance_heavy_spot(seed: u64) -> Spot {
        // Periodic evolution and pruning both land inside the test
        // streams, so the batch path has to split runs at maintenance
        // boundaries exactly like the sequential detector.
        let mut s = SpotBuilder::new(DomainBounds::unit(4))
            .seed(seed)
            .evolution(EvolutionConfig {
                period: 90,
                ..Default::default()
            })
            .pruning(70, 1e-4)
            .build()
            .unwrap();
        s.learn(&train()).unwrap();
        s
    }

    #[test]
    fn shared_batches_match_sequential_processing_bitwise() {
        let pts = stream(400, 4);
        let mut reference = maintenance_heavy_spot(11);
        let want: Vec<Verdict> = pts.iter().map(|p| reference.process(p).unwrap()).collect();

        let shared = SharedSpot::new(maintenance_heavy_spot(11));
        let mut got = Vec::new();
        for chunk in pts.chunks(57) {
            got.extend(shared.process_batch(chunk).unwrap());
        }
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.tick, b.tick);
            assert_eq!(a.outlier, b.outlier, "tick {}", a.tick);
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "tick {}", a.tick);
            assert_eq!(a.findings, b.findings, "tick {}", a.tick);
        }
        assert_eq!(shared.stats(), *reference.stats());
        assert_eq!(shared.with(|s| s.footprint()), reference.footprint());
    }

    #[test]
    fn concurrent_producers_ingest_every_point_once() {
        let shared = SharedSpot::new(maintenance_heavy_spot(7));
        let pts = Arc::new(stream(600, 4));
        let mut handles = Vec::new();
        for t in 0..3usize {
            let shared = shared.clone();
            let pts = Arc::clone(&pts);
            handles.push(std::thread::spawn(move || {
                let mut ticks = Vec::new();
                for chunk in pts[t * 200..(t + 1) * 200].chunks(40) {
                    for v in shared.process_batch(chunk).unwrap() {
                        ticks.push(v.tick);
                    }
                }
                ticks
            }));
        }
        let mut all_ticks: Vec<u64> = Vec::new();
        for h in handles {
            all_ticks.extend(h.join().unwrap());
        }
        all_ticks.sort_unstable();
        // Every point got a unique consecutive tick (after the 200
        // training ticks), regardless of producer interleaving.
        let first = *all_ticks.first().unwrap();
        assert_eq!(first, 201);
        for (i, &t) in all_ticks.iter().enumerate() {
            assert_eq!(t, first + i as u64);
        }
        assert_eq!(shared.stats().processed, 600);
        assert_eq!(shared.footprint(), shared.with(|s| s.footprint()));
    }

    #[test]
    fn monitoring_reads_never_block_on_ingestion() {
        let shared = SharedSpot::new(maintenance_heavy_spot(9));
        let stop = Arc::new(AtomicBool::new(false));
        let reading = Arc::new(AtomicBool::new(false));
        let monitor = {
            let shared = shared.clone();
            let (stop, reading) = (Arc::clone(&stop), Arc::clone(&reading));
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let mut max_processed = 0;
                while !stop.load(Ordering::Relaxed) {
                    let stats = shared.stats();
                    let fp = shared.footprint();
                    assert!(stats.processed >= max_processed, "counters went backwards");
                    max_processed = stats.processed;
                    let _ = fp.approx_bytes;
                    reads += 1;
                    reading.store(true, Ordering::Relaxed);
                }
                reads
            })
        };
        // 400 points can be ingested before the monitor thread is first
        // scheduled: start only once it is reading.
        while !reading.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        for chunk in stream(400, 4).chunks(50) {
            shared.process_batch(chunk).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let reads = monitor.join().unwrap();
        assert!(reads > 0);
        // At quiescence the lock-free views agree with the exact sweeps.
        assert_eq!(shared.stats().processed, 400);
        assert_eq!(shared.footprint(), shared.with(|s| s.footprint()));
        assert_eq!(shared.stats(), shared.with(|s| *s.stats()));
    }
}
