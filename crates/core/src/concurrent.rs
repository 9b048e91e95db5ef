//! Thread-safe detector handle for producer/consumer deployments.
//!
//! A live deployment has one or more producer threads pulling from network
//! feeds (see `spot_stream::ChannelSource`) while monitoring threads read
//! verdict statistics or run `explain` on demand. [`SharedSpot`] wraps the
//! detector for all of them, with three properties the old
//! one-`Mutex`-around-everything wrapper lacked:
//!
//! * **Cooperative ingestion.** The detector's synopsis batch phase
//!   partitions the SST into subspace-disjoint shards (one per projected
//!   store) claimed from an atomic cursor. When a producer submits a batch
//!   it publishes that shard work on a job board; other producers that
//!   arrive while the detector lock is held *claim shards of the running
//!   batch* instead of convoying on the mutex. Each shard has exactly one
//!   writer at a time and every store sees points in arrival order, so
//!   verdicts are bit-identical to the sequential path (pinned by tests).
//! * **Lock-free monitoring.** [`SharedSpot::stats`] reads a seqlock of
//!   atomics published after every operation — the logical counters plus
//!   the eval-phase metrics (sweep/commit timings, pipeline counters) —
//!   and [`SharedSpot::footprint`] reads the synopsis manager's
//!   [`LiveCounters`] mirror — neither touches the detector lock, so
//!   dashboards never stall ingestion.
//! * **Two-phase batch pipelining.** A batch run dispatches *three*
//!   kinds of helpable work through the job board: the shard ingestion
//!   (which also screens every touched cell against the verdict
//!   thresholds), the order-free half of the **commit**, and — when a
//!   run's commit cannot mutate the synopses — the previous run's whole
//!   sequential commit, riding the next run's shard dispatch as a
//!   claim-once unit. Producers blocked on the detector lock therefore spend far
//!   less time in the idle spin/park fallback: the board has work during
//!   evaluation too, not just during ingestion. Maintenance
//!   (self-evolution, OS growth, pruning) still runs under the lock
//!   exactly as in the sequential detector, which is what keeps the
//!   single-writer guarantees trivial to uphold.

use crate::detector::{Spot, SynopsisFootprint};
use crate::snapshot::SpotCheckpoint;
use crate::verdict::{LearningReport, SpotStats, Verdict};
use parking_lot::Mutex;
use spot_synopsis::pool::ErasedJob;
use spot_synopsis::{LiveCounters, StoreExecutor};
use spot_types::{DataPoint, Result};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// One published shard job: the lifetime-erased claim closure (see
/// [`ErasedJob`] for the erasure contract) plus helper accounting. Only
/// helpers registered before the job closes run it, and the owner blocks
/// until the helper count returns to zero — which upholds the contract.
struct JobInner {
    /// Monotonic id, so a helper that already drained this job's shards
    /// can tell it apart from the next batch's job and idle instead of
    /// re-entering a claim loop with nothing left to claim.
    id: u64,
    job: ErasedJob,
    /// Helpers currently inside the job.
    helpers: StdMutex<usize>,
    drained: Condvar,
}

/// Publication point for the active batch's shard work.
#[derive(Default)]
struct JobBoard {
    slot: StdMutex<Option<Arc<JobInner>>>,
    next_id: AtomicU64,
}

impl JobBoard {
    /// Publishes `work` as the active job. Caller must be the (unique)
    /// batch owner — i.e. hold the detector lock — and must `retire` the
    /// job before its frame returns (the erasure contract).
    fn publish(&self, work: &(dyn Fn() + Sync)) -> Arc<JobInner> {
        // SAFETY: `retire` blocks until every registered helper has left
        // the job, and no helper can register after `retire` removes it
        // from the slot.
        let job = Arc::new(JobInner {
            id: self.next_id.fetch_add(1, Ordering::Relaxed) + 1,
            job: unsafe { ErasedJob::erase(work) },
            helpers: StdMutex::new(0),
            drained: Condvar::new(),
        });
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&job));
        job
    }

    /// Joins the active job, if any, and runs its claim loop to
    /// exhaustion. `last_helped` carries the id of the job this caller
    /// already drained, so a finished job is not re-entered in a hot loop
    /// while its owner merges results. Returns `false` when there was
    /// nothing (new) to help with.
    fn help_once(&self, last_helped: &mut u64) -> bool {
        let job = {
            let slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
            let Some(job) = slot.as_ref() else {
                return false;
            };
            if job.id == *last_helped {
                return false;
            }
            // Register under the slot lock: after `retire` takes the job
            // off the board, no new helper can appear.
            *job.helpers.lock().unwrap_or_else(|e| e.into_inner()) += 1;
            Arc::clone(job)
        };
        *last_helped = job.id;
        // Registered above: the owner keeps the closure alive until our
        // decrement below.
        job.job.run();
        let mut helpers = job.helpers.lock().unwrap_or_else(|e| e.into_inner());
        *helpers -= 1;
        if *helpers == 0 {
            job.drained.notify_all();
        }
        drop(helpers);
        true
    }

    /// Takes the job off the board and blocks until every registered
    /// helper has left `work`.
    fn retire(&self, job: &Arc<JobInner>) {
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = None;
        let mut helpers = job.helpers.lock().unwrap_or_else(|e| e.into_inner());
        while *helpers > 0 {
            helpers = job.drained.wait(helpers).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The executor a batch owner hands to the detector: runs the shard-claim
/// closure itself *and* exposes it to producer threads spinning on the
/// detector lock.
struct CooperativeExecutor<'a> {
    board: &'a JobBoard,
}

impl StoreExecutor for CooperativeExecutor<'_> {
    fn execute(&self, work: &(dyn Fn() + Sync)) {
        let job = self.board.publish(work);
        job.job.run();
        self.board.retire(&job);
        // Re-raise with the original payload (helpers included) so the
        // batch owner — and any supervision layer above it — sees the
        // claim unit's actual panic, not a generic marker.
        job.job.resume_if_panicked();
    }
}

/// Seqlock over the running counters: single writer (whoever holds the
/// detector lock), wait-free readers. An odd sequence number marks a write
/// in progress; readers retry until they straddle a stable even value.
/// Carries the logical counters *and* the eval-phase metrics
/// (sweep/commit timings, pipeline counters), so monitoring threads read
/// batch-eval throughput without ever touching the detector lock.
struct StatsCell {
    seq: AtomicU64,
    fields: [AtomicU64; 11],
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
            stats.overlapped_runs,
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
            let mut values = [0u64; 11];
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
                    overlapped_runs: values[8],
                    sweep_nanos: values[9],
                    commit_nanos: values[10],
                };
            }
        }
    }
}

struct Shared {
    core: Mutex<Spot>,
    board: JobBoard,
    stats: StatsCell,
    live: Arc<LiveCounters>,
    cooperative: bool,
}

/// Cloneable, thread-safe handle to a SPOT detector.
#[derive(Clone)]
pub struct SharedSpot {
    inner: Arc<Shared>,
}

impl SharedSpot {
    /// Wraps a detector with cooperative ingestion enabled (the default):
    /// producer threads blocked behind a running batch claim its synopsis
    /// shards instead of idling.
    pub fn new(spot: Spot) -> Self {
        Self::build(spot, true)
    }

    /// Wraps a detector behind a plain single mutex — every operation
    /// serializes, producers convoy. This is the pre-sharding behavior,
    /// kept as the control arm for benchmarks and equivalence tests.
    pub fn single_mutex(spot: Spot) -> Self {
        Self::build(spot, false)
    }

    /// Wraps a detector whose batch work should dispatch through its own
    /// executor service (`Spot::executor`) instead of the cooperative job
    /// board — the fleet runtime's mode: every tenant's shards and sweeps
    /// fan out over the one pool the shared [`spot_synopsis::ExecutorHandle`]
    /// owns, while `stats()`/`footprint()` stay lock-free as in every
    /// other mode. Verdicts are bit-identical to both other modes.
    pub fn with_service_executor(spot: Spot) -> Self {
        // Non-cooperative: process_batch falls through to
        // `Spot::process_batch`, which asks the executor service.
        Self::build(spot, false)
    }

    fn build(spot: Spot, cooperative: bool) -> Self {
        let live = spot.live_counters();
        let shared = SharedSpot {
            inner: Arc::new(Shared {
                stats: StatsCell::new(),
                board: JobBoard::default(),
                live,
                core: Mutex::new(spot),
                cooperative,
            }),
        };
        let guard = shared.inner.core.lock();
        shared.inner.stats.publish(guard.stats());
        drop(guard);
        shared
    }

    /// Acquires the detector lock; while waiting, claims shards of
    /// whatever batch currently holds it (cooperative mode). Falls back to
    /// a blocking wait once there is nothing to help with.
    fn lock_core(&self) -> parking_lot::MutexGuard<'_, Spot> {
        if !self.inner.cooperative {
            return self.inner.core.lock();
        }
        let mut idle_spins = 0u32;
        let mut last_helped = 0u64;
        loop {
            if let Some(guard) = self.inner.core.try_lock() {
                return guard;
            }
            if self.inner.board.help_once(&mut last_helped) {
                idle_spins = 0;
                continue;
            }
            idle_spins += 1;
            if idle_spins > 64 {
                // Owner is in a non-helpable phase. With two-phase
                // evaluation these are rare — shard ingestion, commit
                // assembly and overlapped commits all publish board work — leaving only
                // maintenance (self-evolution, OS growth, pruning) and the
                // gaps between dispatches; park on the mutex.
                return self.inner.core.lock();
            }
            std::thread::yield_now();
        }
    }

    fn publish_stats(&self, spot: &Spot) {
        self.inner.stats.publish(spot.stats());
    }

    /// Runs the learning stage, returning the same [`LearningReport`] the
    /// unwrapped [`Spot::learn`] produces (CS/OS contents, MOGA effort) —
    /// the lock adds no information loss.
    pub fn learn(&self, training: &[DataPoint]) -> Result<LearningReport> {
        let mut guard = self.lock_core();
        let r = guard.learn(training);
        self.publish_stats(&guard);
        r
    }

    /// Processes one point.
    pub fn process(&self, point: &DataPoint) -> Result<Verdict> {
        let mut guard = self.lock_core();
        let r = guard.process(point);
        self.publish_stats(&guard);
        r
    }

    /// Processes a batch under a single lock acquisition — the preferred
    /// entry for producer threads that drain their channel in chunks. In
    /// cooperative mode the batch's shard work is published on the job
    /// board, so concurrent producers accelerate it instead of convoying;
    /// verdicts are bit-identical either way.
    pub fn process_batch(&self, points: &[DataPoint]) -> Result<Vec<Verdict>> {
        let mut guard = self.lock_core();
        let r = if self.inner.cooperative {
            let exec = CooperativeExecutor {
                board: &self.inner.board,
            };
            guard.process_batch_with(points, &exec)
        } else {
            guard.process_batch(points)
        };
        self.publish_stats(&guard);
        r
    }

    /// Captures a complete v2 checkpoint of the detector (see
    /// [`Spot::checkpoint`]) without stalling concurrent producers: while
    /// the capture holds the detector lock, every projected store's column
    /// encoding is published on the job board as a claim unit — the same
    /// claim-once protocol batch ingestion rides — so producers blocked on
    /// the lock *help finish the capture* instead of convoying behind it.
    /// The expensive part of persistence (rendering the checkpoint to
    /// JSON, writing it out) happens on the returned value, entirely
    /// outside the lock.
    pub fn checkpoint(&self) -> SpotCheckpoint {
        let guard = self.lock_core();
        if self.inner.cooperative {
            let exec = CooperativeExecutor {
                board: &self.inner.board,
            };
            guard.checkpoint_with(&exec)
        } else {
            guard.checkpoint()
        }
    }

    /// Snapshot of the running counters — served wait-free from a seqlock
    /// published after every operation; never touches the detector lock.
    pub fn stats(&self) -> SpotStats {
        self.inner.stats.read()
    }

    /// Snapshot of the synopsis memory footprint — served from the
    /// manager's lock-free [`LiveCounters`] mirror; never touches the
    /// detector lock. Values lag ingestion by at most the shard currently
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
        let mut guard = self.lock_core();
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
        // streams, so the cooperative batch path has to split runs at
        // maintenance boundaries exactly like the sequential detector.
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
    fn cooperative_batches_match_sequential_processing_bitwise() {
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
    fn helped_batches_are_bit_identical_to_unhelped() {
        // Drive the same batches through the cooperative path while
        // helper threads hammer the job board, and through the
        // single-mutex path; every verdict must match bit-for-bit no
        // matter how many helpers claimed shards.
        let pts = stream(300, 4);
        let baseline = SharedSpot::single_mutex(maintenance_heavy_spot(5));
        let mut want = Vec::new();
        for chunk in pts.chunks(75) {
            want.extend(baseline.process_batch(chunk).unwrap());
        }

        let shared = SharedSpot::new(maintenance_heavy_spot(5));
        let stop = Arc::new(AtomicBool::new(false));
        let helpers: Vec<_> = (0..3)
            .map(|_| {
                let shared = shared.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut helped = 0u64;
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if shared.inner.board.help_once(&mut last) {
                            helped += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    helped
                })
            })
            .collect();
        let mut got = Vec::new();
        for chunk in pts.chunks(75) {
            got.extend(shared.process_batch(chunk).unwrap());
        }
        stop.store(true, Ordering::Relaxed);
        for h in helpers {
            h.join().unwrap();
        }
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.tick, b.tick);
            assert_eq!(a.outlier, b.outlier, "tick {}", a.tick);
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "tick {}", a.tick);
            assert_eq!(a.findings, b.findings, "tick {}", a.tick);
        }
        assert_eq!(shared.stats(), baseline.stats());
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
        let monitor = {
            let shared = shared.clone();
            let stop = Arc::clone(&stop);
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
                }
                reads
            })
        };
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
