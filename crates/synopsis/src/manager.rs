//! The synopsis manager: the global weight + one projected store per SST
//! subspace.

use crate::grid::Grid;
use crate::pcs::{CellTouch, Pcs, ProjectedStore};
use crate::pool::{
    ExecutorHandle, OnceTask, SerialExecutor, SharedSlice, StoreExecutor, WorkerPool,
};
use serde::Value;
use spot_stream::{DecayedCounter, TimeModel, WeightCache};
use spot_subspace::Subspace;
use spot_types::{
    DataPoint, DurableState, FxHashMap, PersistError, Result, SpotError, StateReader, StateWriter,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Lock-free mirror of the synopsis footprint, shared with monitoring
/// readers (`spot`'s `SharedSpot` serves `footprint()` from it without
/// taking the detector lock).
///
/// Writers are the shard owners: whoever holds a store (the manager's own
/// thread, a pool worker, or a cooperating producer) publishes that
/// store's footprint delta after mutating it — shard-local bookkeeping,
/// one atomic add per shard per run, and only when the footprint actually
/// changed. Readers see values at most one in-flight run stale.
#[derive(Debug, Default)]
pub struct LiveCounters {
    projected_cells: AtomicUsize,
    projected_bytes: AtomicUsize,
}

impl LiveCounters {
    /// Live projected cells over all subspaces.
    pub fn live_cells(&self) -> usize {
        self.projected_cells.load(Ordering::Relaxed)
    }

    /// Approximate heap footprint of all synopses, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.projected_bytes.load(Ordering::Relaxed)
    }

    /// Takes a departing store's whole footprint out: its unpublished delta
    /// and what it had published cancel to minus what it holds now.
    fn retract(&self, store: &mut ProjectedStore) {
        let (dc, db) = store.publish_delta();
        self.apply_projected(
            dc - store.len() as isize,
            db - store.approx_bytes() as isize,
        );
    }

    /// Folds a (cells, bytes) delta in. Two's-complement wrapping makes
    /// `fetch_add` of a negative delta a subtraction.
    fn apply_projected(&self, dc: isize, db: isize) {
        if dc != 0 {
            self.projected_cells
                .fetch_add(dc as usize, Ordering::Relaxed);
        }
        if db != 0 {
            self.projected_bytes
                .fetch_add(db as usize, Ordering::Relaxed);
        }
    }
}

/// Bundles every decayed synopsis SPOT maintains online.
///
/// [`SynopsisManager::update_and_screen`] is the per-point hot path of the
/// detection stage: one projected-cell insertion per monitored subspace,
/// each O(|s|) — and every touched projected cell is handed to the caller
/// *in the same cell access* (occupancy and RD derived, IRSD on demand), so
/// the detector never
/// projects or hashes the same coordinates twice and never materializes a
/// per-subspace PCS list. On the steady state (no new cells) the whole
/// path performs zero heap allocations: coordinates land in a reused
/// scratch buffer and keys are `Copy` integers.
/// [`SynopsisManager::update_and_query`] is the full-report consumer of
/// the same loop (baselines, tools): every cell's `(RD, IRSD)` pair into
/// a caller-reused sink.
///
/// Stores live in **registration (ordinal) order** — the canonical order
/// of per-point PCS results on every path (single-point, batch, pooled,
/// cooperative), which is what makes the parallel paths bit-identical to
/// the sequential one even when two subspaces tie on RD.
#[derive(Debug)]
pub struct SynopsisManager {
    grid: Grid,
    model: TimeModel,
    /// Monitored projected stores, registration order (= result order).
    stores: Vec<ProjectedStore>,
    /// Subspace mask → ordinal in `stores`.
    index: FxHashMap<u64, usize>,
    total: DecayedCounter,
    /// Lock-free footprint mirror (see [`LiveCounters`]).
    live: Arc<LiveCounters>,
    /// Reused quantization buffer (ϕ entries).
    scratch: Vec<u16>,
    /// Reused batch quantization buffer (n·ϕ entries).
    batch_coords: Vec<u16>,
    /// Reused per-run total-weight buffer (n entries).
    batch_totals: Vec<f64>,
    /// Reused participant lanes of the full-report batch consumer.
    report_lanes: LanePool<ReportLane>,
    /// Reused shard claim order (store ordinals, heaviest first).
    shard_order: Vec<u32>,
    /// Layout epoch: bumped whenever the registration-ordinal layout
    /// changes (subspace add/remove, restore). A delta capture is only
    /// valid against a mark from the same epoch — ordinals must mean the
    /// same store on both sides of the diff.
    epoch: u64,
    /// Bumped by every ingested point or run: each one lands in the global
    /// weight and every projected store, so this one counter dirties them
    /// all.
    ingest_version: u64,
    /// Per-store mutation versions beyond ingestion (replay, evictions),
    /// parallel to `stores` (registration order). Comparisons test
    /// inequality only, so a double bump on one path is harmless; what
    /// matters is that every mutation bumps.
    versions: Vec<u64>,
    /// The shared executor service the batch path dispatches through (see
    /// [`ExecutorHandle`]): clones — and every co-tenant manager of a
    /// fleet — share the one lazily-spawned pool this handle owns.
    exec: ExecutorHandle,
    /// Pool-engagement floors for batch dispatch (min stores, min
    /// points): per-manager scheduling tuning fed from the detector
    /// configuration. Pure scheduling — results are bit-identical for
    /// every setting.
    pool_engage: (usize, usize),
    /// The age → `δ^age` table behind every cell renormalization (derived
    /// state, never persisted; see [`WeightCache`]). Extended to the tick
    /// at hand before a point, a run or a prune; read-only inside one.
    weights: WeightCache,
}

impl Clone for SynopsisManager {
    fn clone(&self) -> Self {
        let mut cloned = SynopsisManager {
            grid: self.grid.clone(),
            model: self.model,
            stores: self.stores.clone(),
            index: self.index.clone(),
            total: self.total,
            live: Arc::new(LiveCounters::default()),
            scratch: Vec::with_capacity(self.grid.dims()),
            batch_coords: Vec::new(),
            batch_totals: Vec::new(),
            report_lanes: LanePool::default(),
            shard_order: Vec::new(),
            epoch: self.epoch,
            ingest_version: self.ingest_version,
            versions: self.versions.clone(),
            exec: self.exec.clone(),
            pool_engage: self.pool_engage,
            weights: WeightCache::new(self.model),
        };
        // The clone gets its own counters; re-derive them from the cloned
        // stores so subsequent deltas stay consistent.
        for store in &mut cloned.stores {
            store.publish_delta();
        }
        let cells: usize = cloned.stores.iter().map(ProjectedStore::len).sum();
        let bytes: usize = cloned.stores.iter().map(ProjectedStore::approx_bytes).sum();
        cloned.live.apply_projected(cells as isize, bytes as isize);
        cloned
    }
}

/// Everything the detection logic needs to know after one update.
#[derive(Debug, Clone, Copy)]
pub struct UpdateOutcome {
    /// Global decayed weight after this point arrived.
    pub total_weight: f64,
}

/// A point-in-time snapshot of the synopsis dirty-tracking state, taken
/// by [`SynopsisManager::capture_mark`] at capture time. Opaque to
/// callers; its only use is as the baseline of a later
/// [`SynopsisManager::capture_state_delta_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynopsisMark {
    epoch: u64,
    ingest: u64,
    stores: Vec<u64>,
}

/// One monitored subspace's verdict inputs for the point just ingested.
#[derive(Debug, Clone, Copy)]
pub struct SubspacePcs {
    /// The monitored subspace.
    pub subspace: Subspace,
    /// PCS of the projected cell the point fell into (point included).
    pub pcs: Pcs,
    /// Decayed occupancy of that cell, point included — the projected
    /// freshness signal consumed by the drift detector.
    pub occupancy: f64,
}

/// Receives every projected cell the batch shard loop touches
/// ([`SynopsisManager::update_and_screen_batch`]). Shards are claimed by
/// however many participants the executor brings, so a consumer
/// accumulates into **lanes** — one per participant, handed out and taken
/// back through the consumer — and merges them afterwards with operations
/// that do not depend on which participant saw which store.
pub trait CellConsumer: Sync {
    /// One participant's accumulator.
    type Lane: Send;

    /// A lane ready for a run of `points` points. Called at most once per
    /// participant per dispatch, and only by participants that claimed a
    /// shard.
    fn checkout(&self, points: usize) -> Self::Lane;

    /// Takes a participant's lane back after its last shard.
    fn checkin(&self, lane: Self::Lane);

    /// Point `point` of the run fell into a cell of store `ordinal`
    /// (registration order). A participant feeds one store's points in
    /// arrival order before it claims the next store; stores arrive in
    /// claim order, not registration order.
    fn cell(
        &self,
        lane: &mut Self::Lane,
        ordinal: usize,
        store: &ProjectedStore,
        point: usize,
        touch: CellTouch,
    );
}

/// The lanes of a [`CellConsumer`] across dispatches: *idle* ones waiting
/// for a participant, and the ones participants of the current dispatch
/// handed back *filled*. The two are kept apart because a fast participant
/// checks its lane in while a slow one has yet to check one out — and must
/// not be handed the filled one.
#[derive(Debug)]
pub struct LanePool<L> {
    /// `(idle, filled)`. Locked for a push or a pop only.
    lanes: Mutex<(Vec<L>, Vec<L>)>,
}

impl<L> Default for LanePool<L> {
    fn default() -> Self {
        LanePool {
            lanes: Mutex::new((Vec::new(), Vec::new())),
        }
    }
}

impl<L: Default> LanePool<L> {
    /// An idle lane (as its last user left it), or a new one.
    pub fn checkout(&self) -> L {
        // A poisoned guard still guards two valid vectors.
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        lanes.0.pop().unwrap_or_default()
    }

    /// Hands a participant's lane back, filled.
    pub fn checkin(&self, lane: L) {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        lanes.1.push(lane);
    }

    /// The lanes handed back since the last [`LanePool::recycle`].
    pub fn filled(&mut self) -> &mut [L] {
        &mut self.lanes.get_mut().unwrap_or_else(|e| e.into_inner()).1
    }

    /// Makes every filled lane idle again — after the caller merged them,
    /// or to discard what a dispatch that unwound left behind.
    pub fn recycle(&mut self) {
        let (idle, filled) = self.lanes.get_mut().unwrap_or_else(|e| e.into_inner());
        idle.append(filled);
    }
}

/// One participant's share of a full-report batch: the `(PCS, occupancy)`
/// of every cell of the stores it claimed, store-major — segment `r`
/// (`points` entries) belongs to store `ordinals[r]`.
#[derive(Debug, Default)]
struct ReportLane {
    ordinals: Vec<usize>,
    cells: Vec<(Pcs, f64)>,
}

/// The full-report consumer behind
/// [`SynopsisManager::update_and_query_batch`].
struct BatchReport {
    lanes: LanePool<ReportLane>,
}

impl CellConsumer for BatchReport {
    type Lane = ReportLane;

    fn checkout(&self, _points: usize) -> ReportLane {
        let mut lane = self.lanes.checkout();
        lane.ordinals.clear();
        lane.cells.clear();
        lane
    }

    fn checkin(&self, lane: ReportLane) {
        self.lanes.checkin(lane);
    }

    #[inline]
    fn cell(
        &self,
        lane: &mut ReportLane,
        ordinal: usize,
        store: &ProjectedStore,
        point: usize,
        touch: CellTouch,
    ) {
        if point == 0 {
            lane.ordinals.push(ordinal);
        }
        lane.cells.push((store.pcs_of(&touch), touch.occupancy));
    }
}

impl SynopsisManager {
    /// Creates a manager with no monitored subspaces yet, on its own
    /// executor service — machine-sized with the `parallel` feature,
    /// serial otherwise. Use [`SynopsisManager::with_executor`] to share
    /// one service across many managers.
    pub fn new(grid: Grid, model: TimeModel) -> Self {
        Self::with_executor(grid, model, ExecutorHandle::default_for_build())
    }

    /// Creates a manager dispatching its batch shard phase through `exec`.
    /// Many managers sharing one handle share its single worker pool —
    /// the fleet runtime's "N detectors, one executor" wiring.
    pub fn with_executor(grid: Grid, model: TimeModel, exec: ExecutorHandle) -> Self {
        let scratch = Vec::with_capacity(grid.dims());
        SynopsisManager {
            grid,
            model,
            stores: Vec::new(),
            index: FxHashMap::default(),
            total: DecayedCounter::new(),
            live: Arc::new(LiveCounters::default()),
            scratch,
            batch_coords: Vec::new(),
            batch_totals: Vec::new(),
            report_lanes: LanePool::default(),
            shard_order: Vec::new(),
            epoch: 0,
            ingest_version: 0,
            versions: Vec::new(),
            exec,
            pool_engage: (8, 8),
            weights: WeightCache::new(model),
        }
    }

    /// The grid the synopses quantize over.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The time model driving decay.
    pub fn model(&self) -> &TimeModel {
        &self.model
    }

    /// The lock-free footprint mirror. Clone the `Arc` to read live cell
    /// and byte counts without going through (or blocking on) the manager.
    pub fn live_counters(&self) -> Arc<LiveCounters> {
        Arc::clone(&self.live)
    }

    /// Overrides the worker count of the executor service: `Some(0)`
    /// forces the serial path, `Some(n)` forces an `n`-worker pool even
    /// for narrow batches (equivalence tests, tuning), `None` restores
    /// machine-sized defaults. The pool is re-spawned lazily. Affects
    /// every manager sharing this service.
    pub fn set_parallel_workers(&mut self, workers: Option<usize>) {
        self.exec.set_workers(workers);
    }

    /// Overrides the pool-engagement floors (minimum stores / minimum run
    /// points before a machine-sized dispatch fans out). Scheduling only;
    /// results are bit-identical for every setting.
    pub fn set_pool_engagement(&mut self, min_stores: usize, min_points: usize) {
        self.pool_engage = (min_stores, min_points);
    }

    /// The executor service this manager dispatches through.
    pub fn executor(&self) -> &ExecutorHandle {
        &self.exec
    }

    /// Replaces the executor service — the fleet runtime's rewiring hook
    /// (results are bit-identical for every executor, so this is safe at
    /// any quiescent point).
    pub fn set_executor(&mut self, exec: ExecutorHandle) {
        self.exec = exec;
    }

    /// Starts maintaining a projected store for `subspace`. No-op when
    /// already monitored. Returns `true` when newly added.
    pub fn add_subspace(&mut self, subspace: Subspace) -> bool {
        if self.index.contains_key(&subspace.mask()) {
            return false;
        }
        let mut store = ProjectedStore::new(&self.grid, subspace);
        let (dc, db) = store.publish_delta();
        self.live.apply_projected(dc, db);
        self.index.insert(subspace.mask(), self.stores.len());
        self.stores.push(store);
        self.versions.push(0);
        self.epoch += 1;
        true
    }

    /// Stops maintaining `subspace`; returns `true` when it was monitored.
    /// Later stores shift down one ordinal (registration order of the
    /// survivors is preserved).
    pub fn remove_subspace(&mut self, subspace: &Subspace) -> bool {
        let Some(ordinal) = self.index.remove(&subspace.mask()) else {
            return false;
        };
        let mut store = self.stores.remove(ordinal);
        self.live.retract(&mut store);
        for slot in self.index.values_mut() {
            if *slot > ordinal {
                *slot -= 1;
            }
        }
        self.versions.remove(ordinal);
        self.epoch += 1;
        true
    }

    /// Currently monitored subspaces, in registration order (the order
    /// per-point PCS results are reported in).
    pub fn subspaces(&self) -> impl Iterator<Item = Subspace> + '_ {
        self.stores.iter().map(ProjectedStore::subspace)
    }

    /// Number of monitored subspaces.
    pub fn subspace_count(&self) -> usize {
        self.stores.len()
    }

    /// Bumped whenever the registration-ordinal layout changes (subspace
    /// add/remove, restore): equal epochs mean the same stores in the same
    /// order, so anything derived from the layout alone can be cached
    /// against it.
    pub fn layout_epoch(&self) -> u64 {
        self.epoch
    }

    /// Ingests one point at tick `now`: updates the global weight and every
    /// monitored projected store. Use
    /// [`SynopsisManager::update_and_query`] when the per-subspace PCS is
    /// needed too — it costs no second pass.
    pub fn update(&mut self, now: u64, p: &DataPoint) -> Result<UpdateOutcome> {
        self.update_and_screen(now, p, |_, _, _| {})
    }

    /// Single-pass update **and** screen: ingests one point and hands the
    /// cell it fell into in every monitored subspace to `on_cell`, as
    /// `(registration ordinal, store, touch)` in registration order. The
    /// touch carries the cell's occupancy and RD, derived from the same
    /// cell access that inserted the point; IRSD is
    /// [`ProjectedStore::irsd_of`] the touch, for callers that want it.
    pub fn update_and_screen(
        &mut self,
        now: u64,
        p: &DataPoint,
        mut on_cell: impl FnMut(usize, &ProjectedStore, CellTouch),
    ) -> Result<UpdateOutcome> {
        let outcome = self.ingest_weight(now, p)?;
        for (ordinal, store) in self.stores.iter_mut().enumerate() {
            let touch = store.update_and_screen(
                &self.grid,
                &self.weights,
                now,
                &self.scratch,
                p,
                outcome.total_weight,
            );
            let (dc, db) = store.publish_delta();
            self.live.apply_projected(dc, db);
            on_cell(ordinal, store, touch);
        }
        self.ingest_version += 1;
        Ok(outcome)
    }

    /// [`SynopsisManager::update_and_screen`] reporting in full: pushes the
    /// PCS of the point's cell in every monitored subspace into `sink`
    /// (cleared first; reuse it across calls to keep the path
    /// allocation-free).
    pub fn update_and_query(
        &mut self,
        now: u64,
        p: &DataPoint,
        sink: &mut Vec<SubspacePcs>,
    ) -> Result<UpdateOutcome> {
        sink.clear();
        sink.reserve(self.stores.len());
        self.update_and_screen(now, p, |_, store, touch| {
            sink.push(SubspacePcs {
                subspace: store.subspace(),
                pcs: store.pcs_of(&touch),
                occupancy: touch.occupancy,
            });
        })
    }

    /// Quantizes the point (into the reused scratch) — the validation
    /// step: a rejected point changes nothing — then extends the weight
    /// table to `now` and advances the global weight (a run of one, so the
    /// per-point and batch paths advance it alike).
    fn ingest_weight(&mut self, now: u64, p: &DataPoint) -> Result<UpdateOutcome> {
        self.grid.base_coords_into(p, &mut self.scratch)?;
        self.weights.ensure(now.saturating_add(1));
        self.total
            .add_run(&self.weights, now, 1, &mut self.batch_totals);
        Ok(UpdateOutcome {
            total_weight: self.batch_totals[0],
        })
    }

    /// Batch ingestion: points arrive at consecutive ticks
    /// `start_tick, start_tick+1, …`. For each point, `sinks` receives the
    /// same per-subspace PCS list [`SynopsisManager::update_and_query`]
    /// would produce (rows are cleared and refilled; pass the same vector
    /// across batches to amortize its capacity).
    ///
    /// The per-subspace store work runs through the executor service: the
    /// shared pool when the service engages (forced workers, or a
    /// wide-enough run under the `parallel` feature's machine-sized
    /// default), the [`SerialExecutor`] otherwise. Callers with their own
    /// threads to contribute use
    /// [`SynopsisManager::update_and_query_batch_with`].
    pub fn update_and_query_batch(
        &mut self,
        start_tick: u64,
        points: &[DataPoint],
        sinks: &mut Vec<Vec<SubspacePcs>>,
        outcomes: &mut Vec<UpdateOutcome>,
    ) -> Result<()> {
        if let Some(pool) = self.batch_pool(points.len()) {
            return self.update_and_query_batch_with(start_tick, points, sinks, outcomes, &*pool);
        }
        self.update_and_query_batch_with(start_tick, points, sinks, outcomes, &SerialExecutor)
    }

    /// The executor the default batch path would pick for a run of
    /// `points`: the service's shared pool when the run is wide enough to
    /// pay for dispatch, `None` for the serial path. Exposed so the
    /// detector can resolve one executor for every run of a batch.
    pub fn batch_pool(&mut self, points: usize) -> Option<Arc<WorkerPool>> {
        let (min_stores, min_points) = self.pool_engage;
        self.exec
            .pool_for_with(self.stores.len(), points, min_stores, min_points)
    }

    /// [`SynopsisManager::update_and_query_batch`] with an explicit
    /// executor for the shard phase (see [`StoreExecutor`]): the SST's
    /// stores form subspace-disjoint shards, claimed heaviest-first from
    /// an atomic cursor by however many participants the executor brings.
    /// Results are bit-identical for every executor — each shard has
    /// exactly one writer, sees points in arrival order, and lands in its
    /// registration-order slot.
    pub fn update_and_query_batch_with(
        &mut self,
        start_tick: u64,
        points: &[DataPoint],
        sinks: &mut Vec<Vec<SubspacePcs>>,
        outcomes: &mut Vec<UpdateOutcome>,
        exec: &dyn StoreExecutor,
    ) -> Result<()> {
        // Exactly one (cleared) row per point: rows surviving from a larger
        // previous batch are dropped so a caller iterating `sinks` never
        // sees stale entries.
        sinks.truncate(points.len());
        sinks.resize_with(points.len(), Vec::new);
        for sink in sinks.iter_mut() {
            sink.clear();
        }
        let mut report = BatchReport {
            lanes: std::mem::take(&mut self.report_lanes),
        };
        // A dispatch that unwound may have left filled lanes behind.
        report.lanes.recycle();
        let res = self.batch_loop(start_tick, points, Some(outcomes), exec, &report, None);
        if res.is_ok() {
            let lanes = report.lanes.filled();
            // Merge in registration order — deterministic however the
            // shards were claimed.
            let n = points.len();
            let mut segment_of = vec![(0usize, 0usize); self.stores.len()];
            for (l, lane) in lanes.iter().enumerate() {
                for (r, &ordinal) in lane.ordinals.iter().enumerate() {
                    segment_of[ordinal] = (l, r);
                }
            }
            for (store, &(l, r)) in self.stores.iter().zip(&segment_of) {
                let subspace = store.subspace();
                let segment = lanes
                    .get(l)
                    .and_then(|lane| lane.cells.get(r * n..(r + 1) * n))
                    .unwrap_or(&[]);
                for (sink, &(pcs, occupancy)) in sinks.iter_mut().zip(segment) {
                    sink.push(SubspacePcs {
                        subspace,
                        pcs,
                        occupancy,
                    });
                }
            }
            report.lanes.recycle();
        }
        self.report_lanes = report.lanes;
        res
    }

    /// Batch ingestion for a screening consumer — the detector's batch hot
    /// path. Points arrive at consecutive ticks `start_tick,
    /// start_tick+1, …`; the per-subspace store work runs as
    /// subspace-disjoint shards through `exec`, and every touched cell
    /// goes to `consumer` on the participant that claimed its store (see
    /// [`CellConsumer`]). Nothing per (point, subspace) is materialized
    /// here. Synopsis state is bit-identical for every executor.
    ///
    /// `rider`, when given, is one extra claim unit — claimed exactly
    /// once, ahead of the store shards. The detector uses it to overlap
    /// the *previous* run's sequential commit phase with this run's shard
    /// ingestion: commit work and shard work touch disjoint state, so
    /// whichever participant claims the rider performs it while the rest
    /// ingest, and the result is bit-identical to running the rider first.
    /// The rider is guaranteed to have run by the time this returns —
    /// on the error path too, where it runs on the calling thread before
    /// the error propagates (the caller's commit must not be lost).
    ///
    /// Validation is all-or-nothing, as on every ingest path: a rejected
    /// batch leaves the manager untouched and the consumer uncalled.
    pub fn update_and_screen_batch<C: CellConsumer>(
        &mut self,
        start_tick: u64,
        points: &[DataPoint],
        exec: &dyn StoreExecutor,
        consumer: &C,
        rider: Option<&OnceTask<'_>>,
    ) -> Result<()> {
        let res = self.batch_loop(start_tick, points, None, exec, consumer, rider);
        if let (Err(_), Some(rider)) = (&res, rider) {
            // Validation failed before the shard dispatch: the rider never
            // entered the claim loop.
            rider.run();
        }
        res
    }

    /// The one batch loop: validate + quantize, advance the global weight,
    /// then dispatch the store shards, handing every touched cell to
    /// `consumer`.
    fn batch_loop<C: CellConsumer>(
        &mut self,
        start_tick: u64,
        points: &[DataPoint],
        outcomes: Option<&mut Vec<UpdateOutcome>>,
        exec: &dyn StoreExecutor,
        consumer: &C,
        rider: Option<&OnceTask<'_>>,
    ) -> Result<()> {
        // Phase A: quantize everything into the reused batch buffer. This
        // is also the validation pass — a NaN or dimension mismatch at any
        // position returns before *any* store mutates, so a rejected batch
        // leaves the manager exactly as it was (the same all-or-nothing
        // guarantee the single-point path gives).
        let dims = self.grid.dims();
        let mut coords = std::mem::take(&mut self.batch_coords);
        coords.resize(points.len() * dims, 0);
        for (i, p) in points.iter().enumerate() {
            if let Err(e) = self.grid.base_coords_into(p, &mut self.scratch) {
                self.batch_coords = coords;
                return Err(e);
            }
            coords[i * dims..(i + 1) * dims].copy_from_slice(&self.scratch);
        }

        // No cell the run touches is older than its last tick: extend the
        // weight table that far, once, so the dispatch below only reads
        // it. The global weight advances by one geometric recurrence
        // (bit-identical to per-point adds).
        self.weights
            .ensure(start_tick.saturating_add(points.len() as u64));
        let mut totals = std::mem::take(&mut self.batch_totals);
        self.total
            .add_run(&self.weights, start_tick, points.len(), &mut totals);

        if let Some(outcomes) = outcomes {
            outcomes.clear();
            outcomes.extend(
                totals
                    .iter()
                    .map(|&total_weight| UpdateOutcome { total_weight }),
            );
        }

        // Size-aware claim order: heaviest shards first, so one oversized
        // store overlaps the tail of the small ones instead of serializing
        // the batch behind them.
        let n_stores = self.stores.len();
        self.shard_order.clear();
        self.shard_order.extend(0..n_stores as u32);
        let stores = &mut self.stores;
        self.shard_order.sort_by_key(|&ordinal| {
            let store = &stores[ordinal as usize];
            (std::cmp::Reverse(shard_weight(store)), ordinal)
        });

        // Phase B: the shard phase.
        {
            let grid = &self.grid;
            let weights = &self.weights;
            let live = &*self.live;
            let order = &self.shard_order[..];
            let cursor = AtomicUsize::new(0);
            let shared_stores = SharedSlice::new(&mut stores[..]);
            let coords = &coords[..];
            let totals = &totals[..];
            // The rider (if any) is claim unit 0, ahead of the shards:
            // under a serial executor it runs first (the exact sequential
            // order), and with more participants it overlaps.
            let extra = usize::from(rider.is_some());
            let work = || {
                let mut lane: Option<C::Lane> = None;
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= order.len() + extra {
                        break;
                    }
                    if extra == 1 && k == 0 {
                        if let Some(task) = rider {
                            task.run();
                        }
                        continue;
                    }
                    let ordinal = order[k - extra] as usize;
                    // SAFETY: `ordinal` comes from a unique claim of the
                    // cursor over a permutation of 0..n_stores, so this
                    // participant is the only one touching the store.
                    let store = unsafe { shared_stores.get_mut(ordinal) };
                    let lane = lane.get_or_insert_with(|| consumer.checkout(points.len()));
                    for (i, p) in points.iter().enumerate() {
                        let base = &coords[i * dims..(i + 1) * dims];
                        let touch = store.update_and_screen(
                            grid,
                            weights,
                            start_tick + i as u64,
                            base,
                            p,
                            totals[i],
                        );
                        consumer.cell(lane, ordinal, store, i, touch);
                    }
                    let (dc, db) = store.publish_delta();
                    live.apply_projected(dc, db);
                }
                if let Some(lane) = lane {
                    consumer.checkin(lane);
                }
            };
            exec.execute(&work);
        }

        self.batch_coords = coords;
        self.batch_totals = totals;
        self.ingest_version += 1;
        Ok(())
    }

    /// Warms the projected store of `subspace` by replaying timestamped
    /// points (e.g. the detector's reservoir sample) into it. Points must be
    /// supplied in non-decreasing tick order; the global weight is *not*
    /// touched — it already absorbed the points when they originally
    /// arrived.
    ///
    /// Used when SST self-evolution introduces a subspace mid-stream: a
    /// brand-new store would report every cell as empty (maximally sparse)
    /// and flood the detector with false alarms.
    pub fn replay_into(&mut self, subspace: &Subspace, points: &[(u64, DataPoint)]) -> Result<()> {
        let Some(&ordinal) = self.index.get(&subspace.mask()) else {
            return Err(SpotError::InvalidConfig(format!(
                "subspace {subspace} is not monitored"
            )));
        };
        let store = &mut self.stores[ordinal];
        for (tick, p) in points {
            self.grid.base_coords_into(p, &mut self.scratch)?;
            // Replay only fills the store; nobody reads the screen, so
            // the global weight it would be measured against is moot.
            store.update_and_screen(&self.grid, &self.weights, *tick, &self.scratch, p, 0.0);
        }
        let (dc, db) = store.publish_delta();
        self.live.apply_projected(dc, db);
        self.versions[ordinal] += 1;
        Ok(())
    }

    /// PCS of the cell containing `base_coords` in `subspace` at tick
    /// `now`. Returns `None` when the subspace is not monitored.
    /// (Query-only path for tools and tests; the detection loop gets its
    /// PCS from [`SynopsisManager::update_and_query`] for free.)
    pub fn pcs(&self, now: u64, base_coords: &[u16], subspace: &Subspace) -> Option<Pcs> {
        let store = self.projected_store(subspace)?;
        let total = self.total.value_at(&self.model, now);
        Some(store.pcs(&self.grid, &self.model, now, base_coords, total))
    }

    /// Global decayed stream weight at tick `now`.
    pub fn total_weight(&self, now: u64) -> f64 {
        self.total.value_at(&self.model, now)
    }

    /// Prunes every store, evicting cells whose decayed count fell below
    /// `floor`. Returns the total number of evicted cells.
    ///
    /// Decay factors come from the weight table the ingest paths use —
    /// one load per live cell, the same eviction decisions as the model.
    /// The per-store scans (independent by construction — each touches one
    /// store) fan out across the executor's worker pool when one is
    /// engaged, using the same claim protocol as the shard phase; version
    /// bumps and footprint publication stay sequential.
    pub fn prune(&mut self, now: u64, floor: f64) -> usize {
        // Cells can be as old as `now`; extend the table once, up front,
        // so the scans below (parallel or not) only read it.
        self.weights.ensure(now.saturating_add(1));
        let mut evicted = 0;
        let n_stores = self.stores.len();
        let mut per_store = vec![0usize; n_stores];
        let (min_stores, min_points) = self.pool_engage;
        match self
            .exec
            .pool_for_with(n_stores, n_stores, min_stores, min_points)
        {
            Some(pool) => {
                let weights = &self.weights;
                let cursor = AtomicUsize::new(0);
                let shared_stores = SharedSlice::new(&mut self.stores[..]);
                let shared_counts = SharedSlice::new(&mut per_store[..]);
                let work = || loop {
                    let ordinal = cursor.fetch_add(1, Ordering::Relaxed);
                    if ordinal >= n_stores {
                        break;
                    }
                    // SAFETY: `ordinal` comes from a unique claim of the
                    // cursor over 0..n_stores, so this participant is the
                    // only one touching this store and count slot.
                    let store = unsafe { shared_stores.get_mut(ordinal) };
                    let count = unsafe { shared_counts.get_mut(ordinal) };
                    *count = store.prune(weights, now, floor);
                };
                pool.execute(&work);
            }
            None => {
                for (ordinal, store) in self.stores.iter_mut().enumerate() {
                    per_store[ordinal] = store.prune(&self.weights, now, floor);
                }
            }
        }
        for (ordinal, store) in self.stores.iter_mut().enumerate() {
            if per_store[ordinal] > 0 {
                self.versions[ordinal] += 1;
            }
            evicted += per_store[ordinal];
            let (dc, db) = store.publish_delta();
            self.live.apply_projected(dc, db);
        }
        evicted
    }

    /// Live projected cells over all subspaces.
    pub fn live_cells(&self) -> usize {
        self.stores.iter().map(ProjectedStore::len).sum()
    }

    /// Approximate heap footprint of all synopses, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.stores.iter().map(ProjectedStore::approx_bytes).sum()
    }

    /// Read access to one projected store (experiments and self-evolution
    /// scoring).
    pub fn projected_store(&self, subspace: &Subspace) -> Option<&ProjectedStore> {
        self.index
            .get(&subspace.mask())
            .map(|&ordinal| &self.stores[ordinal])
    }

    /// Captures the complete synopsis state — global weight and every
    /// projected store's columns in **registration order** (the order that
    /// defines per-point result order, so a restored manager reproduces
    /// verdicts bit-exactly).
    pub fn capture_state(&self) -> Value {
        self.capture_state_with(&SerialExecutor)
    }

    /// [`SynopsisManager::capture_state`] with an explicit executor: each
    /// projected store's column encoding is one claim unit on the shard
    /// cursor, so a cooperative caller's helpers (or the worker pool)
    /// capture stores concurrently — the same protocol the batch shard
    /// phase rides. Capture is read-only per store; any claim interleaving
    /// produces the identical tree.
    pub fn capture_state_with(&self, exec: &dyn StoreExecutor) -> Value {
        let mut w = StateWriter::new();
        w.component("total", &self.total);
        let n = self.stores.len();
        let mut slots: Vec<Value> = vec![Value::Null; n];
        {
            let cursor = AtomicUsize::new(0);
            let shared = SharedSlice::new(&mut slots[..]);
            let stores = &self.stores;
            let work = || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let mut sw = StateWriter::new();
                stores[k].capture(&mut sw);
                // SAFETY: `k` is a unique cursor claim over 0..n.
                *unsafe { shared.get_mut(k) } = sw.finish();
            };
            exec.execute(&work);
        }
        w.nested_list("stores", slots);
        w.finish()
    }

    /// Snapshots the dirty-tracking state at capture time. Pair with
    /// [`SynopsisManager::capture_state_delta_with`] on the *next* capture
    /// to encode only what changed in between.
    pub fn capture_mark(&self) -> SynopsisMark {
        SynopsisMark {
            epoch: self.epoch,
            ingest: self.ingest_version,
            stores: self.versions.clone(),
        }
    }

    /// Captures only the state dirtied since `mark` — the delta-checkpoint
    /// primitive. Returns `None` when the layout changed since the mark
    /// (subspace add/remove, restore): ordinals no longer line up, and the
    /// caller must fall back to a full capture.
    ///
    /// The delta tree is `{total, stores_len, changed: [{ordinal,
    /// store}…]}` — `total` is a few scalars and always included; clean
    /// stores are skipped entirely, which is what makes fleet-scale
    /// checkpoint cost proportional to change.
    pub fn capture_state_delta_with(
        &self,
        exec: &dyn StoreExecutor,
        mark: &SynopsisMark,
    ) -> Option<Value> {
        if mark.epoch != self.epoch || mark.stores.len() != self.stores.len() {
            return None;
        }
        let mut w = StateWriter::new();
        w.component("total", &self.total);
        w.u64("stores_len", self.stores.len() as u64);
        let ingested = self.ingest_version != mark.ingest;
        let dirty: Vec<usize> = (0..self.stores.len())
            .filter(|&i| ingested || self.versions[i] != mark.stores[i])
            .collect();
        let n = dirty.len();
        let mut slots: Vec<Value> = vec![Value::Null; n];
        {
            let cursor = AtomicUsize::new(0);
            let shared = SharedSlice::new(&mut slots[..]);
            let stores = &self.stores;
            let dirty = &dirty[..];
            let work = || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let ordinal = dirty[k];
                let mut sw = StateWriter::new();
                sw.u64("ordinal", ordinal as u64);
                let mut inner = StateWriter::new();
                stores[ordinal].capture(&mut inner);
                sw.value("store", inner.finish());
                // SAFETY: `k` is a unique cursor claim over 0..n.
                *unsafe { shared.get_mut(k) } = sw.finish();
            };
            exec.execute(&work);
        }
        w.nested_list("changed", slots);
        Some(w.finish())
    }

    /// Restores the complete synopsis state captured by
    /// [`SynopsisManager::capture_state`]: existing stores are discarded
    /// and rebuilt from the snapshot in its registration order; the
    /// lock-free footprint mirror is re-derived in place (the shared
    /// [`LiveCounters`] handle stays valid for monitoring readers). The
    /// new state is built on the side and swapped in whole, so a rejected
    /// snapshot leaves the manager as it was.
    pub fn restore_state(&mut self, r: &StateReader<'_>) -> std::result::Result<(), PersistError> {
        let mut total = self.total;
        r.restore_component("total", &mut total)?;
        let mut stores: Vec<ProjectedStore> = Vec::new();
        let mut index = FxHashMap::default();
        for sr in r.nested_list("stores")? {
            let mask = sr.u64("mask")?;
            let subspace = Subspace::from_mask(mask)
                .map_err(|e| PersistError::custom(format!("store subspace: {e}")))?;
            // The mask comes from disk: a dimension the grid does not have
            // would index past its bounds when the store is built.
            if !subspace.fits(self.grid.dims()) {
                return Err(PersistError::custom(format!(
                    "store subspace mask {mask:#x} names a dimension outside the grid's {}",
                    self.grid.dims()
                )));
            }
            let mut store = ProjectedStore::new(&self.grid, subspace);
            store.restore(&sr)?;
            if index.insert(mask, stores.len()).is_some() {
                return Err(PersistError::custom(format!(
                    "duplicate projected store for subspace mask {mask:#x}"
                )));
            }
            stores.push(store);
        }

        // The mirror swaps over in place: the outgoing stores' footprint
        // out, the incoming stores' in.
        for store in &mut self.stores {
            self.live.retract(store);
        }
        for store in &mut stores {
            let (dc, db) = store.publish_delta();
            self.live.apply_projected(dc, db);
        }
        self.total = total;
        self.versions = vec![0; stores.len()];
        self.stores = stores;
        self.index = index;
        self.epoch += 1;
        Ok(())
    }
}

/// Deterministic per-point cost estimate of a store: the moment stripe is
/// `O(|s|)` and probes get colder as the cell population grows.
fn shard_weight(store: &ProjectedStore) -> u64 {
    let card = store.subspace().cardinality() as u64;
    let occupancy_bits = (usize::BITS - store.len().leading_zeros()) as u64;
    (2 + card) * (4 + occupancy_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_types::DomainBounds;

    fn manager(dims: usize, m: u16) -> SynopsisManager {
        let grid = Grid::new(DomainBounds::unit(dims), m).unwrap();
        SynopsisManager::new(grid, TimeModel::new(100, 0.01).unwrap())
    }

    #[test]
    fn add_remove_subspaces() {
        let mut mgr = manager(3, 4);
        let s01 = Subspace::from_dims([0, 1]).unwrap();
        let s2 = Subspace::from_dims([2]).unwrap();
        assert!(mgr.add_subspace(s01));
        assert!(!mgr.add_subspace(s01));
        assert!(mgr.add_subspace(s2));
        assert_eq!(mgr.subspace_count(), 2);
        assert!(mgr.remove_subspace(&s2));
        assert!(!mgr.remove_subspace(&s2));
        assert_eq!(mgr.subspace_count(), 1);
    }

    #[test]
    fn results_follow_registration_order() {
        let mut mgr = manager(3, 4);
        let subs = [
            Subspace::from_dims([2]).unwrap(),
            Subspace::from_dims([0, 1]).unwrap(),
            Subspace::from_dims([0]).unwrap(),
        ];
        for s in subs {
            mgr.add_subspace(s);
        }
        let mut sink = Vec::new();
        mgr.update_and_query(1, &DataPoint::new(vec![0.3, 0.7, 0.1]), &mut sink)
            .unwrap();
        let got: Vec<u64> = sink.iter().map(|e| e.subspace.mask()).collect();
        let want: Vec<u64> = subs.iter().map(|s| s.mask()).collect();
        assert_eq!(got, want, "sink order must be registration order");
        // Removal keeps the survivors' relative order.
        mgr.remove_subspace(&subs[1]);
        mgr.update_and_query(2, &DataPoint::new(vec![0.3, 0.7, 0.1]), &mut sink)
            .unwrap();
        let got: Vec<u64> = sink.iter().map(|e| e.subspace.mask()).collect();
        assert_eq!(got, vec![subs[0].mask(), subs[2].mask()]);
    }

    #[test]
    fn update_touches_all_stores() {
        let mut mgr = manager(2, 4);
        let s0 = Subspace::from_dims([0]).unwrap();
        let s01 = Subspace::from_dims([0, 1]).unwrap();
        mgr.add_subspace(s0);
        mgr.add_subspace(s01);
        let p = DataPoint::new(vec![0.3, 0.7]);
        let mut sink = Vec::new();
        let out = mgr.update_and_query(1, &p, &mut sink).unwrap();
        assert!((out.total_weight - 1.0).abs() < 1e-12);
        assert_eq!(mgr.live_cells(), 2);
        // PCS visible in both monitored subspaces.
        assert_eq!(sink.len(), 2);
        assert!(sink.iter().all(|e| e.pcs.rd > 0.0));
        assert!(sink.iter().any(|e| e.subspace == s0));
        assert!(sink.iter().any(|e| e.subspace == s01));
    }

    #[test]
    fn live_counters_mirror_exact_sweeps() {
        let mut mgr = manager(2, 4);
        mgr.add_subspace(Subspace::from_dims([0]).unwrap());
        mgr.add_subspace(Subspace::from_dims([0, 1]).unwrap());
        let live = mgr.live_counters();
        let mut sink = Vec::new();
        for i in 0..40u64 {
            let p = DataPoint::new(vec![(i % 7) as f64 / 7.0, ((i * 3) % 5) as f64 / 5.0]);
            mgr.update_and_query(i, &p, &mut sink).unwrap();
            assert_eq!(live.live_cells(), mgr.live_cells(), "tick {i}");
        }
        assert_eq!(live.approx_bytes(), mgr.approx_bytes());
        // Batch path keeps the mirror in sync too.
        let pts: Vec<DataPoint> = (0..30)
            .map(|i| DataPoint::new(vec![(i % 4) as f64 / 4.0, (i % 9) as f64 / 9.0]))
            .collect();
        let mut sinks = Vec::new();
        let mut outcomes = Vec::new();
        mgr.update_and_query_batch(40, &pts, &mut sinks, &mut outcomes)
            .unwrap();
        assert_eq!(live.live_cells(), mgr.live_cells());
        assert_eq!(live.approx_bytes(), mgr.approx_bytes());
        // Pruning retracts counters.
        mgr.prune(100_000, 1e-6);
        assert_eq!(live.live_cells(), mgr.live_cells());
        assert_eq!(live.live_cells(), 0);
        // Removing a subspace retracts its footprint.
        mgr.remove_subspace(&Subspace::from_dims([0]).unwrap());
        assert_eq!(live.approx_bytes(), mgr.approx_bytes());
    }

    #[test]
    fn fused_query_matches_separate_pcs_lookup() {
        let mut mgr = manager(3, 5);
        let subs = [
            Subspace::from_dims([0]).unwrap(),
            Subspace::from_dims([1, 2]).unwrap(),
            Subspace::from_dims([0, 1, 2]).unwrap(),
        ];
        for s in subs {
            mgr.add_subspace(s);
        }
        let mut sink = Vec::new();
        for i in 0..300u64 {
            let p = DataPoint::new(vec![
                (i % 7) as f64 / 7.0,
                ((i * 3) % 5) as f64 / 5.0,
                ((i * 11) % 13) as f64 / 13.0,
            ]);
            let _ = mgr.update_and_query(i, &p, &mut sink).unwrap();
            let base = mgr.grid().base_coords(&p).unwrap();
            for entry in &sink {
                let direct = mgr.pcs(i, &base, &entry.subspace).unwrap();
                assert_eq!(entry.pcs, direct, "tick {i} subspace {}", entry.subspace);
            }
        }
    }

    fn batch_reference_check(mgr_builder: impl Fn() -> SynopsisManager, points: &[DataPoint]) {
        let mut serial = mgr_builder();
        let mut sink = Vec::new();
        let mut expected: Vec<Vec<(u64, Pcs, f64)>> = Vec::new();
        let mut expected_outcomes = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let out = serial.update_and_query(i as u64, p, &mut sink).unwrap();
            expected_outcomes.push(out);
            expected.push(
                sink.iter()
                    .map(|e| (e.subspace.mask(), e.pcs, e.occupancy))
                    .collect(),
            );
        }
        let mut batched = mgr_builder();
        let mut sinks: Vec<Vec<SubspacePcs>> = Vec::new();
        let mut outcomes = Vec::new();
        batched
            .update_and_query_batch(0, points, &mut sinks, &mut outcomes)
            .unwrap();
        assert_eq!(outcomes.len(), points.len());
        for (i, want) in expected.iter().enumerate() {
            let got: Vec<(u64, Pcs, f64)> = sinks[i]
                .iter()
                .map(|e| (e.subspace.mask(), e.pcs, e.occupancy))
                .collect();
            assert_eq!(&got, want, "point {i}");
            assert_eq!(
                outcomes[i].total_weight.to_bits(),
                expected_outcomes[i].total_weight.to_bits(),
                "total at point {i}"
            );
        }
        assert_eq!(serial.live_cells(), batched.live_cells());
        let n = points.len() as u64;
        assert_eq!(
            serial.total_weight(n).to_bits(),
            batched.total_weight(n).to_bits()
        );
    }

    #[test]
    fn batch_matches_one_by_one() {
        let build = || {
            let mut mgr = manager(3, 4);
            mgr.add_subspace(Subspace::from_dims([0]).unwrap());
            mgr.add_subspace(Subspace::from_dims([0, 1]).unwrap());
            mgr.add_subspace(Subspace::from_dims([1, 2]).unwrap());
            mgr
        };
        let points: Vec<DataPoint> = (0..64)
            .map(|i| {
                DataPoint::new(vec![
                    (i % 9) as f64 / 9.0,
                    ((i * 5) % 7) as f64 / 7.0,
                    ((i * 2) % 3) as f64 / 3.0,
                ])
            })
            .collect();
        batch_reference_check(build, &points);
    }

    #[test]
    fn batch_matches_one_by_one_with_wide_sst() {
        // Enough stores that the `parallel` feature's pool actually
        // engages (≥ 8 on a multi-core machine); without the feature this
        // covers the serial shard loop.
        let build = || {
            let mut mgr = manager(6, 5);
            for d in 0..6 {
                mgr.add_subspace(Subspace::from_dims([d]).unwrap());
            }
            for d in 0..6 {
                mgr.add_subspace(Subspace::from_dims([d, (d + 1) % 6]).unwrap());
            }
            assert!(mgr.subspace_count() >= 8);
            mgr
        };
        let points: Vec<DataPoint> = (0..100)
            .map(|i| {
                DataPoint::new(
                    (0..6)
                        .map(|d| ((i * (d + 3) + d) % 17) as f64 / 17.0)
                        .collect(),
                )
            })
            .collect();
        batch_reference_check(build, &points);
    }

    #[test]
    fn forced_worker_counts_are_bit_identical() {
        let build = |workers: Option<usize>| {
            let mut mgr = manager(4, 5);
            mgr.set_parallel_workers(workers);
            for d in 0..4 {
                mgr.add_subspace(Subspace::from_dims([d]).unwrap());
                mgr.add_subspace(Subspace::from_dims([d, (d + 1) % 4]).unwrap());
            }
            mgr
        };
        let points: Vec<DataPoint> = (0..150)
            .map(|i| {
                DataPoint::new(
                    (0..4)
                        .map(|d| ((i * (d + 2) + 3 * d) % 23) as f64 / 23.0)
                        .collect(),
                )
            })
            .collect();
        let run = |workers: Option<usize>| {
            let mut mgr = build(workers);
            let mut sinks = Vec::new();
            let mut outcomes = Vec::new();
            // Several runs so cells age across run boundaries.
            for (chunk_idx, chunk) in points.chunks(40).enumerate() {
                mgr.update_and_query_batch(
                    (chunk_idx * 40) as u64,
                    chunk,
                    &mut sinks,
                    &mut outcomes,
                )
                .unwrap();
            }
            let state: Vec<(u64, Pcs, f64)> = sinks
                .iter()
                .flatten()
                .map(|e| (e.subspace.mask(), e.pcs, e.occupancy))
                .collect();
            (state, mgr.live_cells(), mgr.total_weight(200).to_bits())
        };
        let reference = run(Some(0));
        for workers in [1usize, 2, 5] {
            assert_eq!(run(Some(workers)), reference, "workers={workers}");
        }
    }

    #[test]
    fn lane_pool_never_hands_out_a_filled_lane() {
        // A participant that finishes early checks its lane in while a
        // late one has yet to check one out: the late one must get an idle
        // lane, never the filled one (it would reset it and lose a store's
        // worth of cells).
        let mut pool: LanePool<Vec<u32>> = LanePool::default();
        let mut early = pool.checkout();
        early.push(7);
        pool.checkin(early);
        let late = pool.checkout();
        assert!(late.is_empty(), "a filled lane was handed out again");
        pool.checkin(late);
        assert_eq!(pool.filled().len(), 2);
        assert_eq!(pool.filled().concat(), vec![7]);
        // Only recycling makes them available, as their user left them.
        pool.recycle();
        assert!(pool.filled().is_empty());
        let mut reused = vec![pool.checkout(), pool.checkout()];
        reused.sort();
        assert_eq!(reused, vec![vec![], vec![7]]);
    }

    /// Test consumer: every `(point, ordinal, PCS, occupancy)` it is
    /// handed, across however many lanes.
    #[derive(Default)]
    struct Collect {
        lanes: LanePool<Vec<Collected>>,
    }

    /// `(point, ordinal, PCS, occupancy)` of one touched cell.
    type Collected = (usize, usize, Pcs, f64);

    impl CellConsumer for Collect {
        type Lane = Vec<Collected>;

        fn checkout(&self, _points: usize) -> Self::Lane {
            self.lanes.checkout()
        }

        fn checkin(&self, lane: Self::Lane) {
            self.lanes.checkin(lane);
        }

        fn cell(
            &self,
            lane: &mut Self::Lane,
            ordinal: usize,
            store: &ProjectedStore,
            point: usize,
            touch: CellTouch,
        ) {
            lane.push((point, ordinal, store.pcs_of(&touch), touch.occupancy));
        }
    }

    impl Collect {
        /// Everything collected, in (point, ordinal) order.
        fn sorted(mut self) -> Vec<Collected> {
            let mut all: Vec<_> = self.lanes.filled().concat();
            all.sort_by_key(|&(point, ordinal, ..)| (point, ordinal));
            all
        }
    }

    #[test]
    fn prelude_rider_runs_exactly_once_and_results_match() {
        // The screening dispatch must hand its consumer exactly the cells
        // the full-report path reports, leave the same synopsis state, and
        // run the rider exactly once — on the success path and on the
        // all-or-nothing error path alike.
        let build = || {
            let mut mgr = manager(3, 4);
            mgr.add_subspace(Subspace::from_dims([0]).unwrap());
            mgr.add_subspace(Subspace::from_dims([1, 2]).unwrap());
            mgr
        };
        let points: Vec<DataPoint> = (0..40)
            .map(|i| {
                DataPoint::new(vec![
                    (i % 5) as f64 / 5.0,
                    ((i * 3) % 7) as f64 / 7.0,
                    ((i * 7) % 11) as f64 / 11.0,
                ])
            })
            .collect();
        let mut plain = build();
        let mut want_sinks = Vec::new();
        let mut want_outcomes = Vec::new();
        plain
            .update_and_query_batch(0, &points, &mut want_sinks, &mut want_outcomes)
            .unwrap();
        let want: Vec<(usize, usize, Pcs, f64)> = want_sinks
            .iter()
            .enumerate()
            .flat_map(|(i, sink)| {
                sink.iter()
                    .enumerate()
                    .map(move |(ordinal, e)| (i, ordinal, e.pcs, e.occupancy))
            })
            .collect();

        for workers in [0usize, 3] {
            let mut mgr = build();
            let collect = Collect::default();
            let mut ran = 0u32;
            {
                let task = OnceTask::new(|| ran += 1);
                let pool = WorkerPool::new(workers);
                mgr.update_and_screen_batch(0, &points, &pool, &collect, Some(&task))
                    .unwrap();
            }
            assert_eq!(ran, 1, "rider ran exactly once (workers={workers})");
            assert_eq!(mgr.live_cells(), plain.live_cells());
            assert_eq!(mgr.capture_state(), plain.capture_state());
            assert_eq!(collect.sorted(), want, "workers={workers}");
        }

        // Error path: validation fails before dispatch, yet the rider
        // (somebody's pending commit) must still be applied — and the
        // consumer sees nothing.
        let mut mgr = build();
        let collect = Collect::default();
        let mut ran_on_err = 0u32;
        {
            let task = OnceTask::new(|| ran_on_err += 1);
            let bad = vec![DataPoint::new(vec![0.1, 0.2, f64::NAN])];
            assert!(mgr
                .update_and_screen_batch(40, &bad, &SerialExecutor, &collect, Some(&task))
                .is_err());
        }
        assert_eq!(ran_on_err, 1, "rider still runs when the batch is rejected");
        assert!(collect.sorted().is_empty());
        assert_eq!(mgr.live_cells(), 0);
    }

    #[test]
    fn rd_reflects_relative_crowding() {
        let mut mgr = manager(2, 4);
        let s0 = Subspace::from_dims([0]).unwrap();
        mgr.add_subspace(s0);
        // 90% of points in one interval of dim 0, 10% in another,
        // interleaved so decay weights both cells alike (recency-skewed
        // arrival orders shift RD by design — that is the time model
        // working, not the property under test).
        for i in 0..100u64 {
            let x = if i % 10 == 9 { 0.9 } else { 0.1 };
            mgr.update(i, &DataPoint::new(vec![x, (i % 7) as f64 / 7.0]))
                .unwrap();
        }
        let crowded = DataPoint::new(vec![0.1, 0.5]);
        let sparse = DataPoint::new(vec![0.9, 0.5]);
        let now = 100;
        let bc = mgr.grid().base_coords(&crowded).unwrap();
        let bs = mgr.grid().base_coords(&sparse).unwrap();
        let rd_crowded = mgr.pcs(now, &bc, &s0).unwrap().rd;
        let rd_sparse = mgr.pcs(now, &bs, &s0).unwrap().rd;
        assert!(rd_crowded > rd_sparse);
        assert!(rd_sparse < 1.0);
    }

    #[test]
    fn prune_shrinks_all_stores() {
        let mut mgr = manager(2, 4);
        mgr.add_subspace(Subspace::from_dims([0]).unwrap());
        mgr.add_subspace(Subspace::from_dims([0, 1]).unwrap());
        for i in 0..4 {
            let p = DataPoint::new(vec![(i as f64 + 0.5) / 4.0, 0.5]);
            mgr.update(0, &p).unwrap();
        }
        assert_eq!(mgr.live_cells(), 8);
        let evicted = mgr.prune(10_000, 1e-6);
        assert_eq!(evicted, 8);
        assert_eq!(mgr.live_cells(), 0);
    }

    #[test]
    fn pooled_prune_is_bit_identical_to_serial() {
        // Same stream into two managers; one prunes on a forced worker
        // pool, one serially. Evicted counts and every surviving cell must
        // match bit-for-bit (the sharded scan touches disjoint stores and
        // the weight cache memoizes exact factors).
        let build = || {
            let mut mgr = manager(3, 5);
            for d in 0..3 {
                mgr.add_subspace(Subspace::from_dims([d]).unwrap());
            }
            for (a, b) in [(0usize, 1usize), (0, 2), (1, 2)] {
                mgr.add_subspace(Subspace::from_dims([a, b]).unwrap());
            }
            for i in 0..400u64 {
                let p = DataPoint::new(vec![
                    (i % 13) as f64 / 13.0,
                    (i % 7) as f64 / 7.0,
                    (i % 5) as f64 / 5.0,
                ]);
                mgr.update(i, &p).unwrap();
            }
            mgr
        };
        let mut serial = build();
        let mut pooled = build();
        serial.set_parallel_workers(Some(0));
        pooled.set_parallel_workers(Some(2));
        let now = 5000;
        let evicted_serial = serial.prune(now, 1e-3);
        let evicted_pooled = pooled.prune(now, 1e-3);
        assert_eq!(evicted_serial, evicted_pooled);
        assert!(evicted_serial > 0, "scenario must actually evict");
        assert_eq!(serial.live_cells(), pooled.live_cells());
        assert_eq!(serial.capture_state(), pooled.capture_state());
    }

    #[test]
    fn cached_prune_matches_uncached_store_prune() {
        // A filled table must make the exact decisions the powi path (an
        // empty table) makes, cell for cell.
        let grid = Grid::new(DomainBounds::unit(2), 6).unwrap();
        let tm = TimeModel::new(40, 0.02).unwrap();
        let full = Subspace::full(2).unwrap();
        let mut cached = ProjectedStore::new(&grid, full);
        let mut plain = ProjectedStore::new(&grid, full);
        let model_only = WeightCache::new(tm);
        for i in 0..200u64 {
            let p = DataPoint::new(vec![(i % 17) as f64 / 17.0, (i % 11) as f64 / 11.0]);
            let base = grid.base_coords(&p).unwrap();
            cached.update_and_screen(&grid, &model_only, i, &base, &p, 0.0);
            plain.update_and_screen(&grid, &model_only, i, &base, &p, 0.0);
        }
        let mut wc = WeightCache::new(tm);
        let mut evicted = 0;
        for now in [200u64, 260, 400] {
            wc.ensure(now + 1);
            let floor = 1e-2;
            let a = cached.prune(&wc, now, floor);
            let b = plain.prune(&model_only, now, floor);
            assert_eq!(a, b, "evictions at now={now}");
            assert_eq!(cached.len(), plain.len());
            evicted += a;
        }
        assert!(evicted > 0, "scenario must actually evict");
    }

    #[test]
    fn total_weight_decays() {
        let mut mgr = manager(1, 4);
        mgr.update(0, &DataPoint::new(vec![0.5])).unwrap();
        let w0 = mgr.total_weight(0);
        let w100 = mgr.total_weight(100);
        assert!((w0 - 1.0).abs() < 1e-12);
        assert!((w100 - 0.01).abs() < 1e-6);
    }

    #[test]
    fn replay_warms_a_new_store() {
        let mut mgr = manager(2, 4);
        let p = DataPoint::new(vec![0.5, 0.5]);
        mgr.update(1, &p).unwrap();
        mgr.update(2, &p).unwrap();
        let s = Subspace::from_dims([1]).unwrap();
        mgr.add_subspace(s);
        mgr.replay_into(&s, &[(1, p.clone()), (2, p.clone())])
            .unwrap();
        let base = mgr.grid().base_coords(&p).unwrap();
        let pcs = mgr.pcs(2, &base, &s).unwrap();
        assert!(pcs.rd > 0.0, "replayed store must not look empty");
        // Unknown subspace errors.
        let other = Subspace::from_dims([0]).unwrap();
        assert!(mgr.replay_into(&other, &[]).is_err());
    }

    #[test]
    fn late_added_subspace_starts_empty() {
        let mut mgr = manager(2, 4);
        mgr.update(0, &DataPoint::new(vec![0.5, 0.5])).unwrap();
        let s = Subspace::from_dims([1]).unwrap();
        mgr.add_subspace(s);
        let p = DataPoint::new(vec![0.5, 0.5]);
        let base = mgr.grid().base_coords(&p).unwrap();
        // The store was added after the first point: its cells are empty.
        assert_eq!(mgr.pcs(0, &base, &s).unwrap(), Pcs::EMPTY);
    }

    #[test]
    fn batch_with_invalid_point_leaves_manager_untouched() {
        // All-or-nothing: a NaN (or dimension mismatch) anywhere in the
        // batch must be rejected before the global weight or any projected
        // store mutates — otherwise the stores desync and
        // RD is computed against a total weight the projected cells never
        // absorbed.
        let mut mgr = manager(2, 4);
        mgr.add_subspace(Subspace::from_dims([0]).unwrap());
        let mut points: Vec<DataPoint> = (0..10)
            .map(|i| DataPoint::new(vec![i as f64 / 10.0, 0.5]))
            .collect();
        points.push(DataPoint::new(vec![f64::NAN, 0.5]));
        let mut sinks = Vec::new();
        let mut outcomes = Vec::new();
        let err = mgr
            .update_and_query_batch(0, &points, &mut sinks, &mut outcomes)
            .unwrap_err();
        assert!(matches!(err, SpotError::NonFiniteValue { dim: 0 }));
        assert_eq!(mgr.live_cells(), 0);
        assert_eq!(mgr.total_weight(0), 0.0);
        // Mismatched dimensionality mid-batch: same guarantee.
        let bad_dims = vec![DataPoint::new(vec![0.1, 0.1]), DataPoint::new(vec![0.1])];
        assert!(mgr
            .update_and_query_batch(0, &bad_dims, &mut sinks, &mut outcomes)
            .is_err());
        assert_eq!(mgr.live_cells(), 0);
    }

    #[test]
    fn nan_point_rejected_before_any_state_change() {
        let mut mgr = manager(2, 4);
        mgr.add_subspace(Subspace::from_dims([0]).unwrap());
        let bad = DataPoint::new(vec![0.5, f64::NAN]);
        let mut sink = Vec::new();
        assert!(matches!(
            mgr.update_and_query(0, &bad, &mut sink),
            Err(SpotError::NonFiniteValue { dim: 1 })
        ));
        assert_eq!(mgr.live_cells(), 0);
        assert_eq!(mgr.total_weight(0), 0.0);
    }

    #[test]
    fn delta_capture_tracks_dirty_stores_only() {
        let mut mgr = manager(2, 4);
        let s0 = Subspace::from_dims([0]).unwrap();
        let s1 = Subspace::from_dims([1]).unwrap();
        mgr.add_subspace(s0);
        mgr.add_subspace(s1);
        let p = DataPoint::new(vec![0.5, 0.5]);
        mgr.update(1, &p).unwrap();

        let changed_ordinals = |delta: &Value| -> Vec<u64> {
            let r = StateReader::new(delta).unwrap();
            r.nested_list("changed")
                .unwrap()
                .iter()
                .map(|sr| sr.u64("ordinal").unwrap())
                .collect()
        };

        // Nothing mutated since the mark → no stores.
        let mark = mgr.capture_mark();
        let delta = mgr
            .capture_state_delta_with(&SerialExecutor, &mark)
            .unwrap();
        assert_eq!(changed_ordinals(&delta), Vec::<u64>::new());
        let r = StateReader::new(&delta).unwrap();
        assert_eq!(r.u64("stores_len").unwrap(), 2);

        // Replaying into one store dirties exactly that ordinal.
        mgr.replay_into(&s1, &[(1, p.clone())]).unwrap();
        let delta = mgr
            .capture_state_delta_with(&SerialExecutor, &mark)
            .unwrap();
        assert_eq!(changed_ordinals(&delta), vec![1]);

        // A processed point dirties every store.
        mgr.update(2, &p).unwrap();
        let delta = mgr
            .capture_state_delta_with(&SerialExecutor, &mark)
            .unwrap();
        assert_eq!(changed_ordinals(&delta), vec![0, 1]);

        // A prune with nothing to evict dirties nothing.
        let mark = mgr.capture_mark();
        assert_eq!(mgr.prune(2, 0.0), 0);
        let delta = mgr
            .capture_state_delta_with(&SerialExecutor, &mark)
            .unwrap();
        assert_eq!(changed_ordinals(&delta), Vec::<u64>::new());

        // Layout changes invalidate outstanding marks.
        let mark = mgr.capture_mark();
        mgr.add_subspace(Subspace::from_dims([0, 1]).unwrap());
        assert!(mgr
            .capture_state_delta_with(&SerialExecutor, &mark)
            .is_none());
        let mark = mgr.capture_mark();
        mgr.remove_subspace(&s0);
        assert!(mgr
            .capture_state_delta_with(&SerialExecutor, &mark)
            .is_none());
    }

    #[test]
    fn clone_gets_independent_counters() {
        let mut mgr = manager(2, 4);
        mgr.add_subspace(Subspace::from_dims([0]).unwrap());
        mgr.update(0, &DataPoint::new(vec![0.3, 0.3])).unwrap();
        let mut cloned = mgr.clone();
        let clone_live = cloned.live_counters();
        assert_eq!(clone_live.live_cells(), mgr.live_cells());
        cloned.update(1, &DataPoint::new(vec![0.9, 0.9])).unwrap();
        assert_eq!(clone_live.live_cells(), cloned.live_cells());
        // The original's counters were not disturbed by the clone.
        assert_eq!(mgr.live_counters().live_cells(), mgr.live_cells());
    }
}
