//! The synopsis manager: the global weight + one projected store per SST
//! subspace.

use crate::grid::Grid;
use crate::pcs::{CellTouch, Pcs, PointRun, ProjectedStore};
use spot_stream::{DecayedCounter, TimeModel, WeightCache};
use spot_subspace::Subspace;
use spot_types::{
    DataPoint, DurableState, FxHashMap, PersistError, Result, SpotError, StateReader, StateWriter,
};
/// Bundles every decayed synopsis SPOT maintains online.
///
/// [`SynopsisManager::update_and_screen_batch`] is the one ingest loop of
/// the detection stage: a run of points at consecutive ticks (a single
/// point is a run of one) goes into every monitored projected store, one
/// insertion per (point, subspace), each O(|s|) — and every touched
/// projected cell is handed to a [`CellConsumer`] *in the same cell
/// access* (occupancy and RD derived, IRSD on demand), so the detector
/// never projects or hashes the same coordinates twice and never
/// materializes a per-subspace PCS list. On the steady state (no new
/// cells) the loop performs zero heap allocations: coordinates land in
/// reused buffers, keys are `Copy` integers, and the decay table was
/// allocated whole on its first extension (`tests/allocations.rs` counts
/// runs of one, longer runs and the prune).
/// [`SynopsisManager::update_and_query`] and
/// [`SynopsisManager::update_and_query_batch`] are full-report consumers
/// of the same loop (baselines, tools): every cell's `(RD, IRSD)` pair
/// into caller-reused sinks.
///
/// Stores live in **registration (ordinal) order** — the order of
/// per-point PCS results, and the tie-break that keeps verdicts
/// deterministic when two subspaces tie on RD.
#[derive(Debug)]
pub struct SynopsisManager {
    grid: Grid,
    model: TimeModel,
    /// Monitored projected stores, registration order (= result order).
    stores: Vec<ProjectedStore>,
    /// Subspace mask → ordinal in `stores`.
    index: FxHashMap<u64, usize>,
    total: DecayedCounter,
    /// Reused quantization buffer (ϕ entries).
    scratch: Vec<u16>,
    /// Reused run quantization buffer (n·ϕ entries).
    batch_coords: Vec<u16>,
    /// Reused per-run total-weight buffer (n entries).
    batch_totals: Vec<f64>,
    /// Layout epoch: bumped whenever the registration-ordinal layout
    /// changes (subspace add/remove, restore); see
    /// [`SynopsisManager::layout_epoch`].
    epoch: u64,
    /// The age → `δ^age` table behind every cell renormalization (derived
    /// state, never persisted, not counted in [`SynopsisManager::approx_bytes`];
    /// see [`WeightCache`]). Extended to the tick at hand before a run or
    /// a prune; read-only inside one. At most
    /// [`WeightCache::MAX_AGES`] entries (32 KiB).
    weights: WeightCache,
}

impl Clone for SynopsisManager {
    fn clone(&self) -> Self {
        SynopsisManager {
            grid: self.grid.clone(),
            model: self.model,
            stores: self.stores.clone(),
            index: self.index.clone(),
            total: self.total,
            scratch: Vec::with_capacity(self.grid.dims()),
            batch_coords: Vec::new(),
            batch_totals: Vec::new(),
            epoch: self.epoch,
            weights: WeightCache::new(self.model),
        }
    }
}

/// Everything the detection logic needs to know after one update.
#[derive(Debug, Clone, Copy)]
pub struct UpdateOutcome {
    /// Global decayed weight after this point arrived.
    pub total_weight: f64,
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

/// Receives every projected cell the ingest loop touches
/// ([`SynopsisManager::update_and_screen_batch`]): stores in registration
/// order, each store's points in arrival order.
pub trait CellConsumer {
    /// Point `point` of the run fell into a cell of store `ordinal`
    /// (registration order).
    fn cell(&mut self, ordinal: usize, store: &ProjectedStore, point: usize, touch: CellTouch);
}

/// The ingest-only consumer: every touched cell is dropped.
impl CellConsumer for () {
    #[inline]
    fn cell(&mut self, _: usize, _: &ProjectedStore, _: usize, _: CellTouch) {}
}

/// The full-report consumer behind
/// [`SynopsisManager::update_and_query_batch`]: one row per point, filled
/// in registration order because the stores arrive in it.
struct BatchReport<'a> {
    sinks: &'a mut [Vec<SubspacePcs>],
}

impl CellConsumer for BatchReport<'_> {
    #[inline]
    fn cell(&mut self, _ordinal: usize, store: &ProjectedStore, point: usize, touch: CellTouch) {
        self.sinks[point].push(SubspacePcs {
            subspace: store.subspace(),
            pcs: store.pcs_of(&touch),
            occupancy: touch.occupancy,
        });
    }
}

impl SynopsisManager {
    /// Creates a manager with no monitored subspaces yet.
    pub fn new(grid: Grid, model: TimeModel) -> Self {
        let scratch = Vec::with_capacity(grid.dims());
        SynopsisManager {
            grid,
            model,
            stores: Vec::new(),
            index: FxHashMap::default(),
            total: DecayedCounter::new(),
            scratch,
            batch_coords: Vec::new(),
            batch_totals: Vec::new(),
            epoch: 0,
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

    /// Starts maintaining a projected store for `subspace`. No-op when
    /// already monitored. Returns `true` when newly added.
    pub fn add_subspace(&mut self, subspace: Subspace) -> bool {
        if self.index.contains_key(&subspace.mask()) {
            return false;
        }
        self.index.insert(subspace.mask(), self.stores.len());
        self.stores.push(ProjectedStore::new(&self.grid, subspace));
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
        self.stores.remove(ordinal);
        for slot in self.index.values_mut() {
            if *slot > ordinal {
                *slot -= 1;
            }
        }
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

    /// Ingests one point at tick `now` — a run of one, every touch
    /// dropped: updates the global weight and every monitored projected
    /// store.
    pub fn update(&mut self, now: u64, p: &DataPoint) -> Result<UpdateOutcome> {
        self.update_and_screen_batch(now, std::slice::from_ref(p), &mut ())?;
        Ok(self.last_outcome())
    }

    /// [`SynopsisManager::update`] reporting in full: pushes the PCS of
    /// the point's cell in every monitored subspace into `sink` (cleared
    /// first; reuse it across calls to keep the path allocation-free).
    pub fn update_and_query(
        &mut self,
        now: u64,
        p: &DataPoint,
        sink: &mut Vec<SubspacePcs>,
    ) -> Result<UpdateOutcome> {
        sink.clear();
        sink.reserve(self.stores.len());
        let mut report = BatchReport {
            sinks: std::slice::from_mut(sink),
        };
        self.update_and_screen_batch(now, std::slice::from_ref(p), &mut report)?;
        Ok(self.last_outcome())
    }

    /// The global weight after the last point of the last run.
    fn last_outcome(&self) -> UpdateOutcome {
        UpdateOutcome {
            total_weight: self.batch_totals[self.batch_totals.len() - 1],
        }
    }

    /// Batch ingestion: points arrive at consecutive ticks
    /// `start_tick, start_tick+1, …`. For each point, `sinks` receives the
    /// same per-subspace PCS list [`SynopsisManager::update_and_query`]
    /// would produce (rows are cleared and refilled; pass the same vector
    /// across batches to amortize its capacity).
    pub fn update_and_query_batch(
        &mut self,
        start_tick: u64,
        points: &[DataPoint],
        sinks: &mut Vec<Vec<SubspacePcs>>,
        outcomes: &mut Vec<UpdateOutcome>,
    ) -> Result<()> {
        // Exactly one (cleared) row per point: rows surviving from a larger
        // previous batch are dropped so a caller iterating `sinks` never
        // sees stale entries.
        sinks.truncate(points.len());
        sinks.resize_with(points.len(), Vec::new);
        for sink in sinks.iter_mut() {
            sink.clear();
        }
        let mut report = BatchReport { sinks };
        self.update_and_screen_batch(start_tick, points, &mut report)?;
        outcomes.clear();
        outcomes.extend(
            self.batch_totals
                .iter()
                .map(|&total_weight| UpdateOutcome { total_weight }),
        );
        Ok(())
    }

    /// The one ingest loop. Points arrive at consecutive ticks
    /// `start_tick, start_tick+1, …` (one point is a run of one); every
    /// touched cell goes to `consumer`, store by store in registration
    /// order (see [`CellConsumer`]). Nothing per (point, subspace) is
    /// materialized here. Validate + quantize, advance the global weight,
    /// then run every point into each store in turn; synopsis state is
    /// bit-identical to feeding the points one by one.
    ///
    /// Validation is all-or-nothing: a rejected run leaves the manager
    /// untouched and the consumer uncalled.
    pub fn update_and_screen_batch<C: CellConsumer>(
        &mut self,
        start_tick: u64,
        points: &[DataPoint],
        consumer: &mut C,
    ) -> Result<()> {
        // Quantize everything into the reused run buffer. This is also
        // the validation pass — a NaN or dimension mismatch at any
        // position returns before *any* store mutates. (Each point goes
        // through the ϕ-entry scratch and is copied over: appending to the
        // run buffer directly measured 9–15 % slower on `process_batch`.)
        let dims = self.grid.dims();
        self.batch_coords.resize(points.len() * dims, 0);
        for (i, p) in points.iter().enumerate() {
            self.grid.base_coords_into(p, &mut self.scratch)?;
            self.batch_coords[i * dims..(i + 1) * dims].copy_from_slice(&self.scratch);
        }

        // No cell the run touches is older than its last tick: extend the
        // weight table that far, once, so the loop below only reads it.
        // The global weight advances by one geometric recurrence
        // (bit-identical to per-point adds).
        self.weights
            .ensure(start_tick.saturating_add(points.len() as u64));
        self.total.add_run(
            &self.weights,
            start_tick,
            points.len(),
            &mut self.batch_totals,
        );

        // Store-major: each store takes the whole run in one call, sees
        // its points in arrival order, and keeps its cells hot across it.
        if let [point] = points {
            self.touch_point(start_tick, point, consumer);
            return Ok(());
        }
        let run = PointRun {
            start_tick,
            coords: &self.batch_coords,
            points,
            totals: &self.batch_totals,
        };
        for (ordinal, store) in self.stores.iter_mut().enumerate() {
            store.update_and_screen_batch(&self.grid, &self.weights, run, |store, i, touch| {
                consumer.cell(ordinal, store, i, touch)
            });
        }
        Ok(())
    }

    /// The store pass of a run of one, quantized and weighed. A function
    /// of its own so that the touch kernel is compiled against a one-point
    /// run, whose loop and set-up fold away: as the general pass's
    /// `points.len() == 1` case, `touch_point_phi64_78stores` ran 18–35 %
    /// slower and `Spot::process` at ϕ = 64 about 8 % (2 vCPUs).
    #[inline(never)]
    fn touch_point<C: CellConsumer>(&mut self, tick: u64, point: &DataPoint, consumer: &mut C) {
        let run = PointRun {
            start_tick: tick,
            coords: &self.batch_coords,
            points: std::slice::from_ref(point),
            totals: &self.batch_totals[..1],
        };
        for (ordinal, store) in self.stores.iter_mut().enumerate() {
            store.update_and_screen_batch(&self.grid, &self.weights, run, |store, _, touch| {
                consumer.cell(ordinal, store, 0, touch)
            });
        }
    }

    /// Warms the projected store of `subspace` by replaying timestamped
    /// points (e.g. the detector's reservoir sample) into it. Points must be
    /// supplied as `(tick, point)` in non-decreasing tick order; the global
    /// weight is *not* touched — it already absorbed the points when they
    /// originally arrived.
    ///
    /// Used when SST self-evolution introduces a subspace mid-stream: a
    /// brand-new store would report every cell as empty (maximally sparse)
    /// and flood the detector with false alarms.
    pub fn replay_into<'p>(
        &mut self,
        subspace: &Subspace,
        points: impl IntoIterator<Item = (u64, &'p DataPoint)>,
    ) -> Result<()> {
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
            store.update_and_screen(&self.grid, &self.weights, tick, &self.scratch, p, 0.0);
        }
        Ok(())
    }

    /// Global decayed stream weight at tick `now`.
    pub fn total_weight(&self, now: u64) -> f64 {
        self.total.value_at(&self.model, now)
    }

    /// Prunes every store, evicting cells whose decayed count fell below
    /// `floor`. Returns the total number of evicted cells.
    ///
    /// Decay factors come from the weight table the ingest paths use —
    /// one load per live cell (a `powi` for a cell older than the table),
    /// the same eviction decisions as the model.
    pub fn prune(&mut self, now: u64, floor: f64) -> usize {
        // Cells can be as old as `now`; extend the table once, up front,
        // so the scans below only read it.
        self.weights.ensure(now.saturating_add(1));
        self.stores
            .iter_mut()
            .map(|store| store.prune(&self.weights, now, floor))
            .sum()
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
    pub fn capture_state(&self, w: &mut StateWriter) {
        w.component("total", &self.total);
        w.nested_list("stores", &self.stores, |w, store| store.capture(w));
    }

    /// Restores the complete synopsis state captured by
    /// [`SynopsisManager::capture_state`]: existing stores are discarded
    /// and rebuilt from the snapshot in its registration order. The new
    /// state is built on the side and swapped in whole, so a rejected
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
        self.total = total;
        self.stores = stores;
        self.index = index;
        self.epoch += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_types::DomainBounds;

    fn state(mgr: &SynopsisManager) -> Vec<u8> {
        let mut w = StateWriter::new();
        mgr.capture_state(&mut w);
        w.finish()
    }

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
        // A dozen stores of mixed cardinality over 100 points.
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
    fn batch_matches_one_by_one_with_every_kernel_instance() {
        // m=10 at ϕ=36: |s| = 1 and 2 are dense, 3 and 4 hash packed keys
        // on their unrolled instances, |s| = 5 on the runtime-width one,
        // and the full space (144 bits) is fingerprinted.
        let dims = 36;
        let build = || {
            let mut mgr = manager(dims, 10);
            let projected: [&[usize]; 5] = [
                &[0],
                &[5, 30],
                &[1, 17, 35],
                &[2, 9, 21, 33],
                &[3, 10, 19, 27, 34],
            ];
            for s in projected {
                mgr.add_subspace(Subspace::from_dims(s.iter().copied()).unwrap());
            }
            mgr.add_subspace(Subspace::full(dims).unwrap());
            assert!(!mgr.grid().codec().is_exact(dims));
            mgr
        };
        // A few prototypes, so full-space cells are revisited too.
        let points: Vec<DataPoint> = (0..300usize)
            .map(|i| {
                let proto = if i % 5 == 4 { i % 23 } else { i % 7 };
                DataPoint::new(
                    (0..dims)
                        .map(|d| ((proto * (d + 3) + d) % 17) as f64 / 17.0)
                        .collect(),
                )
            })
            .collect();
        batch_reference_check(build, &points);
    }

    /// Test consumer: every `(point, ordinal, PCS, occupancy)` it is
    /// handed, in the order it was handed them.
    #[derive(Default)]
    struct Collect(Vec<(usize, usize, Pcs, f64)>);

    impl CellConsumer for Collect {
        fn cell(&mut self, ordinal: usize, store: &ProjectedStore, point: usize, touch: CellTouch) {
            self.0
                .push((point, ordinal, store.pcs_of(&touch), touch.occupancy));
        }
    }

    #[test]
    fn screening_batch_hands_the_consumer_every_reported_cell() {
        // The screening loop must hand its consumer exactly the cells the
        // full-report path reports — store by store, each store's points
        // in arrival order — leave the same synopsis state, and on the
        // all-or-nothing error path call the consumer not at all.
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
        let mut want: Vec<(usize, usize, Pcs, f64)> = want_sinks
            .iter()
            .enumerate()
            .flat_map(|(i, sink)| {
                sink.iter()
                    .enumerate()
                    .map(move |(ordinal, e)| (i, ordinal, e.pcs, e.occupancy))
            })
            .collect();
        want.sort_by_key(|&(point, ordinal, ..)| (ordinal, point));

        let mut mgr = build();
        let mut collect = Collect::default();
        mgr.update_and_screen_batch(0, &points, &mut collect)
            .unwrap();
        assert_eq!(mgr.live_cells(), plain.live_cells());
        assert_eq!(state(&mgr), state(&plain));
        assert_eq!(collect.0, want);

        let mut collect = Collect::default();
        let bad = vec![DataPoint::new(vec![0.1, 0.2, f64::NAN])];
        assert!(mgr.update_and_screen_batch(40, &bad, &mut collect).is_err());
        assert!(collect.0.is_empty());
        assert_eq!(state(&mgr), state(&plain));
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
        let mut sink = Vec::new();
        let mut rd_at = |mgr: &mut SynopsisManager, now, x| {
            mgr.update_and_query(now, &DataPoint::new(vec![x, 0.5]), &mut sink)
                .unwrap();
            sink[0].pcs.rd
        };
        let rd_crowded = rd_at(&mut mgr, 100, 0.1);
        let rd_sparse = rd_at(&mut mgr, 101, 0.9);
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
        mgr.replay_into(&s, [(1, &p), (2, &p)]).unwrap();
        // The next point finds the replayed points in its cell.
        let mut sink = Vec::new();
        mgr.update_and_query(3, &p, &mut sink).unwrap();
        assert!(
            sink[0].occupancy > 2.0,
            "replayed store must not look empty"
        );
        // Unknown subspace errors.
        let other = Subspace::from_dims([0]).unwrap();
        assert!(mgr.replay_into(&other, []).is_err());
    }

    #[test]
    fn late_added_subspace_starts_empty() {
        let mut mgr = manager(2, 4);
        let early = Subspace::from_dims([0]).unwrap();
        mgr.add_subspace(early);
        let p = DataPoint::new(vec![0.5, 0.5]);
        mgr.update(0, &p).unwrap();
        let s = Subspace::from_dims([1]).unwrap();
        mgr.add_subspace(s);
        // The store was added after the first point: the second point is
        // the first its cell holds, while the early store holds both.
        let mut sink = Vec::new();
        mgr.update_and_query(0, &p, &mut sink).unwrap();
        assert_eq!(sink[0].occupancy, 2.0);
        assert_eq!(sink[1].occupancy, 1.0);
        assert_eq!(sink[1].pcs.irsd, 0.0);
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
}
