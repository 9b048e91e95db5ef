//! Store of populated base cells.

use crate::bcs::Bcs;
use crate::grid::Grid;
use crate::key::CellKey;
use spot_stream::{TimeModel, WeightCache};
use spot_types::{
    DataPoint, DurableState, FxHashMap, PersistError, Result, StateReader, StateWriter,
};
use std::collections::hash_map::Entry;

/// Bytes [`BaseStore::cell_bytes`] charges for a cell's index entry: a
/// `(CellKey, u32)` bucket is 32 B plus a control byte, in a table that
/// runs between 7/16 and 7/8 full.
const INDEX_ENTRY_BYTES: usize = 48;

/// All populated base cells of the hypercube, keyed by their packed
/// [`CellKey`].
///
/// Only *populated* cells are materialized — the hypercube has `m^ϕ` cells,
/// astronomically more than a stream can touch; the store grows with the
/// data's support, and [`BaseStore::prune`] shrinks it again as regions of
/// the space fall out of the decaying window.
///
/// Cells live in the projected stores' structure-of-arrays layout: a
/// `CellKey → slot` index over parallel columns for the key, the decayed
/// count, the last-touched tick and the `2·ϕ` moment sums. Opening a cell
/// is a push onto each column (no per-cell allocation), touching one is a
/// map probe plus a contiguous stripe of float updates, and a prune scan
/// reads the count and tick columns only, compacting by swap-remove.
#[derive(Debug, Clone)]
pub struct BaseStore {
    index: FxHashMap<CellKey, u32>,
    /// Per-slot cell key (prune compaction, iteration, capture).
    keys: Vec<CellKey>,
    /// Per-slot decayed count.
    d: Vec<f64>,
    /// Per-slot last-touched tick.
    last_tick: Vec<u64>,
    /// Per-slot moment stripe, stride `2·dims`: `ls[0..dims], ss[0..dims]`.
    moments: Vec<f64>,
    /// ϕ of the populated cells (set by the first cell of an empty store).
    dims: usize,
    /// Conservative lower bound on the oldest `last_tick` among populated
    /// cells (`u64::MAX` when empty) — the prune screen's eviction
    /// horizon. Derived state: tightened exactly during prune scans,
    /// loosened monotonically by inserts, never captured.
    min_last_tick: u64,
}

impl Default for BaseStore {
    fn default() -> Self {
        BaseStore {
            index: FxHashMap::default(),
            keys: Vec::new(),
            d: Vec::new(),
            last_tick: Vec::new(),
            moments: Vec::new(),
            dims: 0,
            min_last_tick: u64::MAX,
        }
    }
}

impl BaseStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of populated base cells.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no cell is populated.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Inserts a point whose base-cell key was already derived (the
    /// manager's path), renormalizing the cell by a factor from `weights`.
    /// Returns the cell's decayed count *before* this insertion — the
    /// novelty signal consumed by the concept-drift detector.
    ///
    /// # Panics
    /// When `p` is not as wide as the cells the store already holds.
    #[inline]
    pub fn insert_at(
        &mut self,
        key: CellKey,
        weights: &WeightCache,
        now: u64,
        p: &DataPoint,
    ) -> f64 {
        if self.keys.is_empty() {
            self.dims = p.dims();
        }
        let dims = self.dims;
        // The stripes are addressed by `dims`; a point of another width
        // would be folded across cell boundaries.
        assert_eq!(p.dims(), dims, "base store holds {dims}-dimensional cells");
        let stride = 2 * dims;
        let (slot, prior) = match self.index.entry(key) {
            Entry::Occupied(e) => {
                let slot = *e.get() as usize;
                let f = weights.decay_between(self.last_tick[slot], now);
                let prior = self.d[slot] * f;
                if f != 1.0 {
                    self.d[slot] *= f;
                    for v in &mut self.moments[slot * stride..(slot + 1) * stride] {
                        *v *= f;
                    }
                }
                self.last_tick[slot] = now;
                (slot, prior)
            }
            Entry::Vacant(e) => {
                let slot = self.keys.len();
                e.insert(slot as u32);
                self.keys.push(key);
                self.d.push(0.0);
                self.last_tick.push(now);
                self.moments.extend(std::iter::repeat_n(0.0, stride));
                (slot, 0.0)
            }
        };
        self.min_last_tick = self.min_last_tick.min(now);
        self.d[slot] += 1.0;
        let (ls, ss) = self.moments[slot * stride..(slot + 1) * stride].split_at_mut(dims);
        for ((l, s), &v) in ls.iter_mut().zip(ss).zip(p.values()) {
            *l += v;
            *s += v * v;
        }
        prior
    }

    /// Footprint charged per populated cell of a `dims`-dimensional store:
    /// its key, index entry, count, tick and moment stripe.
    /// [`BaseStore::approx_bytes`] equals
    /// `size_of::<BaseStore>() + len · cell_bytes(dims)`, which is what
    /// lets the manager mirror the footprint into lock-free counters
    /// without sweeping the cells.
    pub fn cell_bytes(dims: usize) -> usize {
        std::mem::size_of::<CellKey>()
            + INDEX_ENTRY_BYTES
            + std::mem::size_of::<f64>()
            + std::mem::size_of::<u64>()
            + 2 * dims * std::mem::size_of::<f64>()
    }

    /// Inserts a point at tick `now`, returning its base-cell key and the
    /// cell's decayed count before this insertion. Quantizes into a fresh
    /// buffer and takes every decay factor from the model; callers on a
    /// hot path quantize once themselves and use [`BaseStore::insert_at`]
    /// with their weight table.
    pub fn insert(
        &mut self,
        grid: &Grid,
        model: &TimeModel,
        now: u64,
        p: &DataPoint,
    ) -> Result<(CellKey, f64)> {
        let coords = grid.base_coords(p)?;
        let key = grid.base_key(&coords);
        let prior = self.insert_at(key, &WeightCache::new(*model), now, p);
        Ok((key, prior))
    }

    #[inline]
    fn view(&self, slot: usize) -> Bcs<'_> {
        let stride = 2 * self.dims;
        Bcs::new(
            self.d[slot],
            self.last_tick[slot],
            &self.moments[slot * stride..(slot + 1) * stride],
        )
    }

    /// The summary of the cell with the given key, if populated.
    pub fn get(&self, key: CellKey) -> Option<Bcs<'_>> {
        self.index.get(&key).map(|&slot| self.view(slot as usize))
    }

    /// Decayed count of the cell containing `p` at tick `now` (0 when the
    /// cell was never populated).
    pub fn count_for(
        &self,
        grid: &Grid,
        model: &TimeModel,
        now: u64,
        p: &DataPoint,
    ) -> Result<f64> {
        let coords = grid.base_coords(p)?;
        let key = grid.base_key(&coords);
        Ok(self.get(key).map_or(0.0, |c| c.count_at(model, now)))
    }

    /// Iterates populated cells in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (CellKey, Bcs<'_>)> {
        self.keys
            .iter()
            .enumerate()
            .map(|(slot, &key)| (key, self.view(slot)))
    }

    /// Removes cells whose decayed count at `now` fell below `floor`;
    /// returns how many were evicted. One pass over the count and tick
    /// columns with swap-remove compaction.
    ///
    /// Stores entirely inside the eviction horizon skip the scan: every
    /// cell carries weight ≥ 1 at its own `last_tick` (each touch adds
    /// exactly 1 after decaying), so its decayed count at `now` is at
    /// least `δ^(now − last_tick) ≥ δ^(now − min_last_tick)`. When even
    /// that lower bound clears the floor, a scan would evict nothing —
    /// and a scan that evicts nothing mutates nothing, so skipping it is
    /// bit-identical.
    pub fn prune(&mut self, weights: &WeightCache, now: u64, floor: f64) -> usize {
        if self.min_last_tick == u64::MAX
            || weights.weight(now.saturating_sub(self.min_last_tick)) >= floor
        {
            return 0;
        }
        let stride = 2 * self.dims;
        let before = self.keys.len();
        let mut min_last = u64::MAX;
        let mut slot = 0usize;
        while slot < self.keys.len() {
            let last_tick = self.last_tick[slot];
            if self.d[slot] * weights.decay_between(last_tick, now) >= floor {
                min_last = min_last.min(last_tick);
                slot += 1;
                continue;
            }
            let last = self.keys.len() - 1;
            self.index.remove(&self.keys[slot]);
            self.keys.swap_remove(slot);
            self.d.swap_remove(slot);
            self.last_tick.swap_remove(slot);
            if slot != last {
                self.moments
                    .copy_within(last * stride..(last + 1) * stride, slot * stride);
                self.index.insert(self.keys[slot], slot as u32);
            }
            self.moments.truncate(last * stride);
        }
        self.min_last_tick = min_last;
        before - self.keys.len()
    }

    /// Approximate heap footprint in bytes — a function of the content
    /// (live cells), not of `Vec` capacities, so a checkpoint-restored
    /// store reports exactly what the uninterrupted one does.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.len() * Self::cell_bytes(self.dims)
    }
}

impl DurableState for BaseStore {
    /// Columns sorted by cell key, so the same logical state always
    /// captures to the same bytes regardless of slot history. One sort of
    /// the slot order — this runs while the detector lock is held, so no
    /// per-column re-probing.
    fn capture(&self, w: &mut StateWriter) {
        let mut order: Vec<u32> = (0..self.keys.len() as u32).collect();
        order.sort_unstable_by_key(|&slot| self.keys[slot as usize]);
        let slots = || order.iter().map(|&slot| slot as usize);
        let dims = if order.is_empty() { 0 } else { self.dims };
        w.u64("dims", dims as u64);
        w.u128_col("keys", slots().map(|s| self.keys[s].0));
        w.f64_bits_col("d", slots().map(|s| self.d[s]));
        w.u64_col("last", slots().map(|s| self.last_tick[s]));
        // Gathered with explicit capacity: a flat_map has no usable size
        // hint, and these two columns are the largest allocations a
        // capture makes — realloc-doubling them would dominate the time
        // the detector lock is held.
        let mut ls = Vec::with_capacity(order.len() * dims);
        let mut ss = Vec::with_capacity(order.len() * dims);
        for s in slots() {
            let stripe = &self.moments[s * 2 * dims..(s + 1) * 2 * dims];
            ls.extend_from_slice(&stripe[..dims]);
            ss.extend_from_slice(&stripe[dims..]);
        }
        w.f64_bits_col("ls", ls);
        w.f64_bits_col("ss", ss);
    }

    /// Cells take the captured (key-sorted) order as their slot order. A
    /// rejected snapshot leaves the store as it was.
    fn restore(&mut self, r: &StateReader<'_>) -> std::result::Result<(), PersistError> {
        let dims = usize::try_from(r.u64("dims")?)
            .map_err(|_| PersistError::custom("base store dims out of range"))?;
        let keys = r.u128_col("keys")?;
        let d = r.f64_bits_col("d")?;
        let last = r.u64_col("last")?;
        let ls = r.f64_bits_col("ls")?;
        let ss = r.f64_bits_col("ss")?;
        let n = keys.len();
        let moments_len = n.checked_mul(dims);
        if d.len() != n
            || last.len() != n
            || Some(ls.len()) != moments_len
            || Some(ss.len()) != moments_len
            || u32::try_from(n).is_err()
        {
            return Err(PersistError::custom(format!(
                "base store columns disagree: {n} keys, {} d, {} last, {} ls, {} ss ({dims} dims)",
                d.len(),
                last.len(),
                ls.len(),
                ss.len()
            )));
        }
        let mut index = FxHashMap::default();
        index.reserve(n);
        for (slot, &key) in keys.iter().enumerate() {
            if index.insert(CellKey(key), slot as u32).is_some() {
                return Err(PersistError::custom(format!(
                    "duplicate base cell key at column {slot}"
                )));
            }
        }
        let mut moments = Vec::with_capacity(2 * ls.len());
        for slot in 0..n {
            moments.extend_from_slice(&ls[slot * dims..(slot + 1) * dims]);
            moments.extend_from_slice(&ss[slot * dims..(slot + 1) * dims]);
        }
        self.index = index;
        self.keys = keys.into_iter().map(CellKey).collect();
        self.d = d;
        self.min_last_tick = last.iter().copied().min().unwrap_or(u64::MAX);
        self.last_tick = last;
        self.moments = moments;
        self.dims = dims;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_types::DomainBounds;

    fn setup() -> (Grid, TimeModel) {
        (
            Grid::new(DomainBounds::unit(2), 4).unwrap(),
            TimeModel::new(50, 0.01).unwrap(),
        )
    }

    #[test]
    fn horizon_screen_skips_only_no_op_prunes() {
        // TimeModel(50, 0.01): weight_after(age) = 0.01^(age/50), so a
        // lone point falls below floor=1e-3 once 0.01^(age/50) < 1e-3,
        // i.e. strictly after age 75.
        let (grid, tm) = setup();
        let mut store = BaseStore::new();
        let p = DataPoint::new(vec![0.1, 0.1]);
        store.insert(&grid, &tm, 10, &p).unwrap();
        // Inside the horizon: the screen must report nothing evictable and
        // the cell must survive untouched.
        assert_eq!(store.prune(&WeightCache::new(tm), 40, 1e-3), 0);
        assert_eq!(store.len(), 1);
        // Past the horizon the scan runs and evicts.
        assert_eq!(store.prune(&WeightCache::new(tm), 200, 1e-3), 1);
        assert_eq!(store.len(), 0);
        // Empty store: screened out without touching the model.
        assert_eq!(store.prune(&WeightCache::new(tm), 300, 1e-3), 0);
    }

    #[test]
    fn horizon_tightens_after_partial_prune() {
        let (grid, tm) = setup();
        let mut store = BaseStore::new();
        // Old lone cell (evictable at now=100) and a fresh heavy cell.
        store
            .insert(&grid, &tm, 0, &DataPoint::new(vec![0.1, 0.1]))
            .unwrap();
        for _ in 0..5 {
            store
                .insert(&grid, &tm, 90, &DataPoint::new(vec![0.9, 0.9]))
                .unwrap();
        }
        assert_eq!(store.prune(&WeightCache::new(tm), 100, 1e-3), 1);
        assert_eq!(store.len(), 1);
        // The horizon now reflects the survivor (last_tick 90), so an
        // immediate re-prune is screened out as a no-op, and a later one
        // still evicts the survivor once it actually decays below floor.
        assert_eq!(store.prune(&WeightCache::new(tm), 100, 1e-3), 0);
        assert_eq!(store.prune(&WeightCache::new(tm), 400, 1e-3), 1);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn insert_reports_prior_count() {
        let (grid, tm) = setup();
        let mut store = BaseStore::new();
        let p = DataPoint::new(vec![0.1, 0.1]);
        let (_, prior) = store.insert(&grid, &tm, 0, &p).unwrap();
        assert_eq!(prior, 0.0);
        let (_, prior) = store.insert(&grid, &tm, 0, &p).unwrap();
        assert!((prior - 1.0).abs() < 1e-12);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn returned_key_addresses_the_stored_cell() {
        // Regression guard for the seed's `coords.clone()` entry: the key
        // handed back by insert must be exactly the key under which the
        // summary is stored, for fresh and for existing cells alike.
        let (grid, tm) = setup();
        let mut store = BaseStore::new();
        let p = DataPoint::new(vec![0.3, 0.8]);
        let (k1, _) = store.insert(&grid, &tm, 0, &p).unwrap();
        let cell = store.get(k1).expect("fresh key resolves");
        assert!((cell.count() - 1.0).abs() < 1e-12);
        let (k2, _) = store.insert(&grid, &tm, 1, &p).unwrap();
        assert_eq!(k1, k2, "same cell must yield the same key");
        // And it matches the grid's own quantization of the point.
        let coords = grid.base_coords(&p).unwrap();
        assert_eq!(grid.base_key(&coords), k1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn distinct_cells_tracked_separately() {
        let (grid, tm) = setup();
        let mut store = BaseStore::new();
        store
            .insert(&grid, &tm, 0, &DataPoint::new(vec![0.1, 0.1]))
            .unwrap();
        store
            .insert(&grid, &tm, 0, &DataPoint::new(vec![0.9, 0.9]))
            .unwrap();
        assert_eq!(store.len(), 2);
        let c = store
            .count_for(&grid, &tm, 0, &DataPoint::new(vec![0.12, 0.13]))
            .unwrap();
        assert!((c - 1.0).abs() < 1e-12); // same cell as (0.1, 0.1) at m=4
        let c = store
            .count_for(&grid, &tm, 0, &DataPoint::new(vec![0.6, 0.6]))
            .unwrap();
        assert_eq!(c, 0.0);
    }

    #[test]
    fn dimension_mismatch_propagates() {
        let (grid, tm) = setup();
        let mut store = BaseStore::new();
        assert!(store
            .insert(&grid, &tm, 0, &DataPoint::new(vec![0.5]))
            .is_err());
    }

    #[test]
    fn nan_rejected() {
        let (grid, tm) = setup();
        let mut store = BaseStore::new();
        let err = store
            .insert(&grid, &tm, 0, &DataPoint::new(vec![0.5, f64::NAN]))
            .unwrap_err();
        assert!(matches!(
            err,
            spot_types::SpotError::NonFiniteValue { dim: 1 }
        ));
        assert!(store.is_empty());
    }

    #[test]
    fn prune_bounds_memory() {
        let (grid, tm) = setup();
        let mut store = BaseStore::new();
        // Populate 16 distinct cells at tick 0.
        for i in 0..4 {
            for j in 0..4 {
                let p = DataPoint::new(vec![i as f64 / 4.0 + 0.01, j as f64 / 4.0 + 0.01]);
                store.insert(&grid, &tm, 0, &p).unwrap();
            }
        }
        assert_eq!(store.len(), 16);
        // Refresh one cell much later; prune everything stale.
        let p = DataPoint::new(vec![0.01, 0.01]);
        store.insert(&grid, &tm, 5000, &p).unwrap();
        let evicted = store.prune(&WeightCache::new(tm), 5000, 1e-3);
        assert_eq!(evicted, 15);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn tabled_insert_matches_model_insert_bitwise() {
        let (grid, tm) = setup();
        // `a` takes every factor from the model (an empty table), `b` from
        // a table ensured as the manager ensures it.
        let by_model = WeightCache::new(tm);
        let mut table = WeightCache::new(tm);
        let mut a = BaseStore::new();
        let mut b = BaseStore::new();
        let pts: Vec<DataPoint> = (0..40)
            .map(|i| DataPoint::new(vec![(i % 5) as f64 / 5.0, (i % 3) as f64 / 3.0]))
            .collect();
        // Two runs with a gap, so cells age across it.
        for (start, run) in [(1u64, &pts[..25]), (60, &pts[25..])] {
            for (i, p) in run.iter().enumerate() {
                let now = start + i as u64;
                table.ensure(now + 1);
                let coords = grid.base_coords(p).unwrap();
                let key = grid.base_key(&coords);
                let pa = a.insert_at(key, &by_model, now, p);
                let pb = b.insert_at(key, &table, now, p);
                assert_eq!(pa.to_bits(), pb.to_bits(), "prior at point {i}");
            }
        }
        assert_eq!(a.len(), b.len());
        for (key, cell) in a.iter() {
            assert_eq!(Some(cell), b.get(key));
        }
        let populated = a.len();
        assert_eq!(a.prune(&by_model, 100, 0.05), b.prune(&table, 100, 0.05));
        assert!(
            !a.is_empty() && a.len() < populated,
            "the prune must be partial: {} of {populated} left",
            a.len()
        );
        for (key, cell) in a.iter() {
            assert_eq!(Some(cell), b.get(key));
        }
    }

    #[test]
    #[should_panic(expected = "2-dimensional cells")]
    fn a_point_of_another_width_is_refused() {
        let (grid, tm) = setup();
        let mut store = BaseStore::new();
        let (key, _) = store
            .insert(&grid, &tm, 0, &DataPoint::new(vec![0.1, 0.1]))
            .unwrap();
        store.insert_at(
            key,
            &WeightCache::new(tm),
            1,
            &DataPoint::new(vec![0.1, 0.1, 0.1]),
        );
    }

    #[test]
    fn cell_bytes_matches_swept_footprint() {
        let (grid, tm) = setup();
        let mut store = BaseStore::new();
        for i in 0..7 {
            let p = DataPoint::new(vec![(i as f64 + 0.5) / 8.0, 0.5]);
            store.insert(&grid, &tm, 0, &p).unwrap();
        }
        assert_eq!(
            store.approx_bytes(),
            std::mem::size_of::<BaseStore>() + store.len() * BaseStore::cell_bytes(2)
        );
    }

    #[test]
    fn bytes_accounting_grows_with_cells() {
        let (grid, tm) = setup();
        let mut store = BaseStore::new();
        let empty = store.approx_bytes();
        for i in 0..8 {
            let p = DataPoint::new(vec![(i as f64 + 0.5) / 8.0, 0.5]);
            store.insert(&grid, &tm, 0, &p).unwrap();
        }
        assert!(store.approx_bytes() > empty);
    }
}
