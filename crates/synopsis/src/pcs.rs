//! Projected Cell Summary.

use crate::grid::Grid;
use crate::key::CellKey;
use serde::{Deserialize, Serialize};
use spot_stream::{TimeModel, WeightCache};
use spot_subspace::Subspace;
use spot_types::{DataPoint, DurableState, FxHashMap, PersistError, StateReader, StateWriter};

/// The derived PCS pair of a projected cell: `(RD, IRSD)`.
///
/// * `rd` — **Relative Density**: the cell's decayed count relative to the
///   expected count under a uniform stream, `D · m^{|s|} / N`. `rd < 1`
///   means sparser than uniform.
/// * `irsd` — **Inverse Relative Standard Deviation**: the dispersion of a
///   uniform cell relative to the cell's own dispersion,
///   `σ_uniform(s) / σ(c,s)`. Points scattered across the cell give
///   `irsd ≈ 1`; points spread *more* than uniform give `irsd < 1`.
///
/// Following the paper, *small RD and small IRSD* flag the sparse cells in
/// which projected outliers live.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pcs {
    /// Relative density (≥ 0; 1 = uniform expectation).
    pub rd: f64,
    /// Inverse relative standard deviation (≥ 0).
    pub irsd: f64,
}

impl Pcs {
    /// PCS of a cell nobody has populated: zero density. IRSD is reported
    /// as 0 (maximally sparse) so that threshold tests treat unseen cells
    /// as outlying regions.
    pub const EMPTY: Pcs = Pcs { rd: 0.0, irsd: 0.0 };
}

/// Read-only view of one projected cell's decayed statistics (count +
/// per-dim LS/SS restricted to the subspace's dimensions).
///
/// The store keeps cells in a structure-of-arrays layout — this view is how
/// iteration and tests observe a single cell.
#[derive(Debug, Clone, Copy)]
pub struct PcsCell<'a> {
    d: f64,
    last_tick: u64,
    /// `[ls_0..ls_card, ss_0..ss_card]`.
    moments: &'a [f64],
}

impl PcsCell<'_> {
    /// Decayed count renormalized to `now`.
    #[inline]
    pub fn count_at(&self, model: &TimeModel, now: u64) -> f64 {
        self.d * model.decay_between(self.last_tick, now)
    }

    /// Aggregate standard deviation over the subspace's dimensions
    /// (Euclidean norm of the per-dimension deviations). `None` when the
    /// cell holds less than ~one point of decayed weight.
    pub fn sigma(&self) -> Option<f64> {
        sigma_of(self.d, self.moments)
    }
}

#[inline]
fn sigma_of(d: f64, moments: &[f64]) -> Option<f64> {
    if d <= f64::EPSILON {
        return None;
    }
    let card = moments.len() / 2;
    let (ls, ss) = moments.split_at(card);
    let mut acc = 0.0;
    for i in 0..card {
        let m = ls[i] / d;
        acc += (ss[i] / d - m * m).max(0.0);
    }
    Some(acc.sqrt())
}

/// Widest packed key (in bits) a store addresses directly. Up to here the
/// whole key space is a table of at most 1024 `u16` slots (2 KiB, L1
/// resident) and a probe is one load; one more dimension at the default
/// granularity (3-d, 12 bits) would cost 8 KiB per store for key spaces
/// that stay mostly empty, so wider keys hash.
const DENSE_KEY_BITS: u32 = 10;

/// Dense-table entry of a key no cell populates. A dense store holds at
/// most `2^DENSE_KEY_BITS` cells, so the value can never be a live slot.
const VACANT: u16 = u16::MAX;

/// Width parameter of the touch kernel's runtime-width instance: stores of
/// more than four dimensions, fingerprinted ones included, read their width
/// from the store instead of from the type.
const ANY_WIDTH: usize = 0;

/// The exact key of the coordinates along `dims` (ascending), `bits` bits a
/// group, most-significant group first — the fold [`Grid::project_key`]
/// performs over the subspace's mask, over the store's cached dimensions.
#[inline(always)]
fn packed_key(dims: &[u8], base: &[u16], bits: u32) -> u128 {
    dims.iter().fold(0u128, |key, &d| {
        (key << bits) | u128::from(base[d as usize])
    })
}

/// `key → slot` lookup of one store: derived state, rebuilt on restore and
/// never captured.
#[derive(Debug, Clone)]
enum SlotIndex {
    /// Direct-addressed by the packed key (`table[key] = slot`).
    Dense(Box<[u16]>),
    /// Wider (or fingerprinted) keys.
    Hashed(FxHashMap<CellKey, u32>),
}

impl SlotIndex {
    /// The index kind for keys of `key_bits` bits (`None` = fingerprinted).
    fn for_key_bits(key_bits: Option<u32>) -> Self {
        match key_bits {
            Some(bits) if bits <= DENSE_KEY_BITS => {
                SlotIndex::Dense(vec![VACANT; 1usize << bits].into_boxed_slice())
            }
            _ => SlotIndex::Hashed(FxHashMap::default()),
        }
    }

    /// An empty index of the same kind (and table size), with room for
    /// `cells` entries.
    fn emptied(&self, cells: usize) -> Self {
        match self {
            SlotIndex::Dense(table) => {
                SlotIndex::Dense(vec![VACANT; table.len()].into_boxed_slice())
            }
            SlotIndex::Hashed(_) => {
                let mut map = FxHashMap::default();
                map.reserve(cells);
                SlotIndex::Hashed(map)
            }
        }
    }

    fn get(&self, key: CellKey) -> Option<usize> {
        match self {
            SlotIndex::Dense(table) => usize::try_from(key.0)
                .ok()
                .and_then(|k| table.get(k))
                .filter(|&&slot| slot != VACANT)
                .map(|&slot| slot as usize),
            SlotIndex::Hashed(map) => map.get(&key).map(|&slot| slot as usize),
        }
    }

    /// Points `key` (which must be indexed, or in range and vacant) at
    /// `slot`; `None` unindexes it.
    fn set(&mut self, key: CellKey, slot: Option<usize>) {
        match self {
            SlotIndex::Dense(table) => {
                table[key.0 as usize] = slot.map_or(VACANT, |s| s as u16);
            }
            SlotIndex::Hashed(map) => match slot {
                Some(s) => {
                    map.insert(key, s as u32);
                }
                None => {
                    map.remove(&key);
                }
            },
        }
    }

    /// Indexes `key → slot` for a restored column; `Err` names what is
    /// wrong with the key (out of the dense range, or already indexed).
    fn insert_restored(&mut self, key: CellKey, slot: usize) -> Result<(), &'static str> {
        match self {
            SlotIndex::Dense(table) => {
                let entry = usize::try_from(key.0)
                    .ok()
                    .and_then(|k| table.get_mut(k))
                    .ok_or("out-of-range")?;
                if *entry != VACANT {
                    return Err("duplicate");
                }
                // In range and distinct ⇒ slot < table.len() ≤ 1024.
                *entry = slot as u16;
                Ok(())
            }
            SlotIndex::Hashed(map) => match map.insert(key, slot as u32) {
                None => Ok(()),
                Some(_) => Err("duplicate"),
            },
        }
    }

    /// Heap bytes of the index for a store of `cells` cells.
    fn approx_bytes(&self, cells: usize) -> usize {
        match self {
            SlotIndex::Dense(table) => std::mem::size_of_val(&**table),
            SlotIndex::Hashed(_) => {
                cells * (std::mem::size_of::<CellKey>() + std::mem::size_of::<u32>())
            }
        }
    }
}

/// What one upsert learned about the cell the point fell into — the
/// screening half of the PCS. RD needs only the decayed count and is
/// always derived; IRSD (five divisions and a square root per dimension)
/// is derived on demand by [`ProjectedStore::irsd_of`], which a screening
/// consumer calls only for the rare cell whose RD is under its threshold.
#[derive(Debug, Clone, Copy)]
pub struct CellTouch {
    slot: u32,
    /// Decayed occupancy of the cell, point included.
    pub occupancy: f64,
    /// Relative density of the cell (see [`Pcs::rd`]).
    pub rd: f64,
}

/// A run of quantized points arriving at consecutive ticks — what
/// [`ProjectedStore::update_and_screen_batch`] folds in. Point `i` arrives
/// at tick `start_tick + i`.
#[derive(Debug, Clone, Copy)]
pub struct PointRun<'a> {
    /// Tick of the run's first point.
    pub start_tick: u64,
    /// The points' base-cell coordinates on the store's grid, `ϕ` per
    /// point (coordinates from another grid may index outside a dense
    /// store's table and panic).
    pub coords: &'a [u16],
    /// The points themselves.
    pub points: &'a [DataPoint],
    /// The stream's global decayed weight at each point's tick, point
    /// included.
    pub totals: &'a [f64],
}

/// All populated projected cells of one subspace.
///
/// Cells live in a structure-of-arrays layout: a `CellKey → slot` index
/// plus parallel columns for the decayed count, last-touched tick and the
/// `2·|s|` moment sums. The index is a flat `u16` table addressed by the
/// packed key when that key has at most 10 bits (every 1-d and 2-d
/// subspace at the default granularity), a hash map otherwise — chosen
/// from the key width alone. Inserting a point into an existing cell
/// touches no allocator and no variable-length hashing — the steady-state
/// hot path is one table load (or integer-keyed map probe) plus a
/// contiguous stripe of float updates.
#[derive(Debug, Clone)]
pub struct ProjectedStore {
    subspace: Subspace,
    card: usize,
    /// The subspace's dimensions, ascending (the mask's bits, cached).
    dims: Box<[u8]>,
    index: SlotIndex,
    /// Per-slot cell key (for pruning compaction and iteration).
    keys: Vec<CellKey>,
    /// Per-slot decayed count.
    d: Vec<f64>,
    /// Per-slot last-touched tick.
    last_tick: Vec<u64>,
    /// Conservative lower bound on the oldest `last_tick` among populated
    /// slots (`u64::MAX` when empty) — the prune screen's eviction
    /// horizon. Derived state: tightened exactly during prune scans,
    /// loosened monotonically by upserts, never captured.
    min_last_tick: u64,
    /// Per-slot moment stripe, stride `2·card`: `ls[0..card], ss[0..card]`.
    moments: Vec<f64>,
    /// `m^{|s|}` — precomputed RD multiplier numerator.
    cell_count: f64,
    /// `σ_uniform(s)` — precomputed IRSD numerator.
    uniform_sigma: f64,
}

impl ProjectedStore {
    /// Empty store for `subspace` over `grid`.
    pub fn new(grid: &Grid, subspace: Subspace) -> Self {
        let card = subspace.cardinality();
        let codec = grid.codec();
        let key_bits = codec
            .is_exact(card)
            .then(|| card as u32 * codec.bits_per_dim());
        ProjectedStore {
            subspace,
            card,
            dims: subspace.dims().map(|d| d as u8).collect(),
            index: SlotIndex::for_key_bits(key_bits),
            keys: Vec::new(),
            d: Vec::new(),
            last_tick: Vec::new(),
            min_last_tick: u64::MAX,
            moments: Vec::new(),
            cell_count: grid.cell_count_in(&subspace),
            uniform_sigma: grid.uniform_sigma_in(&subspace),
        }
    }

    /// The subspace this store projects onto.
    pub fn subspace(&self) -> Subspace {
        self.subspace
    }

    /// `|s|`, the subspace's dimensionality (cached).
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.card
    }

    /// `m^{|s|}`: the number of projected cells of this subspace.
    pub fn cell_count_total(&self) -> f64 {
        self.cell_count
    }

    /// Number of populated projected cells.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no cell is populated.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    #[inline]
    fn stripe(&self, slot: usize) -> &[f64] {
        &self.moments[slot * 2 * self.card..(slot + 1) * 2 * self.card]
    }

    /// Folds one point into its projected cell at tick `now` and screens
    /// the cell in the same access: a run of one through
    /// [`ProjectedStore::update_and_screen_batch`], the one touch kernel
    /// behind every ingest path. `base` must be the point's base-cell
    /// coordinates on the same grid (coordinates from another grid may
    /// index outside a dense store's table and panic); `weights` supplies
    /// the cell's renormalization factor; `total` is the stream's global
    /// decayed weight at `now` (point included). Returns the cell's
    /// decayed occupancy (point included — the drift detector's freshness
    /// signal) and RD; IRSD is [`ProjectedStore::irsd_of`] the returned
    /// touch.
    pub fn update_and_screen(
        &mut self,
        grid: &Grid,
        weights: &WeightCache,
        now: u64,
        base: &[u16],
        point: &DataPoint,
        total: f64,
    ) -> CellTouch {
        let mut touched = None;
        let run = PointRun {
            start_tick: now,
            coords: base,
            points: std::slice::from_ref(point),
            totals: &[total],
        };
        self.update_and_screen_batch(grid, weights, run, |_, _, touch| touched = Some(touch));
        touched.expect("a run of one point touches one cell")
    }

    /// Folds a run of points into their projected cells and hands every
    /// touched cell to `on_touch` as `(store, i, touch)` right after point
    /// `i` went in, before the next one does. This is the touch kernel of
    /// every ingest path: the batch loop passes a run, the per-point loop
    /// and [`ProjectedStore::update_and_screen`] a run of one. `weights`
    /// supplies the renormalization factors and must reach the run's last
    /// tick to serve them all from the table.
    ///
    /// The kernel is generic over the store's width and chosen once per
    /// run: stores of one to four dimensions run an instance whose key
    /// fold, moment decay and `LS`/`SS` adds are unrolled to that width,
    /// wider and fingerprinted stores the runtime-width instance of the
    /// same body. Each cell sees the same operations in the same order on
    /// every instance and at every run length.
    pub fn update_and_screen_batch(
        &mut self,
        grid: &Grid,
        weights: &WeightCache,
        run: PointRun<'_>,
        on_touch: impl FnMut(&ProjectedStore, usize, CellTouch),
    ) {
        match self.card {
            1 => self.touch_each::<1>(grid, weights, run, on_touch),
            2 => self.touch_each::<2>(grid, weights, run, on_touch),
            3 => self.touch_each::<3>(grid, weights, run, on_touch),
            4 => self.touch_each::<4>(grid, weights, run, on_touch),
            _ => self.touch_each::<ANY_WIDTH>(grid, weights, run, on_touch),
        }
    }

    /// The touch kernel at width `K` ([`ANY_WIDTH`]: the store's own).
    /// Per point: find the cell's slot (one table load, or one map probe
    /// of the packed or fingerprinted key), or claim the next one for a
    /// new key; decay an existing cell to the point's tick; add the point;
    /// derive occupancy and RD. New cells extend the columns (the only
    /// allocating path, taken once per distinct populated cell).
    #[inline(always)]
    fn touch_each<const K: usize>(
        &mut self,
        grid: &Grid,
        weights: &WeightCache,
        run: PointRun<'_>,
        mut on_touch: impl FnMut(&ProjectedStore, usize, CellTouch),
    ) {
        let width = if K == ANY_WIDTH { self.card } else { K };
        debug_assert_eq!(width, self.card);
        let stride = 2 * width;
        let phi = grid.dims();
        let PointRun {
            start_tick,
            coords,
            points,
            totals,
        } = run;
        assert!(
            coords.len() == points.len() * phi && totals.len() == points.len(),
            "a run needs ϕ coordinates and one total per point"
        );
        let bits = grid.codec().bits_per_dim();
        // Up to four dimensions a key is at most 64 bits: always packed.
        let packed = K != ANY_WIDTH || grid.codec().is_exact(width);
        let dims = &self.dims[..width];
        if !points.is_empty() {
            // Every touch of the run leaves its cell at a tick ≥ the first.
            self.min_last_tick = self.min_last_tick.min(start_tick);
        }
        for (i, (point, &total)) in points.iter().zip(totals).enumerate() {
            let now = start_tick + i as u64;
            let base = &coords[i * phi..(i + 1) * phi];
            let next = self.keys.len();
            let (slot, new_key) = match &mut self.index {
                SlotIndex::Dense(table) => {
                    let k = packed_key(dims, base, bits) as usize;
                    let entry = &mut table[k];
                    if *entry == VACANT {
                        *entry = next as u16;
                        (next, Some(CellKey(k as u128)))
                    } else {
                        (*entry as usize, None)
                    }
                }
                SlotIndex::Hashed(map) => {
                    let key = if packed {
                        CellKey(packed_key(dims, base, bits))
                    } else {
                        grid.project_key(base, &self.subspace)
                    };
                    match map.entry(key) {
                        std::collections::hash_map::Entry::Occupied(e) => (*e.get() as usize, None),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(next as u32);
                            (next, Some(key))
                        }
                    }
                }
            };
            match new_key {
                None => {
                    let f = weights.decay_between(self.last_tick[slot], now);
                    if f != 1.0 {
                        self.d[slot] *= f;
                        for v in &mut self.moments[slot * stride..(slot + 1) * stride] {
                            *v *= f;
                        }
                    }
                    self.last_tick[slot] = now;
                }
                Some(key) => {
                    self.keys.push(key);
                    self.d.push(0.0);
                    self.last_tick.push(now);
                    self.moments.extend(std::iter::repeat_n(0.0, stride));
                }
            }
            self.d[slot] += 1.0;
            let (ls, ss) = self.moments[slot * stride..(slot + 1) * stride].split_at_mut(width);
            let values = point.values();
            for (j, &d) in dims.iter().enumerate() {
                let v = values[d as usize];
                ls[j] += v;
                ss[j] += v * v;
            }
            let occupancy = self.d[slot];
            let touch = CellTouch {
                slot: slot as u32,
                occupancy,
                rd: self.rd_of(occupancy, total),
            };
            on_touch(self, i, touch);
        }
    }

    /// IRSD of the cell a touch of **this** store just reported (valid
    /// until the store is next mutated).
    #[inline]
    pub fn irsd_of(&self, touch: &CellTouch) -> f64 {
        let slot = touch.slot as usize;
        self.irsd_slot(touch.occupancy, self.d[slot], self.stripe(slot))
    }

    /// The full PCS pair of a touched cell.
    #[inline]
    pub fn pcs_of(&self, touch: &CellTouch) -> Pcs {
        Pcs {
            rd: touch.rd,
            irsd: self.irsd_of(touch),
        }
    }

    /// PCS of the projected cell containing `base`, renormalized to `now`.
    /// `total` is the stream's global decayed weight at `now`. (Query-only
    /// path, factor straight from the model; the detection hot path uses
    /// [`ProjectedStore::update_and_screen`].)
    pub fn pcs(&self, grid: &Grid, model: &TimeModel, now: u64, base: &[u16], total: f64) -> Pcs {
        let key = grid.project_key(base, &self.subspace);
        match self.index.get(key) {
            None => Pcs::EMPTY,
            Some(slot) => {
                let d_now = self.d[slot] * model.decay_between(self.last_tick[slot], now);
                // σ must come from the *stored* count alongside the stored
                // moments — mixing the renormalized count with undecayed
                // LS/SS sums would inflate the means and corrupt IRSD for
                // any cell queried after its last update. σ is
                // decay-invariant, so the stored triple is exact.
                Pcs {
                    rd: self.rd_of(d_now, total),
                    irsd: self.irsd_slot(d_now, self.d[slot], self.stripe(slot)),
                }
            }
        }
    }

    /// RD of a cell holding `d_now` decayed weight at the query tick.
    #[inline]
    fn rd_of(&self, d_now: f64, total: f64) -> f64 {
        if total > f64::EPSILON {
            d_now * self.cell_count / total
        } else {
            0.0
        }
    }

    /// IRSD from a cell's decayed count (`d_now`, renormalized to the
    /// query tick) and its stored count + moment stripe (`d_stored`,
    /// self-consistent with `moments`).
    ///
    /// Cells holding less than two points of decayed weight report
    /// `irsd = 0`: with at most one (weighted) occupant, dispersion carries
    /// no evidence of structure, and the cell is maximally sparse — this is
    /// what lets a lone projected outlier satisfy the paper's
    /// "small RD *and* small IRSD" rule.
    fn irsd_slot(&self, d_now: f64, d_stored: f64, moments: &[f64]) -> f64 {
        if d_now < 2.0 {
            return 0.0;
        }
        match sigma_of(d_stored, moments) {
            Some(sigma) if sigma > f64::EPSILON => self.uniform_sigma / sigma,
            // All mass on one spot (σ=0): a maximally concentrated
            // micro-cluster, the opposite of scattered sparsity.
            _ => f64::MAX,
        }
    }

    /// Iterates over populated cells as (key, cell view).
    pub fn iter(&self) -> impl Iterator<Item = (CellKey, PcsCell<'_>)> + '_ {
        self.keys.iter().enumerate().map(move |(slot, &key)| {
            (
                key,
                PcsCell {
                    d: self.d[slot],
                    last_tick: self.last_tick[slot],
                    moments: self.stripe(slot),
                },
            )
        })
    }

    /// Removes cells whose decayed count at `now` fell below `floor`.
    /// Returns the number of evicted cells. This is what bounds the
    /// synopsis memory on an unbounded stream. A linear sweep over the
    /// contiguous columns with swap-remove compaction — cheap enough to
    /// call on a short cadence — with factors from `weights`: a load per
    /// cell younger than the table's cap, the model's `powi` per older
    /// one. The table is read-only here.
    pub fn prune(&mut self, weights: &WeightCache, now: u64, floor: f64) -> usize {
        let factor = |last: u64| weights.decay_between(last, now);
        // Eviction-horizon screen: every slot carries weight >= 1 at its
        // own `last_tick` (each upsert adds exactly 1 after decaying), so
        // its decayed count is at least `factor(min_last_tick)`. When even
        // that lower bound clears the floor, the sweep would evict nothing
        // - and a sweep that evicts nothing mutates nothing, so skipping
        // it is bit-identical.
        if self.min_last_tick == u64::MAX || factor(self.min_last_tick) >= floor {
            return 0;
        }
        let stride = 2 * self.card;
        let before = self.keys.len();
        let mut min_last = u64::MAX;
        let mut slot = 0usize;
        while slot < self.keys.len() {
            let live = self.d[slot] * factor(self.last_tick[slot]) >= floor;
            if live {
                min_last = min_last.min(self.last_tick[slot]);
                slot += 1;
                continue;
            }
            let last = self.keys.len() - 1;
            self.index.set(self.keys[slot], None);
            if slot != last {
                self.keys.swap(slot, last);
                self.d.swap(slot, last);
                self.last_tick.swap(slot, last);
                for i in 0..stride {
                    self.moments.swap(slot * stride + i, last * stride + i);
                }
                self.index.set(self.keys[slot], Some(slot));
            }
            self.keys.pop();
            self.d.pop();
            self.last_tick.pop();
            self.moments.truncate(last * stride);
        }
        self.min_last_tick = min_last;
        before - self.keys.len()
    }

    /// Approximate heap footprint in bytes. Accounted from the *content*
    /// (live cells), not `Vec` capacities — allocator history is neither
    /// restorable nor comparable, and the footprint must be a pure
    /// function of the synopsis content so a checkpoint-restored store
    /// reports exactly what the uninterrupted one does.
    pub fn approx_bytes(&self) -> usize {
        let cells = self.keys.len();
        std::mem::size_of::<Self>()
            + cells * std::mem::size_of::<CellKey>()
            + cells * std::mem::size_of::<f64>()
            + cells * std::mem::size_of::<u64>()
            + cells * 2 * self.card * std::mem::size_of::<f64>()
            + self.dims.len()
            + self.index.approx_bytes(cells)
    }
}

impl DurableState for ProjectedStore {
    /// The SoA columns are captured verbatim in slot order — restoring
    /// reproduces the exact slot layout (and with it iteration and
    /// pruning-compaction order), not just the logical cell map.
    fn capture(&self, w: &mut StateWriter) {
        w.u64("mask", self.subspace.mask());
        w.u128_col("keys", self.keys.iter().map(|k| k.0));
        w.f64_bits_col("d", self.d.iter().copied());
        w.u64_col("last", self.last_tick.iter().copied());
        w.f64_bits_col("moments", self.moments.iter().copied());
    }

    /// Restores the columns into a store already constructed for the same
    /// grid and subspace (`ProjectedStore::new` supplies the derived
    /// RD/IRSD numerators; the snapshot supplies the cells).
    fn restore(&mut self, r: &StateReader<'_>) -> Result<(), PersistError> {
        let mask = r.u64("mask")?;
        if mask != self.subspace.mask() {
            return Err(PersistError::custom(format!(
                "store subspace mismatch: snapshot has {mask:#x}, store is {:#x}",
                self.subspace.mask()
            )));
        }
        let keys = r.u128_col("keys")?;
        let d = r.f64_bits_col("d")?;
        let last = r.u64_col("last")?;
        let moments = r.f64_bits_col("moments")?;
        let n = keys.len();
        let stride = 2 * self.card;
        if d.len() != n || last.len() != n || moments.len() != n * stride {
            return Err(PersistError::custom(format!(
                "projected store columns disagree: {n} keys, {} d, {} last, {} moments \
                 (cardinality {})",
                d.len(),
                last.len(),
                moments.len(),
                self.card
            )));
        }
        // The index is derived state: rebuild it from the key column,
        // into a fresh value so a rejected column leaves the store as it
        // was. Keys arrive from disk — a key outside a dense store's table
        // or indexed twice is a corrupt column, not a cell.
        let mut index = self.index.emptied(n);
        for (slot, &key) in keys.iter().enumerate() {
            index.insert_restored(CellKey(key), slot).map_err(|what| {
                PersistError::custom(format!(
                    "{what} projected cell key {key:#x} at slot {slot} of store {:#x}",
                    self.subspace.mask()
                ))
            })?;
        }
        self.index = index;
        self.keys = keys.into_iter().map(CellKey).collect();
        self.d = d;
        self.min_last_tick = last.iter().copied().min().unwrap_or(u64::MAX);
        self.last_tick = last;
        self.moments = moments;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_types::DomainBounds;

    fn setup(dims: usize, m: u16) -> (Grid, TimeModel) {
        (
            Grid::new(DomainBounds::unit(dims), m).unwrap(),
            TimeModel::new(100, 0.01).unwrap(),
        )
    }

    /// Folds `p` in with every factor taken from the model (an empty
    /// table), discarding the screen.
    fn update(store: &mut ProjectedStore, grid: &Grid, tm: &TimeModel, now: u64, p: &DataPoint) {
        let base = grid.base_coords(p).unwrap();
        store.update_and_screen(grid, &WeightCache::new(*tm), now, &base, p, 1.0);
    }

    #[test]
    fn horizon_screen_skips_only_no_op_prunes() {
        // TimeModel(100, 0.01): a lone point falls below floor=1e-3 once
        // 0.01^(age/100) < 1e-3, i.e. strictly after age 150.
        let (grid, tm) = setup(2, 4);
        let s = Subspace::from_dims([0, 1]).unwrap();
        let mut store = ProjectedStore::new(&grid, s);
        update(&mut store, &grid, &tm, 10, &DataPoint::new(vec![0.1, 0.1]));
        for _ in 0..5 {
            update(&mut store, &grid, &tm, 100, &DataPoint::new(vec![0.9, 0.9]));
        }
        // Inside the horizon: screened out, nothing touched.
        assert_eq!(store.prune(&WeightCache::new(tm), 120, 1e-3), 0);
        assert_eq!(store.len(), 2);
        // Past the lone cell's horizon: the sweep runs and evicts it, and
        // the recomputed horizon screens the immediate re-prune.
        assert_eq!(store.prune(&WeightCache::new(tm), 200, 1e-3), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.prune(&WeightCache::new(tm), 200, 1e-3), 0);
        // The survivor eventually decays out too.
        assert_eq!(store.prune(&WeightCache::new(tm), 500, 1e-3), 1);
        assert_eq!(store.len(), 0);
        // Empty store: screened out.
        assert_eq!(store.prune(&WeightCache::new(tm), 600, 1e-3), 0);
    }

    #[test]
    fn rd_is_one_for_uniform_occupancy() {
        // 2 dims, m=2 → 4 projected cells in the 2-dim subspace. Put one
        // point in each cell: RD of every cell must be 1.
        let (grid, tm) = setup(2, 2);
        let s = Subspace::from_dims([0, 1]).unwrap();
        let mut store = ProjectedStore::new(&grid, s);
        let pts = [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]];
        for v in &pts {
            update(&mut store, &grid, &tm, 0, &DataPoint::new(v.to_vec()));
        }
        let total = 4.0;
        for v in &pts {
            let p = DataPoint::new(v.to_vec());
            let base = grid.base_coords(&p).unwrap();
            let pcs = store.pcs(&grid, &tm, 0, &base, total);
            assert!((pcs.rd - 1.0).abs() < 1e-9, "rd={}", pcs.rd);
        }
    }

    #[test]
    fn sparse_cell_has_low_rd() {
        let (grid, tm) = setup(2, 4);
        let s = Subspace::from_dims([0]).unwrap();
        let mut store = ProjectedStore::new(&grid, s);
        // 99 points in interval 0 of dim 0, 1 point in interval 3.
        for i in 0..99 {
            update(
                &mut store,
                &grid,
                &tm,
                0,
                &DataPoint::new(vec![0.1, (i % 10) as f64 / 10.0]),
            );
        }
        let lone = DataPoint::new(vec![0.9, 0.5]);
        update(&mut store, &grid, &tm, 0, &lone);
        let total = 100.0;
        let base = grid.base_coords(&lone).unwrap();
        let sparse = store.pcs(&grid, &tm, 0, &base, total);
        assert!(sparse.rd < 0.1, "rd={}", sparse.rd);
        let crowded = DataPoint::new(vec![0.1, 0.5]);
        let base = grid.base_coords(&crowded).unwrap();
        let dense = store.pcs(&grid, &tm, 0, &base, total);
        assert!(dense.rd > 1.0, "rd={}", dense.rd);
    }

    #[test]
    fn fused_update_matches_separate_query() {
        let (grid, tm) = setup(3, 8);
        let s = Subspace::from_dims([0, 2]).unwrap();
        let weights = WeightCache::new(tm);
        let mut fused = ProjectedStore::new(&grid, s);
        let mut split = ProjectedStore::new(&grid, s);
        let pts: Vec<DataPoint> = (0..200)
            .map(|i| {
                DataPoint::new(vec![
                    (i % 13) as f64 / 13.0,
                    0.5,
                    ((i * 7) % 11) as f64 / 11.0,
                ])
            })
            .collect();
        for (i, p) in pts.iter().enumerate() {
            let now = i as u64;
            let total = (i + 1) as f64;
            let base = grid.base_coords(p).unwrap();
            let touch = fused.update_and_screen(&grid, &weights, now, &base, p, total);
            update(&mut split, &grid, &tm, now, p);
            let pcs_split = split.pcs(&grid, &tm, now, &base, total);
            assert_eq!(fused.pcs_of(&touch), pcs_split, "point {i}");
            assert!(touch.occupancy > 0.0);
        }
    }

    #[test]
    fn tabled_update_matches_model_update_bitwise() {
        let (grid, tm) = setup(3, 8);
        let s = Subspace::from_dims([0, 2]).unwrap();
        let mut by_model = ProjectedStore::new(&grid, s);
        let mut by_table = ProjectedStore::new(&grid, s);
        // An empty table answers every age from the model; the other is
        // ensured as the manager ensures it.
        let model_only = WeightCache::new(tm);
        let mut table = WeightCache::new(tm);
        let pts: Vec<DataPoint> = (0..120)
            .map(|i| DataPoint::new(vec![(i % 5) as f64 / 5.0, 0.5, ((i * 3) % 4) as f64 / 4.0]))
            .collect();
        // Runs with gaps, so cells age across them.
        for (run_idx, run) in pts.chunks(40).enumerate() {
            let start = 1 + run_idx as u64 * 100;
            table.ensure(start + run.len() as u64);
            for (i, p) in run.iter().enumerate() {
                let now = start + i as u64;
                let total = (run_idx * 40 + i + 1) as f64;
                let base = grid.base_coords(p).unwrap();
                let ta = by_model.update_and_screen(&grid, &model_only, now, &base, p, total);
                let tb = by_table.update_and_screen(&grid, &table, now, &base, p, total);
                let (pa, pb) = (by_model.pcs_of(&ta), by_table.pcs_of(&tb));
                assert_eq!(pa.rd.to_bits(), pb.rd.to_bits(), "rd at point {i}");
                assert_eq!(pa.irsd.to_bits(), pb.irsd.to_bits(), "irsd at point {i}");
                assert_eq!(
                    ta.occupancy.to_bits(),
                    tb.occupancy.to_bits(),
                    "occupancy at point {i}"
                );
            }
        }
        assert_eq!(by_model.len(), by_table.len());
        for ((ka, ca), (kb, cb)) in by_model.iter().zip(by_table.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(
                ca.count_at(&tm, 500).to_bits(),
                cb.count_at(&tm, 500).to_bits()
            );
        }
    }

    #[test]
    fn empty_cell_yields_empty_pcs() {
        let (grid, tm) = setup(2, 4);
        let s = Subspace::from_dims([0, 1]).unwrap();
        let store = ProjectedStore::new(&grid, s);
        let p = DataPoint::new(vec![0.5, 0.5]);
        let base = grid.base_coords(&p).unwrap();
        assert_eq!(store.pcs(&grid, &tm, 0, &base, 10.0), Pcs::EMPTY);
    }

    #[test]
    fn irsd_distinguishes_tight_from_scattered() {
        let (grid, tm) = setup(1, 2);
        let s = Subspace::from_dims([0]).unwrap();

        // Tight cluster inside interval 0 ([0, 0.5)).
        let mut tight = ProjectedStore::new(&grid, s);
        for i in 0..50 {
            let v = 0.25 + (i as f64 - 25.0) * 1e-4;
            update(&mut tight, &grid, &tm, 0, &DataPoint::new(vec![v]));
        }
        // Scattered across the full interval.
        let mut scattered = ProjectedStore::new(&grid, s);
        for i in 0..50 {
            let v = 0.5 * (i as f64 + 0.5) / 50.0;
            update(&mut scattered, &grid, &tm, 0, &DataPoint::new(vec![v]));
        }
        let probe = DataPoint::new(vec![0.25]);
        let base = grid.base_coords(&probe).unwrap();
        let t = tight.pcs(&grid, &tm, 0, &base, 50.0);
        let sc = scattered.pcs(&grid, &tm, 0, &base, 50.0);
        assert!(
            t.irsd > sc.irsd,
            "tight {} vs scattered {}",
            t.irsd,
            sc.irsd
        );
        // Uniform scatter has IRSD near 1.
        assert!((sc.irsd - 1.0).abs() < 0.2, "irsd={}", sc.irsd);
    }

    #[test]
    fn singleton_cell_is_maximally_sparse() {
        let (grid, tm) = setup(1, 2);
        let s = Subspace::from_dims([0]).unwrap();
        let mut store = ProjectedStore::new(&grid, s);
        update(&mut store, &grid, &tm, 0, &DataPoint::new(vec![0.3]));
        let base = grid.base_coords(&DataPoint::new(vec![0.3])).unwrap();
        let pcs = store.pcs(&grid, &tm, 0, &base, 100.0);
        assert_eq!(pcs.irsd, 0.0, "lone occupant must read as sparse");
        assert!(pcs.rd < 0.1);
    }

    #[test]
    fn identical_points_saturate_irsd() {
        let (grid, tm) = setup(1, 2);
        let s = Subspace::from_dims([0]).unwrap();
        let mut store = ProjectedStore::new(&grid, s);
        for _ in 0..5 {
            update(&mut store, &grid, &tm, 0, &DataPoint::new(vec![0.3]));
        }
        let base = grid.base_coords(&DataPoint::new(vec![0.3])).unwrap();
        let pcs = store.pcs(&grid, &tm, 0, &base, 5.0);
        assert_eq!(pcs.irsd, f64::MAX);
    }

    #[test]
    fn stale_query_keeps_irsd_invariant() {
        // σ (and hence IRSD) is derived from the self-consistent stored
        // D/LS/SS triple, so querying a cell long after its last update
        // must decay RD but leave IRSD exactly where it was — regression
        // guard against mixing the renormalized count with undecayed
        // moment sums (which drove σ→0 and IRSD→f64::MAX).
        let (grid, tm) = setup(1, 2);
        let s = Subspace::from_dims([0]).unwrap();
        let mut store = ProjectedStore::new(&grid, s);
        for i in 0..100 {
            let v = 0.5 * (i as f64 + 0.5) / 100.0; // spread over interval 0
            update(&mut store, &grid, &tm, 0, &DataPoint::new(vec![v]));
        }
        let base = grid.base_coords(&DataPoint::new(vec![0.25])).unwrap();
        let fresh = store.pcs(&grid, &tm, 0, &base, 100.0);
        let stale = store.pcs(&grid, &tm, 32, &base, 100.0);
        assert!(fresh.irsd.is_finite() && fresh.irsd > 0.0);
        assert_eq!(
            stale.irsd.to_bits(),
            fresh.irsd.to_bits(),
            "IRSD must be query-tick-invariant: fresh={} stale={}",
            fresh.irsd,
            stale.irsd
        );
        assert!(stale.rd < fresh.rd, "RD must decay with the cell count");
        // Once the decayed occupancy drops below 2, the cell reads as
        // maximally sparse again (matching the seed's d<2 rule).
        let ancient = store.pcs(&grid, &tm, 100 * 6, &base, 100.0);
        assert_eq!(ancient.irsd, 0.0);
    }

    #[test]
    fn pruning_evicts_stale_cells() {
        let (grid, tm) = setup(1, 4);
        let s = Subspace::from_dims([0]).unwrap();
        let mut store = ProjectedStore::new(&grid, s);
        update(&mut store, &grid, &tm, 0, &DataPoint::new(vec![0.1]));
        update(&mut store, &grid, &tm, 0, &DataPoint::new(vec![0.9]));
        assert_eq!(store.len(), 2);
        // After many omega windows both cells hold ~nothing.
        let evicted = store.prune(&WeightCache::new(tm), 100 * 20, 1e-6);
        assert_eq!(evicted, 2);
        assert!(store.is_empty());
    }

    #[test]
    fn pruning_keeps_fresh_cells() {
        let (grid, tm) = setup(1, 4);
        let s = Subspace::from_dims([0]).unwrap();
        let mut store = ProjectedStore::new(&grid, s);
        update(&mut store, &grid, &tm, 1000, &DataPoint::new(vec![0.1]));
        assert_eq!(store.prune(&WeightCache::new(tm), 1000, 0.5), 0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn pruning_compaction_keeps_survivors_queryable() {
        let (grid, tm) = setup(1, 8);
        let s = Subspace::from_dims([0]).unwrap();
        let mut store = ProjectedStore::new(&grid, s);
        // Four old cells, then refresh two of them much later.
        for i in 0..4 {
            update(
                &mut store,
                &grid,
                &tm,
                0,
                &DataPoint::new(vec![i as f64 / 8.0 + 0.01]),
            );
        }
        let now = 5000;
        let fresh = [0.01, 0.26];
        for v in fresh {
            update(&mut store, &grid, &tm, now, &DataPoint::new(vec![v]));
        }
        let evicted = store.prune(&WeightCache::new(tm), now, 0.5);
        assert_eq!(evicted, 2);
        assert_eq!(store.len(), 2);
        for v in fresh {
            let base = grid.base_coords(&DataPoint::new(vec![v])).unwrap();
            let pcs = store.pcs(&grid, &tm, now, &base, 2.0);
            assert!(pcs.rd > 0.0, "survivor at {v} lost its cell");
        }
        // Index stays consistent with the compacted columns.
        for (key, cell) in store.iter() {
            assert!(cell.count_at(&tm, now) >= 0.5);
            let _ = key;
        }
    }

    #[test]
    fn decayed_counts_follow_time_model() {
        let (grid, tm) = setup(1, 2);
        let s = Subspace::from_dims([0]).unwrap();
        let mut store = ProjectedStore::new(&grid, s);
        let p = DataPoint::new(vec![0.25]);
        update(&mut store, &grid, &tm, 0, &p);
        let (_, cell) = store.iter().next().unwrap();
        let at_omega = cell.count_at(&tm, 100);
        assert!((at_omega - 0.01).abs() < 1e-6); // epsilon at omega
    }
}
