//! Behavioural equivalence of the packed-key stores against the seed's
//! boxed-coordinate-slice semantics.
//!
//! The reference model below mirrors the pre-refactor implementation: cells
//! keyed by their literal `Vec<u16>` coordinate slices in an ordered map,
//! decayed `D/LS/SS` per cell, PCS derived with the same arithmetic in the
//! same operation order. Equality is asserted on the *bits* of the derived
//! RD/IRSD — the packed keys must change addressing only, never a number.

use spot_stream::{DecayedCounter, TimeModel, WeightCache};
use spot_subspace::Subspace;
use spot_synopsis::{CellTouch, Grid, Pcs, PointRun, ProjectedStore, SynopsisManager};
use spot_types::{DataPoint, DomainBounds, DurableState, StateReader, StateWriter};
use std::collections::{BTreeMap, HashMap};

/// Seed-style projected store: boxed coordinate keys, separate update and
/// query passes.
/// (d, ls, ss, last_tick) of one reference cell.
type RefCell = (f64, Vec<f64>, Vec<f64>, u64);

struct ReferenceStore {
    subspace: Subspace,
    cells: BTreeMap<Vec<u16>, RefCell>,
    cell_count: f64,
    uniform_sigma: f64,
}

impl ReferenceStore {
    fn new(grid: &Grid, subspace: Subspace) -> Self {
        ReferenceStore {
            subspace,
            cells: BTreeMap::new(),
            cell_count: grid.cell_count_in(&subspace),
            uniform_sigma: grid.uniform_sigma_in(&subspace),
        }
    }

    fn project(&self, base: &[u16]) -> Vec<u16> {
        self.subspace.dims().map(|d| base[d]).collect()
    }

    fn update(&mut self, model: &TimeModel, now: u64, base: &[u16], p: &DataPoint) {
        let card = self.subspace.cardinality();
        let coords = self.project(base);
        let (d, ls, ss, last) = self
            .cells
            .entry(coords)
            .or_insert_with(|| (0.0, vec![0.0; card], vec![0.0; card], now));
        let f = model.decay_between(*last, now);
        if f != 1.0 {
            *d *= f;
            for v in ls.iter_mut() {
                *v *= f;
            }
            for v in ss.iter_mut() {
                *v *= f;
            }
        }
        *last = now;
        *d += 1.0;
        for (i, dim) in self.subspace.dims().enumerate() {
            let v = p.value(dim);
            ls[i] += v;
            ss[i] += v * v;
        }
    }

    /// Decayed count of the cell containing `base` as last updated (the
    /// occupancy a touch at that tick reports).
    fn occupancy(&self, base: &[u16]) -> f64 {
        self.cells[&self.project(base)].0
    }

    /// Evicts cells whose decayed count at `now` fell below `floor`.
    fn prune(&mut self, model: &TimeModel, now: u64, floor: f64) -> usize {
        let before = self.cells.len();
        self.cells
            .retain(|_, (d, _, _, last)| *d * model.decay_between(*last, now) >= floor);
        before - self.cells.len()
    }

    fn pcs_at(&self, model: &TimeModel, now: u64, base: &[u16], total: f64) -> Pcs {
        let coords = self.project(base);
        let Some((d0, ls, ss, last)) = self.cells.get(&coords) else {
            return Pcs::EMPTY;
        };
        let d = d0 * model.decay_between(*last, now);
        let rd = if total > f64::EPSILON {
            d * self.cell_count / total
        } else {
            0.0
        };
        let irsd = if d < 2.0 {
            0.0
        } else {
            // Seed semantics: σ comes from the stored (self-consistent)
            // D/LS/SS triple — it is decay-invariant, so the stored values
            // are exact regardless of the query tick.
            let sigma = {
                let mut acc = 0.0;
                for i in 0..ls.len() {
                    let m = ls[i] / d0;
                    acc += (ss[i] / d0 - m * m).max(0.0);
                }
                acc.sqrt()
            };
            if *d0 <= f64::EPSILON {
                0.0
            } else if sigma > f64::EPSILON {
                self.uniform_sigma / sigma
            } else {
                f64::MAX
            }
        };
        Pcs { rd, irsd }
    }
}

/// Deterministic pseudo-stream without pulling in the rand stub.
fn stream(n: usize, dims: usize, seed: u64) -> Vec<DataPoint> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| DataPoint::new((0..dims).map(|_| next()).collect()))
        .collect()
}

fn assert_equivalent(dims: usize, granularity: u16, subspaces: &[Subspace], n: usize) {
    let grid = Grid::new(DomainBounds::unit(dims), granularity).unwrap();
    let tm = TimeModel::new(64, 0.05).unwrap();
    // The packed stores take their factors from a table kept up as the
    // manager keeps it; the reference asks the model.
    let mut weights = WeightCache::new(tm);
    let mut packed: Vec<ProjectedStore> = subspaces
        .iter()
        .map(|&s| ProjectedStore::new(&grid, s))
        .collect();
    let mut reference: Vec<ReferenceStore> = subspaces
        .iter()
        .map(|&s| ReferenceStore::new(&grid, s))
        .collect();

    for (i, p) in stream(n, dims, 0xC0FFEE ^ dims as u64).iter().enumerate() {
        let now = i as u64;
        let total = (i + 1) as f64;
        let base = grid.base_coords(p).unwrap();
        weights.ensure(now + 1);
        for (ps, rs) in packed.iter_mut().zip(reference.iter_mut()) {
            let touch = ps.update_and_screen(&grid, &weights, now, &base, p, total);
            let (got, occ) = (ps.pcs_of(&touch), touch.occupancy);
            rs.update(&tm, now, &base, p);
            let want = rs.pcs_at(&tm, now, &base, total);
            assert_eq!(
                got.rd.to_bits(),
                want.rd.to_bits(),
                "rd diverged: dims={dims} m={granularity} point={i} s={}",
                ps.subspace()
            );
            assert_eq!(
                got.irsd.to_bits(),
                want.irsd.to_bits(),
                "irsd diverged: dims={dims} m={granularity} point={i} s={}",
                ps.subspace()
            );
            assert!(occ > 0.0);
        }
    }
    for (ps, rs) in packed.iter().zip(reference.iter()) {
        assert_eq!(ps.len(), rs.cells.len(), "cell population diverged");
    }
}

#[test]
fn packed_matches_reference_small_granularities() {
    for m in [2u16, 3] {
        let subs = [
            Subspace::from_dims([0]).unwrap(),
            Subspace::from_dims([1, 3]).unwrap(),
            Subspace::from_dims([0, 2, 4]).unwrap(),
        ];
        assert_equivalent(5, m, &subs, 400);
    }
}

#[test]
fn packed_matches_reference_wide_granularities() {
    // m=255 → 8 bits/dim; m=1024 → 10 bits/dim. Both exactly packed at
    // these cardinalities.
    for m in [255u16, 1024] {
        let subs = [
            Subspace::from_dims([0, 1]).unwrap(),
            Subspace::from_dims([2, 3, 4, 5]).unwrap(),
        ];
        assert_equivalent(6, m, &subs, 400);
    }
}

#[test]
fn packed_matches_reference_wide_phi_fallback() {
    // ϕ=40 at m=10: the full space needs 160 bits — the fingerprint
    // fallback regime — while narrow projected keys stay exact. The full
    // space goes through the same store as any other subspace.
    let subs = [
        Subspace::from_dims([0, 7, 19]).unwrap(),
        Subspace::from_dims([3, 11, 24, 38]).unwrap(),
        Subspace::full(40).unwrap(),
    ];
    assert!(!Grid::new(DomainBounds::unit(40), 10)
        .unwrap()
        .codec()
        .is_exact(40));
    assert_equivalent(40, 10, &subs, 300);
}

#[test]
fn wide_subspace_projected_keys_also_fall_back() {
    // A 20-dimensional subspace at m=1024 (10 bits/dim) needs 200 bits:
    // even the projected key takes the fingerprint path.
    let dims = 24;
    let grid = Grid::new(DomainBounds::unit(dims), 1024).unwrap();
    let s = Subspace::from_dims(0..20).unwrap();
    assert!(!grid.codec().is_exact(s.cardinality()));
    let tm = TimeModel::new(64, 0.05).unwrap();
    let mut weights = WeightCache::new(tm);
    let mut packed = ProjectedStore::new(&grid, s);
    let mut reference = ReferenceStore::new(&grid, s);
    for (i, p) in stream(300, dims, 99).iter().enumerate() {
        let now = i as u64;
        let total = (i + 1) as f64;
        let base = grid.base_coords(p).unwrap();
        weights.ensure(now + 1);
        let touch = packed.update_and_screen(&grid, &weights, now, &base, p, total);
        let got = packed.pcs_of(&touch);
        reference.update(&tm, now, &base, p);
        let want = reference.pcs_at(&tm, now, &base, total);
        assert_eq!(got.rd.to_bits(), want.rd.to_bits(), "point {i}");
        assert_eq!(got.irsd.to_bits(), want.irsd.to_bits(), "point {i}");
    }
    assert_eq!(packed.len(), reference.cells.len());
}

/// Heap bytes an empty store spends on its slot index: the dense table, or
/// nothing for a hashed store — how the tests below tell which side of the
/// cut a store is on.
fn empty_index_bytes(grid: &Grid, s: Subspace) -> usize {
    ProjectedStore::new(grid, s).approx_bytes()
        - std::mem::size_of::<ProjectedStore>()
        - s.cardinality()
}

/// One store through its whole life — upsert, prune with compaction,
/// capture, restore, upsert again — against the ordered-map model, every
/// PCS compared by bits.
fn assert_lifecycle_equivalent(dims: usize, granularity: u16, s: Subspace, index_bytes: usize) {
    let grid = Grid::new(DomainBounds::unit(dims), granularity).unwrap();
    assert_eq!(
        empty_index_bytes(&grid, s),
        index_bytes,
        "index kind of {s} at m={granularity}"
    );
    let tm = TimeModel::new(64, 0.05).unwrap();
    // A table shorter than the stream: ages past it (the corner stretch
    // revisits cells 600 ticks old) take the model fallback.
    let mut weights = WeightCache::new(tm);
    weights.ensure(256);
    let mut packed = ProjectedStore::new(&grid, s);
    let mut reference = ReferenceStore::new(&grid, s);
    // `seen` points before this one make up the global weight.
    let step = |packed: &mut ProjectedStore,
                reference: &mut ReferenceStore,
                seen: usize,
                now: u64,
                p: &DataPoint,
                label: &str| {
        let total = (seen + 1) as f64;
        let base = grid.base_coords(p).unwrap();
        let touch = packed.update_and_screen(&grid, &weights, now, &base, p, total);
        let got = packed.pcs_of(&touch);
        reference.update(&tm, now, &base, p);
        let want = reference.pcs_at(&tm, now, &base, total);
        assert_eq!(got.rd.to_bits(), want.rd.to_bits(), "{label}: rd at {now}");
        assert_eq!(
            got.irsd.to_bits(),
            want.irsd.to_bits(),
            "{label}: irsd at {now}"
        );
    };

    // Spread the first stretch over the whole box, then — much later —
    // revisit one corner only: the prune below evicts the cells outside
    // the corner, which sit scattered through the slot order, so the
    // survivors are compacted over them.
    let wide = stream(160, dims, 0xD15C ^ granularity as u64);
    for (i, p) in wide.iter().enumerate() {
        step(&mut packed, &mut reference, i, i as u64, p, "fill");
    }
    let corner: Vec<DataPoint> = stream(120, dims, 0xC0DE ^ granularity as u64)
        .iter()
        .map(|p| DataPoint::new(p.values().iter().map(|v| v * 0.4).collect()))
        .collect();
    for (i, p) in corner.iter().enumerate() {
        let seen = wide.len() + i;
        step(
            &mut packed,
            &mut reference,
            seen,
            600 + i as u64,
            p,
            "corner",
        );
    }
    let now = 720;
    let populated = packed.len();
    let evicted = packed.prune(&weights, now, 1e-3);
    assert_eq!(evicted, reference.prune(&tm, now, 1e-3), "evictions");
    assert!(
        evicted > 0 && evicted < populated,
        "prune must compact: {evicted} of {populated}"
    );
    assert_eq!(packed.len(), reference.cells.len());

    // Every survivor is where the model says, reachable by its key.
    let card = s.cardinality();
    for (key, cell) in packed.iter() {
        let coords = grid.codec().unpack(key, card);
        let (d, _, _, last) = &reference.cells[&coords];
        assert_eq!(
            cell.count_at(&tm, now).to_bits(),
            (d * tm.decay_between(*last, now)).to_bits()
        );
    }

    // Capture → restore: same slot order, and the rebuilt index finds
    // every cell.
    let mut w = StateWriter::new();
    packed.capture(&mut w);
    let state = w.finish();
    let mut restored = ProjectedStore::new(&grid, s);
    restored
        .restore(&StateReader::new(&state).unwrap())
        .unwrap();
    let horizon = now + 1000;
    let slots = |store: &ProjectedStore| -> Vec<(u128, u64)> {
        store
            .iter()
            .map(|(k, c)| (k.0, c.count_at(&tm, horizon).to_bits()))
            .collect()
    };
    assert_eq!(slots(&packed), slots(&restored), "slot order");
    assert_eq!(packed.approx_bytes(), restored.approx_bytes());

    // Both keep absorbing the stream identically: old cells are found,
    // evicted ones reopen as new cells.
    let tail = stream(150, dims, 0x7A11 ^ granularity as u64);
    let mut twin = ReferenceStore::new(&grid, s);
    twin.cells = reference.cells.clone();
    for (i, p) in tail.iter().enumerate() {
        let (seen, tick) = (wide.len() + corner.len() + i, now + 1 + i as u64);
        step(&mut packed, &mut reference, seen, tick, p, "live tail");
        step(&mut restored, &mut twin, seen, tick, p, "restored tail");
    }
    assert_eq!(
        slots(&packed),
        slots(&restored),
        "slot order after the tail"
    );
}

#[test]
fn dense_and_hashed_stores_match_reference_through_prune_and_restore() {
    // 4 bits/dim × 2 = 8-bit keys: dense, 256-entry table.
    assert_lifecycle_equivalent(4, 10, Subspace::from_dims([1, 3]).unwrap(), 256 * 2);
    // 5 bits/dim × 2 = 10-bit keys: the widest dense store.
    assert_lifecycle_equivalent(4, 32, Subspace::from_dims([0, 2]).unwrap(), 1024 * 2);
    // 10 bits × 1: dense at the cut from the other direction.
    assert_lifecycle_equivalent(3, 1024, Subspace::from_dims([1]).unwrap(), 1024 * 2);
    // 4 bits/dim × 3 = 12-bit keys: past the cut, hashed.
    assert_lifecycle_equivalent(4, 10, Subspace::from_dims([0, 1, 3]).unwrap(), 0);
    // 6 bits/dim × 2 = 12 bits: hashed as well.
    assert_lifecycle_equivalent(4, 64, Subspace::from_dims([2, 3]).unwrap(), 0);
}

/// A stream that revisits cells at any ϕ: arrivals are drawn from a fixed
/// set of prototypes (uniform draws would never share a cell at ϕ=64).
fn revisiting_stream(n: usize, dims: usize, prototypes: usize, seed: u64) -> Vec<DataPoint> {
    let protos = stream(prototypes, dims, seed);
    let picks = stream(n, 1, seed ^ 0x9E37);
    picks
        .iter()
        .map(|u| protos[(u.value(0) * prototypes as f64) as usize % prototypes].clone())
        .collect()
}

#[test]
fn idle_clock_past_the_table_cap_and_decay_underflow_matches_the_model() {
    // The weight table stops at MAX_AGES; δ^age itself stops at 0. A
    // stream that pauses for longer than either must come back to exactly
    // what the model-only stores compute — on the per-point path, on the
    // batch path, and in what a prune evicts.
    let dims = 3;
    let grid = Grid::new(DomainBounds::unit(dims), 6).unwrap();
    // δ^MAX_AGES ≈ 4.7e-6 (small, not zero); δ^500_000 underflows to 0.
    let tm = TimeModel::new(1000, 0.05).unwrap();
    let cap = WeightCache::MAX_AGES as u64;
    assert!(tm.weight_after(cap + 1) > 0.0 && tm.weight_after(500_000) == 0.0);
    let subspaces = [
        Subspace::from_dims([0]).unwrap(),
        Subspace::from_dims([1, 2]).unwrap(),
        Subspace::from_dims([0, 1, 2]).unwrap(),
    ];
    let build = || {
        let mut mgr = SynopsisManager::new(grid.clone(), tm);
        for s in subspaces {
            mgr.add_subspace(s);
        }
        mgr
    };
    let (mut per_point, mut batched) = (build(), build());
    let mut ref_stores: Vec<ReferenceStore> = subspaces
        .iter()
        .map(|&s| ReferenceStore::new(&grid, s))
        .collect();
    let mut ref_total = DecayedCounter::new();

    let mut now = 0u64;
    let mut sink = Vec::new();
    let (mut sinks, mut outcomes) = (Vec::new(), Vec::new());
    // Each phase: idle for `gap` ticks, ingest 90 points, prune.
    let gaps = [1, cap + 5, 500_000, i32::MAX as u64 + 7];
    for (phase, gap) in gaps.into_iter().enumerate() {
        let start = now + gap;
        let pts = revisiting_stream(90, dims, 25, 0x1D1E + 2 * phase as u64);
        batched
            .update_and_query_batch(start, &pts, &mut sinks, &mut outcomes)
            .unwrap();
        for (i, p) in pts.iter().enumerate() {
            now = start + i as u64;
            let label = format!("phase {phase}, point {i}");
            let out = per_point.update_and_query(now, p, &mut sink).unwrap();
            let coords = grid.base_coords(p).unwrap();
            ref_total.add(&tm, now, 1.0);
            let total = ref_total.value_at(&tm, now);
            for (got, want) in [(out.total_weight, total), (outcomes[i].total_weight, total)] {
                assert_eq!(got.to_bits(), want.to_bits(), "{label}");
            }
            for (k, rs) in ref_stores.iter_mut().enumerate() {
                rs.update(&tm, now, &coords, p);
                let want = rs.pcs_at(&tm, now, &coords, total);
                for got in [&sink[k], &sinks[i][k]] {
                    assert_eq!(got.pcs.rd.to_bits(), want.rd.to_bits(), "{label}: rd");
                    assert_eq!(got.pcs.irsd.to_bits(), want.irsd.to_bits(), "{label}: irsd");
                }
                assert_eq!(sink[k].occupancy.to_bits(), sinks[i][k].occupancy.to_bits());
            }
        }
        // Whatever survived the pause is exactly what the model keeps.
        let floor = 1e-3;
        let want_evicted = ref_stores
            .iter_mut()
            .map(|rs| rs.prune(&tm, now, floor))
            .sum::<usize>();
        assert!(
            phase == 0 || want_evicted > 0,
            "phase {phase} evicts nothing"
        );
        assert_eq!(per_point.prune(now, floor), want_evicted, "phase {phase}");
        assert_eq!(batched.prune(now, floor), want_evicted, "phase {phase}");
        for mgr in [&per_point, &batched] {
            for (s, rs) in subspaces.iter().zip(&ref_stores) {
                let mut got: Vec<Vec<u16>> = mgr
                    .projected_store(s)
                    .unwrap()
                    .iter()
                    .map(|(key, _)| grid.codec().unpack(key, s.cardinality()))
                    .collect();
                got.sort_unstable();
                let want: Vec<Vec<u16>> = rs.cells.keys().cloned().collect();
                assert_eq!(got, want, "phase {phase}: survivors of {s}");
            }
        }
        let capture = |mgr: &SynopsisManager| {
            let mut w = StateWriter::new();
            mgr.capture_state(&mut w);
            w.finish()
        };
        assert_eq!(capture(&per_point), capture(&batched));
    }
}

/// One store beside its ordered-map model, fed the same points: one
/// single-touch call a point when `runs` is `None`, else one run call per
/// run of the given lengths, cycled.
struct Twin<'g> {
    grid: &'g Grid,
    tm: TimeModel,
    weights: WeightCache,
    store: ProjectedStore,
    reference: ReferenceStore,
    runs: Option<&'static [usize]>,
    label: String,
}

impl Twin<'_> {
    /// Feeds `points` at ticks `start, start+1, …`, comparing every
    /// touch's PCS and occupancy by bits as the store hands it over. Point
    /// `i`'s global weight is `seen + i + 1`.
    fn feed(&mut self, (start, seen): (u64, usize), points: &[DataPoint], stage: &str) {
        let Twin {
            grid,
            tm,
            weights,
            store,
            reference,
            runs,
            label,
        } = self;
        let phi = grid.dims();
        let coords: Vec<u16> = points
            .iter()
            .flat_map(|p| grid.base_coords(p).unwrap())
            .collect();
        let totals: Vec<f64> = (0..points.len()).map(|i| (seen + i + 1) as f64).collect();
        let mut check = |store: &ProjectedStore, i: usize, touch: CellTouch| {
            let now = start + i as u64;
            let base = &coords[i * phi..(i + 1) * phi];
            reference.update(tm, now, base, &points[i]);
            let want = reference.pcs_at(tm, now, base, totals[i]);
            let got = store.pcs_of(&touch);
            let at = format!("{label}, {stage}: tick {now}");
            assert_eq!(got.rd.to_bits(), want.rd.to_bits(), "{at}: rd");
            assert_eq!(got.irsd.to_bits(), want.irsd.to_bits(), "{at}: irsd");
            assert_eq!(
                touch.occupancy.to_bits(),
                reference.occupancy(base).to_bits(),
                "{at}: occupancy"
            );
        };
        let Some(lens) = runs else {
            for (i, p) in points.iter().enumerate() {
                let now = start + i as u64;
                weights.ensure(now + 1);
                let base = &coords[i * phi..(i + 1) * phi];
                let touch = store.update_and_screen(grid, weights, now, base, p, totals[i]);
                check(store, i, touch);
            }
            return;
        };
        let mut i = 0;
        for &len in lens.iter().cycle() {
            if i == points.len() {
                break;
            }
            let end = (i + len).min(points.len());
            // As the manager does: the table reaches the run's last tick.
            weights.ensure(start + end as u64);
            let run = PointRun {
                start_tick: start + i as u64,
                coords: &coords[i * phi..end * phi],
                points: &points[i..end],
                totals: &totals[i..end],
            };
            store.update_and_screen_batch(grid, weights, run, |store, j, touch| {
                check(store, i + j, touch)
            });
            i = end;
        }
    }

    /// The store's captured columns against the model's cells, by bits:
    /// every slot's key names a model cell (packed or fingerprinted as the
    /// codec does) with the same count, tick and moments.
    fn assert_columns_match(&self, stage: &str) {
        let mut w = StateWriter::new();
        self.store.capture(&mut w);
        let state = w.finish();
        let r = StateReader::new(&state).unwrap();
        let keys = r.u128_col("keys").unwrap();
        let d = r.f64_bits_col("d").unwrap();
        let last = r.u64_col("last").unwrap();
        let moments = r.f64_bits_col("moments").unwrap();
        let label = format!("{}, {stage}", self.label);
        let card = self.store.cardinality();
        assert_eq!(keys.len(), self.reference.cells.len(), "{label}: cells");
        let model: HashMap<u128, &RefCell> = self
            .reference
            .cells
            .iter()
            .map(|(coords, cell)| (self.grid.codec().pack(coords).0, cell))
            .collect();
        for (slot, key) in keys.iter().enumerate() {
            let (want_d, ls, ss, want_last) = model[key];
            assert_eq!(
                d[slot].to_bits(),
                want_d.to_bits(),
                "{label}: d, slot {slot}"
            );
            assert_eq!(last[slot], *want_last, "{label}: tick, slot {slot}");
            let stripe = &moments[slot * 2 * card..(slot + 1) * 2 * card];
            let want: Vec<u64> = ls.iter().chain(ss).map(|v| v.to_bits()).collect();
            let got: Vec<u64> = stripe.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{label}: moments, slot {slot}");
        }
    }
}

#[test]
fn every_kernel_instance_matches_reference_through_runs_prune_and_restore() {
    // The touch kernel has an unrolled instance per width 1..=4 and one
    // runtime-width instance. Each store below goes through the
    // single-touch entry and through runs of 1, 7 and 256 ticks — before
    // and after a prune that compacts it, and across a capture/restore.
    // At ϕ=40, per granularity (`dense_up_to`: the widest dense store):
    // * m=4, 2 bits a dimension: |s| = 1..=5 dense (|s|=5 on the runtime
    //   width), the full space an exact 80-bit key;
    // * m=10: |s| ≤ 2 dense, 3..=5 hashed, the full space fingerprinted;
    // * m=32: |s|=2 is the 10-bit cut, 3..=5 hashed, full fingerprinted.
    let dims = 40;
    let tm = TimeModel::new(64, 0.05).unwrap();
    let projected: [&[usize]; 5] = [
        &[0],
        &[3, 17],
        &[1, 20, 39],
        &[2, 9, 26, 33],
        &[4, 11, 18, 25, 32],
    ];
    for (m, dense_up_to) in [(4u16, 5), (10, 2), (32, 2)] {
        let grid = Grid::new(DomainBounds::unit(dims), m).unwrap();
        let full = Subspace::full(dims).unwrap();
        assert_eq!(grid.codec().is_exact(dims), m == 4);
        let stores = projected
            .iter()
            .map(|s| Subspace::from_dims(s.iter().copied()).unwrap())
            .chain([full]);
        for s in stores {
            let dense = s.cardinality() <= dense_up_to && s != full;
            assert_eq!(empty_index_bytes(&grid, s) > 0, dense, "index of {s}");
            for runs in [None, Some(&[1usize, 7, 256][..])] {
                let mut twin = Twin {
                    grid: &grid,
                    tm,
                    weights: WeightCache::new(tm),
                    store: ProjectedStore::new(&grid, s),
                    reference: ReferenceStore::new(&grid, s),
                    runs,
                    label: format!("m={m} s={s} runs={runs:?}"),
                };
                let seed = m as u64 ^ s.mask();
                // The whole box, then — long after — one corner only, so
                // the prune evicts cells scattered through the slot order.
                let wide = revisiting_stream(300, dims, 40, 0xA11 ^ seed);
                twin.feed((0, 0), &wide, "fill");
                let corner: Vec<DataPoint> = revisiting_stream(264, dims, 12, 0xC0 ^ seed)
                    .iter()
                    .map(|p| DataPoint::new(p.values().iter().map(|v| v * 0.4).collect()))
                    .collect();
                twin.feed((600, 300), &corner, "corner");
                let now = 900;
                twin.weights.ensure(now + 1);
                let populated = twin.store.len();
                let evicted = twin.store.prune(&twin.weights, now, 1e-3);
                assert_eq!(evicted, twin.reference.prune(&tm, now, 1e-3));
                assert!(
                    evicted > 0 && evicted < populated,
                    "{}: prune must compact, {evicted} of {populated}",
                    twin.label
                );
                twin.assert_columns_match("pruned");

                // Capture → restore; the restored store then reopens
                // evicted cells and revisits survivors.
                let mut w = StateWriter::new();
                twin.store.capture(&mut w);
                let state = w.finish();
                let mut restored = ProjectedStore::new(&grid, s);
                restored
                    .restore(&StateReader::new(&state).unwrap())
                    .unwrap();
                twin.store = restored;
                twin.assert_columns_match("restored");
                let tail = revisiting_stream(300, dims, 40, 0x7A1 ^ seed);
                twin.feed((now + 1, 564), &tail, "tail");
                twin.assert_columns_match("tail");
            }
        }
    }
}
